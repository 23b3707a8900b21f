"""Association measures for two-way tables: odds, odds ratios, and the
score-weighted Pearson correlation (phi coefficient on 2x2 tables).

A row or column index that is out of range for the table, or is not an
integer (``operator.index`` refuses it: 0.5, 1.0, a string), raises
``IndexError``; every other bad argument raises ``ValueError``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import _ordered
from .table import _BOOLS, ContingencyTable

__all__ = [
    "ScoreAssignment",
    "OddsRatioResult",
    "default_scores",
    "odds",
    "odds_ratio",
    "pearson_correlation",
]


# The score rule's bounds: with every score 0 or of magnitude in [A, B],
# ulp(A)^4 / 16 <= ss_u * ss_v <= 16 n^2 B^4 are normal floats for n <= 2^63.
_MIN_SCORE, _MAX_SCORE = 1e-60, 1e66


@dataclass(frozen=True)
class ScoreAssignment:
    """Numeric codes for the row and column categories, in table order:
    each axis is read once, and a set or a mapping is refused.

    Each axis needs at least two distinct values, otherwise the induced
    variable is constant and correlation is undefined. Every score is 0
    or between 1e-60 and 1e66 in magnitude, so that the product of the
    sums of squares neither overflows nor underflows.
    """

    row_scores: tuple[float, ...]
    col_scores: tuple[float, ...]

    def __post_init__(self) -> None:
        for field, axis in (("row_scores", "row"), ("col_scores", "column")):
            values = _ordered(getattr(self, field), f"{axis} scores")
            try:
                # Bounded before float(), which overflows at 10**400; NaN fails too.
                valid = all(s == 0 or _MIN_SCORE <= abs(s) <= _MAX_SCORE for s in values)
                scores = tuple(float(s) for s in values) if valid else None
            except (TypeError, ValueError):  # strings, complex, rows of a 2-D array
                scores = None
            if scores is None:
                raise ValueError(f"{axis} scores must be 0 or between {_MIN_SCORE:g} and "
                                 f"{_MAX_SCORE:g} in magnitude, got {values!r}")
            if len(set(scores)) < 2:
                raise ValueError(f"{axis} scores need >= 2 distinct values, got {scores}")
            object.__setattr__(self, field, scores)


@dataclass(frozen=True)
class OddsRatioResult:
    """Cross-product odds ratio for a 2x2 sub-table.

    estimate is in [0, +inf]; it is +inf when the denominator product is
    zero and no correction was applied. cells_used holds the chosen
    (row, row*, col, col*) indices.
    """

    estimate: float
    cells_used: tuple[int, int, int, int]
    correction_applied: bool


@functools.lru_cache(maxsize=64)
def _score_range(size: int) -> np.ndarray:
    scores = np.arange(1.0, size + 1)
    scores.setflags(write=False)
    return scores


def _score_vectors(scores: ScoreAssignment | None,
                   shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The row and column score vectors of a table of ``shape``: with no
    scores, consecutive integers 1..I and 1..J as read-only float arrays,
    built once per size and shared (with I, J >= 2 they always have two
    distinct values per axis); otherwise the given scores as float
    arrays, one per category."""
    n_rows, n_cols = shape
    if scores is None:
        return _score_range(n_rows), _score_range(n_cols)
    if not isinstance(scores, ScoreAssignment):
        raise ValueError(f"scores must be a ScoreAssignment or None, got {scores!r}")
    if len(scores.row_scores) != n_rows:
        raise ValueError(f"need {n_rows} row scores, got {len(scores.row_scores)}")
    if len(scores.col_scores) != n_cols:
        raise ValueError(f"need {n_cols} column scores, got {len(scores.col_scores)}")
    return np.asarray(scores.row_scores, dtype=float), np.asarray(scores.col_scores, dtype=float)


def default_scores(table: ContingencyTable) -> ScoreAssignment:
    """Consecutive integer scores 1..I and 1..J in table order."""
    return ScoreAssignment(*_score_vectors(None, table.shape))


def _check_index(i: int, limit: int, axis: str) -> int:
    """The index rule: ``i`` as an int in 0..limit - 1."""
    try:
        i = operator.index(i)
    except TypeError:
        raise IndexError(f"{axis} index must be an integer, got {i!r}") from None
    if not 0 <= i < limit:
        raise IndexError(f"{axis} index {i} out of range for {limit} {axis}s")
    return i


def _index_pair(values, what: str) -> tuple:
    """``values`` read by the ordered-argument rule, refused unless it
    holds exactly two items."""
    pair = _ordered(values, what)
    if len(pair) != 2:
        raise ValueError(f"{what} must be a pair of indices, got {pair!r}")
    return pair


def odds(table: ContingencyTable, target_row: int, other_row: int,
         given_col: int) -> float:
    """Odds of the target row versus the other row within one column:
    n[target, col] / n[other, col].

    Returns +inf when only the denominator cell is empty; two empty
    cells leave the odds undefined and raise.
    """
    target_row = _check_index(target_row, table.n_rows, "row")
    other_row = _check_index(other_row, table.n_rows, "row")
    given_col = _check_index(given_col, table.n_cols, "column")
    if target_row == other_row:
        raise ValueError("target and comparison rows must differ")
    num = int(table.counts[target_row, given_col])
    den = int(table.counts[other_row, given_col])
    if num == 0 and den == 0:
        raise ValueError(
            f"odds undefined in column {table.col_labels[given_col]!r}: "
            "both cells are zero")
    if den == 0:
        return math.inf
    return num / den


def odds_ratio(
    table: ContingencyTable,
    rows: tuple[int, int] = (0, 1),
    cols: tuple[int, int] = (0, 1),
    zero_correction: bool = False,
) -> OddsRatioResult:
    """Cross-product ratio n[i,j] n[i*,j*] / (n[i*,j] n[i,j*]).

    Swapping the two column (or row) indices inverts the estimate. With
    ``zero_correction`` on, 0.5 is added to all four cells
    (Haldane-Anscombe) before forming the ratio; otherwise, a zero
    denominator product yields +inf rather than an error. All four cells
    zero is always an error.
    """
    (i, i2), (j, j2) = _index_pair(rows, "rows"), _index_pair(cols, "cols")
    if not isinstance(zero_correction, _BOOLS):
        raise ValueError(f"zero_correction must be a bool, got {zero_correction!r}")
    n_rows, n_cols = table.shape
    i, i2 = _check_index(i, n_rows, "row"), _check_index(i2, n_rows, "row")
    j, j2 = _check_index(j, n_cols, "column"), _check_index(j2, n_cols, "column")
    if i == i2 or j == j2:
        raise ValueError("odds ratio needs two distinct rows and two distinct columns")
    item = table.counts.item  # Python ints, without a numpy scalar per cell
    cells = (item(i, j), item(i2, j2), item(i2, j), item(i, j2))
    if all(c == 0 for c in cells):
        raise ValueError("all four cells are zero; odds ratio undefined")
    shift = 0.5 if zero_correction else 0.0
    num = (cells[0] + shift) * (cells[1] + shift)
    den = (cells[2] + shift) * (cells[3] + shift)
    estimate = math.inf if den == 0.0 else num / den
    return OddsRatioResult(estimate, (i, i2, j, j2), zero_correction)


def _scored_moments(weights: np.ndarray, row_tot: np.ndarray, col_tot: np.ndarray,
                    total: float, u: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """Cross-product and the two sums of squares of the centred scores
    under cell weights with the given margins and total: counts with
    their n, or cell probabilities with 1.0. The products are
    ``ndarray.dot``, which equals ``@`` bit for bit on C-contiguous
    weights and costs less per call on short vectors. The scalar
    arithmetic is on Python floats, which cost less than numpy scalars."""
    du = u - float(row_tot.dot(u)) / total
    dv = v - float(col_tot.dot(v)) / total
    return (float(du.dot(weights).dot(dv)), float(row_tot.dot(du * du)),
            float(col_tot.dot(dv * dv)))


def pearson_correlation(
    table: ContingencyTable,
    scores: ScoreAssignment | None = None,
) -> float:
    """Pearson correlation of the scored row and column variables.

    Computed from cell counts in closed form; identical to coding every
    observation with its (row score, column score) pair and correlating
    the two resulting columns. Defaults to integer scores 1..I / 1..J.
    """
    u, v = _score_vectors(scores, table.shape)
    if table.total() < 2:
        raise ValueError("correlation needs at least 2 observations")
    # The table's float counts, margins and total: dot on int64 operands
    # would cast them to a float copy of its own on every call.
    cross, ss_u, ss_v = _scored_moments(table._float_counts, table._float_row_totals.ravel(),
                                        table._float_col_totals, table._float_total, u, v)
    if ss_u <= 0.0:
        raise ValueError("row scores have zero variance over the observed data")
    if ss_v <= 0.0:
        raise ValueError("column scores have zero variance over the observed data")
    r = cross / math.sqrt(ss_u * ss_v)
    return max(-1.0, min(1.0, r))
