"""Association measures for two-way tables: odds, odds ratios, and the
score-weighted Pearson correlation (phi coefficient on 2x2 tables)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .table import ContingencyTable

__all__ = [
    "ScoreAssignment",
    "OddsRatioResult",
    "default_scores",
    "odds",
    "odds_ratio",
    "pearson_correlation",
]


@dataclass(frozen=True)
class ScoreAssignment:
    """Numeric codes for the row and column categories, in table order.

    Each axis needs at least two distinct values, otherwise the induced
    variable is constant and correlation is undefined.
    """

    row_scores: tuple[float, ...]
    col_scores: tuple[float, ...]

    def __post_init__(self) -> None:
        row = tuple(float(u) for u in self.row_scores)
        col = tuple(float(v) for v in self.col_scores)
        if len(set(row)) < 2:
            raise ValueError(f"row scores need >= 2 distinct values, got {row}")
        if len(set(col)) < 2:
            raise ValueError(f"column scores need >= 2 distinct values, got {col}")
        object.__setattr__(self, "row_scores", row)
        object.__setattr__(self, "col_scores", col)


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


def _integer_scores(n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive integer scores 1..I and 1..J as float arrays; with
    I, J >= 2 they always have two distinct values per axis."""
    return np.arange(1.0, n_rows + 1), np.arange(1.0, n_cols + 1)


def default_scores(table: ContingencyTable) -> ScoreAssignment:
    """Consecutive integer scores 1..I and 1..J in table order."""
    return ScoreAssignment(*_integer_scores(*table.shape))


def _check_index(i: int, limit: int, axis: str) -> None:
    if not 0 <= i < limit:
        raise IndexError(f"{axis} index {i} out of range for {limit} {axis}s")


def odds(table: ContingencyTable, target_row: int, other_row: int,
         given_col: int) -> float:
    """Odds of the target row versus the other row within one column:
    n[target, col] / n[other, col].

    Returns +inf when only the denominator cell is empty; two empty
    cells leave the odds undefined and raise.
    """
    _check_index(target_row, table.n_rows, "row")
    _check_index(other_row, table.n_rows, "row")
    _check_index(given_col, table.n_cols, "column")
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
    i, i2 = rows
    j, j2 = cols
    for r in (i, i2):
        _check_index(r, table.n_rows, "row")
    for c in (j, j2):
        _check_index(c, table.n_cols, "column")
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


def pearson_correlation(
    table: ContingencyTable,
    scores: ScoreAssignment | None = None,
) -> float:
    """Pearson correlation of the scored row and column variables.

    Computed from cell counts in closed form; identical to coding every
    observation with its (row score, column score) pair and correlating
    the two resulting columns. Defaults to integer scores 1..I / 1..J.
    """
    if scores is None:
        u, v = _integer_scores(*table.shape)
    else:
        if len(scores.row_scores) != table.n_rows:
            raise ValueError(
                f"need {table.n_rows} row scores, got {len(scores.row_scores)}")
        if len(scores.col_scores) != table.n_cols:
            raise ValueError(
                f"need {table.n_cols} column scores, got {len(scores.col_scores)}")
        u = np.asarray(scores.row_scores, dtype=float)
        v = np.asarray(scores.col_scores, dtype=float)
    n = table.total()
    if n < 2:
        raise ValueError("correlation needs at least 2 observations")
    w = table.counts.astype(float)
    row_tot = table.row_totals.astype(float)
    col_tot = table.col_totals.astype(float)
    du = u - row_tot @ u / n
    dv = v - col_tot @ v / n
    ss_u = float(row_tot @ du**2)
    ss_v = float(col_tot @ dv**2)
    if ss_u <= 0.0:
        raise ValueError("row scores have zero variance over the observed data")
    if ss_v <= 0.0:
        raise ValueError("column scores have zero variance over the observed data")
    r = float(du @ w @ dv) / math.sqrt(ss_u * ss_v)
    return max(-1.0, min(1.0, r))
