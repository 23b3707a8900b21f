"""Two-way contingency tables and maximum-likelihood probability estimates.

A :class:`ContingencyTable` is an immutable I x J matrix of nonnegative
integer counts with row and column labels. Estimation turns counts into
joint, marginal, and conditional probability estimates; the estimates are
the usual maximum-likelihood ones (cell count over the relevant total).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

__all__ = [
    "ContingencyTable",
    "ProbabilityEstimates",
    "Record",
    "crosstab",
    "expand_records",
    "joint_probabilities",
    "conditional_probabilities",
]

# One raw observation: (row category, column category).
Record = tuple[str, str]

_COHERENCE_TOL = 1e-12
_INT64_MAX = int(np.iinfo(np.int64).max)


def _frozen_int_matrix(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"counts must be a 2-D matrix, got shape {arr.shape}")
    if arr.size and not np.can_cast(arr.dtype, np.int64):
        if not np.issubdtype(arr.dtype, np.integer) and not np.all(arr == np.floor(arr)):
            raise ValueError("counts must be integers")
        # Checked before the cast, which would wrap (uint64), saturate
        # (float) or overflow (Python ints) a value outside int64. The
        # bounds are exact powers of two, so float comparisons are exact.
        for outside, fault in ((arr >= 2**63, f"exceeds the int64 maximum {_INT64_MAX}"),
                               (arr < -2**63, f"is below the int64 minimum {-2**63}")):
            if outside.any():
                i, j = map(int, np.argwhere(outside)[0])
                raise ValueError(f"count {arr[i, j]} at cell ({i}, {j}) {fault}")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


def _unique_labels(labels: Sequence[str], expected: int, axis: str) -> tuple[str, ...]:
    out = tuple(str(lab) for lab in labels)
    if len(out) != expected:
        raise ValueError(f"expected {expected} {axis} labels, got {len(out)}")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate {axis} labels: {out}")
    return out


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-classification of two categorical variables.

    Attributes
    ----------
    counts : (I, J) int matrix, I >= 2 and J >= 2, all entries >= 0,
        grand total >= 1.
    row_labels, col_labels : category names, in table order.
    row_ordinal, col_ordinal : whether the categories carry a meaningful
        order (enables default integer scores for linear-association
        tests).
    """

    counts: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_ordinal: bool = False
    col_ordinal: bool = False

    def __post_init__(self) -> None:
        counts = _frozen_int_matrix(self.counts)
        n_rows, n_cols = counts.shape
        if n_rows < 2:
            raise ValueError("at least 2 rows required")
        if n_cols < 2:
            raise ValueError("at least 2 columns required")
        if counts.min() < 0:
            i, j = map(int, np.argwhere(counts < 0)[0])
            raise ValueError(f"negative count {counts[i, j]} at cell ({i}, {j})")
        # Every margin is at most n, so int64 margins are exact whenever n
        # fits; the bound max * cells settles that without an exact sum.
        if int(counts.max()) * counts.size > _INT64_MAX:
            n = int(counts.sum(dtype=object))
            if n > _INT64_MAX:
                raise ValueError(
                    f"table total {n} exceeds the largest supported total {_INT64_MAX}")
        row_totals = counts.sum(axis=1)
        col_totals = counts.sum(axis=0)
        n = int(row_totals.sum())
        if n < 1:
            raise ValueError("table total must be at least 1")
        row_totals.setflags(write=False)
        col_totals.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "row_labels",
                           _unique_labels(self.row_labels, n_rows, "row"))
        object.__setattr__(self, "col_labels",
                           _unique_labels(self.col_labels, n_cols, "column"))
        # Computed once here and read by every statistic; not fields, so
        # they stay out of the constructor, repr and equality.
        object.__setattr__(self, "_row_totals", row_totals)
        object.__setattr__(self, "_col_totals", col_totals)
        object.__setattr__(self, "_total", n)

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @property
    def n_cols(self) -> int:
        return self.counts.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @property
    def row_totals(self) -> np.ndarray:
        """Read-only int64 row totals."""
        return self._row_totals

    @property
    def col_totals(self) -> np.ndarray:
        """Read-only int64 column totals."""
        return self._col_totals

    def row_total(self, i: int) -> int:
        return int(self.row_totals[i])

    def col_total(self, j: int) -> int:
        return int(self.col_totals[j])

    def total(self) -> int:
        """Grand total n."""
        return self._total


@dataclass(frozen=True)
class ProbabilityEstimates:
    """Maximum-likelihood joint probability estimates and the row and
    column marginals they imply, summed from ``joint`` on construction."""

    joint: np.ndarray
    row_marginal: np.ndarray = field(init=False)
    col_marginal: np.ndarray = field(init=False)
    source: ContingencyTable

    def __post_init__(self) -> None:
        joint = np.asarray(self.joint, dtype=float)
        rows = joint.sum(axis=1)
        cols = joint.sum(axis=0)
        # Both marginals sum to the joint's total, up to rounding far
        # below the tolerance, so one check covers them.
        total = rows.sum()
        if abs(total - 1.0) > _COHERENCE_TOL:
            raise ValueError(f"joint probabilities sum to {float(total)!r}, not 1")
        for arr in (joint, rows, cols):
            arr.setflags(write=False)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "row_marginal", rows)
        object.__setattr__(self, "col_marginal", cols)


def crosstab(
    records: Iterable[Record],
    row_order: Sequence[str] | None = None,
    col_order: Sequence[str] | None = None,
    *,
    row_ordinal: bool = False,
    col_ordinal: bool = False,
) -> ContingencyTable:
    """Cross-tabulate raw (row category, column category) records.

    ``records`` may be any iterable; it is read once. Labels follow
    ``row_order``/``col_order`` when given (a record whose category is
    missing from an explicit order is an error); otherwise the distinct
    observed labels are sorted lexicographically. The table total always
    equals the number of records.
    """
    pair_counts = Counter((str(r), str(c)) for r, c in records)
    return _table_from_pair_counts(pair_counts, row_order, col_order,
                                   row_ordinal=row_ordinal, col_ordinal=col_ordinal)


def _table_from_pair_counts(
    pair_counts: Mapping[Record, int],
    row_order: Sequence[str] | None = None,
    col_order: Sequence[str] | None = None,
    *,
    row_ordinal: bool = False,
    col_ordinal: bool = False,
) -> ContingencyTable:
    """Build a table from the number of records seen for each distinct
    (row category, column category) pair; the counting core behind
    :func:`crosstab` and the record-CSV reader."""
    if not pair_counts:
        raise ValueError("cannot cross-tabulate an empty record set")
    row_labels = _resolve_order((r for r, _ in pair_counts), row_order, "row")
    col_labels = _resolve_order((c for _, c in pair_counts), col_order, "column")
    row_index = {lab: i for i, lab in enumerate(row_labels)}
    col_index = {lab: j for j, lab in enumerate(col_labels)}
    counts = np.zeros((len(row_labels), len(col_labels)), dtype=np.int64)
    for (r, c), k in pair_counts.items():
        counts[row_index[r], col_index[c]] = k
    return ContingencyTable(counts, row_labels, col_labels,
                            row_ordinal=row_ordinal, col_ordinal=col_ordinal)


def _resolve_order(values: Iterable[str], order: Sequence[str] | None,
                   axis: str) -> tuple[str, ...]:
    observed = set(values)
    if order is None:
        return tuple(sorted(observed))
    labels = tuple(str(lab) for lab in order)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in explicit {axis} order: {labels}")
    missing = observed.difference(labels)
    if missing:
        raise ValueError(
            f"{axis} category {sorted(missing)[0]!r} does not appear in the "
            f"explicit {axis} order {list(labels)}")
    return labels


def expand_records(table: ContingencyTable) -> list[Record]:
    """Expand a count table back into one record per observation,
    in row-major cell order. Inverse of :func:`crosstab` under the
    table's own label order."""
    out: list[Record] = []
    for i, row_lab in enumerate(table.row_labels):
        for j, col_lab in enumerate(table.col_labels):
            out.extend([(row_lab, col_lab)] * int(table.counts[i, j]))
    return out


def joint_probabilities(table: ContingencyTable) -> ProbabilityEstimates:
    """ML estimates of the joint cell probabilities (count / n) together
    with the row and column marginals."""
    return ProbabilityEstimates(table.counts / table.total(), table)


def conditional_probabilities(
    table: ContingencyTable,
    given: Literal["rows", "cols"] = "rows",
) -> np.ndarray:
    """ML estimates of conditional probabilities.

    ``given="rows"`` returns the matrix of P(column j | row i), each row
    summing to 1; ``given="cols"`` returns P(row i | column j), each
    column summing to 1. Conditioning on an empty category is an error.
    """
    if given == "rows":
        margins = table.row_totals
        if not margins.all():
            lab = table.row_labels[int(np.argmin(margins))]
            raise ValueError(f"cannot condition on empty row {lab!r}")
        out = table.counts / margins[:, None]
    elif given == "cols":
        margins = table.col_totals
        if not margins.all():
            lab = table.col_labels[int(np.argmin(margins))]
            raise ValueError(f"cannot condition on empty column {lab!r}")
        out = table.counts / margins[None, :]
    else:
        raise ValueError(f"given must be 'rows' or 'cols', got {given!r}")
    out.setflags(write=False)
    return out
