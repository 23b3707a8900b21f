"""Two-way contingency tables and maximum-likelihood probability estimates.

A :class:`ContingencyTable` is an immutable I x J matrix of nonnegative
integer counts with row and column labels. Estimation turns counts into
joint, marginal, and conditional probability estimates; the estimates are
the usual maximum-likelihood ones (cell count over the relevant total).
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from .distributions import _INT64_MAX, _count, _probabilities

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


class _ContentEq:
    """Equality and hash by content for frozen dataclasses that hold numpy
    arrays, declared with ``eq=False``: the generated ``__eq__`` compares
    array fields with ``==``, which raises on any array of more than one
    element, and the generated ``__hash__`` cannot hash an array. Array
    fields compare with ``np.array_equal``, other fields with ``==``; the
    hash takes an array's shape and values, so equal instances hash
    alike."""

    __slots__ = ()

    def _content(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._content(), other._content()))

    def __hash__(self) -> int:
        return hash(tuple((v.shape, tuple(v.ravel().tolist()))
                          if isinstance(v, np.ndarray) else v for v in self._content()))


def _record(cls, **values):
    """An instance of the frozen dataclass ``cls`` with its instance dict
    filled from ``values``, without ``__init__`` or ``__post_init__``, for
    two records: :func:`joint_probabilities`'s, whose checks the
    constructor would only repeat, and ``ExpectedFrequencies._deferred``'s,
    whose ``values`` are built on first read. ``values`` names every field,
    defaults included; the deferred record names its margins in place of
    ``values``."""
    record = cls.__new__(cls)
    object.__setattr__(record, "__dict__", values)  # a fresh dict, adopted whole
    return record


def _is_integer_cell(x) -> bool:
    """Whether one cell of an object array holds an integer: an int, or a
    float that passes a float array's test ``x == floor(x)`` (which lets
    an infinity through to the int64 bound check, and not NaN)."""
    return isinstance(x, numbers.Integral) or (
        isinstance(x, (float, np.floating)) and bool(np.floor(x) == x))


_INT64 = np.dtype(np.int64)


def _check_matrix(arr: np.ndarray, what: str) -> np.ndarray:
    """The shape rule for every stored matrix."""
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"{what} must be a 2-D matrix with at least 2 rows and at least "
                         f"2 columns, got shape {arr.shape}")
    return arr


def _frozen_int_matrix(values) -> np.ndarray:
    """The counts' twin of the array rule: a read-only int64 copy in C
    order, checked integral and within int64 before the cast."""
    arr = _check_matrix(np.asarray(values), "counts")
    # The dtype comparison first: np.can_cast alone costs more than the cast.
    if arr.dtype != _INT64 and not np.can_cast(arr.dtype, _INT64):
        kind = arr.dtype.kind
        if kind != "u":  # a uint64 array holds integers only
            if kind == "f":
                integer = arr == np.floor(arr)
            else:
                # Judged cell by cell, each as the Python object given: of
                # a list that mixes ints and strings numpy makes a string
                # array, in which an int would be the first bad cell.
                arr = np.asarray(values, dtype=object)
                integer = np.frompyfunc(_is_integer_cell, 1, 1)(arr).astype(bool)
            if not integer.all():
                i, j = map(int, np.argwhere(~integer)[0])
                raise ValueError(f"counts must be integers, got {arr.item(i, j)!r} "
                                 f"at cell ({i}, {j})")
        # Checked before the cast, which would wrap (uint64), saturate
        # (float) or overflow (Python ints) a value outside int64. The
        # bounds are exact powers of two, so float comparisons are exact.
        for outside, fault in ((arr >= 2**63, f"exceeds the int64 maximum {_INT64_MAX}"),
                               (arr < -2**63, f"is below the int64 minimum {-2**63}")):
            if outside.any():
                i, j = map(int, np.argwhere(outside)[0])
                raise ValueError(f"count {arr[i, j]} at cell ({i}, {j}) {fault}")
    arr = arr.astype(_INT64, order="C")
    arr.setflags(write=False)
    return arr


_BOOLS = (bool, np.bool_)


def _unique_labels(labels: Sequence[str], expected: int, axis: str) -> tuple[str, ...]:
    try:
        out = tuple(str(lab) for lab in labels)
    except TypeError:  # None, an int
        raise ValueError(f"{axis} labels must be a sequence of names, got {labels!r}") from None
    if len(out) != expected:
        raise ValueError(f"expected {expected} {axis} labels, got {len(out)}")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate {axis} labels: {out}")
    return out


@dataclass(frozen=True, eq=False)
class ContingencyTable(_ContentEq):
    """Cross-classification of two categorical variables.

    Attributes
    ----------
    counts : (I, J) int matrix, I >= 2 and J >= 2, all entries >= 0,
        grand total >= 1.
    row_labels, col_labels : category names, in table order.
    row_ordinal, col_ordinal : whether the categories carry a meaningful
        order (enables default integer scores for linear-association
        tests).
    row_totals, col_totals : read-only int64 row and column totals, set
        on construction; not fields, so they stay out of the
        constructor, repr, equality and hash.
    """

    counts: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_ordinal: bool = False
    col_ordinal: bool = False

    def __post_init__(self) -> None:
        if not (isinstance(self.row_ordinal, _BOOLS) and isinstance(self.col_ordinal, _BOOLS)):
            raise ValueError(f"row_ordinal and col_ordinal must be bools, got "
                             f"{self.row_ordinal!r} and {self.col_ordinal!r}")
        counts = _frozen_int_matrix(self.counts)
        n_rows, n_cols = counts.shape
        if counts.min() < 0:
            i, j = map(int, np.argwhere(counts < 0)[0])
            raise ValueError(f"negative count {counts[i, j]} at cell ({i}, {j})")
        # Every margin is at most n, so int64 margins are exact whenever n
        # fits; the bound max * cells settles that without an exact sum.
        if int(counts.max()) * counts.size > _INT64_MAX:
            _count(int(counts.sum(dtype=object)), "table total")
        row_totals = counts.sum(axis=1)
        col_totals = counts.sum(axis=0)
        # n and the smallest row total from the row totals as Python ints:
        # on a few margins one tolist() costs less than a numpy reduction.
        row_list = row_totals.tolist()
        n = sum(row_list)
        if n < 1:
            raise ValueError("table total must be at least 1")
        # The counts and margins as float64, cast once here (C order, as
        # ``counts``), and the smallest margins: every statistic reads
        # these instead of casting or scanning its own. The float row
        # totals are kept as the (I, 1) column that matrix expressions take.
        float_counts = counts.astype(float)
        float_rows = row_totals.astype(float)
        float_cols = col_totals.astype(float)
        for arr in (row_totals, col_totals, float_counts, float_rows, float_cols):
            arr.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "row_labels",
                           _unique_labels(self.row_labels, n_rows, "row"))
        object.__setattr__(self, "col_labels",
                           _unique_labels(self.col_labels, n_cols, "column"))
        # Computed once here and read by every statistic; not fields, so
        # they stay out of the constructor, repr, equality and hash.
        object.__setattr__(self, "row_totals", row_totals)
        object.__setattr__(self, "col_totals", col_totals)
        object.__setattr__(self, "_float_counts", float_counts)
        object.__setattr__(self, "_float_row_totals", float_rows[:, None])
        object.__setattr__(self, "_float_col_totals", float_cols)
        # Python's min over a list: ndarray.min costs more on a few margins.
        object.__setattr__(self, "_min_row_total", min(row_list))
        object.__setattr__(self, "_min_col_total", min(col_totals.tolist()))
        object.__setattr__(self, "_total", n)
        object.__setattr__(self, "_float_total", float(n))

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @property
    def n_cols(self) -> int:
        return self.counts.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def row_total(self, i: int) -> int:
        return int(self.row_totals[i])

    def col_total(self, j: int) -> int:
        return int(self.col_totals[j])

    def total(self) -> int:
        """Grand total n."""
        return self._total


@dataclass(frozen=True, eq=False)
class ProbabilityEstimates(_ContentEq):
    """Maximum-likelihood joint probability estimates and the row and
    column marginals they imply, summed from ``joint`` on construction."""

    joint: np.ndarray
    row_marginal: np.ndarray = field(init=False)
    col_marginal: np.ndarray = field(init=False)
    source: ContingencyTable

    def __post_init__(self) -> None:
        joint = _probabilities(self.joint, "joint")
        if not isinstance(self.source, ContingencyTable) or joint.shape != self.source.shape:
            raise ValueError(f"joint must have its source table's shape, got {joint.shape}")
        rows, cols = _frozen_marginals(joint)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "row_marginal", rows)
        object.__setattr__(self, "col_marginal", cols)


def _frozen_marginals(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and column sums of ``joint``, read-only; ``np.add.reduce``
    is ``ndarray.sum`` without its Python-level dispatch."""
    rows = np.add.reduce(joint, 1)
    cols = np.add.reduce(joint, 0)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


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
    try:
        pair_counts = Counter((str(r), str(c)) for r, c in records)
    except TypeError:  # not iterable, or a record that is not a pair
        raise ValueError("records must be an iterable of (row, column) pairs") from None
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
    # Built for these estimates alone: frozen here, without the copy and
    # the check a caller's joint gets.
    joint = np.divide(table._float_counts, table._float_total)
    joint.setflags(write=False)
    rows, cols = _frozen_marginals(joint)
    return _record(ProbabilityEstimates, joint=joint, row_marginal=rows, col_marginal=cols,
                   source=table)


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
        if not table._min_row_total:
            lab = table.row_labels[int(np.argmin(table.row_totals))]
            raise ValueError(f"cannot condition on empty row {lab!r}")
        margins = table._float_row_totals
    elif given == "cols":
        if not table._min_col_total:
            lab = table.col_labels[int(np.argmin(table.col_totals))]
            raise ValueError(f"cannot condition on empty column {lab!r}")
        margins = table._float_col_totals
    else:
        raise ValueError(f"given must be 'rows' or 'cols', got {given!r}")
    # The table's float counts and margins: an int64 operand of the
    # division would be cast through a buffer of its own.
    out = np.divide(table._float_counts, margins)
    out.setflags(write=False)
    return out
