"""Library contract fuzz for the input rules, the table constructor,
the special functions, the per-table statistics and the Monte Carlo
engine.

Every callable that takes a count, a probability vector, a score or a
special function's argument is called with arguments drawn from a few
valid values and from the edges below; ``ContingencyTable`` is called on
matrices whose cells mix those edges with strings, None, complex numbers
and bools; every per-table statistic is called on tables with an empty
row or column, a single nonzero cell or a total near the int64 maximum,
whose counts arrive read-only, Fortran-ordered or as a strided view, and
so do the matrices of the schemes; the probability estimates and the
expected frequencies are built from such tables, or from an edge, which
is no table. Each call must return its documented type, with no
NaN where a number is returned and every array read-only and C-ordered,
or raise ``ValueError`` (``IndexError`` with the index rule's message,
for a call that takes a row or column index), and must warn nothing.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cattab import (
    BinomialSpec,
    ConfidenceInterval,
    ExpectedFrequencies,
    LikelihoodDetail,
    MultinomialSpec,
    PoissonSpec,
    ProbabilityEstimates,
    ScoreAssignment,
    binomial_log_pmf,
    binomial_moments,
    binomial_pmf,
    calibrate_null,
    conditional_probabilities,
    coverage_wald_ci,
    crosstab,
    default_scores,
    expand_records,
    expected_frequencies,
    homogeneity_test,
    independence_test,
    joint_probabilities,
    log_likelihood,
    lr_test_proportion,
    mantel_haenszel_test,
    mle_proportion,
    multinomial_log_pmf,
    multinomial_pmf,
    odds,
    odds_ratio,
    pearson_correlation,
    poisson_log_pmf,
    poisson_pmf,
    sample_table,
    score_test_proportion,
    wald_ci,
    wald_test_proportion,
)
from cattab import special
from cattab.association import OddsRatioResult
from cattab.distributions import _INT64_MAX
from cattab.fixtures import life_quality_survey
from cattab.inference import TestResult as _TestResult  # not a test class
from cattab.io import parse_counts_csv
from cattab.simulate import (
    BinomialRowsScheme,
    CalibrationReport,
    MultinomialScheme,
    PoissonScheme,
    SamplingScheme,
    _POISSON_MAX_RATE,
)
from cattab.table import ContingencyTable

_HUGE_DIAGONAL_CSV = Path(__file__).parent / "golden" / "huge_diagonal_16x16.csv"

# Subnormals, NaN, the infinities, the int64 maximum and one past it, an
# int beyond the float range, non-integral floats, negatives, and what is
# no real number: a numeric string, None and a complex number.
_EDGES = [5e-324, 1e-310, -5e-324, math.nan, math.inf, -math.inf, 2**63 - 1, 2**63,
          10**400, 2.5, 0.3, 1e308, -1, -0.5, -0.0, "2", None, 1j]


def _arg(*valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(_EDGES))


_COUNT = _arg(0, 1, 3, 10, 1000)
_PROB = _arg(0.0, 0.25, 0.5, 1.0)
_INTERIOR = _arg(0.05, 0.5, 0.95)
_RATE = _arg(0.5, 3.0, 900.0)
_PROBS = st.one_of(st.sampled_from([(0.5, 0.5), (0.2, 0.3, 0.5), (1.0, 0.0)]),
                   st.lists(_arg(0.5, 0.25), min_size=2, max_size=3).map(tuple))


def _matrix(cell):
    return st.lists(st.lists(cell, min_size=2, max_size=2).map(tuple),
                    min_size=2, max_size=2).map(tuple)


_MATRIX = st.one_of(
    st.sampled_from([((0.25, 0.25), (0.25, 0.25)), ((0.1, 0.4), (0.2, 0.3))]),
    _matrix(_arg(0.25, 0.5, 1.0)))
# Each row a probability vector, or not.
_ROW_PROBS = st.one_of(
    st.sampled_from([((0.5, 0.5), (0.5, 0.5)), ((0.25, 0.75), (0.25, 0.75)),
                     ((0.2, 0.8), (0.6, 0.4))]),
    _matrix(_arg(0.25, 0.5, 0.75)))
# Poisson rates: four cells of 7.5e18 sum beyond the total-rate bound.
_RATES = st.one_of(st.sampled_from([((3.0, 3.0), (3.0, 3.0)), ((7.5e18,) * 2,) * 2]),
                   _matrix(_arg(0.5, 3.0, 900.0)))
_SCORE = _arg(1, 2, 3, -1, 0.5)
_REAL = _arg(0.5, 1, 2.5, 3, 16, 200, 300.5)


def _scores(length):
    """A valid, an edge-laden, or a 1e100- or 1e-100-scale score list of
    the length."""
    return st.one_of(st.lists(_SCORE, min_size=length, max_size=length).map(tuple),
                     st.just(tuple(range(1, length + 1))),
                     *(st.just(tuple(scale * k for k in range(1, length + 1)))
                       for scale in (1e100, 1e-100)))


# A 5x5 and a 2x2 table flagged ordinal, the second with 1e18 counts.
_TABLES = (life_quality_survey(),
           ContingencyTable([[10**18, 1], [1, 10**18]], ("a", "b"), ("x", "y"),
                            row_ordinal=True, col_ordinal=True))


@st.composite
def _scored_table(draw):
    table = draw(st.sampled_from(_TABLES))
    if draw(st.booleans()):
        return table, None
    return table, (draw(_scores(table.n_rows)), draw(_scores(table.n_cols)))


def _scored(call):
    def run(table, scores):
        return call(table, None if scores is None else ScoreAssignment(*scores))
    return run


# How the counts reach ContingencyTable: each gives the same values.
_LAYOUTS = {
    "list": lambda a: a.tolist(),
    "C": np.ascontiguousarray,
    "Fortran": np.asfortranarray,
    "read-only": lambda a: np.lib.stride_tricks.as_strided(a, writeable=False),
    "sliced": lambda a: np.repeat(np.repeat(a, 2, axis=0), 3, axis=1)[1::2, ::3],
    "reversed": lambda a: np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
}


def _as_array(matrix):
    try:
        return np.array(matrix, dtype=float)
    except (OverflowError, TypeError):  # 10**400, a complex number
        return np.array(matrix, dtype=object)


def _laid_out(matrices):
    """The matrices, each passed in one of the layouts."""
    return st.tuples(matrices, st.sampled_from(sorted(_LAYOUTS))).map(
        lambda case: _LAYOUTS[case[1]](_as_array(case[0])))


# A scheme's class and its constructor's arguments, its matrix in one of
# the layouts; its totals are mostly valid, so that some draws are made.
_TOTAL = st.one_of(st.sampled_from([10, 40, 1000]), _COUNT)
_SCHEME = st.one_of(
    st.tuples(st.just(PoissonScheme), st.tuples(_laid_out(_RATES))),
    st.tuples(st.just(BinomialRowsScheme), st.tuples(st.tuples(_TOTAL, _TOTAL),
                                                     _laid_out(_ROW_PROBS))),
    st.tuples(st.just(MultinomialScheme), st.tuples(_TOTAL, _laid_out(_MATRIX))))


def _scheme(case):
    cls, args = case
    return cls(*args)


@st.composite
def _count_table(draw):
    """A valid table, of small counts or of one of the edge shapes, its
    counts passed in one of the layouts."""
    n_rows, n_cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    counts = np.array(draw(st.lists(st.integers(0, 5), min_size=n_rows * n_cols,
                                    max_size=n_rows * n_cols)),
                      dtype=np.int64).reshape(n_rows, n_cols)
    i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
    edge = draw(st.sampled_from(["none", "zero row", "zero column", "single cell",
                                 "near int64 max"]))
    if edge == "zero row":
        counts[i] = 0
    elif edge == "zero column":
        counts[:, j] = 0
    elif edge == "single cell":
        counts[:] = 0
        counts[i, j] = draw(st.sampled_from([1, 7, _INT64_MAX]))
    elif edge == "near int64 max":
        counts[i, j] += _INT64_MAX - int(counts.sum()) - draw(st.integers(0, 10))
    if not counts.any():
        counts[i, j] = 1
    ordinal = draw(st.booleans())
    return ContingencyTable(_LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))](counts),
                            tuple(f"r{k}" for k in range(n_rows)),
                            tuple(f"c{k}" for k in range(n_cols)),
                            row_ordinal=ordinal, col_ordinal=ordinal)


# Cells of a counts matrix: valid counts, the edges, and what no count is.
_CELL = st.one_of(st.sampled_from([0, 1, 7, 2.0]), st.sampled_from(_EDGES),
                  st.sampled_from(["3", "a", None, 1 + 0j, 2j, True, b"1"]))


@st.composite
def _counts_matrix(draw):
    """A nested list of cells, of 1 to 3 rows and columns (one row or
    column is too few), as a list or as the array numpy makes of it."""
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.lists(_CELL, min_size=n_cols, max_size=n_cols),
                          min_size=n_rows, max_size=n_rows))
    return (np.asarray(cells) if draw(st.booleans()) else cells,
            tuple(f"r{k}" for k in range(n_rows)), tuple(f"c{k}" for k in range(n_cols)))


def _frozen(a):
    """The array rule: a read-only, C-ordered array."""
    return isinstance(a, np.ndarray) and a.flags.c_contiguous and not a.flags.writeable


def _valid_table(t):
    return (isinstance(t, ContingencyTable) and t.counts.dtype == np.int64
            and _frozen(t.counts) and 1 <= t.total() <= _INT64_MAX
            and int(t.counts.min()) >= 0
            and all(isinstance(f, (bool, np.bool_)) for f in (t.row_ordinal, t.col_ordinal)))


# Records: pairs of labels of any type, or what is no iterable of pairs.
_RECORDS = st.one_of(
    st.lists(st.tuples(st.sampled_from(["a", "b", 1, None]), st.sampled_from(["x", "y", 2.5])),
             min_size=3, max_size=12),
    st.sampled_from([5, None, [5], [("a",)], [("a", "x", "z")], "ab"]))
_ROW_ORDER = st.sampled_from([None, ("None", "b", "a", "1"), ("a",), ("a", "a")])
_COL_ORDER = st.sampled_from([None, ("y", "2.5", "x"), ("x",)])
# An index: in range, out of range, or not an integer.
_INDEX = st.one_of(st.integers(0, 1), st.integers(-1, 5),
                   st.sampled_from([0.5, 1.0, "0", None, np.int64(1)]))


@st.composite
def _two_indices(draw, limit):
    first = draw(st.integers(0, limit - 1))
    second = draw(st.integers(0, limit - 2))
    return first, second + (second >= first)


@st.composite
def _odds_ratio_args(draw):
    table = draw(_count_table())
    return (table, draw(_two_indices(table.n_rows)), draw(_two_indices(table.n_cols)),
            draw(st.booleans()))


def _number(x):
    return isinstance(x, float) and not math.isnan(x)


def _test_result(res):
    return (isinstance(res, _TestResult) and _number(res.statistic)
            and 0.0 <= res.p_value <= 1.0)


def _interval(ci):
    return isinstance(ci, ConfidenceInterval) and all(
        _number(v) for v in (ci.estimate, ci.lower, ci.upper, ci.standard_error))


def _finite_array(a, shape=None):
    return _frozen(a) and shape in (None, a.shape) and bool(np.isfinite(a).all())


def _expected(e):
    return (isinstance(e, ExpectedFrequencies) and _finite_array(e.values)
            and e.values.ndim == 2 and min(e.values.shape) >= 2
            and float(e.values.min()) >= 0.0)


def _valid_scheme(s):
    if not isinstance(s, SamplingScheme):
        return False
    probs = s.cell_probabilities()
    stored = [v for v in vars(s).values() if isinstance(v, np.ndarray)]
    return (_finite_array(probs) and probs.ndim == 2 and all(map(_finite_array, stored))
            and (not isinstance(s, PoissonScheme)
                 or float(s.cell_rates.sum()) <= _POISSON_MAX_RATE))


def _report(r):
    return (isinstance(r, CalibrationReport) and _number(r.empirical_mean)
            and 0 <= r.degenerate_replicates < r.replicates
            and all(0.0 <= v <= 1.0 for v in r.rejection_rates.values()))


def _chisq_pair(res):
    pearson, deviance, expected = res
    return _test_result(pearson) and _test_result(deviance) and _expected(expected)


def _estimates(e):
    return (isinstance(e, ProbabilityEstimates) and _finite_array(e.joint, e.source.shape)
            and _finite_array(e.row_marginal, (e.source.n_rows,))
            and _finite_array(e.col_marginal, (e.source.n_cols,)))


def _pmf(p):
    return _number(p) and 0.0 <= p <= 1.0




def _log_pmf(lp):
    return _number(lp) and lp <= 0.0


# Each callable: its argument tuples, the call and its documented result.
_CALLS = {
    "BinomialSpec": (st.tuples(_COUNT, _PROB), BinomialSpec,
                     lambda s: isinstance(s.trials, int)),
    "MultinomialSpec": (st.tuples(_COUNT, _PROBS), MultinomialSpec,
                        lambda s: isinstance(s.trials, int)
                        and all(map(_number, s.category_probs))),
    "PoissonSpec": (st.tuples(_RATE), PoissonSpec, lambda s: _number(s.rate)),
    "binomial_pmf": (st.tuples(_COUNT, _PROB, _COUNT),
                     lambda n, p, y: binomial_pmf(BinomialSpec(n, p), y), _pmf),
    "binomial_log_pmf": (st.tuples(_COUNT, _PROB, _COUNT),
                         lambda n, p, y: binomial_log_pmf(BinomialSpec(n, p), y), _log_pmf),
    "multinomial_pmf": (st.tuples(_COUNT, _PROBS, st.lists(_COUNT, min_size=2, max_size=3)),
                        lambda n, p, y: multinomial_pmf(MultinomialSpec(n, p), y), _pmf),
    "multinomial_log_pmf": (
        st.tuples(_COUNT, _PROBS, st.lists(_COUNT, min_size=2, max_size=3)),
        lambda n, p, y: multinomial_log_pmf(MultinomialSpec(n, p), y), _log_pmf),
    "poisson_pmf": (st.tuples(_RATE, _COUNT),
                    lambda rate, y: poisson_pmf(PoissonSpec(rate), y), _pmf),
    "poisson_log_pmf": (st.tuples(_RATE, _COUNT),
                        lambda rate, y: poisson_log_pmf(PoissonSpec(rate), y), _log_pmf),
    "mle_proportion": (st.tuples(_COUNT, _COUNT), mle_proportion,
                       lambda r: len(r) == 2 and all(map(_number, r))),
    "log_likelihood": (st.tuples(_PROB, _COUNT, _COUNT), log_likelihood, _number),
    "score_test_proportion": (st.tuples(_COUNT, _COUNT, _INTERIOR), score_test_proportion,
                              _test_result),
    "wald_test_proportion": (st.tuples(_COUNT, _COUNT, _INTERIOR), wald_test_proportion,
                             _test_result),
    "lr_test_proportion": (st.tuples(_COUNT, _COUNT, _INTERIOR), lr_test_proportion,
                           lambda r: _test_result(r[0]) and isinstance(r[1], LikelihoodDetail)),
    "wald_ci": (st.tuples(_COUNT, _COUNT, _arg(0.95, 0.5)), wald_ci, _interval),
    "ScoreAssignment": (st.tuples(_scores(2), _scores(3)), ScoreAssignment,
                        lambda s: all(map(_number, s.row_scores + s.col_scores))),
    "pearson_correlation": (_scored_table(), _scored(pearson_correlation),
                            lambda r: _number(r) and -1.0 <= r <= 1.0),
    "mantel_haenszel_test": (_scored_table(), _scored(mantel_haenszel_test), _test_result),
    # A table, or one of the edges, which no record is built from.
    "ProbabilityEstimates": (st.tuples(st.one_of(_count_table(), st.sampled_from(_EDGES))),
                             ProbabilityEstimates, _estimates),
    "ExpectedFrequencies": (st.tuples(st.one_of(_count_table(), st.sampled_from(_EDGES))),
                            ExpectedFrequencies, _expected),
    "PoissonScheme": (st.tuples(_laid_out(_RATES)), PoissonScheme, _valid_scheme),
    "BinomialRowsScheme": (st.tuples(st.tuples(_COUNT, _COUNT), _laid_out(_ROW_PROBS)),
                           BinomialRowsScheme, _valid_scheme),
    "MultinomialScheme": (st.tuples(_COUNT, _laid_out(_MATRIX)), MultinomialScheme,
                          _valid_scheme),
    "sample_table": (st.tuples(_SCHEME, _arg(0, 1, 12345)),
                     lambda case, seed: sample_table(_scheme(case), seed), _valid_table),
    "calibrate_null": (
        st.tuples(_SCHEME, st.sampled_from(["pearson", "deviance", "mantel_haenszel", "x"]),
                  _arg(0, 1)),
        lambda case, test, seed: calibrate_null(_scheme(case), test, 1000, seed), _report),
    "binomial_moments": (st.tuples(_COUNT, _PROB),
                         lambda n, p: binomial_moments(BinomialSpec(n, p)),
                         lambda m: len(m) == 2 and all(_number(v) and v >= 0.0 for v in m)),
    "coverage_wald_ci": (st.tuples(_INTERIOR, _COUNT, _arg(0.95), _arg(1000), _arg(1)),
                         coverage_wald_ci, lambda c: _number(c) and 0.0 <= c <= 1.0),
    "independence_test": (st.tuples(_count_table()), independence_test, _chisq_pair),
    "homogeneity_test": (st.tuples(_count_table()), homogeneity_test, _chisq_pair),
    "expected_frequencies": (st.tuples(_count_table()), expected_frequencies, _expected),
    "pearson_correlation (tables)": (st.tuples(_count_table()), pearson_correlation,
                                     lambda r: _number(r) and -1.0 <= r <= 1.0),
    "mantel_haenszel_test (tables)": (st.tuples(_count_table()), mantel_haenszel_test,
                                      _test_result),
    "odds": (st.tuples(_count_table(), _INDEX, _INDEX, _INDEX), odds,
             lambda r: _number(r) and r >= 0.0),
    "default_scores": (st.tuples(_count_table()), default_scores,
                       lambda s: isinstance(s, ScoreAssignment)),
    "crosstab": (st.tuples(_RECORDS, _ROW_ORDER, _COL_ORDER), crosstab, _valid_table),
    "expand_records": (
        st.tuples(_count_table().filter(lambda t: t.total() <= 10**4)), expand_records,
        lambda r: isinstance(r, list) and all(len(p) == 2 and all(isinstance(lab, str)
                                                                  for lab in p) for p in r)),
    "odds_ratio": (_odds_ratio_args(), odds_ratio,
                   lambda r: isinstance(r, OddsRatioResult) and _number(r.estimate)
                   and r.estimate >= 0.0),
    "joint_probabilities": (st.tuples(_count_table()), joint_probabilities, _estimates),
    "conditional_probabilities": (
        st.tuples(_count_table(), st.sampled_from(["rows", "cols", "x"])),
        conditional_probabilities, _finite_array),
    "ContingencyTable": (_counts_matrix(), ContingencyTable, _valid_table),
    "ln_gamma": (st.tuples(_REAL), special.ln_gamma, lambda v: _number(v) and v > -1.0),
    "xlogy": (st.tuples(_REAL, _REAL), special.xlogy, _number),
    "reg_gamma_lower": (st.tuples(_REAL, _REAL), special.reg_gamma_lower, _pmf),
    "reg_gamma_upper": (st.tuples(_REAL, _REAL), special.reg_gamma_upper, _pmf),
    "chi2_sf": (st.tuples(_REAL, _REAL), special.chi2_sf, _pmf),
    "normal_cdf": (st.tuples(_REAL), special.normal_cdf, _pmf),
    "normal_quantile": (st.tuples(_arg(0.5, 0.025, 0.999)), special.normal_quantile, _number),
}


@st.composite
def _call(draw):
    name = draw(st.sampled_from(sorted(_CALLS)))
    return name, draw(_CALLS[name][0])


@given(case=_call())
# Each of these returned a value or raised OverflowError.
@example(case=("mle_proportion", (3, math.inf)))
@example(case=("mle_proportion", (2.5, 10)))
@example(case=("score_test_proportion", (2.5, 10, 0.5)))
@example(case=("binomial_log_pmf", (10**400, 0.5, 3)))
@example(case=("poisson_pmf", (3.0, 10**400)))
@example(case=("poisson_pmf", (10**400, 3)))
@example(case=("pearson_correlation", (_TABLES[0], ((1, 2, 3, 4, math.nan), (1, 2, 3, 4, 5)))))
@example(case=("pearson_correlation", (_TABLES[0], (tuple(1e100 * k for k in range(1, 6)),) * 2)))
@example(case=("pearson_correlation", (_TABLES[0], (tuple(1e307 * k for k in range(1, 6)),) * 2)))
# 0.5 * (1 + level) rounded to 1.0: normal_quantile's ValueError, after
# coverage_wald_ci's draws.
@example(case=("wald_ci", (3, 10, 1 - 2**-53)))
@example(case=("coverage_wald_ci", (0.5, 10, 1 - 2**-53, 1000, 1)))
# X^2 = 5.8e19 at df 225: the incomplete gamma fraction never met its
# stop and raised RuntimeError.
@example(case=("independence_test", (parse_counts_csv(_HUGE_DIAGONAL_CSV),)))
# TypeError from numpy's floor, and "must be real number".
@example(case=("ContingencyTable", ([["1", "2"], ["3", "4"]], ("a", "b"), ("x", "y"))))
@example(case=("ContingencyTable", ([[1 + 0j, 2], [3, 4]], ("a", "b"), ("x", "y"))))
@example(case=("ContingencyTable", ([[None, 2], [3, 4]], ("a", "b"), ("x", "y"))))
# OverflowError; RuntimeError from the series at a subnormal and at a
# huge shape.
@example(case=("ln_gamma", (1e308,)))
@example(case=("ln_gamma", (10**400,)))
@example(case=("chi2_sf", (10**400, 1)))
@example(case=("chi2_sf", (3, 10**400)))
@example(case=("reg_gamma_upper", (1e-310, 0.3)))
@example(case=("reg_gamma_lower", (1e308, 2.5)))
@example(case=("chi2_sf", (1e308, 3)))
# NaN.
@example(case=("xlogy", (math.inf, 1)))
# ss_u * ss_v underflowed to 0: ZeroDivisionError.
@example(case=("pearson_correlation", (_TABLES[1], ((5e-324, 2e-122), (5e-324, 2e-122)))))
# Four rates of 7.5e18, each within the sampler's limit: every drawn
# total exceeded int64, so each replicate was counted as degenerate.
@example(case=("PoissonScheme", (((7.5e18,) * 2,) * 2,)))
@example(case=("sample_table", ((PoissonScheme, (((7.5e18,) * 2,) * 2,)), 1)))
@example(case=("calibrate_null", ((PoissonScheme, (((7.5e18,) * 2,) * 2,)), "pearson", 1)))
# Stored in the caller's Fortran order; OverflowError; kept as given.
@example(case=("PoissonScheme", (np.asfortranarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),)))
# A non-integer index: numpy's IndexError text, and TypeError.
@example(case=("odds", (_TABLES[0], 0.5, 1, 0)))
@example(case=("odds_ratio", (_TABLES[0], (0, 1.5), (0, 1), False)))
# TypeError; an ordinal flag kept as the string.
@example(case=("ContingencyTable", ([[1, 2], [3, 4]], None, None)))
@example(case=("ContingencyTable", ([[1, 2], [3, 4]], ("a", "b"), ("x", "y"), "yes", False)))
@example(case=("crosstab", (5, None, None)))
# A complex matrix, which warned and dropped its imaginary part.
@example(case=("PoissonScheme", (np.full((2, 2), 3 + 1j),)))
# A matrix, which the records once took from a caller, is no table.
@example(case=("ProbabilityEstimates", (((0.25, 0.25), (0.25, 0.25)),)))
@example(case=("ExpectedFrequencies", (np.full((2, 2), 2.5),)))
# A scalar that is no real number, one per module: each raised TypeError
# from a comparison or a product, and "yes" was kept as the flag.
@example(case=("BinomialSpec", (10, "0.5")))
@example(case=("poisson_pmf", (3.0, None)))
@example(case=("wald_ci", (3, 10, None)))
@example(case=("coverage_wald_ci", ("0.3", 10, 0.95, 1000, 1)))
@example(case=("coverage_wald_ci", (0.3, 10, 0.95, "1000", 1)))
@example(case=("chi2_sf", ("3", 2)))
@example(case=("chi2_sf", (1j, 2)))
@example(case=("normal_cdf", (None,)))
@example(case=("normal_quantile", (".5",)))
@example(case=("odds_ratio", (_TABLES[0], (0, 1), (0, 1), "yes")))
@settings(max_examples=1000, deadline=None)
def test_rule_governed_callables_return_or_raise_value_error(case):
    name, args = case
    _, call, documented = _CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarnings included
        try:
            result = call(*args)
        except ValueError:
            return
        except IndexError as err:
            # The index rule, which only the calls that take an index apply.
            assert name in ("odds", "odds_ratio"), (name, args, err)
            assert str(err).startswith(("row index ", "column index ")), (name, args, err)
            return
    assert documented(result), (name, args, result)


def _stored_arrays(record):
    """Every array a record holds, by name, and what
    ``cell_probabilities()`` returns for a scheme."""
    if isinstance(record, ExpectedFrequencies):
        record.values  # built on first read
    arrays = {name: v for name, v in vars(record).items() if isinstance(v, np.ndarray)}
    if isinstance(record, SamplingScheme):
        arrays["cell_probabilities()"] = record.cell_probabilities()
    return arrays


def _records(rng, shape):
    """One record of each kind that stores an array, built from a matrix
    of the shape passed through ``lay_out``: the estimate records from a
    table of such counts."""
    counts = rng.integers(0, 50, size=shape)
    counts[0, 0] += 1
    source = ContingencyTable(counts, tuple(f"r{i}" for i in range(shape[0])),
                              tuple(f"c{j}" for j in range(shape[1])))
    joint = rng.dirichlet(np.ones(counts.size)).reshape(shape)
    row_probs = rng.dirichlet(np.ones(shape[1]), size=shape[0])
    rates = rng.gamma(2.0, 10.0, size=shape)
    totals = tuple(int(t) for t in rng.integers(1, 100, size=shape[0]))
    return {
        "ContingencyTable": lambda lay_out: ContingencyTable(
            lay_out(counts), source.row_labels, source.col_labels),
        "ProbabilityEstimates": lambda lay_out: ProbabilityEstimates(
            ContingencyTable(lay_out(counts), source.row_labels, source.col_labels)),
        "ExpectedFrequencies": lambda lay_out: ExpectedFrequencies(
            ContingencyTable(lay_out(counts), source.row_labels, source.col_labels)),
        "PoissonScheme": lambda lay_out: PoissonScheme(lay_out(rates)),
        "BinomialRowsScheme": lambda lay_out: BinomialRowsScheme(totals, lay_out(row_probs)),
        "MultinomialScheme": lambda lay_out: MultinomialScheme(1000, lay_out(joint)),
    }


@pytest.mark.parametrize("seed", range(20))
def test_every_stored_array_is_read_only_c_ordered_whatever_the_input_layout(seed):
    # The array rule: a record stores read-only, C-ordered arrays, so a
    # sum over one runs in one order and equal values give equal bytes.
    # A Poisson scheme kept the caller's Fortran-ordered rates.
    rng = np.random.default_rng([seed, 18])
    shape = ((7, 9), (2, 2), (12, 5))[seed % 3]
    for kind, build in _records(rng, shape).items():
        reference = _stored_arrays(build(np.ascontiguousarray))
        for layout, lay_out in _LAYOUTS.items():
            arrays = _stored_arrays(build(lay_out))
            assert arrays.keys() == reference.keys(), (kind, layout)
            for name, array in arrays.items():
                assert array.flags.c_contiguous, (kind, layout, name)
                assert not array.flags.writeable, (kind, layout, name)
                assert array.dtype == reference[name].dtype, (kind, layout, name)
                assert array.tobytes() == reference[name].tobytes(), (kind, layout, name)
