"""Estimation and hypothesis tests.

Single-proportion tools: the ML estimate, its log-likelihood kernel, the
score / Wald / likelihood-ratio tests, and the Wald confidence interval.
Table tests: Pearson X^2 and deviance G^2 for independence and
homogeneity, and the linear-association (Mantel-Haenszel) statistic
M^2 = (n - 1) r^2 for scored ordinal variables.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .association import ScoreAssignment, pearson_correlation
from .distributions import _count, _real
from .special import chi2_sf, normal_cdf, normal_quantile, xlogy
from .table import ContingencyTable, _ContentEq, _require_table

__all__ = [
    "StatisticKind",
    "Sidedness",
    "TestResult",
    "ConfidenceInterval",
    "ExpectedFrequencies",
    "LikelihoodDetail",
    "mle_proportion",
    "log_likelihood",
    "score_test_proportion",
    "wald_test_proportion",
    "lr_test_proportion",
    "wald_ci",
    "expected_frequencies",
    "independence_test",
    "homogeneity_test",
    "mantel_haenszel_test",
]

SMALL_CELL_THRESHOLD = 5.0
_LEAST_SUBNORMAL = math.ulp(0.0)


class StatisticKind(str, enum.Enum):
    SCORE_Z = "score_z"
    WALD_CHISQ = "wald_chisq"
    LR_CHISQ = "lr_chisq"
    PEARSON_CHISQ = "pearson_chisq"
    DEVIANCE_CHISQ = "deviance_chisq"
    MANTEL_HAENSZEL = "mantel_haenszel"


class Sidedness(str, enum.Enum):
    TWO_SIDED = "two_sided"
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class TestResult:
    """Outcome of a single hypothesis test.

    ``statistic`` is a signed z score for the score test and a
    chi-square-distributed quantity for everything else. ``sidedness``
    is set for z tests only. ``small_cell_warning`` flags expected
    frequencies below 5, where the chi-square approximation degrades.
    """

    statistic: float
    statistic_kind: StatisticKind
    df: int
    p_value: float
    sidedness: Sidedness | None = None
    small_cell_warning: bool = False


@dataclass(frozen=True)
class ConfidenceInterval:
    """Interval estimate ± z * SE around a point estimate.

    ``degenerate`` flags a zero-width interval from a boundary estimate
    (0 or n successes), where the Wald standard error collapses to 0.
    """

    estimate: float
    lower: float
    upper: float
    level: float
    standard_error: float
    degenerate: bool = False

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _expected_matrix(table: ContingencyTable, out: np.ndarray | None = None) -> np.ndarray:
    """The writable float matrix row_total * col_total / n of ``table``,
    in ``out`` when given: the one expression for the expected
    frequencies. It reads the table's float64 margins, the rows as an
    (I, 1) column, and its float total, cast once when the table was
    built; in floats, since an int64 product of two margins can wrap once
    n > 3e9. The rows are copied across ``out`` and multiplied in place,
    which allocates no iterator buffer of its own, unlike a broadcasting
    ``np.multiply``."""
    if out is None:
        out = np.empty(table.shape)
    np.copyto(out, table._float_row_totals)
    out *= table._float_col_totals
    out /= table._float_total
    return out


@dataclass(frozen=True, eq=False)
class ExpectedFrequencies(_ContentEq):
    """Estimated expected cell frequencies row_total * col_total / n of
    ``table``: one fit for the independence and the homogeneity
    hypothesis alike. The record names neither: only the sampling design
    and the wording of the conclusion differ, and the caller names the
    design by calling :func:`independence_test` or :func:`homogeneity_test`.

    The record holds its table and builds ``values``, a read-only,
    C-ordered float matrix, on first read, so a test whose caller reads
    only the statistics holds no table-sized matrix. Records compare and
    hash by ``values``."""

    table: ContingencyTable

    def __post_init__(self) -> None:
        _require_table(self.table, "table")

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = _expected_matrix(self.table)
        values.setflags(write=False)
        return values

    def _content(self) -> tuple:
        return (self.values,)


@dataclass(frozen=True)
class LikelihoodDetail:
    """Maximized log-likelihoods under the null (restricted) and the
    alternative (unrestricted) parameter space; log_l1 >= log_l0."""

    log_l0: float
    log_l1: float


def _proportion_data(successes: int, trials: int) -> tuple[int, int]:
    successes, trials = _count(successes, "successes"), _count(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if successes > trials:
        raise ValueError(f"successes must satisfy 0 <= y <= {trials}, got {successes}")
    return successes, trials


def _interior(value, what: str):
    """A proportion strictly between 0 and 1: the type rule, then the range."""
    value = _real(value, what)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{what} must be interior, got {value}")
    return value


def mle_proportion(successes: int, trials: int) -> tuple[float, float]:
    """ML estimate of a proportion and the standard error evaluated at
    the estimate: (y/n, sqrt(p(1-p)/n))."""
    successes, trials = _proportion_data(successes, trials)
    estimate = successes / trials
    se = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, se


def log_likelihood(pi: float, successes: int, trials: int) -> float:
    """Log of the likelihood kernel p^y (1-p)^(n-y).

    The binomial coefficient is an additive constant in log space and is
    omitted; it cancels in every likelihood ratio. 0*ln(0) is taken as 0
    so the closed parameter domain [0, 1] is total.
    """
    successes, trials = _proportion_data(successes, trials)
    pi = _real(pi, "pi")
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"pi must be in [0, 1], got {pi}")
    return xlogy(successes, pi) + xlogy(trials - successes, 1.0 - pi)


def _z_p_value(z: float, sidedness: Sidedness) -> float:
    if sidedness is Sidedness.TWO_SIDED:
        return 2.0 * normal_cdf(-abs(z))
    if sidedness is Sidedness.UPPER:
        return normal_cdf(-z)
    return normal_cdf(z)


def _null_se(pi0: float, trials: int) -> float:
    """sqrt(pi0 (1 - pi0) / n), as two roots: the product underflows to
    0.0 at a subnormal pi0, and the roots stay nonzero at every interior
    pi0 and every trials up to the int64 maximum."""
    return math.sqrt(pi0) * math.sqrt((1.0 - pi0) / trials)


def score_test_proportion(
    successes: int,
    trials: int,
    pi0: float,
    sidedness: Sidedness | str = Sidedness.TWO_SIDED,
) -> TestResult:
    """z test with the standard error evaluated at the null value:
    z = (y/n - pi0) / sqrt(pi0 (1 - pi0) / n)."""
    successes, trials = _proportion_data(successes, trials)
    pi0 = _interior(pi0, "null proportion")
    sidedness = Sidedness(sidedness)
    z = (successes / trials - pi0) / _null_se(pi0, trials)
    return TestResult(z, StatisticKind.SCORE_Z, 1, _z_p_value(z, sidedness),
                      sidedness=sidedness)


def wald_test_proportion(successes: int, trials: int, pi0: float) -> TestResult:
    """Chi-square test with z^2 formed from the standard error at the
    estimate; unusable at boundary estimates where that SE is 0."""
    estimate, se = mle_proportion(successes, trials)
    pi0 = _real(pi0, "null proportion")
    if not 0.0 <= pi0 <= 1.0:
        raise ValueError(f"null proportion must be in [0, 1], got {pi0}")
    if se == 0.0:
        raise ValueError(
            "Wald test undefined at boundary estimate (0 or all successes): "
            "the estimated standard error is zero")
    z = (estimate - pi0) / se
    stat = z * z
    return TestResult(stat, StatisticKind.WALD_CHISQ, 1, chi2_sf(1, stat))


def lr_test_proportion(
    successes: int, trials: int, pi0: float
) -> tuple[TestResult, LikelihoodDetail]:
    """Likelihood-ratio chi-square: -2 ln(l0 / l1), where l0 is the
    likelihood at the null value and l1 the maximized likelihood."""
    successes, trials = _proportion_data(successes, trials)
    pi0 = _interior(pi0, "null proportion")
    log_l1 = log_likelihood(successes / trials, successes, trials)
    log_l0 = log_likelihood(pi0, successes, trials)
    stat = max(0.0, 2.0 * (log_l1 - log_l0))
    result = TestResult(stat, StatisticKind.LR_CHISQ, 1, chi2_sf(1, stat))
    return result, LikelihoodDetail(log_l0=log_l0, log_l1=log_l1)


def _level_quantile(level: float) -> float:
    """The normal probability 0.5 * (1 + level) whose quantile is a
    two-sided interval's z; ``ValueError`` unless it lies in [0.5, 1),
    which a level within 2**-53 of 1 misses by rounding up to 1.0."""
    level = _real(level, "confidence level")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    p = 0.5 * (1.0 + level)
    if p == 1.0:
        raise ValueError(f"confidence level {level!r} is too close to 1: 0.5 * (1 + level) "
                         "rounds to 1, whose normal quantile is infinite")
    return p


def wald_ci(successes: int, trials: int, level: float = 0.95) -> ConfidenceInterval:
    """Wald confidence interval estimate ± z_{alpha/2} * SE(estimate).

    Bounds are not truncated and may fall outside [0, 1]. Boundary data
    (y in {0, n}) produce a degenerate zero-width interval.
    """
    p = _level_quantile(level)
    estimate, se = mle_proportion(successes, trials)
    z = normal_quantile(p)
    return ConfidenceInterval(estimate, estimate - z * se, estimate + z * se, level, se,
                              degenerate=(se == 0.0))


def _require_positive_margins(table: ContingencyTable) -> float:
    """Raise ``ValueError`` when a row or column total is zero; otherwise
    return the smallest expected frequency, r_min * c_min / n, from the
    smallest margins the table keeps. Each expected frequency is
    fl(fl(r_i c_j) / n), and correctly rounded products and quotients are
    monotone, so this equals the minimum over the expected-frequency
    matrix bit for bit."""
    r_min, c_min = table._min_row_total, table._min_col_total
    if not r_min:
        lab = table.row_labels[int(table.row_totals.argmin())]
        raise ValueError(f"row {lab!r} has zero total; expected frequencies undefined")
    if not c_min:
        lab = table.col_labels[int(table.col_totals.argmin())]
        raise ValueError(f"column {lab!r} has zero total; expected frequencies undefined")
    return float(r_min) * float(c_min) / table._float_total


def expected_frequencies(table: ContingencyTable) -> ExpectedFrequencies:
    """Expected cell frequencies row_total * col_total / n. The same
    numbers serve both the independence and the homogeneity hypothesis;
    only the sampling design and the wording of the conclusion differ.
    ``values`` is built on first read."""
    return ExpectedFrequencies(table)


def _chisq_pair(table: ContingencyTable) -> tuple[TestResult, TestResult, ExpectedFrequencies]:
    """X^2 and G^2 with their p-values and the expected frequencies, or
    ``ValueError`` from :func:`_require_positive_margins` on a zero margin.

    Memory: one (2, I, J) buffer, with or without zero cells, freed on
    return. Its second slot holds the expected frequencies mu, its first
    the X^2 terms; the second then becomes the G^2 terms in place, and
    one reduction sums both slots. The counts are the table's float copy,
    so every step takes float64 operands only (a ufunc that mixes int64
    and float64 casts through a buffer of its own on every call). The
    returned :class:`ExpectedFrequencies` holds the table and builds its
    matrix again only when ``values`` is read. The statistics are bit for
    bit ``((o - mu) ** 2 / mu).sum()`` and
    ``2 * (o * log(fmax(o / mu, ulp(0)))).sum()``: the same terms, summed
    in the same order, a zero cell's term an exact zero.
    """
    min_expected = _require_positive_margins(table)
    obs = table._float_counts
    terms = np.empty((2,) + obs.shape)
    x2_terms, mu = terms[0], terms[1]  # indexed: unpacking iterates, which costs more
    _expected_matrix(table, out=mu)
    np.subtract(obs, mu, out=x2_terms)
    np.square(x2_terms, out=x2_terms)
    x2_terms /= mu
    # 0 ln 0 = 0: a zero cell's ratio is raised to the least subnormal, so
    # its term is 0 * -744.4 = -0.0; a positive o / mu >= 1 / n is unmoved.
    g2_terms = np.divide(obs, mu, out=mu)
    np.fmax(g2_terms, _LEAST_SUBNORMAL, out=g2_terms)
    np.log(g2_terms, out=g2_terms)
    g2_terms *= obs
    # Each slot is one contiguous row, summed as the whole matrix would be.
    x2, g2_half = np.add.reduce(terms.reshape(2, -1), 1).tolist()
    g2 = max(0.0, 2.0 * g2_half)

    df = (table.n_rows - 1) * (table.n_cols - 1)
    warn = min_expected < SMALL_CELL_THRESHOLD
    pearson = TestResult(x2, StatisticKind.PEARSON_CHISQ, df, chi2_sf(df, x2),
                         small_cell_warning=warn)
    deviance = TestResult(g2, StatisticKind.DEVIANCE_CHISQ, df, chi2_sf(df, g2),
                          small_cell_warning=warn)
    return pearson, deviance, ExpectedFrequencies(table)


def independence_test(
    table: ContingencyTable,
) -> tuple[TestResult, TestResult, ExpectedFrequencies]:
    """Pearson X^2 and deviance G^2 against the hypothesis that the row
    and column variables are independent; df = (I-1)(J-1)."""
    return _chisq_pair(table)


def homogeneity_test(
    table: ContingencyTable,
) -> tuple[TestResult, TestResult, ExpectedFrequencies]:
    """Pearson X^2 and deviance G^2 against the hypothesis that every
    row (the design-fixed margin) has the same conditional distribution
    over the columns. One computation with :func:`independence_test`,
    whose records it returns: only the sampling design, which the caller
    names by choosing this function, and the conclusion wording differ."""
    # A zero response category breaks the shared expected-frequency
    # formula just as a zero design row does.
    return _chisq_pair(table)


def mantel_haenszel_test(
    table: ContingencyTable, scores: ScoreAssignment | None = None
) -> TestResult:
    """Linear-association chi-square M^2 = (n - 1) r^2 with 1 df, where
    r is the scored Pearson correlation.

    Without explicit scores, both axes must be flagged ordinal; the
    default consecutive integer scores are then used.
    """
    if scores is None and not (table.row_ordinal and table.col_ordinal):
        raise ValueError(
            "explicit scores required: table axes are not flagged ordinal")
    r = pearson_correlation(table, scores)
    stat = (table.total() - 1) * r * r
    return TestResult(stat, StatisticKind.MANTEL_HAENSZEL, 1, chi2_sf(1, stat))
