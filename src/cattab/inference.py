"""Estimation and hypothesis tests.

Single-proportion tools: the ML estimate, its log-likelihood kernel, the
score / Wald / likelihood-ratio tests, and the Wald confidence interval.
Table tests: Pearson X^2 and deviance G^2 for independence and
homogeneity, and the linear-association (Mantel-Haenszel) statistic
M^2 = (n - 1) r^2 for scored ordinal variables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .association import ScoreAssignment, pearson_correlation
from .special import chi2_sf, normal_cdf, normal_quantile, xlogy
from .table import ContingencyTable

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


@dataclass(frozen=True)
class ExpectedFrequencies:
    """Estimated expected cell frequencies row_total * col_total / n,
    under either the independence or the homogeneity hypothesis."""

    values: np.ndarray
    hypothesis: str  # "independence" | "homogeneity"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LikelihoodDetail:
    """Maximized log-likelihoods under the null (restricted) and the
    alternative (unrestricted) parameter space; log_l1 >= log_l0."""

    log_l0: float
    log_l1: float


def _check_proportion_data(successes: int, trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must satisfy 0 <= y <= {trials}, got {successes}")


def mle_proportion(successes: int, trials: int) -> tuple[float, float]:
    """ML estimate of a proportion and the standard error evaluated at
    the estimate: (y/n, sqrt(p(1-p)/n))."""
    _check_proportion_data(successes, trials)
    estimate = successes / trials
    se = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, se


def log_likelihood(pi: float, successes: int, trials: int) -> float:
    """Log of the likelihood kernel p^y (1-p)^(n-y).

    The binomial coefficient is an additive constant in log space and is
    omitted; it cancels in every likelihood ratio. 0*ln(0) is taken as 0
    so the closed parameter domain [0, 1] is total.
    """
    _check_proportion_data(successes, trials)
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"pi must be in [0, 1], got {pi}")
    return xlogy(successes, pi) + xlogy(trials - successes, 1.0 - pi)


def _z_p_value(z: float, sidedness: Sidedness) -> float:
    if sidedness is Sidedness.TWO_SIDED:
        return 2.0 * normal_cdf(-abs(z))
    if sidedness is Sidedness.UPPER:
        return normal_cdf(-z)
    return normal_cdf(z)


def score_test_proportion(
    successes: int,
    trials: int,
    pi0: float,
    sidedness: Sidedness | str = Sidedness.TWO_SIDED,
) -> TestResult:
    """z test with the standard error evaluated at the null value:
    z = (y/n - pi0) / sqrt(pi0 (1 - pi0) / n)."""
    _check_proportion_data(successes, trials)
    if not 0.0 < pi0 < 1.0:
        raise ValueError(f"null proportion must be interior, got {pi0}")
    sidedness = Sidedness(sidedness)
    se0 = math.sqrt(pi0 * (1.0 - pi0) / trials)
    z = (successes / trials - pi0) / se0
    return TestResult(z, StatisticKind.SCORE_Z, 1, _z_p_value(z, sidedness),
                      sidedness=sidedness)


def wald_test_proportion(successes: int, trials: int, pi0: float) -> TestResult:
    """Chi-square test with z^2 formed from the standard error at the
    estimate; unusable at boundary estimates where that SE is 0."""
    estimate, se = mle_proportion(successes, trials)
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
    _check_proportion_data(successes, trials)
    if not 0.0 < pi0 < 1.0:
        raise ValueError(f"null proportion must be interior, got {pi0}")
    log_l1 = log_likelihood(successes / trials, successes, trials)
    log_l0 = log_likelihood(pi0, successes, trials)
    stat = max(0.0, 2.0 * (log_l1 - log_l0))
    result = TestResult(stat, StatisticKind.LR_CHISQ, 1, chi2_sf(1, stat))
    return result, LikelihoodDetail(log_l0=log_l0, log_l1=log_l1)


def wald_ci(
    successes: int, trials: int, level: float = 0.95, *, clip: bool = False
) -> ConfidenceInterval:
    """Wald confidence interval estimate ± z_{alpha/2} * SE(estimate).

    Bounds may fall outside [0, 1]; pass ``clip=True`` to truncate them.
    Boundary data (y in {0, n}) produce a degenerate zero-width interval.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    estimate, se = mle_proportion(successes, trials)
    z = normal_quantile(0.5 * (1.0 + level))
    lower = estimate - z * se
    upper = estimate + z * se
    if clip:
        lower = max(0.0, lower)
        upper = min(1.0, upper)
    return ConfidenceInterval(estimate, lower, upper, level, se,
                              degenerate=(se == 0.0))


def _require_positive_margins(table: ContingencyTable) -> None:
    rows, cols = table.row_totals, table.col_totals
    if not rows.all():
        lab = table.row_labels[int(rows.argmin())]
        raise ValueError(f"row {lab!r} has zero total; expected frequencies undefined")
    if not cols.all():
        lab = table.col_labels[int(cols.argmin())]
        raise ValueError(f"column {lab!r} has zero total; expected frequencies undefined")


def expected_frequencies(
    table: ContingencyTable, hypothesis: str = "independence"
) -> ExpectedFrequencies:
    """Expected cell frequencies row_total * col_total / n. The same
    numbers serve both the independence and the homogeneity hypothesis;
    only the interpretation of the fit differs."""
    if hypothesis not in ("independence", "homogeneity"):
        raise ValueError(f"unknown hypothesis {hypothesis!r}")
    # In floats: an int64 product of two margins can wrap once n > 3e9.
    mu = table.row_totals.astype(float)[:, None] * table.col_totals / table.total()
    return ExpectedFrequencies(mu, hypothesis)


def _chisq_pair(
    table: ContingencyTable, hypothesis: str
) -> tuple[TestResult, TestResult, ExpectedFrequencies]:
    expected = expected_frequencies(table, hypothesis)
    mu = expected.values
    obs = table.counts
    df = (table.n_rows - 1) * (table.n_cols - 1)
    warn = bool(mu.min() < SMALL_CELL_THRESHOLD)

    x2 = float(((obs - mu) ** 2 / mu).sum())
    if not obs.all():  # 0 ln 0 = 0: sum over the positive cells only
        pos = obs > 0
        obs, mu = obs[pos], mu[pos]
    g2 = max(0.0, float(2.0 * (obs * np.log(obs / mu)).sum()))

    pearson = TestResult(x2, StatisticKind.PEARSON_CHISQ, df, chi2_sf(df, x2),
                         small_cell_warning=warn)
    deviance = TestResult(g2, StatisticKind.DEVIANCE_CHISQ, df, chi2_sf(df, g2),
                          small_cell_warning=warn)
    return pearson, deviance, expected


def independence_test(
    table: ContingencyTable,
) -> tuple[TestResult, TestResult, ExpectedFrequencies]:
    """Pearson X^2 and deviance G^2 against the hypothesis that the row
    and column variables are independent; df = (I-1)(J-1)."""
    _require_positive_margins(table)
    return _chisq_pair(table, "independence")


def homogeneity_test(
    table: ContingencyTable,
) -> tuple[TestResult, TestResult, ExpectedFrequencies]:
    """Pearson X^2 and deviance G^2 against the hypothesis that every
    row (the design-fixed margin) has the same conditional distribution
    over the columns. Numerically identical to the independence test;
    the sampling design and the conclusion wording differ."""
    # A zero response category breaks the shared expected-frequency
    # formula just as a zero design row does.
    _require_positive_margins(table)
    return _chisq_pair(table, "homogeneity")


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
