"""Seeded Monte Carlo engine for the three table-generating processes.

Each process is one ``SamplingScheme`` subclass that holds, checks and
draws from only its own parameters: ``PoissonScheme`` (every cell an
independent Poisson count, nothing fixed), ``BinomialRowsScheme`` (each
row an independent multinomial draw of its design-fixed total) and
``MultinomialScheme`` (one draw of size n over all cells). On top of the
sampler sit two calibration tools: null-distribution calibration of the
chi-square tests and empirical coverage of the Wald interval.

Every operation is a pure function of its inputs and a nonnegative
integer seed: it draws from one numpy PCG64 stream seeded with it,
``calibrate_null`` one replicate after another. Reports record the
generator as ``RNG_ALGORITHM``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .association import ScoreAssignment, _score_vectors, _scored_moments
from .distributions import _INT64_MAX, _as_integer, _count, _float_array, _ordered, _probabilities
from .inference import (
    StatisticKind,
    _interior,
    _level_quantile,
    _proportion_data,
    independence_test,
    mantel_haenszel_test,
)
from .special import normal_quantile
from .table import ContingencyTable, _check_matrix, _ContentEq

__all__ = [
    "SamplingScheme",
    "PoissonScheme",
    "BinomialRowsScheme",
    "MultinomialScheme",
    "CalibrationReport",
    "RNG_ALGORITHM",
    "sample_table",
    "calibrate_null",
    "coverage_wald_ci",
]

RNG_ALGORITHM = "numpy-pcg64-sequential"

_NULL_TOL = 1e-9
# The bound on the sum of a scheme's rates, the rate of the drawn
# table's total: int64 max less ten standard deviations,
# 9.223372006484771e18, so that the drawn total fits a table's int64
# counts.
_POISSON_MAX_RATE = float(_INT64_MAX) - 10.0 * math.sqrt(float(_INT64_MAX))
# The cell rate above which a Poisson scheme draws a rounded normal (see
# PoissonScheme), and the largest float below 2**63, its clip to int64.
_POISSON_NORMAL_RATE = 1e12
_INT64_MAX_FLOAT = float(np.nextafter(2.0**63, 0.0))
_MIN_CALIBRATION_REPLICATES = 1000
_ALPHAS = (0.10, 0.05, 0.01)


class SamplingScheme(_ContentEq, abc.ABC):
    """How a table is generated: one subclass per sampling process, each
    holding only its own fields. Build one with :meth:`poisson`,
    :meth:`binomial_rows` or :meth:`multinomial`. ``kind`` names the
    process: "poisson", "binomial_rows_fixed" or
    "multinomial_total_fixed"."""

    kind: str

    @property
    def shape(self) -> tuple[int, int]:
        return self.cell_probabilities().shape

    @abc.abstractmethod
    def cell_probabilities(self) -> np.ndarray:
        """Implied joint cell probabilities."""

    @abc.abstractmethod
    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One count matrix drawn from ``rng``: numpy's int64 counts, not
        copied here; the table built from them makes its own copy."""

    @staticmethod
    def poisson(cell_rates) -> PoissonScheme:
        return PoissonScheme(cell_rates)

    @staticmethod
    def binomial_rows(row_totals, row_probs) -> BinomialRowsScheme:
        return BinomialRowsScheme(row_totals, row_probs)

    @staticmethod
    def multinomial(total, joint_probs) -> MultinomialScheme:
        return MultinomialScheme(total, joint_probs)


@dataclass(frozen=True, eq=False)
class PoissonScheme(SamplingScheme):
    """Independent Poisson count in every cell; nothing fixed.

    A cell whose rate is at most 1e12 is drawn by numpy's Poisson
    sampler. Above that rate the sampler is overdispersed (var/rate 1.08
    at 2.5e14 and 1.70 at 2.5e17, numpy 2.4), so such a cell is drawn as
    ``rint(normal(rate, sqrt(rate)))``, clipped to 0..2**63 - 1024. The
    rounded normal is within O(rate**-1/2) of Poisson(rate) in total
    variation, about 1e-6 at 1e12 and less above. ``draw`` takes the
    Poisson cells first, in one call that passes 0 for every normal cell
    (a rate that consumes no random numbers), then one normal per normal
    cell in C order: a scheme with no cell above 1e12 consumes its stream
    as one ``rng.poisson(cell_rates)`` call. The rates may sum to at most
    int64 max less ten standard deviations, so that a drawn total fits a
    table's int64 counts."""

    kind = "poisson"
    cell_rates: np.ndarray

    def __post_init__(self) -> None:
        rates = _check_matrix(_float_array(self.cell_rates, "cell_rates"), "cell_rates")
        if not np.isfinite(rates).all():
            raise ValueError("cell_rates must be finite")
        if np.any(rates <= 0.0):
            raise ValueError("all Poisson cell rates must be > 0")
        with np.errstate(over="ignore"):  # a sum beyond the float range is inf, refused
            total = float(rates.sum())
        if total > _POISSON_MAX_RATE:
            raise ValueError(f"cell_rates must be at most {_POISSON_MAX_RATE!r} in total, so "
                             f"that a drawn table's total fits int64; got {total!r}")
        object.__setattr__(self, "cell_rates", rates)
        # Split once here, read-only as every stored array; not fields, so
        # they stay out of equality.
        cells = rates > _POISSON_NORMAL_RATE
        poisson_rates = np.where(cells, 0.0, rates)
        for arr in (cells, poisson_rates):
            arr.setflags(write=False)
        object.__setattr__(self, "_poisson_rates", poisson_rates)
        object.__setattr__(self, "_normal_cells", cells if cells.any() else None)

    def cell_probabilities(self) -> np.ndarray:
        """The rates normalized to sum to 1."""
        probs = self.cell_rates / self.cell_rates.sum()
        probs.setflags(write=False)
        return probs

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        counts = rng.poisson(self._poisson_rates)
        if self._normal_cells is not None:
            rates = self.cell_rates[self._normal_cells]
            normal = np.rint(rng.normal(rates, np.sqrt(rates)))
            counts[self._normal_cells] = np.clip(normal, 0.0, _INT64_MAX_FLOAT)
        return counts


@dataclass(frozen=True, eq=False)
class BinomialRowsScheme(SamplingScheme):
    """Design-fixed row totals; each row an independent multinomial draw
    over the columns."""

    kind = "binomial_rows_fixed"
    row_totals: tuple[int, ...]
    row_probs: np.ndarray

    def __post_init__(self) -> None:
        probs = _check_matrix(_probabilities(self.row_probs, "row_probs", axis=-1), "row_probs")
        totals = tuple(_count(t, "row_totals") for t in _ordered(self.row_totals, "row_totals"))
        if len(totals) != probs.shape[0]:
            raise ValueError("row_totals length must match row_probs rows")
        if _count(sum(totals), "the sum of row_totals") < 1:
            raise ValueError("at least one observation required")
        object.__setattr__(self, "row_totals", totals)
        object.__setattr__(self, "row_probs", probs)

    def cell_probabilities(self) -> np.ndarray:
        """Each row's probabilities weighted by its share of the grand
        total."""
        weights = np.asarray(self.row_totals, dtype=float)
        probs = self.row_probs * (weights / weights.sum())[:, None]
        probs.setflags(write=False)
        return probs

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.multinomial(t, p) for t, p in zip(self.row_totals, self.row_probs)])


@dataclass(frozen=True, eq=False)
class MultinomialScheme(SamplingScheme):
    """One multinomial draw of fixed size over all cells."""

    kind = "multinomial_total_fixed"
    total: int
    joint_probs: np.ndarray

    def __post_init__(self) -> None:
        joint = _check_matrix(_probabilities(self.joint_probs, "joint_probs"), "joint_probs")
        total = _count(self.total, "total")
        if total < 1:
            raise ValueError(f"total must be >= 1, got {total}")
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "joint_probs", joint)

    def cell_probabilities(self) -> np.ndarray:
        return self.joint_probs

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        flat = rng.multinomial(self.total, self.joint_probs.ravel())
        return flat.reshape(self.joint_probs.shape)


@dataclass(frozen=True)
class CalibrationReport:
    """Aggregate behaviour of a test statistic under a null scheme. The
    mean and rejection rates are over the replicates whose statistic is
    defined; ``degenerate_replicates`` counts the others."""

    replicates: int
    degenerate_replicates: int
    statistic_kind: StatisticKind
    empirical_mean: float
    rejection_rates: dict[float, float]
    reference_df: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


def _labels(shape: tuple[int, int]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The row and column labels of a drawn table: r1..rI and c1..cJ."""
    n_rows, n_cols = shape
    return tuple(f"r{i + 1}" for i in range(n_rows)), tuple(f"c{j + 1}" for j in range(n_cols))


def _rng(seed: int) -> np.random.Generator:
    """The one stream every operation draws from: PCG64 seeded with a
    nonnegative integer of any size."""
    seed = _as_integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _replicate_count(replicates: int) -> int:
    replicates = _count(replicates, "replicates")
    if replicates < _MIN_CALIBRATION_REPLICATES:
        raise ValueError(
            f"replicates must be >= {_MIN_CALIBRATION_REPLICATES}, got {replicates}")
    return replicates


def sample_table(scheme: SamplingScheme, seed: int) -> ContingencyTable:
    """Draw one table under the scheme: the first replicate that
    ``calibrate_null`` draws with the same seed. Identical (scheme, seed)
    pairs produce identical tables."""
    return ContingencyTable(scheme.draw(_rng(seed)), *_labels(scheme.shape))


def _require_null(scheme: SamplingScheme, test: StatisticKind,
                  scores: ScoreAssignment | None) -> ScoreAssignment | None:
    pi = scheme.cell_probabilities()
    rows = pi.sum(axis=1)
    cols = pi.sum(axis=0)
    if test in (StatisticKind.PEARSON_CHISQ, StatisticKind.DEVIANCE_CHISQ):
        if scores is not None:
            raise ValueError(f"scores apply only to the {StatisticKind.MANTEL_HAENSZEL.value} "
                             f"test, not {test.value}")
        if np.max(np.abs(pi - np.outer(rows, cols))) > _NULL_TOL:
            raise ValueError(
                "scheme does not satisfy the no-association null: cell "
                "probabilities are not the product of their margins")
        return None
    # Linear-association null: zero correlation under the given scores.
    u, v = _score_vectors(scores, scheme.shape)
    cov, var_u, var_v = _scored_moments(pi, rows, cols, 1.0, u, v)
    if var_u <= 0.0 or var_v <= 0.0:
        raise ValueError("degenerate scores: zero variance under the scheme")
    if abs(cov / (math.sqrt(var_u) * math.sqrt(var_v))) > _NULL_TOL:  # var_u * var_v can be 0.0
        raise ValueError(
            "scheme does not satisfy the zero-correlation null under the "
            "given scores")
    # A drawn table's axes are not flagged ordinal: the default scores are named.
    return ScoreAssignment(u, v) if scores is None else scores


_TEST_NAMES = {
    "pearson": StatisticKind.PEARSON_CHISQ,
    "deviance": StatisticKind.DEVIANCE_CHISQ,
    "mantel_haenszel": StatisticKind.MANTEL_HAENSZEL,
}


def calibrate_null(
    scheme: SamplingScheme,
    test: str,
    replicates: int,
    seed: int,
    scores: ScoreAssignment | None = None,
) -> CalibrationReport:
    """Simulate the named test statistic under a null scheme and report
    its empirical mean and rejection rates at alpha = .10, .05 and .01.
    ``test`` is one of "pearson", "deviance" and "mantel_haenszel"; any
    other value, a ``StatisticKind`` member included, is refused.

    The scheme must actually satisfy the null being tested (rank-1 cell
    probabilities for the chi-square tests, zero score correlation for
    the linear-association test); calibrating under an alternative is
    refused, and so are ``scores`` with a chi-square test, which does
    not use them. Requires at least 1000 replicates. A replicate whose
    statistic is undefined (a zero total, a zero margin or zero score
    variance, likeliest at small n) is counted in
    ``degenerate_replicates`` and left out of the mean and the rates; if
    every replicate is, the call raises ``ValueError``. A replicate count
    whose results do not fit in memory (10**15, say) raises
    ``MemoryError`` before the first draw.
    """
    # type(), not isinstance: a StatisticKind member is a str equal to its value.
    kind = _TEST_NAMES.get(test) if type(test) is str else None
    if kind is None:
        raise ValueError(f"test must be one of {', '.join(_TEST_NAMES)}, got {test!r}")
    replicates = _replicate_count(replicates)
    scores = _require_null(scheme, kind, scores)
    rng = _rng(seed)
    row_labels, col_labels = _labels(scheme.shape)

    # Allocated up front, so that a replicate count too large for memory
    # fails here and not after a long run.
    stats = np.empty(replicates)
    p_values = np.empty(replicates)
    defined = 0
    for _ in range(replicates):
        counts = scheme.draw(rng)  # outside the try: a fault in a draw propagates
        try:
            table = ContingencyTable(counts, row_labels, col_labels)
            if kind is StatisticKind.MANTEL_HAENSZEL:
                res = mantel_haenszel_test(table, scores)
            else:
                res = independence_test(table)[0 if kind is StatisticKind.PEARSON_CHISQ else 1]
        except ValueError:  # a zero total, a zero margin or zero score variance
            continue
        stats[defined], p_values[defined] = res.statistic, res.p_value
        reference_df = res.df
        defined += 1
    if not defined:
        raise ValueError(f"the statistic is undefined in all {replicates} replicates")
    return CalibrationReport(
        replicates=replicates,
        degenerate_replicates=replicates - defined,
        statistic_kind=kind,
        empirical_mean=float(stats[:defined].mean()),
        rejection_rates={a: float(np.mean(p_values[:defined] <= a)) for a in _ALPHAS},
        reference_df=reference_df,
        seed=int(seed),
    )


def coverage_wald_ci(
    true_pi: float, trials: int, level: float, replicates: int, seed: int
) -> float:
    """Fraction of simulated binomial samples whose Wald interval covers
    the true proportion. Requires at least 1000 replicates.

    Applies ``wald_ci``'s arithmetic, in its order, to all replicates'
    counts at once, so its cost grows with the replicates and not with
    one interval per distinct count."""
    true_pi = _interior(true_pi, "true proportion")
    z = normal_quantile(_level_quantile(level))  # refused before the draws
    _, trials = _proportion_data(0, trials)
    replicates = _replicate_count(replicates)
    estimate = _rng(seed).binomial(trials, true_pi, size=replicates) / trials
    half = z * np.sqrt(estimate * (1.0 - estimate) / trials)
    covered = (estimate - half <= true_pi) & (true_pi <= estimate + half)
    return int(np.count_nonzero(covered)) / replicates
