"""Seeded Monte Carlo engine for the three table-generating processes.

Supports Poisson sampling (every cell an independent Poisson count,
nothing fixed), row-fixed binomial/multinomial sampling (each row an
independent draw with its design-fixed total), and total-fixed
multinomial sampling (one draw of size n over all cells). On top of the
sampler sit two calibration tools: null-distribution calibration of the
chi-square tests and empirical coverage of the Wald interval.

Every operation is a pure function of its inputs and a 64-bit seed;
per-replicate streams are split deterministically from the master seed.
The generator (numpy PCG64) is recorded in calibration reports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .association import ScoreAssignment, _integer_scores
from .inference import (
    StatisticKind,
    homogeneity_test,
    independence_test,
    mantel_haenszel_test,
    wald_ci,
)
from .table import ContingencyTable

__all__ = [
    "SchemeKind",
    "SamplingScheme",
    "CalibrationReport",
    "RNG_ALGORITHM",
    "sample_table",
    "calibrate_null",
    "coverage_wald_ci",
]

RNG_ALGORITHM = "numpy-pcg64"

_NULL_TOL = 1e-9
_MIN_CALIBRATION_REPLICATES = 1000


class SchemeKind(str, enum.Enum):
    POISSON = "poisson"
    BINOMIAL_ROWS_FIXED = "binomial_rows_fixed"
    MULTINOMIAL_TOTAL_FIXED = "multinomial_total_fixed"


def _frozen_float_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"{name} must be a matrix with >= 2 rows and columns, "
                         f"got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SamplingScheme:
    """Tagged description of how a table is generated.

    Use the :meth:`poisson`, :meth:`binomial_rows` and
    :meth:`multinomial` constructors rather than filling fields by hand.
    """

    kind: SchemeKind
    cell_rates: np.ndarray | None = None       # poisson
    row_totals: tuple[int, ...] | None = None  # binomial_rows_fixed
    row_probs: np.ndarray | None = None        # binomial_rows_fixed
    total: int | None = None                   # multinomial_total_fixed
    joint_probs: np.ndarray | None = None      # multinomial_total_fixed

    def __post_init__(self) -> None:
        kind = SchemeKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is SchemeKind.POISSON:
            rates = _frozen_float_matrix(self.cell_rates, "cell_rates")
            if np.any(rates <= 0.0):
                raise ValueError("all Poisson cell rates must be > 0")
            object.__setattr__(self, "cell_rates", rates)
        elif kind is SchemeKind.BINOMIAL_ROWS_FIXED:
            probs = _frozen_float_matrix(self.row_probs, "row_probs")
            totals = tuple(int(t) for t in self.row_totals)
            if len(totals) != probs.shape[0]:
                raise ValueError("row_totals length must match row_probs rows")
            if any(t < 0 for t in totals):
                raise ValueError("row totals must be >= 0")
            if sum(totals) < 1:
                raise ValueError("at least one observation required")
            if np.any(probs < 0.0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-12):
                raise ValueError("each row of row_probs must be a probability vector")
            object.__setattr__(self, "row_totals", totals)
            object.__setattr__(self, "row_probs", probs)
        else:
            joint = _frozen_float_matrix(self.joint_probs, "joint_probs")
            total = int(self.total)
            if total < 1:
                raise ValueError(f"total must be >= 1, got {total}")
            if np.any(joint < 0.0) or abs(joint.sum() - 1.0) > 1e-12:
                raise ValueError("joint_probs must be nonnegative and sum to 1")
            object.__setattr__(self, "total", total)
            object.__setattr__(self, "joint_probs", joint)

    @classmethod
    def poisson(cls, cell_rates) -> "SamplingScheme":
        """Independent Poisson count in every cell; nothing fixed."""
        return cls(SchemeKind.POISSON, cell_rates=cell_rates)

    @classmethod
    def binomial_rows(cls, row_totals, row_probs) -> "SamplingScheme":
        """Design-fixed row totals; each row an independent multinomial
        draw over the columns."""
        return cls(SchemeKind.BINOMIAL_ROWS_FIXED,
                   row_totals=tuple(row_totals), row_probs=row_probs)

    @classmethod
    def multinomial(cls, total, joint_probs) -> "SamplingScheme":
        """One multinomial draw of fixed size over all cells."""
        return cls(SchemeKind.MULTINOMIAL_TOTAL_FIXED,
                   total=total, joint_probs=joint_probs)

    @property
    def shape(self) -> tuple[int, int]:
        if self.kind is SchemeKind.POISSON:
            return self.cell_rates.shape
        if self.kind is SchemeKind.BINOMIAL_ROWS_FIXED:
            return self.row_probs.shape
        return self.joint_probs.shape

    def cell_probabilities(self) -> np.ndarray:
        """Implied joint cell probabilities (rates normalized for the
        Poisson scheme; rows weighted by their share of the grand total
        for the row-fixed scheme)."""
        if self.kind is SchemeKind.POISSON:
            return self.cell_rates / self.cell_rates.sum()
        if self.kind is SchemeKind.BINOMIAL_ROWS_FIXED:
            weights = np.asarray(self.row_totals, dtype=float)
            return self.row_probs * (weights / weights.sum())[:, None]
        return np.asarray(self.joint_probs)


@dataclass(frozen=True)
class CalibrationReport:
    """Aggregate behaviour of a test statistic under a null scheme."""

    replicates: int
    statistic_kind: StatisticKind
    empirical_mean: float
    rejection_rates: dict[float, float]
    reference_df: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def rejection_rate_at(self, alpha: float) -> float:
        return self.rejection_rates[alpha]


def _draw(scheme: SamplingScheme, rng: np.random.Generator) -> np.ndarray:
    if scheme.kind is SchemeKind.POISSON:
        return rng.poisson(scheme.cell_rates).astype(np.int64)
    if scheme.kind is SchemeKind.BINOMIAL_ROWS_FIXED:
        rows = [rng.multinomial(t, p)
                for t, p in zip(scheme.row_totals, scheme.row_probs)]
        return np.asarray(rows, dtype=np.int64)
    flat = rng.multinomial(scheme.total, scheme.joint_probs.ravel())
    return flat.reshape(scheme.shape).astype(np.int64)


def _as_table(counts: np.ndarray) -> ContingencyTable:
    n_rows, n_cols = counts.shape
    return ContingencyTable(
        counts,
        tuple(f"r{i + 1}" for i in range(n_rows)),
        tuple(f"c{j + 1}" for j in range(n_cols)),
    )


def sample_table(scheme: SamplingScheme, seed: int) -> ContingencyTable:
    """Draw one table under the scheme. Identical (scheme, seed) pairs
    produce identical tables."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _as_table(_draw(scheme, rng))


def _require_null(scheme: SamplingScheme, test: StatisticKind,
                  scores: ScoreAssignment | None) -> ScoreAssignment | None:
    pi = scheme.cell_probabilities()
    rows = pi.sum(axis=1)
    cols = pi.sum(axis=0)
    if test in (StatisticKind.PEARSON_CHISQ, StatisticKind.DEVIANCE_CHISQ):
        if np.max(np.abs(pi - np.outer(rows, cols))) > _NULL_TOL:
            raise ValueError(
                "scheme does not satisfy the no-association null: cell "
                "probabilities are not the product of their margins")
        return scores
    # Linear-association null: zero correlation under the given scores.
    if scores is None:
        scores = ScoreAssignment(*_integer_scores(*scheme.shape))
    u = np.asarray(scores.row_scores)
    v = np.asarray(scores.col_scores)
    du = u - rows @ u
    dv = v - cols @ v
    cov = float(du @ pi @ dv)
    var_u = float(rows @ du**2)
    var_v = float(cols @ dv**2)
    if var_u <= 0.0 or var_v <= 0.0:
        raise ValueError("degenerate scores: zero variance under the scheme")
    if abs(cov / math.sqrt(var_u * var_v)) > _NULL_TOL:
        raise ValueError(
            "scheme does not satisfy the zero-correlation null under the "
            "given scores")
    return scores


_TEST_NAMES = {
    "pearson": StatisticKind.PEARSON_CHISQ,
    "deviance": StatisticKind.DEVIANCE_CHISQ,
    "mantel_haenszel": StatisticKind.MANTEL_HAENSZEL,
}


def calibrate_null(
    scheme: SamplingScheme,
    test: str | StatisticKind,
    replicates: int,
    seed: int,
    scores: ScoreAssignment | None = None,
    alphas: tuple[float, ...] = (0.10, 0.05, 0.01),
) -> CalibrationReport:
    """Simulate the named test statistic under a null scheme and report
    its empirical mean and rejection rates.

    The scheme must actually satisfy the null being tested (rank-1 cell
    probabilities for the chi-square tests, zero score correlation for
    the linear-association test); calibrating under an alternative is
    refused. Requires at least 1000 replicates.
    """
    if isinstance(test, str) and test in _TEST_NAMES:
        kind = _TEST_NAMES[test]
    else:
        kind = StatisticKind(test)
    if kind not in _TEST_NAMES.values():
        raise ValueError(f"cannot calibrate statistic kind {kind.value!r}")
    if replicates < _MIN_CALIBRATION_REPLICATES:
        raise ValueError(
            f"replicates must be >= {_MIN_CALIBRATION_REPLICATES}, got {replicates}")
    scores = _require_null(scheme, kind, scores)

    homogeneity = scheme.kind is SchemeKind.BINOMIAL_ROWS_FIXED
    stats = np.empty(replicates)
    p_values = np.empty(replicates)
    children = np.random.SeedSequence(seed).spawn(replicates)
    for k, child in enumerate(children):
        tab = _as_table(_draw(scheme, np.random.default_rng(child)))
        if kind is StatisticKind.MANTEL_HAENSZEL:
            res = mantel_haenszel_test(tab, scores)
        else:
            pearson, deviance, _ = (homogeneity_test(tab) if homogeneity
                                    else independence_test(tab))
            res = pearson if kind is StatisticKind.PEARSON_CHISQ else deviance
        stats[k] = res.statistic
        p_values[k] = res.p_value
        df = res.df

    return CalibrationReport(
        replicates=replicates,
        statistic_kind=kind,
        empirical_mean=float(stats.mean()),
        rejection_rates={a: float(np.mean(p_values <= a)) for a in alphas},
        reference_df=df,
        seed=int(seed),
    )


def coverage_wald_ci(
    true_pi: float, trials: int, level: float, replicates: int, seed: int
) -> float:
    """Fraction of simulated binomial samples whose Wald interval covers
    the true proportion. Requires at least 1000 replicates."""
    if not 0.0 < true_pi < 1.0:
        raise ValueError(f"true proportion must be interior, got {true_pi}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if replicates < _MIN_CALIBRATION_REPLICATES:
        raise ValueError(
            f"replicates must be >= {_MIN_CALIBRATION_REPLICATES}, got {replicates}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ys = rng.binomial(trials, true_pi, size=replicates)
    covered = 0
    for y in ys:
        ci = wald_ci(int(y), trials, level)
        if ci.contains(true_pi):
            covered += 1
    return covered / replicates
