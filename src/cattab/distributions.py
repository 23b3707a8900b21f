"""Binomial, multinomial, and Poisson sampling distributions.

Probability masses are evaluated in log space through ``ln_gamma`` so
large counts cannot overflow; each PMF also has a ``*_log_pmf`` twin.
Boundary success probabilities 0 and 1 are exact under the conventions
0**0 == 1 and 0*ln(0) == 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special import ln_gamma, xlogy

__all__ = [
    "BinomialSpec",
    "MultinomialSpec",
    "PoissonSpec",
    "binomial_pmf",
    "binomial_log_pmf",
    "binomial_moments",
    "multinomial_pmf",
    "multinomial_log_pmf",
    "poisson_pmf",
    "poisson_log_pmf",
]

_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class BinomialSpec:
    """Fixed number of identical two-outcome trials.

    trials: total number of trials (n); success_prob: per-trial
    probability of the targeted outcome.
    """

    trials: int
    success_prob: float

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError(f"success_prob must be in [0, 1], got {self.success_prob}")


@dataclass(frozen=True)
class MultinomialSpec:
    """Fixed number of identical trials with J >= 2 outcome categories."""

    trials: int
    category_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "category_probs",
                           tuple(float(p) for p in self.category_probs))
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if len(self.category_probs) < 2:
            raise ValueError("need at least two categories")
        for p in self.category_probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"category probability out of [0, 1]: {p}")
        total = math.fsum(self.category_probs)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"category probabilities must sum to 1, got {total!r}")


@dataclass(frozen=True)
class PoissonSpec:
    """Counts of events occurring randomly over time or space; ``rate``
    is the single parameter that is both the mean and the variance."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")


def binomial_log_pmf(spec: BinomialSpec, y: int) -> float:
    """Log of P(y successes in n trials); -inf for impossible outcomes."""
    n, p = spec.trials, spec.success_prob
    if y < 0 or y > n:
        raise ValueError(f"count must satisfy 0 <= y <= {n}, got {y}")
    choose = ln_gamma(n + 1.0) - ln_gamma(y + 1.0) - ln_gamma(n - y + 1.0)
    return choose + xlogy(y, p) + xlogy(n - y, 1.0 - p)


def binomial_pmf(spec: BinomialSpec, y: int) -> float:
    """P(y successes in n trials) = C(n, y) p^y (1-p)^(n-y)."""
    return math.exp(binomial_log_pmf(spec, y))


def binomial_moments(spec: BinomialSpec) -> tuple[float, float]:
    """(mean, variance) = (n p, n p (1 - p))."""
    n, p = spec.trials, spec.success_prob
    return n * p, n * p * (1.0 - p)


def multinomial_log_pmf(spec: MultinomialSpec, counts) -> float:
    """Log of the multinomial mass at the given per-category counts."""
    n, probs = spec.trials, spec.category_probs
    counts = [int(c) for c in counts]
    if len(counts) != len(probs):
        raise ValueError(
            f"expected {len(probs)} counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts}")
    if sum(counts) != n:
        raise ValueError(f"counts must sum to trials={n}, got {sum(counts)}")
    out = ln_gamma(n + 1.0)
    for c, p in zip(counts, probs):
        out -= ln_gamma(c + 1.0)
        out += xlogy(c, p)
    return out


def multinomial_pmf(spec: MultinomialSpec, counts) -> float:
    """P(counts) = n! / prod(y_j!) * prod(p_j^y_j)."""
    return math.exp(multinomial_log_pmf(spec, counts))


def poisson_log_pmf(spec: PoissonSpec, y: int) -> float:
    """Log of P(y events) = -rate + y ln(rate) - ln(y!)."""
    if y < 0:
        raise ValueError(f"count must be >= 0, got {y}")
    return -spec.rate + xlogy(y, spec.rate) - ln_gamma(y + 1.0)


def poisson_pmf(spec: PoissonSpec, y: int) -> float:
    """P(y events) = exp(-rate) rate^y / y!."""
    return math.exp(poisson_log_pmf(spec, y))
