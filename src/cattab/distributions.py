"""Binomial, multinomial, and Poisson sampling distributions.

Probability masses are evaluated in log space, so large counts cannot
overflow; each PMF also has a ``*_log_pmf`` twin. The log-pmfs use
Loader's saddle-point form (C. Loader, 2000, "Fast and Accurate
Computation of Binomial Probabilities"; the method behind R's dbinom and
dpois): ln y! is split into Stirling's formula and its small error
``_stirlerr(y)``, and the y ln(y / mu) terms are deviances ``_bd0(y, mu)``
summed without cancellation near the mean. So no two large log-factorials
cancel, and a log-pmf keeps its relative precision at counts of 1e18.
Boundary success probabilities 0 and 1 are exact under the conventions
0**0 == 1 and 0*ln(0) == 0.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass

import numpy as np

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

_LN_2PI = 1.8378770664093456
# _stirlerr(n) = ln(n!) - ln(sqrt(2 pi n) (n/e)^n) at n = 0..15, from a
# 50-digit mpmath evaluation (0 at n = 0, where it is not used).
_STIRLERR_SMALL = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# Stirling series coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188.
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _as_integer(value, what: str) -> int:
    # A count or number of trials: an int (numpy's too) or an integral
    # float. The log-pmfs below are defined at integers only.
    if not (isinstance(value, numbers.Integral)
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


_INT64_MAX = 2**63 - 1
_UNIT_SUM_TOL = 1e-12  # how far the sum of a probability vector may be from 1


def _count(value, what: str) -> int:
    """The count rule: an integer in 0.._INT64_MAX. Only an int or a
    float is compared with the bounds, which NaN and the infinities fail;
    anything else (a string, None, a complex number) is refused by
    ``_as_integer``, not compared."""
    if isinstance(value, (numbers.Integral, float)) and not 0 <= value <= _INT64_MAX:
        raise ValueError(f"{what} must be between 0 and {_INT64_MAX}, got {value}")
    return _as_integer(value, what)


def _real(value, what: str):
    """The type rule for a real parameter, checked before its range: an
    int, a float or a Fraction as given, and any other real number (a
    numpy float32, a Decimal) as a float, which the range check compares
    without numpy's overflowing cast of the bound or a Decimal NaN's
    ``InvalidOperation``. What is no real number (a string, None, a
    complex number) would raise ``TypeError`` there, and is refused."""
    if not isinstance(value, numbers.Number) or isinstance(value, (complex, np.complexfloating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return value if isinstance(value, (numbers.Rational, float)) else float(value)


def _ordered(values, what: str) -> tuple:
    """The rule for ordered arguments (scores, labels, explicit orders,
    row totals, multinomial counts and odds-ratio pairs): ``values`` read
    once into a tuple, in its own order. A set or a mapping is refused: a
    set iterates in hash order, which ``PYTHONHASHSEED`` changes for
    strings, and a mapping gives its keys."""
    if type(values) in (tuple, list):  # the common case, without the ABC checks below
        return tuple(values)
    if not isinstance(values, (Set, Mapping)):
        try:
            return tuple(values)
        except TypeError:  # None, an int
            pass
    raise ValueError(f"{what} must be an ordered sequence, got {values!r}")


def _float_array(values, what: str) -> np.ndarray:
    """The array rule: a read-only float64 copy of ``values`` in C order,
    whatever the caller's layout. A sum runs in memory order, so one
    layout gives one result; the copy leaves the caller's array writable
    and unable to change what is stored."""
    message = f"{what} must be an array of real numbers in the float range"
    if getattr(getattr(values, "dtype", None), "kind", "") == "c":  # a cast drops imaginary parts
        raise ValueError(message)
    try:
        arr = np.array(values, dtype=float, order="C")
    except (OverflowError, TypeError, ValueError):  # 10**400, complex, a string, a ragged list
        raise ValueError(message) from None
    arr.setflags(write=False)
    return arr


def _probabilities(values, what: str, axis: int | None = None) -> np.ndarray:
    """The probability rule, on the array rule's copy: finite, in [0, 1],
    summing to 1 along ``axis``."""
    probs = _float_array(values, what)
    outside = ~((probs >= 0.0) & (probs <= 1.0))  # NaN too; checked before a sum overflows
    if outside.any():
        raise ValueError(f"{what} must be finite and in [0, 1], got {probs[outside][0].item()!r}")
    sums = probs.sum(axis=axis)
    if np.any(np.abs(sums - 1.0) > _UNIT_SUM_TOL):
        raise ValueError(f"{what} must sum to 1, got {sums}")
    return probs


@dataclass(frozen=True)
class BinomialSpec:
    """Fixed number of identical two-outcome trials.

    trials: total number of trials (n); success_prob: per-trial
    probability of the targeted outcome.
    """

    trials: int
    success_prob: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _count(self.trials, "trials"))
        prob = _real(self.success_prob, "success_prob")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"success_prob must be in [0, 1], got {prob}")
        object.__setattr__(self, "success_prob", float(prob))


@dataclass(frozen=True)
class MultinomialSpec:
    """Fixed number of identical trials with J >= 2 outcome categories."""

    trials: int
    category_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _count(self.trials, "trials"))
        probs = _probabilities(self.category_probs, "category_probs")
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("need a vector of at least two category probabilities")
        object.__setattr__(self, "category_probs", tuple(probs.tolist()))


@dataclass(frozen=True)
class PoissonSpec:
    """Counts of events occurring randomly over time or space; ``rate``
    is the single parameter that is both the mean and the variance."""

    rate: float

    def __post_init__(self) -> None:
        rate = _real(self.rate, "rate")
        if not 0.0 < rate <= sys.float_info.max:  # 10**400 too
            raise ValueError(f"rate must be finite and > 0, got {rate}")
        object.__setattr__(self, "rate", float(rate))


def _stirlerr(n: int) -> float:
    """ln(n!) - ln(sqrt(2 pi n) (n/e)^n) for an integer count n >= 0:
    exact values up to 15, and above them the five-term Stirling series
    (Loader 2000). Its truncation error is below the next term,
    691/(360360 n^11), so its relative error is below 3e-14 at n = 16..35
    and 1e-15 above."""
    if n <= 15:
        return _STIRLERR_SMALL[int(n)]
    n = float(n)
    nn = n * n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """The deviance term x ln(x/m) + m - x >= 0 for x >= 0, m > 0
    (Loader 2000). Near x = m, where the three terms nearly cancel, it
    is the series 2x sum_j v^(2j+1)/(2j+1) - (x - m) v, with
    v = (x - m)/(x + m) and |v| < 0.1."""
    if x == 0.0:
        return m
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * x * v
        v *= v
        for j in range(3, 1000, 2):  # v^2 < 0.01: about a dozen terms
            ej *= v
            s_next = s + ej / j
            if s_next == s:
                break
            s = s_next
        return s
    ratio = x / m
    if not 0.0 < ratio < math.inf:  # the quotient over- or underflows
        return x * (math.log(x) - math.log(m)) + m - x
    return x * math.log(ratio) + m - x


def binomial_log_pmf(spec: BinomialSpec, y: int) -> float:
    """Log of P(y successes in n trials); -inf for impossible outcomes."""
    n, p = spec.trials, spec.success_prob
    y = _count(y, "count")
    if y > n:
        raise ValueError(f"count must satisfy 0 <= y <= {n}, got {y}")
    if p == 0.0 or p == 1.0:  # all the mass at y = 0 or at y = n
        return 0.0 if y == (n if p else 0) else -math.inf
    if y == 0:
        return n * math.log1p(-p)
    if y == n:
        return n * math.log(p)
    lc = (_stirlerr(n) - _stirlerr(y) - _stirlerr(n - y)
          - _bd0(y, n * p) - _bd0(n - y, n * (1.0 - p)))
    # ln(2 pi y (n - y) / n), with ln((n - y) / n) from the smaller of
    # y / n and (n - y) / n, each rounded once.
    tail = math.log1p(-y / n) if 2 * y <= n else math.log((n - y) / n)
    return lc - 0.5 * (_LN_2PI + math.log(y) + tail)


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
    counts = [_count(c, "each count") for c in _ordered(counts, "counts")]
    if len(counts) != len(probs):
        raise ValueError(
            f"expected {len(probs)} counts, got {len(counts)}")
    if sum(counts) != n:
        raise ValueError(f"counts must sum to trials={n}, got {sum(counts)}")
    if n == 0:
        return 0.0
    if any(c > 0 and p == 0.0 for c, p in zip(counts, probs)):
        return -math.inf
    # ln n! - sum ln y_j! + sum y_j ln p_j, with each ln m! as
    # _stirlerr(m) + m ln m - m + ln(2 pi m)/2 and each y ln(y / (n p))
    # as _bd0(y, n p) - n p + y: the y_j sum to n, and the n p_j sum to
    # n (1 + (sum p_j - 1)), which the last term restores exactly.
    out = _stirlerr(n) + 0.5 * (_LN_2PI + math.log(n)) + n * (math.fsum(probs) - 1.0)
    for c, p in zip(counts, probs):
        out -= _bd0(c, n * p)
        if c > 0:
            out -= _stirlerr(c) + 0.5 * (_LN_2PI + math.log(c))
    return out


def multinomial_pmf(spec: MultinomialSpec, counts) -> float:
    """P(counts) = n! / prod(y_j!) * prod(p_j^y_j)."""
    return math.exp(multinomial_log_pmf(spec, counts))


def poisson_log_pmf(spec: PoissonSpec, y: int) -> float:
    """Log of P(y events) = -rate + y ln(rate) - ln(y!), as
    -_stirlerr(y) - _bd0(y, rate) - ln(2 pi y) / 2."""
    y = _count(y, "count")
    if y == 0:
        return -spec.rate
    return -_stirlerr(y) - _bd0(y, spec.rate) - 0.5 * (_LN_2PI + math.log(y))


def poisson_pmf(spec: PoissonSpec, y: int) -> float:
    """P(y events) = exp(-rate) rate^y / y!."""
    return math.exp(poisson_log_pmf(spec, y))
