"""Scalar special-function kernels.

Log-gamma, the regularized incomplete gamma function, the chi-square
survival function, and the standard normal CDF and quantile, built on
the standard library alone so the rest of the package carries no
statistics runtime. Log-gamma is ``math.lgamma``, the normal CDF is
``math.erfc`` and the normal quantile is ``statistics.NormalDist``; the
incomplete gamma function, which the standard library lacks, is a power
series / continued fraction, or Temme's uniform asymptotic expansion
when the shape is large and x lies near it. Below x = a + 1 a shape
under 1 has its upper tail formed directly, not as 1 - P, so that it
keeps its relative accuracy as a tends to 0.

The chi-square tail at an integer df below 200, which every table test
up to about 15x15 asks for, is a finite sum of positive terms
(Abramowitz & Stegun 26.4.4-26.4.5) with no convergence test; df 1 is
``erfc(sqrt(x/2))`` and df 2 is ``exp(-x/2)``, its shortest cases. Other
df go through the incomplete gamma function.

All functions are pure, raise ``ValueError`` outside their domain (NaN
and infinite arguments included, except x = +inf, where the tails are
0 and 1), and never return NaN. An argument may be a float or an int.
An int is taken as the float nearest it; one beyond the float range,
such as 10**400, as the infinity of its sign. A function returns there
the value it defines at that infinity, which is also the correctly
rounded value at the int (``ln_gamma`` gives inf, ``chi2_sf(1, 10**400)``
gives 0), and raises ``ValueError`` where it defines none (a df or a
shape of 10**400, ``normal_cdf(10**400)``).
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "ln_gamma",
    "xlogy",
    "reg_gamma_lower",
    "reg_gamma_upper",
    "chi2_sf",
    "normal_cdf",
    "normal_sf",
    "normal_quantile",
]

_MAX_ITER = 1000

# Temme's expansion is used for shape a >= _TEMME_MIN_A and x/a within
# 1 +- _TEMME_MAX_MU, that is |eta| <= 0.275. There the power series and
# the continued fraction need O(sqrt(a)) terms; outside it they converge
# in fewer than 150.
_TEMME_MIN_A = 100.0
_TEMME_MAX_MU = 0.25

# chi2_sf sums A&S 26.4.4-26.4.5 for integer df below this, that is for
# every shape df/2 below Temme's range; a sum has at most df/2 terms.
_FINITE_SUM_MAX_DF = 2.0 * _TEMME_MIN_A
# exp() of anything below this is 0.0.
_LOG_UNDERFLOW = -746.0
# Above this shape, outside Temme's range, the smaller tail is below
# exp(-a (1/4 - ln(5/4))) = exp(-0.0269 a), which is 0.0 in floats from
# a = 3e4 on; the series and the fraction give that exact 0 and 1 up to
# here, and beyond it lgamma(a) and a ln(x) overflow.
_HUGE_SHAPE = 1e300
# The continued fraction stops once a factor lies within this bound of
# 1, a few ulps. A bound of 1e-16 admits 1.0 alone, since 1 - 2**-53, the
# float below it, is 1.11e-16 away; factors that settle there never stop.
_CF_TOL = 2.0 * sys.float_info.epsilon
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# lnGamma(1 + a) / a = -gamma + sum_{k>=2} (-1)^k zeta(k) a^(k-1) / k,
# from the Taylor series of lnGamma about 1, used below a = 1/16, where
# the terms past zeta(15) are below 1e-19 of the sum; above it,
# lgamma(1 + a) / a. The zeta values are mpmath's, rounded to floats.
_LN_GAMMA_1P_SERIES_MAX_A = 0.0625
_LN_GAMMA_1P_COEFS = (-0.5772156649015329,) + tuple(
    (-1.0) ** k * zeta / k for k, zeta in enumerate((
        1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
        1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
        1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
        1.0000612481350588, 1.000030588236307), 2))

# Taylor coefficients in eta of Temme's C_k(eta), k = 0..6 (Temme 1979;
# DiDonato & Morris 1986, ACM TOMS 12:377), from the recursion
# C_0 = 1/(lambda - 1) - 1/eta, C_k = C_{k-1}'(eta)/eta + (-1)^k g_k/(lambda - 1)
# in exact rational arithmetic, where g_k = 1/12, 1/288, -139/51840, ...
# (the Stirling coefficients of 1/Gamma*(a)) cancels the pole at eta = 0.
# Each row is truncated where its terms fall below 1e-17 at |eta| = 0.3
# and a = 100.
_TEMME_C = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
     0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
     3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
     8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045),
)


def _float(x: float) -> float:
    """An argument as a float, an int beyond the float range as the
    infinity of its sign (see the module docstring)."""
    try:
        return x * 1.0
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function, for x > 0; inf from about
    x = 2.55e305 on, where the value exceeds the float range."""
    x = _float(x)
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def xlogy(y: float, p: float) -> float:
    """y * ln(p) for p >= 0, with the limit convention 0 * ln(0) == 0;
    undefined for a NaN y and for an infinite y at p = 1."""
    y, p = _float(y), _float(p)
    if not p >= 0.0:  # NaN too
        raise ValueError(f"xlogy requires p >= 0, got {p}")
    if y == 0.0:
        return 0.0
    out = y * (math.log(p) if p else -math.inf)
    if out != out:
        raise ValueError(f"xlogy({y}, {p}) is undefined")
    return out


def _gamma_series(a: float, x: float) -> float:
    # Lower regularized gamma P(a, x) by power series; good for x < a + 1.
    term = 1.0 / a
    if term == math.inf:
        # a < 2**-1024: P = x^a e^-x / Gamma(a + 1) sum_n x^n / ((a+1)...(a+n))
        # is 1 - O(a ln x) at every x > 0, which rounds to 1.
        return 1.0
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise RuntimeError(f"incomplete gamma series failed to converge (a={a}, x={x})")


def _ln_gamma_1p_over_a(a: float) -> float:
    """lnGamma(1 + a) / a for 0 < a < 1. A series below a = 1/16: there
    1.0 + a drops a's low bits, and every bit below a = 1.1e-16, so that
    lgamma(1.0 + a) would be 0. Above it the rounding of 1 + a moves
    lgamma by at most 6.4e-17."""
    if a >= _LN_GAMMA_1P_SERIES_MAX_A:
        return math.lgamma(1.0 + a) / a
    total = 0.0
    for c in reversed(_LN_GAMMA_1P_COEFS):
        total = total * a + c
    return total


def _gamma_q_small_shape(a: float, x: float) -> float:
    """Upper regularized gamma Q(a, x) for a < 1 and 0 < x < a + 1, formed
    directly rather than as 1 - P, which keeps no relative accuracy once
    Q is small (Q ~ a E1(x) as a -> 0):
    Q = -expm1(t) - e^t a sum_{n>=1} (-x)^n / ((a + n) n!),
    t = a ln x - lnGamma(1 + a) = ln(x^a / Gamma(1 + a))
    (DiDonato & Morris 1986, ACM TOMS 12:377; Gil, Segura & Temme 2012).
    It is taken as a times Q / a, so that a subnormal shape is rounded
    once, in the last product. Against mpmath the relative error is below
    1e-12 wherever Q is a normal float, and within one unit of the least
    subnormal below that."""
    u = math.log(x) - _ln_gamma_1p_over_a(a)  # t / a
    t = a * u
    # -expm1(t) / a; below |t| = 2**-30 as -u (1 + t/2), within t^2/6 of
    # it, since t itself can be subnormal.
    head = -u * (1.0 + 0.5 * t) if abs(t) < 2.0**-30 else -math.expm1(t) / a
    term, total = 1.0, 0.0
    for n in range(1, _MAX_ITER):  # alternating; as x < 2, the terms fall from n = 1
        term *= -x / n
        step = term / (a + n)
        total += step
        if abs(step) <= abs(total) * 1e-17:
            break
    return a * (head - math.exp(t) * total)


def _gamma_cf(a: float, x: float) -> float:
    # Upper regularized gamma Q(a, x) by continued fraction (modified
    # Lentz); good for x >= a + 1. There Q is below its prefactor
    # x^a e^-x / Gamma(a): Gamma(a, x) <= x^(a-1) e^-x x / (x - a + 1) for
    # a >= 1, and <= x^(a-1) e^-x for a < 1. A prefactor whose exp() is
    # 0.0 therefore gives Q = 0.0 exactly, as the fraction times that
    # exp() would, without iterating.
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if log_prefactor < _LOG_UNDERFLOW:
        return 0.0
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _CF_TOL:
            return h * math.exp(log_prefactor)
    raise RuntimeError(f"incomplete gamma fraction failed to converge (a={a}, x={x})")


def _gamma_temme(a: float, x: float) -> tuple[float, float] | None:
    """(P(a, x), Q(a, x)) by Temme's uniform asymptotic expansion
    Q = erfc(eta sqrt(a/2))/2 + exp(-a eta^2/2)/sqrt(2 pi a) sum_k C_k(eta)/a^k,
    with eta^2/2 = lambda - 1 - ln(lambda) and lambda = x/a; None when
    (a, x) lies outside the range the coefficients cover."""
    mu = (x - a) / a
    if a < _TEMME_MIN_A or abs(mu) > _TEMME_MAX_MU:
        return None
    half_eta_sq = max(0.0, mu - math.log1p(mu))
    eta = math.copysign(math.sqrt(2.0 * half_eta_sq), mu)
    total = 0.0
    for coefs in reversed(_TEMME_C):
        ck = 0.0
        for c in reversed(coefs):
            ck = ck * eta + c
        total = total / a + ck
    r = math.exp(-a * half_eta_sq) / math.sqrt(2.0 * math.pi * a) * total
    y = eta * math.sqrt(0.5 * a)
    return 0.5 * math.erfc(-y) - r, 0.5 * math.erfc(y) + r


def _check_gamma_args(a: float, x: float) -> None:
    if not 0.0 < a < math.inf:  # NaN too
        raise ValueError(f"incomplete gamma requires finite a > 0, got a={a}")
    if not x >= 0.0:  # NaN too
        raise ValueError(f"incomplete gamma requires x >= 0, got x={x}")


def _clip01(v: float) -> float:
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def _reg_gamma(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)), not yet clipped to [0, 1]: Temme's expansion
    near a large shape, else the power series below x = a + 1 and the
    continued fraction above it, each tail the other's complement; below
    x = a + 1 a shape under 1 has its Q formed directly."""
    a, x = _float(a), _float(x)
    _check_gamma_args(a, x)
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    temme = _gamma_temme(a, x)
    if temme is not None:
        return temme
    if a > _HUGE_SHAPE:
        return (0.0, 1.0) if x < a else (1.0, 0.0)
    if x < a + 1.0:
        series = _gamma_series(a, x)
        return series, _gamma_q_small_shape(a, x) if a < 1.0 else 1.0 - series
    cf = _gamma_cf(a, x)
    return 1.0 - cf, cf


def reg_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), in [0, 1]."""
    return _clip01(_reg_gamma(a, x)[0])


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), in [0, 1]."""
    return _clip01(_reg_gamma(a, x)[1])


def _chi2_sf_1df(x: float) -> float:
    # P(chi-square(1) >= x) = P(|Z| >= sqrt(x)) = erfc(sqrt(x/2)).
    return math.erfc(math.sqrt(0.5 * x))


def chi2_sf(df: float, x: float) -> float:
    """Right-tail probability of the chi-square distribution with
    ``df`` degrees of freedom: P(X >= x) = Q(df/2, x/2).

    For integer df below 200 this is a finite sum of at most df/2
    positive terms (Abramowitz & Stegun 26.4.4-26.4.5): with y = x/2,
    k = df // 2 and h = 1/2 for odd df, 0 for even df,
    Q = [erfc(sqrt(y)) if df is odd] + e^-y sum_{i<k} y^(i+h) / Gamma(i+h+1).
    Nothing cancels and nothing needs a convergence test; df 1 (k = 0)
    is ``erfc(sqrt(x/2))`` and df 2 is ``exp(-x/2)``. Any other df uses
    :func:`reg_gamma_upper`: a power series or continued fraction, or
    Temme's expansion for df >= 200 with x within 25% of df. Q is 0 at
    x = +inf.
    """
    try:  # _float inline: a table test calls this once per statistic
        df, x = df * 1.0, x * 1.0
    except OverflowError:
        df, x = _float(df), _float(x)
    if not 0.0 < df < math.inf:  # NaN too
        raise ValueError(f"chi2_sf requires finite df > 0, got {df}")
    if not x >= 0.0:  # NaN too
        raise ValueError(f"chi2_sf requires x >= 0, got {x}")
    # df < 200 first: int(df) is defined only for finite df.
    if not (df < _FINITE_SUM_MAX_DF and df == int(df)):
        return reg_gamma_upper(0.5 * df, 0.5 * x)
    k, odd = divmod(int(df), 2)
    head = _chi2_sf_1df(x) if odd else 0.0
    if k == 0:
        return head
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    h = 0.5 * odd
    last = k - 1 + h  # y's power in the last term
    if y <= last or k == 1:
        # From e^-y t_0 forward. Unless k = 1, y <= last < 100 here, so
        # e^-y is a normal float. The terms rise until index y and then
        # fall, so the stop can only trigger once they fall.
        term = total = math.exp(-y) * (math.sqrt(y) * _TWO_OVER_SQRT_PI if odd else 1.0)
        for i in range(1, k):
            term *= y / (i + h)
            total += term
            if term <= total * 1e-17:
                break
    else:
        # The last term is (about) the largest: sum backward from it,
        # where each term is (i + h) / y times the next, in units of that
        # term. Its log scales the sum once at the end, so e^-y cannot
        # underflow alone and a subnormal tail is rounded only once.
        log_top = last * math.log(y) - y - math.lgamma(last + 1.0)
        if log_top < _LOG_UNDERFLOW:
            return head
        term = total = 1.0
        for i in range(k - 1, 0, -1):
            term *= (i + h) / y
            total += term
            if term <= total * 1e-17:
                break
        total *= math.exp(log_top)
    return head + total


def normal_cdf(z: float) -> float:
    """Standard normal CDF.

    Evaluated as erfc(|z|/sqrt(2))/2 through the same kernel as
    ``chi2_sf(1, .)``, which makes ``chi2_sf(1, z*z) == 2 * normal_cdf(-abs(z))``
    hold by construction.
    """
    z = _float(z)
    if math.isnan(z) or math.isinf(z):
        raise ValueError(f"normal_cdf requires finite z, got {z}")
    tail = 0.5 * _chi2_sf_1df(z * z)
    return tail if z < 0.0 else 1.0 - tail


def normal_sf(z: float) -> float:
    """Standard normal upper-tail probability P(Z >= z) = 1 - CDF(z)."""
    return normal_cdf(-z)


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF, for 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p}")
    # Imported on first use: ``statistics`` pulls in ``fractions`` and
    # ``decimal``, which ``import cattab`` otherwise does without.
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)
