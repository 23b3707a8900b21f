import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattab.special import (
    _gamma_cf,
    _gamma_series,
    _gamma_temme,
    chi2_sf,
    ln_gamma,
    normal_cdf,
    normal_quantile,
    normal_sf,
    reg_gamma_lower,
    reg_gamma_upper,
    xlogy,
)

# Reference values computed once with mpmath at 40 significant digits.
LN_GAMMA_REF = {
    0.1: 2.2527126517342059599,
    0.25: 1.2880225246980774574,
    0.5: 0.57236494292470008707,
    1.5: -0.12078223763524522235,
    3.7: 1.4280723266653879219,
    20.25: 40.084110597917348984,
    120.5: 455.41760044623451043,
    1000.0: 5905.2204232091812118,
    1000000.0: 12815504.56914761166,
}

REG_GAMMA_UPPER_REF = {
    (0.5, 0.5): 0.31731050786291410283,
    (0.5, 10.034): 7.4736770565823852364e-6,
    (0.5, 18.0): 1.9731752900753962814e-9,
    (1.0, 2.3): 0.10025884372280373373,
    (2.5, 0.7): 0.92431327280166693728,
    (3.0, 0.05): 0.99997993250637560206,
    (8.0, 8.0): 0.45296080948699448545,
    (8.0, 20.0): 0.00077859008250736303843,
    (50.0, 40.0): 0.92966493334060504556,
    (50.0, 65.0): 0.02351239780980867575,
}

# Q(a, x) at large shape, where Temme's expansion is used: a 40-digit
# E1(x), mpmath at 30 digits.
E1_REF = {
    5e-324: 743.8628562564797, 1e-310: 713.2241631632527, 0.05: 2.467898488509974,
    0.3: 0.9056766516758468, 0.5: 0.5597735947761608, 0.999: 0.21975218202294455,
}

# mpmath quadrature of t^(a-1) e^(-t) / Gamma(a) over [x, x + 80 sqrt(a)].
REG_GAMMA_UPPER_LARGE_REF = {
    (150.0, 140.0): 0.79045637608139293365,
    (1000.0, 1080.0): 0.0066466046411159278047,
    (19800.5, 19800.0): 0.50047252927329967689,
    (5e4, 4.9e4): 0.99999661524577192051,
    (1e5, 1e5): 0.49957947788963482331,
    (1e6, 1.003e6): 0.0013617406462175914794,
    (1e7, 0.9995e7): 0.94309492926100659596,
}

# chi2_sf at integer df below 200, where it is a finite sum: the forward
# sum (x/2 at most df/2 - 1), the backward sum from the last term, and
# tails down to 1e-161; mpmath.gammainc at 40 digits.
CHI2_SF_INTEGER_DF_REF = {
    (3, 0.5): 9.1889141165467585936e-1,
    (3, 7.8): 5.0331097859853354623e-2,
    (4, 1e-06): 9.9999999999987500004e-1,
    (4, 9.5): 4.9747247417943646518e-2,
    (5, 60.0): 1.2154569777183038948e-11,
    (16, 15.0): 5.2463852648760545045e-1,
    (16, 300.0): 2.5506138008293212946e-54,
    (17, 2.0): 9.9999655770370058732e-1,
    (40, 38.0): 5.6060738939150841491e-1,
    (81, 100.0): 7.475363358652817342e-2,
    (99, 40.0): 9.9999998013059041922e-1,
    (99, 120.0): 7.4243855805966789866e-2,
    (150, 150.0): 4.8464360096035700605e-1,
    (184, 213.5): 6.7215880397523823248e-2,
    (199, 198.0): 5.0669020882049527758e-1,
    (199, 1300.0): 7.588265134844104202e-161,
}

NORMAL_CDF_REF = {
    -6.0: 9.865876450376981407e-10,
    -3.0: 0.0013498980316300945267,
    -1.265: 0.10293566393460179852,
    -1.0: 0.15865525393145705141,
    0.5: 0.69146246127401310364,
    1.2649110640673518: 0.89704839463396585761,
    1.959964: 0.9750000009035575957,
    2.7: 0.9965330261969593315,
    4.0: 0.99996832875816688008,
}

NORMAL_QUANTILE_REF = {
    1e-10: -6.3613409024040562047,
    0.025: -1.9599639845400542355,
    0.05: -1.6448536269514727149,
    0.8: 0.84162123357291420518,
    0.95: 1.6448536269514727149,
    0.975: 1.9599639845400542355,
    0.999: 3.0902323061678135415,
}


class TestLnGamma:
    def test_gamma_of_one_is_zero(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_integer_closed_form(self):
        # ln Gamma(1/2) = ln sqrt(pi)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_log_factorial(self):
        # Gamma(11) = 10! = 3628800
        assert ln_gamma(11.0) == pytest.approx(math.log(3628800), abs=1e-10)

    @pytest.mark.parametrize("x, expected", sorted(LN_GAMMA_REF.items()))
    def test_reference_values(self, x, expected):
        got = ln_gamma(x)
        if abs(expected) < 1e3:
            assert got == pytest.approx(expected, abs=1e-10)
        else:
            assert got == pytest.approx(expected, rel=1e-13)

    def test_exact_factorials_up_to_20(self):
        fact = 1
        for k in range(21):
            if k > 0:
                fact *= k
            assert math.exp(ln_gamma(k + 1.0)) == pytest.approx(fact, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, -(10**400)])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            ln_gamma(x)

    @pytest.mark.parametrize("x", [2.6e305, 1e308, sys.float_info.max, math.inf, 10**400])
    def test_inf_beyond_the_float_range(self, x):
        # math.lgamma raised OverflowError at 1e308 and at 10**400.
        assert ln_gamma(x) == math.inf

    def test_finite_below_the_overflow(self):
        assert ln_gamma(2.5e305) == pytest.approx(2.5e305 * (math.log(2.5e305) - 1), rel=1e-3)


class TestRegularizedGamma:
    def test_upper_at_zero_is_one(self):
        assert reg_gamma_upper(2.0, 0.0) == 1.0
        assert reg_gamma_lower(2.0, 0.0) == 0.0

    @pytest.mark.parametrize("args, expected", sorted(REG_GAMMA_UPPER_REF.items()))
    def test_reference_values(self, args, expected):
        assert reg_gamma_upper(*args) == pytest.approx(expected, abs=1e-10)
        assert reg_gamma_lower(*args) == pytest.approx(1.0 - expected, abs=1e-10)

    def test_complementarity(self):
        for a in (0.5, 1.0, 3.3, 12.0):
            for x in (0.01, 0.5, 1.0, 4.0, 15.0, 40.0):
                assert reg_gamma_lower(a, x) + reg_gamma_upper(a, x) == \
                    pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing_in_x(self):
        for a in (0.5, 1.5, 7.0):
            grid = [reg_gamma_upper(a, 0.25 * k) for k in range(80)]
            assert all(lo > hi for lo, hi in zip(grid, grid[1:]))

    @pytest.mark.parametrize("args, expected", sorted(REG_GAMMA_UPPER_LARGE_REF.items()))
    def test_large_shape_reference_values(self, args, expected):
        assert reg_gamma_upper(*args) == pytest.approx(expected, rel=1e-12)
        assert reg_gamma_lower(*args) == pytest.approx(1.0 - expected, rel=1e-12)

    @pytest.mark.parametrize("a", [100.0, 1e3, 1e4])
    @pytest.mark.parametrize("ratio", [0.75, 0.9, 0.999, 1.0, 1.01, 1.1, 1.25])
    def test_large_shape_expansion_matches_series_and_fraction(self, a, ratio):
        # Temme's expansion covers 0.75 <= x/a <= 1.25 for a >= 100. For
        # these shapes the series and the continued fraction still converge
        # there too, so the two must agree; each is checked on the smaller
        # tail, where it matters.
        x = a * ratio
        p, q = _gamma_temme(a, x)
        if x < a + 1.0:
            assert p == pytest.approx(_gamma_series(a, x), rel=1e-10)
        else:
            assert q == pytest.approx(_gamma_cf(a, x), rel=1e-10)
        assert p + q == pytest.approx(1.0, abs=1e-15)

    def test_large_shape_near_its_mean_converges(self):
        # The series and the continued fraction need O(sqrt(a)) terms here.
        for a in (2e4, 1e5, 1e6, 1e9):
            for k in (-3.0, -0.5, 0.0, 0.5, 3.0):
                x = a + k * math.sqrt(a)
                q, p = reg_gamma_upper(a, x), reg_gamma_lower(a, x)
                assert 0.0 < q < 1.0
                assert p + q == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a", [1.25, 100.5, 1740.5, 31000.5])
    def test_fraction_far_above_the_shape_returns(self, a):
        # Shapes of df 2.5, 201, 3481 and 62001. At x >~ 2e17 the fraction's
        # factors stuck at 1 - 2**-53 and it never met its stop; there the
        # prefactor x^a e^-x / Gamma(a) is exp(-x) to many digits, and Q
        # is 0.0 exactly.
        for k in range(200):
            x = 10.0 ** (15.0 + 293.0 * k / 199)
            assert reg_gamma_upper(a, x) == 0.0
            assert reg_gamma_lower(a, x) == 1.0

    @pytest.mark.parametrize("a", [0.5, 1.25, 7.0, 100.5, 1740.5])
    def test_fraction_falls_to_zero_only_below_the_normal_range(self, a):
        # From x = a + 1 in 1% steps, Q falls strictly and reaches 0.0 only
        # after the subnormals, so the early 0.0 cuts off no normal value.
        x, last = a + 1.0, 1.0
        while (q := _gamma_cf(a, x)) > 0.0:
            assert q < last
            x, last = 1.01 * x, q
        assert last < 2.2250738585072014e-308
        assert _gamma_cf(a, 2.0 * x) == 0.0

    @pytest.mark.parametrize("a", [5e-324, 1e-310, 5.5e-309])
    @pytest.mark.parametrize("x", [5e-324, 1e-310, 0.05, 0.3, 0.5, 0.999])
    def test_subnormal_shape_below_one(self, a, x):
        # 1/a, the series' first term, is inf: the series never met its
        # stop. P = 1 - O(a ln x) rounds to 1, and Q = a E1(x) + O(a^2),
        # which 1 - P rounded to 0, is a subnormal rounded once (to 0 only
        # below half the least subnormal: a = 5e-324 at x = 0.999).
        assert reg_gamma_lower(a, x) == 1.0
        assert reg_gamma_upper(a, x) == pytest.approx(a * E1_REF[x], rel=1e-12, abs=5e-324)

    @pytest.mark.parametrize("a, x, expected", [
        # mpmath, as in test_small_shape_upper_tail_against_mpmath. At the
        # parent 1 - P gave 2.22e-14, 2.78e-15 (chi2_sf(1e-20, 1)) and a
        # relative error of 1.3e-13.
        (1e-200, 0.5, 5.597735947761608e-201),
        (5e-21, 0.5, 2.7988679738808037e-21),
        (1e-3, 0.5, 0.0005600666564707498),
        (1e-3, 1.0009, 0.00021927737297631653),
        (1e-20, 1e-3, 6.331539364136149e-20),
    ])
    def test_small_shape_upper_tail(self, a, x, expected):
        assert reg_gamma_upper(a, x) == pytest.approx(expected, rel=1e-13)
        assert chi2_sf(2.0 * a, 2.0 * x) == pytest.approx(expected, rel=1e-13)

    def test_small_shape_upper_tail_against_mpmath(self):
        # Q for a < 1 below x = a + 1, on a log grid of a from the least
        # subnormal to 1: relative error at most 1e-12 where Q is a normal
        # float, and at most one unit of the least subnormal below it.
        mpmath = pytest.importorskip("mpmath")

        def exact(a, x):  # 1 - x^a / Gamma(1 + a) 1F1(a; a + 1; -x), at 360 digits
            with mpmath.workdps(360):
                a, x = mpmath.mpf(a), mpmath.mpf(x)
                return 1 - x ** a / mpmath.gamma(a + 1) * mpmath.hyp1f1(a, a + 1, -x)

        shapes = [5e-324, 1e-323, 1e-310, 0.0625 * (1 - 1e-15), 0.0625 * (1 + 1e-15),
                  0.999999, 1.0 - 2.0**-53]
        shapes += [10.0 ** (-307 + 307 * i / 60) for i in range(60)]
        least_normal = mpmath.mpf(sys.float_info.min)
        for a in shapes:
            xs = [5e-324, 1e-300, 1e-100, 1e-20, 1e-5, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9,
                  0.99, (a + 1.0) * 0.95, (a + 1.0) * 0.999999]
            for x in xs:
                if not x < a + 1.0:
                    continue
                q, ref = reg_gamma_upper(a, x), exact(a, x)
                err = abs(mpmath.mpf(q) - ref)
                if ref >= least_normal:
                    assert err <= 1e-12 * ref, (a, x, q)
                else:
                    assert err <= 5e-324, (a, x, q)

    def test_smaller_tail_on_a_log_grid_against_mpmath(self):
        # The 27 x 29 log grid of a from 1e-5 to 1e8 and x from 1e-5 to
        # 1e9, which spans the series, the continued fraction and the
        # large-a expansion: the smaller tail's relative error is at most
        # 1.2e-12 wherever it is a normal float. The worst point found,
        # 1.17e-12, is (a, x) = (1000, 316.2).
        mpmath = pytest.importorskip("mpmath")
        least_normal = mpmath.mpf(sys.float_info.min)
        with mpmath.workdps(60):
            for a in np.logspace(-5, 8, 27).tolist():
                for x in np.logspace(-5, 9, 29).tolist():
                    p, q = reg_gamma_lower(a, x), reg_gamma_upper(a, x)
                    lower = p <= q
                    # Each tail directly: 1 - Q at 60 digits loses a tiny P.
                    try:
                        ref = (mpmath.gammainc(a, 0, x, regularized=True) if lower
                               else mpmath.gammainc(a, x, mpmath.inf, regularized=True))
                    except mpmath.libmp.NoConvergence:  # on the diagonal x = a >= 3.2e6
                        ref = (mpmath.mpf(x) ** a * mpmath.exp(-x) / mpmath.gamma(a + 1)
                               * mpmath.hyp1f1(1, a + 1, x, maxterms=10**7))
                        ref = ref if lower else 1 - ref
                    if ref >= least_normal:
                        assert abs(mpmath.mpf(p if lower else q) - ref) <= 1.2e-12 * ref, (a, x)

    def test_subnormal_shape_from_one_keeps_the_fraction(self):
        # x >= a + 1 = 1: the fraction, unchanged, gives Q = a E1(x).
        assert reg_gamma_upper(5.5e-309, 1.0) == pytest.approx(5.5e-309 * 0.21938393439552,
                                                               rel=1e-6)

    @pytest.mark.parametrize("a", [2e300, 2.6e305, 1e307, 1e308, sys.float_info.max])
    @pytest.mark.parametrize("ratio", [0.0, 1e-300, 0.5, 0.7499, 1.2501, 1.5])
    def test_huge_shape_outside_the_expansion(self, a, ratio):
        # lgamma(a) and a ln(x) overflowed, and the series' stop underflowed
        # to 0: RuntimeError. Here the smaller tail is below exp(-0.0269 a).
        x = 5e-324 if ratio == 1e-300 else a * ratio
        if x == math.inf:
            return
        below = x < a
        assert reg_gamma_lower(a, x) == (0.0 if below else 1.0)
        assert reg_gamma_upper(a, x) == (1.0 if below else 0.0)

    def test_huge_shape_at_its_mean(self):
        assert reg_gamma_lower(1e308, 1e308) == 0.5
        assert reg_gamma_upper(1e308, 1e308) == 0.5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_gamma_upper(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_upper(-2.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_upper(1.0, -0.1)


class TestChiSquareSurvival:
    def test_five_percent_critical_value(self):
        assert chi2_sf(1, 3.841458820694124) == pytest.approx(0.05, abs=1e-10)
        assert chi2_sf(4, 9.488) == pytest.approx(0.049994405577994626, abs=1e-10)
        assert chi2_sf(16, 26.3) == pytest.approx(0.04995047140203538, abs=1e-10)

    def test_matches_two_sided_normal_tail(self):
        # chi-square(1) upper tail at z^2 equals the two-sided normal tail.
        assert chi2_sf(1, 3.841459) == pytest.approx(
            2.0 * (1.0 - normal_cdf(1.959964)), abs=1e-6)
        for k in range(0, 61):
            z = 0.1 * k
            assert chi2_sf(1, z * z) == pytest.approx(
                2.0 * (1.0 - normal_cdf(abs(z))), abs=1e-9)

    def test_large_statistic_is_significant(self):
        assert chi2_sf(1, 20.068) < 0.01

    @given(st.floats(-37.0, 37.0))
    def test_one_df_is_the_two_sided_normal_tail_exactly(self, z):
        # Exact below |z| = 37.5, where 2 * normal_cdf(-|z|) is still a
        # normal float and halving it loses nothing.
        assert chi2_sf(1, z * z) == 2.0 * normal_cdf(-abs(z))

    @given(st.floats(0.0, 1e4))
    def test_closed_forms_match_the_incomplete_gamma(self, x):
        assert chi2_sf(2, x) == math.exp(-0.5 * x)
        assert chi2_sf(2, x) == pytest.approx(reg_gamma_upper(1.0, 0.5 * x),
                                              rel=1e-12, abs=1e-300)
        assert chi2_sf(1, x) == pytest.approx(reg_gamma_upper(0.5, 0.5 * x),
                                              rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("df, x", [(2e5, 2e5), (39601, 39600), (62001, 61700)])
    def test_large_df_near_the_mean(self, df, x):
        # Null tables of about 200x200 and larger put X^2 here.
        p = chi2_sf(df, x)
        assert 0.1 < p < 0.9
        assert p == pytest.approx(reg_gamma_upper(0.5 * df, 0.5 * x), rel=0.0)

    @pytest.mark.parametrize("args, expected", sorted(CHI2_SF_INTEGER_DF_REF.items()))
    def test_integer_df_reference_values(self, args, expected):
        assert chi2_sf(*args) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(1, 199), st.floats(0.0, 1e4))
    @settings(max_examples=500, deadline=None)
    def test_integer_df_matches_the_incomplete_gamma(self, df, x):
        # Below 1e-300 both lose relative precision to subnormal rounding.
        assert chi2_sf(df, x) == pytest.approx(reg_gamma_upper(0.5 * df, 0.5 * x),
                                               rel=1e-12, abs=1e-300)
        assert chi2_sf(float(df), x) == chi2_sf(df, x)

    @given(st.sampled_from([0.5, 2.5, 17.25, 199.5, 200, 201, 300.0, 62001]),
           st.floats(0.0, 1e5))
    @settings(max_examples=200, deadline=None)
    def test_other_df_use_the_incomplete_gamma(self, df, x):
        assert chi2_sf(df, x) == reg_gamma_upper(0.5 * df, 0.5 * x)

    @pytest.mark.parametrize("df", [2, 3, 16, 81, 198, 199])
    def test_integer_df_tail_underflows_to_zero(self, df):
        assert chi2_sf(df, 1e4) == 0.0
        assert chi2_sf(df, 1e300) == 0.0

    @pytest.mark.parametrize("df", [3, 16, 199])
    def test_integer_df_strictly_decreasing_in_x(self, df):
        # Over x from df/2 to 4 df, where Q lies strictly inside (0, 1).
        grid = [chi2_sf(df, 0.25 * k) for k in range(2 * df, 16 * df)]
        assert all(lo > hi for lo, hi in zip(grid, grid[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_sf(0, 1.0)
        with pytest.raises(ValueError):
            chi2_sf(1, -1.0)


# x = +inf is the end of the support: Q = 0 and P = 1 at every df and
# shape. A NaN x, or a NaN or infinite df or shape, is a ValueError.
_NON_FINITE_CASES = [
    *[(chi2_sf, (df, math.inf), 0.0)
      for df in (1, 2, 3, 4, 16, 199, 199.5, 200, 300, 1e6)],
    *[(reg_gamma_upper, (a, math.inf), 0.0) for a in (0.5, 1.0, 2.0, 150.0, 1e6)],
    *[(reg_gamma_lower, (a, math.inf), 1.0) for a in (0.5, 1.0, 2.0, 150.0, 1e6)],
    *[(chi2_sf, (df, math.nan), ValueError) for df in (1, 2, 3, 199.5, 300)],
    *[(f, (a, math.nan), ValueError)
      for f in (reg_gamma_upper, reg_gamma_lower) for a in (0.5, 2.0, 150.0)],
    *[(chi2_sf, (df, 1.0), ValueError) for df in (math.inf, -math.inf, math.nan)],
    *[(f, (a, 1.0), ValueError)
      for f in (reg_gamma_upper, reg_gamma_lower) for a in (math.inf, math.nan)],
    *[(normal_cdf, (z,), ValueError) for z in (math.inf, -math.inf, math.nan)],
    # An int beyond the float range (10**400 raised OverflowError) is the
    # infinity of its sign: the value there, or ValueError where none is
    # defined. An int inside the range whose square is not (10**200) is
    # the float nearest it.
    (chi2_sf, (1, 10**400), 0.0),
    (chi2_sf, (16, 10**400), 0.0),
    (chi2_sf, (300, 10**400), 0.0),
    (chi2_sf, (2.5, 10**400), 0.0),
    (chi2_sf, (10**400, 1.0), ValueError),
    (chi2_sf, (10**400, 10**400), ValueError),
    (chi2_sf, (1, -(10**400)), ValueError),
    (reg_gamma_upper, (2.5, 10**400), 0.0),
    (reg_gamma_lower, (2.5, 10**400), 1.0),
    (reg_gamma_upper, (10**400, 1.0), ValueError),
    (normal_cdf, (10**400,), ValueError),
    (normal_cdf, (-(10**400),), ValueError),
    (normal_sf, (10**400,), ValueError),
    (normal_cdf, (10**200,), 1.0),
    (normal_cdf, (-(10**200),), 0.0),
    (normal_sf, (10**200,), 0.0),
    (xlogy, (10**400, 0.5), -math.inf),
    (xlogy, (10**400, 2), math.inf),
    (xlogy, (3, 10**400), math.inf),
]


def _case_id(func, args):
    """The call as written, with an int of more than 20 digits as a power of 10."""
    return func.__name__ + "(" + ", ".join(
        f"{'-' * (v < 0)}10**{len(str(abs(v))) - 1}" if isinstance(v, int) and abs(v) > 10**20
        else repr(v) for v in args) + ("," * (len(args) == 1)) + ")"


@pytest.mark.parametrize("func, args, expected", _NON_FINITE_CASES,
                         ids=[_case_id(f, args) for f, args, _ in _NON_FINITE_CASES])
def test_non_finite_arguments(func, args, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            func(*args)
    else:
        assert func(*args) == expected


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("z, expected", sorted(NORMAL_CDF_REF.items()))
    def test_reference_values(self, z, expected):
        assert normal_cdf(z) == pytest.approx(expected, abs=1e-10)

    def test_quantile_defining_property(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_upper_tail_of_negative_score(self):
        # 1 - Phi(-1.265): the upper-tail companion of a z of -1.265.
        assert 1.0 - normal_cdf(-1.265) == pytest.approx(0.897, abs=1e-3)
        assert normal_sf(-1.265) == 1.0 - normal_cdf(-1.265)

    def test_symmetry(self):
        for k in range(0, 121):
            z = -6.0 + 0.1 * k
            assert abs(normal_cdf(-z) - (1.0 - normal_cdf(z))) <= 1e-12

    def test_strictly_increasing(self):
        grid = [normal_cdf(-6.0 + 0.05 * k) for k in range(241)]
        assert all(lo < hi for lo, hi in zip(grid, grid[1:]))

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    def test_requires_finite(self, z):
        with pytest.raises(ValueError):
            normal_cdf(z)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p, expected", sorted(NORMAL_QUANTILE_REF.items()))
    def test_reference_values(self, p, expected):
        assert normal_quantile(p) == pytest.approx(expected, abs=1e-9)

    def test_two_sided_critical_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.960, abs=5e-4)

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.5, 2.7])
    def test_round_trip_selected(self, x):
        assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)

    def test_round_trip_grid(self):
        for k in range(121):
            x = -6.0 + 0.1 * k
            assert abs(normal_quantile(normal_cdf(x)) - x) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestXlogy:
    def test_zero_convention(self):
        assert xlogy(0.0, 0.0) == 0.0
        assert xlogy(0.0, 0.7) == 0.0

    def test_ordinary_values(self):
        assert xlogy(3.0, 0.5) == pytest.approx(3.0 * math.log(0.5), rel=1e-15)

    def test_impossible_outcome(self):
        assert xlogy(2.0, 0.0) == -math.inf

    def test_negative_weight_of_an_impossible_outcome(self):
        assert xlogy(-2.0, 0.0) == math.inf

    @pytest.mark.parametrize("y, p", [(math.nan, 0.5), (math.nan, 0.0), (1.0, math.nan),
                                      (0.0, math.nan), (1.0, -0.5), (0.0, -1.0),
                                      (math.inf, 1.0), (-math.inf, 1.0)])
    def test_undefined_products(self, y, p):
        # Each returned NaN, or 0.0 at y = 0 whatever p.
        with pytest.raises(ValueError):
            xlogy(y, p)

    def test_infinite_weight(self):
        assert xlogy(math.inf, 0.5) == -math.inf
        assert xlogy(math.inf, 0.0) == -math.inf
        assert xlogy(math.inf, 2.0) == math.inf
