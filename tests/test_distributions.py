import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cattab.distributions import (
    BinomialSpec,
    MultinomialSpec,
    PoissonSpec,
    _stirlerr,
    binomial_log_pmf,
    binomial_moments,
    binomial_pmf,
    multinomial_log_pmf,
    multinomial_pmf,
    poisson_log_pmf,
    poisson_pmf,
)

# Log-pmfs from mpmath.loggamma at 50 digits, at the mode and 10 standard
# deviations into either tail, for n or the rate from 10 to 1e18. The
# worst error seen in cattab's values is 4e-15 relative; a log-gamma
# difference was off by 7e-10 at n = 1e6 and had no correct digit at 1e15.
BINOMIAL_LOG_PMF_REF = {
    (10, 0.5, 0): -6.9314718055994530942,
    (10, 0.5, 1): -4.6288867126054074102,
    (10, 0.5, 5): -1.4020427180880297874,
    (10, 0.5, 9): -4.6288867126054074102,
    (10, 0.5, 10): -6.9314718055994530942,
    (10, 0.3, 0): -3.5667494393873236305,
    (10, 0.3, 1): -2.1114622067804816131,
    (10, 0.3, 3): -1.321151277766888636,
    (10, 0.3, 9): -8.8898450898781109457,
    (10, 0.3, 10): -12.039728043259360296,
    (1000000, 0.5, 495000): -57.134330245828486964,
    (1000000, 0.5, 500000): -7.1335468816268644844,
    (1000000, 0.5, 505000): -57.134330245828486964,
    (1000000, 0.3, 295000): -66.756399146777882766,
    (1000000, 0.3, 300000): -7.0463702515465391,
    (1000000, 0.3, 305000): -66.387958137591582465,
    (10**12, 0.5, 499995000000): -64.04130191139258487,
    (10**12, 0.5, 500000000000): -14.041301910609251536,
    (10**12, 0.5, 500005000000): -64.04130191139258487,
    (10**16, 0.5, 4999999500000000): -68.646472096597171263,
    (10**16, 0.5, 5000000000000000): -18.64647209659709293,
    (10**16, 0.5, 5000000500000000): -68.646472096597171263,
    (10**18, 0.5, 499999995000000000): -70.949057189591139372,
    (10**18, 0.5, 500000000000000000): -20.949057189591138589,
    (10**18, 0.5, 500000005000000000): -70.949057189591139372,
}

POISSON_LOG_PMF_REF = {
    (10.0, 1): -7.697414907005954316,
    (10.0, 10): -2.078561643135058455,
    (10.0, 40): -28.217235994995568068,
    (1e6, 990000): -57.989173762008371535,
    (1e6, 1000000): -7.8266938955201431272,
    (1e6, 1010000): -57.665830759885321358,
    (1e12, 999990000000): -64.734610758644035013,
    (1e12, 1000000000000): -14.734449091169030179,
    (1e12, 1000010000000): -64.734287425310692012,
    (1e16, 9999999000000000): -69.339620893823785722,
    (1e16, 10000000000000000): -19.339619277157038222,
    (1e16, 10000001000000000): -69.339617660490452389,
    (1e18, 999999990000000000): -71.642204531817751373,
    (1e18, 1000000000000000000): -21.642204370151083898,
    (1e18, 1000000010000000000): -71.64220420848441804,
}

# Probabilities (.5, .25, .25).
MULTINOMIAL_LOG_PMF_REF = {
    (10, (6, 2, 2)): -2.5651935278937106505,
    (10**6, (500000, 250000, 250000)): -13.920520422973756314,
    (10**6, (495000, 255000, 250000)): -88.679109606456085201,
    (10**12, (500000000000, 250000000000, 250000000000)): -27.736030230938780418,
    (10**12, (499995000000, 250005000000, 250000000000)): -102.73578523456374408,
    (10**16, (5000000000000000, 2500000000000000, 2500000000000000)):
        -36.946370602914213229,
    (10**16, (4999999500000000, 2500000500000000, 2500000000000000)):
        -111.94636815291457573,
    (10**18, (500000000000000000, 250000000000000000, 250000000000000000)):
        -41.551540788902304523,
    (10**18, (499999995000000000, 250000005000000000, 250000000000000000)):
        -116.55154054390230815,
}


def lgamma_binomial_log_pmf(n: int, p: float, y: int) -> float:
    # The log-gamma form the saddle-point form replaced; accurate to
    # about 1e-13 relative while n stays small.
    choose = math.lgamma(n + 1.0) - math.lgamma(y + 1.0) - math.lgamma(n - y + 1.0)
    return choose + y * math.log(p) + (n - y) * math.log(1.0 - p)


def exact_binomial_pmf(n: int, p: float, y: int) -> float:
    # Rational-arithmetic oracle: exact over the binary value of p.
    pf = Fraction(p)
    return float(math.comb(n, y) * pf**y * (1 - pf) ** (n - y))


def test_stirlerr_against_mpmath():
    # ln(n!) - ln(sqrt(2 pi n) (n/e)^n) from mpmath at 90 digits, for every
    # n from 16 to 3000 and log-spaced n up to 1e18. At 16..35 the series'
    # truncation error reaches 2.07e-14, at n = 16; above 35 it is within
    # rounding, which the shorter truncations of Loader's C code are not
    # (1.5e-13 at n = 501).
    mpmath = pytest.importorskip("mpmath")
    grid = np.unique(np.round(np.logspace(np.log10(3001.0), 18.0, 120))).tolist()
    worst = {False: (0.0, 0), True: (0.0, 0)}  # keyed by n > 35
    with mpmath.workdps(90):
        half_ln_2pi = mpmath.log(2 * mpmath.pi) / 2
        for n in [*range(16, 3001), *map(int, grid)]:
            x = mpmath.mpf(float(n))
            ref = mpmath.loggamma(x + 1) - (x + 0.5) * mpmath.log(x) + x - half_ln_2pi
            err = float(abs(_stirlerr(n) - ref) / ref)
            worst[n > 35] = max(worst[n > 35], (err, n))
    assert worst[False][0] <= 3e-14, worst[False]
    assert worst[True][0] <= 1e-15, worst[True]


class TestBinomial:
    def test_school_lunch_example(self):
        # P(7 of 10 at p = .2) = 120 * .2^7 * .8^3
        spec = BinomialSpec(10, 0.2)
        assert binomial_pmf(spec, 7) == pytest.approx(0.000786432, abs=1e-12)

    def test_boundary_probabilities_exact(self):
        assert binomial_pmf(BinomialSpec(5, 0.0), 0) == 1.0
        assert binomial_pmf(BinomialSpec(5, 0.0), 3) == 0.0
        assert binomial_pmf(BinomialSpec(5, 1.0), 5) == 1.0
        assert binomial_pmf(BinomialSpec(5, 1.0), 2) == 0.0

    def test_normalization(self):
        spec = BinomialSpec(12, 0.37)
        total = math.fsum(binomial_pmf(spec, y) for y in range(13))
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("n, p", [(10, 0.2), (30, 0.37), (30, 0.999),
                                      (25, 0.5), (17, 0.03)])
    def test_rational_oracle(self, n, p):
        spec = BinomialSpec(n, p)
        for y in range(n + 1):
            assert binomial_pmf(spec, y) == pytest.approx(
                exact_binomial_pmf(n, p, y), rel=1e-10)

    def test_large_n_no_overflow(self):
        spec = BinomialSpec(1000, 0.5)
        value = binomial_pmf(spec, 500)
        assert 0.0 < value < 1.0
        assert math.isfinite(binomial_log_pmf(spec, 500))
        assert value == pytest.approx(exact_binomial_pmf(1000, 0.5, 500), rel=1e-10)

    def test_out_of_range_counts(self):
        spec = BinomialSpec(10, 0.4)
        with pytest.raises(ValueError):
            binomial_pmf(spec, 11)
        with pytest.raises(ValueError):
            binomial_pmf(spec, -1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BinomialSpec(-1, 0.5)
        with pytest.raises(ValueError):
            BinomialSpec(10, 1.2)

    @pytest.mark.parametrize("args, expected", sorted(BINOMIAL_LOG_PMF_REF.items()))
    def test_log_pmf_reference_values(self, args, expected):
        n, p, y = args
        assert binomial_log_pmf(BinomialSpec(n, p), y) == pytest.approx(expected, rel=1e-13)

    def test_log_pmf_edges(self):
        for n in (0, 1, 7, 10**18):
            assert binomial_log_pmf(BinomialSpec(n, 0.0), 0) == 0.0
            assert binomial_log_pmf(BinomialSpec(n, 1.0), n) == 0.0
        for n in (1, 7, 10**18):
            assert binomial_log_pmf(BinomialSpec(n, 0.0), 1) == -math.inf
            assert binomial_log_pmf(BinomialSpec(n, 1.0), n - 1) == -math.inf
            assert binomial_log_pmf(BinomialSpec(n, 0.0), n) == -math.inf
            assert binomial_log_pmf(BinomialSpec(n, 1.0), 0) == -math.inf
            for p in (1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12):
                assert binomial_log_pmf(BinomialSpec(n, p), 0) == n * math.log1p(-p)
                assert binomial_log_pmf(BinomialSpec(n, p), n) == n * math.log(p)
        assert binomial_pmf(BinomialSpec(10**18, 0.5), 10**18 // 2) == pytest.approx(
            math.exp(BINOMIAL_LOG_PMF_REF[(10**18, 0.5, 10**18 // 2)]), rel=1e-13)

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.03, 0.999, 0.123456789])
    def test_small_n_log_pmf_matches_the_log_gamma_form(self, p):
        for n in range(1, 61):
            for y in range(n + 1):
                assert binomial_log_pmf(BinomialSpec(n, p), y) == pytest.approx(
                    lgamma_binomial_log_pmf(n, p, y), rel=1e-13, abs=1e-15)


class TestBinomialMoments:
    def test_bernoulli(self):
        assert binomial_moments(BinomialSpec(1, 0.3)) == (0.3, pytest.approx(0.21))

    def test_degenerate(self):
        assert binomial_moments(BinomialSpec(100, 0.0)) == (0.0, 0.0)

    @pytest.mark.parametrize("prob", [0, 1, True, np.int64(1)])
    def test_integral_probability_stored_as_float(self, prob):
        # BinomialSpec(10, 1) kept the int, and the mean was the int 10.
        spec = BinomialSpec(10, prob)
        assert type(spec.success_prob) is float and spec.success_prob == prob
        mean, variance = binomial_moments(spec)
        assert type(mean) is float and type(variance) is float
        assert (mean, variance) == (10.0 * prob, 0.0)

    def test_against_brute_force(self):
        spec = BinomialSpec(10, 0.5)
        mean, variance = binomial_moments(spec)
        pmf = [binomial_pmf(spec, y) for y in range(11)]
        bf_mean = math.fsum(y * p for y, p in enumerate(pmf))
        bf_var = math.fsum((y - bf_mean) ** 2 * p for y, p in enumerate(pmf))
        assert mean == pytest.approx(bf_mean, abs=1e-12)
        assert variance == pytest.approx(bf_var, abs=1e-12)


class TestMultinomial:
    def test_two_category_case_collapses_to_binomial(self):
        spec2 = MultinomialSpec(10, (0.2, 0.8))
        spec1 = BinomialSpec(10, 0.2)
        for y in range(11):
            assert multinomial_pmf(spec2, (y, 10 - y)) == pytest.approx(
                binomial_pmf(spec1, y), rel=1e-14)
        assert multinomial_pmf(spec2, (7, 3)) == pytest.approx(0.000786432, abs=1e-12)

    def test_point_mass(self):
        spec = MultinomialSpec(4, (1.0, 0.0, 0.0))
        assert multinomial_pmf(spec, (4, 0, 0)) == 1.0
        assert multinomial_pmf(spec, (3, 1, 0)) == 0.0

    def test_normalization_over_compositions(self):
        spec = MultinomialSpec(5, (0.5, 0.3, 0.2))
        outcomes = [(a, b, 5 - a - b)
                    for a, b in itertools.product(range(6), repeat=2)
                    if a + b <= 5]
        assert len(outcomes) == 21
        total = math.fsum(multinomial_pmf(spec, out) for out in outcomes)
        assert abs(total - 1.0) <= 1e-12

    def test_count_validation(self):
        spec = MultinomialSpec(6, (0.5, 0.5))
        with pytest.raises(ValueError):
            multinomial_pmf(spec, (2, 3))  # sums to 5, not 6
        with pytest.raises(ValueError):
            multinomial_pmf(spec, (2, 2, 2))  # wrong length
        with pytest.raises(ValueError):
            multinomial_pmf(spec, (-1, 7))

    @pytest.mark.parametrize("counts", [{7, 3}, frozenset((7, 3)), {7: 0, 3: 0}, None],
                             ids=["set", "frozenset", "dict", "None"])
    def test_counts_that_are_no_sequence_rejected(self, counts):
        # A set was read in hash order: {7, 3} gave 0.2013, the pmf of
        # (3, 7). A dict gave its keys, and None raised TypeError.
        with pytest.raises(ValueError, match="^counts must be an ordered sequence, got "):
            multinomial_pmf(MultinomialSpec(10, (0.2, 0.8)), counts)

    @pytest.mark.parametrize("make", [lambda: [7, 3], lambda: (7, 3), lambda: np.array([7, 3]),
                                      lambda: (c for c in (7, 3))],
                             ids=["list", "tuple", "ndarray", "generator"])
    def test_ordered_counts_are_read_in_their_order(self, make):
        spec = MultinomialSpec(10, (0.2, 0.8))
        assert multinomial_pmf(spec, make()).hex() == "0x1.9c511dc3a41d8p-11"

    @pytest.mark.parametrize("args, expected", sorted(MULTINOMIAL_LOG_PMF_REF.items()))
    def test_log_pmf_reference_values(self, args, expected):
        n, counts = args
        spec = MultinomialSpec(n, (0.5, 0.25, 0.25))
        assert multinomial_log_pmf(spec, counts) == pytest.approx(expected, rel=1e-13)

    def test_log_pmf_edges(self):
        assert multinomial_log_pmf(MultinomialSpec(0, (0.5, 0.5)), (0, 0)) == 0.0
        spec = MultinomialSpec(10**18, (1.0, 0.0, 0.0))
        assert multinomial_log_pmf(spec, (10**18, 0, 0)) == 0.0
        assert multinomial_log_pmf(spec, (10**18 - 1, 1, 0)) == -math.inf

    @pytest.mark.parametrize("probs", [(0.2, 0.8), (0.5, 0.3, 0.2), (0.1, 0.2, 0.3, 0.4)])
    def test_small_n_log_pmf_matches_the_log_gamma_form(self, probs):
        for n in range(0, 25):
            for head in itertools.product(range(n + 1), repeat=len(probs) - 1):
                if sum(head) > n:
                    continue
                counts = (*head, n - sum(head))
                want = math.lgamma(n + 1.0) + math.fsum(
                    c * math.log(p) - math.lgamma(c + 1.0) for c, p in zip(counts, probs))
                assert multinomial_log_pmf(MultinomialSpec(n, probs), counts) == \
                    pytest.approx(want, rel=1e-13, abs=1e-14)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MultinomialSpec(5, (0.5, 0.4))  # does not sum to 1
        with pytest.raises(ValueError):
            MultinomialSpec(5, (1.5, -0.5))
        with pytest.raises(ValueError):
            MultinomialSpec(5, (1.0,))  # single category


class TestPoisson:
    def test_no_events(self):
        assert poisson_pmf(PoissonSpec(1.0), 0) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_reference_value(self):
        # e^-4 * 4^4 / 4! computed with 40-digit arithmetic
        assert poisson_pmf(PoissonSpec(4.0), 4) == pytest.approx(
            0.1953668148131645898, rel=1e-12)

    def test_mean_equals_variance(self):
        spec = PoissonSpec(7.0)
        pmf = [poisson_pmf(spec, y) for y in range(201)]
        mean = math.fsum(y * p for y, p in enumerate(pmf))
        var = math.fsum((y - 7.0) ** 2 * p for y, p in enumerate(pmf))
        assert mean == pytest.approx(7.0, abs=1e-9)
        assert var == pytest.approx(7.0, abs=1e-9)

    def test_normalization(self):
        for rate in (0.3, 1.0, 7.0, 25.0):
            spec = PoissonSpec(rate)
            total = math.fsum(poisson_pmf(spec, y) for y in range(300))
            assert abs(total - 1.0) <= 1e-12

    def test_log_pmf_finite_for_large_counts(self):
        assert math.isfinite(poisson_log_pmf(PoissonSpec(5.0), 300))

    @pytest.mark.parametrize("args, expected", sorted(POISSON_LOG_PMF_REF.items()))
    def test_log_pmf_reference_values(self, args, expected):
        rate, y = args
        assert poisson_log_pmf(PoissonSpec(rate), y) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("rate", [1e-300, 0.3, 7.0, 1e18])
    def test_log_pmf_at_zero_is_minus_the_rate(self, rate):
        assert poisson_log_pmf(PoissonSpec(rate), 0) == -rate

    @pytest.mark.parametrize("rate", [0.3, 4.0, 77.7, 250.0])
    def test_small_count_log_pmf_matches_the_log_gamma_form(self, rate):
        for y in range(0, 400):
            want = -rate + y * math.log(rate) - math.lgamma(y + 1.0)
            assert poisson_log_pmf(PoissonSpec(rate), y) == pytest.approx(
                want, rel=1e-13, abs=1e-15)

    def test_log_pmf_with_a_tiny_rate_is_finite(self):
        # y / rate overflows a float; the deviance falls back to ln y - ln rate.
        want = -1e-300 + 1e10 * math.log(1e-300) - math.lgamma(1e10 + 1.0)
        assert poisson_log_pmf(PoissonSpec(1e-300), 10**10) == pytest.approx(want, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonSpec(0.0)
        with pytest.raises(ValueError):
            PoissonSpec(-2.0)
        for rate in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                PoissonSpec(rate)
        with pytest.raises(ValueError):
            poisson_pmf(PoissonSpec(1.0), -1)


@pytest.mark.parametrize("call", [
    lambda: BinomialSpec(10.5, 0.5),
    lambda: MultinomialSpec(2.5, (0.5, 0.5)),
    lambda: binomial_log_pmf(BinomialSpec(10, 0.5), 2.5),
    lambda: poisson_log_pmf(PoissonSpec(3.0), 2.5),
    lambda: multinomial_log_pmf(MultinomialSpec(10, (0.5, 0.5)), (2.5, 7.5)),
], ids=["binomial-trials", "multinomial-trials", "binomial-count", "poisson-count",
        "multinomial-counts"])
def test_non_integer_counts_rejected(call):
    # The saddle-point form is defined at integer counts; the log-gamma
    # form gave a value for these, and multinomial counts were truncated.
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: BinomialSpec(math.nan, 0.5),
    lambda: BinomialSpec(math.inf, 0.5),
    lambda: poisson_log_pmf(PoissonSpec(3.0), math.nan),
    # Accepted up to the float range; the log-pmfs then raised OverflowError.
    lambda: BinomialSpec(2**63, 0.5),
    lambda: MultinomialSpec(10**400, (0.5, 0.5)),
    lambda: poisson_log_pmf(PoissonSpec(3.0), 10**400),
    lambda: binomial_log_pmf(BinomialSpec(10, 0.5), -1),
    lambda: multinomial_log_pmf(MultinomialSpec(10, (0.5, 0.5)), (-1, 11)),
], ids=["binomial-nan-trials", "binomial-inf-trials", "poisson-nan-count",
        "binomial-trials-2**63", "multinomial-trials-10**400", "poisson-count-10**400",
        "binomial-negative-count", "multinomial-negative-count"])
def test_counts_outside_int64_rejected(call):
    with pytest.raises(ValueError, match="must be between 0 and 9223372036854775807"):
        call()


@pytest.mark.parametrize("probs", [(math.nan, 0.5), (1.5, -0.5), (math.inf, 0.0),
                                   (10**400, 0.0), (0.5, 0.4)])
def test_category_probs_follow_the_probability_rule(probs):
    with pytest.raises(ValueError, match="category_probs must"):
        MultinomialSpec(3, probs)


def test_poisson_rate_beyond_the_float_range_rejected():
    # 10**400 < math.inf, so the rate was accepted and its pmf raised
    # OverflowError.
    with pytest.raises(ValueError, match="rate must be finite"):
        PoissonSpec(10**400)


def test_integral_floats_and_numpy_integers_are_counts():
    assert binomial_log_pmf(BinomialSpec(10.0, 0.2), np.int64(7)) == \
        binomial_log_pmf(BinomialSpec(10, 0.2), 7)
    assert poisson_log_pmf(PoissonSpec(3.0), 4.0) == poisson_log_pmf(PoissonSpec(3.0), 4)
    assert multinomial_log_pmf(MultinomialSpec(10, (0.5, 0.5)), np.array([3, 7])) == \
        multinomial_log_pmf(MultinomialSpec(10, (0.5, 0.5)), (3, 7))
