import itertools
import math
from fractions import Fraction

import pytest

from cattab.distributions import (
    BinomialSpec,
    MultinomialSpec,
    PoissonSpec,
    binomial_log_pmf,
    binomial_moments,
    binomial_pmf,
    multinomial_pmf,
    poisson_log_pmf,
    poisson_pmf,
)


def exact_binomial_pmf(n: int, p: float, y: int) -> float:
    # Rational-arithmetic oracle: exact over the binary value of p.
    pf = Fraction(p)
    return float(math.comb(n, y) * pf**y * (1 - pf) ** (n - y))


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


class TestBinomialMoments:
    def test_bernoulli(self):
        assert binomial_moments(BinomialSpec(1, 0.3)) == (0.3, pytest.approx(0.21))

    def test_degenerate(self):
        assert binomial_moments(BinomialSpec(100, 0.0)) == (0.0, 0.0)

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
