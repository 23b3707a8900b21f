"""Differential tests of the table statistics, the odds ratio and the
sampling-distribution log-pmfs against scipy.

scipy is a test-only oracle: these tests are skipped where it is not
installed. The tolerances are those of ``test_special_oracle.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattab.association import odds_ratio
from cattab.distributions import (
    BinomialSpec,
    MultinomialSpec,
    PoissonSpec,
    binomial_log_pmf,
    multinomial_log_pmf,
    poisson_log_pmf,
)
from cattab.inference import independence_test
from cattab.table import ContingencyTable

scipy_stats = pytest.importorskip("scipy.stats")
scipy_contingency = pytest.importorskip("scipy.stats.contingency")


def assert_close(got, want, rel):
    # Values that underflow in one implementation may be a few subnormal
    # ulps away in the other.
    assert got == pytest.approx(want, rel=rel, abs=1e-300)


def make_table(counts):
    return ContingencyTable(counts, tuple(f"r{i}" for i in range(counts.shape[0])),
                            tuple(f"c{j}" for j in range(counts.shape[1])))


def null_counts(seed, n_rows, n_cols, mean_cell, zero_share):
    """Counts drawn under independence, with about ``zero_share`` of the
    cells then set to zero and every margin kept positive."""
    rng = np.random.default_rng(seed)
    p = np.outer(rng.dirichlet(np.full(n_rows, 5.0)), rng.dirichlet(np.full(n_cols, 5.0)))
    counts = rng.poisson(mean_cell * n_rows * n_cols * p)
    counts[rng.random(counts.shape) < zero_share] = 0
    counts[np.arange(n_rows), rng.integers(n_cols, size=n_rows)] += 1
    counts[rng.integers(n_rows, size=n_cols), np.arange(n_cols)] += 1
    return counts


SHAPES = [(2, 2, 20.0), (2, 5, 3.0), (4, 3, 50.0), (7, 9, 2.0), (12, 12, 10.0),
          (30, 45, 1.0), (130, 90, 5.0), (250, 250, 12.0)]


@pytest.mark.parametrize("zero_share", [0.0, 0.3])
@pytest.mark.parametrize("n_rows, n_cols, mean_cell", SHAPES)
def test_chisq_pair_matches_chi2_contingency(n_rows, n_cols, mean_cell, zero_share):
    for seed in range(3):
        counts = null_counts([n_rows, n_cols, seed], n_rows, n_cols, mean_cell, zero_share)
        pearson, deviance, expected = independence_test(make_table(counts))
        x2, p_x2, df, mu = scipy_contingency.chi2_contingency(counts, correction=False)
        g2, p_g2, _, _ = scipy_contingency.chi2_contingency(
            counts, correction=False, lambda_="log-likelihood")
        assert pearson.df == deviance.df == df
        np.testing.assert_allclose(expected.values, mu, rtol=1e-10)
        assert_close(pearson.statistic, x2, rel=1e-10)
        assert_close(deviance.statistic, g2, rel=1e-10)
        assert_close(pearson.p_value, p_x2, rel=1e-10)
        assert_close(deviance.p_value, p_g2, rel=1e-10)


@given(st.lists(st.integers(0, 60), min_size=4, max_size=4)
       .filter(lambda c: c[1] * c[2] > 0 or c[0] * c[3] > 0))
@settings(max_examples=300, deadline=None)
def test_odds_ratio_matches_scipy_sample(cells):
    # The one case left out, 0/0, is undefined: scipy returns nan, and
    # odds_ratio returns +inf for any zero denominator (documented).
    counts = np.array(cells).reshape(2, 2)
    want = scipy_contingency.odds_ratio(counts, kind="sample").statistic
    assert_close(odds_ratio(make_table(counts)).estimate, want, rel=1e-14)


def test_odds_ratio_of_a_sub_table_matches_scipy_sample():
    counts = np.arange(1, 13).reshape(3, 4) ** 2
    for rows, cols in (((0, 1), (0, 1)), ((2, 0), (3, 1)), ((1, 2), (2, 0))):
        want = scipy_contingency.odds_ratio(counts[np.ix_(rows, cols)], kind="sample")
        got = odds_ratio(make_table(counts), rows, cols).estimate
        assert_close(got, want.statistic, rel=1e-14)


@given(n=st.integers(0, 2000), p=st.floats(1e-3, 1 - 1e-3), u=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_binomial_log_pmf(n, p, u):
    y = round(u * n)
    assert_close(binomial_log_pmf(BinomialSpec(n, p), y),
                 float(scipy_stats.binom.logpmf(y, n, p)), rel=1e-10)


@given(rate=st.floats(1e-2, 500.0), y=st.integers(0, 1000))
@settings(max_examples=300, deadline=None)
def test_poisson_log_pmf(rate, y):
    assert_close(poisson_log_pmf(PoissonSpec(rate), y),
                 float(scipy_stats.poisson.logpmf(y, rate)), rel=1e-10)


@given(weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
       n=st.integers(0, 500), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_multinomial_log_pmf(weights, n, seed):
    total = math.fsum(weights)
    probs = [w / total for w in weights]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    counts = np.random.default_rng(seed).multinomial(n, probs)
    assert_close(multinomial_log_pmf(MultinomialSpec(n, tuple(probs)), counts),
                 float(scipy_stats.multinomial.logpmf(counts, n, probs)), rel=1e-10)
