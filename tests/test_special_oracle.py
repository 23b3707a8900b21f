"""Differential tests of the special-function kernels against scipy.

scipy is a test-only oracle: these tests are skipped where it is not
installed. Tolerances sit a decade or more above the largest error seen
over 200,000 random draws per function.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattab.special import (
    chi2_sf,
    ln_gamma,
    normal_cdf,
    normal_quantile,
    reg_gamma_lower,
    reg_gamma_upper,
)

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")


def assert_close(got, want, rel):
    # Values that underflow in one implementation may be a few subnormal
    # ulps away in the other.
    assert got == pytest.approx(want, rel=rel, abs=1e-300)


@given(df=st.floats(0.5, 1e5), k=st.floats(-10.0, 10.0))
@settings(max_examples=400, deadline=None)
def test_chi2_sf_around_df(df, k):
    x = max(0.0, df + k * math.sqrt(2.0 * df))
    assert_close(chi2_sf(df, x), float(scipy_stats.chi2.sf(x, df)), rel=1e-10)


@given(df=st.integers(1, 300), x=st.floats(0.0, 1000.0))
@settings(max_examples=300, deadline=None)
def test_chi2_sf_integer_df(df, x):
    assert_close(chi2_sf(df, x), float(scipy_stats.chi2.sf(x, df)), rel=1e-10)


@pytest.mark.parametrize("df, x", [(2e5, 2e5), (39601, 39600)])
def test_chi2_sf_large_df(df, x):
    assert chi2_sf(df, x) == pytest.approx(float(scipy_stats.chi2.sf(x, df)), rel=1e-9)


@given(a=st.floats(100.0, 5e4), k=st.floats(-10.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_incomplete_gamma_large_shape(a, k):
    x = a + k * math.sqrt(a)
    assert_close(reg_gamma_upper(a, x), float(scipy_special.gammaincc(a, x)), rel=1e-10)
    assert_close(reg_gamma_lower(a, x), float(scipy_special.gammainc(a, x)), rel=1e-10)


@given(st.floats(-37.0, 37.0))
@settings(max_examples=300, deadline=None)
def test_normal_cdf(z):
    assert_close(normal_cdf(z), float(scipy_stats.norm.cdf(z)), rel=1e-12)


@given(st.floats(1e-300, 1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_normal_quantile(p):
    want = float(scipy_stats.norm.ppf(p))
    assert normal_quantile(p) == pytest.approx(want, rel=1e-13, abs=1e-13)


@given(st.floats(1e-10, 1e12))
@settings(max_examples=300, deadline=None)
def test_ln_gamma(x):
    want = float(scipy_special.gammaln(x))
    assert ln_gamma(x) == pytest.approx(want, rel=1e-14, abs=1e-14)
