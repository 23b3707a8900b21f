"""Metamorphic properties of the table statistics: identities from the
theory of two-way tables that relate one table's results to those of a
transformed table, checked on generated tables with no oracle library.

- G^2 partitions exactly into the G^2 of the (I-1)(J-1) collapsed 2x2
  components (Lancaster 1949, Biometrika 36:117; Agresti 2013,
  Categorical Data Analysis, 3rd ed., section 3.3.3). X^2 does not
  partition exactly, so this pins the deviance kernel alone.
- X^2, G^2, their p-values and r^2 are unchanged when rows or columns
  are permuted (with their scores) and when the table is transposed.
  The cell order changes the summation order, so these hold to a
  stated tolerance, not bit for bit.
- The homogeneity test is the independence test, bit for bit.
- Swapping two columns inverts the odds ratio; reversing the integer
  scores of one axis flips the sign of r; M^2 = (n - 1) r^2.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cattab.association import ScoreAssignment, odds_ratio, pearson_correlation
from cattab.inference import homogeneity_test, independence_test, mantel_haenszel_test
from cattab.table import ContingencyTable

# Relative tolerances. A statistic summed in another cell order moves by
# a few ulps (the largest of 3,000 random tables was 2.1e-15); a p-value
# moves by that much times its tail's slope (the largest seen, 2.8e-13).
STATISTIC_REL = 1e-13
P_VALUE_REL = 1e-10
EPS = 2.0**-52


def make_table(counts: np.ndarray) -> ContingencyTable:
    return ContingencyTable(counts, tuple(f"r{i}" for i in range(counts.shape[0])),
                            tuple(f"c{j}" for j in range(counts.shape[1])))


@st.composite
def positive_margin_counts(draw, max_side=6):
    """A 2x2 to max_side x max_side count matrix with zero cells but no
    empty row or column (so n >= 2), its cells small or scaled up to ~1e9."""
    n_rows, n_cols = draw(st.integers(2, max_side)), draw(st.integers(2, max_side))
    cells = draw(st.lists(st.integers(0, 40), min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols))
    counts = np.array(cells, dtype=np.int64).reshape(n_rows, n_cols)
    counts *= draw(st.sampled_from([1, 1000, 10**7]))
    for i in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[i, draw(st.integers(0, n_cols - 1))] = 1
    for j in np.flatnonzero(counts.sum(axis=0) == 0):
        counts[draw(st.integers(0, n_rows - 1)), j] = 1
    return counts


def deviance(counts: np.ndarray) -> float:
    return independence_test(make_table(counts))[1].statistic


def lancaster_components(counts: np.ndarray) -> list[np.ndarray]:
    """The (I-1)(J-1) collapsed 2x2 tables of the partition: for each
    cell (i, j) with i, j >= 1, the block above and left of it, the cells
    above it, the cells left of it, and the cell itself."""
    out = []
    for i in range(1, counts.shape[0]):
        for j in range(1, counts.shape[1]):
            out.append(np.array([[counts[:i, :j].sum(), counts[:i, j].sum()],
                                 [counts[i, :j].sum(), counts[i, j]]]))
    return out


@settings(max_examples=300, deadline=None)
@given(positive_margin_counts())
def test_deviance_partitions_into_2x2_components(counts):
    components = lancaster_components(counts)
    # A component with an empty row or column has no defined test.
    assume(all(c.sum(axis=0).all() and c.sum(axis=1).all() for c in components))
    g2 = deviance(counts)
    parts = sum(deviance(c) for c in components)
    # Relative 1e-12 (the worst of 4,000 random tables was 2.9e-13), plus
    # 16 n eps for a G^2 near 0: the terms o log(o / mu) round at o eps
    # each, so a sum of n counts carries about n eps however small G^2 is
    # (the worst seen was 5 n eps, on near-proportional tables).
    assert abs(g2 - parts) <= 1e-12 * g2 + 16 * EPS * float(counts.sum())


def _results(counts, row_scores, col_scores):
    pearson, deviance_, _ = independence_test(make_table(counts))
    r = pearson_correlation(make_table(counts), ScoreAssignment(row_scores, col_scores))
    return pearson, deviance_, r * r


@settings(max_examples=200, deadline=None)
@given(positive_margin_counts(), st.randoms(use_true_random=False))
def test_invariant_under_permutations_and_transposition(counts, rnd):
    n_rows, n_cols = counts.shape
    row_scores = rnd.sample(range(-50, 50), n_rows)
    col_scores = rnd.sample(range(-50, 50), n_cols)
    rows, cols = rnd.sample(range(n_rows), n_rows), rnd.sample(range(n_cols), n_cols)
    base = _results(counts, row_scores, col_scores)
    variants = [
        _results(counts[rows], [row_scores[i] for i in rows], col_scores),
        _results(counts[:, cols], row_scores, [col_scores[j] for j in cols]),
        _results(np.ascontiguousarray(counts.T), col_scores, row_scores),
    ]
    for pearson, deviance_, r_squared in variants:
        for got, want in ((pearson, base[0]), (deviance_, base[1])):
            assert got.df == want.df
            assert got.statistic == pytest.approx(want.statistic, rel=STATISTIC_REL,
                                                  abs=1e-300)
            assert got.p_value == pytest.approx(want.p_value, rel=P_VALUE_REL, abs=1e-300)
        # r^2 lies in [0, 1] and rounds at eps, so its tolerance is absolute.
        assert r_squared == pytest.approx(base[2], rel=0, abs=16 * EPS)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.data())
def test_homogeneity_is_independence_bit_for_bit(n_rows, n_cols, data):
    # Any table, an empty row or column included: both refuse it alike.
    cells = data.draw(st.lists(st.integers(0, 9), min_size=n_rows * n_cols,
                               max_size=n_rows * n_cols))
    counts = np.array(cells, dtype=np.int64).reshape(n_rows, n_cols)
    assume(counts.any())
    table = make_table(counts)

    def outcome(test):
        try:
            return test(table)
        except ValueError as exc:
            return str(exc)

    ind, hom = outcome(independence_test), outcome(homogeneity_test)
    if isinstance(ind, str):
        assert hom == ind
        return
    for a, b in zip(ind[:2], hom[:2]):
        assert (a.statistic.hex(), a.p_value.hex(), a.df, a.small_cell_warning,
                a.statistic_kind) == (b.statistic.hex(), b.p_value.hex(), b.df,
                                      b.small_cell_warning, b.statistic_kind)
    assert ind[2].values.tobytes() == hom[2].values.tobytes()
    assert (ind[2].hypothesis, hom[2].hypothesis) == ("independence", "homogeneity")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=4, max_size=4), st.booleans())
def test_swapping_columns_inverts_the_odds_ratio(cells, correction):
    counts = np.array(cells, dtype=np.int64).reshape(2, 2)
    assume(counts.any())
    # Both cross products zero: the ratio is 0/0 and reads +inf both ways
    # round, so it has no inverse; the CLI refuses that case.
    assume(correction or counts[0, 0] * counts[1, 1] or counts[0, 1] * counts[1, 0])
    table = make_table(counts)
    ratio = odds_ratio(table, (0, 1), (0, 1), correction).estimate
    swapped = odds_ratio(table, (0, 1), (1, 0), correction).estimate
    if ratio == 0.0 or swapped == 0.0:
        assert {ratio, swapped} == {0.0, float("inf")}
    else:
        assert swapped == pytest.approx(1.0 / ratio, rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(positive_margin_counts())
def test_reversed_integer_scores_flip_the_sign_of_r(counts):
    table = make_table(counts)
    n_rows, n_cols = counts.shape
    up = ScoreAssignment(range(1, n_rows + 1), range(1, n_cols + 1))
    down = ScoreAssignment(range(n_rows, 0, -1), range(1, n_cols + 1))
    # r lies in [-1, 1] and rounds at eps (the worst seen was 1.2e-16).
    assert pearson_correlation(table, down) == pytest.approx(
        -pearson_correlation(table, up), rel=0, abs=16 * EPS)


@settings(max_examples=200, deadline=None)
@given(positive_margin_counts(), st.randoms(use_true_random=False))
def test_linear_association_is_n_minus_one_r_squared(counts, rnd):
    table = make_table(counts)
    scores = ScoreAssignment(rnd.sample(range(-50, 50), counts.shape[0]),
                             rnd.sample(range(-50, 50), counts.shape[1]))
    r = pearson_correlation(table, scores)
    result = mantel_haenszel_test(table, scores)
    assert result.df == 1
    assert result.statistic == pytest.approx((int(counts.sum()) - 1) * r * r, rel=1e-15,
                                             abs=1e-300)
