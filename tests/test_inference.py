import decimal
import math
import pickle
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattab import inference
from cattab.association import ScoreAssignment, default_scores, pearson_correlation
from cattab.fixtures import life_quality_survey, police_shootings, vaccine_trial
from cattab.inference import (
    ExpectedFrequencies,
    Sidedness,
    StatisticKind,
    _expected_matrix,
    _require_positive_margins,
    expected_frequencies,
    homogeneity_test,
    independence_test,
    log_likelihood,
    lr_test_proportion,
    mantel_haenszel_test,
    mle_proportion,
    score_test_proportion,
    wald_ci,
    wald_test_proportion,
)
from cattab.io import parse_counts_csv
from cattab.special import chi2_sf
from cattab.table import ContingencyTable

# A 16x16 table (df 225) with diagonal cells 242574296131211638 and
# 0-999 elsewhere: X^2 = 5.8e19, whose chi-square tail is 0.0.
HUGE_DIAGONAL_CSV = Path(__file__).parent / "golden" / "huge_diagonal_16x16.csv"


def make_table(counts, **kwargs):
    counts = np.asarray(counts)
    return ContingencyTable(
        counts,
        tuple(f"r{i}" for i in range(counts.shape[0])),
        tuple(f"c{j}" for j in range(counts.shape[1])),
        **kwargs,
    )


def decimal_deviance(counts, digits=50):
    """G2 = 2*sum(o*ln(o/e)) over integer counts, in exact decimal arithmetic."""
    rows = [[int(o) for o in row] for row in counts]
    row_totals = [sum(row) for row in rows]
    col_totals = [sum(col) for col in zip(*rows)]
    n = sum(row_totals)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        total = sum(
            o * (decimal.Decimal(o * n) / (row_totals[i] * col_totals[j])).ln()
            for i, row in enumerate(rows)
            for j, o in enumerate(row)
            if o
        )
        return float(2 * total)


def zero_filled_deviance(counts, mu):
    """2 * sum of o ln(o / mu) over every cell, a zero cell's term 0."""
    pos = counts > 0
    terms = np.zeros_like(mu)
    terms[pos] = counts[pos] * np.log(counts[pos] / mu[pos])
    return max(0.0, float(2.0 * terms.sum()))


@st.composite
def count_matrices(draw, min_count=0, max_count=500, max_side=6):
    """Count matrices, 2x2 to 6x6, whose every row and column has a
    positive total; with min_count=0 most of them hold zero cells."""
    n_rows = draw(st.integers(2, max_side))
    n_cols = draw(st.integers(2, max_side))
    cells = st.integers(min_count, max_count)
    rows = draw(st.lists(st.lists(cells, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows)
                .filter(lambda rows: all(map(any, rows)) and all(map(any, zip(*rows)))))
    return np.array(rows, dtype=np.int64)


class TestMleProportion:
    def test_coin_flip_example(self):
        estimate, se = mle_proportion(3, 10)
        assert estimate == 0.3
        assert se == pytest.approx(math.sqrt(0.3 * 0.7 / 10), rel=1e-12)
        assert se == pytest.approx(0.145, abs=5e-4)

    def test_boundary(self):
        assert mle_proportion(0, 25) == (0.0, 0.0)
        assert mle_proportion(25, 25) == (1.0, 0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            mle_proportion(11, 10)
        with pytest.raises(ValueError):
            mle_proportion(-1, 10)
        with pytest.raises(ValueError):
            mle_proportion(0, 0)

    @pytest.mark.parametrize("call, message", [
        # These returned (0.0, 0.0), 0.25 and a z score.
        (lambda: mle_proportion(3, math.inf), "trials must be between 0 and 9223372036854775807"),
        (lambda: mle_proportion(2.5, 10), "successes must be an integer, got 2.5"),
        (lambda: score_test_proportion(2.5, 10, 0.5), "successes must be an integer, got 2.5"),
        # These raised OverflowError.
        (lambda: mle_proportion(3, 10**400), "trials must be between 0 and 9223372036854775807"),
        (lambda: score_test_proportion(3, 2**63, 0.5), "trials must be between 0 and "),
    ], ids=["mle-inf-trials", "mle-2.5-successes", "score-2.5-successes", "mle-10**400-trials",
            "score-2**63-trials"])
    def test_counts_follow_the_count_rule(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_estimate_is_grid_argmax_of_likelihood(self):
        rng = random.Random(1234)
        grid = [k / 1000 for k in range(1001)]
        for _ in range(200):
            n = rng.randint(1, 60)
            y = rng.randint(0, n)
            estimate, _ = mle_proportion(y, n)
            best = max(grid, key=lambda p: log_likelihood(p, y, n))
            assert abs(best - estimate) <= 5.0001e-4


class TestLogLikelihood:
    def test_certain_data_certain_parameter(self):
        assert log_likelihood(1.0, 5, 5) == 0.0
        assert log_likelihood(0.0, 0, 5) == 0.0

    def test_closed_form(self):
        assert log_likelihood(0.5, 3, 10) == pytest.approx(10 * math.log(0.5),
                                                           rel=1e-12)

    def test_unimodal_around_estimate(self):
        values = [log_likelihood(k / 1000, 3, 10) for k in range(1001)]
        peak = 300  # y/n = .3
        rising = values[:peak + 1]
        falling = values[peak:]
        assert all(a < b for a, b in zip(rising, rising[1:]))
        assert all(a > b for a, b in zip(falling, falling[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            log_likelihood(1.2, 3, 10)


class TestScoreTest:
    def test_coin_flip_z(self):
        res = score_test_proportion(3, 10, 0.5)
        assert res.statistic == pytest.approx(-1.265, abs=5e-4)
        assert res.statistic == pytest.approx(
            (0.3 - 0.5) / math.sqrt(0.25 / 10), rel=1e-12)
        assert res.statistic_kind is StatisticKind.SCORE_Z
        assert res.df == 1
        assert math.sqrt(0.5 * 0.5 / 10) == pytest.approx(0.1581, abs=5e-5)

    def test_sidedness_values(self):
        two = score_test_proportion(3, 10, 0.5, Sidedness.TWO_SIDED)
        upper = score_test_proportion(3, 10, 0.5, Sidedness.UPPER)
        lower = score_test_proportion(3, 10, 0.5, Sidedness.LOWER)
        assert two.p_value == pytest.approx(0.2059, abs=1e-4)
        # The upper tail of z = -1.265 is the large companion probability.
        assert upper.p_value == pytest.approx(0.897, abs=1e-3)
        assert lower.p_value == pytest.approx(1.0 - upper.p_value, abs=1e-12)
        assert two.sidedness is Sidedness.TWO_SIDED

    def test_estimate_at_null(self):
        res = score_test_proportion(5, 10, 0.5)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_null_boundary_rejected(self):
        with pytest.raises(ValueError):
            score_test_proportion(3, 10, 0.0)
        with pytest.raises(ValueError):
            score_test_proportion(3, 10, 1.0)

    def test_string_sidedness_accepted(self):
        res = score_test_proportion(3, 10, 0.5, "upper")
        assert res.sidedness is Sidedness.UPPER

    def test_subnormal_null(self):
        # pi0 = 2**-1074: pi0 (1 - pi0) / 2 underflowed to 0.0 and the z
        # test raised ZeroDivisionError. z = (1/2) / sqrt(2**-1075) = 2**536.5.
        res = score_test_proportion(1, 2, 5e-324)
        assert math.isfinite(res.statistic)
        assert res.statistic == pytest.approx(math.ldexp(math.sqrt(2.0), 536), rel=1e-12)
        assert res.statistic == pytest.approx(3.18e161, rel=1e-3)
        assert res.p_value == 0.0


class TestWaldTest:
    def test_coin_flip(self):
        res = wald_test_proportion(3, 10, 0.5)
        assert res.statistic == pytest.approx(0.04 / 0.021, rel=1e-12)
        assert res.p_value == pytest.approx(0.1675462775, abs=1e-9)
        assert res.statistic_kind is StatisticKind.WALD_CHISQ
        assert res.df == 1

    def test_estimate_at_null(self):
        res = wald_test_proportion(5, 10, 0.5)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_boundary_estimate_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            wald_test_proportion(0, 10, 0.5)
        with pytest.raises(ValueError, match="boundary"):
            wald_test_proportion(10, 10, 0.5)

    def test_asymptotic_agreement_near_null(self):
        # The three tests converge on each other for large n when the
        # estimate sits close to the null value.
        y, n, pi0 = 480, 1000, 0.5
        wald = wald_test_proportion(y, n, pi0).statistic
        score = score_test_proportion(y, n, pi0).statistic ** 2
        lr = lr_test_proportion(y, n, pi0)[0].statistic
        values = sorted([wald, score, lr])
        assert values[2] - values[0] <= 0.02 * values[0]


class TestLikelihoodRatioTest:
    def test_coin_flip(self):
        res, detail = lr_test_proportion(3, 10, 0.5)
        expected = 2 * (3 * math.log(3 / 5) + 7 * math.log(7 / 5))
        assert res.statistic == pytest.approx(expected, rel=1e-12)
        assert res.statistic == pytest.approx(1.6457, abs=5e-5)
        assert res.p_value == pytest.approx(0.1996, abs=5e-5)
        assert detail.log_l1 >= detail.log_l0

    def test_estimate_at_null(self):
        res, detail = lr_test_proportion(5, 10, 0.5)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert detail.log_l0 == detail.log_l1

    @pytest.mark.parametrize("pi0", [0.0, 1.0])
    def test_null_boundary_rejected(self, pi0):
        with pytest.raises(ValueError, match=f"null proportion must be interior, got {pi0}"):
            lr_test_proportion(3, 10, pi0)

    def test_l1_at_least_l0_on_random_instances(self):
        rng = random.Random(20259)
        for _ in range(1000):
            n = rng.randint(1, 200)
            y = rng.randint(0, n)
            pi0 = rng.uniform(0.01, 0.99)
            res, detail = lr_test_proportion(y, n, pi0)
            assert detail.log_l1 >= detail.log_l0
            assert res.statistic >= 0.0


class TestWaldCi:
    def test_coin_flip_interval(self):
        ci = wald_ci(3, 10, 0.95)
        assert ci.lower == pytest.approx(0.0159742349, abs=1e-9)
        assert ci.upper == pytest.approx(0.5840257651, abs=1e-9)
        assert (round(ci.lower, 2), round(ci.upper, 2)) == (0.02, 0.58)
        assert ci.standard_error == pytest.approx(math.sqrt(0.021), rel=1e-12)
        assert not ci.degenerate
        assert ci.contains(0.5)
        assert not ci.contains(0.61)

    def test_width_identity(self):
        for y, n, level in [(3, 10, 0.95), (40, 160, 0.9), (7, 9, 0.99)]:
            ci = wald_ci(y, n, level)
            from cattab.special import normal_quantile
            z = normal_quantile(0.5 * (1 + level))
            assert ci.upper - ci.lower == pytest.approx(
                2 * z * ci.standard_error, abs=1e-12)

    def test_width_shrinks_with_level(self):
        ci = wald_ci(5, 10, 1e-9)
        assert ci.upper - ci.lower < 1e-6
        assert ci.estimate == 0.5
        assert abs((ci.upper + ci.lower) / 2 - 0.5) < 1e-12

    def test_degenerate_boundary(self):
        ci = wald_ci(0, 25, 0.95)
        assert ci.degenerate
        assert ci.lower == ci.upper == 0.0

    def test_unclipped_by_default_clipped_on_request(self):
        raw = wald_ci(9, 10, 0.95)
        assert raw.upper > 1.0
        clipped = wald_ci(9, 10, 0.95, clip=True)
        assert clipped.upper == 1.0
        assert clipped.lower == raw.lower

    def test_level_validation(self):
        with pytest.raises(ValueError):
            wald_ci(3, 10, 0.0)
        with pytest.raises(ValueError):
            wald_ci(3, 10, 1.0)

    def test_level_whose_quantile_rounds_to_one(self):
        # 0.5 * (1 + level) rounds to 1.0: normal_quantile refused 1.0
        # with a message about its own argument.
        with pytest.raises(ValueError, match="confidence level 0.9999999999999999 is too close"):
            wald_ci(3, 10, 1 - 2**-53)
        ci = wald_ci(3, 10, 1 - 2**-52)  # the largest level that has a quantile
        assert math.isfinite(ci.lower) and math.isfinite(ci.upper)


class TestExpectedFrequencies:
    def test_shootings_cell(self):
        expected = expected_frequencies(police_shootings())
        assert expected.values[0, 0] == pytest.approx(2990 * 253 / 5697, rel=1e-12)
        assert expected.values[0, 0] == pytest.approx(132.79, abs=1e-2)
        assert expected.hypothesis == "independence"

    def test_margins_preserved(self):
        for table in (police_shootings(), vaccine_trial(), life_quality_survey()):
            expected = expected_frequencies(table)
            assert np.max(np.abs(expected.values.sum(axis=1)
                                 - table.row_totals)) <= 1e-9
            assert np.max(np.abs(expected.values.sum(axis=0)
                                 - table.col_totals)) <= 1e-9

    def test_rank_one_table_reproduced_exactly(self):
        table = make_table([[10, 10], [10, 10]])
        expected = expected_frequencies(table)
        assert np.allclose(expected.values, table.counts, atol=1e-12)

    def test_vaccine_symptomatic_column(self):
        expected = expected_frequencies(vaccine_trial(), "homogeneity")
        assert list(expected.values[:, 1]) == pytest.approx([98.0, 98.0], rel=1e-12)
        assert expected.hypothesis == "homogeneity"

    def test_unknown_hypothesis(self):
        with pytest.raises(ValueError):
            expected_frequencies(police_shootings(), "linearity")

    @pytest.mark.parametrize("values, hypothesis, message", [
        ([1.0, 2.0], "independence", r"values must be a 2-D matrix .*, got shape \(2,\)"),
        ([[1.0, 2.0]], "independence", r"values must be a 2-D matrix .*, got shape \(1, 2\)"),
        ([[np.nan, 1.0], [1.0, 1.0]], "independence", "values must be finite and >= 0"),
        ([[np.inf, 1.0], [1.0, 1.0]], "homogeneity", "values must be finite and >= 0"),
        ([[-1.0, 1.0], [1.0, 1.0]], "independence", "values must be finite and >= 0"),
        ([[10**400, 1], [1, 1]], "independence", "values must be an array of real numbers"),
        (np.full((2, 2), 1 + 0j), "independence", "values must be an array of real numbers"),
        ([[1.0, 1.0], [1.0, 1.0]], "linearity", "unknown hypothesis 'linearity'"),
    ], ids=["1-D", "1x2", "nan", "inf", "negative", "10**400", "complex", "hypothesis"])
    def test_direct_records_take_only_what_expected_frequencies_returns(
            self, values, hypothesis, message):
        # Each was accepted, but 10**400, which raised OverflowError.
        with pytest.raises(ValueError, match=message):
            ExpectedFrequencies(values, hypothesis)

    def test_eager_and_test_records_are_one_record(self):
        # expected_frequencies returns the record the tests return: its
        # values built on first read, by the same expression.
        table = life_quality_survey()
        eager = expected_frequencies(table)
        assert "values" not in vars(eager)
        assert eager.values.tobytes() == independence_test(table)[2].values.tobytes()
        assert eager.values.flags.c_contiguous and not eager.values.flags.writeable

    def test_caller_array_is_copied(self):
        values = np.full((2, 2), 2.5)
        expected = ExpectedFrequencies(values, "independence")
        values[0, 0] = 1.0  # the caller's array stays writable
        assert expected.values.tolist() == [[2.5, 2.5], [2.5, 2.5]]
        with pytest.raises(ValueError):
            expected.values[0, 0] = 1.0

    @pytest.mark.parametrize("runner", [independence_test, homogeneity_test])
    @pytest.mark.parametrize("table", [police_shootings(), life_quality_survey(),
                                       make_table([[0, 3, 1], [4, 0, 2]])],
                             ids=["2x2", "5x5", "zero-cells"])
    def test_test_results_build_values_on_first_read(self, runner, table):
        hypothesis = runner.__name__.removesuffix("_test")
        _, _, expected = runner(table)
        assert "values" not in vars(expected)
        values = expected.values
        assert values.tobytes() == expected_frequencies(table, hypothesis).values.tobytes()
        assert values.dtype == float and values.shape == table.shape
        assert not values.flags.writeable
        assert expected.values is values
        assert vars(expected).keys() == {"values", "hypothesis"}

    def test_unread_values_compare_hash_and_pickle_as_built_ones(self):
        table = life_quality_survey()
        eager = expected_frequencies(table)
        for copy in (lambda e: e, lambda e: pickle.loads(pickle.dumps(e))):
            _, _, expected = independence_test(table)
            assert copy(expected) == eager
            _, _, expected = independence_test(table)
            assert hash(copy(expected)) == hash(eager)

    def test_margin_products_beyond_int64(self):
        # row_total * col_total = 1e20 wraps in int64 arithmetic.
        big = 5 * 10**9
        table = make_table([[big, big], [big, big + 1]])
        expected = expected_frequencies(table)
        exact = [float(decimal.Decimal(r) * c / table.total())
                 for r in (2 * big, 2 * big + 1) for c in (2 * big, 2 * big + 1)]
        assert expected.values.ravel().tolist() == pytest.approx(exact, rel=1e-15)
        pearson, deviance, _ = independence_test(table)
        assert 0.0 <= pearson.statistic < 1e-9
        assert 0.0 <= deviance.statistic < 1e-9
        assert pearson.p_value > 0.9999


class TestIndependenceTest:
    def test_shootings(self):
        pearson, deviance, expected = independence_test(police_shootings())
        assert pearson.statistic == pytest.approx(20.068, abs=5e-3)
        assert deviance.statistic == pytest.approx(20.137, abs=5e-3)
        assert pearson.df == deviance.df == 1
        assert pearson.p_value < 0.01
        assert deviance.p_value < 0.01
        assert not pearson.small_cell_warning
        assert pearson.statistic_kind is StatisticKind.PEARSON_CHISQ
        assert deviance.statistic_kind is StatisticKind.DEVIANCE_CHISQ

    def test_rank_one_table_fits_exactly(self):
        table = make_table(np.outer([4, 6], [3, 5, 2]))
        pearson, deviance, _ = independence_test(table)
        assert pearson.statistic == pytest.approx(0.0, abs=1e-12)
        assert deviance.statistic == pytest.approx(0.0, abs=1e-12)

    def test_survey_against_cellwise_recomputation(self):
        table = life_quality_survey()
        pearson, deviance, expected = independence_test(table)
        assert pearson.df == 16
        # plain-loop recomputation of both statistics
        n = table.total()
        x2 = g2 = 0.0
        for i in range(table.n_rows):
            for j in range(table.n_cols):
                mu = table.row_total(i) * table.col_total(j) / n
                o = int(table.counts[i, j])
                x2 += (o - mu) ** 2 / mu
                if o:
                    g2 += 2 * o * math.log(o / mu)
        assert pearson.statistic == pytest.approx(x2, rel=1e-12)
        assert deviance.statistic == pytest.approx(g2, rel=1e-12)

    def test_small_cell_warning(self):
        # The survey table has expected counts below 5 in its corners.
        pearson, _, expected = independence_test(life_quality_survey())
        assert expected.values.min() < 5
        assert pearson.small_cell_warning

    @given(st.one_of(count_matrices(max_count=30), count_matrices(max_count=10**15)))
    @settings(max_examples=300, deadline=None)
    def test_smallest_expected_frequency_from_the_margin_minima(self, counts):
        # r_min * c_min / n is the minimum of the expected matrix bit for
        # bit, also where the margin products pass 2^53 and round.
        table = make_table(counts)
        for runner in (independence_test, homogeneity_test):
            pearson, deviance, expected = runner(table)
            assert _require_positive_margins(table) == expected.values.min()
            assert pearson.small_cell_warning == deviance.small_cell_warning \
                == bool(expected.values.min() < 5)

    def test_zero_margin_rejected(self):
        table = ContingencyTable([[1, 0], [3, 0]], ("a", "b"), ("x", "y"))
        with pytest.raises(ValueError, match="zero total"):
            independence_test(table)

    @pytest.mark.parametrize("runner", [independence_test, homogeneity_test])
    def test_first_zero_margin_named_rows_first(self, runner):
        table = ContingencyTable([[0, 0, 0], [1, 0, 2], [0, 0, 0]],
                                 ("a", "b", "c"), ("x", "y", "z"))
        with pytest.raises(ValueError, match="row 'a' has zero total"):
            runner(table)
        table = ContingencyTable([[1, 0, 0], [1, 0, 2]], ("a", "b"), ("x", "y", "z"))
        with pytest.raises(ValueError, match="column 'y' has zero total"):
            runner(table)

    def test_statistic_near_int64_has_p_value_zero(self):
        # df 225 takes the incomplete gamma function, whose continued
        # fraction at x = 2.9e19 never met its stop and raised RuntimeError.
        table = parse_counts_csv(HUGE_DIAGONAL_CSV)
        for runner in (independence_test, homogeneity_test):
            pearson, deviance, _ = runner(table)
            assert pearson.df == 225
            assert pearson.statistic > 5e19 and deviance.statistic > 2e19
            assert pearson.p_value == deviance.p_value == 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_huge_diagonal_tables_have_p_value_zero(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 1000, (16, 16))
        np.fill_diagonal(counts, 242574296131211638)
        pearson, deviance, _ = independence_test(make_table(counts))
        assert pearson.p_value == deviance.p_value == 0.0

    def test_zero_iff_rank_one(self):
        table = make_table([[5, 1], [1, 5]])
        pearson, deviance, _ = independence_test(table)
        assert pearson.statistic > 0
        assert deviance.statistic > 0


class TestHomogeneityTest:
    def test_vaccine_trial(self):
        pearson, deviance, expected = homogeneity_test(vaccine_trial())
        assert pearson.statistic == pytest.approx(155.4711082421322, rel=1e-12)
        assert deviance.statistic == pytest.approx(187.9798256621563, rel=1e-12)
        oracle = decimal_deviance(vaccine_trial().counts)
        assert deviance.statistic == pytest.approx(oracle, rel=1e-12)
        assert pearson.df == 1
        assert pearson.p_value < 0.01
        assert deviance.p_value < 0.01
        assert expected.hypothesis == "homogeneity"

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(count_matrices(min_count=0, max_count=5),
                     count_matrices(min_count=0), count_matrices(min_count=1)))
    def test_deviance_matches_decimal_oracle(self, counts):
        # Zero cells add 0 ln 0 = 0 to G^2; tables with and without them.
        _, deviance, expected = homogeneity_test(make_table(counts))
        assert deviance.statistic == pytest.approx(decimal_deviance(counts),
                                                   rel=1e-10, abs=1e-10)
        # The formula with every zero cell's term an exact 0, bit for bit.
        assert deviance.statistic == zero_filled_deviance(counts, expected.values)

    def test_vaccine_trial_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        table = vaccine_trial()
        _, deviance, _ = homogeneity_test(table)
        oracle = stats.chi2_contingency(table.counts, correction=False,
                                        lambda_="log-likelihood")[0]
        assert deviance.statistic == pytest.approx(oracle, rel=1e-12)

    def test_identical_rows_are_homogeneous(self):
        table = make_table([[12, 8, 5], [12, 8, 5]])
        pearson, deviance, _ = homogeneity_test(table)
        assert pearson.statistic == pytest.approx(0.0, abs=1e-12)
        assert deviance.statistic == pytest.approx(0.0, abs=1e-12)

    def test_uniform_scaling_doubles_statistic(self):
        base = homogeneity_test(vaccine_trial())[0].statistic
        doubled_counts = vaccine_trial().counts * 2
        doubled = homogeneity_test(make_table(doubled_counts))[0].statistic
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_matches_independence_numerics(self):
        table = make_table([[30, 12, 8], [14, 40, 6]])
        h_pearson, h_deviance, _ = homogeneity_test(table)
        i_pearson, i_deviance, _ = independence_test(table)
        assert h_pearson.statistic == i_pearson.statistic
        assert h_deviance.statistic == i_deviance.statistic


class TestMantelHaenszel:
    def test_survey_linear_association(self):
        res = mantel_haenszel_test(life_quality_survey())
        assert res.statistic == pytest.approx(834.937, abs=1.0)
        assert res.df == 1
        assert res.p_value < 0.01
        assert res.statistic_kind is StatisticKind.MANTEL_HAENSZEL

    def test_zero_correlation(self):
        res = mantel_haenszel_test(make_table([[5, 5], [5, 5]]),
                                   ScoreAssignment((1, 2), (1, 2)))
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_2x2_relation_to_pearson(self):
        table = make_table([[13, 4], [9, 22]])
        m2 = mantel_haenszel_test(table, ScoreAssignment((1, 2), (1, 2))).statistic
        x2 = independence_test(table)[0].statistic
        n = table.total()
        assert m2 == pytest.approx((n - 1) * x2 / n, abs=1e-9)

    def test_requires_scores_or_ordinal_axes(self):
        table = make_table([[5, 1], [2, 8]])
        with pytest.raises(ValueError, match="scores"):
            mantel_haenszel_test(table)
        ordinal = make_table([[5, 1], [2, 8]], row_ordinal=True, col_ordinal=True)
        assert mantel_haenszel_test(ordinal).statistic > 0

    @settings(max_examples=100, deadline=None)
    @given(count_matrices(min_count=0, max_count=50))
    def test_default_scores_give_the_same_result_exactly(self, counts):
        table = make_table(counts, row_ordinal=True, col_ordinal=True)
        assert mantel_haenszel_test(table) == \
            mantel_haenszel_test(table, default_scores(table))


class TestResultInvariants:
    def test_degrees_of_freedom_on_fixtures(self):
        for table in (police_shootings(), vaccine_trial()):
            pearson, deviance, _ = independence_test(table)
            assert pearson.df == deviance.df == 1
        assert independence_test(life_quality_survey())[0].df == 16
        assert mantel_haenszel_test(life_quality_survey()).df == 1
        assert score_test_proportion(3, 10, 0.5).df == 1

    def test_p_value_monotone_in_statistic(self):
        for df in (1, 4, 16):
            values = [chi2_sf(df, 0.5 * k) for k in range(1, 100)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_statistics_nonnegative(self):
        rng = random.Random(7)
        for _ in range(50):
            counts = [[rng.randint(1, 50) for _ in range(3)] for _ in range(2)]
            table = make_table(counts)
            pearson, deviance, _ = independence_test(table)
            assert pearson.statistic >= 0.0
            assert deviance.statistic >= 0.0

    def test_x2_g2_proximity_with_large_expected(self):
        # With every expected count >= 10 the two statistics stay close.
        for counts in ([[30, 40], [45, 25]], [[120, 80, 95], [70, 90, 110]]):
            table = make_table(counts)
            pearson, deviance, expected = independence_test(table)
            assert expected.values.min() >= 10
            gap = abs(pearson.statistic - deviance.statistic)
            assert gap <= 0.2 * max(pearson.statistic, 1.0)


def seeded_counts(size, zero_cells, seed):
    """A table with positive margins, size x size or of the (rows, cols)
    shape ``size``: Poisson counts around a random rank-one mean, with 30%
    of the cells set to zero when ``zero_cells`` is set and every cell
    positive otherwise."""
    square = isinstance(size, int)
    n_rows, n_cols = (size, size) if square else size
    rng = np.random.default_rng([size, seed] if square else [n_rows, n_cols, seed])
    mean = np.outer(rng.dirichlet(np.full(n_rows, 5.0)), rng.dirichlet(np.full(n_cols, 5.0)))
    counts = rng.poisson(12 * n_rows * n_cols * mean)
    if zero_cells:
        counts[rng.random(counts.shape) < 0.3] = 0
        k = max(n_rows, n_cols)
        counts[np.arange(k) % n_rows, rng.permutation(k) % n_cols] += 1  # positive margins
        assert not counts.all()
    else:
        counts += 1
    return counts


def _shape_id(value):
    """A (rows, cols) shape's test id, as "2x3"; pytest's own for the rest."""
    return f"{value[0]}x{value[1]}" if isinstance(value, tuple) else None


NEAR_1E18 = np.array([[10**18, 0, 3 * 10**18],
                      [1, 2 * 10**18, 0],
                      [0, 10**18, 2 * 10**18 - 1]])


class TestLargeTableKernel:
    """Tables below numpy's 8-element unrolled pairwise-summation block,
    where a reduction sums in another order, and past its 128-element
    block, checked bit for bit against the plain formulas the kernels
    implement: X^2, G^2 and the expected frequencies, and r and M^2 under
    the integer scores as ``du @ counts @ dv`` over the sums of squares.
    X^2 and G^2 come from one reduction over a stacked (2, I, J) buffer."""

    @pytest.mark.parametrize("size, seed, zero_cells", [
        *((size, seed, zero_cells)
          for size, seed in [((2, 2), 0), ((2, 3), 0), ((3, 4), 0), (5, 0), (12, 0), (12, 1),
                             (37, 0), (90, 0), (160, 0), (250, 0)]
          for zero_cells in (False, True)),
        pytest.param(3, None, True, id="near-1e18"),
    ], ids=_shape_id)
    def test_bit_identical_to_plain_formulas(self, size, seed, zero_cells):
        # Without a seed: counts near 1e18, a total near the int64 maximum,
        # zero cells where mu is near 1e18 and a count of 1 where it is
        # near 2e17.
        counts = NEAR_1E18 if seed is None else seeded_counts(size, zero_cells, seed)
        table = make_table(counts, row_ordinal=True, col_ordinal=True)
        n_rows, n_cols = table.shape
        o = table.counts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = table.row_totals.astype(float)[:, None] * table.col_totals / table.total()
            x2 = float(((o - mu) ** 2 / mu).sum())
            g2 = zero_filled_deviance(o, mu)
            assert math.isfinite(g2)
            df = (n_rows - 1) * (n_cols - 1)
            for runner in (independence_test, homogeneity_test):
                pearson, deviance, expected = runner(table)
                assert expected.values.tobytes() == mu.tobytes()
                assert pearson.statistic == x2 and deviance.statistic == g2
                assert pearson.p_value == chi2_sf(df, x2)
                assert deviance.p_value == chi2_sf(df, g2)
                assert pearson.small_cell_warning == deviance.small_cell_warning \
                    == bool(mu.min() < 5)
            rows, cols = table.row_totals.astype(float), table.col_totals.astype(float)
            u, v = np.arange(1.0, n_rows + 1), np.arange(1.0, n_cols + 1)
            du = u - rows @ u / table.total()
            dv = v - cols @ v / table.total()
            r = float(du @ o @ dv) / math.sqrt(float(rows @ du**2) * float(cols @ dv**2))
            r = max(-1.0, min(1.0, r))
            m2 = (table.total() - 1) * r * r
            assert pearson_correlation(table) == r
            linear = mantel_haenszel_test(table)
            assert linear.statistic == m2 and linear.p_value == chi2_sf(1, m2)

    @pytest.mark.parametrize("size, zero_cells", [((2, 3), True), (5, False), (250, True)],
                             ids=_shape_id)
    def test_lazy_values_have_the_kernels_bytes(self, size, zero_cells, monkeypatch):
        # The kernel writes mu into its stacked buffer; the returned
        # frequencies build it again on first read, by the same expression.
        written = []

        def recording(*args, **kwargs):
            out = _expected_matrix(*args, **kwargs)
            written.append(out.tobytes())
            return out

        monkeypatch.setattr(inference, "_expected_matrix", recording)
        table = make_table(seeded_counts(size, zero_cells, 0))
        for runner in (independence_test, homogeneity_test):
            written.clear()
            expected = runner(table)[2]
            assert len(written) == 1 and "values" not in vars(expected)
            assert expected.values.tobytes() == written[0]
            assert expected_frequencies(table).values.tobytes() == written[0]

    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_peak_allocation(self, zero_cells):
        # One stacked buffer of two table-sized slots, with or without zero
        # cells: a zero cell's G^2 term is computed in place like any other.
        counts = seeded_counts(250, False, 0)
        if zero_cells:
            counts[0, 0] = 0
        table = make_table(counts)
        independence_test(table)  # first call pays any one-time set-up
        tracemalloc.start()
        try:
            independence_test(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * table.counts.nbytes, \
            f"peak {peak / table.counts.nbytes:.2f}x counts.nbytes"

    def test_result_holds_no_table_sized_array(self):
        # The stacked buffer of mu and the terms is freed on return;
        # the returned frequencies keep the table's margins until read.
        table = make_table(seeded_counts(250, False, 0))
        independence_test(table)  # first call pays any one-time set-up
        tracemalloc.start()
        try:
            result = independence_test(table)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 0.1 * table.counts.nbytes, \
            f"{current / table.counts.nbytes:.3f}x counts.nbytes held"
        assert "values" not in vars(result[2])
