import dataclasses
import itertools
import math
import statistics

import numpy as np
import pytest

from cattab import simulate
from cattab.association import ScoreAssignment
from cattab.distributions import (
    BinomialSpec,
    MultinomialSpec,
    PoissonSpec,
    binomial_pmf,
    multinomial_pmf,
    poisson_pmf,
)
from cattab.inference import StatisticKind, independence_test, mantel_haenszel_test, wald_ci
from cattab.simulate import (
    RNG_ALGORITHM,
    SamplingScheme,
    calibrate_null,
    coverage_wald_ci,
    sample_table,
)
from cattab.table import ContingencyTable

UNIFORM_2X2 = np.full((2, 2), 0.25)

# Small totals, so that some replicates have a zero margin.
NULL_SCHEMES = {
    "poisson": SamplingScheme.poisson(np.outer([2.0, 3.0], [0.5, 1.5])),
    "binomial_rows": SamplingScheme.binomial_rows((4, 6), [[0.3, 0.7], [0.3, 0.7]]),
    "multinomial": SamplingScheme.multinomial(9, np.outer([0.2, 0.8], [0.4, 0.6])),
}

# The .05 critical values of chi-square at 1 and 2 df: the squared
# normal .975 quantile, and -2 ln .05, since chi-square(2) has survival
# function exp(-x / 2).
CHI2_CRITICAL_05 = {1: statistics.NormalDist().inv_cdf(0.975) ** 2, 2: -2.0 * math.log(0.05)}


def _compositions(n, k):
    """Every k-tuple of nonnegative integers that sums to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _poisson_cutoff(rate):
    """The least count c with P(Y > c) < 1e-16 for Y ~ Poisson(rate)."""
    spec = PoissonSpec(rate)
    cutoff = math.ceil(rate)
    while math.fsum(poisson_pmf(spec, y) for y in range(cutoff + 1, cutoff + 100)) >= 1e-16:
        cutoff += 1
    return cutoff


def _enumerate(scheme):
    """Every table a scheme can draw, as (rows, exact probability) pairs,
    built from independent blocks of cells: a multinomial scheme is one
    multinomial block over all cells, a binomial-rows scheme one block
    per row, and a Poisson scheme one block per cell, whose count runs up
    to the cutoff beyond which its tail is below 1e-16."""
    if scheme.kind == "poisson":
        outcomes = [[((y,), poisson_pmf(PoissonSpec(rate), y))
                     for y in range(_poisson_cutoff(rate) + 1)]
                    for rate in scheme.cell_rates.ravel().tolist()]
    else:
        if scheme.kind == "multinomial_total_fixed":
            blocks = [(scheme.total, scheme.joint_probs.ravel())]
        else:
            blocks = zip(scheme.row_totals, scheme.row_probs)
        outcomes = [[(cells, multinomial_pmf(MultinomialSpec(t, tuple(p.tolist())), cells))
                     for cells in _compositions(t, len(p))] for t, p in blocks]
    n_cols = scheme.shape[1]
    for drawn in itertools.product(*outcomes):
        cells = sum((c for c, _ in drawn), ())
        yield ([cells[i:i + n_cols] for i in range(0, len(cells), n_cols)],
               math.prod(p for _, p in drawn))


def _exact_null_rates(scheme):
    """P(X^2 rejects at .05 | defined), P(G^2 rejects at .05 | defined)
    and P(degenerate) over every table the scheme can draw, each
    statistic from its cell formula in plain Python: an independent
    oracle for ``calibrate_null``, which takes p-values from cattab's own
    kernel. A table with an empty row or column is degenerate."""
    n_rows, n_cols = scheme.shape
    critical = CHI2_CRITICAL_05[(n_rows - 1) * (n_cols - 1)]
    degenerate = x2_rejects = g2_rejects = 0.0
    for rows, prob in _enumerate(scheme):
        row_totals = [sum(row) for row in rows]
        col_totals = [sum(col) for col in zip(*rows)]
        if 0 in row_totals or 0 in col_totals:
            degenerate += prob
            continue
        n = sum(row_totals)
        x2 = g2 = 0.0
        for r, row in zip(row_totals, rows):
            for c, o in zip(col_totals, row):
                e = r * c / n
                x2 += (o - e) ** 2 / e
                g2 += 2.0 * o * math.log(o / e) if o else 0.0
        x2_rejects += prob * (x2 >= critical)
        g2_rejects += prob * (g2 >= critical)
    return x2_rejects / (1 - degenerate), g2_rejects / (1 - degenerate), degenerate


class TestSamplingScheme:
    def test_kind_names_the_sampling_process(self):
        schemes = {
            "poisson": SamplingScheme.poisson([[3.0, 4.0], [5.0, 6.0]]),
            "binomial_rows_fixed": SamplingScheme.binomial_rows((10, 10), UNIFORM_2X2 * 2),
            "multinomial_total_fixed": SamplingScheme.multinomial(100, UNIFORM_2X2),
        }
        for value, scheme in schemes.items():
            assert isinstance(scheme, SamplingScheme)
            assert scheme.kind == value

    def test_scheme_exposes_only_its_own_fields(self):
        poisson = SamplingScheme.poisson([[3.0, 4.0], [5.0, 6.0]])
        assert [f.name for f in dataclasses.fields(poisson)] == ["cell_rates"]
        with pytest.raises(AttributeError):
            poisson.total
        rows = SamplingScheme.binomial_rows((10, 10), UNIFORM_2X2 * 2)
        assert [f.name for f in dataclasses.fields(rows)] == ["row_totals", "row_probs"]
        with pytest.raises(AttributeError):
            rows.cell_rates
        total = SamplingScheme.multinomial(100, UNIFORM_2X2)
        assert [f.name for f in dataclasses.fields(total)] == ["total", "joint_probs"]
        with pytest.raises(AttributeError):
            total.row_totals
        with pytest.raises(TypeError):
            SamplingScheme.poisson([[3.0, 4.0], [5.0, 6.0]], total=7)

    def test_caller_matrix_is_copied_not_frozen(self):
        joint = np.full((2, 2), 0.25)
        scheme = SamplingScheme.multinomial(100, joint)
        assert joint.flags.writeable
        assert not scheme.joint_probs.flags.writeable

    @pytest.mark.parametrize("build, field", [
        (lambda: SamplingScheme.poisson([[1.0, np.nan], [2.0, 3.0]]), "cell_rates"),
        (lambda: SamplingScheme.poisson([[1.0, np.inf], [2.0, 3.0]]), "cell_rates"),
        (lambda: SamplingScheme.binomial_rows((5, 5), [[np.nan, 0.5], [0.5, 0.5]]),
         "row_probs"),
        (lambda: SamplingScheme.multinomial(100, [[np.nan, 0.5], [0.25, 0.25]]),
         "joint_probs"),
    ], ids=["poisson-nan", "poisson-inf", "binomial_rows-nan", "multinomial-nan"])
    def test_non_finite_parameters_rejected(self, build, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build()

    def test_totals_above_int64_rejected(self):
        big = 10**20
        with pytest.raises(ValueError, match="total must be between 0 and 9223372036854775807"):
            SamplingScheme.multinomial(big, UNIFORM_2X2)
        with pytest.raises(ValueError, match="row_totals must be between 0 and "):
            SamplingScheme.binomial_rows((big, 5), UNIFORM_2X2 * 2)
        # Each total fits, their sum does not.
        half = 2**62
        with pytest.raises(ValueError, match="sum of row_totals must be between 0 and "):
            SamplingScheme.binomial_rows((half, half), UNIFORM_2X2 * 2)
        with pytest.raises(ValueError, match="total must be between 0 and "):
            SamplingScheme.multinomial(math.inf, UNIFORM_2X2)
        with pytest.raises(ValueError, match="row_totals must be between 0 and "):
            SamplingScheme.binomial_rows((math.inf, 5), UNIFORM_2X2 * 2)
        with pytest.raises(ValueError, match="row_totals must be between 0 and "):
            SamplingScheme.binomial_rows((-math.inf, 5), UNIFORM_2X2 * 2)
        assert SamplingScheme.multinomial(2**63 - 1, UNIFORM_2X2).total == 2**63 - 1

    @pytest.mark.parametrize("totals", [None, {5, 3}, {5: 0, 3: 0}], ids=["None", "set", "dict"])
    def test_row_totals_that_are_no_sequence_rejected(self, totals):
        # None raised TypeError; a dict gave its keys as the totals.
        with pytest.raises(ValueError, match="^row_totals must be an ordered sequence, got "):
            SamplingScheme.binomial_rows(totals, UNIFORM_2X2 * 2)

    def test_non_integral_totals_rejected(self):
        # These were truncated to 10.
        with pytest.raises(ValueError, match="total must be an integer, got 10.5"):
            SamplingScheme.multinomial(10.5, UNIFORM_2X2)
        with pytest.raises(ValueError, match="row_totals must be an integer, got 10.5"):
            SamplingScheme.binomial_rows((10.5, 20), UNIFORM_2X2 * 2)
        assert SamplingScheme.multinomial(10.0, UNIFORM_2X2).total == 10

    def test_poisson_rates_above_the_sampler_limit_rejected(self):
        # numpy's Poisson sampler refuses a rate above int64 max less ten
        # standard deviations; the scheme names the field instead. The
        # bound is on the sum of the rates, the rate of the drawn total,
        # so that the total fits a table's int64 counts.
        limit = 9.223372006484771e18
        assert limit == float(2**63 - 1) - 10.0 * math.sqrt(float(2**63 - 1))
        scheme = SamplingScheme.poisson(np.full((2, 2), limit / 4))
        assert float(scheme.cell_rates.sum()) == limit
        drawn = sample_table(scheme, 1)
        assert drawn.shape == (2, 2) and drawn.total() <= 2**63 - 1
        for rate in (np.nextafter(limit, math.inf), 1e30):
            with pytest.raises(ValueError, match="cell_rates must be at most 9.223372006484771e"):
                SamplingScheme.poisson([[1.0, rate], [2.0, 3.0]])
        # Each rate within the limit, their sum not: every drawn total
        # exceeded int64, and each replicate was counted as degenerate.
        for rates in (np.full((2, 2), 7.5e18), np.full((2, 2), 3.75e18),
                      np.full((2, 2), np.nextafter(limit / 4, math.inf)),
                      [[1e308, 1e308], [1e308, 1e308]]):
            with pytest.raises(ValueError, match="cell_rates must be at most 9.223372006484771e"):
                SamplingScheme.poisson(rates)

    def test_poisson_requires_positive_rates(self):
        with pytest.raises(ValueError, match="> 0"):
            SamplingScheme.poisson([[1.0, 0.0], [2.0, 3.0]])

    def test_binomial_rows_requires_probability_rows(self):
        with pytest.raises(ValueError, match=r"row_probs must sum to 1, got \[0.9 1. \]"):
            SamplingScheme.binomial_rows((10, 10), [[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError, match="length"):
            SamplingScheme.binomial_rows((10,), [[0.5, 0.5], [0.5, 0.5]])

    def test_multinomial_requires_unit_mass(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SamplingScheme.multinomial(100, [[0.3, 0.3], [0.3, 0.3]])
        with pytest.raises(ValueError, match=">= 1"):
            SamplingScheme.multinomial(0, UNIFORM_2X2)

    def test_cell_probabilities(self):
        poisson = SamplingScheme.poisson([[10.0, 30.0], [20.0, 40.0]])
        assert np.allclose(poisson.cell_probabilities(),
                           [[0.1, 0.3], [0.2, 0.4]])
        rows = SamplingScheme.binomial_rows(
            (30, 10), [[0.5, 0.5], [0.9, 0.1]])
        pi = rows.cell_probabilities()
        assert np.allclose(pi, [[0.375, 0.375], [0.225, 0.025]])
        assert pi.sum() == pytest.approx(1.0)


class TestSampleTable:
    def test_fixed_seed_is_deterministic(self):
        scheme = SamplingScheme.multinomial(1000, UNIFORM_2X2)
        first = sample_table(scheme, 42)
        second = sample_table(scheme, 42)
        assert (first.counts == second.counts).all()
        assert first.row_labels == second.row_labels

    def test_is_the_first_replicate_calibration_draws(self):
        for scheme in NULL_SCHEMES.values():
            for seed in (0, 5, 2**64 + 3):
                first = scheme.draw(np.random.default_rng(seed))
                assert first.dtype == np.int64  # numpy's own counts, not recast
                assert (sample_table(scheme, seed).counts == first).all()

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"), (-1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed, message):
        with pytest.raises(ValueError, match=message):
            sample_table(SamplingScheme.multinomial(10, UNIFORM_2X2), seed)

    def test_binomial_rows_fix_row_totals(self):
        scheme = SamplingScheme.binomial_rows(
            (15210, 15210), [[0.99, 0.01], [0.99, 0.01]])
        for seed in range(30):
            table = sample_table(scheme, seed)
            assert list(table.row_totals) == [15210, 15210]

    def test_multinomial_fixes_grand_total(self):
        scheme = SamplingScheme.multinomial(777, UNIFORM_2X2)
        for seed in range(30):
            assert sample_table(scheme, seed).total() == 777

    def test_poisson_fixes_nothing(self):
        scheme = SamplingScheme.poisson([[50.0, 50.0], [50.0, 50.0]])
        totals = {sample_table(scheme, seed).total() for seed in range(40)}
        assert len(totals) > 1

    def test_multinomial_cell_means(self):
        scheme = SamplingScheme.multinomial(1000, UNIFORM_2X2)
        draws = np.stack([sample_table(scheme, seed).counts
                          for seed in range(10000)])
        means = draws.mean(axis=0)
        # per-cell s.e. of the mean from the binomial variance formula
        se = math.sqrt(1000 * 0.25 * 0.75 / 10000)
        assert np.max(np.abs(means - 250.0)) < 4 * se
        assert np.max(np.abs(means - 250.0)) < 1.5

    def test_poisson_cell_mean_and_variance(self):
        rates = np.array([[12.0, 20.0], [8.0, 30.0]])
        scheme = SamplingScheme.poisson(rates)
        draws = np.stack([sample_table(scheme, seed).counts
                          for seed in range(10000)])
        means = draws.mean(axis=0)
        variances = draws.var(axis=0, ddof=1)
        mean_se = np.sqrt(rates / 10000)
        assert np.all(np.abs(means - rates) < 4 * mean_se)
        # VAR(Y) = E(Y); sample-variance s.e. is approximately
        # sqrt(2 var^2 / m) for near-normal counts
        var_se = np.sqrt(2.0 * rates**2 / 10000) + 0.05 * rates
        assert np.all(np.abs(variances - rates) < 5 * var_se)


class TestPoissonLargeRates:
    """Cells above a rate of 1e12 are drawn as a rounded normal, since
    numpy's Poisson sampler is overdispersed there; the rest by numpy."""

    @pytest.mark.parametrize("total_rate", [1e13, 1e15, 9e18])
    def test_variance_equals_the_rate(self, total_rate):
        # numpy's sampler alone reads var/rate 1.07 at 1e15 and 1.36 at 9e18.
        rate, draws = total_rate / 4, 10000
        scheme = SamplingScheme.poisson(np.full((2, 2), rate))
        rng = np.random.default_rng(5)
        counts = np.stack([scheme.draw(rng) for _ in range(draws)])
        deviations = (counts - np.int64(round(rate))).astype(float)  # exact int64 differences
        cells = 4 * draws
        assert abs(deviations.mean()) < 4 * math.sqrt(rate / cells)
        assert abs((deviations**2).mean() / rate - 1.0) < 4 * math.sqrt(2.0 / cells)

    @pytest.mark.parametrize("total_rate", [1e15, 1e18])
    def test_mean_pearson_statistic_is_one(self, total_rate):
        # numpy's sampler alone gives 1.09 at 1e15 and 1.69 at 1e18.
        replicates = 10000
        scheme = SamplingScheme.poisson(np.full((2, 2), total_rate / 4))
        report = calibrate_null(scheme, "pearson", replicates, seed=3)
        assert report.degenerate_replicates == 0
        assert abs(report.empirical_mean - 1.0) < 4 * math.sqrt(2.0 / replicates)

    def test_draws_equal_numpy_poisson_up_to_the_threshold(self):
        rates = np.array([[1e12, 3.5], [2e5, 0.25]])
        scheme = SamplingScheme.poisson(rates)
        ours, numpys = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(20):
            assert scheme.draw(ours).tolist() == numpys.poisson(rates).tolist()
        assert ours.random() == numpys.random()

    def test_mixed_scheme_draws_poisson_cells_then_normal_cells(self):
        # The Poisson call passes 0 for the normal cells, which consumes
        # nothing; one normal per normal cell follows, in C order.
        rates = np.array([[4e14, 3.5], [2e5, 1e13]])
        scheme = SamplingScheme.poisson(rates)
        ours, reference = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(20):
            expected = reference.poisson([[0.0, 3.5], [2e5, 0.0]])
            large = np.array([4e14, 1e13])
            expected[[0, 1], [0, 1]] = np.rint(reference.normal(large, np.sqrt(large)))
            assert scheme.draw(ours).tolist() == expected.tolist()
        assert ours.random() == reference.random()

    def test_normal_draws_are_clipped_to_the_int64_range(self):
        class Extremes:
            def poisson(self, rates):
                return np.zeros(np.shape(rates), dtype=np.int64)

            def normal(self, rates, sds):
                return np.array([-5.0, 1e19])

        scheme = SamplingScheme.poisson([[2e12, 3.0], [4.0, 2e12]])
        assert scheme.draw(Extremes()).tolist() == [[0, 0], [0, 2**63 - 1024]]


class TestStreamContract:
    """R sequential ``draw`` calls on one seeded stream equal one call of
    numpy's sampler with ``size=R`` on an identically seeded stream: the
    property a batched draw of R replicates rests on, checked on every
    numpy the tests run under."""

    @pytest.mark.parametrize("scheme, sized_call", [
        (SamplingScheme.multinomial(30, np.outer([0.2, 0.8], [0.1, 0.3, 0.6])),
         lambda s, rng, r: rng.multinomial(s.total, s.joint_probs.ravel(), size=r)),
        # Every rate at most 1e12, so every cell is numpy's Poisson draw.
        (SamplingScheme.poisson([[1e12, 3.5, 0.25], [2e5, 40.0, 1.5]]),
         lambda s, rng, r: rng.poisson(s.cell_rates, size=(r, *s.shape))),
        # A zero-total row between a small and a large one.
        (SamplingScheme.binomial_rows((7, 0, 1_000_000), [[0.2, 0.3, 0.5]] * 3),
         lambda s, rng, r: rng.multinomial(np.asarray(s.row_totals), s.row_probs,
                                           size=(r, s.shape[0]))),
    ], ids=["multinomial", "poisson", "binomial_rows"])
    def test_sequential_draws_equal_one_sized_call(self, scheme, sized_call):
        replicates = 2000
        ours, batched = np.random.default_rng(4), np.random.default_rng(4)
        draws = np.stack([scheme.draw(ours) for _ in range(replicates)])
        expected = sized_call(scheme, batched, replicates).reshape(draws.shape)
        assert draws.tolist() == expected.tolist()


class TestCalibrateNull:
    def test_pearson_null_calibration(self):
        scheme = SamplingScheme.multinomial(500, UNIFORM_2X2)
        report = calibrate_null(scheme, "pearson", 10000, seed=20260809)
        assert report.statistic_kind is StatisticKind.PEARSON_CHISQ
        assert report.reference_df == 1
        assert abs(report.empirical_mean - 1.0) < 0.05
        assert 0.04 <= report.rejection_rates[0.05] <= 0.06
        assert report.rng_algorithm == RNG_ALGORITHM
        assert report.seed == 20260809

    def test_deviance_and_row_fixed_schemes(self):
        scheme = SamplingScheme.binomial_rows(
            (250, 250), [[0.5, 0.5], [0.5, 0.5]])
        report = calibrate_null(scheme, "deviance", 2000, seed=7)
        assert report.statistic_kind is StatisticKind.DEVIANCE_CHISQ
        assert abs(report.empirical_mean - 1.0) < 0.15
        assert 0.03 <= report.rejection_rates[0.05] <= 0.08

    def test_mantel_haenszel_null(self):
        scheme = SamplingScheme.multinomial(400, UNIFORM_2X2)
        report = calibrate_null(scheme, "mantel_haenszel", 2000, seed=11)
        assert report.statistic_kind is StatisticKind.MANTEL_HAENSZEL
        assert abs(report.empirical_mean - 1.0) < 0.15

    def test_report_is_reproducible(self):
        scheme = SamplingScheme.multinomial(200, UNIFORM_2X2)
        first = calibrate_null(scheme, "pearson", 1000, seed=3)
        second = calibrate_null(scheme, "pearson", 1000, seed=3)
        assert first == second

    def test_rejects_alternative_scheme(self):
        dependent = SamplingScheme.multinomial(
            500, [[0.3, 0.2], [0.2, 0.3]])
        with pytest.raises(ValueError, match="null"):
            calibrate_null(dependent, "pearson", 1000, seed=1)

    def test_rejects_correlated_scores(self):
        scheme = SamplingScheme.multinomial(500, [[0.3, 0.2], [0.2, 0.3]])
        with pytest.raises(ValueError, match="null"):
            calibrate_null(scheme, "mantel_haenszel", 1000, seed=1,
                           scores=ScoreAssignment((1, 2), (1, 2)))

    def test_rejects_scores_of_the_wrong_length(self):
        # This was numpy's "shapes (2,) and (3,) not aligned" from the dot
        # product, not the length check pearson_correlation makes.
        scheme = SamplingScheme.multinomial(500, UNIFORM_2X2)
        with pytest.raises(ValueError, match="^need 2 row scores, got 3$"):
            calibrate_null(scheme, "mantel_haenszel", 1000, seed=1,
                           scores=ScoreAssignment((1, 2, 3), (1, 2)))

    def test_rejects_scores_of_the_wrong_type(self):
        # AttributeError: 'tuple' object has no attribute 'row_scores'.
        scheme = SamplingScheme.multinomial(500, UNIFORM_2X2)
        with pytest.raises(ValueError, match="^scores must be a ScoreAssignment or None, got "):
            calibrate_null(scheme, "mantel_haenszel", 1000, seed=1, scores=((1, 2), (1, 2)))

    @pytest.mark.parametrize("test", ["pearson", "deviance"])
    def test_rejects_scores_with_a_chi_square_test(self, test):
        # The chi-square statistics take no scores; these were ignored.
        scheme = SamplingScheme.multinomial(500, UNIFORM_2X2)
        with pytest.raises(ValueError, match="scores apply only to the mantel_haenszel test"):
            calibrate_null(scheme, test, 1000, seed=1, scores=ScoreAssignment((1, 5), (1, 9)))

    def test_rejects_too_few_replicates(self):
        scheme = SamplingScheme.multinomial(500, UNIFORM_2X2)
        with pytest.raises(ValueError, match="replicates"):
            calibrate_null(scheme, "pearson", 0, seed=1)
        with pytest.raises(ValueError, match="replicates"):
            calibrate_null(scheme, "pearson", 999, seed=1)

    @pytest.mark.parametrize("test", [
        "fisher", "score_z", "pearson_chisq", StatisticKind.PEARSON_CHISQ,
        StatisticKind.MANTEL_HAENSZEL, None,
    ], ids=["fisher", "score_z", "pearson_chisq", "PEARSON_CHISQ", "MANTEL_HAENSZEL", "None"])
    def test_rejects_unknown_test(self, test):
        # The StatisticKind values were a second vocabulary: "pearson_chisq"
        # and its member calibrated X^2.
        scheme = SamplingScheme.multinomial(500, UNIFORM_2X2)
        with pytest.raises(ValueError, match="^test must be one of pearson, deviance, "
                                             "mantel_haenszel, got "):
            calibrate_null(scheme, test, 1000, seed=1)

    def test_rejects_scores_with_zero_variance_under_the_scheme(self):
        # The second row has probability 0: the row scores are constant.
        scheme = SamplingScheme.multinomial(500, [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate scores: zero variance under the scheme"):
            calibrate_null(scheme, "mantel_haenszel", 1000, seed=1)

    @pytest.mark.parametrize("replicates, seed, message", [
        (1000.5, 1, "replicates must be an integer, got 1000.5"),
        (1000, 1.5, "seed must be an integer, got 1.5"),
        (1000, -1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_non_integers(self, replicates, seed, message):
        scheme = SamplingScheme.multinomial(500, UNIFORM_2X2)
        with pytest.raises(ValueError, match=message):
            calibrate_null(scheme, "pearson", replicates, seed)

    @pytest.mark.parametrize("scheme", NULL_SCHEMES)
    @pytest.mark.parametrize("test", ["pearson", "deviance", "mantel_haenszel"])
    def test_equals_a_loop_over_one_stream(self, scheme, test):
        # Replicates come from one generator in order, and those whose
        # statistic is undefined are counted and left out.
        scheme = NULL_SCHEMES[scheme]
        scores = ScoreAssignment((1, 2), (1, 2)) if test == "mantel_haenszel" else None
        rng = np.random.default_rng(17)
        results = []
        for _ in range(1000):
            table = ContingencyTable(scheme.draw(rng), ("a", "b"), ("x", "y"))
            try:
                if scores is not None:
                    results.append(mantel_haenszel_test(table, scores))
                else:
                    pearson, deviance, _ = independence_test(table)
                    results.append(pearson if test == "pearson" else deviance)
            except ValueError:
                pass
        p_values = np.array([res.p_value for res in results])
        report = calibrate_null(scheme, test, 1000, seed=17, scores=scores)
        assert 0 < report.degenerate_replicates == 1000 - len(results)
        assert report.empirical_mean == np.mean([res.statistic for res in results])
        assert report.rejection_rates == {a: np.mean(p_values <= a) for a in (0.10, 0.05, 0.01)}
        assert report.reference_df == 1

    def test_exact_oracle_values(self):
        # 2x2 multinomial, uniform cells: a replicate is degenerate when a
        # row or a column is empty, at n = 8 with probability
        # 4/2^8 - 4/4^8 and at n = 10 with 4/2^10 - 4/4^10.
        x2, g2, degenerate = _exact_null_rates(SamplingScheme.multinomial(8, UNIFORM_2X2))
        assert (round(x2, 6), round(g2, 6)) == (0.063426, 0.098146)
        assert degenerate == pytest.approx(4 / 2**8 - 4 / 4**8, rel=1e-12)
        x2, _, degenerate = _exact_null_rates(SamplingScheme.multinomial(10, UNIFORM_2X2))
        assert round(x2, 6) == 0.052853
        assert degenerate == pytest.approx(4 / 2**10 - 4 / 4**10, rel=1e-12)
        x2, _, degenerate = _exact_null_rates(SamplingScheme.multinomial(20, UNIFORM_2X2))
        assert round(x2, 6) == 0.051201 and degenerate < 1e-5
        # 2x2 Poisson, rate 1.5 in every cell: each margin is Poisson(3),
        # and inclusion-exclusion over the four empty margins gives
        # P(degenerate) = 4e^-3 - 4e^-4.5 + e^-6.
        x2, g2, degenerate = _exact_null_rates(SamplingScheme.poisson(np.full((2, 2), 1.5)))
        assert (round(x2, 6), round(g2, 6)) == (0.058729, 0.080173)
        assert degenerate == pytest.approx(
            4 * math.exp(-3) - 4 * math.exp(-4.5) + math.exp(-6), rel=1e-12)

    @pytest.mark.parametrize("scheme, test", [
        (SamplingScheme.multinomial(8, UNIFORM_2X2), "pearson"),
        (SamplingScheme.multinomial(8, UNIFORM_2X2), "deviance"),
        (SamplingScheme.multinomial(10, UNIFORM_2X2), "pearson"),
        (SamplingScheme.binomial_rows((5, 5), np.full((2, 3), 1 / 3)), "pearson"),
        (SamplingScheme.poisson(np.full((2, 2), 1.5)), "pearson"),
    ], ids=["multinomial-pearson", "multinomial-deviance", "multinomial-n10-pearson",
            "binomial_rows-2x3-pearson", "poisson-pearson"])
    def test_matches_the_exact_small_n_rates(self, scheme, test):
        # At small n the chi-square reference is off, and some tables
        # have an empty row or column: the rejection rate at .05 and the
        # degenerate share must each lie within 4 Monte Carlo SEs of
        # their exact values, enumerated over every table.
        x2, g2, degenerate = _exact_null_rates(scheme)
        exact = x2 if test == "pearson" else g2
        replicates = 20000
        report = calibrate_null(scheme, test, replicates, seed=3)
        assert report.reference_df == (scheme.shape[0] - 1) * (scheme.shape[1] - 1)
        defined = replicates - report.degenerate_replicates
        assert abs(report.rejection_rates[0.05] - exact) <= 4 * math.sqrt(
            exact * (1 - exact) / defined)
        assert abs(report.degenerate_replicates / replicates - degenerate) <= 4 * math.sqrt(
            degenerate * (1 - degenerate) / replicates)

    def test_every_replicate_undefined_is_an_error(self):
        # Rates this small draw an all-zero table every time.
        scheme = SamplingScheme.poisson(np.full((2, 2), 1e-300))
        with pytest.raises(ValueError, match="undefined in all 1000 replicates"):
            calibrate_null(scheme, "pearson", 1000, seed=1)


class TestCoverage:
    def test_moderate_sample_near_nominal(self):
        coverage = coverage_wald_ci(0.5, 100, 0.95, 10000, seed=42)
        assert 0.93 <= coverage <= 0.97

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_an_interval_end_at_pi_covers_it(self, end):
        # Covered means lower <= pi <= upper, as ConfidenceInterval.contains
        # has it. At n = 2 only y = 1 gives an interval of nonzero width,
        # and pi is one of its ends to the last bit.
        pi = getattr(wald_ci(1, 2, 0.8), end)
        ones = np.count_nonzero(np.random.default_rng(5).binomial(2, pi, size=1000) == 1)
        assert ones > 0
        assert coverage_wald_ci(pi, 2, 0.8, 1000, seed=5) == ones / 1000

    def test_small_sample_undercovers(self):
        # Exact coverage at n=10, pi=.5 by enumeration: CI covers .5 only
        # for y in 3..7, so true coverage is well below the nominal level.
        exact = sum(binomial_pmf(BinomialSpec(10, 0.5), y)
                    for y in range(11)
                    if wald_ci(y, 10, 0.95).contains(0.5))
        assert exact < 0.93
        mc = coverage_wald_ci(0.5, 10, 0.95, 10000, seed=42)
        se = math.sqrt(exact * (1 - exact) / 10000)
        assert abs(mc - exact) <= 3 * se
        assert mc < 0.95

    def test_enumeration_oracle_matches_monte_carlo(self):
        exact = sum(binomial_pmf(BinomialSpec(10, 0.05), y)
                    for y in range(11)
                    if wald_ci(y, 10, 0.95).contains(0.05))
        mc = coverage_wald_ci(0.05, 10, 0.95, 10000, seed=99)
        se = math.sqrt(exact * (1 - exact) / 10000)
        assert abs(mc - exact) <= 3 * se

    def test_tracks_the_exact_coverage_oscillation(self):
        # The exact coverage sum_y binom(y; n, pi) 1[pi in CI(y)] swings
        # with n (Brown, Cai & DasGupta 2001, Stat. Sci. 16:101): at
        # pi = .3 from 0.888 at n = 21 to 0.953 at n = 30. The estimate
        # must follow it within 4 Monte Carlo SEs at every n.
        exact = {n: sum(binomial_pmf(BinomialSpec(n, 0.3), y)
                        for y in range(n + 1) if wald_ci(y, n, 0.95).contains(0.3))
                 for n in range(20, 31)}
        assert (round(exact[21], 3), round(exact[30], 3)) == (0.888, 0.953)
        replicates = 20000
        for n, coverage in exact.items():
            estimate = coverage_wald_ci(0.3, n, 0.95, replicates, seed=1)
            assert abs(estimate - coverage) <= 4 * math.sqrt(
                coverage * (1 - coverage) / replicates), n

    @pytest.mark.parametrize("true_pi, trials, level, seed", [
        (0.5, 100, 0.95, 1), (0.05, 10, 0.95, 99), (0.4, 30, 0.9, 5), (0.999, 3, 0.99, 8),
        (0.5, 10**12, 0.95, 2),  # every replicate's count distinct
    ])
    def test_equals_the_sum_over_replicates(self, true_pi, trials, level, seed):
        # The array expression gives the fraction that one interval per
        # replicate gives, exactly.
        ys = np.random.default_rng(np.random.SeedSequence(seed)).binomial(
            trials, true_pi, size=2000)
        covered = sum(wald_ci(int(y), trials, level).contains(true_pi) for y in ys)
        assert coverage_wald_ci(true_pi, trials, level, 2000, seed) == covered / 2000

    def test_equals_one_interval_per_distinct_count(self):
        # The reference: one wald_ci per distinct count, weighted by how
        # often it was drawn. Above 2**53 numpy's int-to-float division
        # may differ from Python's by an ulp, and the fraction must not.
        grid = itertools.product((0.01, 0.3, 0.5, 0.9),
                                 (1, 2, 30, 100, 10**6, 10**12, 2**53 + 1, 2**62),
                                 (0.8, 0.95, 0.99), (0, 3))
        for true_pi, trials, level, seed in grid:
            ys = np.random.default_rng(seed).binomial(trials, true_pi, size=2000)
            values, counts = np.unique(ys, return_counts=True)
            covered = sum(int(c) for y, c in zip(values.tolist(), counts)
                          if wald_ci(y, trials, level).contains(true_pi))
            result = coverage_wald_ci(true_pi, trials, level, 2000, seed)
            assert type(result) is float
            assert result == covered / 2000, (true_pi, trials, level, seed)

    def test_reproducible(self):
        a = coverage_wald_ci(0.4, 30, 0.9, 1000, seed=5)
        b = coverage_wald_ci(0.4, 30, 0.9, 1000, seed=5)
        assert a == b

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            coverage_wald_ci(0.0, 10, 0.95, 1000, seed=1)
        with pytest.raises(ValueError):
            coverage_wald_ci(0.5, 0, 0.95, 1000, seed=1)
        with pytest.raises(ValueError):
            coverage_wald_ci(0.5, 10, 0.95, 500, seed=1)

    def test_level_checked_before_drawing(self, monkeypatch):
        # The level was first checked by wald_ci, after 10**7 draws.
        def no_draws(seed):
            raise AssertionError("drew replicates for a refused level")
        monkeypatch.setattr(simulate, "_rng", no_draws)
        with pytest.raises(ValueError, match="confidence level 0.9999999999999999 is too close"):
            coverage_wald_ci(0.5, 10, 1 - 2**-53, 10**7, 1)

    @pytest.mark.parametrize("trials, replicates, seed, message", [
        (100.7, 1000, 1, "trials must be an integer, got 100.7"),  # was 0.96
        (100, 1000.5, 1, "replicates must be an integer, got 1000.5"),
        (100, 1000, 1.5, "seed must be an integer, got 1.5"),
        (100, 1000, -1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_non_integers(self, trials, replicates, seed, message):
        with pytest.raises(ValueError, match=message):
            coverage_wald_ci(0.5, trials, 0.95, replicates, seed)

    def test_trials_above_int64_rejected(self):
        with pytest.raises(ValueError, match="trials must be between 0 and 9223372036854775807"):
            coverage_wald_ci(0.5, 10**20, 0.95, 1000, seed=1)
        with pytest.raises(ValueError, match="trials must be between 0 and "):
            coverage_wald_ci(0.5, math.inf, 0.95, 1000, seed=1)
