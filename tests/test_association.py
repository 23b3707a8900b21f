import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattab.association import (
    ScoreAssignment,
    _score_vectors,
    default_scores,
    odds,
    odds_ratio,
    pearson_correlation,
)
from cattab.fixtures import life_quality_survey, police_shootings, vaccine_trial
from cattab.inference import independence_test, mantel_haenszel_test
from cattab.table import ContingencyTable, expand_records


def make_table(counts):
    counts = np.asarray(counts)
    return ContingencyTable(
        counts,
        tuple(f"r{i}" for i in range(counts.shape[0])),
        tuple(f"c{j}" for j in range(counts.shape[1])),
    )


@st.composite
def positive_2x2(draw, max_count=60):
    cells = draw(st.lists(st.integers(1, max_count), min_size=4, max_size=4))
    return make_table([[cells[0], cells[1]], [cells[2], cells[3]]])


@st.composite
def count_tables(draw, max_side=6, max_count=50):
    n_rows = draw(st.integers(2, max_side))
    n_cols = draw(st.integers(2, max_side))
    cells = draw(st.lists(st.integers(0, max_count), min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols).filter(any))
    return make_table(np.reshape(cells, (n_rows, n_cols)))


class TestOdds:
    def test_men_nonwhite_versus_white(self):
        table = police_shootings()
        value = odds(table, 0, 1, given_col=1)
        assert value == pytest.approx(2892 / 2552, rel=1e-12)
        assert value == pytest.approx(1.133, abs=1e-3)

    def test_women_nonwhite_versus_white(self):
        value = odds(police_shootings(), 0, 1, given_col=0)
        assert value == pytest.approx(98 / 155, rel=1e-12)
        assert value == pytest.approx(0.632, abs=1e-3)

    def test_equal_cells_give_even_odds(self):
        assert odds(make_table([[7, 1], [7, 9]]), 0, 1, 0) == 1.0

    def test_infinite_when_denominator_empty(self):
        assert odds(make_table([[3, 1], [0, 9]]), 0, 1, 0) == math.inf

    def test_undefined_when_both_empty(self):
        with pytest.raises(ValueError, match="both cells are zero"):
            odds(make_table([[0, 1], [0, 9]]), 0, 1, 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            odds(police_shootings(), 0, 2, 0)
        with pytest.raises(IndexError):
            odds(police_shootings(), 0, 1, 5)

    @pytest.mark.parametrize("index", [0.5, 1.0, "0", None], ids=["0.5", "1.0", "str", "None"])
    def test_non_integer_index_is_an_index_error(self, index):
        # 0.5 leaked numpy's IndexError text; odds_ratio raised TypeError.
        table = police_shootings()
        with pytest.raises(IndexError, match="row index must be an integer, got "):
            odds(table, index, 1, 0)
        with pytest.raises(IndexError, match="column index must be an integer, got "):
            odds(table, 0, 1, index)
        with pytest.raises(IndexError, match="row index must be an integer, got "):
            odds_ratio(table, (0, index), (0, 1))
        with pytest.raises(IndexError, match="column index must be an integer, got "):
            odds_ratio(table, (0, 1), (index, 1))

    def test_numpy_integer_indices_are_indices(self):
        table = police_shootings()
        assert odds(table, np.int64(0), np.int8(1), np.uint64(0)) == odds(table, 0, 1, 0)
        ratio = odds_ratio(table, (np.int64(0), np.int64(1)), (np.int32(1), np.int32(0)))
        assert ratio.cells_used == (0, 1, 1, 0)
        assert all(type(k) is int for k in ratio.cells_used)

    def test_same_row_rejected(self):
        with pytest.raises(ValueError):
            odds(police_shootings(), 1, 1, 0)


class TestOddsRatio:
    def test_shootings_ratio(self):
        # race (non-white, white) against columns (man, woman)
        result = odds_ratio(police_shootings(), rows=(0, 1), cols=(1, 0))
        assert result.estimate == pytest.approx((2892 * 155) / (2552 * 98), rel=1e-12)
        assert result.estimate == pytest.approx(1.792, abs=1e-3)
        assert result.cells_used == (0, 1, 1, 0)
        assert not result.correction_applied

    def test_shootings_ratio_columns_swapped(self):
        result = odds_ratio(police_shootings(), rows=(0, 1), cols=(0, 1))
        assert result.estimate == pytest.approx(0.558, abs=1e-3)

    def test_vaccine_asymptomatic_ratio(self):
        # vaccine arm versus placebo arm, asymptomatic versus symptomatic
        result = odds_ratio(vaccine_trial(), rows=(1, 0), cols=(0, 1))
        assert result.estimate == pytest.approx(17.01, abs=1e-2)

    def test_rank_one_table_gives_unity(self):
        outer = np.outer([2, 3, 5], [4, 1, 7])
        table = make_table(outer)
        for rows in ((0, 1), (1, 2), (0, 2)):
            for cols in ((0, 1), (1, 2), (0, 2)):
                assert odds_ratio(table, rows, cols).estimate == \
                    pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=100)
    @given(positive_2x2())
    def test_reciprocity(self, table):
        forward = odds_ratio(table, (0, 1), (0, 1)).estimate
        swapped = odds_ratio(table, (0, 1), (1, 0)).estimate
        assert swapped == pytest.approx(1.0 / forward, rel=1e-12)

    @settings(max_examples=100)
    @given(positive_2x2(), st.integers(2, 9))
    def test_invariant_under_uniform_scaling(self, table, factor):
        scaled = make_table(table.counts * factor)
        assert odds_ratio(scaled).estimate == \
            pytest.approx(odds_ratio(table).estimate, rel=1e-12)

    def test_zero_denominator_is_infinite_and_flagged_by_value(self):
        result = odds_ratio(make_table([[3, 1], [0, 9]]))
        assert math.isinf(result.estimate)
        assert not result.correction_applied

    def test_zero_correction(self):
        result = odds_ratio(make_table([[3, 1], [0, 9]]), zero_correction=True)
        assert result.correction_applied
        assert result.estimate == pytest.approx((3.5 * 9.5) / (0.5 * 1.5), rel=1e-12)

    def test_all_four_zero_rejected(self):
        table = make_table([[0, 0, 2], [0, 0, 3], [1, 1, 1]])
        with pytest.raises(ValueError, match="all four cells"):
            odds_ratio(table, (0, 1), (0, 1))

    def test_identical_indices_rejected(self):
        with pytest.raises(ValueError):
            odds_ratio(police_shootings(), rows=(0, 0))

    @pytest.mark.parametrize("rows, cols, message", [
        ({1, 0}, (0, 1), "rows must be an ordered sequence"),
        ((1, 0), frozenset((0, 1)), "cols must be an ordered sequence"),
        ({1: 0, 0: 1}, (0, 1), "rows must be an ordered sequence"),
        (0, (0, 1), "rows must be an ordered sequence"),
        ((1, 0), None, "cols must be an ordered sequence"),
        ((0, 1, 1), (0, 1), "rows must be a pair of indices"),
        ((1, 0), (0,), "cols must be a pair of indices"),
    ], ids=["set", "frozenset", "dict", "int", "None", "three", "one"])
    def test_pairs_that_are_no_sequence_rejected(self, rows, cols, message):
        # A set was read in hash order: rows {1, 0} gave the ratio of
        # rows (0, 1). A dict gave its keys; an int or None raised
        # TypeError from unpacking, and a pair of the wrong length a
        # ValueError that named neither argument.
        with pytest.raises(ValueError, match=f"^{message}, got "):
            odds_ratio(make_table([[1, 2], [3, 4]]), rows, cols)

    @pytest.mark.parametrize("flag", ["yes", 1, None], ids=["str", "int", "None"])
    def test_zero_correction_must_be_a_bool(self, flag):
        # "yes" was returned as correction_applied='yes'.
        with pytest.raises(ValueError, match="^zero_correction must be a bool, got "):
            odds_ratio(make_table([[1, 2], [3, 4]]), zero_correction=flag)

    @pytest.mark.parametrize("make", [lambda: [1, 0], lambda: (1, 0), lambda: np.array([1, 0]),
                                      lambda: (i for i in (1, 0))],
                             ids=["list", "tuple", "ndarray", "generator"])
    def test_ordered_pairs_are_read_in_their_order(self, make):
        result = odds_ratio(make_table([[1, 2], [3, 4]]), make(), (0, 1))
        assert result.estimate.hex() == "0x1.8000000000000p+0"
        assert result.cells_used == (1, 0, 0, 1)


class TestScoreAssignment:
    def test_requires_two_distinct_values(self):
        with pytest.raises(ValueError):
            ScoreAssignment((1.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            ScoreAssignment((1.0, 2.0), (3.0, 3.0))

    def test_default_scores_are_consecutive_integers(self):
        scores = default_scores(life_quality_survey())
        assert scores.row_scores == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert scores.col_scores == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_integer_scores_are_shared_read_only_arrays(self):
        # Built once per size and shared by every table of that size, so
        # no caller may write to them.
        u, v = _score_vectors(None, (3, 4))
        assert u.tolist() == [1.0, 2.0, 3.0] and v.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert u.dtype == v.dtype == np.float64
        assert not u.flags.writeable and not v.flags.writeable
        with pytest.raises(ValueError):
            u[0] = 7.0
        assert _score_vectors(None, (4, 3))[0] is v

    @pytest.mark.parametrize("scores", [None, {1: 2, 3: 4}, {1, 2}, frozenset((1, 2))],
                             ids=["None", "dict", "set", "frozenset"])
    def test_scores_that_are_no_sequence_rejected(self, scores):
        # None raised TypeError from iteration; a dict gave its keys
        # (1.0, 3.0) and a set its hash order.
        with pytest.raises(ValueError, match="^row scores must be an ordered sequence, got "):
            ScoreAssignment(scores, (1, 2))

    def test_generator_scores_are_read_once(self):
        # The bound check consumed the generator: "row scores need >= 2
        # distinct values, got ()".
        scores = ScoreAssignment((s for s in (1, 2)), iter((3, 5)))
        assert scores == ScoreAssignment((1.0, 2.0), (3.0, 5.0))

    def test_decimal_and_numpy_scores_are_numbers(self):
        scores = ScoreAssignment((Decimal("0.5"), Decimal(2)), np.array([1, 3], dtype=np.int64))
        assert scores == ScoreAssignment((0.5, 2.0), (1.0, 3.0))
        assert all(type(s) is float for s in scores.row_scores + scores.col_scores)


class TestPearsonCorrelation:
    def test_shootings_correlation(self):
        # coding: non-white=1, white=2; woman=1, man=2
        r = pearson_correlation(police_shootings(),
                                ScoreAssignment((1, 2), (1, 2)))
        assert r == pytest.approx(-0.059, abs=1e-3)

    def test_survey_correlation(self):
        r = pearson_correlation(life_quality_survey())
        assert r == pytest.approx(0.599, abs=1e-3)

    def test_perfect_agreement(self):
        table = make_table([[10, 0], [0, 10]])
        assert pearson_correlation(table) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("row, col, message", [
        ((1, 2, 3), (1, 2), "need 2 row scores, got 3"),
        ((1, 2), (1, 2, 3), "need 2 column scores, got 3"),
    ])
    def test_one_score_per_category(self, row, col, message):
        with pytest.raises(ValueError, match=message):
            pearson_correlation(police_shootings(), ScoreAssignment(row, col))

    def test_one_observation_rejected(self):
        table = ContingencyTable([[1, 0], [0, 0]], ("a", "b"), ("x", "y"))
        with pytest.raises(ValueError, match="correlation needs at least 2 observations"):
            pearson_correlation(table)

    def test_zero_variance_rejected(self):
        table = ContingencyTable([[5, 7], [0, 0]], ("a", "b"), ("x", "y"))
        with pytest.raises(ValueError, match="zero variance"):
            pearson_correlation(table)

    @pytest.mark.parametrize("row, col", [
        ((1, 2, 3, 4, math.nan), (1, 2, 3, 4, 5)),
        ((1, 2, 3, 4, 5), (1, 2, 3, 4, math.inf)),
        ((1e308, 1.1e308, 1.2e308, 1.3e308, 1.4e308), (1, 2, 3, 4, 5)),
        (tuple(1e100 * k for k in range(1, 6)), tuple(1e100 * k for k in range(1, 6))),
        ((1, 2, 3, 4, 10**400), (1, 2, 3, 4, 5)),
        (tuple(1e-100 * k for k in range(1, 6)), tuple(1e-100 * k for k in range(1, 6))),
        ((0, 5e-324, 1e-323, 2, 3), (1, 2, 3, 4, 5)),
        (("a", "b"), (1, 2)),
        ((1, 2, 3, 4, 5), (1, 2, 3, 4, 1j)),
        (np.array([[1, 2], [3, 4]]), (1, 2)),
    ], ids=["nan", "inf", "1e308", "1e100-scale", "10**400", "1e-100-scale", "subnormal",
            "strings", "complex", "2-D"])
    def test_scores_outside_the_score_rule_rejected(self, row, col):
        # NaN and 1e308 gave r = 1 (the latter with RuntimeWarnings), and
        # 1e100 scale gave r = 0.0 where r is 0.5989: ss_u * ss_v overflowed.
        # At 1e-100 scale it underflowed to 0: ZeroDivisionError. Strings
        # raised TypeError from abs(), a complex score TypeError from
        # float(), and a 2-D array numpy's "truth value of an array ... is
        # ambiguous".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"scores must be 0 or between 1e-60 and 1e\+66 in magnitude"):
                pearson_correlation(life_quality_survey(), ScoreAssignment(row, col))

    @pytest.mark.parametrize("table", [
        life_quality_survey(),
        make_table([[10**18, 1, 3], [1, 10**18, 5], [4, 5, 10**18]]),
    ], ids=["survey", "1e18-counts"])
    @pytest.mark.parametrize("scale", [1e66 / 5, 1e-60])
    def test_scores_at_the_bounds_give_the_unscaled_correlation(self, table, scale):
        rows, cols = (tuple(range(1, k + 1)) for k in table.shape)
        scaled = ScoreAssignment(tuple(scale * u for u in rows), tuple(-scale * v for v in cols))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson_correlation(table, scaled)
        assert r == pytest.approx(-pearson_correlation(table), abs=1e-12)

    @pytest.mark.parametrize("call", [pearson_correlation, mantel_haenszel_test])
    def test_scores_of_the_wrong_type_rejected(self, call):
        # AttributeError: 'tuple' object has no attribute 'row_scores'.
        with pytest.raises(ValueError, match=r"^scores must be a ScoreAssignment or None, "
                                             r"got \(\(1, 2\), \(1, 2\)\)$"):
            call(police_shootings(), ((1, 2), (1, 2)))

    def test_score_length_mismatch(self):
        with pytest.raises(ValueError, match="scores"):
            pearson_correlation(police_shootings(),
                                ScoreAssignment((1, 2, 3), (1, 2)))

    def test_matches_expanded_record_formula(self):
        # Brute-force oracle: code every observation, correlate the columns.
        for counts, scores in [
            ([[5, 9], [11, 3]], ScoreAssignment((1, 2), (1, 2))),
            ([[12, 0, 4], [7, 20, 1], [3, 3, 30]],
             ScoreAssignment((1, 2, 3), (-1, 0, 4))),
            ([[98, 145], [15, 25]], ScoreAssignment((0, 10), (2, 3))),
        ]:
            table = make_table(counts)
            row_code = dict(zip(table.row_labels, scores.row_scores))
            col_code = dict(zip(table.col_labels, scores.col_scores))
            us, vs = zip(*[(row_code[r], col_code[c])
                           for r, c in expand_records(table)])
            expected = np.corrcoef(us, vs)[0, 1]
            assert pearson_correlation(table, scores) == \
                pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100)
    @given(count_tables())
    def test_default_scores_give_the_same_result_exactly(self, table):
        # Zero cells, rows and columns included; where the scores have no
        # variance over the data, both calls raise the same error.
        outcomes = []
        for scores in (None, default_scores(table)):
            try:
                outcomes.append(pearson_correlation(table, scores))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=100)
    @given(positive_2x2())
    def test_phi_identity_on_2x2(self, table):
        # |r| equals sqrt(X^2 / n) on 2x2 tables
        r = pearson_correlation(table)
        pearson, _, _ = independence_test(table)
        phi = math.sqrt(pearson.statistic / table.total())
        assert abs(abs(r) - phi) <= 1e-10

    @settings(max_examples=100)
    @given(positive_2x2(),
           st.floats(0.1, 50), st.floats(-20, 20))
    def test_affine_invariance_and_bounds(self, table, scale, shift):
        base = pearson_correlation(table)
        assert -1.0 <= base <= 1.0
        rescaled = ScoreAssignment(
            tuple(scale * u + shift for u in (1.0, 2.0)), (1.0, 2.0))
        assert pearson_correlation(table, rescaled) == pytest.approx(base, abs=1e-9)
        reversed_scores = ScoreAssignment((2.0, 1.0), (1.0, 2.0))
        assert pearson_correlation(table, reversed_scores) == \
            pytest.approx(-base, abs=1e-12)
