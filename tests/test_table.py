import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattab.association import OddsRatioResult, odds_ratio, pearson_correlation
from cattab.fixtures import fixture_path, life_quality_survey, police_shootings, vaccine_trial
from cattab.inference import (
    ExpectedFrequencies,
    StatisticKind,
    expected_frequencies,
    homogeneity_test,
    independence_test,
    mantel_haenszel_test,
)
from cattab.inference import TestResult as _TestResult  # not a test class
from cattab.simulate import SamplingScheme
from cattab.table import (
    ContingencyTable,
    ProbabilityEstimates,
    conditional_probabilities,
    crosstab,
    expand_records,
    joint_probabilities,
)


@st.composite
def tables(draw, max_rows=4, max_cols=4, max_count=40):
    n_rows = draw(st.integers(2, max_rows))
    n_cols = draw(st.integers(2, max_cols))
    counts = draw(
        st.lists(
            st.lists(st.integers(0, max_count), min_size=n_cols, max_size=n_cols),
            min_size=n_rows, max_size=n_rows,
        ).filter(lambda rows: sum(map(sum, rows)) >= 1)
    )
    return ContingencyTable(
        counts,
        tuple(f"row{i}" for i in range(n_rows)),
        tuple(f"col{j}" for j in range(n_cols)),
    )


class TestContingencyTable:
    def test_totals(self):
        table = police_shootings()
        assert table.total() == 5697
        assert list(table.row_totals) == [2990, 2707]
        assert list(table.col_totals) == [253, 5444]
        assert table.shape == (2, 2)

    def test_margin_consistency(self):
        table = vaccine_trial()
        assert table.row_totals.sum() == table.col_totals.sum() == table.total()

    def test_counts_are_immutable(self):
        table = police_shootings()
        with pytest.raises(ValueError):
            table.counts[0, 0] = 7

    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            ContingencyTable([[1, 2]], ("a",), ("x", "y"))

    def test_rejects_too_few_cols(self):
        with pytest.raises(ValueError, match="at least 2 columns"):
            ContingencyTable([[1], [2]], ("a", "b"), ("x",))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="negative count"):
            ContingencyTable([[1, -2], [3, 4]], ("a", "b"), ("x", "y"))

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError, match="total"):
            ContingencyTable([[0, 0], [0, 0]], ("a", "b"), ("x", "y"))

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match="integers"):
            ContingencyTable([[1.5, 2], [3, 4]], ("a", "b"), ("x", "y"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            ContingencyTable([[1, 2], [3, 4]], ("a", "a"), ("x", "y"))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            ContingencyTable([[1, 2], [3, 4]], ("a", "b", "c"), ("x", "y"))

    @pytest.mark.parametrize("labels", [None, 2, {"a", "b"}, frozenset("ab"), {"a": 0, "b": 1}],
                             ids=["None", "int", "set", "frozenset", "dict"])
    def test_rejects_labels_that_are_no_sequence(self, labels):
        # None and 2: TypeError, "'NoneType' object is not iterable". A
        # set's labels came in hash order, which PYTHONHASHSEED changes.
        with pytest.raises(ValueError, match="row labels must be an ordered sequence, got "):
            ContingencyTable([[1, 2], [3, 4]], labels, labels)

    @pytest.mark.parametrize("flag", ["yes", 1, None, np.array([True])],
                             ids=["str", "int", "None", "array"])
    def test_rejects_ordinal_flags_that_are_not_bools(self, flag):
        # "yes" was stored as the string.
        for ordinal in ({"row_ordinal": flag}, {"col_ordinal": flag}):
            with pytest.raises(ValueError, match="row_ordinal and col_ordinal must be bools"):
                ContingencyTable([[1, 2], [3, 4]], ("a", "b"), ("x", "y"), **ordinal)

    def test_accepts_numpy_bool_ordinal_flags(self):
        table = ContingencyTable([[1, 2], [3, 4]], ("a", "b"), ("x", "y"),
                                 row_ordinal=np.True_, col_ordinal=np.False_)
        assert table.row_ordinal and not table.col_ordinal

    @pytest.mark.parametrize("counts", [[1, 2, 3], [[1, 2, 3]], [[1], [2]],
                                        np.zeros((0, 3), dtype=int), [[[1, 2], [3, 4]]]],
                             ids=["1-D", "1x3", "2x1", "0x3", "3-D"])
    def test_shape_rule_names_the_shape(self, counts):
        shape = np.shape(counts)
        with pytest.raises(ValueError, match=re.escape(
                f"counts must be a 2-D matrix with at least 2 rows and at least 2 columns, "
                f"got shape {shape}")):
            ContingencyTable(counts, ("a",) * shape[0], ("x",))

    def test_margins_are_read_only_int64(self):
        table = police_shootings()
        for margins in (table.row_totals, table.col_totals):
            assert margins.dtype == np.int64
            with pytest.raises(ValueError):
                margins[0] = 7
        assert type(table.total()) is int

    def test_margins_are_not_fields(self):
        table = police_shootings()
        assert [f.name for f in dataclasses.fields(table)] == [
            "counts", "row_labels", "col_labels", "row_ordinal", "col_ordinal"]
        assert "row_totals" not in repr(table) and "col_totals" not in repr(table)
        # Each margin is stored once, under its public name.
        assert not {"_row_totals", "_col_totals", "_float_row_totals_1d"} & vars(table).keys()
        twin = ContingencyTable(table.counts, table.row_labels, table.col_labels)
        object.__setattr__(twin, "row_totals", table.row_totals + 1)
        object.__setattr__(twin, "col_totals", table.col_totals[::-1])
        assert twin == table and hash(twin) == hash(table)
        rebuilt = dataclasses.replace(table, counts=[[1, 2], [3, 4]])
        assert rebuilt.row_totals.tolist() == [3, 7]
        assert rebuilt.col_totals.tolist() == [4, 6]
        assert rebuilt.total() == 10

    @pytest.mark.parametrize("counts", [
        [[98, 2892], [155, 2552]],
        # Counts past 2**53, which the cast rounds.
        [[10**18, 3], [2**53 + 1, 2 * 10**18 - 1]],
    ])
    def test_float_counts_are_a_read_only_c_copy(self, counts):
        for arr in (np.array(counts), np.asfortranarray(counts), np.array(counts)[::-1, ::-1]):
            table = ContingencyTable(arr, ("a", "b"), ("x", "y"))
            float_counts = table._float_counts
            assert float_counts.dtype == np.float64
            assert float_counts.flags.c_contiguous and not float_counts.flags.writeable
            assert float_counts.tobytes() == table.counts.astype(float).tobytes()
            assert np.array_equal(float_counts, table.counts)
            assert "_float_counts" not in repr(table)

    @pytest.mark.parametrize("counts", [
        [[98, 2892], [155, 2552]],
        [[0, 3, 1], [0, 5, 2]],  # an empty column
        # Margins past 2**53, which the cast rounds.
        [[10**18, 3], [2**53 + 1, 2 * 10**18 - 1]],
    ])
    def test_float_margins_and_smallest_margins(self, counts):
        table = ContingencyTable(counts, ("a", "b"), tuple("xyz"[:len(counts[0])]))
        rows, cols = table._float_row_totals, table._float_col_totals
        assert rows.shape == (table.n_rows, 1) and cols.shape == (table.n_cols,)
        for floats, ints in ((rows.ravel(), table.row_totals), (cols, table.col_totals)):
            assert floats.dtype == np.float64 and not floats.flags.writeable
            assert floats.tobytes() == ints.astype(float).tobytes()
        with pytest.raises(ValueError):
            rows[0, 0] = 7.0
        assert table._min_row_total == min(table.row_totals.tolist())
        assert table._min_col_total == min(table.col_totals.tolist())
        assert type(table._min_row_total) is int and type(table._min_col_total) is int
        # Kept beside the counts, not as fields: out of the constructor,
        # repr, equality and hash.
        names = ("_float_row_totals", "_float_col_totals", "_min_row_total", "_min_col_total")
        assert not set(names) & {f.name for f in dataclasses.fields(table)}
        assert not any(name in repr(table) for name in names)
        twin = ContingencyTable(np.array(counts), ("a", "b"), table.col_labels)
        object.__setattr__(twin, "_min_row_total", -1)
        object.__setattr__(twin, "_float_col_totals", cols + 1.0)
        assert twin == table and hash(twin) == hash(table)

    @pytest.mark.parametrize("counts, cell, value", [
        ([["1", "2"], ["3", "4"]], (0, 0), "'1'"),
        ([[1, "a"], [2, 3]], (0, 1), "'a'"),  # the ints stay ints
        ([[1 + 0j, 2], [3, 4]], (0, 0), r"\(1\+0j\)"),
        ([[None, 2], [3, 4]], (0, 0), "None"),
        ([[1, 2], [None, 10**20]], (1, 0), "None"),
        ([[1, 2], [3, 2.5]], (1, 1), "2.5"),
        ([[1, 10**20], [float("nan"), 4]], (1, 0), "nan"),
        (np.array([[1, 2], [3, 4]], dtype="datetime64[s]"), (0, 0), "datetime"),
    ])
    def test_rejects_non_integer_counts_naming_the_cell(self, counts, cell, value):
        with pytest.raises(ValueError, match=rf"counts must be integers, got {value}.* "
                                             rf"at cell \({cell[0]}, {cell[1]}\)"):
            ContingencyTable(counts, ("a", "b"), ("x", "y"))

    @pytest.mark.parametrize("counts, message", [
        ([[1, 2.0], [-(10**20), 1]], r"at cell \(1, 0\) is below the int64 minimum"),
        ([[1, float("inf")], [10**20, 1]], r"count inf at cell \(0, 1\) exceeds"),
    ])
    def test_object_counts_go_through_the_int64_bounds(self, counts, message):
        with pytest.raises(ValueError, match=message):
            ContingencyTable(counts, ("a", "b"), ("x", "y"))

    def test_margins_do_not_follow_the_callers_array(self):
        counts = np.array([[1, 2], [3, 4]])
        table = ContingencyTable(counts, ("a", "b"), ("x", "y"))
        counts[0, 0] = 100
        assert table.row_totals.tolist() == [3, 7]
        assert table.total() == 10

    @pytest.mark.parametrize("counts", [
        # Two cells of 5e18 in one column: the int64 total wraps negative.
        [[5 * 10**18, 1], [5 * 10**18, 1]],
        # Four cells of 5e18: the int64 total wraps to a wrong positive.
        [[5 * 10**18, 5 * 10**18], [5 * 10**18, 5 * 10**18]],
        # Each margin fits, the total does not.
        [[2**62, 0], [0, 2**62]],
    ])
    def test_rejects_total_above_int64(self, counts):
        with pytest.raises(ValueError,
                           match="table total must be between 0 and 9223372036854775807, got"):
            ContingencyTable(counts, ("a", "b"), ("x", "y"))

    def test_accepts_total_at_int64_maximum(self):
        top = int(np.iinfo(np.int64).max)
        table = ContingencyTable([[top - 3, 1], [1, 1]], ("a", "b"), ("x", "y"))
        assert table.total() == top
        assert table.row_totals.tolist() == [top - 2, 2]
        assert table.col_totals.tolist() == [top - 2, 2]

    @pytest.mark.parametrize("counts", [
        [[10**19, 1], [1, 1]],
        [[1e19, 1], [1, 1]],
        np.array([[2**63, 1], [1, 1]], dtype=np.uint64),
        [[10**20, 1], [1, 1]],
        [[10**20, 1.0], [1, 1]],  # an object array of an int and a float
    ])
    def test_rejects_count_above_int64(self, counts):
        with pytest.raises(ValueError,
                           match=r"at cell \(0, 0\) exceeds the int64 maximum 9223372036854775807"):
            ContingencyTable(counts, ("a", "b"), ("x", "y"))

    def test_count_below_int64_is_named(self):
        with pytest.raises(ValueError, match=r"cell \(1, 0\) is below the int64 minimum"):
            ContingencyTable([[1, 1], [-1e19, 1]], ("a", "b"), ("x", "y"))

    @pytest.mark.parametrize("counts, total", [
        (np.array([[3, 1], [1, 1]], dtype=np.uint64), 6),
        ([[float(2**63 - 1024), 0], [0, 0]], 2**63 - 1024),  # largest float below 2**63
        (np.array([[2**63 - 5, 1.0], [True, 2]], dtype=object), 2**63 - 1),
    ])
    def test_accepts_in_range_unsigned_and_float_counts(self, counts, total):
        table = ContingencyTable(counts, ("a", "b"), ("x", "y"))
        assert table.counts.dtype == np.int64
        assert table.total() == total

    @given(tables(max_rows=6, max_cols=6, max_count=10**6))
    @settings(max_examples=50, deadline=None)
    def test_margins_match_counts(self, table):
        assert table.row_totals.tolist() == table.counts.sum(axis=1).tolist()
        assert table.col_totals.tolist() == table.counts.sum(axis=0).tolist()
        assert table.total() == int(table.counts.sum())


class TestCrosstab:
    def test_one_record_per_cell(self):
        table = crosstab([("a", "x"), ("b", "y")])
        assert table.row_labels == ("a", "b")
        assert table.col_labels == ("x", "y")
        assert table.counts.tolist() == [[1, 0], [0, 1]]

    def test_reproduces_shootings_counts(self):
        records = (
            [("Non-White", "Woman")] * 98 + [("Non-White", "Man")] * 2892
            + [("White", "Woman")] * 155 + [("White", "Man")] * 2552
        )
        table = crosstab(records, row_order=["Non-White", "White"],
                         col_order=["Woman", "Man"])
        assert table.counts.tolist() == police_shootings().counts.tolist()
        assert table.total() == len(records)

    def test_zero_row_survives_construction_but_not_conditioning(self):
        table = crosstab([("a", "x"), ("a", "y")], row_order=["a", "b"])
        assert table.counts.tolist() == [[1, 1], [0, 0]]
        with pytest.raises(ValueError, match="'b'"):
            conditional_probabilities(table, "rows")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="empty record set"):
            crosstab([])
        with pytest.raises(ValueError, match="empty record set"):
            crosstab(r for r in [])

    @pytest.mark.parametrize("records", [5, None, [5], [None]], ids=["5", "None", "[5]", "[None]"])
    def test_records_that_are_no_pairs_rejected(self, records):
        # TypeError: "'int' object is not iterable".
        with pytest.raises(ValueError, match=r"records must be an iterable of \(row, column\) "):
            crosstab(records)

    def test_category_missing_from_explicit_order_is_named(self):
        with pytest.raises(ValueError, match="'c'"):
            crosstab([("a", "x"), ("c", "y")], row_order=["a", "b"])

    def test_lexicographic_default_order(self):
        table = crosstab([("b", "y"), ("a", "x"), ("b", "x")])
        assert table.row_labels == ("a", "b")
        assert table.col_labels == ("x", "y")

    def test_generator_matches_list(self):
        records = [("b", "y"), ("a", "x"), ("b", "x"), ("a", "x"), ("b", "y")]
        from_list = crosstab(records, col_order=["y", "x"])
        from_generator = crosstab((r for r in records), col_order=["y", "x"])
        assert from_generator.row_labels == from_list.row_labels == ("a", "b")
        assert from_generator.col_labels == from_list.col_labels == ("y", "x")
        assert from_generator.counts.tolist() == from_list.counts.tolist() == [[0, 2], [2, 1]]

    def test_categories_compared_as_strings(self):
        table = crosstab([(1, "x"), ("1", "x"), (2, "y")])
        assert table.row_labels == ("1", "2")
        assert table.counts.tolist() == [[2, 0], [0, 1]]

    def test_duplicate_explicit_order_rejected(self):
        with pytest.raises(ValueError, match="duplicate labels in explicit row order"):
            crosstab([("a", "x"), ("b", "y")], row_order=["a", "b", "a"])

    @pytest.mark.parametrize("order", [{"a", "b"}, frozenset("ab"), {"a": 0, "b": 1}, 5],
                             ids=["set", "frozenset", "dict", "int"])
    def test_explicit_order_that_is_no_sequence_rejected(self, order):
        # A set order moved counts between columns with PYTHONHASHSEED; 5
        # raised TypeError.
        with pytest.raises(ValueError, match="explicit column order must be an ordered sequence"):
            crosstab([("a", "a"), ("b", "b")], col_order=order)

    @settings(max_examples=50)
    @given(tables())
    def test_expand_round_trip(self, table):
        records = expand_records(table)
        assert len(records) == table.total()
        rebuilt = crosstab(records, row_order=table.row_labels,
                           col_order=table.col_labels)
        assert rebuilt.counts.tolist() == table.counts.tolist()
        assert rebuilt.row_labels == table.row_labels
        assert rebuilt.col_labels == table.col_labels


class TestJointProbabilities:
    def test_shootings_joint_estimates(self):
        est = joint_probabilities(police_shootings())
        assert est.joint[0, 0] == pytest.approx(98 / 5697, rel=1e-12)
        expected = [[0.0172, 0.5076], [0.0272, 0.4480]]
        assert np.allclose(est.joint, expected, atol=5e-4)

    def test_shootings_marginals(self):
        est = joint_probabilities(police_shootings())
        assert np.allclose(est.row_marginal, [0.5248, 0.4752], atol=5e-4)
        assert np.allclose(est.col_marginal, [0.0444, 0.9556], atol=5e-4)

    def test_uniform_table(self):
        table = ContingencyTable([[25, 25], [25, 25]], ("a", "b"), ("x", "y"))
        est = joint_probabilities(table)
        assert np.allclose(est.joint, 0.25, atol=0)

    def test_the_constructor_builds_the_estimates_of_its_source(self):
        table = police_shootings()
        built = ProbabilityEstimates(table)
        assert built == joint_probabilities(table)
        assert built.source is table

    def test_marginals_are_derived_not_passed(self):
        assert [f.name for f in dataclasses.fields(ProbabilityEstimates) if f.init] == [
            "source"]

    def test_caller_array_is_copied(self):
        counts = np.full((2, 2), 25, dtype=np.int64)
        est = ProbabilityEstimates(ContingencyTable(counts, ("a", "b"), ("x", "y")))
        counts[0, 0] = 100  # the caller's array stays writable
        assert est.joint.tolist() == [[0.25, 0.25], [0.25, 0.25]]
        assert est.row_marginal.tolist() == est.col_marginal.tolist() == [0.5, 0.5]

    @settings(max_examples=50)
    @given(tables(max_rows=6, max_cols=6, max_count=10**6))
    def test_read_only_with_exact_marginals(self, table):
        est = joint_probabilities(table)
        assert np.array_equal(est.joint, table.counts / table.total())
        assert est.row_marginal.tobytes() == est.joint.sum(axis=1).tobytes()
        assert est.col_marginal.tobytes() == est.joint.sum(axis=0).tobytes()
        for arr in (est.joint, est.row_marginal, est.col_marginal):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    @settings(max_examples=50)
    @given(tables())
    def test_marginals_sum_to_one(self, table):
        est = joint_probabilities(table)
        assert abs(est.joint.sum() - 1.0) <= 1e-12
        assert abs(est.row_marginal.sum() - 1.0) <= 1e-12
        assert abs(est.col_marginal.sum() - 1.0) <= 1e-12


class TestConditionalProbabilities:
    def test_vaccine_rows(self):
        cond = conditional_probabilities(vaccine_trial(), "rows")
        expected = [[0.9878, 0.0122], [0.9993, 0.0007]]
        assert np.allclose(cond, expected, atol=5e-5)
        assert cond[0, 0] == pytest.approx(15025 / 15210, rel=1e-12)

    def test_rows_sum_to_one(self):
        cond = conditional_probabilities(police_shootings(), "rows")
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-12)

    def test_shootings_given_columns(self):
        table = police_shootings()
        cond = conditional_probabilities(table, "cols")
        assert cond[0, 1] == pytest.approx(2892 / 5444, rel=1e-12)
        assert cond[1, 1] == pytest.approx(2552 / 5444, rel=1e-12)
        # Cross-check against the joint/marginal ratio.
        est = joint_probabilities(table)
        ratio = est.joint / est.col_marginal[None, :]
        assert np.allclose(cond, ratio, atol=1e-12)
        assert np.allclose(cond.sum(axis=0), 1.0, atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="rows.*cols"):
            conditional_probabilities(police_shootings(), "diagonals")

    def test_result_is_read_only(self):
        cond = conditional_probabilities(police_shootings(), "rows")
        with pytest.raises(ValueError):
            cond[0, 0] = 0.5

    @settings(max_examples=50)
    @given(tables().filter(
        lambda t: (t.row_totals > 0).all() and (t.col_totals > 0).all()))
    def test_probability_coherence(self, table):
        # joint = conditional * conditioning marginal, cell by cell
        est = joint_probabilities(table)
        cond = conditional_probabilities(table, "rows")
        rebuilt = cond * est.row_marginal[:, None]
        assert np.max(np.abs(rebuilt - est.joint)) <= 1e-12


class TestLargeTables:
    @staticmethod
    def table(zero_cells):
        rng = np.random.default_rng(250)
        counts = rng.poisson(12, (250, 250)) + 1
        if zero_cells:
            counts[rng.random(counts.shape) < 0.3] = 0
            counts[np.arange(250), rng.permutation(250)] += 1
        return ContingencyTable(counts, tuple(f"r{i}" for i in range(250)),
                                tuple(f"c{j}" for j in range(250)))

    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_bit_identical_to_plain_formulas(self, zero_cells):
        table = self.table(zero_cells)
        counts = table.counts
        est = joint_probabilities(table)
        assert est.joint.tobytes() == (counts / table.total()).tobytes()
        assert est.row_marginal.tobytes() == est.joint.sum(axis=1).tobytes()
        assert conditional_probabilities(table, "rows").tobytes() == \
            (counts / table.row_totals[:, None]).tobytes()
        assert conditional_probabilities(table, "cols").tobytes() == \
            (counts / table.col_totals[None, :]).tobytes()

    @pytest.mark.parametrize("estimate", [
        joint_probabilities,
        lambda t: conditional_probabilities(t, "rows"),
        lambda t: conditional_probabilities(t, "cols"),
    ])
    def test_peak_allocation_is_the_result(self, estimate):
        table = self.table(False)
        estimate(table)  # first call pays any one-time set-up
        tracemalloc.start()
        try:
            estimate(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * table.counts.nbytes, \
            f"peak {peak / table.counts.nbytes:.2f}x counts.nbytes"


def _counts_table(cells=((1, 2), (3, 4)), rows=("a", "b")):
    return ContingencyTable(np.array(cells), rows, ("x", "y"))


# Each class that holds numpy arrays: a function that makes two equal instances
# from separate arrays, and variants that differ from them in one field.
_ARRAY_DATACLASSES = {
    "ContingencyTable": (
        lambda: _counts_table(),
        [lambda: _counts_table(((1, 2), (3, 5))), lambda: _counts_table(rows=("a", "c")),
         lambda: ContingencyTable([[1, 2], [3, 4]], ("a", "b"), ("x", "y"), row_ordinal=True)]),
    "ProbabilityEstimates": (
        lambda: joint_probabilities(_counts_table()),
        [lambda: joint_probabilities(_counts_table(((1, 2), (4, 3)))),
         lambda: ProbabilityEstimates(_counts_table(rows=("a", "c")))]),
    "ExpectedFrequencies": (
        lambda: expected_frequencies(_counts_table()),
        [lambda: expected_frequencies(_counts_table(((1, 2), (4, 3)))),
         lambda: ExpectedFrequencies(_counts_table(((2, 4), (6, 8))))]),
    "PoissonScheme": (
        lambda: SamplingScheme.poisson(np.full((2, 2), 3.0)),
        [lambda: SamplingScheme.poisson([[3.0, 3.0], [3.0, 4.0]]),
         lambda: SamplingScheme.poisson(np.full((2, 3), 3.0))]),
    "BinomialRowsScheme": (
        lambda: SamplingScheme.binomial_rows((5, 5), np.full((2, 2), 0.5)),
        [lambda: SamplingScheme.binomial_rows((5, 6), np.full((2, 2), 0.5)),
         lambda: SamplingScheme.binomial_rows((5, 5), [[0.5, 0.5], [0.25, 0.75]])]),
    "MultinomialScheme": (
        lambda: SamplingScheme.multinomial(100, np.full((2, 2), 0.25)),
        [lambda: SamplingScheme.multinomial(101, np.full((2, 2), 0.25)),
         lambda: SamplingScheme.multinomial(100, [[0.5, 0.25], [0.25, 0.0]])]),
}


@pytest.mark.parametrize("build, variants", _ARRAY_DATACLASSES.values(),
                         ids=_ARRAY_DATACLASSES.keys())
def test_array_dataclasses_compare_by_content(build, variants):
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first in [second] and len({first, second}) == 1
    for variant in variants:
        other = variant()
        assert first != other and not first == other
    others = [make() for make, _ in _ARRAY_DATACLASSES.values() if make is not build]
    for stranger in (None, 1, "x", (1, 2), *others):
        assert (first == stranger) is False
        assert (first != stranger) is True
    first == np.zeros(2)  # numpy answers elementwise; nothing raises


def _outputs_as_bytes(table):
    """Every output of the seven per-table statistics, as bytes: each
    float by its hex form, each array by its dtype, shape and buffer."""
    def dump(x):
        if isinstance(x, np.ndarray):
            return f"{x.dtype.str}{x.shape}{x.tobytes().hex()}"
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, tuple):
            return "(" + ",".join(map(dump, x)) + ")"
        if dataclasses.is_dataclass(x):
            return type(x).__name__ + dump(tuple(getattr(x, f.name)
                                                 for f in dataclasses.fields(x)))
        return repr(x)

    return dump((independence_test(table), homogeneity_test(table),
                 mantel_haenszel_test(table), pearson_correlation(table), odds_ratio(table),
                 joint_probabilities(table), conditional_probabilities(table, "rows"),
                 conditional_probabilities(table, "cols")))


def _read_only(counts):
    counts = counts.copy()
    counts.setflags(write=False)
    return counts


@pytest.mark.parametrize("seed", range(40))
def test_counts_layout_does_not_change_any_output(seed):
    # Sums over Fortran-ordered counts ran in column order: the joint
    # marginals, X^2, G^2 and r differed from those of C-ordered counts
    # with the same values.
    rng = np.random.default_rng(seed)
    n_rows, n_cols = rng.integers(2, 16, size=2)
    counts = rng.poisson(rng.uniform(0.5, 50.0), size=(n_rows, n_cols))
    counts[rng.random(counts.shape) < 0.2] = 0
    counts[np.arange(n_rows), rng.integers(n_cols, size=n_rows)] += 1
    counts[rng.integers(n_rows, size=n_cols), np.arange(n_cols)] += 1
    counts[0, 0] += 1  # the default odds ratio is defined
    layouts = {
        "C": np.ascontiguousarray(counts),
        "Fortran": np.asfortranarray(counts),
        "negative strides": np.ascontiguousarray(counts[::-1, ::-1])[::-1, ::-1],
        "read-only": _read_only(counts),
    }
    outputs = {}
    for name, arr in layouts.items():
        assert np.array_equal(arr, counts)
        table = ContingencyTable(arr, tuple(f"r{i}" for i in range(n_rows)),
                                 tuple(f"c{j}" for j in range(n_cols)),
                                 row_ordinal=True, col_ordinal=True)
        assert table.counts.flags.c_contiguous
        assert table._float_counts.flags.c_contiguous
        outputs[name] = _outputs_as_bytes(table)
    for name, dump in outputs.items():
        assert dump == outputs["C"], name


@pytest.mark.parametrize("record", [ProbabilityEstimates, ExpectedFrequencies])
@pytest.mark.parametrize("source", [None, [[1, 2], [3, 4]], np.full((2, 2), 0.25)],
                         ids=["None", "list", "array"])
def test_records_are_built_from_tables_only(record, source):
    # A record's one argument is the table it estimates from; a matrix
    # that a caller computed is no table.
    with pytest.raises(ValueError, match=r"(source|table) must be a ContingencyTable, got"):
        record(source)


@pytest.mark.parametrize("seed", range(50))
def test_joint_layout_does_not_change_the_estimates(seed):
    # A joint copied in the caller's memory order had the marginals of a
    # Fortran-ordered table summed in another order than those of the
    # C-ordered table with the same counts.
    size = (12, 40, 200)[seed % 3]
    rng = np.random.default_rng([size, seed])
    counts = rng.integers(1, 10**6, size=(size, size))
    labels = tuple(map(str, range(size)))
    c_ordered = ContingencyTable(counts, labels, labels)
    fortran = ContingencyTable(np.asfortranarray(counts), labels, labels)
    by_c, by_f = ProbabilityEstimates(c_ordered), ProbabilityEstimates(fortran)
    assert by_f.joint.flags.c_contiguous
    for name in ("joint", "row_marginal", "col_marginal"):
        assert getattr(by_f, name).tobytes() == getattr(by_c, name).tobytes(), name
    expected_f = ExpectedFrequencies(fortran).values
    assert expected_f.flags.c_contiguous
    assert expected_f.tobytes() == ExpectedFrequencies(c_ordered).values.tobytes()


def _same_instance_dict(direct, twin):
    """``direct`` equals ``twin`` and holds the same instance dict: the
    same names, and values of the same type that are equal, arrays also
    in dtype, shape, buffer and write flag."""
    assert direct == twin
    assert type(direct) is type(twin)
    mine, theirs = vars(direct), vars(twin)
    assert mine.keys() == theirs.keys()
    for name, value in mine.items():
        other = theirs[name]
        assert type(value) is type(other), name
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and value.shape == other.shape, name
            assert value.tobytes() == other.tobytes(), name
            assert value.flags.writeable == other.flags.writeable, name
        else:
            assert value == other, name


@pytest.mark.parametrize("table", [police_shootings(), life_quality_survey(),
                                   ContingencyTable([[0, 3], [4, 0]], ("a", "b"), ("x", "y"),
                                                    row_ordinal=True, col_ordinal=True)],
                         ids=["2x2", "5x5", "zero-cells"])
def test_directly_built_records_match_their_public_twins(table):
    # Every record is built by its constructor, and must hold what its
    # twin built from the same arguments holds: a field left out would
    # still read from the class, so == alone would not see it. The
    # expected frequencies add values on first read, which == does.
    for test in (independence_test, homogeneity_test):
        pearson, deviance, expected = test(table)
        for result in (pearson, deviance):
            _same_instance_dict(result, _TestResult(
                result.statistic, result.statistic_kind, result.df, result.p_value,
                small_cell_warning=result.small_cell_warning))
        _same_instance_dict(expected, ExpectedFrequencies(table))
    if table.row_ordinal:
        linear = mantel_haenszel_test(table)
        assert linear.statistic_kind is StatisticKind.MANTEL_HAENSZEL
        _same_instance_dict(linear, _TestResult(linear.statistic, linear.statistic_kind,
                                               linear.df, linear.p_value))
    for correction in (False, True):
        ratio = odds_ratio(table, zero_correction=correction)
        _same_instance_dict(ratio, OddsRatioResult(ratio.estimate, ratio.cells_used,
                                                   ratio.correction_applied))
    estimates = joint_probabilities(table)
    _same_instance_dict(estimates, ProbabilityEstimates(table))


def test_unknown_fixture_is_refused():
    with pytest.raises(ValueError, match="unknown fixture 'nope'; available: "
                                         "\\('police_shootings', 'vaccine_trial', "):
        fixture_path("nope")
