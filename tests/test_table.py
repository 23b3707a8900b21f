import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattab.fixtures import police_shootings, vaccine_trial
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
        assert table.row_total(0) == 2990
        assert table.col_total(1) == 5444
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
        assert "_row_totals" not in repr(table)
        rebuilt = dataclasses.replace(table, counts=[[1, 2], [3, 4]])
        assert rebuilt.row_totals.tolist() == [3, 7]
        assert rebuilt.col_totals.tolist() == [4, 6]
        assert rebuilt.total() == 10

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
        with pytest.raises(ValueError, match="exceeds the largest supported total"):
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

    def test_marginals_are_derived_not_passed(self):
        assert [f.name for f in dataclasses.fields(ProbabilityEstimates) if f.init] == [
            "joint", "source"]

    def test_hand_built_joint_must_sum_to_one(self):
        table = police_shootings()
        with pytest.raises(ValueError, match="sum to 0.9"):
            ProbabilityEstimates(np.array([[0.2, 0.3], [0.2, 0.2]]), table)

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
