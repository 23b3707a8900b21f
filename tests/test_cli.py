import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cattab.cli import main
from cattab.fixtures import fixture_path
from cattab.io import (
    InputFormatError,
    counts_csv_text,
    parse_counts_csv,
    parse_records_csv,
)
from cattab.table import crosstab

SHOOTINGS = str(fixture_path("police_shootings"))
VACCINE = str(fixture_path("vaccine_trial"))
SURVEY = str(fixture_path("life_quality_survey"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestCountsCsv:
    def test_fixture_counts(self):
        table = parse_counts_csv(SHOOTINGS)
        assert table.counts.tolist() == [[98, 2892], [155, 2552]]
        assert table.row_labels == ("Non-White", "White")
        assert table.col_labels == ("Woman", "Man")

    def test_single_data_row_rejected(self, tmp_path):
        path = tmp_path / "one_row.csv"
        path.write_text("table,x,y\na,1,2\n")
        with pytest.raises(InputFormatError, match="at least 2 rows"):
            parse_counts_csv(path)

    def test_quoted_thousands_separator(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('table,Woman,Man\nNon-White,98,"2,892"\nWhite,155,"2,552"\n')
        table = parse_counts_csv(path)
        assert table.counts.tolist() == [[98, 2892], [155, 2552]]

    def test_quoted_thousands_groups(self, tmp_path):
        path = tmp_path / "grouped.csv"
        path.write_text('table,x,y\na,"1,234,567"," 12,000 "\nb,"999",7\n')
        table = parse_counts_csv(path)
        assert table.counts.tolist() == [[1234567, 12000], [999, 7]]

    @pytest.mark.parametrize("cell", ["1,5", "1,2345", ",123", "123,", "1,,234",
                                      "12345,678", "1,234.0", "1, 234"])
    def test_malformed_thousands_separator_located(self, tmp_path, cell):
        path = tmp_path / "bad_grouping.csv"
        path.write_text(f'table,x,y\na,1,2\nb,3,"{cell}"\n')
        with pytest.raises(InputFormatError,
                           match=f"line 3, column 3: expected an integer count, got '{cell}'"):
            parse_counts_csv(path)

    def test_grouped_negative_count_is_negative(self, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text('table,x,y\na,"-1,234",2\nb,3,4\n')
        with pytest.raises(InputFormatError, match="line 2, column 2: negative count -1234"):
            parse_counts_csv(path)

    def test_unquoted_embedded_comma_is_ragged(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("table,Woman,Man\nNon-White,98,2,892\nWhite,155,2552\n")
        with pytest.raises(InputFormatError, match="line 2"):
            parse_counts_csv(path)

    def test_non_integer_cell_located(self, tmp_path):
        path = tmp_path / "bad_cell.csv"
        path.write_text("table,x,y\na,1,2\nb,3,four\n")
        with pytest.raises(InputFormatError, match="line 3, column 3"):
            parse_counts_csv(path)

    def test_negative_cell_located(self, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("table,x,y\na,1,2\nb,3,-4\n")
        with pytest.raises(InputFormatError, match="negative"):
            parse_counts_csv(path)

    def test_round_trip_through_text(self):
        table = parse_counts_csv(VACCINE)
        text = counts_csv_text(table)
        assert "Placebo,15025,185" in text

    def test_missing_file(self):
        with pytest.raises(InputFormatError, match="cannot read"):
            parse_counts_csv("/nonexistent/nowhere.csv")

    def test_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank_lines.csv"
        path.write_text("table,x,y\n\na,1,2\n  \n\nb,3,four\n")
        with pytest.raises(InputFormatError, match="line 6, column 3"):
            parse_counts_csv(path)

    def test_error_line_counts_quoted_newline(self, tmp_path):
        path = tmp_path / "quoted_newline.csv"
        path.write_text('table,x,y\n"first\nrow",1,2\nb,3,four\n')
        with pytest.raises(InputFormatError, match="line 4, column 3"):
            parse_counts_csv(path)

    def test_error_line_is_where_a_multiline_row_starts(self, tmp_path):
        path = tmp_path / "multiline_bad_row.csv"
        path.write_text('table,x,y\na,1,2\n"b\nc",3,four\n')
        with pytest.raises(InputFormatError, match="line 3, column 3"):
            parse_counts_csv(path)

    def test_ragged_row_after_blank_lines(self, tmp_path):
        path = tmp_path / "ragged_late.csv"
        path.write_text("table,x,y\n\n\na,1,2\nb,3\n")
        with pytest.raises(InputFormatError, match="line 5: expected 3 cells, got 2"):
            parse_counts_csv(path)

    def test_int64_maximum_accepted(self, tmp_path):
        path = tmp_path / "int64_max.csv"
        path.write_text("table,x,y\na,0,9223372036854775807\nb,0,0\n")
        assert parse_counts_csv(path).counts[0, 1] == 2**63 - 1

    def test_header_only(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("table,x,y\n\n")
        with pytest.raises(InputFormatError, match="need a header row"):
            parse_counts_csv(path)

    def test_csv_error_located(self, tmp_path):
        path = tmp_path / "long_field.csv"
        path.write_text("table,x,y\na,1,2\n" + "b" * 200_000 + ",3,4\n")
        with pytest.raises(InputFormatError, match="line 3: field larger than field limit"):
            parse_counts_csv(path)


# Cell text for generated record files: padded, and quoted by csv.writer
# when it holds a comma, a quote or a line break.
_CELLS = st.tuples(
    st.sampled_from(["", " ", "\t "]),
    st.one_of(st.sampled_from(["a", "b", "a,b", 'say "hi"', "two\nlines", "\u00e9"]),
              st.text(alphabet='ab ,"\n\r\t', max_size=5)),
    st.sampled_from(["", " ", " \t"]),
).map("".join)
_BLANK_LINES = st.sampled_from(["\n", "\r\n", "   \n", " , \n"])


class TestRecordsCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("race,gender\nwhite,man\nwhite,woman\nnon-white,man\n")
        table, names = parse_records_csv(path)
        assert names == ("race", "gender")
        assert table.row_labels == ("non-white", "white")
        assert table.counts.sum() == 3

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "three_cols.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputFormatError, match="exactly 2 columns"):
            parse_records_csv(path)

    def test_no_records(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("a,b\n")
        with pytest.raises(InputFormatError, match="no records"):
            parse_records_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n  \n")
        with pytest.raises(InputFormatError, match="empty file"):
            parse_records_csv(path)

    def test_blank_rows_skipped_and_cells_stripped(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("\n race , gender \n white,man\n\n ,  \nwhite , man\n"
                        "non-white,\" woman\"\n")
        table, names = parse_records_csv(path)
        assert names == ("race", "gender")
        assert table.row_labels == ("non-white", "white")
        assert table.col_labels == ("man", "woman")
        assert table.counts.tolist() == [[0, 1], [2, 0]]

    def test_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank_lines.csv"
        path.write_text("a,b\nx,y\n\n\nx,y,z\n")
        with pytest.raises(InputFormatError, match="line 5: expected 2 cells, got 3"):
            parse_records_csv(path)

    def test_error_line_counts_quoted_newline(self, tmp_path):
        path = tmp_path / "quoted_newline.csv"
        path.write_text('a,b\n"x\ny",z\nq\n')
        with pytest.raises(InputFormatError, match="line 4: expected 2 cells, got 1"):
            parse_records_csv(path)

    def test_error_line_is_where_a_multiline_row_starts(self, tmp_path):
        path = tmp_path / "multiline_bad_row.csv"
        path.write_text('a,b\nx,y\n"p\nq",r,s\n')
        with pytest.raises(InputFormatError, match="line 3: expected 2 cells, got 3"):
            parse_records_csv(path)

    def test_error_names_first_bad_row_of_the_file(self, tmp_path):
        path = tmp_path / "two_bad.csv"
        path.write_text("a,b\nx,y\nx,y\nu,v,w\nx,y\nq\nu,v,w\n")
        with pytest.raises(InputFormatError, match="line 4: expected 2 cells, got 3"):
            parse_records_csv(path)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(names=st.tuples(_CELLS, _CELLS).filter(lambda p: p[0].strip() or p[1].strip()),
           lines=st.lists(st.one_of(st.tuples(_CELLS, _CELLS), _BLANK_LINES), max_size=40),
           leading=st.lists(_BLANK_LINES, max_size=2))
    def test_matches_crosstab_of_stripped_records(self, tmp_path, names, lines, leading):
        path = tmp_path / "random.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            fh.write("".join(leading))
            writer.writerow(names)
            for line in lines:
                if isinstance(line, str):
                    fh.write(line)
                else:
                    writer.writerow(line)
        stripped = [(r.strip(), c.strip()) for r, c in
                    (line for line in lines if not isinstance(line, str))]
        records = [rec for rec in stripped if rec[0] or rec[1]]
        try:
            expected = crosstab(records)
        except ValueError:
            with pytest.raises(InputFormatError):
                parse_records_csv(path)
            return
        table, parsed_names = parse_records_csv(path)
        assert parsed_names == (names[0].strip(), names[1].strip())
        assert table.row_labels == expected.row_labels
        assert table.col_labels == expected.col_labels
        assert table.counts.tolist() == expected.counts.tolist()

    def test_memory_scales_with_distinct_rows(self, tmp_path):
        path = tmp_path / "many.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["age_band", "severity"])
            for k in range(50_000):
                writer.writerow([f"band{k % 4}", f"level{k % 5}"])
        parse_records_csv(path)  # first call pays any one-time set-up
        tracemalloc.start()
        try:
            table, _ = parse_records_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.total() == 50_000
        assert peak < 1 << 20, f"peak {peak} bytes"


class TestCliCommands:
    def test_independence_json(self, capsys):
        env = run_json(capsys, "test", "independence", "--input", SHOOTINGS)
        assert set(env) == {"version", "input_digest", "command", "results",
                            "warnings"}
        assert env["command"] == "test independence"
        results = env["results"]
        assert results["pearson"]["statistic"] == pytest.approx(20.068, abs=5e-3)
        assert results["deviance"]["statistic"] == pytest.approx(20.137, abs=5e-3)
        assert results["pearson"]["df"] == 1

    def test_byte_identical_reruns(self, capsys):
        argv = ("test", "independence", "--input", SHOOTINGS, "--format", "json")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_describe_json(self, capsys):
        env = run_json(capsys, "describe", "--input", SHOOTINGS,
                       "--given", "rows")
        results = env["results"]
        assert results["n"] == 5697
        assert results["joint"][0][0] == pytest.approx(0.0172, abs=5e-4)
        assert results["row_marginal"] == pytest.approx([0.5248, 0.4752],
                                                        abs=5e-4)
        assert results["conditional"]["given"] == "rows"

    def test_describe_vaccine_conditionals(self, capsys):
        env = run_json(capsys, "describe", "--input", VACCINE,
                       "--given", "rows")
        cond = env["results"]["conditional"]["matrix"]
        assert cond[0] == pytest.approx([0.9878, 0.0122], abs=5e-5)
        assert cond[1] == pytest.approx([0.9993, 0.0007], abs=5e-5)

    def test_describe_records_input(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        rows = ["race,gender"]
        rows += ["non-white,man"] * 3 + ["non-white,woman"] * 1
        rows += ["white,man"] * 2 + ["white,woman"] * 2
        path.write_text("\n".join(rows) + "\n")
        env = run_json(capsys, "describe", "--input", str(path),
                       "--input-format", "records")
        assert env["results"]["n"] == 8
        assert env["results"]["row_labels"] == ["non-white", "white"]
        assert env["results"]["joint"][0][0] == pytest.approx(3 / 8)

    def test_describe_emit_counts_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "describe", "--input", SHOOTINGS,
                               "--emit-counts")
        assert code == 0
        echo = tmp_path / "echo.csv"
        echo.write_text(out)
        reparsed = parse_counts_csv(echo)
        original = parse_counts_csv(SHOOTINGS)
        assert reparsed.counts.tolist() == original.counts.tolist()
        assert reparsed.row_labels == original.row_labels
        assert reparsed.col_labels == original.col_labels

    def test_linear_with_scores(self, capsys):
        env = run_json(capsys, "test", "linear", "--input", SURVEY,
                       "--scores", "1:5,1:5")
        results = env["results"]
        assert results["correlation"] == pytest.approx(0.599, abs=1e-3)
        assert results["mantel_haenszel"]["statistic"] == pytest.approx(
            834.937, abs=1.0)
        assert results["row_scores"] == [1, 2, 3, 4, 5]

    def test_linear_without_scores_demands_them(self, capsys):
        code, _, err = run_cli(capsys, "test", "linear", "--input", SURVEY)
        assert code == 3
        assert "scores" in err

    def test_proportion(self, capsys):
        env = run_json(capsys, "test", "proportion", "--successes", "3",
                       "--trials", "10", "--null", "0.5")
        results = env["results"]
        assert results["score"]["statistic"] == pytest.approx(-1.265, abs=5e-4)
        assert results["score"]["p_value"] == pytest.approx(0.2059, abs=1e-4)
        assert results["wald"]["statistic"] == pytest.approx(1.9048, abs=1e-4)
        ci = results["confidence_interval"]
        assert ci["lower"] == pytest.approx(0.0160, abs=5e-4)
        assert ci["upper"] == pytest.approx(0.5840, abs=5e-4)
        assert ci["contains_null"] is True

    def test_proportion_upper_tail(self, capsys):
        env = run_json(capsys, "test", "proportion", "--successes", "3",
                       "--trials", "10", "--null", "0.5", "--sided", "upper")
        assert env["results"]["score"]["p_value"] == pytest.approx(0.897,
                                                                   abs=1e-3)

    def test_odds_ratio(self, capsys):
        env = run_json(capsys, "assoc", "odds-ratio", "--input", SHOOTINGS,
                       "--rows", "1,2", "--cols", "2,1")
        results = env["results"]
        assert results["odds"]["Man"] == pytest.approx(1.133, abs=1e-3)
        assert results["odds"]["Woman"] == pytest.approx(0.632, abs=1e-3)
        assert results["odds_ratio"] == pytest.approx(1.792, abs=1e-3)
        assert results["odds_ratio_swapped"] == pytest.approx(0.558, abs=1e-3)

    def test_vaccine_odds_ratio(self, capsys):
        env = run_json(capsys, "assoc", "odds-ratio", "--input", VACCINE,
                       "--rows", "2,1", "--cols", "1,2")
        assert env["results"]["odds_ratio"] == pytest.approx(17.01, abs=1e-2)

    def test_correlation_defaults(self, capsys):
        env = run_json(capsys, "assoc", "correlation", "--input", SHOOTINGS)
        assert env["results"]["correlation"] == pytest.approx(-0.059, abs=1e-3)

    def test_dist_binomial(self, capsys):
        env = run_json(capsys, "dist", "binomial", "--trials", "10",
                       "--prob", "0.2", "--count", "7")
        results = env["results"]
        assert results["pmf"] == pytest.approx(0.000786432, rel=1e-9)
        assert results["mean"] == pytest.approx(2.0)

    def test_dist_multinomial(self, capsys):
        env = run_json(capsys, "dist", "multinomial", "--trials", "10",
                       "--probs", "0.2,0.8", "--counts", "7,3")
        assert env["results"]["pmf"] == pytest.approx(0.000786432, rel=1e-9)

    def test_dist_poisson(self, capsys):
        env = run_json(capsys, "dist", "poisson", "--rate", "4", "--count", "4")
        assert env["results"]["pmf"] == pytest.approx(0.1953668148, rel=1e-9)

    def test_simulate_coverage_deterministic(self, capsys):
        argv = ("simulate", "coverage", "--pi", "0.5", "--trials", "50",
                "--level", "0.95", "--replicates", "1000", "--seed", "9",
                "--format", "json")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["results"]["rng_algorithm"] == "numpy-pcg64"
        assert 0.8 < payload["results"]["coverage"] <= 1.0

    def test_simulate_calibrate_deterministic(self, capsys):
        argv = ("simulate", "calibrate", "--scheme", "multinomial",
                "--n", "200", "--row-marginals", "0.5,0.5",
                "--col-marginals", "0.5,0.5", "--test", "pearson",
                "--replicates", "1000", "--seed", "13", "--format", "json")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["results"]["reference_df"] == 1
        assert 0.5 < payload["results"]["empirical_mean"] < 1.5

    def test_simulate_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "coverage", "--pi", "0.5",
                               "--trials", "50", "--replicates", "1000")
        assert code == 2
        assert "--seed" in err

    def test_binomial_rows_rejects_row_marginals(self, capsys):
        argv = ["simulate", "calibrate", "--scheme", "binomial-rows",
                "--row-totals", "100,100", "--col-marginals", ".5,.5",
                "--replicates", "1000", "--seed", "3", "--format", "json"]
        code, out, err = run_cli(capsys, *argv, "--row-marginals", ".9,.1")
        assert code == 2
        assert out == ""
        assert "--row-marginals does not apply to the binomial-rows scheme" in err
        assert "Traceback" not in err
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["results"]["reference_df"] == 1

    def test_text_output_shows_statistics(self, capsys, monkeypatch):
        monkeypatch.setenv("CATTAB_NO_COLOR", "1")
        code, out, _ = run_cli(capsys, "test", "homogeneity", "--input", VACCINE)
        assert code == 0
        assert "155.471" in out
        assert "187.98" in out


class TestExitCodes:
    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, "test", "independence",
                               "--input", "/nope/missing.csv")
        assert code == 2
        assert "cannot read" in err

    def test_domain_error_zero_margin(self, capsys, tmp_path):
        path = tmp_path / "zero_col.csv"
        path.write_text("table,x,y\na,1,0\nb,3,0\n")
        code, _, err = run_cli(capsys, "test", "independence",
                               "--input", str(path))
        assert code == 3
        assert "zero total" in err

    def test_domain_error_bad_indices(self, capsys):
        code, _, err = run_cli(capsys, "assoc", "odds-ratio", "--input",
                               SHOOTINGS, "--rows", "1,1")
        assert code == 3

    def test_input_error_bad_scores(self, capsys):
        code, _, err = run_cli(capsys, "test", "linear", "--input", SURVEY,
                               "--scores", "1:5")
        assert code == 2

    def test_input_error_bad_score_range(self, capsys):
        code, _, err = run_cli(capsys, "test", "linear", "--input", SURVEY,
                               "--scores", "1:5,a:b")
        assert code == 2
        assert "bad score range 'a:b'" in err

    def test_input_error_count_above_int64(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("table,x,y\na,1,99999999999999999999\nb,3,4\n")
        code, out, err = run_cli(capsys, "describe", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "line 2, column 3: count 99999999999999999999 exceeds" in err

    def test_input_error_comma_not_thousands_grouping(self, capsys, tmp_path):
        # Stripping every comma read this cell as 15 (n = 19, exit 0).
        path = tmp_path / "comma.csv"
        path.write_text('table,x,y\na,"1,5",1\nb,2,1\n')
        code, out, err = run_cli(capsys, "describe", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "line 2, column 2: expected an integer count, got '1,5'" in err

    @pytest.mark.parametrize("command", [["describe"], ["test", "independence"]])
    @pytest.mark.parametrize("rows", [
        # Two cells of 5e18 in one column: the int64 total wrapped negative
        # ("table total must be at least 1").
        ["a,5000000000000000000,1", "b,5000000000000000000,1"],
        # Four cells of 5e18: the total wrapped to a wrong positive; describe
        # exited 3 and test independence reported X^2 = 2.26e38.
        ["a,5000000000000000000,5000000000000000000",
         "b,5000000000000000000,5000000000000000000"],
    ])
    def test_input_error_table_total_above_int64(self, capsys, tmp_path, command, rows):
        path = tmp_path / "overflow.csv"
        path.write_text("table,x,y\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, *command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert "exceeds the largest supported total 9223372036854775807" in err
        assert "Traceback" not in err

    def test_independence_on_a_450x450_table(self, capsys, tmp_path):
        # df = 201,601; a null table puts X^2 near df, where the incomplete
        # gamma series and continued fraction did not converge.
        rng = np.random.default_rng(450)
        counts = rng.multinomial(12 * 450 * 450, np.full(450 * 450, 1 / 450**2)).reshape(450, 450)
        path = tmp_path / "large.csv"
        lines = ["table," + ",".join(f"c{j}" for j in range(450))]
        lines += [f"r{i}," + ",".join(map(str, row)) for i, row in enumerate(counts.tolist())]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "test", "independence", "--input", str(path),
                                 "--format", "json")
        assert code == 0, err
        results = json.loads(out)["results"]
        for key in ("pearson", "deviance"):
            assert results[key]["df"] == 449 * 449
            assert 1e-6 < results[key]["p_value"] < 1.0 - 1e-6

    def test_json_number_formatting(self, capsys):
        _, out, _ = run_cli(capsys, "test", "independence", "--input",
                            SHOOTINGS, "--format", "json")
        assert '"statistic": 20.06770267' in out


GOLDEN = Path(__file__).parent / "golden" / "readme_examples.json"


def _fixture_args(argv):
    return [str(fixture_path(arg[:-len(".csv")])) if arg.endswith(".csv") else arg
            for arg in argv]


@pytest.mark.parametrize("example", json.loads(GOLDEN.read_text()),
                         ids=lambda example: " ".join(example["argv"][:2]))
def test_readme_example_json_is_unchanged(capsys, example):
    """Every README example's JSON stdout, byte for byte as recorded in
    ``golden/readme_examples.json`` (fixture file names are resolved to
    the bundled fixtures)."""
    code, out, err = run_cli(capsys, *_fixture_args(example["argv"]))
    assert code == 0, err
    assert out == example["stdout"]
