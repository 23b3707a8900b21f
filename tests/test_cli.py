import contextlib
import csv
import io
import json
import math
import re
import runpy
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cattab import cli
from cattab.cli import main
from cattab.fixtures import fixture_path
from cattab.io import (
    InputFormatError,
    _first_line_of,
    counts_csv_text,
    parse_counts_csv,
    parse_records_csv,
)
from cattab.table import crosstab

SHOOTINGS = str(fixture_path("police_shootings"))
VACCINE = str(fixture_path("vaccine_trial"))
SURVEY = str(fixture_path("life_quality_survey"))
# A linear-association calibration on a 2x2 scheme, less its --scores.
_MH_CALIBRATE = ["simulate", "calibrate", "--test", "mantel-haenszel", "--n", "100",
                 "--row-marginals", ".5,.5", "--col-marginals", ".5,.5", "--replicates", "1000",
                 "--seed", "1"]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
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
        with pytest.raises(InputFormatError,
                           match="line 2, column 2: count must be between 0 and .*, got -1234"):
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
        with pytest.raises(InputFormatError,
                           match="line 3, column 3: count must be between 0 and "):
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

    def test_row_gone_when_the_file_is_reread(self, tmp_path):
        # A bad row's line is found by reading the file again; a row that
        # is no longer there means the file changed under the reader.
        path = tmp_path / "records.csv"
        path.write_text("r,c\na,x\n")
        with pytest.raises(InputFormatError, match="changed while it was being read"):
            _first_line_of(path, ("a", "x", "y"))

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

    @pytest.mark.parametrize("options, flag", [
        (["--given", "rows"], "--given"), (["--format", "json"], "--format json"),
        (["--format", "json", "--given", "cols"], "--given"),
    ])
    def test_describe_emit_counts_refuses_options_it_ignores(self, capsys, options, flag):
        code, out, err = run_cli(capsys, "describe", "--input", SHOOTINGS, "--emit-counts",
                                 *options)
        assert (code, out) == (2, "")
        assert err == (f"cattab: error: {flag} does not apply with --emit-counts, "
                       "which prints only the counts CSV\n")

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

    def test_proportion_subnormal_null(self, capsys):
        # The null SE underflowed to 0.0: a ZeroDivisionError traceback.
        score = run_json(capsys, "test", "proportion", "--null", "5e-324",
                         "--successes", "1", "--trials", "2")["results"]["score"]
        assert score["statistic"] == pytest.approx(3.181212452e161, rel=1e-9)
        assert score["null_se"] == pytest.approx(0.5 / 3.181212452e161, rel=1e-9)

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

    def test_odds_ratio_infinite(self, capsys, tmp_path):
        # A zero denominator cell: +inf, written to JSON as the string "inf".
        path = tmp_path / "inf.csv"
        path.write_text("table,x,y\na,3,0\nb,0,4\n")
        env = run_json(capsys, "assoc", "odds-ratio", "--input", str(path))
        assert env["results"]["odds_ratio"] == "inf"
        assert env["results"]["odds"] == {"x": "inf", "y": 0}
        assert env["warnings"] == ["odds ratio is infinite: a denominator cell is zero "
                                   "(rerun with --zero-correction for a finite estimate)"]

    def test_odds_ratio_with_undefined_odds(self, capsys, tmp_path):
        # Both cells of column x are zero: its odds are undefined, the
        # corrected odds ratio is not.
        path = tmp_path / "zero_column.csv"
        path.write_text("table,x,y\na,0,3\nb,0,4\n")
        argv = ("assoc", "odds-ratio", "--input", str(path), "--zero-correction")
        env = run_json(capsys, *argv)
        assert env["results"]["odds"] == {"x": None, "y": 0.75}
        assert env["warnings"] == ["odds undefined in column 'x': both cells are zero"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "  odds (a vs b) given x: undefined\n" in out
        assert out.endswith("warning: odds undefined in column 'x': both cells are zero\n")

    def test_correlation_defaults(self, capsys):
        env = run_json(capsys, "assoc", "correlation", "--input", SHOOTINGS)
        assert env["results"]["correlation"] == pytest.approx(-0.059, abs=1e-3)

    def test_dist_binomial(self, capsys):
        env = run_json(capsys, "dist", "binomial", "--trials", "10",
                       "--prob", "0.2", "--count", "7")
        results = env["results"]
        assert results["pmf"] == pytest.approx(0.000786432, rel=1e-9)
        assert results["mean"] == pytest.approx(2.0)

    @pytest.mark.parametrize("trials, log_pmf", [
        # ln P(n/2 of n at p = .5), mpmath at 50 digits. The log-gamma form
        # printed a pmf of 1.59e15 at 1e16 trials and raised OverflowError
        # at 1e18.
        (10**16, -18.64647209659709293),
        (10**18, -20.949057189591138589),
    ])
    def test_dist_binomial_at_huge_trials(self, capsys, trials, log_pmf):
        env = run_json(capsys, "dist", "binomial", "--trials", str(trials),
                       "--prob", ".5", "--count", str(trials // 2))
        results = env["results"]
        assert results["log_pmf"] == pytest.approx(log_pmf, rel=1e-9)
        assert results["pmf"] == pytest.approx(math.exp(log_pmf), rel=1e-9)

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
        assert payload["results"]["rng_algorithm"] == "numpy-pcg64-sequential"
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

    def test_simulate_calibrate_at_small_n(self, capsys):
        # A replicate with an empty row or column is counted and left
        # out; it used to end the run with exit 3.
        env = run_json(capsys, "simulate", "calibrate", "--scheme", "multinomial",
                       "--n", "10", "--row-marginals", ".5,.5", "--col-marginals", ".5,.5",
                       "--replicates", "1000", "--seed", "1")
        results = env["results"]
        assert list(results)[2:4] == ["replicates", "degenerate_replicates"]
        assert results["degenerate_replicates"] == 1

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

    @pytest.mark.parametrize("scheme_args, extra", [
        (("--scheme", "multinomial", "--n", "200", "--row-marginals", ".5,.5"),
         ("--row-totals", "5,5")),
        (("--scheme", "multinomial", "--n", "200", "--row-marginals", ".5,.5"),
         ("--total-rate", "9")),
        (("--scheme", "binomial-rows", "--row-totals", "100,100"), ("--n", "200")),
        (("--scheme", "binomial-rows", "--row-totals", "100,100"), ("--total-rate", "9")),
        (("--scheme", "poisson", "--total-rate", "900", "--row-marginals", ".5,.5"),
         ("--n", "200")),
        (("--scheme", "poisson", "--total-rate", "900", "--row-marginals", ".5,.5"),
         ("--row-totals", "5,5")),
    ])
    def test_scheme_rejects_options_it_does_not_take(self, capsys, scheme_args, extra):
        argv = ["simulate", "calibrate", *scheme_args, "--col-marginals", ".5,.5",
                "--replicates", "1000", "--seed", "1", "--format", "json"]
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert f"{extra[0]} does not apply to the {scheme_args[1]} scheme" in err
        assert "Traceback" not in err
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0

    def test_text_output_shows_statistics(self, capsys):
        code, out, _ = run_cli(capsys, "test", "homogeneity", "--input", VACCINE)
        assert code == 0
        assert "155.471" in out
        assert "187.98" in out

    def test_text_output_is_the_same_on_a_terminal(self, capsys, monkeypatch):
        # The command name was written bold, in ANSI escapes, when stdout
        # was a terminal.
        argv = ["test", "independence", "--input", SHOOTINGS]
        _, piped, _ = run_cli(capsys, *argv)

        class Terminal(io.StringIO):
            def isatty(self):
                return True

        terminal = Terminal()
        monkeypatch.setattr(sys, "stdout", terminal)
        assert main(argv) == 0
        assert terminal.getvalue() == piped

    def test_module_entry_point_exits_with_mains_code(self, capsys, monkeypatch):
        # python -m cattab, in process.
        monkeypatch.setattr(sys, "argv", ["cattab", "dist", "poisson", "--rate", "3",
                                          "--count", "2"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("cattab", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("dist poisson\n")


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

    @pytest.mark.parametrize("argv", [
        ["test", "proportion", "--successes", "3", "--trials", "10", "--null", ".5"],
        ["simulate", "coverage", "--pi", ".5", "--trials", "10", "--replicates", "1000",
         "--seed", "1"],
    ])
    def test_domain_error_level_too_close_to_one(self, capsys, argv):
        # Reported as "normal_quantile requires 0 < p < 1, got 1.0".
        code, out, err = run_cli(capsys, *argv, "--level", "0.9999999999999999")
        assert code == 3
        assert out == ""
        assert err == ("cattab: error: confidence level 0.9999999999999999 is too close "
                       "to 1: 0.5 * (1 + level) rounds to 1, whose normal quantile is "
                       "infinite\n")

    def test_input_error_bad_scores(self, capsys):
        code, _, err = run_cli(capsys, "test", "linear", "--input", SURVEY,
                               "--scores", "1:5")
        assert code == 2

    def test_input_error_bad_score_range(self, capsys):
        code, _, err = run_cli(capsys, "test", "linear", "--input", SURVEY,
                               "--scores", "1:5,a:b")
        assert code == 2
        assert "bad score range 'a:b'" in err

    @pytest.mark.parametrize("scores, message", [
        ("5:1,1:3", "empty score range '5:1'"),
        ("a,b;1,2,3", "bad score list 'a,b'"),
    ])
    def test_input_error_malformed_scores(self, capsys, scores, message):
        code, out, err = run_cli(capsys, "test", "linear", "--input", SURVEY,
                                 "--scores", scores)
        assert (code, out, err) == (2, "", f"cattab: error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["dist", "multinomial", "--trials", "3", "--probs", ".2,x", "--counts", "1,2"],
         "bad --probs value '.2,x'"),
        (["assoc", "odds-ratio", "--input", SHOOTINGS, "--rows", "1,2,3"],
         "--rows needs exactly two 1-based indices"),
        (["assoc", "odds-ratio", "--input", SHOOTINGS, "--rows", "1,99"],
         "--rows index 99 out of range 1..2"),
    ], ids=["bad value", "three indices", "index out of range"])
    def test_input_error_malformed_list_option(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"cattab: error: {message}\n")

    def test_domain_error_condition_on_empty_column(self, capsys, tmp_path):
        path = tmp_path / "empty_column.csv"
        path.write_text("table,x,y\na,3,0\nb,4,0\n")
        code, out, err = run_cli(capsys, "describe", "--input", str(path), "--given", "cols")
        assert (code, out, err) == (3, "", "cattab: error: cannot condition on empty "
                                           "column 'y'\n")

    def test_input_error_header_with_one_column(self, capsys, tmp_path):
        path = tmp_path / "one_column.csv"
        path.write_text("table,x\na,1\nb,2\n")
        code, out, err = run_cli(capsys, "describe", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"cattab: error: {path}: header must name at least 2 columns, got 1\n"

    def test_input_error_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"table,x,y\na,1,2\nb,\xff,4\n")
        code, out, err = run_cli(capsys, "describe", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"cattab: error: {path} is not valid UTF-8")

    def test_input_error_count_above_int64(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("table,x,y\na,1,99999999999999999999\nb,3,4\n")
        code, out, err = run_cli(capsys, "describe", "--input", str(path))
        assert code == 2
        assert out == ""
        assert ("line 2, column 3: count must be between 0 and 9223372036854775807, "
                "got 99999999999999999999") in err

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
        assert "table total must be between 0 and 9223372036854775807, got" in err
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

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "calibrate", "--n", "100000000000000000000", "--row-marginals", ".5,.5",
          "--col-marginals", ".5,.5"], "total must be between 0 and 9223372036854775807"),
        (["simulate", "calibrate", "--scheme", "binomial-rows",
          "--row-totals", "100000000000000000000,5", "--col-marginals", ".5,.5"],
         "row_totals must be between 0 and 9223372036854775807"),
        (["simulate", "coverage", "--pi", ".5", "--trials", "100000000000000000000"],
         "trials must be between 0 and 9223372036854775807"),
        (["simulate", "calibrate", "--n", "100", "--row-marginals", "nan,.5",
          "--col-marginals", ".5,.5"], "--row-marginals must be finite and in [0, 1], got nan"),
        (["simulate", "calibrate", "--scheme", "binomial-rows", "--row-totals", "5,5",
          "--col-marginals", "nan,.5"], "--col-marginals must be finite and in [0, 1], got nan"),
        (["simulate", "calibrate", "--scheme", "poisson", "--total-rate", "nan",
          "--row-marginals", ".5,.5", "--col-marginals", ".5,.5"], "cell_rates must be finite"),
        (["dist", "poisson", "--rate", "inf", "--count", "3"], "rate must be finite"),
        # Margins that are not probabilities, refused before the Poisson
        # rates are formed, which would sum to 5x --total-rate or overflow.
        (["simulate", "calibrate", "--scheme", "poisson", "--total-rate", "900",
          "--row-marginals", "2,3", "--col-marginals", ".5,.5"],
         "--row-marginals must be finite and in [0, 1], got 2.0"),
        (["simulate", "calibrate", "--scheme", "poisson", "--total-rate", "900",
          "--row-marginals", ".5,.5", "--col-marginals", "1e308,1e308"],
         "--col-marginals must be finite and in [0, 1], got 1e+308"),
        (["simulate", "calibrate", "--n", "100", "--row-marginals", "1.5,-.5",
          "--col-marginals", ".5,.5"], "--row-marginals must be finite and in [0, 1], got 1.5"),
        (["simulate", "calibrate", "--n", "100", "--row-marginals", ".5,.4",
          "--col-marginals", ".5,.5"], "--row-marginals must sum to 1, got 0.9"),
        # Counts beyond int64: each of these exited 1 with an OverflowError
        # traceback.
        (["test", "proportion", "--successes", "3", "--null", ".5", "--trials", str(10**400)],
         "trials must be between 0 and 9223372036854775807, got 1000"),
        (["dist", "binomial", "--trials", str(10**400), "--prob", ".5", "--count", "3"],
         "trials must be between 0 and 9223372036854775807, got 1000"),
        (["dist", "poisson", "--rate", "3", "--count", str(10**400)],
         "count must be between 0 and 9223372036854775807, got 1000"),
        (["dist", "multinomial", "--trials", str(2**63), "--probs", ".5,.5",
          "--counts", f"{2**62},{2**62}"], "trials must be between 0 and "),
        # Scores that are not finite or could overflow a sum of squares:
        # these exited 0 with r = 1 or r = 0, or warned on stderr.
        (["test", "linear", "--input", SURVEY, "--scores", "1,2,3,4,nan;1,2,3,4,5"],
         "row scores must be 0 or between 1e-60 and 1e+66 in magnitude"),
        (["test", "linear", "--input", SURVEY, "--scores", "1,2,3,4,5;1,2,3,4,inf"],
         "column scores must be 0 or between 1e-60 and 1e+66 in magnitude"),
        (["assoc", "correlation", "--input", SURVEY,
          "--scores", "1e308,1.1e308,1.2e308,1.3e308,1.4e308;1,2,3,4,5"],
         "row scores must be 0 or between"),
        (["assoc", "correlation", "--input", SURVEY,
          "--scores", "1e100,2e100,3e100,4e100,5e100;1e100,2e100,3e100,4e100,5e100"],
         "row scores must be 0 or between 1e-60 and 1e+66 in magnitude"),
        # The product of the two sums of squares underflowed to 0: a
        # ZeroDivisionError traceback, at 1e-100 scores and at tiny margins.
        (["assoc", "correlation", "--input", SURVEY,
          "--scores", "1e-100,2e-100,3e-100,4e-100,5e-100;1e-100,2e-100,3e-100,4e-100,5e-100"],
         "row scores must be 0 or between 1e-60 and 1e+66 in magnitude"),
        (["simulate", "calibrate", "--n", "100", "--row-marginals", "1e-300,1",
          "--col-marginals", "1e-300,1", "--test", "mantel-haenszel"],
         "the statistic is undefined in all 1000 replicates"),
        # Each Poisson rate within the sampler's limit, their sum beyond
        # int64: every drawn table was refused, so this read "the
        # statistic is undefined in all 1000 replicates".
        *((["simulate", "calibrate", "--scheme", "poisson", "--total-rate", total,
            "--row-marginals", ".5,.5", "--col-marginals", ".5,.5"],
          "cell_rates must be at most 9.223372006484771e+18 in total")
          for total in ("3e19", "1.5e19")),
    ])
    def test_domain_error_out_of_range_parameter(self, capsys, argv, message):
        seed = ["--replicates", "1000", "--seed", "1"] if argv[0] == "simulate" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RuntimeWarnings included
            code, out, err = run_cli(capsys, *argv, *seed)
        assert code == 3
        assert out == ""
        assert err.startswith("cattab: error: ") and message in err
        assert err.count("\n") == 1

    def test_domain_error_poisson_rate_above_the_sampler_limit(self, capsys):
        # Exited 3 with numpy's "lam value too large", which names no option.
        code, out, err = run_cli(capsys, "simulate", "calibrate", "--scheme", "poisson",
                                 "--total-rate", "1e30", "--row-marginals", ".5,.5",
                                 "--col-marginals", ".5,.5", "--replicates", "1000",
                                 "--seed", "1")
        assert (code, out) == (3, "")
        assert err.startswith("cattab: error: cell_rates must be at most 9.223372006484771e+18")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "calibrate", "--n", "100", "--row-marginals", ".5,.5",
         "--col-marginals", ".5,.5"],
        ["simulate", "coverage", "--pi", ".5", "--trials", "10"],
    ], ids=["calibrate", "coverage"])
    def test_domain_error_replicates_beyond_memory(self, capsys, argv):
        # The replicate array cannot be allocated; this was numpy's
        # _ArrayMemoryError traceback and exit 1.
        code, out, err = run_cli(capsys, *argv, "--replicates", str(10**18), "--seed", "1")
        assert (code, out) == (3, "")
        assert err.startswith("cattab: error: not enough memory for this request")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, scores, message", [
        (["test", "linear", "--input", SURVEY], f"1:{10**18},1:2",
         "need 5 row scores, got 1000000000000000000"),
        (["assoc", "correlation", "--input", SURVEY], f"1:{10**18},1:2",
         "need 5 row scores, got 1000000000000000000"),
        (_MH_CALIBRATE, f"1:{10**18},1:2", "need 2 row scores, got 1000000000000000000"),
        # A comma list is built, then checked by the library: this was
        # numpy's "shapes (2,) and (3,) not aligned".
        (_MH_CALIBRATE, "1,2,3;1,2", "need 2 row scores, got 3"),
    ], ids=["linear", "correlation", "calibrate", "calibrate-list"])
    def test_domain_error_score_range_longer_than_its_axis(self, capsys, argv, scores, message):
        # The range is refused before it is built; 1:10**18 used to build
        # a list of 10**18 scores.
        code, out, err = run_cli(capsys, *argv, "--scores", scores)
        assert (code, out, err) == (3, "", f"cattab: error: {message}\n")

    @pytest.mark.parametrize("test", ["pearson", "deviance"])
    @pytest.mark.parametrize("scores", ["1,5;1,9", "junk"])
    def test_input_error_scores_with_a_chi_square_calibration(self, capsys, test, scores):
        # Only mantel-haenszel takes scores; these exited 0 with the scores
        # ignored. The option is refused before its value is parsed.
        code, out, err = run_cli(capsys, "simulate", "calibrate", "--n", "100",
                                 "--row-marginals", ".5,.5", "--col-marginals", ".5,.5",
                                 "--replicates", "1000", "--seed", "1", "--test", test,
                                 "--scores", scores)
        assert (code, out) == (2, "")
        assert err == "cattab: error: --scores applies only to --test mantel-haenszel\n"

    def test_domain_error_odds_ratio_zero_over_zero(self, capsys, tmp_path):
        # Both cross products are zero; this read "inf" both ways round.
        path = tmp_path / "zero_row.csv"
        path.write_text("table,x,y\na,0,0\nb,3,4\n")
        code, out, err = run_cli(capsys, "assoc", "odds-ratio", "--input", str(path))
        assert (code, out) == (3, "")
        assert "odds ratio undefined" in err
        env = run_json(capsys, "assoc", "odds-ratio", "--input", str(path),
                       "--zero-correction")
        assert env["results"]["odds_ratio"] == pytest.approx(0.5 * 4.5 / (3.5 * 0.5))

    def test_json_number_formatting(self, capsys):
        _, out, _ = run_cli(capsys, "test", "independence", "--input",
                            SHOOTINGS, "--format", "json")
        assert '"statistic": 20.06770267' in out

    def test_json_refuses_a_type_it_cannot_write(self):
        with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
            cli._json_dumps(object())


GOLDEN_DIR = Path(__file__).parent / "golden"


def _fixture_args(argv):
    """Resolve ``*.csv`` arguments: a file in ``golden/`` if there is
    one by that name, otherwise the bundled fixture."""
    def resolve(arg):
        local = GOLDEN_DIR / arg
        return str(local if local.exists() else fixture_path(arg[:-len(".csv")]))
    return [resolve(arg) if arg.endswith(".csv") else arg for arg in argv]


def _golden(name):
    return json.loads((GOLDEN_DIR / name).read_text())


@pytest.mark.parametrize("example", _golden("readme_examples.json"),
                         ids=lambda example: " ".join(example["argv"][:2]))
def test_readme_example_json_is_unchanged(capsys, example):
    """Every README example's JSON stdout, byte for byte as recorded in
    ``golden/readme_examples.json`` (fixture file names are resolved to
    the bundled fixtures)."""
    code, out, err = run_cli(capsys, *_fixture_args(example["argv"]))
    assert code == 0, err
    assert out == example["stdout"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_statistic_near_int64_exits_zero(capsys, fmt):
    """A 16x16 table with diagonal cells 242574296131211638: X^2 = 5.8e19 at
    df 225, whose p-value's continued fraction raised RuntimeError, printed
    as a traceback with exit 1."""
    code, out, err = run_cli(capsys, "test", "independence", "--input",
                             str(GOLDEN_DIR / "huge_diagonal_16x16.csv"), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        results = json.loads(out)["results"]
        assert results["pearson"]["p_value"] == results["deviance"]["p_value"] == 0


@pytest.mark.parametrize("example", _golden("cli_outputs.json"),
                         ids=lambda example: " ".join(example["argv"]))
def test_cli_output_is_unchanged(capsys, monkeypatch, example):
    """Exit code, stdout and stderr of the README examples in text form,
    the benchmark's CLI commands (``golden/records.csv`` standing in for
    its large record file), each calibration scheme and some input and
    domain errors, in text and JSON, byte for byte as recorded in
    ``golden/cli_outputs.json``."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    code, out, err = run_cli(capsys, *_fixture_args(example["argv"]))
    assert (code, out, err) == (example["exit_code"], example["stdout"], example["stderr"])


# ---------------------------------------------------------------------------
# Contract fuzz: argv drawn from the real grammar, every subcommand with
# its own options, and CSV bodies written to a file. Whatever is drawn,
# main exits 0, 2 or 3 and never prints a traceback.

# Each option's value is one of a few valid ones five times in six, so
# that a command often gets past its checks and runs; otherwise it is 0,
# a negative, 1e18-scale or over-int64 integer, nan, an infinity or -0.0,
# or an empty string or junk.
_BIG_INTS = [str(10**16), str(5 * 10**17), str(10**18), str(2**63 - 1), str(2**63),
             str(10**30), str(10**400)]
_EDGE = ["0", "-1", "-7", *_BIG_INTS, "-0.0", "-0.5", "nan", "inf", "-inf", "1e18", "1e308",
         "5e-324", "2.5", "", " ", "abc", ",", ";", ":", "1:2:3", ",,1", "1,,2", "0x10",
         "1_000", "\uff11", "\x00", "--", "1e", "[1]"]


@st.composite
def _pick(draw, valid, risky=st.sampled_from(_EDGE)):
    if draw(st.integers(0, 5)) < 5:
        return draw(st.sampled_from(valid) if isinstance(valid, list) else valid)
    return draw(risky)


_EDGE_LIST = st.lists(st.sampled_from(_EDGE), max_size=4).map(",".join)
_COUNT = _pick(["1", "2", "3", "7", "10", "100"])
_PROB = _pick([".5", ".25", ".2", ".95", "0.999"])
_RATE = _pick(["0.5", "3", "900"])
_PROBS = _pick([".5,.5", ".25,.75", ".2,.3,.5", ".2,.8"], st.one_of(_EDGE_LIST, _COUNT))
_TOTALS = _pick(["5,5", "100,100", "1,2", "30,10"], st.one_of(_EDGE_LIST, _COUNT))
_INDICES = _pick(["1,2", "2,1", "1,3", "2,2"], st.one_of(_EDGE_LIST, _COUNT))
# Full-length score lists for the 2-, 3- and 5-category axes the bodies
# and fixtures have, with one non-finite score or every score at 1e100,
# 1e307 or 1e-100 scale.
_SCALED_SCORES = [";".join([",".join(f"{k}{scale}" for k in range(1, n + 1))] * 2)
                  for n in (2, 3, 5) for scale in ("e100", "e307", "e-100")]
_SCORES = _pick(["1:5,1:5", "1:2,1:2", "1:3,1:4", "1,2;1,2", "0,1;1,3,4"], st.one_of(
    st.tuples(*[st.sampled_from(["0", "1", "2", "-3", *_BIG_INTS])] * 4).map(
        lambda v: f"{v[0]}:{v[1]},{v[2]}:{v[3]}"),
    st.tuples(_TOTALS, _PROBS).map(";".join), st.sampled_from(_EDGE),
    st.sampled_from(["1,nan;1,2", "1,2;1,inf", "1,2,-inf;1,2,3", "1,2,3,4,nan;1,2,3,4,5",
                     *_SCALED_SCORES])))
# Below 2,000 a case runs in well under a second; at 10**15 and more the
# replicate array cannot be allocated and the command fails at once. The
# range between is left out: a single case there runs for minutes or
# exhausts memory.
_REPLICATES = _pick(["1000", "2000"], st.one_of(
    st.sampled_from(["-1", "0", "999", str(10**15), str(10**18), str(2**63 - 1)]),
    st.integers(-5, 2000).map(str), st.integers(10**15, 10**19).map(str), st.just("abc")))


def _choice(valid, invalid):
    return _pick(valid, st.sampled_from(invalid))


_FORMAT = {"--format": _choice(["text", "json"], ["xml"])}
_SUBCOMMANDS = {
    ("describe",): {"--given": _choice(["rows", "cols"], ["diag"]), "--emit-counts": None},
    ("test", "independence"): {}, ("test", "homogeneity"): {},
    ("test", "linear"): {"--scores": _SCORES},
    ("test", "proportion"): {"--successes": _COUNT, "--trials": _COUNT, "--null": _PROB,
                             "--sided": _choice(["two", "upper", "lower"], ["left"]),
                             "--level": _PROB},
    ("assoc", "odds-ratio"): {"--rows": _INDICES, "--cols": _INDICES,
                              "--zero-correction": None},
    ("assoc", "correlation"): {"--scores": _SCORES},
    ("dist", "binomial"): {"--trials": _COUNT, "--prob": _PROB, "--count": _COUNT},
    ("dist", "multinomial"): {"--trials": _COUNT, "--probs": _PROBS, "--counts": _TOTALS},
    ("dist", "poisson"): {"--rate": _RATE, "--count": _COUNT},
    ("simulate", "calibrate"): {
        "--seed": _COUNT, "--replicates": _REPLICATES,
        "--test": _choice(["pearson", "deviance", "mantel-haenszel"], ["t"]),
        "--scores": _SCORES},
    ("simulate", "coverage"): {"--seed": _COUNT, "--replicates": _REPLICATES,
                               "--pi": _PROB, "--trials": _COUNT, "--level": _PROB},
}
_SCHEME_OPTIONS = {"multinomial": {"--n": _COUNT, "--row-marginals": _PROBS,
                                   "--col-marginals": _PROBS},
                   "binomial-rows": {"--row-totals": _TOTALS, "--col-marginals": _PROBS},
                   "poisson": {"--total-rate": _RATE, "--row-marginals": _PROBS,
                               "--col-marginals": _PROBS}}
_TABLE_COMMANDS = {("describe",), ("test", "independence"), ("test", "homogeneity"),
                   ("test", "linear"), ("assoc", "odds-ratio"), ("assoc", "correlation")}

_CELL = _pick(["0", "1", "3", "12", "250"], st.one_of(st.sampled_from(_EDGE), st.sampled_from(
    ['"1,000"', '"1,5"', '"a""b"', '"x\ny"', "x" * 140_000, " 3 ", "'4'"])))
_ROW = st.lists(_CELL, max_size=5).map(",".join)
# Blank lines, ragged rows, quotes and huge cells, or nothing at all.
_JUNK_BODY = st.lists(st.one_of(st.just(""), _ROW), max_size=7).map("\n".join)
_BODIES = {
    "counts": _pick(["table,x,y\na,1,2\nb,3,4", "table,x,y,z\na,0,2,5\nb,0,4,1",
                     "t,x,y,z\na,5,0,1\nb,2,0,1\nc,9,9,1", "table,x,y\na,0,0\nb,3,4"],
                    _JUNK_BODY),
    "records": _pick(["r,c\na,x\na,y\nb,x\nb,y\nb,y", "r,c\na,x\nb,x",
                      "r,c\n\na , x\n\"b\",y\nc,z\na,z"], _JUNK_BODY),
}


@st.composite
def _argv(draw):
    """(argv, CSV body) for one command, its options drawn from its own
    grammar; "{csv}" in argv stands for the body's path."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    options = {**_FORMAT, **_SUBCOMMANDS[command]}
    if command == ("simulate", "calibrate"):
        scheme = draw(_choice(sorted(_SCHEME_OPTIONS), ["other"]))
        options["--scheme"] = st.just(scheme)
        options.update(_SCHEME_OPTIONS.get(scheme, {}))
        if not draw(st.integers(0, 5)):  # an option of another scheme
            other = draw(st.sampled_from(sorted(_SCHEME_OPTIONS)))
            options.update(_SCHEME_OPTIONS[other])
    fmt = draw(_choice(["counts", "records"], ["junk"]))
    body = draw(_BODIES.get(fmt, _JUNK_BODY))
    argv = list(command)
    if command in _TABLE_COMMANDS or not draw(st.integers(0, 5)):
        argv += ["--input-format", fmt,
                 "--input", draw(_choice(["{csv}"], ["{missing}", SURVEY]))]
    for flag in sorted(options):
        if not draw(st.integers(0, 7)):  # each option is left out one time in eight
            continue
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    if command[0] == "simulate" and "--replicates" not in argv:
        argv += ["--replicates", draw(_REPLICATES)]  # the default, 10,000, is slow
    return argv, body


@given(case=_argv())
# A subnormal null: the score test's standard error underflowed to 0.0.
@example(case=(["test", "proportion", "--null", "5e-324", "--successes", "1",
                "--trials", "2"], ""))
# A margin of 1e308: the Poisson rates overflowed with a numpy warning.
@example(case=(["simulate", "calibrate", "--scheme", "poisson", "--total-rate", "900",
                "--row-marginals", "1e308", "--col-marginals", ".5,.5",
                "--replicates", "1000", "--seed", "1"], ""))
# An infinite odds ratio in a JSON report, written as the string "inf".
@example(case=(["assoc", "odds-ratio", "--input", "{csv}", "--format", "json"],
               "table,x,y\na,3,0\nb,0,4"))
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_contract_fuzz(tmp_path, case):
    argv, body = case
    csv_path = tmp_path / "input.csv"
    csv_path.write_text(body)
    paths = {"{csv}": str(csv_path), "{missing}": str(tmp_path / "missing.csv")}
    argv = [paths.get(arg, arg) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        assert stderr.getvalue() == ""
    if code == 0 and "json" in argv:
        # Valid JSON with no NaN or infinity token: no payload holds NaN,
        # and an infinity is written as a string.
        json.loads(stdout.getvalue(), parse_constant=_refuse_constant)


def _refuse_constant(token):
    raise AssertionError(f"JSON report holds {token}")


# ---------------------------------------------------------------------------
# Grammar: each command's parser takes exactly the options the fuzz above
# draws for it, and refuses every other option any command takes under
# its own usage line.


def _takes(command):
    flags = {*_FORMAT, *_SUBCOMMANDS[command]}
    if command in _TABLE_COMMANDS:
        flags |= {"--input", "--input-format"}
    if command == ("simulate", "calibrate"):
        flags |= {"--scheme", *(flag for opts in _SCHEME_OPTIONS.values() for flag in opts)}
    return flags


_ALL_FLAGS = set().union(*map(_takes, _SUBCOMMANDS))


def _required(command, but=None):
    """The command's required options, each with the value 1 (parsed,
    never run), leaving out ``but``."""
    return [arg for flag in sorted(_takes(command))
            if cli._OPTIONS[flag].get("required") and flag != but for arg in (flag, "1")]


def _refused(capsys, command, options, words):
    with pytest.raises(SystemExit) as exc:
        main([*command, *options])
    code, out, err = exc.value.code, *capsys.readouterr()
    assert (code, out) == (2, ""), words
    command = " ".join(command)
    assert err.startswith(f"usage: cattab {command} [-h]")
    assert err.endswith(f"\ncattab {command}: error: unrecognized arguments: {words}\n")


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS), ids=" ".join)
def test_parser_takes_its_own_options(command):
    parser = cli._build_parser()
    for flag in sorted(_takes(command)):
        keywords = cli._OPTIONS[flag]
        value = [] if keywords.get("action") == "store_true" else [
            keywords.get("choices", ["1"])[0]]
        args = parser.parse_args([*command, *_required(command, but=flag), flag, *value])
        assert getattr(args, flag[2:].replace("-", "_")) not in (None, False), flag


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS), ids=" ".join)
def test_parser_refuses_options_of_other_commands(capsys, command):
    for flag in sorted(_ALL_FLAGS - _takes(command)):
        _refused(capsys, command, [*_required(command), flag], flag)


@pytest.mark.parametrize("command, flag, value", [
    # Each flag is a prefix of one the command takes (--counts, --probs,
    # --null, --replicates), which argparse would otherwise read it as.
    (("dist", "multinomial"), "--count", "7,3"),
    (("dist", "multinomial"), "--prob", ".2,.8"),
    (("test", "proportion"), "--n", ".5"),
    (("simulate", "coverage"), "--rep", "1000"),
], ids=["--count", "--prob", "--n", "--rep"])
def test_parser_refuses_abbreviated_options(capsys, command, flag, value):
    _refused(capsys, command, [*_required(command), flag, value], f"{flag} {value}")


def test_refused_option_is_reported_under_the_commands_usage(capsys):
    # This printed the top-level usage line, "usage: cattab [-h] [--version] {...}".
    _refused(capsys, ("dist", "binomial"),
             ["--trials", "10", "--prob", ".2", "--count", "7", "--input", "x.csv"],
             "--input x.csv")


def test_required_options():
    # Each is required by every command that takes it; the scheme options
    # are required per --scheme, which the parser cannot express.
    assert {flag for flag, keywords in cli._OPTIONS.items() if keywords.get("required")} == {
        "--input", "--seed", "--successes", "--trials", "--null", "--prob", "--count",
        "--probs", "--counts", "--rate", "--pi"}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS), ids=" ".join)
def test_missing_required_option_is_a_usage_error(capsys, command):
    for flag in _required(command)[::2]:
        code, out, err = run_cli(capsys, *command, *_required(command, but=flag))
        assert (code, out) == (2, ""), flag
        command_name = " ".join(command)
        assert err.startswith(f"usage: cattab {command_name} [-h]")
        assert err.endswith(
            f"\ncattab {command_name}: error: the following arguments are required: {flag}\n")


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS), ids=" ".join)
def test_help_shows_required_options_unbracketed(capsys, command):
    code, out, _ = run_cli(capsys, *command, "--help")
    assert code == 0
    usage = out.split("\n\n")[0]
    for flag in sorted(_takes(command)):
        required = bool(cli._OPTIONS[flag].get("required"))
        assert bool(re.search(rf"\s{flag}\s", usage)) == required, (flag, usage)
        assert bool(re.search(rf"\[{flag}[\s\]]", usage)) != required, (flag, usage)


_EMPTY_SCORES = ("bad --scores value '': expected ROWS,COLS with colon ranges, "
                 "or ROWS;COLS with comma lists")


@pytest.mark.parametrize("argv, message", [
    (["dist", "multinomial", "--trials", "3", "--probs", ".5,.5", "--counts", ""],
     "--counts must list at least one number"),
    (["simulate", "calibrate", "--seed", "1", "--scheme", "binomial-rows",
      "--row-totals", "", "--col-marginals", ".5,.5"], "--row-totals must list at least one number"),
    # An empty --scores is refused, not read as no scores.
    (["test", "linear", "--input", SURVEY, "--scores", ""], _EMPTY_SCORES),
    (["assoc", "correlation", "--input", SURVEY, "--scores", ""], _EMPTY_SCORES),
    (["simulate", "calibrate", "--seed", "1", "--n", "100", "--row-marginals", ".5,.5",
      "--col-marginals", ".5,.5", "--test", "mantel-haenszel", "--scores", ""], _EMPTY_SCORES),
    # An empty side of --scores, too.
    *((["test", "linear", "--input", SURVEY, "--scores", value],
       f"--scores must list at least one {axis} score")
      for value, axis in [(",", "row"), (";", "row"), ("1:5,", "column"), ("1,2;", "column")]),
])
def test_empty_list_option_is_an_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"cattab: error: {message}\n")
