"""``cli`` workload: one ``python -m cattab ...`` subprocess per op.

Op: one CLI invocation, run to completion before the next starts; work
unit: one invocation.

Why: this is what a CLI user waits for. The commands cycle through the
README examples -- describe, test independence / homogeneity / linear /
proportion, assoc, dist binomial / multinomial / poisson, and two
``simulate`` commands at ``--replicates 1000`` -- in both ``--format
text`` and ``--format json``. Small invocations are bound by interpreter
start-up and ``import cattab``. Four invocations in fifteen read a
50,000-row ``--input-format records`` CSV, written at set-up from the
workload seed; those are bound by io and ``crosstab`` and make up the
latency tail (with the ``simulate calibrate`` command, which takes about
as long), so io is stressed here and nowhere else.

Known defect, probed outside the timed phase: a small-n ``simulate
calibrate`` exits 3 ("row 'r1' has zero total"), because one replicate
with an empty margin aborts the whole calibration.

Checks: exit code 0, stdout byte-identical to the same command run
in-process through ``cattab.cli.main``, JSON that parses, and the JSON
numbers equal to the library's own result for the same input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
from pathlib import Path

import numpy as np

from measure import Op

UNIT = "invocation"  # work unit of throughput
# Ops run in child processes: peak RSS is the largest child's.
OPS_IN_CHILD = True
# Fastest wall times kept per command for the tail (see
# measure.summarize). Each command repeats 14 to 21 times in a 50 s run; a
# pool of 15 x 3 puts the tail at p75, among the record-reading and
# simulate commands.
KEEP_FASTEST = 3
RECORDS = 50_000
SIM_REPLICATES = 1000

_POLICE = "src/cattab/data/police_shootings.csv"
_VACCINE = "src/cattab/data/vaccine_trial.csv"
_LIFE = "src/cattab/data/life_quality_survey.csv"
_RECORD_ROWS = ("18-29", "30-44", "45-64", "65+")
_RECORD_COLS = ("none", "mild", "moderate", "severe", "critical")
_TIMEOUT_S = 120


def _commands(records: str, seed: int) -> list[list[str]]:
    sim = ["--replicates", str(SIM_REPLICATES), "--seed", str(seed), "--format", "json"]
    return [
        ["describe", "--input", _POLICE, "--given", "rows"],
        ["test", "independence", "--input", _POLICE, "--format", "json"],
        ["describe", "--input", records, "--input-format", "records", "--format", "json"],
        ["test", "homogeneity", "--input", _VACCINE, "--format", "json"],
        ["test", "linear", "--input", _LIFE, "--scores", "1:5,1:5", "--format", "json"],
        ["simulate", "calibrate", "--scheme", "multinomial", "--n", "500",
         "--row-marginals", ".5,.5", "--col-marginals", ".5,.5", "--test", "pearson", *sim],
        ["test", "independence", "--input", records, "--input-format", "records",
         "--format", "json"],
        ["test", "proportion", "--successes", "3", "--trials", "10", "--null", "0.5",
         "--level", "0.95", "--format", "json"],
        ["assoc", "odds-ratio", "--input", _POLICE, "--rows", "1,2", "--cols", "2,1",
         "--format", "json"],
        ["assoc", "correlation", "--input", records, "--input-format", "records",
         "--format", "json"],
        ["dist", "binomial", "--trials", "10", "--prob", "0.2", "--count", "7"],
        ["dist", "multinomial", "--trials", "10", "--probs", ".2,.3,.5", "--counts", "2,3,5",
         "--format", "json"],
        ["test", "linear", "--input", records, "--input-format", "records",
         "--scores", "1:4,1:5"],
        ["simulate", "coverage", "--pi", ".5", "--trials", "100", "--level", ".95", *sim],
        ["dist", "poisson", "--rate", "3.5", "--count", "2", "--format", "json"],
    ]


def write_records(path: Path, seed: int) -> None:
    """A seeded record CSV with an association between the two columns."""
    rng = np.random.default_rng(seed)
    p = np.outer(rng.dirichlet(np.full(len(_RECORD_ROWS), 5.0)),
                 rng.dirichlet(np.full(len(_RECORD_COLS), 5.0)))
    p *= np.exp(0.5 * np.outer(np.linspace(-1, 1, len(_RECORD_ROWS)),
                               np.linspace(-1, 1, len(_RECORD_COLS))))
    cells = rng.choice(p.size, size=RECORDS, p=(p / p.sum()).ravel())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age_band", "severity"])
        for cell in cells:
            i, j = divmod(int(cell), len(_RECORD_COLS))
            writer.writerow([_RECORD_ROWS[i], _RECORD_COLS[j]])


def invoke(ctx, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([ctx.python, "-m", "cattab", *argv], cwd=ctx.root, env=ctx.env,
                          capture_output=True, text=True, timeout=_TIMEOUT_S)


def setup(seed: int, ctx) -> dict:
    """Write the record CSV and warm up one invocation."""
    records = ctx.workdir / "records.csv"
    write_records(records, seed)
    warm = invoke(ctx, ["describe", "--input", _POLICE])
    if warm.returncode != 0:
        raise RuntimeError(f"warm-up invocation failed: {warm.stderr}")
    return {"commands": _commands(str(records.relative_to(ctx.root)), seed)}


def in_process(argv: list[str]) -> str:
    """Stdout of the same command run through ``cattab.cli.main`` here."""
    from cattab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"in-process run of {argv} exited {code}")
    return buf.getvalue()


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def library_numbers(argv: list[str], root: Path) -> dict[tuple, float]:
    """The numbers a JSON report must carry, computed by calling the
    library directly: ``{path in the JSON: value}``."""
    from cattab import (
        MultinomialSpec, PoissonSpec, calibrate_null, coverage_wald_ci,
        homogeneity_test, independence_test, joint_probabilities, mantel_haenszel_test,
        multinomial_pmf, odds_ratio, pearson_correlation, poisson_pmf, wald_ci,
        score_test_proportion, SamplingScheme, ScoreAssignment,
    )
    from cattab.io import parse_counts_csv, parse_records_csv

    def table():
        path = root / _option(argv, "--input")
        if "records" in argv:
            return parse_records_csv(path)[0]
        return parse_counts_csv(path)

    command = tuple(argv[:2])
    if command in (("test", "independence"), ("test", "homogeneity")):
        run = independence_test if command[1] == "independence" else homogeneity_test
        pearson, deviance, _ = run(table())
        return {("pearson", "statistic"): pearson.statistic, ("pearson", "df"): pearson.df,
                ("pearson", "p_value"): pearson.p_value,
                ("deviance", "statistic"): deviance.statistic,
                ("deviance", "p_value"): deviance.p_value}
    if command == ("test", "linear"):
        scores = ScoreAssignment(tuple(range(1, 6)), tuple(range(1, 6)))
        tab = table()
        res = mantel_haenszel_test(tab, scores)
        return {("mantel_haenszel", "statistic"): res.statistic,
                ("mantel_haenszel", "p_value"): res.p_value,
                ("correlation",): pearson_correlation(tab, scores)}
    if command == ("test", "proportion"):
        score = score_test_proportion(3, 10, 0.5)
        ci = wald_ci(3, 10, 0.95)
        return {("score", "statistic"): score.statistic, ("score", "p_value"): score.p_value,
                ("confidence_interval", "lower"): ci.lower,
                ("confidence_interval", "upper"): ci.upper}
    if command == ("assoc", "odds-ratio"):
        return {("odds_ratio",): odds_ratio(table(), (0, 1), (1, 0)).estimate}
    if command == ("assoc", "correlation"):
        return {("correlation",): pearson_correlation(table())}
    if argv[0] == "describe":
        tab = table()
        est = joint_probabilities(tab)
        out = {("n",): tab.total()}
        for i, row in enumerate(est.joint):
            for j, value in enumerate(row):
                out[("joint", i, j)] = value
        return out
    if command == ("dist", "multinomial"):
        return {("pmf",): multinomial_pmf(MultinomialSpec(10, (0.2, 0.3, 0.5)), [2, 3, 5])}
    if command == ("dist", "poisson"):
        return {("pmf",): poisson_pmf(PoissonSpec(3.5), 2)}
    seed = int(_option(argv, "--seed"))
    if command == ("simulate", "coverage"):
        return {("coverage",): coverage_wald_ci(0.5, 100, 0.95, SIM_REPLICATES, seed)}
    if command != ("simulate", "calibrate"):
        raise ValueError(f"no library reference for {argv}")
    scheme = SamplingScheme.multinomial(500, np.outer([0.5, 0.5], [0.5, 0.5]))
    report = calibrate_null(scheme, "pearson", SIM_REPLICATES, seed)
    out = {("empirical_mean",): report.empirical_mean, ("reference_df",): report.reference_df}
    for alpha, rate in report.rejection_rates.items():
        out[("rejection_rates", format(alpha, ".10g"))] = rate
    return out


def check_numbers(stdout: str, expected: dict[tuple, float]) -> bool:
    """Every expected number appears in the JSON report's results, equal
    to 10 significant digits (the report's precision)."""
    results = json.loads(stdout)["results"]
    for path, value in expected.items():
        got = results
        for key in path:
            got = got[key]
        if isinstance(got, str):  # "inf" / "nan" spelled as strings
            got = float(got)
        if not (got == value or math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-300)):
            return False
    return True


def prepare(state: dict, ctx) -> None:
    state["expected"] = {}
    for argv in state["commands"]:
        stdout = in_process(argv)
        numbers = library_numbers(argv, ctx.root) if "json" in argv else None
        if numbers is not None and not check_numbers(stdout, numbers):
            raise RuntimeError(f"in-process report disagrees with the library: {argv}")
        state["expected"][tuple(argv)] = (stdout, numbers)


def check(proc: subprocess.CompletedProcess, expected: tuple[str, dict | None]) -> bool:
    stdout, numbers = expected
    if proc.returncode != 0 or proc.stdout != stdout:
        return False
    return numbers is None or check_numbers(proc.stdout, numbers)


def _kind(argv: list[str]) -> tuple[str | None, int]:
    if argv[:2] == ["simulate", "calibrate"]:
        return ("mh" if _option(argv, "--test") == "mantel-haenszel" else "chisq",
                SIM_REPLICATES)
    if argv[:2] == ["simulate", "coverage"]:
        return "coverage", SIM_REPLICATES
    return None, 0


def ops(state: dict, tracer, ctx) -> list[Op]:
    out = []
    for k, argv in enumerate(state["commands"]):
        kind, replicates = _kind(argv)
        expected = state["expected"][tuple(argv)]
        if tracer is None:
            run = lambda argv=argv: invoke(ctx, argv)
        else:
            run = lambda argv=argv: traced_invoke(ctx, tracer, argv)
        out.append(Op(label=f"#{k} " + " ".join(argv), run=run,
                      check=lambda proc, expected=expected: check(proc, expected),
                      kind=kind, replicates=replicates))
    return out


def traced_invoke(ctx, tracer, argv: list[str]) -> subprocess.CompletedProcess:
    """Run the command through ``cli_child.py``, which traces it, and
    adopt its spans under the current op."""
    spans = ctx.workdir / "cli_spans.json"
    spans.unlink(missing_ok=True)
    proc = subprocess.run([ctx.python, str(Path(__file__).with_name("cli_child.py")),
                           str(spans), "--", *argv],
                          cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
                          timeout=_TIMEOUT_S)
    with open(spans, encoding="utf-8") as fh:
        tracer.adopt(json.load(fh), tracer.current())
    return proc


def probes(state: dict, ctx) -> list[tuple[str, callable]]:
    argv = ["simulate", "calibrate", "--scheme", "multinomial", "--n", "10",
            "--row-marginals", ".5,.5", "--col-marginals", ".5,.5",
            "--replicates", str(SIM_REPLICATES), "--seed", "1"]

    def small_n():
        proc = invoke(ctx, argv)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")

    return [("cattab " + " ".join(argv), small_n)]
