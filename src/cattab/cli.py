"""Command-line front end.

Five commands over count-matrix or record CSVs: ``describe`` (joint,
marginal, and conditional probability estimates), ``test``
(independence, homogeneity, linear association, one proportion),
``assoc`` (odds ratios and scored correlation), ``dist`` (PMF
evaluation), and ``simulate`` (null calibration and interval coverage).
Each command ("test independence", "dist poisson", ...) is one entry
of ``_COMMANDS``: a compute function, a text renderer and the flags it
takes, each declared once in ``_OPTIONS``; its parser accepts no other.

Output is plain text or a deterministic JSON envelope with fixed keys
``version``, ``input_digest``, ``command``, ``results``, ``warnings``;
numbers are rendered with 10 significant digits, so identical inputs
produce byte-identical reports. Exit codes: 0 success, 2 input error,
3 domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .association import (
    ScoreAssignment,
    default_scores,
    odds,
    odds_ratio,
    pearson_correlation,
)
from .distributions import (
    BinomialSpec,
    MultinomialSpec,
    PoissonSpec,
    _probabilities,
    binomial_log_pmf,
    binomial_moments,
    binomial_pmf,
    multinomial_log_pmf,
    multinomial_pmf,
    poisson_log_pmf,
    poisson_pmf,
)
from .inference import (
    Sidedness,
    TestResult,
    _null_se,
    homogeneity_test,
    independence_test,
    lr_test_proportion,
    mantel_haenszel_test,
    mle_proportion,
    score_test_proportion,
    wald_ci,
    wald_test_proportion,
)
from .io import InputFormatError, counts_csv_text, parse_counts_csv, parse_records_csv
from .simulate import _TEST_NAMES, RNG_ALGORITHM, SamplingScheme, calibrate_null, coverage_wald_ci
from .table import ContingencyTable, conditional_probabilities, joint_probabilities

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# Deterministic JSON


def _json_number(x: float) -> str:
    # No payload holds NaN: every input is refused at NaN, and every
    # computed value is finite or infinite.
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".10g")


def _json_dumps(obj) -> str:
    """JSON with insertion-ordered keys and floats at 10 significant
    digits; no dependence on anything nondeterministic."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _json_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_dumps(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _json_dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _digest(payload: dict) -> str:
    return hashlib.sha256(_json_dumps(payload).encode("utf-8")).hexdigest()


def _table_payload(table: ContingencyTable) -> dict:
    return {
        "row_labels": list(table.row_labels),
        "col_labels": list(table.col_labels),
        "counts": table.counts.tolist(),
    }


# ---------------------------------------------------------------------------
# Argument parsing helpers


def _parse_axis_scores(text: str, length: int, axis: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise InputFormatError(f"bad score range {text!r}") from None
        if hi < lo:
            raise InputFormatError(f"empty score range {text!r}")
        # Refused before it is built: a range such as 1:10**18 would
        # exhaust memory rather than fail the length check later.
        if hi - lo + 1 > length:
            raise ValueError(f"need {length} {axis} scores, got {hi - lo + 1}")
        return list(range(lo, hi + 1))
    try:
        scores = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InputFormatError(f"bad score list {text!r}") from None
    if not scores:
        raise InputFormatError(f"--scores must list at least one {axis} score")
    return scores


def _parse_scores(text: str | None, shape: tuple[int, int]) -> ScoreAssignment | None:
    """Row and column scores for a table of the given shape: two colon
    ranges separated by a comma ("1:5,1:5") or two comma lists separated
    by a semicolon ("1,2;1,2,3"); None when the option is absent."""
    if text is None:
        return None
    if ";" in text:
        parts = text.split(";")
    else:
        parts = text.split(",")
    if len(parts) != 2:
        raise InputFormatError(
            f"bad --scores value {text!r}: expected ROWS,COLS with colon "
            "ranges, or ROWS;COLS with comma lists")
    return ScoreAssignment(tuple(_parse_axis_scores(parts[0], shape[0], "row")),
                           tuple(_parse_axis_scores(parts[1], shape[1], "column")))


def _parse_list(text: str, flag: str, kind=float) -> list:
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InputFormatError(f"bad {flag} value {text!r}") from None
    if not values:
        raise InputFormatError(f"{flag} must list at least one number")
    return values


def _parse_index_pair(text: str, flag: str, limit: int) -> tuple[int, int]:
    values = _parse_list(text, flag, int)
    if len(values) != 2:
        raise InputFormatError(f"{flag} needs exactly two 1-based indices")
    for v in values:
        if not 1 <= v <= limit:
            raise InputFormatError(f"{flag} index {v} out of range 1..{limit}")
    return values[0] - 1, values[1] - 1


def _load_table(args) -> ContingencyTable:
    if args.input_format == "records":
        table, _ = parse_records_csv(args.input)
        return table
    return parse_counts_csv(args.input)


_SIDEDNESS = {"two": Sidedness.TWO_SIDED, "upper": Sidedness.UPPER,
              "lower": Sidedness.LOWER}


def _test_payload(res: TestResult) -> dict:
    payload: dict = {
        "statistic_kind": res.statistic_kind.value,
        "statistic": res.statistic,
        "df": res.df,
        "p_value": res.p_value,
    }
    if res.sidedness is not None:
        payload["sidedness"] = res.sidedness.value
    payload["small_cell_warning"] = res.small_cell_warning
    return payload


# ---------------------------------------------------------------------------
# Text rendering


def _prob_grid(row_labels, col_labels, matrix, row_extra=None,
               col_extra=None, corner=None) -> list[str]:
    headers = list(col_labels) + (["Total"] if row_extra is not None else [])
    label_w = max(len(str(lab)) for lab in list(row_labels) + ["Total"]) + 2
    cell_w = max(8, max(len(str(h)) for h in headers) + 2)
    lines = ["".rjust(label_w) + "".join(str(h).rjust(cell_w) for h in headers)]
    for i, lab in enumerate(row_labels):
        cells = [f"{v:.4f}".rjust(cell_w) for v in matrix[i]]
        if row_extra is not None:
            cells.append(f"{row_extra[i]:.4f}".rjust(cell_w))
        lines.append(str(lab).rjust(label_w) + "".join(cells))
    if col_extra is not None:
        cells = [f"{v:.4f}".rjust(cell_w) for v in col_extra]
        if corner is not None:
            cells.append(f"{corner:.4f}".rjust(cell_w))
        lines.append("Total".rjust(label_w) + "".join(cells))
    return lines


def _render_test_line(name: str, payload: dict) -> str:
    return (f"  {name}: statistic = {payload['statistic']:.6g}, "
            f"df = {payload['df']}, p = {payload['p_value']:.4g}")


# ---------------------------------------------------------------------------
# Commands: compute functions return (results, warnings, digest payload)


def _describe(args):
    table = _load_table(args)
    est = joint_probabilities(table)
    results = {
        "n": table.total(),
        "row_labels": list(table.row_labels),
        "col_labels": list(table.col_labels),
        "joint": est.joint,
        "row_marginal": est.row_marginal,
        "col_marginal": est.col_marginal,
    }
    if args.given:
        results["conditional"] = {
            "given": args.given,
            "matrix": conditional_probabilities(table, args.given),
        }
    return results, [], _table_payload(table)


def _render_describe(results: dict) -> list[str]:
    labels = results["row_labels"], results["col_labels"]
    lines = [f"n = {results['n']}", "", "Joint and marginal probability estimates",
             *_prob_grid(*labels, results["joint"], row_extra=results["row_marginal"],
                         col_extra=results["col_marginal"], corner=1.0)]
    if "conditional" in results:
        cond = results["conditional"]
        matrix = cond["matrix"]
        lines += ["", f"Conditional probability estimates given {cond['given']}"]
        if cond["given"] == "rows":
            lines += _prob_grid(*labels, matrix, row_extra=[sum(row) for row in matrix])
        else:
            lines += _prob_grid(*labels, matrix, col_extra=[sum(c) for c in zip(*matrix)])
    return lines


def _proportion(args):
    y, n, pi0 = args.successes, args.trials, args.null
    warnings: list[str] = []
    estimate, se = mle_proportion(y, n)
    score = score_test_proportion(y, n, pi0, _SIDEDNESS[args.sided])
    results = {
        "successes": y, "trials": n, "null": pi0,
        "estimate": estimate, "estimate_se": se,
        "score": {**_test_payload(score), "null_se": _null_se(pi0, n)},
    }
    if 0 < y < n:
        results["wald"] = _test_payload(wald_test_proportion(y, n, pi0))
    else:
        warnings.append("Wald test omitted: standard error at the boundary "
                        "estimate is zero")
    lr, detail = lr_test_proportion(y, n, pi0)
    results["likelihood_ratio"] = {**_test_payload(lr), "log_l0": detail.log_l0,
                                   "log_l1": detail.log_l1}
    ci = wald_ci(y, n, args.level)
    if ci.degenerate:
        warnings.append("confidence interval is degenerate (zero width) "
                        "at a boundary estimate")
    results["confidence_interval"] = {
        "estimate": ci.estimate, "lower": ci.lower, "upper": ci.upper,
        "level": ci.level, "standard_error": ci.standard_error,
        "contains_null": ci.contains(pi0),
    }
    return results, warnings, {"command": "test proportion",
                               "successes": y, "trials": n}


def _render_proportion(results: dict) -> list[str]:
    score = results["score"]
    lines = [f"estimate = {results['estimate']:.6g} "
             f"(SE = {results['estimate_se']:.6g}), null = {results['null']:.6g}",
             f"  score test: z = {score['statistic']:.6g}, "
             f"p = {score['p_value']:.4g} ({score['sidedness']})"]
    if "wald" in results:
        lines.append(_render_test_line("Wald test", results["wald"]))
    lines.append(_render_test_line("Likelihood-ratio test", results["likelihood_ratio"]))
    ci = results["confidence_interval"]
    verdict = "contains" if ci["contains_null"] else "excludes"
    lines.append(f"  {ci['level'] * 100:g}% CI: ({ci['lower']:.6g}, "
                 f"{ci['upper']:.6g}) -- {verdict} the null value")
    return lines


def _chisq(args):
    table = _load_table(args)
    runner = independence_test if args.which == "independence" else homogeneity_test
    pearson, deviance, expected = runner(table)
    warnings = []
    if pearson.small_cell_warning:
        warnings.append("some expected frequencies are below 5; the "
                        "chi-square approximation may be inaccurate")
    results = {
        "hypothesis": args.which,
        "pearson": _test_payload(pearson),
        "deviance": _test_payload(deviance),
        "expected": expected.values,
    }
    return results, warnings, _table_payload(table)


def _render_chisq(results: dict) -> list[str]:
    return [f"hypothesis: no association ({results['hypothesis']})",
            _render_test_line("Pearson chi-square", results["pearson"]),
            _render_test_line("Deviance", results["deviance"])]


def _scored_correlation(table: ContingencyTable, scores: ScoreAssignment | None) -> dict:
    r = pearson_correlation(table, scores)
    if scores is None:
        scores = default_scores(table)
    return {
        "row_scores": list(scores.row_scores),
        "col_scores": list(scores.col_scores),
        "correlation": r,
    }


def _linear(args):
    table = _load_table(args)
    scores = _parse_scores(args.scores, table.shape)
    res = mantel_haenszel_test(table, scores)
    results = _scored_correlation(table, scores)
    results["mantel_haenszel"] = _test_payload(res)
    return results, [], _table_payload(table)


def _render_linear(results: dict) -> list[str]:
    return [f"correlation r = {results['correlation']:.6g}",
            _render_test_line("Linear association", results["mantel_haenszel"])]


def _correlation(args):
    table = _load_table(args)
    scores = _parse_scores(args.scores, table.shape)
    return _scored_correlation(table, scores), [], _table_payload(table)


def _odds_ratio(args):
    table = _load_table(args)
    warnings: list[str] = []
    rows = _parse_index_pair(args.rows, "--rows", table.n_rows)
    cols = _parse_index_pair(args.cols, "--cols", table.n_cols)
    ratio = odds_ratio(table, rows, cols, zero_correction=args.zero_correction)
    swapped = odds_ratio(table, rows, (cols[1], cols[0]),
                         zero_correction=args.zero_correction)
    if ratio.estimate == swapped.estimate == math.inf:  # both cross products are 0
        raise ValueError("both cross products are zero; odds ratio undefined")
    per_column = {}
    for col in cols:
        try:
            per_column[table.col_labels[col]] = odds(table, rows[0], rows[1], col)
        except ValueError as exc:
            per_column[table.col_labels[col]] = None
            warnings.append(str(exc))
    if math.isinf(ratio.estimate):
        warnings.append("odds ratio is infinite: a denominator cell is zero "
                        "(rerun with --zero-correction for a finite estimate)")
    results = {
        "rows": [table.row_labels[i] for i in rows],
        "cols": [table.col_labels[j] for j in cols],
        "odds": per_column,
        "odds_ratio": ratio.estimate,
        "odds_ratio_swapped": swapped.estimate,
        "zero_correction": ratio.correction_applied,
    }
    return results, warnings, _table_payload(table)


def _render_odds_ratio(results: dict) -> list[str]:
    lines = []
    for col, value in results["odds"].items():
        txt = "undefined" if value is None else f"{value:.6g}"
        lines.append(f"  odds ({results['rows'][0]} vs {results['rows'][1]}) "
                     f"given {col}: {txt}")
    lines.append(f"  odds ratio: {results['odds_ratio']:.6g}")
    lines.append(f"  odds ratio (columns swapped): {results['odds_ratio_swapped']:.6g}")
    return lines


def _dist_report(results: dict):
    payload = {k: v for k, v in results.items() if k not in ("pmf", "log_pmf")}
    return results, [], payload


def _binomial(args):
    spec = BinomialSpec(args.trials, args.prob)
    mean, variance = binomial_moments(spec)
    return _dist_report({
        "distribution": "binomial",
        "trials": spec.trials, "success_prob": spec.success_prob,
        "count": args.count,
        "pmf": binomial_pmf(spec, args.count),
        "log_pmf": binomial_log_pmf(spec, args.count),
        "mean": mean, "variance": variance,
    })


def _multinomial(args):
    probs = _parse_list(args.probs, "--probs")
    counts = _parse_list(args.counts, "--counts", int)
    spec = MultinomialSpec(args.trials, tuple(probs))
    return _dist_report({
        "distribution": "multinomial",
        "trials": spec.trials, "category_probs": list(spec.category_probs),
        "counts": counts,
        "pmf": multinomial_pmf(spec, counts),
        "log_pmf": multinomial_log_pmf(spec, counts),
    })


def _poisson(args):
    spec = PoissonSpec(args.rate)
    return _dist_report({
        "distribution": "poisson",
        "rate": spec.rate, "count": args.count,
        "pmf": poisson_pmf(spec, args.count),
        "log_pmf": poisson_log_pmf(spec, args.count),
        "mean": spec.rate, "variance": spec.rate,
    })


def _render_dist(results: dict) -> list[str]:
    return [f"  {key} = {value:.10g}" if isinstance(value, float) else f"  {key} = {value}"
            for key, value in results.items()]


def _marginal(text: str, flag: str) -> np.ndarray:
    # Checked before the outer product: a margin of 1e308 would overflow
    # it, and margins summing to 5 would scale a Poisson rate fivefold.
    return _probabilities(_parse_list(text, flag), flag)


def _joint(args) -> np.ndarray:
    return np.outer(_marginal(args.row_marginals, "--row-marginals"),
                    _marginal(args.col_marginals, "--col-marginals"))


def _binomial_rows_scheme(args) -> SamplingScheme:
    col_marg = _marginal(args.col_marginals, "--col-marginals")
    totals = _parse_list(args.row_totals, "--row-totals", int)
    return SamplingScheme.binomial_rows(totals, np.tile(col_marg, (len(totals), 1)))


# Each --scheme: the options it takes, all of them required, and its
# builder. Any other scheme option given is an input error rather than
# silently ignored: binomial-rows, for one, has no row margin to draw.
_SCHEMES = {
    "multinomial": (("--n", "--row-marginals", "--col-marginals"),
                    lambda args: SamplingScheme.multinomial(args.n, _joint(args))),
    "binomial-rows": (("--row-totals", "--col-marginals"), _binomial_rows_scheme),
    "poisson": (("--total-rate", "--row-marginals", "--col-marginals"),
                lambda args: SamplingScheme.poisson(args.total_rate * _joint(args))),
}
_SCHEME_FLAGS = tuple(dict.fromkeys(flag for takes, _ in _SCHEMES.values() for flag in takes))


def _scheme_from_args(args) -> SamplingScheme:
    takes, build = _SCHEMES[args.scheme]
    given = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in _SCHEME_FLAGS}
    for flag, value in given.items():
        if value is not None and flag not in takes:
            raise InputFormatError(
                f"{flag} does not apply to the {args.scheme} scheme, which "
                f"takes {', '.join(takes)}")
    if any(given[flag] is None for flag in takes):
        raise InputFormatError(
            f"{', '.join(takes[:-1])} and {takes[-1]} are required for the "
            f"{args.scheme} scheme")
    return build(args)


def _scheme_payload(scheme: SamplingScheme) -> dict:
    return {"kind": scheme.kind,
            **{f.name: getattr(scheme, f.name) for f in dataclasses.fields(scheme)}}


def _calibrate(args):
    if args.scores is not None and args.test != "mantel-haenszel":
        raise InputFormatError("--scores applies only to --test mantel-haenszel")
    scheme = _scheme_from_args(args)
    test = args.test.replace("-", "_")
    scores = _parse_scores(args.scores, scheme.shape)
    report = calibrate_null(scheme, test, args.replicates, args.seed, scores)
    results = {
        "scheme": _scheme_payload(scheme),
        "test": report.statistic_kind.value,
        "replicates": report.replicates,
        "degenerate_replicates": report.degenerate_replicates,
        "seed": report.seed,
        "rng_algorithm": report.rng_algorithm,
        "reference_df": report.reference_df,
        "empirical_mean": report.empirical_mean,
        "rejection_rates": {format(a, ".10g"): r
                            for a, r in report.rejection_rates.items()},
    }
    return results, [], {"scheme": results["scheme"], "test": test,
                         "replicates": args.replicates, "seed": args.seed}


def _render_calibrate(results: dict) -> list[str]:
    return [f"  statistic: {results['test']}, replicates = {results['replicates']}, "
            f"degenerate = {results['degenerate_replicates']}, seed = {results['seed']}",
            f"  empirical mean = {results['empirical_mean']:.6g} "
            f"(reference df = {results['reference_df']})",
            *(f"  rejection rate at alpha={alpha}: {rate:.4f}"
              for alpha, rate in results["rejection_rates"].items())]


def _coverage(args):
    coverage = coverage_wald_ci(args.pi, args.trials, args.level, args.replicates, args.seed)
    results = {
        "true_pi": args.pi, "trials": args.trials, "level": args.level,
        "replicates": args.replicates, "seed": args.seed,
        "rng_algorithm": RNG_ALGORITHM,
        "coverage": coverage,
    }
    return results, [], {k: results[k] for k in
                         ("true_pi", "trials", "level", "replicates", "seed")}


_TABLE_FLAGS = ("--input", "--input-format")

# Each command: its compute function, its text renderer and the flags it
# takes besides --format. Library functions are looked up when a command
# runs, so that one replaced in this module (a tracer, a test double) is called.
_COMMANDS = {
    "describe": (_describe, _render_describe, (*_TABLE_FLAGS, "--given", "--emit-counts")),
    "test independence": (_chisq, _render_chisq, _TABLE_FLAGS),
    "test homogeneity": (_chisq, _render_chisq, _TABLE_FLAGS),
    "test linear": (_linear, _render_linear, (*_TABLE_FLAGS, "--scores")),
    "test proportion": (_proportion, _render_proportion,
                        ("--successes", "--trials", "--null", "--sided", "--level")),
    "assoc odds-ratio": (_odds_ratio, _render_odds_ratio,
                         (*_TABLE_FLAGS, "--rows", "--cols", "--zero-correction")),
    "assoc correlation": (_correlation,
                          lambda results: [f"  correlation r = {results['correlation']:.6g}"],
                          (*_TABLE_FLAGS, "--scores")),
    "dist binomial": (_binomial, _render_dist, ("--trials", "--prob", "--count")),
    "dist multinomial": (_multinomial, _render_dist, ("--trials", "--probs", "--counts")),
    "dist poisson": (_poisson, _render_dist, ("--rate", "--count")),
    "simulate calibrate": (_calibrate, _render_calibrate,
                           ("--seed", "--replicates", "--scheme", "--test", "--scores",
                            *_SCHEME_FLAGS)),
    "simulate coverage": (_coverage, lambda results: [
        f"  empirical coverage = {results['coverage']:.4f} "
        f"(target level {results['level']:g})"],
        ("--seed", "--replicates", "--pi", "--trials", "--level")),
}


# ---------------------------------------------------------------------------
# Parser

# Every option once: its flag and its add_argument keywords.
_OPTIONS = {
    "--format": dict(choices=("text", "json"), default="text", help="output format"),
    "--input": dict(required=True, help="input CSV path"),
    "--input-format": dict(choices=("counts", "records"), default="counts",
                           help="counts: label matrix; records: two labeled columns"),
    "--given": dict(choices=("rows", "cols"), help="conditional probabilities given this axis"),
    "--emit-counts": dict(action="store_true", help="print the parsed table as a counts CSV"),
    "--scores": dict(help="row and column scores, e.g. 1:5,1:5 or 1,2;1,2,3"),
    "--successes": dict(required=True, type=int, help="observed successes y"),
    "--trials": dict(required=True, type=int, help="number of trials n"),
    "--null": dict(required=True, type=float, help="null proportion pi0"),
    "--sided": dict(choices=tuple(_SIDEDNESS), default="two",
                    help="alternative for the score z test"),
    "--level": dict(type=float, default=0.95, help="confidence level of the Wald interval"),
    "--rows": dict(default="1,2", help="two 1-based row indices (default 1,2)"),
    "--cols": dict(default="1,2", help="two 1-based column indices (default 1,2)"),
    "--zero-correction": dict(action="store_true", help="add 0.5 to each cell of the sub-table"),
    "--prob": dict(required=True, type=float, help="binomial success probability"),
    "--count": dict(required=True, type=int, help="outcome count y"),
    "--probs": dict(required=True, help="multinomial category probabilities, e.g. .2,.8"),
    "--counts": dict(required=True, help="multinomial category counts, e.g. 7,3"),
    "--rate": dict(required=True, type=float, help="Poisson rate"),
    "--seed": dict(required=True, type=int, help="64-bit RNG seed"),
    "--replicates": dict(type=int, default=10000, help="number of replicates (default 10000)"),
    "--scheme": dict(choices=tuple(_SCHEMES), default="multinomial", help="sampling scheme"),
    "--test": dict(choices=tuple(name.replace("_", "-") for name in _TEST_NAMES),
                   default="pearson", help="statistic to calibrate"),
    "--n": dict(type=int, help="multinomial total"),
    "--row-marginals": dict(help="row margin probabilities, e.g. .5,.5"),
    "--col-marginals": dict(help="column margin probabilities"),
    "--row-totals": dict(help="fixed row totals, e.g. 200,200"),
    "--total-rate": dict(type=float, help="poisson grand-total rate"),
    "--pi": dict(required=True, type=float, help="true proportion"),
}
_GROUP_HELP = {"describe": "probability estimates for a table", "test": "hypothesis tests",
               "assoc": "association measures", "dist": "probability mass evaluation",
               "simulate": "Monte Carlo calibration"}


def _build_parser() -> argparse.ArgumentParser:
    """One leaf parser per command, taking only that command's flags;
    abbreviations are off, so each option has exactly one spelling. Each
    leaf is its own default ``leaf``, so that main can report an option
    it refuses under its usage line."""
    parser = argparse.ArgumentParser(
        prog="cattab", description="Analysis of two-way contingency tables.",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="command", required=True)
    whiches = {}  # group -> its subparsers, one per command
    for command, (_, _, flags) in _COMMANDS.items():
        group, _, which = command.partition(" ")
        if not which:
            leaf = groups.add_parser(group, help=_GROUP_HELP[group], allow_abbrev=False)
        else:
            if group not in whiches:
                whiches[group] = groups.add_parser(
                    group, help=_GROUP_HELP[group], allow_abbrev=False,
                ).add_subparsers(dest="which", required=True)
            leaf = whiches[group].add_parser(which, allow_abbrev=False)
        for flag in (*flags, "--format"):
            leaf.add_argument(flag, **_OPTIONS[flag])
        leaf.set_defaults(leaf=leaf)
    return parser


def run(args: argparse.Namespace) -> str:
    """Execute a parsed request and return the rendered report."""
    if getattr(args, "emit_counts", False):
        for flag, used in (("--given", args.given is not None),
                           ("--format json", args.format == "json")):
            if used:
                raise InputFormatError(f"{flag} does not apply with --emit-counts, "
                                       "which prints only the counts CSV")
        return counts_csv_text(_load_table(args))
    which = getattr(args, "which", None)
    command = args.command if which is None else f"{args.command} {which}"
    compute, render, _ = _COMMANDS[command]
    results, warnings, digest_payload = compute(args)
    if args.format == "json":
        envelope = {
            "version": __version__,
            "input_digest": _digest(digest_payload),
            "command": command,
            "results": results,
            "warnings": warnings,
        }
        return _json_dumps(envelope) + "\n"
    lines = [command, *render(results), *(f"warning: {w}" for w in warnings)]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    # Nested parsers hand the arguments they refuse back to the top one,
    # which would report them under its own usage line.
    args, refused = _build_parser().parse_known_args(argv)
    if refused:
        args.leaf.error(f"unrecognized arguments: {' '.join(refused)}")
    try:
        output = run(args)
    except InputFormatError as exc:
        print(f"cattab: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"cattab: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. --replicates 10**18
        print(f"cattab: error: not enough memory for this request: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0
