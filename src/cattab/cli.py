"""Command-line front end.

Five commands over count-matrix or record CSVs: ``describe`` (joint,
marginal, and conditional probability estimates), ``test``
(independence, homogeneity, linear association, one proportion),
``assoc`` (odds ratios and scored correlation), ``dist`` (PMF
evaluation), and ``simulate`` (null calibration and interval coverage).

Output is plain text or a deterministic JSON envelope with fixed keys
``version``, ``input_digest``, ``command``, ``results``, ``warnings``;
numbers are rendered with 10 significant digits, so identical inputs
produce byte-identical reports. Exit codes: 0 success, 2 input error,
3 domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
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
from .simulate import RNG_ALGORITHM, SamplingScheme, calibrate_null, coverage_wald_ci
from .table import ContingencyTable, conditional_probabilities, joint_probabilities

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# Deterministic JSON


def _json_number(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
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
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_number(float(obj))
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


def _parse_axis_scores(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise InputFormatError(f"bad score range {text!r}") from None
        if hi < lo:
            raise InputFormatError(f"empty score range {text!r}")
        return [float(v) for v in range(lo, hi + 1)]
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InputFormatError(f"bad score list {text!r}") from None


def _parse_scores(text: str) -> ScoreAssignment:
    """Row and column scores: two colon ranges separated by a comma
    ("1:5,1:5") or two comma lists separated by a semicolon
    ("1,2;1,2,3")."""
    if ";" in text:
        parts = text.split(";")
    else:
        parts = text.split(",")
    if len(parts) != 2:
        raise InputFormatError(
            f"bad --scores value {text!r}: expected ROWS,COLS with colon "
            "ranges, or ROWS;COLS with comma lists")
    return ScoreAssignment(tuple(_parse_axis_scores(parts[0])),
                           tuple(_parse_axis_scores(parts[1])))


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InputFormatError(f"bad {flag} value {text!r}") from None
    if not values:
        raise InputFormatError(f"{flag} must list at least one number")
    return values


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InputFormatError(f"bad {flag} value {text!r}") from None


def _parse_index_pair(text: str, flag: str, limit: int) -> tuple[int, int]:
    values = _parse_int_list(text, flag)
    if len(values) != 2:
        raise InputFormatError(f"{flag} needs exactly two 1-based indices")
    for v in values:
        if not 1 <= v <= limit:
            raise InputFormatError(f"{flag} index {v} out of range 1..{limit}")
    return values[0] - 1, values[1] - 1


def _load_table(args) -> ContingencyTable:
    if args.input is None:
        raise InputFormatError("--input is required for this command")
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


def _styled(text: str) -> str:
    if os.environ.get("CATTAB_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[1m{text}\x1b[0m"


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
    stat = payload["statistic"]
    line = (f"  {name}: statistic = {stat:.6g}, df = {payload['df']}, "
            f"p = {payload['p_value']:.4g}")
    return line


def _render_text(command: str, results: dict, warnings: list[str]) -> str:
    lines = [_styled(command)]
    lines.extend(_render_results_text(command, results))
    for w in warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def _render_results_text(command: str, results: dict) -> list[str]:
    lines: list[str] = []
    if command.startswith("describe"):
        lines.append(f"n = {results['n']}")
        lines.append("")
        lines.append("Joint and marginal probability estimates")
        lines.extend(_prob_grid(results["row_labels"], results["col_labels"],
                                results["joint"],
                                row_extra=results["row_marginal"],
                                col_extra=results["col_marginal"], corner=1.0))
        if "conditional" in results:
            cond = results["conditional"]
            lines.append("")
            lines.append(f"Conditional probability estimates given {cond['given']}")
            matrix = cond["matrix"]
            if cond["given"] == "rows":
                lines.extend(_prob_grid(results["row_labels"],
                                        results["col_labels"], matrix,
                                        row_extra=[sum(row) for row in matrix]))
            else:
                lines.extend(_prob_grid(results["row_labels"],
                                        results["col_labels"], matrix,
                                        col_extra=[sum(c) for c in zip(*matrix)]))
    elif command in ("test independence", "test homogeneity"):
        lines.append(f"hypothesis: no association ({results['hypothesis']})")
        lines.append(_render_test_line("Pearson chi-square", results["pearson"]))
        lines.append(_render_test_line("Deviance", results["deviance"]))
    elif command == "test linear":
        lines.append(f"correlation r = {results['correlation']:.6g}")
        lines.append(_render_test_line("Linear association",
                                       results["mantel_haenszel"]))
    elif command == "test proportion":
        lines.append(f"estimate = {results['estimate']:.6g} "
                     f"(SE = {results['estimate_se']:.6g}), "
                     f"null = {results['null']:.6g}")
        score = results["score"]
        lines.append(f"  score test: z = {score['statistic']:.6g}, "
                     f"p = {score['p_value']:.4g} ({score['sidedness']})")
        if "wald" in results:
            lines.append(_render_test_line("Wald test", results["wald"]))
        lines.append(_render_test_line("Likelihood-ratio test",
                                       results["likelihood_ratio"]))
        ci = results["confidence_interval"]
        verdict = ("contains" if ci["contains_null"] else "excludes")
        lines.append(f"  {ci['level'] * 100:g}% CI: ({ci['lower']:.6g}, "
                     f"{ci['upper']:.6g}) -- {verdict} the null value")
    elif command == "assoc odds-ratio":
        for col, value in results["odds"].items():
            txt = "undefined" if value is None else f"{value:.6g}"
            lines.append(f"  odds ({results['rows'][0]} vs {results['rows'][1]}) "
                         f"given {col}: {txt}")
        lines.append(f"  odds ratio: {results['odds_ratio']:.6g}")
        lines.append(f"  odds ratio (columns swapped): "
                     f"{results['odds_ratio_swapped']:.6g}")
    elif command == "assoc correlation":
        lines.append(f"  correlation r = {results['correlation']:.6g}")
    elif command.startswith("dist"):
        for key, value in results.items():
            if isinstance(value, float):
                lines.append(f"  {key} = {value:.10g}")
            else:
                lines.append(f"  {key} = {value}")
    elif command == "simulate calibrate":
        lines.append(f"  statistic: {results['test']}, replicates = "
                     f"{results['replicates']}, seed = {results['seed']}")
        lines.append(f"  empirical mean = {results['empirical_mean']:.6g} "
                     f"(reference df = {results['reference_df']})")
        for alpha, rate in results["rejection_rates"].items():
            lines.append(f"  rejection rate at alpha={alpha}: {rate:.4f}")
    elif command == "simulate coverage":
        lines.append(f"  empirical coverage = {results['coverage']:.4f} "
                     f"(target level {results['level']:g})")
    else:
        for key, value in results.items():
            lines.append(f"  {key} = {value}")
    return lines


# ---------------------------------------------------------------------------
# Command handlers: each returns (results, warnings, digest payload)


def _cmd_describe(args):
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


def _cmd_test(args):
    warnings: list[str] = []
    if args.which == "proportion":
        y, n, pi0 = args.successes, args.trials, args.null
        if y is None or n is None:
            raise InputFormatError("--successes and --trials are required")
        if pi0 is None:
            raise InputFormatError("--null is required for the proportion test")
        estimate, se = mle_proportion(y, n)
        score = score_test_proportion(y, n, pi0, _SIDEDNESS[args.sided])
        score_payload = _test_payload(score)
        score_payload["null_se"] = math.sqrt(pi0 * (1 - pi0) / n)
        results = {
            "successes": y, "trials": n, "null": pi0,
            "estimate": estimate, "estimate_se": se,
            "score": score_payload,
        }
        if 0 < y < n:
            results["wald"] = _test_payload(wald_test_proportion(y, n, pi0))
        else:
            warnings.append("Wald test omitted: standard error at the boundary "
                            "estimate is zero")
        lr, detail = lr_test_proportion(y, n, pi0)
        lr_payload = _test_payload(lr)
        lr_payload["log_l0"] = detail.log_l0
        lr_payload["log_l1"] = detail.log_l1
        results["likelihood_ratio"] = lr_payload
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

    table = _load_table(args)
    if args.which in ("independence", "homogeneity"):
        runner = independence_test if args.which == "independence" else homogeneity_test
        pearson, deviance, expected = runner(table)
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

    # linear association
    scores = _parse_scores(args.scores) if args.scores else None
    res = mantel_haenszel_test(table, scores)
    if scores is None:
        scores = default_scores(table)
    r = pearson_correlation(table, scores)
    results = {
        "row_scores": list(scores.row_scores),
        "col_scores": list(scores.col_scores),
        "correlation": r,
        "mantel_haenszel": _test_payload(res),
    }
    return results, warnings, _table_payload(table)


def _cmd_assoc(args):
    table = _load_table(args)
    warnings: list[str] = []
    if args.which == "correlation":
        scores = _parse_scores(args.scores) if args.scores else None
        r = pearson_correlation(table, scores)
        if scores is None:
            scores = default_scores(table)
        results = {
            "row_scores": list(scores.row_scores),
            "col_scores": list(scores.col_scores),
            "correlation": r,
        }
        return results, warnings, _table_payload(table)

    rows = _parse_index_pair(args.rows, "--rows", table.n_rows)
    cols = _parse_index_pair(args.cols, "--cols", table.n_cols)
    ratio = odds_ratio(table, rows, cols, zero_correction=args.zero_correction)
    swapped = odds_ratio(table, rows, (cols[1], cols[0]),
                         zero_correction=args.zero_correction)
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


def _cmd_dist(args):
    if args.which == "binomial":
        if args.trials is None or args.prob is None or args.count is None:
            raise InputFormatError("--trials, --prob and --count are required")
        spec = BinomialSpec(args.trials, args.prob)
        mean, variance = binomial_moments(spec)
        results = {
            "distribution": "binomial",
            "trials": spec.trials, "success_prob": spec.success_prob,
            "count": args.count,
            "pmf": binomial_pmf(spec, args.count),
            "log_pmf": binomial_log_pmf(spec, args.count),
            "mean": mean, "variance": variance,
        }
    elif args.which == "multinomial":
        if args.trials is None or not args.probs or not args.counts:
            raise InputFormatError("--trials, --probs and --counts are required")
        probs = _parse_float_list(args.probs, "--probs")
        counts = _parse_int_list(args.counts, "--counts")
        spec = MultinomialSpec(args.trials, tuple(probs))
        results = {
            "distribution": "multinomial",
            "trials": spec.trials, "category_probs": list(spec.category_probs),
            "counts": counts,
            "pmf": multinomial_pmf(spec, counts),
            "log_pmf": multinomial_log_pmf(spec, counts),
        }
    else:
        if args.rate is None or args.count is None:
            raise InputFormatError("--rate and --count are required")
        spec = PoissonSpec(args.rate)
        results = {
            "distribution": "poisson",
            "rate": spec.rate, "count": args.count,
            "pmf": poisson_pmf(spec, args.count),
            "log_pmf": poisson_log_pmf(spec, args.count),
            "mean": spec.rate, "variance": spec.rate,
        }
    payload = {k: v for k, v in results.items() if k not in ("pmf", "log_pmf")}
    return results, [], payload


def _scheme_from_args(args) -> SamplingScheme:
    row_marg = _parse_float_list(args.row_marginals, "--row-marginals") \
        if args.row_marginals else None
    col_marg = _parse_float_list(args.col_marginals, "--col-marginals") \
        if args.col_marginals else None
    if args.scheme == "multinomial":
        if args.n is None or row_marg is None or col_marg is None:
            raise InputFormatError(
                "--n, --row-marginals and --col-marginals are required for "
                "the multinomial scheme")
        joint = np.outer(row_marg, col_marg)
        return SamplingScheme.multinomial(args.n, joint)
    if args.scheme == "binomial-rows":
        if args.row_marginals is not None:
            raise InputFormatError(
                "--row-marginals does not apply to the binomial-rows scheme: "
                "its rows are fixed by --row-totals")
        if not args.row_totals or col_marg is None:
            raise InputFormatError(
                "--row-totals and --col-marginals are required for the "
                "binomial-rows scheme")
        totals = _parse_int_list(args.row_totals, "--row-totals")
        probs = np.tile(np.asarray(col_marg), (len(totals), 1))
        return SamplingScheme.binomial_rows(totals, probs)
    if args.total_rate is None or row_marg is None or col_marg is None:
        raise InputFormatError(
            "--total-rate, --row-marginals and --col-marginals are required "
            "for the poisson scheme")
    rates = args.total_rate * np.outer(row_marg, col_marg)
    return SamplingScheme.poisson(rates)


def _scheme_payload(scheme: SamplingScheme) -> dict:
    payload: dict = {"kind": scheme.kind.value}
    if scheme.cell_rates is not None:
        payload["cell_rates"] = scheme.cell_rates
    if scheme.row_totals is not None:
        payload["row_totals"] = list(scheme.row_totals)
        payload["row_probs"] = scheme.row_probs
    if scheme.total is not None:
        payload["total"] = scheme.total
        payload["joint_probs"] = scheme.joint_probs
    return payload


def _cmd_simulate(args):
    if args.seed is None:
        raise InputFormatError("--seed is required for simulate commands")
    if args.which == "coverage":
        if args.pi is None or args.trials is None:
            raise InputFormatError("--pi and --trials are required")
        coverage = coverage_wald_ci(args.pi, args.trials, args.level,
                                    args.replicates, args.seed)
        results = {
            "true_pi": args.pi, "trials": args.trials, "level": args.level,
            "replicates": args.replicates, "seed": args.seed,
            "rng_algorithm": RNG_ALGORITHM,
            "coverage": coverage,
        }
        return results, [], {k: results[k] for k in
                             ("true_pi", "trials", "level", "replicates", "seed")}

    scheme = _scheme_from_args(args)
    test = args.test.replace("-", "_")
    scores = _parse_scores(args.scores) if args.scores else None
    report = calibrate_null(scheme, test, args.replicates, args.seed, scores)
    results = {
        "scheme": _scheme_payload(scheme),
        "test": report.statistic_kind.value,
        "replicates": report.replicates,
        "seed": report.seed,
        "rng_algorithm": report.rng_algorithm,
        "reference_df": report.reference_df,
        "empirical_mean": report.empirical_mean,
        "rejection_rates": {format(a, ".10g"): r
                            for a, r in report.rejection_rates.items()},
    }
    digest_payload = {"scheme": _scheme_payload(scheme), "test": test,
                      "replicates": args.replicates, "seed": args.seed}
    return results, [], digest_payload


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="input CSV path")
    parser.add_argument("--input-format", choices=("counts", "records"),
                        default="counts",
                        help="counts: label matrix; records: two labeled columns")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cattab",
        description="Analysis of two-way contingency tables.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="probability estimates for a table")
    _add_common(p)
    p.add_argument("--given", choices=("rows", "cols"),
                   help="also show conditional probabilities given this axis")
    p.add_argument("--emit-counts", action="store_true",
                   help="print the parsed table back out as a counts CSV")
    p.set_defaults(handler=_cmd_describe)

    p = sub.add_parser("test", help="hypothesis tests")
    p.add_argument("which", choices=("independence", "homogeneity", "linear",
                                     "proportion"))
    _add_common(p)
    p.add_argument("--scores", help="row and column scores, e.g. 1:5,1:5")
    p.add_argument("--successes", type=int, help="observed successes y")
    p.add_argument("--trials", type=int, help="number of trials n")
    p.add_argument("--null", type=float, help="null proportion pi0")
    p.add_argument("--sided", choices=("two", "upper", "lower"), default="two",
                   help="alternative for the score z test")
    p.add_argument("--level", type=float, default=0.95,
                   help="confidence level for the Wald interval")
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("assoc", help="association measures")
    p.add_argument("which", choices=("odds-ratio", "correlation"))
    _add_common(p)
    p.add_argument("--rows", default="1,2",
                   help="two 1-based row indices (default 1,2)")
    p.add_argument("--cols", default="1,2",
                   help="two 1-based column indices (default 1,2)")
    p.add_argument("--zero-correction", action="store_true",
                   help="add 0.5 to each cell of the 2x2 sub-table")
    p.add_argument("--scores", help="row and column scores for correlation")
    p.set_defaults(handler=_cmd_assoc)

    p = sub.add_parser("dist", help="probability mass evaluation")
    p.add_argument("which", choices=("binomial", "multinomial", "poisson"))
    _add_common(p)
    p.add_argument("--trials", type=int, help="number of trials n")
    p.add_argument("--prob", type=float, help="binomial success probability")
    p.add_argument("--count", type=int, help="outcome count y")
    p.add_argument("--probs", help="multinomial category probabilities, e.g. .2,.8")
    p.add_argument("--counts", help="multinomial category counts, e.g. 7,3")
    p.add_argument("--rate", type=float, help="Poisson rate")
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("simulate", help="Monte Carlo calibration")
    p.add_argument("which", choices=("calibrate", "coverage"))
    _add_common(p)
    p.add_argument("--seed", type=int, help="64-bit RNG seed (required)")
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--scheme", choices=("multinomial", "binomial-rows", "poisson"),
                   default="multinomial")
    p.add_argument("--test", choices=("pearson", "deviance", "mantel-haenszel"),
                   default="pearson")
    p.add_argument("--n", type=int, help="multinomial total")
    p.add_argument("--row-marginals", help="row margin probabilities, e.g. .5,.5")
    p.add_argument("--col-marginals", help="column margin probabilities")
    p.add_argument("--row-totals", help="fixed row totals, e.g. 200,200")
    p.add_argument("--total-rate", type=float, help="poisson grand-total rate")
    p.add_argument("--scores", help="scores for the mantel-haenszel null")
    p.add_argument("--pi", type=float, help="true proportion for coverage")
    p.add_argument("--trials", type=int, help="binomial trials for coverage")
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def run(args: argparse.Namespace) -> str:
    """Execute a parsed request and return the rendered report."""
    if getattr(args, "emit_counts", False):
        return counts_csv_text(_load_table(args))
    results, warnings, digest_payload = args.handler(args)
    which = getattr(args, "which", None)
    command = args.command if which is None else f"{args.command} {which}"
    if args.format == "json":
        envelope = {
            "version": __version__,
            "input_digest": _digest(digest_payload),
            "command": command,
            "results": results,
            "warnings": warnings,
        }
        return _json_dumps(envelope) + "\n"
    return _render_text(command, _to_plain(results), warnings)


def _to_plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        output = run(args)
    except InputFormatError as exc:
        print(f"cattab: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"cattab: error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
