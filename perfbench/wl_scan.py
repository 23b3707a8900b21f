"""``scan`` workload: per-table statistics over a pool of tables.

Op: the full analysis of one pre-generated table -- ``independence_test``,
``homogeneity_test``, ``mantel_haenszel_test`` (on ordinal-flagged
tables), ``pearson_correlation``, ``odds_ratio``, ``joint_probabilities``
and ``conditional_probabilities`` given rows and given columns; work
unit: one table.

Why: this is what a library user waits for per table, with no Monte
Carlo engine, io or cli in the way. Most tables are small (2x2 to 10x10,
totals from 20 to 1e6, null and associated); a tail of large tables
(50x50 to 250x250) drives the special layer's series and
continued-fraction iteration counts. The table shapes, totals and kinds
are fixed; the workload seed draws the margins and the counts. Every
margin is positive.

Known defect, probed outside the timed phase: ``chi2_sf(df, x)`` raises
``RuntimeError`` when df is above about 30,000 (a ~175x175 table) and x
sits just below df, which is where a null table's X^2 lands about half
the time. The timed pool's null tables therefore stop at 160x160; only
associated tables, whose statistics lie far above df, are larger.
"""

from __future__ import annotations

import json
import math
import subprocess

import numpy as np

from measure import Op
from tracing import entry

UNIT = "table"  # work unit of throughput
# Ops run in this process: peak RSS is this process's.
OPS_IN_CHILD = False
# Fastest wall times kept per table for the tail (see measure.summarize).
# Each table repeats 400 to 600 times in a 50 s run; a pool of 249 x 50
# puts the tail at p99.9, inside the largest tables.
KEEP_FASTEST = 50

_SMALL_TABLES = 240
_SMALL_TOTALS = (20, 1_000_000)
_LARGE_NULL = (50, 90, 130, 160)
_LARGE_ASSOCIATED = (60, 110, 160, 200, 250)
_LARGE_CELL_N = 12
_PROBE_NULL = (200, 200, 250, 250)
_THETA = 1.0  # strength of the linear-by-linear association

_ORACLE = ("import json, sys\n"
           "from scipy.stats import chi2\n"
           "print(json.dumps([float(chi2.sf(x, df)) for x, df in json.load(sys.stdin)]))\n")


def _probabilities(rng, n_rows: int, n_cols: int, associated: bool,
                   concentration: float) -> np.ndarray:
    rows = rng.dirichlet(np.full(n_rows, concentration))
    cols = rng.dirichlet(np.full(n_cols, concentration))
    p = np.outer(rows, cols)
    if associated:
        p *= np.exp(_THETA * np.outer(np.linspace(-1, 1, n_rows), np.linspace(-1, 1, n_cols)))
        p /= p.sum()
    return p


def _counts(rng, n_rows: int, n_cols: int, total: int, associated: bool,
            concentration: float) -> np.ndarray:
    p = _probabilities(rng, n_rows, n_cols, associated, concentration)
    counts = rng.multinomial(total, p.ravel()).reshape(n_rows, n_cols)
    for i in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[i, rng.integers(n_cols)] += 1
    for j in np.flatnonzero(counts.sum(axis=0) == 0):
        counts[rng.integers(n_rows), j] += 1
    if counts[:2, :2].sum() == 0:  # keep the 2x2 odds ratio defined
        counts[0, 0] += 1
    return counts


def _specs():
    """(rows, cols, total, associated, ordinal, concentration) of every
    table in the pool; independent of the seed."""
    lo, hi = _SMALL_TOTALS
    specs = []
    for k in range(_SMALL_TABLES):
        frac = ((k * 97) % _SMALL_TABLES) / (_SMALL_TABLES - 1)
        total = int(round(lo * (hi / lo) ** frac))
        specs.append((2 + k % 9, 2 + (k // 9) % 9, total, k % 2 == 1, k % 3 == 0, 2.0))
    for k, size in enumerate(_LARGE_NULL):
        specs.append((size, size, _LARGE_CELL_N * size * size, False, k % 2 == 0, 20.0))
    for k, size in enumerate(_LARGE_ASSOCIATED):
        specs.append((size, size, _LARGE_CELL_N * size * size, True, k % 2 == 1, 20.0))
    return specs


def _table(counts: np.ndarray, ordinal: bool):
    from cattab.table import ContingencyTable

    return ContingencyTable(counts,
                            tuple(f"r{i}" for i in range(counts.shape[0])),
                            tuple(f"c{j}" for j in range(counts.shape[1])),
                            row_ordinal=ordinal, col_ordinal=ordinal)


def analyse(table, api) -> tuple:
    """The op: every per-table statistic a user would ask for."""
    ind = api["independence_test"](table)
    hom = api["homogeneity_test"](table)
    mh = api["mantel_haenszel_test"](table) if table.row_ordinal else None
    r = api["pearson_correlation"](table)
    ratio = api["odds_ratio"](table)
    joint = api["joint_probabilities"](table)
    by_rows = api["conditional_probabilities"](table, "rows")
    by_cols = api["conditional_probabilities"](table, "cols")
    return ind, hom, mh, r, ratio, joint, by_rows, by_cols


_API = (("inference", "independence_test"), ("inference", "homogeneity_test"),
        ("inference", "mantel_haenszel_test"), ("association", "pearson_correlation"),
        ("association", "odds_ratio"), ("table", "joint_probabilities"),
        ("table", "conditional_probabilities"))


def setup(seed: int, ctx) -> dict:
    """Draw the pool from the seed and analyse every table once."""
    rng = np.random.default_rng(seed)
    tables = [_table(_counts(rng, r, c, n, assoc, conc), ordinal)
              for r, c, n, assoc, ordinal, conc in _specs()]
    api = {name: entry(None, module, name) for module, name in _API}
    for table in tables:
        analyse(table, api)
    probe_rng = np.random.default_rng([seed, 1])
    probe_counts = [_counts(probe_rng, s, s, _LARGE_CELL_N * s * s, False, 20.0)
                    for s in _PROBE_NULL]
    return {"tables": tables, "probe_counts": probe_counts}


def reference(counts: np.ndarray) -> dict:
    """X^2, G^2, df, M^2 (integer scores), r and the (1,1)-(2,2) odds
    ratio, recomputed with plain numpy."""
    o = counts.astype(float)
    n = o.sum()
    rows, cols = o.sum(axis=1), o.sum(axis=0)
    e = np.outer(rows, cols) / n
    pos = o > 0
    u = np.arange(1, o.shape[0] + 1) - rows @ np.arange(1, o.shape[0] + 1) / n
    v = np.arange(1, o.shape[1] + 1) - cols @ np.arange(1, o.shape[1] + 1) / n
    r = float(u @ o @ v / math.sqrt((rows @ u**2) * (cols @ v**2)))
    den = o[1, 0] * o[0, 1]
    return {
        "x2": float(((o - e) ** 2 / e).sum()),
        "g2": max(0.0, float(2.0 * (o[pos] * np.log(o[pos] / e[pos])).sum())),
        "df": (o.shape[0] - 1) * (o.shape[1] - 1),
        "r": r,
        "m2": (n - 1) * r * r,
        "odds_ratio": math.inf if den == 0 else float(o[0, 0] * o[1, 1] / den),
    }


def scipy_chi2_sf(pairs: list[tuple[float, int]], ctx) -> list[float] | None:
    """``scipy.stats.chi2.sf`` for each (x, df), computed in a child
    process so scipy adds nothing to this process's memory; None when
    scipy does not import."""
    proc = subprocess.run([ctx.python, "-c", _ORACLE], input=json.dumps(pairs),
                          capture_output=True, text=True, timeout=120, cwd=ctx.root)
    return json.loads(proc.stdout) if proc.returncode == 0 else None


def prepare(state: dict, ctx) -> None:
    refs = [reference(t.counts) for t in state["tables"]]
    pairs = []
    for ref in refs:
        pairs += [(ref["x2"], ref["df"]), (ref["g2"], ref["df"]), (ref["m2"], 1)]
    p_values = scipy_chi2_sf(pairs, ctx)
    for k, ref in enumerate(refs):
        ref["p"] = None if p_values is None else p_values[3 * k:3 * k + 3]
    state["refs"] = refs
    state["p_value_oracle"] = "scipy" if p_values is not None else "none"


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    return a == b or math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _p_close(a: float, b: float) -> bool:
    return _close(a, b, rel=1e-6, abs_=1e-12)


def check(out: tuple, table, ref: dict) -> bool:
    ind, hom, mh, r, ratio, joint, by_rows, by_cols = out
    pearson, deviance, _ = ind
    ok = (_close(pearson.statistic, ref["x2"]) and _close(deviance.statistic, ref["g2"])
          and pearson.df == deviance.df == ref["df"]
          and hom[0].statistic == pearson.statistic and hom[1].statistic == deviance.statistic
          and hom[0].p_value == pearson.p_value and hom[1].p_value == deviance.p_value
          and _close(r, ref["r"]) and _close(ratio.estimate, ref["odds_ratio"]))
    if ok and ref["p"] is not None:
        ok = _p_close(pearson.p_value, ref["p"][0]) and _p_close(deviance.p_value, ref["p"][1])
    if ok and table.row_ordinal:
        ok = mh.df == 1 and _close(mh.statistic, ref["m2"])
        if ok and ref["p"] is not None:
            ok = _p_close(mh.p_value, ref["p"][2])
    if ok:
        counts = table.counts
        ok = (np.allclose(joint.joint * counts.sum(), counts, rtol=1e-12, atol=1e-9)
              and np.allclose(by_rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
              and np.allclose(by_cols.sum(axis=0), 1.0, rtol=0, atol=1e-12))
    return bool(ok)


def ops(state: dict, tracer, ctx) -> list[Op]:
    api = {name: entry(tracer, module, name) for module, name in _API}
    return [Op(label=f"#{k} {t.n_rows}x{t.n_cols} n={t.total()}",
               run=lambda t=t: analyse(t, api),
               check=lambda out, t=t, ref=ref: check(out, t, ref))
            for k, (t, ref) in enumerate(zip(state["tables"], state["refs"]))]


def probes(state: dict, ctx) -> list[tuple[str, callable]]:
    from cattab.inference import independence_test
    from cattab.special import chi2_sf

    out = [("chi2_sf(df=39601, x=39600)", lambda: chi2_sf(39601, 39600))]
    for counts in state["probe_counts"]:
        out.append((f"independence_test on a null {counts.shape[0]}x{counts.shape[1]} table",
                    lambda counts=counts: independence_test(_table(counts, False))))
    return out
