"""cattab benchmark: two closed-loop workloads behind one command.

Usage (from the repository root):

    python3 perfbench/run.py --workload {scan,cli,all} \\
        --seed N --seconds S --trace {0,1}

Each workload has one caller and no threads; it starts at most one child
process at a time. The BLAS and OpenMP pools of this process and of every
child are held to one thread: at their default, each ``import numpy``
starts a pool whose threads spin on the machine's other core, so a CLI
invocation's wall time would hang on what else runs there. The program
is imported from ``src/`` of the checkout the script sits in; the run
stops with an error when that is missing.

A run has three phases:

1. Set-up, repeated ``SETUP_REPEATS`` times: ``import cattab`` timed in a
   fresh interpreter, then the workload's input generation and warm-up
   in this process. ``setup_s`` is the median of the repeats.
2. Reference computation for the output checks (not timed).
3. The timed phase: the workload's ops run in a fixed cycle, and whole
   cycles repeat until ``--seconds`` have passed. Each op's output is
   checked outside its timed interval; an op that raises or fails its
   check counts as failed. The end-to-end figures come from the
   ``KEEP_FASTEST`` fastest wall times of each distinct op of the
   workload (see ``measure.summarize``); the details line also gives the
   throughput over the whole timed wall time.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the first third of the timed phase runs untraced and
the rest with every layer boundary traced (see ``tracing.py``); the last
line carries the per-layer metrics. The line before it records the
environment, the workload seed, the tail percentile and its sample
counts, the op errors and the outcome of the known-defect probes, which
run after the timed phase and are neither timed nor counted as ops.
Spans of a traced run are written to ``.perfbench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

# Set before numpy is first imported, here or in a child.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

from measure import OpLog, environment, peak_rss_mb, summarize
from tracing import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
WORKLOADS = ("scan", "cli")
SETUP_REPEATS = 5
UNTRACED_SHARE = 1 / 3
END_TO_END = (
    ("throughput", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

_IMPORT = ("import time\n"
           "t = time.perf_counter_ns()\n"
           "import cattab\n"
           "print(time.perf_counter_ns() - t, cattab.__file__)\n")


@dataclass(frozen=True)
class Context:
    """Where the program lives and how child processes are started."""

    root: Path
    python: str
    env: dict
    workdir: Path


def load_cattab() -> None:
    """Import cattab from this checkout's ``src/``, and nowhere else."""
    package = SRC / "cattab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no cattab package at {package}")
    sys.path.insert(0, str(SRC))
    import cattab

    if Path(cattab.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported cattab from {cattab.__file__}, not {package}")


def import_ms(ctx: Context) -> float:
    """Time of ``import cattab`` in a fresh interpreter, in ms."""
    proc = subprocess.run([ctx.python, "-c", _IMPORT], cwd=ctx.root, env=ctx.env,
                          capture_output=True, text=True, check=True, timeout=120)
    ns, path = proc.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != (SRC / "cattab").resolve():
        raise RuntimeError(f"child imported cattab from {path.strip()}")
    return int(ns) / 1e6


def timed_setup(wl, seed: int, ctx: Context):
    """Run the set-up ``SETUP_REPEATS`` times; return the last state, the
    median set-up time in s and the median import time in ms."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous repeat's inputs before making new ones
        imp = import_ms(ctx)
        t0 = perf_counter_ns()
        state = wl.setup(seed, ctx)
        totals.append(imp / 1e3 + (perf_counter_ns() - t0) / 1e9)
        imports.append(imp)
    return state, statistics.median(totals), statistics.median(imports)


def _passes(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # a check that cannot read the output rejects it
        return False


def run_phase(ops, seconds: float, keep: int = 1, tracer: Tracer | None = None,
              op_meta: dict | None = None) -> OpLog:
    """Run whole cycles of ``ops`` until ``seconds`` have passed, keeping
    the ``keep`` fastest successful wall times of each distinct op."""
    log = OpLog(keep=keep)
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(op_meta)
                op_meta[tracer.op_id] = (op.kind, op.replicates)
                span = tracer.open("op:" + op.label)
            error = out = None
            t0 = perf_counter_ns()
            try:
                out = op.run()
            except Exception as exc:  # the op failed; count it and go on
                error = f"{type(exc).__name__}: {exc}"
            duration = perf_counter_ns() - t0
            if tracer is not None:
                tracer.close(span)
            log.add(op.label, duration, op.units, error,
                    wrong=error is None and not _passes(op, out))
        log.cycles += 1
        if perf_counter_ns() >= deadline:
            return log


def run_probes(probes) -> list[dict]:
    out = []
    for name, fn in probes:
        try:
            fn()
            out.append({"probe": name, "outcome": "returns"})
        except Exception as exc:  # reproducing the defect is the point
            out.append({"probe": name, "outcome": f"raises {type(exc).__name__}: {exc}"})
    return out


def _metrics(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    load_cattab()
    WORKDIR.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    ctx = Context(root=ROOT, python=sys.executable, env=env, workdir=WORKDIR)
    wl = importlib.import_module(f"wl_{name}")

    state, setup_s, imp_ms = timed_setup(wl, seed, ctx)
    wl.prepare(state, ctx)
    if trace:
        untraced = run_phase(wl.ops(state, None, ctx), seconds * UNTRACED_SHARE,
                             wl.KEEP_FASTEST)
        tracer, op_meta = Tracer(), {}
        with tracer.patched():
            log = run_phase(wl.ops(state, tracer, ctx), seconds * (1 - UNTRACED_SHARE),
                            wl.KEEP_FASTEST, tracer, op_meta)
        base = untraced.throughput
        overhead = 1.0 - log.throughput / base if base else 0.0
        metrics = _metrics(layer_metrics(tracer, op_meta, imp_ms, overhead), PER_LAYER)
        tracer.save(WORKDIR / f"spans-{name}.npz")
        logs = (untraced, log)
    else:
        log = run_phase(wl.ops(state, None, ctx), seconds, wl.KEEP_FASTEST)
        summary = summarize(log)
        summary["peak_rss_mb"] = peak_rss_mb(children=wl.OPS_IN_CHILD)
        summary["setup_s"] = setup_s
        metrics = _metrics(summary, END_TO_END)
        logs = (log,)

    attempted = sum(lg.attempted for lg in logs)
    failed = sum(lg.failed for lg in logs)
    errors: dict[str, int] = {}
    for lg in logs:
        for message, count in lg.errors.items():
            errors[message] = errors.get(message, 0) + count
    details = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(ROOT, seed),
        "work_unit": wl.UNIT,
        "failed_frac": failed / attempted,
        "wrong": sum(lg.wrong for lg in logs),
        "errors": errors,
        "setup_s": setup_s,
        "import_ms": imp_ms,
        "p_value_oracle": state.get("p_value_oracle"),
        "known_defects": run_probes(wl.probes(state, ctx)),
    }
    if not trace:
        details.update({k: summary[k] for k in ("tail_percentile", "tail_samples_beyond",
                                                "samples", "latency_ladder_ms",
                                                "wall_throughput")})
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in its own process so that peak
    memory is per workload; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
