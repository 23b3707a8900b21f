"""Arithmetic shared by every workload: op accounting, latency summaries,
the tail-percentile rule and the environment record."""

from __future__ import annotations

import heapq
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# The tail latency is the highest percentile of this ladder that still
# has this many samples beyond it.
TAIL_BEYOND = 10
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


@dataclass(frozen=True)
class Op:
    """One timed call into the program and the check of its output.

    ``check`` returns True when the output is right; it runs outside the
    timed interval. ``units`` is the work the op completes when it
    succeeds. ``kind`` and ``replicates`` describe Monte Carlo ops for the
    per-replicate layer metrics (see :func:`tracing.layer_metrics`).
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    units: float = 1.0
    kind: str | None = None
    replicates: int = 0


def _rank(percentile: float, n: int) -> int:
    """Nearest rank (1-based) of a percentile given to 0.1, in exact
    integer arithmetic."""
    tenths = round(percentile * 10)
    return max(1, -(-tenths * n // 1000))


def latency_ladder(samples: list[float], beyond: int = TAIL_BEYOND) -> dict[float, float]:
    """Nearest-rank percentiles of ``LADDER`` that have at least
    ``beyond`` samples above them; the median always."""
    xs = sorted(samples)
    n = len(xs)
    out = {}
    for q in LADDER:
        rank = _rank(q, n)
        if q == 50.0 or n - rank >= beyond:
            out[q] = xs[rank - 1]
    return out


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Return ``(value, percentile, samples_beyond)`` for the highest
    percentile of ``LADDER`` with at least ``beyond`` samples above it.

    Below ``2 * beyond`` samples no percentile qualifies, and the median
    is returned with the number of samples above it.
    """
    if not samples:
        raise ValueError("no samples")
    ladder = latency_ladder(samples, beyond)
    q = max(ladder)
    return ladder[q], q, len(samples) - _rank(q, len(samples))


@dataclass
class OpLog:
    """Outcome and wall time of every op a workload attempted.

    An op fails when it raises (``error``) or returns an output that its
    check rejects (``wrong``). Only successful ops contribute work units
    and latency samples; every op's wall time counts toward the timed
    wall time. ``cycles`` counts the whole cycles of distinct ops run.

    Of each distinct op's successes only the ``keep`` fastest wall times
    are kept, so the bookkeeping takes the same memory however many ops a
    run completes.
    """

    keep: int = 1
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    units: float = 0.0
    wall_ns: int = 0
    cycles: int = 0
    # label of the distinct op -> its fastest successful wall times, in ns,
    # negated to make a max-heap of at most ``keep`` entries
    fastest: dict[str, list[int]] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)

    def add(self, label: str, duration_ns: int, units: float, error: str | None = None,
            wrong: bool = False) -> None:
        self.attempted += 1
        self.wall_ns += duration_ns
        if error is not None:
            self.raised += 1
            self.errors[error] = self.errors.get(error, 0) + 1
        elif wrong:
            self.wrong += 1
        else:
            self.units += units
            heap = self.fastest.setdefault(label, [])
            if len(heap) < self.keep:
                heapq.heappush(heap, -duration_ns)
            elif -duration_ns > heap[0]:
                heapq.heapreplace(heap, -duration_ns)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def wall_throughput(self) -> float:
        """Work units of successful ops per second of timed wall time."""
        return self.units / (self.wall_ns / 1e9) if self.wall_ns else 0.0

    def pool_ms(self) -> list[float]:
        """The kept wall times of every distinct op, in ms."""
        return [-ns / 1e6 for heap in self.fastest.values() for ns in heap]

    def best_ms(self) -> list[float]:
        """The fastest wall time of every distinct op, in ms."""
        return [-max(heap) / 1e6 for heap in self.fastest.values()]

    @property
    def throughput(self) -> float:
        """Work units of successful ops in one cycle per second of a cycle
        in which each distinct op takes its fastest wall time."""
        cycle_ns = sum(-max(heap) for heap in self.fastest.values())
        if not cycle_ns or not self.cycles:
            return 0.0
        return self.units / self.cycles / (cycle_ns / 1e9)


def summarize(log: OpLog) -> dict:
    """End-to-end latency and throughput figures of one timed phase.

    The figures come from the fastest successful wall times of each
    distinct op: the median over the ops' fastest times, the throughput
    from a cycle in which each op takes its fastest time, and the tail
    from the pool of each op's ``log.keep`` fastest times. On a shared
    machine other tenants slow every op by up to 1.7x, for seconds to
    minutes at a time and in a share of the run that changes from run to
    run; the fastest repeats of each op are those that ran in the quiet
    moments that a run holds. ``keep`` is set per workload so that the
    pool holds few repeats of each op yet at least ``TAIL_BEYOND``
    distinct measurements beyond its tail.
    """
    pool = log.pool_ms()
    if not pool:
        raise ValueError("no op succeeded")
    tail, pct, beyond = tail_percentile(pool)
    return {
        "throughput": log.throughput,
        "latency_ms_p50": statistics.median(log.best_ms()),
        "latency_ms_tail": tail,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(pool),
        "latency_ladder_ms": latency_ladder(pool),
        "wall_throughput": log.wall_throughput,
    }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process, or of the largest child it
    has waited for, in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """Commit of the checkout; ``"unknown"`` when ``root`` is not the top
    of a git working tree (git is not run then, so it reads nothing
    outside the checkout) or git is missing."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(root),
        "seed": seed,
    }
