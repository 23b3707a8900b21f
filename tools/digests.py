"""Bit-identity digests of cattab's outputs.

    PYTHONPATH=src python tools/digests.py

Prints two SHA-256 digests, one line each, so that a change can show
that it keeps every output bit for bit: run this script, unchanged, on
the parent's ``src`` and on the change's (``PYTHONPATH`` selects which
cattab is imported) and compare the lines.

- ``tables``: every per-table output over 1,147 tables. They are the
  ``scan`` benchmark's pool for seeds 1-3 (``perfbench/wl_scan.py``,
  imported read-only; 747 tables, 2x2 to 250x250) and 400 seeded
  tables of 2x2 to 6x6 with many zero cells. The outputs are both
  chi-square tests under both hypotheses (statistics, df, p-values,
  warning flags, expected values), ``expected_frequencies``, M^2 and r
  under the default and under explicit scores, the joint and marginal
  estimates, both conditionals and the odds ratio with and without the
  zero correction; a refusal contributes its ``ValueError`` message.
- ``calibrate``: ``calibrate_null`` reports for five schemes (2x2
  multinomial n = 8, binomial rows 2x3 with totals 2 and 3, Poisson 2x2,
  Poisson 2x2 with two cells above 1e12, 3x4 multinomial n = 50), four
  tests (X^2, G^2, M^2 with default and with explicit scores), seeds 0
  and 3 and 2,000 replicates.

Floats are hashed by their bits (``float.hex``), arrays by dtype, shape
and bytes, records field by field (expected frequencies by their
``values``, as when that was their one field). The digests are
printed, not checked against stored values: they depend on the numpy
release as well.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

import numpy as np

import cattab

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import wl_scan  # noqa: E402  (the scan pool, from the benchmark's own module)

SCAN_SEEDS = (1, 2, 3)
ZERO_CELL_TABLES = 400
ZERO_CELL_SEED = 20240
REPLICATES = 2000
CALIBRATE_SEEDS = (0, 3)


def _update(h, x) -> None:
    """Feed a type-tagged, bit-exact form of ``x`` into the hash."""
    if x is None or isinstance(x, bool):
        h.update(repr(x).encode())
    elif isinstance(x, enum.Enum):
        h.update(b"e" + repr(x.value).encode())
    elif type(x) in (int, str):
        h.update(f"{type(x).__name__}{len(str(x))}:{x}".encode())
    elif type(x) is float:
        h.update(b"f" + x.hex().encode())
    elif isinstance(x, np.ndarray):
        h.update(f"a{x.dtype.str}{x.shape}".encode() + np.ascontiguousarray(x).tobytes())
    elif isinstance(x, np.generic):
        h.update(f"n{x.dtype.str}".encode() + x.tobytes())
    elif isinstance(x, (tuple, list)):
        h.update(f"({len(x)}".encode())
        for item in x:
            _update(h, item)
    elif isinstance(x, dict):
        _update(h, list(x.items()))
    elif isinstance(x, cattab.ExpectedFrequencies):
        # By its values, not by its one field, the table it was built from.
        h.update(type(x).__name__.encode())
        _update(h, [("values", x.values)])
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        _update(h, [(f.name, getattr(x, f.name)) for f in dataclasses.fields(x)])
    else:
        raise TypeError(f"cannot digest {type(x)!r}")


def _outcome(call, *args, **kwargs):
    """The call's value, or its ``ValueError`` as a tagged message."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _zero_cell_counts() -> list[np.ndarray]:
    """Tables of 2x2 to 6x6 with cells 0-3, about half of them zero, so
    that zero rows, zero columns and 0/0 odds ratios occur."""
    rng = np.random.default_rng(ZERO_CELL_SEED)
    out = []
    for _ in range(ZERO_CELL_TABLES):
        shape = tuple(int(k) for k in rng.integers(2, 7, size=2))
        out.append(rng.integers(0, 4, size=shape) * (rng.random(shape) < 0.5))
    return out


def _explicit_scores(shape: tuple[int, int]) -> cattab.ScoreAssignment:
    n_rows, n_cols = shape
    return cattab.ScoreAssignment(tuple(k * k for k in range(n_rows)),
                                  tuple(range(n_cols, 0, -1)))


def _table_outputs(table) -> list:
    """The table and every per-table output of it."""
    scores = _explicit_scores(table.shape)
    return [
        table,
        _outcome(cattab.independence_test, table),
        _outcome(cattab.homogeneity_test, table),
        _outcome(cattab.expected_frequencies, table),
        _outcome(cattab.mantel_haenszel_test, table),
        _outcome(cattab.mantel_haenszel_test, table, scores),
        _outcome(cattab.pearson_correlation, table),
        _outcome(cattab.pearson_correlation, table, scores),
        _outcome(cattab.joint_probabilities, table),
        _outcome(cattab.conditional_probabilities, table, "rows"),
        _outcome(cattab.conditional_probabilities, table, "cols"),
        _outcome(cattab.odds_ratio, table),
        _outcome(cattab.odds_ratio, table, zero_correction=True),
    ]


def tables_digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for seed in SCAN_SEEDS:
        rng = np.random.default_rng(seed)
        for rows, cols, n, assoc, ordinal, conc in wl_scan._specs():
            table = wl_scan._table(wl_scan._counts(rng, rows, cols, n, assoc, conc), ordinal)
            _update(h, _table_outputs(table))
            count += 1
    for counts in _zero_cell_counts():
        table = _outcome(wl_scan._table, counts, True)  # an all-zero table is refused
        _update(h, table if isinstance(table, tuple) else _table_outputs(table))
        count += 1
    return count, h.hexdigest()


def _schemes() -> list:
    scheme = cattab.SamplingScheme
    return [
        scheme.multinomial(8, np.full((2, 2), 0.25)),
        scheme.binomial_rows((2, 3), np.tile([0.2, 0.3, 0.5], (2, 1))),
        scheme.poisson(np.outer([2.0, 3.0], [0.5, 1.5])),
        scheme.poisson(np.outer([1.0, 3.0], [2e13, 5.0])),
        scheme.multinomial(50, np.outer([0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4])),
    ]


def calibrate_digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for scheme in _schemes():
        tests = [("pearson", None), ("deviance", None), ("mantel_haenszel", None),
                 ("mantel_haenszel", _explicit_scores(scheme.shape))]
        for test, scores in tests:
            for seed in CALIBRATE_SEEDS:
                _update(h, _outcome(cattab.calibrate_null, scheme, test, REPLICATES, seed,
                                    scores))
                count += 1
    return count, h.hexdigest()


def main() -> int:
    for name, digest in (("tables", tables_digest), ("calibrate", calibrate_digest)):
        count, value = digest()
        print(f"{name:<9} {count:5d} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
