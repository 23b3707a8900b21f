"""Mutation gate: each mutant in ``tools/mutants.json`` must be killed.

    python tools/mutants.py

A mutant is one exact-text substitution in one file. For each, the
whole checkout (less ``.git`` and caches) is copied to a temporary
directory, the mutant's ``old`` text, which must occur exactly once in
its file, is replaced by ``new``, and ``pytest -x`` runs the tests the
mutant names (files or node ids) in the copy. The whole checkout is
copied because ``pyproject.toml`` puts the checkout's own ``src`` first
on the path: a copy of ``src`` alone would be tested against the
unmutated code. A mutant is killed when pytest fails.

A mutant whose entry gives ``"equivalent": "<reason>"`` is expected to
survive. Before the mutants, the named tests must pass on the unmutated
copy.

Exit status: 0 when every mutant is killed or survives as an equivalent
it names, 1 otherwise. Standard library only (and pytest).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", ".perfbench_out", "*.egg-info", "build")


def _pytest(checkout: Path, tests: list[str]) -> bool:
    """Whether ``pytest -x`` passes on ``tests`` in ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def _apply(checkout: Path, mutant: dict) -> None:
    path = checkout / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        raise SystemExit(f"mutant {mutant['name']!r}: its text occurs {count} times "
                         f"in {mutant['file']}, not once")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="cattab-mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        shutil.copytree(ROOT, baseline, ignore=_IGNORE)
        tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
        if not _pytest(baseline, tests):
            print("mutants: the named tests fail on the unmutated checkout")
            return 1
        for k, mutant in enumerate(mutants):
            checkout = Path(tmp) / f"mutant{k}"
            shutil.copytree(baseline, checkout)
            _apply(checkout, mutant)
            start = time.perf_counter()
            survived = _pytest(checkout, mutant["tests"])
            seconds = time.perf_counter() - start
            equivalent = mutant.get("equivalent")
            if survived and equivalent:
                outcome = f"survived, equivalent: {equivalent}"
            elif survived:
                outcome = "SURVIVED"
            elif equivalent:
                outcome = "KILLED, yet named equivalent"
            else:
                outcome = "killed"
            failed += survived != bool(equivalent)
            print(f"{outcome:>8} {seconds:5.1f} s  {mutant['name']}  ({mutant['file']})")
            shutil.rmtree(checkout)
    print(f"mutants: {len(mutants) - failed} of {len(mutants)} as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
