"""Shared plumbing: repository paths, sample statistics and the tally of
operations attempted and failed."""

from __future__ import annotations

import os
import statistics
import sys
from typing import Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores and trace files; listed in the root .gitignore.
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: A percentile is reported only as high as leaves this many samples
#: beyond it; the sample count is printed next to every percentile.
MIN_TAIL_SAMPLES = 10


def require_program() -> None:
    """Put ``src`` on the import path, or exit non-zero without a result
    when the checkout holds no program to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for a child Python process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_note(count: int, pct: int) -> str:
    beyond = count * (100 - pct) / 100
    note = f"n={count}"
    if beyond < MIN_TAIL_SAMPLES:
        note += f", only {beyond:g} samples beyond p{pct}"
    return note


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MB, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Tally:
    """Operations attempted and failed, plus run-wide checks.

    The run is correct only when no operation failed and every run-wide
    check held; each problem is kept with a reason for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; record ``what`` when its output was wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def invariant(self, ok: bool, what: str) -> None:
        """A run-wide check that counts no operation of its own."""
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems
