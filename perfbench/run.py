"""Repository benchmark: Figure 8 sweeps and an experiment-service mix.

Usage::

    python3 perfbench/run.py --workload {fig8-poll,fig8-cq,service} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` a separate traced run prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import ROOT, WORK_ROOT, Tally, require_program

WORKLOADS = ("fig8-poll", "fig8-cq", "service")


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_span_summary(spans_path: str) -> None:
    """Calls, total and self time per span name: where the traced time went."""
    from spans import totals_by_name

    with open(spans_path, encoding="utf-8") as handle:
        rows = totals_by_name(json.load(handle))
    print(f"spans written to {spans_path}")
    print(f"{'span':34s} {'calls':>8s} {'total_s':>12s} {'self_s':>12s}")
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["total_s"]):
        print(f"{name:34s} {row['calls']:>8d} {row['total_s']:>12.6f} {row['self_s']:>12.6f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_program()
    declared = declared_metrics(bool(args.trace))

    import fig8
    import service

    module = service if args.workload == "service" else fig8
    work_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    tally = Tally()
    try:
        if args.trace:
            spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
            measured = module.trace(args.workload, args.seed, args.seconds, work_dir, tally, spans_path)
        else:
            measured = module.measure(args.workload, args.seed, args.seconds, work_dir, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in declared.items():
        if name in measured:
            value, measured_unit, note = measured[name]
            if measured_unit != unit:
                raise RuntimeError(f"{name} measured in {measured_unit}, declared in {unit}")
        elif args.trace:
            value, note = 0, "not on this workload's path"
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:34s} {value:>16.6f} {unit:6s} {note}")
    print(f"{'operations attempted':34s} {tally.attempted:>16d}")
    print(f"{'operations failed':34s} {tally.failed:>16d}")
    for problem in tally.problems[:20]:
        print(f"PROBLEM: {problem}")
    if args.trace:
        print_span_summary(spans_path)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
