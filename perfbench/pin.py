"""Regenerate pins.json: the outputs the benchmark checks runs against.

Usage: ``python3 perfbench/pin.py``

Pins, for seeds 0-9, each Fig 8 point's cycles, memory/io bus occupancy
and network message count, and every service pool spec's metrics.  Rerun
only when a change is meant to alter simulated results, and say so.
"""

from __future__ import annotations

import json

from common import require_program

SEEDS = range(10)


def main() -> None:
    require_program()
    from repro.api import ExperimentSpec, SweepRunner, run_point

    import fig8
    import service

    pins = {"fig8": {}, "service": {}}
    for workload in fig8.CONFIGS:
        pins["fig8"][workload] = {}
        for seed in SEEDS:
            results = SweepRunner(jobs=1, cache_dir=None).run(fig8.build_points(workload, seed))
            pins["fig8"][workload][str(seed)] = {
                fig8.point_label(r.spec): [int(v) for v in fig8.pinned_metrics(r.metrics)]
                for r in results
            }
    for spec in service.POOL:
        result = run_point(ExperimentSpec.from_dict(spec))
        pins["service"][service.spec_label(spec)] = result.metrics
    with open(fig8.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
