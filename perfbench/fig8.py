"""The two Figure 8 workloads: the 25 macro points on the uncached-poll
devices (``fig8-poll``) or on the cachable-queue devices (``fig8-cq``).

Untraced, a run times whole ``SweepRunner(jobs=1, cache_dir=None)`` sweeps
(``wall_s``), each point inside them (``cold_ms``), and repeat points
served from a result store the sweep filled (``warm_ms``).  Traced, it
wraps the layers' public functions in spans, runs the same sweep and warm
reads through them, reads the counters each layer keeps, and profiles one
more sweep for self time per package.

Run as a script, this module is the set-up probe: it does what a run does
before its first timed point and prints ``ready``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

from common import BENCH_DIR, SRC, Tally, child_env, percentile, require_program, tail_note, vm_hwm_mb

APPS = ("spsolve", "gauss", "em3d", "moldyn", "appbt")
#: Reduced machine and inputs of benchmarks/bench_fig8_macro.py.
NUM_NODES = 8
SCALE = 0.25
APP_KWARGS = {
    "spsolve": {"num_elements": 256},
    "gauss": {"rounds": 8},
    "em3d": {"nodes_per_proc": 32, "iterations": 2},
    "moldyn": {"iterations": 1},
    "appbt": {"iterations": 1},
}
CONFIGS = {
    # Devices whose status registers are polled uncached: every poll is a
    # bus transaction, so spin elision cannot apply.
    "fig8-poll": (("NI2w", "memory"), ("NI2w", "io"), ("NI2w", "cache"),
                  ("CNI4", "memory"), ("CNI4", "io")),
    # Cachable-queue devices: empty polls hit in the cache and are elided.
    "fig8-cq": (("CNI16Q", "memory"), ("CNI16Q", "io"), ("CNI512Q", "memory"),
                ("CNI512Q", "io"), ("CNI16Qm", "memory")),
}
#: Host seconds one sweep takes on a 2-core Xeon.  The number of sweeps in
#: a run is ``--seconds`` divided by this, so a given ``--seconds`` always
#: measures the same work, however fast the host.
NOMINAL_SWEEP_S = {"fig8-poll": 3.0, "fig8-cq": 2.2}
#: Metrics pinned per point for known seeds (see pin.py).
PIN_KEYS = ("cycles", "memory_bus_occupancy", "io_bus_occupancy", "network_messages")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
#: Set-up is sampled at least this often (once per round otherwise).
SETUP_PROBES = 5
#: 100 warm samples a round, so a round's p90 has 10 beyond it.
WARM_PASSES_PER_ROUND = 4
PACKAGES = ("sim", "coherence", "ni", "msglayer", "network", "node", "apps", "api")


def build_points(workload: str, seed: int) -> List[Any]:
    """The workload's validated points, each carrying the run's seed."""
    from repro.api import macro_sweep

    sweep = macro_sweep(
        APPS, CONFIGS[workload], num_nodes=NUM_NODES, scale=SCALE,
        workload_kwargs=APP_KWARGS, include_baseline=False,
    )
    return [point.with_overrides(seed=seed).validate() for point in sweep]


def point_label(spec: Any) -> str:
    return f"{spec.workload} {spec.config}"


def load_pins(workload: str, seed: int) -> Dict[str, List[float]]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["fig8"][workload].get(str(seed), {})


def pinned_metrics(metrics: Dict[str, float]) -> List[float]:
    return [metrics[key] for key in PIN_KEYS]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter on this module to its
    ``ready``: imports, building the point list and validating it."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "fig8.py"), "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return elapsed


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def timed_sweep(points: List[Any]) -> Tuple[Any, float, List[float]]:
    """One uncached serial sweep: results, wall seconds, per-point seconds."""
    from repro.api import SweepRunner

    marks: List[float] = []
    runner = SweepRunner(
        jobs=1, cache_dir=None, progress=lambda done, total, result: marks.append(time.perf_counter())
    )
    started = time.perf_counter()
    results = runner.run(points)
    wall = time.perf_counter() - started
    per_point = [b - a for a, b in zip([started] + marks, marks)]
    return results, wall, per_point


def check_points(results: Any, reference: Any, pins: Dict[str, List[float]], tally: Tally, what: str) -> None:
    """Every point completed, repeats its first sweep's metrics, and, for a
    pinned seed, gives the pinned values."""
    for result, first in zip(results, reference):
        label = point_label(result.spec)
        pinned = pins.get(label)
        ok = (
            result.ok
            and result.metrics == first.metrics
            and (pinned is None or pinned_metrics(result.metrics) == pinned)
        )
        tally.check(ok, f"{what} {label}: {result.error or result.metrics}")


def fill_store(reference: Any, store_dir: str, tally: Tally) -> Any:
    """A fresh result store holding the reference results; each point
    misses before it is put."""
    from repro.service.store import ResultStore

    store = ResultStore(store_dir)
    for result in reference:
        tally.check(store.get(result.spec) is None, f"fresh store already holds {point_label(result.spec)}")
        store.put(result)
    return store


def warm_reads(points: List[Any], reference: Any, store: Any, tally: Tally) -> List[float]:
    """Time each point rerun against the filled store, as a rerun of the
    figure with a warm result store is served."""
    from repro.api import SweepRunner

    samples = []
    for spec, first in zip(points, reference):
        started = time.perf_counter()
        result = SweepRunner(jobs=1, cache_dir=store).run([spec])[0]
        samples.append(time.perf_counter() - started)
        tally.check(
            result.cached and result.metrics == first.metrics,
            f"warm {point_label(spec)} not served from the store intact",
        )
    return samples


def sweep_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_SWEEP_S[workload]))


def measure(workload: str, seed: int, seconds: float, work_dir: str, tally: Tally) -> Dict[str, Tuple[float, str, str]]:
    """Rounds of one set-up probe, one timed sweep and a few warm passes,
    so that a slow spell of the host touches every metric alike."""
    setup_probe(workload, seed)  # untimed: compiles the bytecode a fresh checkout lacks
    points = build_points(workload, seed)
    pins = load_pins(workload, seed)
    rounds = sweep_count(workload, seconds)
    setup: List[float] = []
    walls: List[float] = []
    cold: List[float] = []
    warm: List[List[float]] = []
    reference = store = None
    for _ in range(rounds):
        setup.append(setup_probe(workload, seed))
        results, wall, per_point = timed_sweep(points)
        if reference is None:
            reference = results
            store = fill_store(reference, os.path.join(work_dir, "store"), tally)
        check_points(results, reference, pins, tally, "point")
        walls.append(wall)
        cold.extend(per_point)
        warm_reads(points, reference, store, tally)  # untimed: lets the sweep's garbage and caches settle
        warm.append([t for _ in range(WARM_PASSES_PER_ROUND) for t in warm_reads(points, reference, store, tally)])
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, seed))
    rates = [len(points) / wall for wall in walls]

    def warm_note(pct: int) -> str:
        return f"median over {len(warm)} rounds of the round's p{pct}, {tail_note(len(warm[0]), pct)} store-served points each"

    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} probes"),
        "wall_s": (
            statistics.median(walls), "s",
            f"median of {len(walls)} sweeps of {len(points)} points: " + " ".join(f"{w:.3f}" for w in walls),
        ),
        "peak_rss_mb": (vm_hwm_mb(os.getpid()), "MB", "benchmark process VmHWM"),
        "cold_ms_p50": (1000 * percentile(cold, 50), "ms", f"{tail_note(len(cold), 50)} simulated points"),
        "cold_ms_p90": (1000 * percentile(cold, 90), "ms", f"{tail_note(len(cold), 90)} simulated points"),
        "warm_ms_p50": (1000 * statistics.median(percentile(r, 50) for r in warm), "ms", warm_note(50)),
        "warm_ms_p90": (1000 * statistics.median(percentile(r, 90) for r in warm), "ms", warm_note(90)),
        "req_per_s": (statistics.median(rates), "1/s", "points per second of wall_s, median"),
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def layer_counters(machine: Any, cycles: int) -> Dict[str, float]:
    """The counters each layer keeps, read off a machine after its run."""
    net = machine.network_stats()
    profile = machine.last_profile
    snaps = [node.stats_snapshot() for node in machine.nodes]
    return {
        "sim.events": profile["events"],
        "sim.elided_events": profile["elided_events"],
        "sim.heap_events": profile["heap_events"],
        "sim.lane_events": profile["lane_events"],
        "sim.cycles": float(cycles),
        "coherence.bus_txns": sum(s["bus"].get("txn_total", 0) for s in snaps),
        "coherence.uncached_reads": sum(s["bus"].get("txn_uncached_read", 0) for s in snaps),
        "coherence.membus_occupancy_cycles": machine.total_memory_bus_occupancy(),
        "coherence.iobus_occupancy_cycles": machine.total_io_bus_occupancy(),
        "coherence.protocol_transitions": profile["protocol_transitions"],
        "ni.polls": sum(s["ni"].get("polls", 0) for s in snaps),
        "ni.empty_polls": sum(s["ni"].get("empty_polls", 0) for s in snaps),
        "ni.uncached_loads": sum(s["ni"].get("uncached_loads", 0) for s in snaps),
        "ni.elided_spins": sum(s["ni"].get("elided_spins", 0) for s in snaps),
        "msglayer.send_blocked": sum(ml.stats.get("send_blocked") for ml in machine.messaging),
        "msglayer.software_buffer_polls": sum(ml.stats.get("software_buffer_polls") for ml in machine.messaging),
        "network.messages_delivered": net.get("messages_delivered", 0),
        "network.conserved": float(
            net.get("messages_injected", 0) == net.get("messages_delivered", 0)
            and net.get("acks_sent", 0) == net.get("acks_delivered", 0)
        ),
    }


@contextmanager
def traced_layers(rec: Any, points: List[Any], runs: List[Dict[str, float]]) -> Iterator[None]:
    """Wrap the public functions a macro point goes through, so the real
    ``SweepRunner`` path runs under spans; undo the wrapping on exit.

    Every ``Machine.run_programs`` is forced to ``profile=True`` and appends
    the machine's layer counters to ``runs`` once it returns.
    """
    from repro.api import runner
    from repro.api.spec import ExperimentSpec
    from repro.experiments import macro
    from repro.node.machine import Machine
    from repro.service.store import ResultStore

    index_of = {spec.spec_hash(): index for index, spec in enumerate(points)}
    build = Machine.__dict__["build"].__func__
    run_programs = Machine.run_programs
    create_workload = macro.create_workload

    def traced_create_workload(*args: Any, **kwargs: Any) -> Any:
        with rec.span("apps.create_workload"):
            workload = create_workload(*args, **kwargs)
        workload.programs = rec.wrap("apps.programs", workload.programs)
        return workload

    def traced_run_programs(self: Any, programs: Any, max_cycles: Any = None, profile: bool = False) -> int:
        with rec.span("sim.run"):
            cycles = run_programs(self, programs, max_cycles=max_cycles, profile=True)
        runs.append(layer_counters(self, cycles))
        return cycles

    patches = [
        (ExperimentSpec, "validate", rec.wrap("api.validate", ExperimentSpec.validate)),
        (Machine, "build", classmethod(rec.wrap("node.build", build))),
        (Machine, "run_programs", traced_run_programs),
        (macro, "create_workload", traced_create_workload),
        (runner, "run_point", rec.wrap(
            "api.run_point", runner.run_point, ident_of=lambda spec: index_of.get(spec.spec_hash()),
        )),
        (ResultStore, "cache_key", rec.wrap("service.cache_key", ResultStore.cache_key)),
        (ResultStore, "get", rec.wrap(
            "service.store_get", ResultStore.get,
            tag_result=lambda result: {"outcome": "miss" if result is None else "hit"},
        )),
        (ResultStore, "put", rec.wrap("service.store_put", ResultStore.put)),
    ]
    # None marks an attribute the owner inherits: undone by deleting it.
    originals = [(owner, name, vars(owner).get(name)) for owner, name, _ in patches]
    for owner, name, wrapped in patches:
        setattr(owner, name, wrapped)
    try:
        yield
    finally:
        for owner, name, original in originals:
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def profiled_sweep(points: List[Any]) -> Dict[str, float]:
    """Profiler self time of one untraced sweep, grouped by package."""
    from repro.api import SweepRunner

    profiler = cProfile.Profile()
    profiler.enable()
    SweepRunner(jobs=1, cache_dir=None).run(points)
    profiler.disable()
    prefix = os.path.join(SRC, "repro") + os.sep
    grouped = {package: 0.0 for package in PACKAGES}
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        if filename.startswith(prefix):
            package = filename[len(prefix):].split(os.sep)[0]
            if package in grouped:
                grouped[package] += row[2]  # tottime
    return {f"self_s.{package}": seconds for package, seconds in grouped.items()}


def trace(workload: str, seed: int, seconds: float, work_dir: str, tally: Tally, spans_path: str) -> Dict[str, Tuple[float, str, str]]:
    from spans import SpanRecorder, durations, totals_by_name

    points = build_points(workload, seed)
    pins = load_pins(workload, seed)
    untraced, untraced_wall, _ = timed_sweep(points)
    check_points(untraced, untraced, pins, tally, "untraced point")

    rec = SpanRecorder()
    runs: List[Dict[str, float]] = []
    with traced_layers(rec, points, runs):
        traced, traced_wall, _ = timed_sweep(points)
        sweep_spans = list(rec.spans)
        store = fill_store(traced, os.path.join(work_dir, "store"), tally)
        warm_reads(points, traced, store, tally)
    self_s = profiled_sweep(points)
    rec.dump(spans_path)

    check_points(traced, untraced, pins, tally, "traced point")
    tally.invariant(len(runs) == len(points), f"{len(runs)} traced machine runs for {len(points)} points")
    totals: Dict[str, float] = {}
    for spec, counters in zip(points, runs):
        tally.check(counters.pop("network.conserved") == 1.0, f"{point_label(spec)} lost network messages or acks")
        for name, value in counters.items():
            totals[name] = totals.get(name, 0.0) + value

    by_name = totals_by_name(sweep_spans)

    def summed_s(*names: str) -> Tuple[float, str, str]:
        calls = " + ".join(f"{int(by_name[name]['calls'])} {name}" for name in names)
        return sum(by_name[name]["total_s"] for name in names), "s", f"sum over one sweep: {calls}"

    def median_us(name: str, **tags: Any) -> Tuple[float, str, str]:
        values = durations(rec.spans, name, **tags)
        return 1e6 * statistics.median(values), "us", f"median, n={len(values)}"

    out: Dict[str, Tuple[float, str, str]] = {
        "api.validate_s": summed_s("api.validate"),
        "node.build_s": summed_s("node.build"),
        "apps.programs_s": summed_s("apps.create_workload", "apps.programs"),
        "sim.run_s": summed_s("sim.run"),
        "api.run_point_ms": (
            1000 * statistics.median(durations(sweep_spans, "api.run_point")), "ms",
            f"median over {len(points)} points",
        ),
    }
    for name, value in totals.items():
        unit = "cycles" if name.endswith("cycles") else "count"
        out[name] = (value, unit, f"sum over {len(points)} points")
    out["sim.ns_per_event"] = (1e9 * by_name["sim.run"]["total_s"] / totals["sim.events"], "ns", "sim.run_s / sim.events")
    for name, value in self_s.items():
        out[name] = (value, "s", "profiler self time of one sweep")
    out["service.cache_key_us"] = median_us("service.cache_key")
    out["service.store_get_us"] = median_us("service.store_get")
    out["service.store_get_hit_us"] = median_us("service.store_get", outcome="hit")
    out["service.store_get_miss_us"] = median_us("service.store_get", outcome="miss")
    out["service.store_put_us"] = median_us("service.store_put")
    out["tracing.overhead_s"] = (traced_wall - untraced_wall, "s", f"traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description="Fig 8 set-up probe")
    parser.add_argument("--workload", choices=sorted(CONFIGS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    require_program()
    build_points(args.workload, args.seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
