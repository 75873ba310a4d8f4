"""Experiment harness: microbenchmarks, macro runs, tables and figures.

New code should prefer the declarative layer in :mod:`repro.api`
(``ExperimentSpec`` → ``SweepRunner`` → ``ResultSet``); the per-experiment
entry points re-exported here remain the underlying engines and keep
working as before.
"""

from repro.api import ExperimentSpec, ResultSet, RunResult, SweepRunner, SweepSpec
from repro.experiments.macro import (
    ALTERNATE_BUS_CONFIGS,
    BASELINE,
    IO_BUS_DEVICES,
    MEMORY_BUS_DEVICES,
    MacroRunResult,
    run_macrobenchmark,
)
from repro.experiments.microbench import (
    FIG6_MESSAGE_SIZES,
    FIG7_MESSAGE_SIZES,
    BandwidthResult,
    LatencyResult,
    MicrobenchmarkError,
    bandwidth,
    round_trip_latency,
)

__all__ = [
    "ExperimentSpec",
    "SweepSpec",
    "SweepRunner",
    "RunResult",
    "ResultSet",
    "round_trip_latency",
    "bandwidth",
    "LatencyResult",
    "BandwidthResult",
    "MicrobenchmarkError",
    "FIG6_MESSAGE_SIZES",
    "FIG7_MESSAGE_SIZES",
    "run_macrobenchmark",
    "MacroRunResult",
    "MEMORY_BUS_DEVICES",
    "IO_BUS_DEVICES",
    "ALTERNATE_BUS_CONFIGS",
    "BASELINE",
]
