"""Macrobenchmark experiment runner (Figure 8 and the bus-occupancy claims)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.apps import create_workload
from repro.apps.workload import WorkloadResult
from repro.common.types import BusKind
from repro.node.machine import Machine


#: Devices simulated on each bus in the paper (Section 5).
MEMORY_BUS_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")
IO_BUS_DEVICES = ("NI2w", "CNI4", "CNI16Q", "CNI512Q")
#: Figure 8c: NI2w on the cache bus, CNI16Qm on the memory bus, CNI512Q on
#: the I/O bus.
ALTERNATE_BUS_CONFIGS = (
    ("NI2w", "cache"),
    ("CNI16Qm", "memory"),
    ("CNI512Q", "io"),
)

#: The baseline configuration every speedup is normalized to.
BASELINE = ("NI2w", "memory")


@dataclass
class MacroRunResult:
    """One workload run on one (device, bus) configuration."""

    workload: str
    ni_name: str
    bus: str
    cycles: int
    memory_bus_occupancy: int
    io_bus_occupancy: int
    network_messages: int
    #: Machine-wide fault-injection/recovery totals, present only when the
    #: run had an active fault plan (``params.faults``); ``None`` otherwise
    #: so fault-free results are byte-identical to pre-fault-layer ones.
    fault_stats: Optional[Dict] = None


def run_macrobenchmark(
    workload_name: str,
    ni_name: str,
    bus: Union[str, BusKind] = "memory",
    num_nodes: int = 16,
    scale: float = 1.0,
    snarfing: bool = False,
    max_cycles: Optional[int] = 2_000_000_000,
    workload_kwargs: Optional[Dict] = None,
    params=None,
    ni_kwargs: Optional[Dict] = None,
) -> MacroRunResult:
    """Run one macrobenchmark skeleton on one machine configuration."""
    machine = Machine.build(
        ni_name, bus, num_nodes=num_nodes, snarfing=snarfing,
        params=params, ni_kwargs=ni_kwargs,
    )
    workload = create_workload(workload_name, scale=scale, **(workload_kwargs or {}))
    result: WorkloadResult = workload.run(machine, max_cycles=max_cycles)
    fault_stats = machine.fault_stats() if machine.params.faults else None
    return MacroRunResult(
        workload=workload_name,
        ni_name=ni_name,
        bus=str(bus if isinstance(bus, str) else bus.value),
        cycles=result.cycles,
        memory_bus_occupancy=result.memory_bus_occupancy,
        io_bus_occupancy=result.io_bus_occupancy,
        network_messages=result.network_messages,
        fault_stats=fault_stats,
    )
