"""Off-chip memory model: read latency (paper Eq. 1) and MC bandwidth.

Two effects dominate the paper's results and both start here:

* **Distance-dependent latency** — Eq. 1 of the paper: a core's memory
  request costs ``40`` core cycles + ``4*2n`` mesh cycles (n = hops to
  its controller) + ``46`` memory cycles.  The P54C stalls for the whole
  round trip (in-order, blocking caches).
* **Controller sharing** — six tiles (12 cores) share one DDR3
  controller with a fixed sustained bandwidth.  This module supplies
  each controller's bandwidth; the bandwidth-sharing equilibrium that
  turns it into per-core line times is solved in
  :func:`repro.core.timing.solve_core_times_batched`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .params import (
    CACHE_LINE_BYTES,
    LAT_CORE_CYCLES,
    LAT_MEM_CYCLES,
    LAT_MESH_CYCLES_PER_HOP,
    MC_BANDWIDTH_BYTES_PER_SEC_AT_800,
)
from .topology import SCCTopology

__all__ = ["memory_read_latency", "MemoryController", "MemorySystem"]


def memory_read_latency(
    hops: int,
    core_mhz: float,
    mesh_mhz: float,
    mem_mhz: float,
) -> float:
    """Round-trip read latency in seconds (paper Eq. 1).

    ``40*C_core + 4*(2*hops)*C_mesh + 46*C_mem`` with ``C_x`` the cycle
    times of the three clock domains.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    for name, f in (("core_mhz", core_mhz), ("mesh_mhz", mesh_mhz), ("mem_mhz", mem_mhz)):
        if f <= 0:
            raise ValueError(f"{name} must be positive, got {f}")
    t_core = LAT_CORE_CYCLES / (core_mhz * 1e6)
    t_mesh = LAT_MESH_CYCLES_PER_HOP * hops / (mesh_mhz * 1e6)
    t_mem = LAT_MEM_CYCLES / (mem_mhz * 1e6)
    return t_core + t_mesh + t_mem


@dataclass(frozen=True)
class MemoryController:
    """One of the four DDR3 controllers."""

    index: int
    coord: Tuple[int, int]
    mem_mhz: float

    @property
    def bandwidth(self) -> float:
        """Sustained bytes/second, scaling linearly with the DDR clock."""
        return MC_BANDWIDTH_BYTES_PER_SEC_AT_800 * (self.mem_mhz / 800.0)

    def line_service_time(self, line_bytes: int = CACHE_LINE_BYTES) -> float:
        """Seconds the controller needs per cache line at full tilt."""
        return line_bytes / self.bandwidth


class MemorySystem:
    """The four controllers plus the private-memory quadrant map."""

    #: machine this memory system belongs to (cache-key discriminator
    #: for the machine-generic solvers in :mod:`repro.core.timing`).
    machine_id = "scc-48"
    #: paper Eq. 1 coefficients, exposed in the machine-generic form
    #: every :class:`repro.machine.base.MemorySystemModel` carries.
    lat_core_cycles = float(LAT_CORE_CYCLES)
    lat_mesh_cycles_per_hop = float(LAT_MESH_CYCLES_PER_HOP)
    lat_mem_cycles = float(LAT_MEM_CYCLES)

    def __init__(
        self,
        topology: SCCTopology | None = None,
        mem_mhz: float = 800.0,
        line_bytes: int = CACHE_LINE_BYTES,
    ) -> None:
        if mem_mhz <= 0:
            raise ValueError(f"mem_mhz must be positive, got {mem_mhz}")
        self.topology = topology or SCCTopology()
        self.mem_mhz = mem_mhz
        self.line_bytes = line_bytes
        self.controllers = tuple(
            MemoryController(index=i, coord=coord, mem_mhz=mem_mhz)
            for i, coord in enumerate(self.topology.mc_coords)
        )

    def latency_for_core(self, core: int, core_mhz: float, mesh_mhz: float) -> float:
        """Eq. 1 round-trip latency for this core's hop count."""
        hops = self.topology.hops_to_mc(core)
        return memory_read_latency(hops, core_mhz, mesh_mhz, self.mem_mhz)
