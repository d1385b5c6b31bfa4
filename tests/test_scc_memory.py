"""Tests for the memory system: Eq. 1 latency and MC bandwidth sharing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solve_core_times_batched
from repro.core.timing import _chip_arrays
from repro.scc import CONF0, MemorySystem, P54CTimingParams, memory_read_latency
from repro.sparse.fastpath import BatchedSummaries
from repro.scc.params import (
    LAT_CORE_CYCLES,
    LAT_MEM_CYCLES,
    LAT_MESH_CYCLES_PER_HOP,
    MC_BANDWIDTH_BYTES_PER_SEC_AT_800,
)


class TestLatencyFormula:
    def test_zero_hop_default_clocks(self):
        t = memory_read_latency(0, 533, 800, 800)
        expected = LAT_CORE_CYCLES / 533e6 + LAT_MEM_CYCLES / 800e6
        assert t == pytest.approx(expected)

    def test_hop_term_linear(self):
        base = memory_read_latency(0, 533, 800, 800)
        per_hop = LAT_MESH_CYCLES_PER_HOP / 800e6
        for h in range(1, 5):
            assert memory_read_latency(h, 533, 800, 800) == pytest.approx(base + h * per_hop)

    def test_three_hops_adds_about_23_percent(self):
        """Eq. 1 at default clocks: 3 hops raise latency 132.5 -> 162.5 ns."""
        t0 = memory_read_latency(0, 533, 800, 800)
        t3 = memory_read_latency(3, 533, 800, 800)
        assert t0 == pytest.approx(132.5e-9, rel=1e-3)
        assert t3 == pytest.approx(162.5e-9, rel=1e-3)

    def test_faster_clocks_reduce_latency(self):
        slow = memory_read_latency(2, 533, 800, 800)
        fast = memory_read_latency(2, 800, 1600, 1066)
        assert fast < slow

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            memory_read_latency(-1, 533, 800, 800)
        with pytest.raises(ValueError):
            memory_read_latency(0, 0, 800, 800)
        with pytest.raises(ValueError):
            memory_read_latency(0, 533, -1, 800)
        with pytest.raises(ValueError):
            memory_read_latency(0, 533, 800, 0)


class TestMemorySystem:
    def test_four_controllers(self, topology):
        mem = MemorySystem(topology)
        assert len(mem.controllers) == 4
        assert {mc.coord for mc in mem.controllers} == set(topology.mc_coords)

    def test_bandwidth_scales_with_clock(self, topology):
        m800 = MemorySystem(topology, mem_mhz=800)
        m1066 = MemorySystem(topology, mem_mhz=1066)
        ratio = m1066.controllers[0].bandwidth / m800.controllers[0].bandwidth
        assert ratio == pytest.approx(1066 / 800)
        assert m800.controllers[0].bandwidth == pytest.approx(
            MC_BANDWIDTH_BYTES_PER_SEC_AT_800
        )

    def test_line_service_time(self, topology):
        mem = MemorySystem(topology, mem_mhz=800)
        t = mem.controllers[0].line_service_time(32)
        assert t == pytest.approx(32 / MC_BANDWIDTH_BYTES_PER_SEC_AT_800)

    def test_invalid_clock(self):
        with pytest.raises(ValueError):
            MemorySystem(mem_mhz=0)

    def test_controller_of_core_matches_quadrant(self, topology):
        mem = MemorySystem(topology)
        for q in range(4):
            for core in topology.cores_of_quadrant(q):
                assert mem.controllers[topology.mc_index_of_core(core)].index == q

    def test_latency_for_core_uses_hops(self, topology):
        mem = MemorySystem(topology)
        c0 = topology.cores_at_distance(0)[0]
        c3 = topology.cores_at_distance(3)[0]
        assert mem.latency_for_core(c3, 533, 800) > mem.latency_for_core(c0, 533, 800)

    def test_group_cores_by_controller(self, topology):
        mem = MemorySystem(topology)
        _freqs, _lats, mc_index, _caps, groups = _chip_arrays(list(range(48)), CONF0, mem)
        assert sorted(set(mc_index.tolist())) == [0, 1, 2, 3]
        assert all(len(members) == 12 for members, _cap in groups)


#: no core-clock work at all: a core's time is its memory stalls alone.
MEMORY_ONLY = P54CTimingParams(
    base_cycles_per_nnz=0.0,
    row_overhead_cycles=0.0,
    l2_hit_cycles=0.0,
    call_overhead_cycles=0.0,
)


def line_times(topology, lines_by_core, timing=MEMORY_ONLY):
    """Effective line time of every given core, solved together at conf0."""
    n = len(lines_by_core)
    batch = BatchedSummaries(
        nnz=np.zeros(n, dtype=np.int64),
        rows=np.zeros(n, dtype=np.int64),
        iterations=1,
        l2_hits=np.zeros(n),
        l2_misses=np.array(list(lines_by_core.values()), dtype=np.float64),
    )
    mem = MemorySystem(topology, mem_mhz=CONF0.mem_mhz)
    solved = solve_core_times_batched(batch, list(lines_by_core), CONF0, mem, timing)
    return {t.core: t.line_time for t in solved}


class TestEffectiveLineTime:
    """The per-line service time the contention solver hands each core."""

    def test_uncontended_returns_latency(self, topology):
        mem = MemorySystem(topology)
        lat = mem.latency_for_core(0, 533, 800)
        # One quiet core: demand far below capacity.
        quiet = P54CTimingParams(base_cycles_per_nnz=0.0, call_overhead_cycles=533e6)
        t = line_times(topology, {0: 1000.0}, timing=quiet)[0]
        assert t == pytest.approx(lat)

    def test_saturated_inflates(self, topology):
        mem = MemorySystem(topology)
        # 12 memory-bound cores of quadrant 0.
        demand = {c: 1e6 for c in topology.cores_of_quadrant(0)}
        lat = mem.latency_for_core(0, 533, 800)
        t = line_times(topology, demand)[0]
        assert t > lat

    def test_other_quadrant_demand_ignored(self, topology):
        mem = MemorySystem(topology)
        demand = {c: 1e6 for c in topology.cores_of_quadrant(1)}
        demand[0] = 100.0
        quiet = P54CTimingParams(base_cycles_per_nnz=0.0, call_overhead_cycles=533e6)
        lat = mem.latency_for_core(0, 533, 800)
        assert line_times(topology, demand, timing=quiet)[0] == pytest.approx(lat)

    def test_fair_share_at_saturation(self, topology):
        mem = MemorySystem(topology)
        cap_lines = mem.controllers[0].bandwidth / 32
        cores = topology.cores_of_quadrant(0)
        t = line_times(topology, {c: 1e6 for c in cores})[cores[0]]
        # Equal memory-only demands -> each gets cap/12 lines/sec (to the
        # bisection's stopping tolerance).
        assert t == pytest.approx(12 / cap_lines, rel=1e-4)
