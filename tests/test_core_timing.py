"""Tests for the contention-aware core-time solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solve_core_times_batched
from repro.scc import CONF0, CONF1, MemorySystem, SCCTopology
from repro.sparse.fastpath import BatchedSummaries, equilibrium_line_times


def summaries(n, nnz=100_000, mem_lines=40_000.0, rows=None):
    return BatchedSummaries(
        nnz=np.full(n, nnz, dtype=np.int64),
        rows=np.full(n, nnz // 10 if rows is None else rows, dtype=np.int64),
        iterations=1,
        l2_hits=np.zeros(n),
        l2_misses=np.full(n, mem_lines, dtype=np.float64),
    )


def controller_line_times(base_times, mem_lines, latencies, capacity_lines_per_sec):
    """Per-core line times of one controller serving every given core."""
    return equilibrium_line_times(
        np.asarray(base_times, dtype=np.float64),
        np.asarray(mem_lines, dtype=np.float64),
        np.asarray(latencies, dtype=np.float64),
        np.zeros(len(base_times), dtype=np.int64),
        [capacity_lines_per_sec],
    )


@pytest.fixture(scope="module")
def mem():
    return MemorySystem(SCCTopology(), mem_mhz=800)


class TestControllerEquilibrium:
    def test_unsaturated_returns_latency(self):
        [t] = controller_line_times(
            base_times=[1.0], mem_lines=[100.0], latencies=[1e-7],
            capacity_lines_per_sec=1e9,
        )
        assert t == pytest.approx(1e-7)

    def test_saturated_meets_capacity(self):
        # 4 identical cores, each wanting ~1e7 lines/s against 1e6 cap.
        base, lines, lat = [0.0001] * 4, [10_000.0] * 4, [1e-7] * 4
        cap = 1e6
        t = controller_line_times(base, lines, lat, cap)[0]
        demand = sum(m / (b + m * max(t, l)) for b, m, l in zip(base, lines, lat))
        assert demand == pytest.approx(cap, rel=1e-3)
        assert t > 1e-7

    def test_zero_demand_cores_ignored(self):
        t = controller_line_times([1.0, 1.0], [0.0, 0.0], [1e-7, 1e-7], 10.0)
        assert t == pytest.approx([1e-7, 1e-7])


class TestSolveCoreTimes:
    def test_length_mismatch_rejected(self, mem):
        with pytest.raises(ValueError):
            solve_core_times_batched(summaries(2), [0], CONF0, mem)

    def test_clock_mismatch_rejected(self):
        mem1066 = MemorySystem(SCCTopology(), mem_mhz=1066)
        with pytest.raises(ValueError):
            solve_core_times_batched(summaries(1), [0], CONF0, mem1066)

    def test_single_core_pays_latency(self, mem):
        [t] = solve_core_times_batched(summaries(1), [0], CONF0, mem)
        lat = mem.latency_for_core(0, 533, 800)
        assert t.line_time == pytest.approx(lat)
        assert t.time > 0

    def test_distance_penalty(self, mem):
        topo = SCCTopology()
        near = topo.cores_at_distance(0)[0]
        far = topo.cores_at_distance(3)[0]
        [tn] = solve_core_times_batched(summaries(1), [near], CONF0, mem)
        [tf] = solve_core_times_batched(summaries(1), [far], CONF0, mem)
        assert tf.time > tn.time

    def test_contention_slows_colocated_cores(self, mem):
        topo = SCCTopology()
        quad0 = list(topo.cores_of_quadrant(0))
        spread = [topo.cores_of_quadrant(q)[0] for q in range(4)] + [
            topo.cores_of_quadrant(q)[1] for q in range(4)
        ]
        heavy = summaries(8, mem_lines=500_000.0)
        t_packed = max(t.time for t in solve_core_times_batched(heavy, quad0[:8], CONF0, mem))
        t_spread = max(t.time for t in solve_core_times_batched(heavy, spread, CONF0, mem))
        assert t_packed > t_spread

    def test_saturated_mc_throughput_capped(self, mem):
        """12 heavy cores on one quadrant can't beat the MC bandwidth."""
        topo = SCCTopology()
        cores = list(topo.cores_of_quadrant(0))
        heavy = summaries(12, mem_lines=1_000_000.0)
        times = solve_core_times_batched(heavy, cores, CONF0, mem)
        total_lines = sum(t.mem_lines for t in times)
        makespan = max(t.time for t in times)
        capacity = mem.controllers[0].bandwidth / 32
        assert total_lines / makespan <= capacity * 1.01

    def test_compute_only_ignores_memory(self, mem):
        s = summaries(1, nnz=10_000, mem_lines=0.0, rows=100)
        [t] = solve_core_times_batched(s, [0], CONF0, mem)
        assert t.mem_stall_fraction == 0.0

    def test_conf1_faster(self):
        topo = SCCTopology()
        mem0 = MemorySystem(topo, mem_mhz=800)
        mem1 = MemorySystem(topo, mem_mhz=1066)
        s = summaries(1)
        [t0] = solve_core_times_batched(s, [0], CONF0, mem0)
        [t1] = solve_core_times_batched(s, [0], CONF1, mem1)
        assert t1.time < t0.time

    def test_deterministic(self, mem):
        s = summaries(12, mem_lines=300_000.0)
        cores = list(range(12))
        a = solve_core_times_batched(s, cores, CONF0, mem)
        b = solve_core_times_batched(s, cores, CONF0, mem)
        assert [x.time for x in a] == [y.time for y in b]

    def test_mem_stall_fraction_bounded(self, mem):
        s = summaries(4, mem_lines=800_000.0)
        for t in solve_core_times_batched(s, [0, 1, 2, 3], CONF0, mem):
            assert 0.0 <= t.mem_stall_fraction <= 1.0
