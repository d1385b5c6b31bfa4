"""Tests for the P54C timing composition.

Core time is ``A_c + M_c * line_time``: the core-clock term ``A_c``
(:func:`repro.sparse.fastpath.base_compute_times`) plus one effective
memory line time per memory line fetch, composed by
:func:`repro.core.timing.solve_core_times_batched`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solve_core_times_batched
from repro.scc import CONF0, DEFAULT_TIMING, MemorySystem, P54CTimingParams
from repro.sparse.fastpath import BatchedSummaries, base_compute_times


def summary(nnz=1000, rows=100, iters=1, l2_hits=0.0, l2_misses=0.0):
    return BatchedSummaries(
        nnz=np.array([nnz], dtype=np.int64),
        rows=np.array([rows], dtype=np.int64),
        iterations=iters,
        l2_hits=np.array([l2_hits], dtype=np.float64),
        l2_misses=np.array([l2_misses], dtype=np.float64),
    )


def compute_time(s, core_mhz, timing=DEFAULT_TIMING):
    """Core-clock seconds of the one summarized UE (no memory stalls)."""
    return float(base_compute_times(s, np.array([float(core_mhz)]), timing)[0])


class TestCoreTime:
    def test_pure_compute_scales_with_frequency(self):
        s = summary()
        t533 = compute_time(s, 533)
        t800 = compute_time(s, 800)
        assert t533 / t800 == pytest.approx(800 / 533)

    def test_compute_cycles_composition(self):
        tp = P54CTimingParams(
            base_cycles_per_nnz=10,
            row_overhead_cycles=20,
            l2_hit_cycles=15,
            call_overhead_cycles=100,
        )
        s = summary(nnz=1000, rows=50, iters=2, l2_hits=30)
        cycles = 10 * 1000 * 2 + 20 * 50 * 2 + 100 * 2 + 15 * 30
        assert compute_time(s, 100, tp) == pytest.approx(cycles / 100e6)

    def test_memory_term_additive(self):
        mem = MemorySystem(mem_mhz=CONF0.mem_mhz)
        [t0] = solve_core_times_batched(summary(), [0], CONF0, mem)
        [t1] = solve_core_times_batched(summary(l2_misses=1000), [0], CONF0, mem)
        assert t1.time - t0.time == pytest.approx(1000 * t1.line_time)

    def test_memory_term_independent_of_core_clock(self):
        # Memory line fetches add no core-clock cycles: with no compute
        # work the A_c term is zero at any clock.
        s = summary(nnz=0, rows=0, l2_misses=500)
        tp = P54CTimingParams(call_overhead_cycles=0.0)
        assert compute_time(s, 100, tp) == pytest.approx(compute_time(s, 800, tp))

    def test_row_overhead_hurts_short_rows(self):
        """Same nnz split over 10x more rows runs slower (paper Sec. IV-B)."""
        long_rows = summary(nnz=10000, rows=100)
        short_rows = summary(nnz=10000, rows=5000)
        assert compute_time(short_rows, 533) > compute_time(long_rows, 533)


class TestDefaultCalibration:
    def test_l2_resident_per_core_rate_near_anchor(self):
        """Calibration anchor: ~42 MFLOPS/s per core when L2-resident.

        (24 cores x ~42 MF/s ~= the paper's 'up to 1 GFLOPS/s' for
        matrices that fit in L2, Sec. IV-B.)
        """
        nnz, rows = 100_000, 5_000
        # Streaming L1 misses that hit L2: ~0.42 lines per nnz.
        s = summary(nnz=nnz, rows=rows, iters=1, l2_hits=0.42 * nnz)
        t = compute_time(s, 533, DEFAULT_TIMING)
        mflops = 2 * nnz / t / 1e6
        assert 35 <= mflops <= 50

    def test_single_core_memory_bound_rate_near_anchor(self):
        """~20-27 MFLOPS/s for one core streaming from memory."""
        nnz, rows = 100_000, 5_000
        lines = 0.42 * nnz
        s = summary(nnz=nnz, rows=rows, iters=1, l2_misses=lines)
        # Eq. 1 at conf0 with zero hops: 132.5 ns per line.
        t = compute_time(s, 533, DEFAULT_TIMING) + lines * 132.5e-9
        mflops = 2 * nnz / t / 1e6
        assert 18 <= mflops <= 30
