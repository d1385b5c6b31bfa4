"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import characterize_partition
from repro.rcce import RCCERuntime
from repro.scc import Cache, SCCTopology, footprint_curve, miss_ratio_curve, reuse_profile, reuse_times
from repro.sim import Simulator
from repro.sparse import (
    COOMatrix,
    partition_rows_balanced,
    spmv,
    spmv_reference,
    working_set_bytes,
)
from repro.sparse.fastpath import batch_access_summaries, batch_traces

SET = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- strategies -------------------------------------------------------------

@st.composite
def coo_matrices(draw, max_n=40, max_nnz=200):
    n = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(hnp.arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
    cols = draw(hnp.arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
    vals = draw(
        hnp.arrays(
            np.float64,
            nnz,
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
    return COOMatrix(n, n, rows, cols, vals)


line_streams = hnp.arrays(
    np.int64,
    st.integers(1, 300),
    elements=st.integers(0, 40),
)


@st.composite
def wide_line_streams(draw):
    """Streams over a few lines drawn from anywhere in a 2**62 range, so
    spans on both sides of the 2**16 radix-sort cutoff occur."""
    bound = draw(st.sampled_from([1 << 8, 1 << 20, 1 << 40, 1 << 62]))
    pool = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=40, unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=300))
    return np.array(pool, dtype=np.int64)[picks]


any_line_streams = st.one_of(line_streams, wide_line_streams())
capacities = st.one_of(st.integers(0, 64), st.floats(0.0, 1e12))


# --- sparse properties ---------------------------------------------------------

class TestSparseProperties:
    @SET
    @given(coo_matrices())
    def test_csr_roundtrip_matches_dense(self, coo):
        csr = coo.to_csr()
        np.testing.assert_allclose(csr.to_dense(), coo.to_dense(), rtol=1e-12, atol=1e-12)

    @SET
    @given(coo_matrices())
    def test_spmv_matches_reference(self, coo):
        csr = coo.to_csr()
        x = np.linspace(-1.0, 1.0, csr.n_cols)
        np.testing.assert_allclose(
            spmv(csr, x), spmv_reference(csr, x), rtol=1e-9, atol=1e-9
        )

    @SET
    @given(coo_matrices(), st.integers(1, 8))
    def test_partition_covers_and_balances(self, coo, k):
        csr = coo.to_csr()
        k = min(k, csr.n_rows)
        p = partition_rows_balanced(csr, k)
        assert p.bounds[0] == 0 and p.bounds[-1] == csr.n_rows
        assert p.part_nnz(csr).sum() == csr.nnz
        # No part exceeds the ideal share by more than the largest row.
        max_row = int(csr.row_lengths().max()) if csr.n_rows else 0
        assert p.part_nnz(csr).max() <= csr.nnz / k + max_row + 1

    @SET
    @given(coo_matrices(), st.integers(1, 6))
    def test_parallel_blocks_reassemble_product(self, coo, k):
        csr = coo.to_csr()
        k = min(k, csr.n_rows)
        x = np.linspace(0.5, 1.5, csr.n_cols)
        p = partition_rows_balanced(csr, k)
        from repro.sparse import spmv_row_range

        parts = [spmv_row_range(csr, x, lo, hi) for lo, hi in p.ranges()]
        # The prefix-sum reduction cancels catastrophically on rows whose
        # sum is tiny next to their neighbours', so bound the absolute
        # error by the magnitude flowing through the cumsum.
        atol = 1e-12 * (np.abs(csr.da).sum() + 1.0)
        np.testing.assert_allclose(
            np.concatenate(parts), spmv(csr, x), rtol=1e-9, atol=atol
        )

    @SET
    @given(st.integers(0, 10**6), st.integers(0, 10**7))
    def test_working_set_positive_and_monotone(self, n, nnz):
        ws = working_set_bytes(n, nnz)
        assert ws >= 4
        assert working_set_bytes(n + 1, nnz) > ws
        assert working_set_bytes(n, nnz + 1) > ws


# --- access-summary fold properties ------------------------------------------

#: (L1, L2) bytes: the SCC's own, and two tiny hierarchies under which
#: generated matrices overflow L2, so the streaming regime occurs too.
CACHE_SIZES = [(16 * 1024, 256 * 1024), (256, 1024), (64, 256)]


class TestSummaryFoldProperties:
    """Every regime of the one fold stays between the cold count and the total."""

    @SET
    @given(
        coo_matrices(max_n=120, max_nnz=400),
        st.integers(1, 4),
        st.sampled_from(CACHE_SIZES),
        st.integers(1, 12),
        st.booleans(),
        st.booleans(),
    )
    def test_fold_conserves_l1_misses_and_covers_cold_set(
        self, coo, n_ues, sizes, iterations, l2_enabled, no_x_miss
    ):
        csr = coo.to_csr()
        l1_bytes, l2_bytes = sizes
        traces = characterize_partition(
            csr,
            partition_rows_balanced(csr, min(n_ues, csr.n_rows)),
            l1_bytes=l1_bytes,
            l2_bytes=l2_bytes,
        )
        batch = batch_traces(traces)
        s = batch_access_summaries(
            batch,
            iterations=iterations,
            l2_enabled=l2_enabled,
            no_x_miss=no_x_miss,
            l2_bytes=l2_bytes,
        )
        x_l1 = 0.0 if no_x_miss else batch.x_l1_misses
        x_cold = 0.0 if no_x_miss else batch.x_distinct_lines
        # Every L1 miss is served by exactly one of L2 or memory ...
        np.testing.assert_allclose(
            s.l2_hits + s.l2_misses,
            (batch.stream_lines + x_l1) * iterations,
            rtol=1e-12,
        )
        # ... and memory serves at least the cold set.
        assert np.all(s.l2_misses >= batch.stream_lines + x_cold)


# --- locality model properties ------------------------------------------------

class TestLocalityProperties:
    @SET
    @given(any_line_streams)
    def test_reuse_times_consistency(self, lines):
        rt, first = reuse_times(lines)
        assert first.sum() == len(set(lines.tolist()))
        # Non-first accesses have positive reuse times bounded by position.
        for i in np.flatnonzero(~first):
            assert 1 <= rt[i] <= i

    @SET
    @given(any_line_streams)
    def test_footprint_monotone_and_bounded(self, lines):
        fp = footprint_curve(reuse_profile(lines))
        assert fp.values[0] == 0.0
        assert (np.diff(fp.values) >= -1e-9).all()
        assert fp.values[-1] == pytest.approx(len(set(lines.tolist())))

    @SET
    @given(any_line_streams)
    def test_footprint_of_full_window_is_distinct_count(self, lines):
        fp = footprint_curve(reuse_profile(lines))
        assert fp(len(lines)) == pytest.approx(len(set(lines.tolist())))

    @SET
    @given(any_line_streams, capacities)
    def test_miss_count_between_cold_and_total(self, lines, capacity):
        mrc = miss_ratio_curve(lines)
        n, cold = len(lines), len(set(lines.tolist()))
        assert cold <= mrc.misses(capacity) <= n
        assert mrc.misses(0) == n
        assert mrc.misses(float("inf")) == cold

    @SET
    @given(any_line_streams, st.lists(capacities, max_size=12))
    def test_mrc_monotone_in_capacity(self, lines, caps):
        mrc = miss_ratio_curve(lines)
        last = len(lines)
        for cap in sorted([*caps, 1, 2, 4, 8, 16, 32, 64]):
            m = mrc.misses(cap)
            assert m <= last
            last = m


# --- exact cache properties -----------------------------------------------------

class TestCacheProperties:
    @SET
    @given(line_streams)
    def test_exact_cache_miss_bounds(self, lines):
        cache = Cache(size_bytes=16 * 32, assoc=4, line_bytes=32)
        misses = cache.access_trace(lines * 32)
        assert len(set(lines.tolist())) <= misses <= len(lines)

    @SET
    @given(line_streams)
    def test_bigger_cache_never_worse_when_fully_assoc_equivalent(self, lines):
        """With a single set (fully associative), more ways never hurt."""
        small = Cache(size_bytes=4 * 32, assoc=4, line_bytes=32)
        big = Cache(size_bytes=16 * 32, assoc=16, line_bytes=32)
        assert big.access_trace(lines * 32) <= small.access_trace(lines * 32)

    @SET
    @given(line_streams)
    def test_true_lru_second_pass_never_misses_more(self, lines):
        """True LRU has the stack property: replaying a trace cannot
        miss more the second time.  (Tree pseudo-LRU does NOT guarantee
        this — hypothesis found a counterexample — which is why this
        invariant is checked against an LRU reference, not the
        hardware-accurate simulator.)"""

        def lru_misses(trace, capacity):
            stack: list = []
            misses = 0
            for line in trace:
                if line in stack:
                    stack.remove(line)
                else:
                    misses += 1
                    if len(stack) >= capacity:
                        stack.pop()
                stack.insert(0, line)
            return misses

        m1 = lru_misses(lines.tolist(), 8)
        m2 = lru_misses(np.tile(lines, 2).tolist(), 8)
        assert m2 <= 2 * m1

    @SET
    @given(line_streams)
    def test_plru_double_pass_bounded_by_trace_length(self, lines):
        """The pseudo-LRU hardware cache still obeys the trivial bounds
        even where the stack property fails."""
        c2 = Cache(size_bytes=8 * 32, assoc=4, line_bytes=32)
        m2 = c2.access_trace(np.tile(lines, 2) * 32)
        assert len(set(lines.tolist())) <= m2 <= 2 * len(lines)


# --- topology properties -----------------------------------------------------------

class TestTopologyProperties:
    @SET
    @given(st.integers(0, 47), st.integers(0, 47))
    def test_hops_symmetric_triangle(self, a, b):
        topo = SCCTopology()
        ta, tb = topo.tile_of_core(a), topo.tile_of_core(b)
        ca, cb = (ta.x, ta.y), (tb.x, tb.y)
        assert topo.hops_between(ca, cb) == topo.hops_between(cb, ca)
        assert topo.hops_between(ca, cb) <= 8  # mesh diameter

    @SET
    @given(st.integers(1, 48))
    def test_distance_mapping_prefix_stability(self, n):
        from repro.core import distance_reduction_mapping

        topo = SCCTopology()
        full = distance_reduction_mapping(48, topo)
        assert distance_reduction_mapping(n, topo) == full[:n]


# --- runtime properties -------------------------------------------------------------

class TestRuntimeProperties:
    @SET
    @given(st.integers(1, 16), st.integers(0, 1000))
    def test_allreduce_sum_invariant(self, n, offset):
        def fn(comm):
            return (yield from comm.allreduce(comm.ue + offset))

        rt = RCCERuntime(list(range(n)))
        res = rt.run(fn)
        expected = sum(range(n)) + n * offset
        assert all(r.value == expected for r in res)

    @SET
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_makespan_equals_max_compute(self, durations):
        def fn(comm):
            yield from comm.compute(durations[comm.ue])

        rt = RCCERuntime(list(range(len(durations))))
        res = rt.run(fn)
        assert rt.makespan(res) == pytest.approx(max(durations), abs=1e-12)

    @SET
    @given(st.lists(st.tuples(st.floats(0, 10), st.integers(0, 5)), max_size=20))
    def test_simulator_time_never_regresses(self, events):
        sim = Simulator()
        stamps = []
        for delay, _ in events:
            sim.schedule(delay, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == sorted(stamps)
