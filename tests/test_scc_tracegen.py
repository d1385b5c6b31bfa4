"""Tests for exact SpMV address-trace generation and replay.

The final classes cross-validate the analytical stream characterization
(:mod:`repro.core.trace`) against trace-exact cache simulation — the
soundness check for the fast model the benchmarks rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import characterize_partition
from repro.scc import CacheHierarchy
from repro.scc.tracegen import (
    DEFAULT_LAYOUT,
    REPLAY_ENGINES,
    TraceLayout,
    replay_trace,
    spmv_address_trace,
    spmv_address_trace_chunks,
)
from repro.scc.vecreplay import VectorCacheHierarchy
from repro.sparse import banded, partition_rows_balanced, random_uniform
from repro.sparse.fastpath import batch_access_summaries, batch_traces


class TestLayout:
    def test_default_layout_disjoint(self):
        assert DEFAULT_LAYOUT.ptr_base < DEFAULT_LAYOUT.index_base

    def test_overlapping_bases_rejected(self):
        with pytest.raises(ValueError):
            TraceLayout(ptr_base=0x1000, index_base=0x2000)


class TestTraceStructure:
    def test_access_count(self, tiny_csr):
        addrs, writes = spmv_address_trace(tiny_csr)
        assert addrs.size == 3 * tiny_csr.n_rows + 3 * tiny_csr.nnz
        assert writes.sum() == tiny_csr.n_rows  # one y store per row

    def test_program_order_of_first_row(self, tiny_csr):
        """Row 0 has entries (0,1.0) and (2,2.0): the trace must open
        with ptr[0], ptr[1], index[0], da[0], x[0], index[1], da[1],
        x[2], y[0]."""
        L = DEFAULT_LAYOUT
        addrs, writes = spmv_address_trace(tiny_csr)
        expected = [
            L.ptr_base + 0,
            L.ptr_base + 4,
            L.index_base + 0,
            L.da_base + 0,
            L.x_base + 0,
            L.index_base + 4,
            L.da_base + 8,
            L.x_base + 16,
            L.y_base + 0,
        ]
        assert addrs[:9].tolist() == expected
        assert writes[:9].tolist() == [False] * 8 + [True]

    def test_row_range(self, tiny_csr):
        addrs, _ = spmv_address_trace(tiny_csr, 2, 4)
        nnz = int(tiny_csr.ptr[4] - tiny_csr.ptr[2])
        assert addrs.size == 3 * 2 + 3 * nnz
        assert addrs[0] == DEFAULT_LAYOUT.ptr_base + 4 * 2

    def test_empty_range(self, tiny_csr):
        addrs, writes = spmv_address_trace(tiny_csr, 1, 1)
        assert addrs.size == 0 and writes.size == 0

    def test_bad_range(self, tiny_csr):
        with pytest.raises(ValueError):
            spmv_address_trace(tiny_csr, 4, 2)

    def test_no_x_miss_pins_gathers(self, tiny_csr):
        L = DEFAULT_LAYOUT
        addrs, _ = spmv_address_trace(tiny_csr, no_x_miss=True)
        x_accesses = addrs[(addrs >= L.x_base) & (addrs < L.y_base)]
        assert (x_accesses == L.x_base).all()
        assert x_accesses.size == tiny_csr.nnz

    def test_x_addresses_follow_column_indices(self, small_banded):
        L = DEFAULT_LAYOUT
        addrs, _ = spmv_address_trace(small_banded)
        x_accesses = addrs[(addrs >= L.x_base) & (addrs < L.y_base)]
        cols = (x_accesses - L.x_base) // 8
        np.testing.assert_array_equal(np.sort(cols), np.sort(small_banded.index))

    def test_matrix_with_empty_rows(self):
        from repro.sparse import CSRMatrix

        dense = np.zeros((5, 5))
        dense[0, 0] = dense[4, 4] = 1.0
        m = CSRMatrix.from_dense(dense)
        addrs, writes = spmv_address_trace(m)
        assert addrs.size == 3 * 5 + 3 * 2
        assert writes.sum() == 5


class TestReplay:
    def test_counts_add_up(self, small_banded):
        counts = replay_trace(small_banded)
        addrs, _ = spmv_address_trace(small_banded)
        assert counts.accesses == addrs.size

    def test_second_iteration_warms(self):
        """A matrix whose working set fits L2 only cold-misses once."""
        a = banded(300, 6.0, 8, seed=3)  # ws << 256 KB
        one = replay_trace(a, iterations=1)
        two = replay_trace(a, iterations=2)
        assert two.mem_misses == one.mem_misses  # no new memory traffic
        assert two.l1_hits + two.l2_hits > 2 * one.l1_hits

    def test_l2_disabled(self, small_banded):
        on = replay_trace(small_banded, l2_enabled=True)
        off = replay_trace(small_banded, l2_enabled=False)
        assert off.l2_hits == 0
        assert off.mem_misses >= on.mem_misses

    def test_no_x_miss_reduces_misses(self):
        a = random_uniform(4000, 8.0, seed=4)
        base = replay_trace(a)
        nox = replay_trace(a, no_x_miss=True)
        assert nox.mem_misses < base.mem_misses

    def test_iterations_validated(self, small_banded):
        with pytest.raises(ValueError):
            replay_trace(small_banded, iterations=0)

    def test_external_hierarchy_accumulates(self, small_banded):
        h = CacheHierarchy()
        replay_trace(small_banded, hierarchy=h)
        warm = replay_trace(small_banded, hierarchy=h)
        assert warm.mem_misses <= small_banded.nnz  # mostly warm now


class TestChunkedTraceGeneration:
    def test_concatenated_chunks_equal_full_trace(self, small_banded):
        full_addrs, full_writes = spmv_address_trace(small_banded)
        parts = list(spmv_address_trace_chunks(small_banded, max_accesses=97))
        assert len(parts) > 1  # the bound actually forced chunking
        np.testing.assert_array_equal(
            np.concatenate([a for a, _ in parts]), full_addrs
        )
        np.testing.assert_array_equal(
            np.concatenate([w for _, w in parts]), full_writes
        )

    def test_chunks_respect_bound_except_single_rows(self, small_banded):
        bound = 97
        for addrs, writes in spmv_address_trace_chunks(
            small_banded, max_accesses=bound
        ):
            # One y store per row: an over-bound chunk must be a single
            # row that could not be split.
            assert addrs.size <= bound or int(writes.sum()) == 1

    def test_oversized_single_row_emitted_alone(self):
        from repro.sparse import CSRMatrix

        dense = np.zeros((3, 50))
        dense[1, :] = 1.0  # one row with 50 nonzeros: 153 accesses alone
        m = CSRMatrix.from_dense(dense)
        parts = list(spmv_address_trace_chunks(m, max_accesses=10))
        sizes = [a.size for a, _ in parts]
        assert sum(sizes) == 3 * 3 + 3 * 50
        assert max(sizes) > 10  # the fat row could not be split

    def test_row_range_subsets(self, small_banded):
        sub_addrs, _ = spmv_address_trace(small_banded, 5, 50)
        parts = list(
            spmv_address_trace_chunks(small_banded, 5, 50, max_accesses=64)
        )
        np.testing.assert_array_equal(
            np.concatenate([a for a, _ in parts]), sub_addrs
        )

    def test_bad_arguments(self, small_banded):
        with pytest.raises(ValueError):
            list(spmv_address_trace_chunks(small_banded, 4, 2))
        with pytest.raises(ValueError):
            spmv_address_trace_chunks(small_banded, max_accesses=0)


class TestVectorizedEngine:
    """``engine='vectorized'`` must be bitwise-identical to the scalar."""

    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("no_x_miss", [False, True])
    def test_counts_match_scalar(self, small_banded, iterations, no_x_miss):
        scalar = replay_trace(
            small_banded, iterations=iterations, no_x_miss=no_x_miss
        )
        vec = replay_trace(
            small_banded,
            iterations=iterations,
            no_x_miss=no_x_miss,
            engine="vectorized",
            use_disk_cache=False,
        )
        assert vec == scalar

    def test_l2_disabled_matches_scalar(self, small_banded):
        scalar = replay_trace(small_banded, l2_enabled=False)
        vec = replay_trace(
            small_banded, l2_enabled=False, engine="vectorized",
            use_disk_cache=False,
        )
        assert vec == scalar

    def test_chunked_replay_matches_single_chunk(self, small_banded):
        whole = replay_trace(
            small_banded, iterations=2, engine="vectorized", use_disk_cache=False
        )
        chunked = replay_trace(
            small_banded,
            iterations=2,
            engine="vectorized",
            chunk_accesses=101,
            use_disk_cache=False,
        )
        assert chunked == whole

    def test_iteration_fast_forward_is_exact(self):
        # Small working set: the hierarchy state cycles after warmup and
        # the remaining iterations are fast-forwarded — counts must stay
        # identical to simulating every pass (the scalar oracle does).
        a = banded(300, 6.0, 8, seed=3)
        iters = 12
        scalar = replay_trace(a, iterations=iters)
        vec = replay_trace(
            a, iterations=iters, engine="vectorized", use_disk_cache=False
        )
        assert vec == scalar

    def test_external_vector_hierarchy_accumulates(self, small_banded):
        h = VectorCacheHierarchy()
        replay_trace(small_banded, hierarchy=h, engine="vectorized")
        warm = replay_trace(small_banded, hierarchy=h, engine="vectorized")
        assert warm.mem_misses <= small_banded.nnz

    def test_scalar_hierarchy_rejected(self, small_banded):
        with pytest.raises(TypeError):
            replay_trace(
                small_banded, hierarchy=CacheHierarchy(), engine="vectorized"
            )

    def test_unknown_engine_rejected(self, small_banded):
        assert "vectorized" in REPLAY_ENGINES
        with pytest.raises(ValueError):
            replay_trace(small_banded, engine="warp-speed")


class TestReplayDiskCache:
    def test_round_trip_and_counters(self, small_banded, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        from repro.obs.tracer import Tracer

        t1 = Tracer()
        cold = replay_trace(
            small_banded, iterations=2, engine="vectorized", tracer=t1
        )
        t2 = Tracer()
        warm = replay_trace(
            small_banded, iterations=2, engine="vectorized", tracer=t2
        )
        assert warm == cold
        assert t1.metrics.counter("replay.disk.misses").value == 1
        assert t2.metrics.counter("replay.disk.hits").value == 1
        # The cached result still matches the scalar oracle.
        assert cold == replay_trace(small_banded, iterations=2)

    def test_warm_hierarchy_never_memoized(self, small_banded, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        h = VectorCacheHierarchy()
        replay_trace(small_banded, hierarchy=h, engine="vectorized")
        warm = replay_trace(small_banded, hierarchy=h, engine="vectorized")
        cold = replay_trace(
            small_banded, engine="vectorized", use_disk_cache=False
        )
        # The warm result differs — proving it was computed, not read
        # back from a cold-keyed disk entry.
        assert warm != cold

    def test_disable_via_env(self, small_banded, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        replay_trace(small_banded, engine="vectorized")
        assert not any(tmp_path.rglob("*.json"))


class TestModelValidation:
    """The analytical model must track trace-exact memory misses."""

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: banded(3000, 10.0, 15, seed=11),
            lambda: random_uniform(3000, 10.0, seed=12),
        ],
        ids=["banded", "random"],
    )
    def test_streaming_regime_memory_misses(self, maker):
        a = maker()
        part = partition_rows_balanced(a, 1)
        [trace] = characterize_partition(a, part)
        # Single pass, cold caches: the model's cold+capacity prediction.
        summary = batch_access_summaries(batch_traces([trace]), iterations=1)
        exact = replay_trace(a, iterations=1)
        assert summary.l2_misses[0] == pytest.approx(exact.mem_misses, rel=0.30)

    def test_resident_regime_warm_iterations(self):
        a = banded(500, 8.0, 10, seed=13)  # fits L2
        part = partition_rows_balanced(a, 1)
        [trace] = characterize_partition(a, part)
        iters = 8
        summary = batch_access_summaries(batch_traces([trace]), iterations=iters)
        exact = replay_trace(a, iterations=iters)
        # Memory misses: cold set only, both in model and exact replay.
        assert summary.l2_misses[0] == pytest.approx(exact.mem_misses, rel=0.30)

    def test_no_x_miss_regime(self):
        a = random_uniform(3000, 10.0, seed=14)
        part = partition_rows_balanced(a, 1)
        [trace] = characterize_partition(a, part)
        summary = batch_access_summaries(batch_traces([trace]), iterations=1, no_x_miss=True)
        exact = replay_trace(a, iterations=1, no_x_miss=True)
        assert summary.l2_misses[0] == pytest.approx(exact.mem_misses, rel=0.30)
