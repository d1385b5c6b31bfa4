"""Tests for SpMV access-stream characterization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import characterize_partition
from repro.core.trace import UETrace
from repro.scc.params import L2_BYTES
from repro.sparse import banded, partition_rows_balanced, random_uniform
from repro.sparse.fastpath import batch_access_summaries, batch_traces


def trace_of(a, n_ues=1, **kw):
    return characterize_partition(a, partition_rows_balanced(a, n_ues), **kw)


class TestCharacterizePartition:
    def test_one_trace_per_ue(self, small_banded):
        traces = trace_of(small_banded, 4)
        assert len(traces) == 4
        assert [t.ue for t in traces] == [0, 1, 2, 3]

    def test_nnz_and_rows_partition(self, small_banded):
        traces = trace_of(small_banded, 4)
        assert sum(t.nnz for t in traces) == small_banded.nnz
        assert sum(t.rows for t in traces) == small_banded.n_rows

    def test_stream_lines_scale_with_nnz(self, small_banded):
        [t] = trace_of(small_banded)
        # da(8B) + index(4B) per nnz plus ptr/y per row, 32B lines.
        expected = (
            8 * t.nnz // 32 + 4 * t.nnz // 32 + 4 * t.rows // 32 + 8 * t.rows // 32
        )
        assert t.stream_lines == pytest.approx(expected, rel=0.02, abs=6)

    def test_x_locality_banded_beats_random_at_l1(self):
        a = banded(3000, 8.0, 8, seed=1)
        b = random_uniform(3000, 8.0, seed=1)
        ta = trace_of(a)[0]
        tb = trace_of(b)[0]
        assert ta.x_l1_misses < tb.x_l1_misses
        # Both footprints (750 lines) fit the L2 share: only colds remain.
        assert ta.x_l2_misses <= tb.x_l2_misses

    def test_x_locality_banded_beats_random_at_l2(self):
        # Footprint must exceed the L2 x-share (4096 lines = 16k cols).
        a = banded(40_000, 8.0, 8, seed=1)
        b = random_uniform(40_000, 8.0, seed=1)
        assert trace_of(a)[0].x_l2_misses < trace_of(b)[0].x_l2_misses

    def test_x_distinct_lines_bounded_by_columns(self, small_random):
        [t] = trace_of(small_random)
        assert t.x_distinct_lines <= (small_random.n_cols * 8) // 32 + 1

    def test_ws_bytes_accounting(self, small_banded):
        [t] = trace_of(small_banded)
        assert t.ws_bytes >= 12 * t.nnz
        assert t.ws_bytes >= t.x_distinct_lines * 32

    def test_more_ues_shrink_per_ue_ws(self, small_banded):
        t1 = trace_of(small_banded, 1)[0]
        t4 = max(trace_of(small_banded, 4), key=lambda t: t.ws_bytes)
        assert t4.ws_bytes < t1.ws_bytes

    def test_x_capacity_fraction_validated(self, small_banded):
        with pytest.raises(ValueError):
            trace_of(small_banded, 1, x_capacity_fraction=0.0)
        with pytest.raises(ValueError):
            trace_of(small_banded, 1, x_capacity_fraction=1.5)

    def test_larger_x_fraction_fewer_misses(self, small_random):
        few = trace_of(small_random, 1, x_capacity_fraction=0.9)[0]
        many = trace_of(small_random, 1, x_capacity_fraction=0.1)[0]
        assert few.x_l2_misses <= many.x_l2_misses

    def test_empty_ue_block(self):
        """A UE that receives zero rows produces a zero trace."""
        a = banded(64, 4.0, 4, seed=2)
        traces = characterize_partition(a, partition_rows_balanced(a, 64))
        empties = [t for t in traces if t.nnz == 0]
        for t in empties:
            assert t.x_l1_misses == 0 and t.stream_lines <= 2


def make_trace(**kw):
    defaults = dict(
        ue=0, nnz=10_000, rows=1_000, stream_lines=4_000, distinct_lines=5_000,
        x_l1_misses=2_000.0, x_l2_misses=500.0, x_distinct_lines=1_000,
        ws_bytes=100 * 1024,
    )
    defaults.update(kw)
    return UETrace(**defaults)


def fold_one(trace, **kw):
    """The one-UE fold: ``(l2_hits, l2_misses, batch)`` of ``trace``."""
    s = batch_access_summaries(batch_traces([trace]), **kw)
    return float(s.l2_hits[0]), float(s.l2_misses[0]), s


class TestAccessSummary:
    def test_resident_regime_cold_misses_once(self):
        t = make_trace(ws_bytes=L2_BYTES // 2)
        hits, misses, _ = fold_one(t, iterations=10)
        assert misses == t.distinct_lines  # cold only
        per_iter_l1 = t.stream_lines + t.x_l1_misses
        assert hits == pytest.approx(per_iter_l1 * 10 - t.distinct_lines)

    def test_streaming_regime_misses_every_iteration(self):
        t = make_trace(ws_bytes=4 * L2_BYTES)
        hits, misses, _ = fold_one(t, iterations=10)
        assert misses == pytest.approx((t.stream_lines + t.x_l2_misses) * 10)
        assert hits == pytest.approx((t.x_l1_misses - t.x_l2_misses) * 10)

    def test_l2_disabled_regime(self):
        t = make_trace(ws_bytes=L2_BYTES // 2)  # would fit, but L2 is off
        hits, misses, _ = fold_one(t, iterations=5, l2_enabled=False)
        assert hits == 0
        assert misses == pytest.approx((t.stream_lines + t.x_l1_misses) * 5)

    def test_no_x_miss_removes_gather_misses(self):
        t = make_trace(ws_bytes=4 * L2_BYTES)
        hits, misses, _ = fold_one(t, iterations=2, no_x_miss=True)
        assert misses == pytest.approx(t.stream_lines * 2)
        assert hits == 0.0

    def test_no_x_miss_in_resident_regime(self):
        t = make_trace(ws_bytes=L2_BYTES // 2)
        _, misses, _ = fold_one(t, iterations=3, no_x_miss=True)
        assert misses == t.stream_lines  # x colds gone too

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            fold_one(make_trace(), iterations=0)

    def test_flops_follow_iterations(self):
        _, _, s = fold_one(make_trace(), iterations=7)
        assert 2 * int(s.nnz.sum()) * s.iterations == 2 * 10_000 * 7

    def test_boundary_exactly_at_l2(self):
        t = make_trace(ws_bytes=L2_BYTES)
        _, misses, _ = fold_one(t, iterations=2)
        # <= L2 counts as resident.
        assert misses == t.distinct_lines
