"""Tests for the vectorized locality model (reuse, footprint, MRC).

Includes brute-force validation of Xiang's footprint formula and
cross-validation of the miss-ratio model against exact LRU stack
distances and the exact cache simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scc import (
    Cache,
    footprint_curve,
    lines_of_addresses,
    miss_ratio_curve,
    reuse_profile,
    reuse_times,
)
from repro.scc.locality import ReuseProfile


def brute_force_footprint(lines: np.ndarray, w: int) -> float:
    """Average distinct elements over every window of w accesses."""
    n = len(lines)
    vals = [len(set(lines[i : i + w])) for i in range(n - w + 1)]
    return float(np.mean(vals))


def exact_lru_misses(lines: np.ndarray, capacity: int) -> int:
    """Fully-associative true-LRU miss count (reference implementation)."""
    stack: list = []
    misses = 0
    for line in lines:
        if line in stack:
            stack.remove(line)
        else:
            misses += 1
            if len(stack) >= capacity:
                stack.pop()
        stack.insert(0, line)
    return misses


def oracle_reuse_times(lines: np.ndarray):
    """Reference reuse times: one int64 stable argsort per call."""
    lines = np.asarray(lines, dtype=np.int64).ravel()
    n = lines.size
    rt = np.zeros(n, dtype=np.int64)
    first = np.zeros(n, dtype=bool)
    if n == 0:
        return rt, first
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_lines[1:] != sorted_lines[:-1]
    first[order] = boundary
    same = ~boundary[1:]
    cur = order[1:][same]
    prev = order[:-1][same]
    rt[cur] = cur - prev
    return rt, first


def oracle_reuse_profile(lines: np.ndarray) -> ReuseProfile:
    """Reference profile: the stream is argsorted twice, once inside
    :func:`oracle_reuse_times` and once here for first/last times."""
    lines = np.asarray(lines, dtype=np.int64).ravel()
    n = lines.size
    rt, first = oracle_reuse_times(lines)
    hist = np.bincount(rt[~first], minlength=n + 1).astype(np.int64)
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_lines[1:] != sorted_lines[:-1]
    last_boundary = np.empty(n, dtype=bool)
    last_boundary[-1] = True
    last_boundary[:-1] = sorted_lines[1:] != sorted_lines[:-1]
    return ReuseProfile(n, int(boundary.sum()), hist, order[boundary] + 1, order[last_boundary] + 1)


def oracle_footprint(profile: ReuseProfile) -> np.ndarray:
    """Reference fp(w): three float64 deficits, each via ``np.add.at``."""
    n, m = profile.n_accesses, profile.n_lines

    def deficit(hist_vals: np.ndarray) -> np.ndarray:
        h = np.zeros(n + 1, dtype=np.float64)
        idx = np.minimum(np.arange(hist_vals.size), n)
        np.add.at(h, idx, hist_vals)
        t = np.arange(n + 1, dtype=np.float64)
        count_gt = np.concatenate([np.cumsum(h[::-1])[::-1][1:], [0.0]])
        weight_gt = np.concatenate([np.cumsum((h * t)[::-1])[::-1][1:], [0.0]])
        return weight_gt - t * count_gt

    f_hist = np.bincount(profile.first_times, minlength=n + 1).astype(np.float64)
    r_hist = np.bincount(n + 1 - profile.last_times, minlength=n + 1).astype(np.float64)
    w = np.arange(n + 1, dtype=np.float64)
    fp = m - (deficit(profile.reuse_hist) + deficit(f_hist) + deficit(r_hist)) / (n - w + 1.0)
    fp[0] = 0.0
    fp = np.clip(fp, 0.0, float(m))
    return np.maximum.accumulate(fp)


def oracle_misses(profile: ReuseProfile, fp: np.ndarray, capacity: float) -> int:
    """Reference miss count, with the explicit out-of-range guard."""
    if capacity <= 0:
        return profile.n_accesses
    w_star = max(int(np.searchsorted(fp, capacity, side="right")) - 1, 0)
    hist = profile.reuse_hist
    reuse = int(hist[min(w_star, hist.size - 1) + 1 :].sum()) if w_star + 1 < hist.size else 0
    return profile.n_lines + reuse


def _oracle_streams() -> dict:
    rng = np.random.default_rng(20120521)
    return {
        "length-1": np.array([42]),
        "all-equal": np.full(257, 9),
        "sorted": np.arange(0, 3000, 3),
        "reversed": np.arange(3000, 0, -3),
        "negative": rng.integers(-500, -1, size=2000),
        "span<2^16": rng.integers(100, 100 + (1 << 16) - 1, size=4000),
        "span=2^16-1": np.array([7, 7 + (1 << 16) - 1, 7, 8]),
        "span=2^16": np.array([0, 1 << 16, 0, 1 << 16]),
        "span<2^32": rng.integers(-(1 << 20), 1 << 31, size=4000) // 64,
        "span>=2^32": rng.choice(rng.integers(-(1 << 50), 1 << 50, size=300), size=3000),
        "span-int64-extremes": np.array([-(1 << 62), 1 << 62, -(1 << 62), 0, 1 << 62]),
    }


ORACLE_STREAMS = _oracle_streams()


class TestAgainstOracle:
    """The one-sort, one-histogram kernel is bitwise equal to the
    reference that sorts twice and sums three float deficits."""

    @pytest.mark.parametrize("lines", ORACLE_STREAMS.values(), ids=ORACLE_STREAMS.keys())
    def test_bitwise_equal(self, lines):
        got, want = reuse_profile(lines), oracle_reuse_profile(lines)
        assert (got.n_accesses, got.n_lines) == (want.n_accesses, want.n_lines)
        for field in ("reuse_hist", "first_times", "last_times"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        fp = footprint_curve(got)
        fp_want = oracle_footprint(want)
        assert fp.values.dtype == fp_want.dtype and fp.values.tobytes() == fp_want.tobytes()
        for a, b in zip(reuse_times(lines), oracle_reuse_times(lines)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        mrc = miss_ratio_curve(lines)
        for capacity in (0, 1, 7.5, 64, 1e9):
            assert mrc.misses(capacity) == oracle_misses(want, fp_want, capacity)

    def test_random_streams_bitwise_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 1500))
            stride = int(rng.choice([1, 3, 1 << 12, 1 << 24, 1 << 40]))
            lines = rng.integers(-200, 200, size=n) * stride
            fp = footprint_curve(reuse_profile(lines)).values
            assert fp.tobytes() == oracle_footprint(oracle_reuse_profile(lines)).tobytes()


class TestReuseTimes:
    def test_empty(self):
        rt, first = reuse_times(np.array([], dtype=np.int64))
        assert rt.size == 0 and first.size == 0

    def test_all_distinct(self):
        rt, first = reuse_times(np.array([1, 2, 3, 4]))
        assert first.all()
        assert (rt == 0).all()

    def test_immediate_reuse(self):
        rt, first = reuse_times(np.array([5, 5, 5]))
        assert list(first) == [True, False, False]
        assert list(rt) == [0, 1, 1]

    def test_interleaved(self):
        rt, first = reuse_times(np.array([1, 2, 1, 2]))
        assert list(first) == [True, True, False, False]
        assert list(rt) == [0, 0, 2, 2]

    def test_mixed_pattern(self):
        rt, first = reuse_times(np.array([7, 3, 7, 9, 3, 7]))
        assert list(first) == [True, True, False, True, False, False]
        assert rt[2] == 2 and rt[4] == 3 and rt[5] == 3


class TestReuseProfile:
    def test_counts(self):
        p = reuse_profile(np.array([1, 2, 1, 3, 2, 1]))
        assert p.n_accesses == 6
        assert p.n_lines == 3
        assert p.cold_misses == 3
        assert p.reuse_hist.sum() == 3  # three reuses

    def test_first_last_times_one_based(self):
        p = reuse_profile(np.array([10, 20, 10]))
        assert sorted(p.first_times.tolist()) == [1, 2]
        assert sorted(p.last_times.tolist()) == [2, 3]

    def test_empty_profile(self):
        p = reuse_profile(np.array([], dtype=np.int64))
        assert p.n_accesses == 0 and p.n_lines == 0


class TestFootprint:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("universe", [4, 16, 64])
    def test_matches_brute_force(self, seed, universe):
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, universe, size=200)
        fp = footprint_curve(reuse_profile(lines))
        for w in (1, 2, 3, 5, 10, 50, 100, 200):
            assert fp.values[w] == pytest.approx(brute_force_footprint(lines, w), abs=1e-9)

    def test_sequential_stream(self):
        lines = np.arange(50)
        fp = footprint_curve(reuse_profile(lines))
        # Every window of w distinct lines has footprint exactly w.
        for w in (1, 5, 25, 50):
            assert fp.values[w] == pytest.approx(w)

    def test_monotone_nondecreasing(self, rng):
        lines = rng.integers(0, 30, size=500)
        fp = footprint_curve(reuse_profile(lines))
        assert (np.diff(fp.values) >= -1e-12).all()

    def test_bounds(self, rng):
        lines = rng.integers(0, 30, size=500)
        fp = footprint_curve(reuse_profile(lines))
        assert fp.values[0] == 0.0
        assert fp.values[-1] == pytest.approx(len(set(lines.tolist())))
        assert (fp.values <= fp.n_lines + 1e-9).all()

    def test_callable_clips(self, rng):
        lines = rng.integers(0, 10, size=100)
        fp = footprint_curve(reuse_profile(lines))
        assert fp(10**9) == fp.values[-1]
        assert fp(0) == 0.0

    def test_window_for_capacity(self, rng):
        lines = rng.integers(0, 100, size=1000)
        fp = footprint_curve(reuse_profile(lines))
        w = fp.window_for_capacity(10.0)
        assert fp.values[w] <= 10.0
        if w + 1 <= fp.n_accesses:
            assert fp.values[w + 1] > 10.0


class TestMissRatioCurve:
    def test_infinite_cache_only_cold_misses(self, rng):
        lines = rng.integers(0, 50, size=400)
        mrc = miss_ratio_curve(lines)
        assert mrc.misses(10**9) == len(set(lines.tolist()))

    def test_zero_capacity_all_miss(self, rng):
        lines = rng.integers(0, 50, size=400)
        mrc = miss_ratio_curve(lines)
        assert mrc.misses(0) == 400

    def test_monotone_in_capacity(self, rng):
        lines = rng.integers(0, 200, size=2000)
        mrc = miss_ratio_curve(lines)
        caps = [1, 2, 4, 8, 16, 32, 64, 128, 256]
        ratios = mrc.curve(np.array(caps))
        assert (np.diff(ratios) <= 1e-12).all()

    def test_loop_fits_exactly(self):
        """A cyclic loop over K lines hits fully once capacity >= K."""
        lines = np.tile(np.arange(8), 50)
        mrc = miss_ratio_curve(lines)
        assert mrc.misses(8) == 8  # cold only
        # LRU worst case: cyclic pattern with capacity < K misses always.
        assert mrc.misses(7) == 400

    @pytest.mark.parametrize("universe,capacity", [(30, 8), (30, 16), (100, 32), (15, 4)])
    def test_close_to_exact_lru_on_random_traces(self, universe, capacity):
        rng = np.random.default_rng(99)
        lines = rng.integers(0, universe, size=3000)
        model = miss_ratio_curve(lines).misses(capacity)
        exact = exact_lru_misses(lines, capacity)
        # The average-footprint conversion is a tight approximation on
        # homogeneous traces: allow 12% relative error.
        assert model == pytest.approx(exact, rel=0.12)

    def test_close_to_exact_setassoc_cache(self):
        """Model vs the exact 4-way pseudo-LRU simulator on a gather trace."""
        rng = np.random.default_rng(3)
        # Zipf-ish gather: mixture of hot and cold lines.
        hot = rng.integers(0, 16, size=2000)
        cold = rng.integers(0, 512, size=2000)
        lines = np.where(rng.uniform(size=2000) < 0.6, hot, cold)
        cache = Cache(size_bytes=64 * 32, assoc=4, line_bytes=32)  # 64 lines
        exact = cache.access_trace(lines * 32)
        model = miss_ratio_curve(lines).misses(64)
        assert model == pytest.approx(exact, rel=0.15)

    def test_miss_ratio_empty_stream(self):
        mrc = miss_ratio_curve(np.array([], dtype=np.int64))
        assert mrc.miss_ratio(16) == 0.0
        assert mrc.misses(16) == 0


class TestLinesOfAddresses:
    def test_basic(self):
        addrs = np.array([0, 31, 32, 95, 96])
        assert list(lines_of_addresses(addrs, 32)) == [0, 0, 1, 2, 3]

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            lines_of_addresses(np.array([0]), 0)
