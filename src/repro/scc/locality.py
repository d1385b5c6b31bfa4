"""Vectorized locality analysis: reuse times, footprint, miss ratios.

The irregular ``x[index[j]]`` gather of the CSR SpMV kernel is the one
access stream whose cache behaviour cannot be written down in closed
form (paper Sec. III / IV-C).  Simulating it address-by-address is
O(N) *Python* work per access — infeasible for the multi-million-nonzero
matrices of Table I.  Instead we use the higher-order theory of
locality (Xiang et al., "HOTL", ASPLOS'13):

1. compute the **reuse time** of every access (distance in accesses
   since the previous touch of the same cache line) — vectorized with
   one stable argsort (a radix sort when the line ids span fewer than
   2**16 values), from which reuse, first and last times all follow;
2. convert the reuse-time histogram into the **average footprint**
   ``fp(w)`` — the mean number of distinct lines touched in any window
   of ``w`` consecutive accesses — via Xiang's O(N) formula, summed
   once over one exact integer histogram;
3. predict a capacity-``C`` LRU cache miss for every access whose reuse
   window has footprint larger than ``C`` lines.

Step 3 is exact for fully-associative LRU under the average-footprint
approximation and is a tight model for the SCC's 4-way pseudo-LRU L2;
``tests/test_scc_locality.py`` cross-validates it against the exact
simulator of :mod:`repro.scc.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .params import CACHE_LINE_BYTES

__all__ = [
    "lines_of_addresses",
    "reuse_times",
    "ReuseProfile",
    "reuse_profile",
    "FootprintCurve",
    "footprint_curve",
    "MissRatioCurve",
    "miss_ratio_curve",
]


def lines_of_addresses(addrs: np.ndarray, line_bytes: int = CACHE_LINE_BYTES) -> np.ndarray:
    """Map byte addresses to cache-line ids."""
    if line_bytes <= 0:
        raise ValueError(f"line_bytes must be positive, got {line_bytes}")
    return np.asarray(addrs, dtype=np.int64) // line_bytes


def _grouped(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group a non-empty stream by line id, stable in time order.

    Returns ``(order, start)``: ``order`` is the stable argsort of
    ``lines`` and ``start[k]`` marks the ``order`` positions that begin
    a new line's group.  If the id span fits 16 bits the sort runs on
    ``uint16`` offsets from the minimum, which NumPy radix-sorts; wider
    spans use the int64 stable sort.  A stable sort's permutation is
    unique, so both agree.
    """
    lo = int(lines.min())
    if int(lines.max()) - lo < 1 << 16:
        order = np.argsort((lines - lo).astype(np.uint16), kind="stable")
    else:
        order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    return order, np.concatenate(([True], sorted_lines[1:] != sorted_lines[:-1]))


def reuse_times(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access reuse times of a line-id stream.

    Returns ``(rt, first_mask)`` where ``rt[i]`` is the number of
    accesses between access ``i`` and the previous access to the same
    line *inclusive of i* (so an immediate re-access has ``rt == 1``),
    and ``first_mask[i]`` marks cold (first-ever) accesses, whose ``rt``
    is 0 and meaningless.
    """
    lines = np.asarray(lines, dtype=np.int64).ravel()
    n = lines.size
    rt = np.zeros(n, dtype=np.int64)
    first = np.zeros(n, dtype=bool)
    if n == 0:
        return rt, first
    order, start = _grouped(lines)
    first[order] = start
    # Within each group, consecutive entries are consecutive touches.
    gap = np.diff(order)
    gap[start[1:]] = 0
    rt[order[1:]] = gap
    return rt, first


@dataclass(frozen=True)
class ReuseProfile:
    """Summary of one access stream at line granularity."""

    n_accesses: int
    n_lines: int                     # distinct lines (== cold misses)
    reuse_hist: np.ndarray           # reuse_hist[t] = #accesses with rt == t
    first_times: np.ndarray          # 1-based time of first access per line
    last_times: np.ndarray           # 1-based time of last access per line

    @property
    def cold_misses(self) -> int:
        """First-touch misses (== distinct lines)."""
        return self.n_lines


def reuse_profile(lines: np.ndarray) -> ReuseProfile:
    """Compute the full reuse profile of a line-id stream."""
    lines = np.asarray(lines, dtype=np.int64).ravel()
    n = lines.size
    if n == 0:
        return ReuseProfile(0, 0, np.zeros(1, dtype=np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
    order, start = _grouped(lines)
    reuse = np.diff(order)[~start[1:]]
    return ReuseProfile(
        n_accesses=n,
        n_lines=int(start.sum()),
        reuse_hist=np.bincount(reuse, minlength=n + 1).astype(np.int64, copy=False),
        first_times=order[start] + 1,                 # 1-based
        last_times=order[np.roll(start, -1)] + 1,     # 1-based; a group ends where the next starts
    )


@dataclass(frozen=True)
class FootprintCurve:
    """Average footprint fp(w): mean distinct lines per window of w accesses."""

    n_accesses: int
    n_lines: int
    values: np.ndarray  # values[w] = fp(w) for w in 0..n_accesses

    def __call__(self, w: np.ndarray | int | float) -> np.ndarray:
        w_arr = np.clip(np.asarray(w, dtype=np.int64), 0, self.n_accesses)
        return self.values[w_arr]

    def window_for_capacity(self, capacity_lines: float) -> int:
        """Largest window w with fp(w) <= capacity (0 if even fp(1) > C)."""
        # fp is non-decreasing in w.
        idx = int(np.searchsorted(self.values, capacity_lines, side="right")) - 1
        return max(idx, 0)


def footprint_curve(profile: ReuseProfile) -> FootprintCurve:
    """Xiang's O(N) average-footprint formula.

    With accesses numbered 1..n over m distinct lines::

        fp(w) = m - ( sum_{t>w} (t-w) * rt(t)
                     + sum_k max(f_k - w, 0)
                     + sum_k max(r_k - w, 0) ) / (n - w + 1)

    where ``f_k`` is the first-access time of line k and
    ``r_k = n + 1 - last_k`` its reverse last-access time.  All three
    sums have the form ``sum_{t>w} (t-w) * h[t]``, so their histograms
    add into one int64 ``h`` and a single pair of suffix sums gives the
    whole deficit in exact integers.  Only the division is in float64,
    so the result is bitwise that of summing each term in float64 while
    the sums stay below 2**53 (streams shorter than ~5e7 accesses).
    """
    n, m = profile.n_accesses, profile.n_lines
    if n == 0:
        return FootprintCurve(0, 0, np.zeros(1, dtype=np.float64))
    h = (
        profile.reuse_hist
        + np.bincount(profile.first_times, minlength=n + 1)
        + np.bincount(n + 1 - profile.last_times, minlength=n + 1)
    )
    t = np.arange(n + 1, dtype=np.int64)
    th = t * h
    count_gt = np.cumsum(h[::-1])[::-1] - h           # sum_{s>t} h[s]
    weight_gt = np.cumsum(th[::-1])[::-1] - th        # sum_{s>t} s * h[s]
    fp = m - (weight_gt - t * count_gt) / (n + 1 - t)
    fp[0] = 0.0
    # Guard numerical noise: fp must be within [0, m] and non-decreasing.
    fp = np.clip(fp, 0.0, float(m))
    fp = np.maximum.accumulate(fp)
    return FootprintCurve(n, m, fp)


@dataclass(frozen=True)
class MissRatioCurve:
    """Predicted LRU misses of a stream as a function of cache capacity."""

    profile: ReuseProfile
    footprint: FootprintCurve

    def misses(self, capacity_lines: float) -> int:
        """Total predicted misses (cold + capacity) at the given capacity."""
        if capacity_lines <= 0:
            return self.profile.n_accesses
        if self.profile.n_accesses == 0:
            return 0
        w_star = self.footprint.window_for_capacity(capacity_lines)
        # Accesses with reuse time > w_star miss; rt==0 bucket holds colds
        # only implicitly (cold accesses are excluded from the histogram).
        return self.profile.cold_misses + int(self.profile.reuse_hist[w_star + 1 :].sum())

    def miss_ratio(self, capacity_lines: float) -> float:
        """Predicted misses divided by total accesses."""
        n = self.profile.n_accesses
        return self.misses(capacity_lines) / n if n else 0.0

    def curve(self, capacities: np.ndarray) -> np.ndarray:
        """Miss ratio evaluated at each capacity in the array."""
        return np.array([self.miss_ratio(c) for c in np.asarray(capacities)])


def miss_ratio_curve(lines: np.ndarray) -> MissRatioCurve:
    """Build the full locality model of a line-id stream."""
    profile = reuse_profile(lines)
    return MissRatioCurve(profile, footprint_curve(profile))
