"""Tests for the event-driven MC queue and its agreement with the
closed-form equilibrium used by the timing solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scc.mcqueue import CoreWorkload, simulate_controller
from repro.sparse.fastpath import equilibrium_line_times


class TestValidation:
    def test_empty_and_invalid(self):
        with pytest.raises(ValueError):
            simulate_controller([], 1e6)
        with pytest.raises(ValueError):
            simulate_controller([CoreWorkload(1.0, 10, 1e-7)], 0.0)
        with pytest.raises(ValueError):
            CoreWorkload(-1.0, 10, 1e-7)
        with pytest.raises(ValueError):
            CoreWorkload(1.0, 10, 0.0)


class TestSingleCore:
    def test_unsaturated_time_is_compute_plus_latency(self):
        wl = CoreWorkload(compute_time=1.0, n_lines=1000, latency=100e-9)
        [t] = simulate_controller([wl], capacity_lines_per_sec=1e12)
        assert t == pytest.approx(1.0 + 1000 * 100e-9, rel=1e-6)

    def test_zero_lines_pure_compute(self):
        wl = CoreWorkload(compute_time=0.5, n_lines=0, latency=1e-7)
        [t] = simulate_controller([wl], 1e6)
        assert t == pytest.approx(0.0)  # no requests -> process ends at 0

    def test_slow_server_bounds_single_core(self):
        # Service 1 ms/line dominates the 100 ns latency.
        wl = CoreWorkload(compute_time=0.0, n_lines=100, latency=100e-9)
        [t] = simulate_controller([wl], capacity_lines_per_sec=1000.0)
        assert t == pytest.approx(100 * 1e-3, rel=1e-3)


class TestContention:
    def test_two_cores_share_fairly(self):
        wl = CoreWorkload(compute_time=0.0, n_lines=1000, latency=1e-7)
        times = simulate_controller([wl, wl], capacity_lines_per_sec=1e6)
        # 2000 lines through a 1e6 lines/s server: ~2 ms for both.
        for t in times:
            assert t == pytest.approx(2e-3, rel=0.02)

    def test_light_core_unharmed_by_heavy_neighbour(self):
        light = CoreWorkload(compute_time=1.0, n_lines=10, latency=1e-7)
        heavy = CoreWorkload(compute_time=0.0, n_lines=100_000, latency=1e-7)
        t_alone = simulate_controller([light], 1e6)[0]
        t_shared = simulate_controller([light, heavy], 1e6)[0]
        # The light core's requests queue behind at most one in-flight
        # line each: bounded slowdown.
        assert t_shared < t_alone * 1.05


class TestAgreementWithClosedForm:
    def closed_form_times(self, workloads, capacity):
        base = [w.compute_time for w in workloads]
        lines = [float(w.n_lines) for w in workloads]
        lats = [w.latency for w in workloads]
        line_times = equilibrium_line_times(
            np.array(base), np.array(lines), np.array(lats),
            np.zeros(len(workloads), dtype=np.int64), [capacity],
        )
        return [b + m * t for b, m, t in zip(base, lines, line_times.tolist())]

    @pytest.mark.parametrize(
        "n_cores,capacity",
        [(1, 1e7), (4, 1e7), (12, 1e7), (12, 1e5), (4, 1e4)],
        ids=["1-unsat", "4-mild", "12-mild", "12-saturated", "4-very-saturated"],
    )
    def test_symmetric_workloads(self, n_cores, capacity):
        wl = CoreWorkload(compute_time=0.01, n_lines=2000, latency=150e-9)
        event = simulate_controller([wl] * n_cores, capacity)
        closed = self.closed_form_times([wl] * n_cores, capacity)
        for te, tc in zip(event, closed):
            assert te == pytest.approx(tc, rel=0.10)

    def test_asymmetric_workloads(self):
        workloads = [
            CoreWorkload(compute_time=0.02, n_lines=1000, latency=150e-9),
            CoreWorkload(compute_time=0.005, n_lines=4000, latency=150e-9),
            CoreWorkload(compute_time=0.01, n_lines=2000, latency=180e-9),
        ]
        capacity = 2e5  # saturating
        event = simulate_controller(workloads, capacity)
        closed = self.closed_form_times(workloads, capacity)
        # Asymmetric equilibria agree on the makespan within ~15%.
        assert max(event) == pytest.approx(max(closed), rel=0.15)

    def test_unsaturated_exact_agreement(self):
        workloads = [
            CoreWorkload(compute_time=0.01, n_lines=500, latency=140e-9),
            CoreWorkload(compute_time=0.02, n_lines=300, latency=160e-9),
        ]
        event = simulate_controller(workloads, capacity_lines_per_sec=1e12)
        closed = self.closed_form_times(workloads, 1e12)
        for te, tc in zip(event, closed):
            assert te == pytest.approx(tc, rel=1e-3)
