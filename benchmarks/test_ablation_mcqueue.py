"""Ablation A3 — closed-form MC equilibrium vs event-driven queueing.

Every figure in this harness leans on the timing solver's closed-form
bandwidth-sharing equilibrium.  This benchmark replays representative
controller workloads through an actual FIFO queue simulation
(:mod:`repro.scc.mcqueue`) and reports the disagreement — the error bar
on everything else.
"""

from __future__ import annotations

import numpy as np

from repro.core import banner, format_table
from repro.scc.mcqueue import CoreWorkload, simulate_controller
from repro.scc.params import MC_BANDWIDTH_BYTES_PER_SEC_AT_800
from repro.sparse.fastpath import equilibrium_line_times

CAPACITY = MC_BANDWIDTH_BYTES_PER_SEC_AT_800 / 32  # lines/sec at conf0

#: (label, cores on the controller, compute seconds, lines each)
SCENARIOS = [
    ("1 core, light", 1, 0.010, 50_000),
    ("4 cores, mild", 4, 0.010, 50_000),
    ("12 cores, mild", 12, 0.010, 50_000),
    ("12 cores, heavy", 12, 0.002, 120_000),
    ("12 cores, memory-only", 12, 0.0005, 150_000),
]

LATENCY = 132.5e-9  # Eq. 1 at conf0, 0 hops


def mcqueue_data():
    rows = []
    for label, n, compute, lines in SCENARIOS:
        wl = CoreWorkload(compute_time=compute, n_lines=lines, latency=LATENCY)
        event = max(simulate_controller([wl] * n, CAPACITY))
        line_time = equilibrium_line_times(
            np.full(n, compute), np.full(n, float(lines)), np.full(n, LATENCY),
            np.zeros(n, dtype=np.int64), [CAPACITY],
        )
        closed = compute + lines * float(line_time[0])
        rows.append(
            {
                "scenario": label,
                "event-driven ms": event * 1e3,
                "closed-form ms": closed * 1e3,
                "error %": 100 * abs(closed - event) / event,
            }
        )
    return rows


def test_ablation_mcqueue_agreement(benchmark, capsys):
    rows = benchmark.pedantic(mcqueue_data, rounds=1, iterations=1)
    with capsys.disabled():
        print(banner("Ablation A3: closed-form MC equilibrium vs event-driven queue"))
        print(
            format_table(
                rows,
                ["scenario", "event-driven ms", "closed-form ms", "error %"],
                caption="per-controller makespan at conf0 capacity",
                floatfmt=".2f",
            )
        )
    for r in rows:
        assert r["error %"] < 10.0, f"{r['scenario']}: closed form diverged"
