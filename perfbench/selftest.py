"""Self-test of the benchmark: tiny grids, every metric, a corrupted record.

Run from the repository root (under a minute on two cores)::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` is well formed, runs every workload on
a tiny grid with ``--trace 0`` and ``--trace 1`` and checks that every
declared metric is printed with its unit, and feeds one deliberately
corrupted served record through the serve check to show it is counted
in ``error_rate``.  Exits 1 on the first failure.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]
# the in-process serial runs below must never see the default store
CACHE = ROOT / ".perfbench-work" / f"selftest-cache-{os.getpid()}"
os.environ["REPRO_CACHE_DIR"] = str(CACHE)

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "sweep-cold": {"scale": 0.05, "ids": [24, 30], "fig5_counts": [1, 4], "fig9_counts": [4], "sim_checks": 2},
    "sweep-warm": {"scale": 0.05, "ids": [24, 30], "fig5_counts": [1, 4], "fig9_counts": [4], "sim_checks": 2},
    "exact-validate": {"scale": 0.05, "ids": [30], "counts": [1, 4], "oracle_rows": 16},
    "serve-mixed": {"scale": 0.05, "ids": [30], "counts": [1, 2, 3, 4], "misses": 2, "hits": 2,
                    "setup_starts": 1},
}


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, spec.keys()
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS), names
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            assert NAME.match(m["name"]) and m["name"] not in seen, m
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
            seen.add(m["name"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def check_run(spec: dict, workload: str, trace: bool) -> None:
    runner = run.Runner(ROOT, workload, seed=7, seconds=1, trace=trace, params=TINY[workload])
    out = io.StringIO()
    result = run.report(runner, runner.run(), spec, out=out)
    section = spec["per_layer" if trace else "end_to_end"]
    lines = out.getvalue().splitlines()
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (workload, m, got)
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}") for line in lines), m
        if not trace:
            assert got["value"] > 0, (workload, m, got)
    assert set(result["metrics"]) == {m["name"] for m in section}
    assert result["correct"] and result["failed"] == 0, (workload, out.getvalue())
    json.dumps(result)
    print(f"ok  {workload} trace={int(trace)} attempted={result['attempted']}")


def check_corrupted_record() -> None:
    p = dict(workloads.SERVE, **TINY["serve-mixed"])
    pool = workloads.serve_pool(p)
    good = workloads.expected_records(pool[:2], p)
    bad = dict(good[1], makespan_s=good[1]["makespan_s"] * (1 + 1e-12))
    records = {"miss": {"0": [good[0]], "1": [bad]}, "hit": [[0, [good[0]]]]}
    checked, failures = workloads.check_served(records, {"serve": {"simulations": 2.0}}, p)
    assert checked == 3 and len(failures) == 1, failures
    rep = {"wall_s": 1.0, "reference_s": 0.05, "points": 3, "traced": False}
    summary = dict(run.timings([rep]), setup_s=1.0, peak_rss_mb=1.0, digest="-",
                   attempted=checked, failures=failures)
    runner = run.Runner(ROOT, "serve-mixed", seed=7, seconds=1, trace=False, params=TINY["serve-mixed"])
    out = io.StringIO()
    result = run.report(runner, summary, json.loads((ROOT / "BENCHMARK.json").read_text()), out=out)
    assert not result["correct"] and result["failed"] == 1, result
    assert f"info error_rate {1 / 3!r} 1" in out.getvalue(), out.getvalue()
    print("ok  corrupted served record counted in error_rate")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok  BENCHMARK.json")
    try:
        check_corrupted_record()
        for workload in TINY:
            for trace in (False, True):
                check_run(spec, workload, trace)
    finally:
        shutil.rmtree(CACHE, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
