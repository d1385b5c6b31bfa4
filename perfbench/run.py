"""Repository benchmark: figure sweeps, exact-trace fidelity and a served job mix.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each one exists):

* ``sweep-cold``     Fig. 5 x Fig. 9 model grid, empty content store;
* ``sweep-warm``     the same grid against a store an untimed pass filled;
* ``exact-validate`` ``mode="model"`` against ``mode="exact-trace"``;
* ``serve-mixed``    ``repro serve --workers 2``, one closed-loop client
  submitting new points (misses) and resubmits (hits).

Every repetition runs in a fresh child process (``perfbench/workloads.py``)
with its own ``REPRO_CACHE_DIR`` under ``.perfbench-work/`` in the current
directory; nothing outside it is read or written.  A run repeats its
workload until ``--seconds`` have passed and reports medians over the
repetitions.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics, the tracing overhead and the largest self-time layer.  Every
metric is printed as ``metric <name> <value> <unit>``; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "sweep-cold": ("sweep", workloads.SWEEP),
    "sweep-warm": ("sweep", workloads.SWEEP),
    "exact-validate": ("exact", workloads.EXACT),
    "serve-mixed": ("serve", workloads.SERVE),
}

#: a run must end within this many seconds of its start.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A repetition could not produce a result."""


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class Runner:
    """One benchmark run: its work directory, children and deadline."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool,
                 params: Optional[Dict[str, Any]] = None) -> None:
        self.root = root
        self.workload = workload
        self.kind, default = WORKLOADS[workload]
        self.params = dict(default, **(params or {}))
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.work = root / ".perfbench-work" / f"{workload}-seed{seed}-{os.getpid()}"
        self.spans_dir = root / ".perfbench-work" / "spans"

    # -- children --------------------------------------------------------

    def env(self, cache_dir: Path) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["TMPDIR"] = str(self.work / "tmp")
        return env

    def child(self, argv: List[str], cache_dir: Path) -> str:
        """Run one child to completion in its own process group; its stdout."""
        timeout = self.started + RUN_BUDGET_S - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env(cache_dir),
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child timed out: {argv[:3]}") from None
        finally:
            reap_group(proc.pid)
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {argv[:3]}")
        return out

    def repetition(self, index: int, cache_dir: Path, traced: bool, checks: bool) -> Dict[str, Any]:
        run_id = f"{self.workload}-seed{self.seed}-rep{index}"
        task = {
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "seconds": self.seconds,
            "checks": checks,
            "traced": traced,
            "run_id": run_id,
            "spans_path": str(self.spans_dir / f"{run_id}.jsonl"),
            "work_dir": str(self.work),
            "spawned": time.monotonic(),
        }
        out = self.child([sys.executable, str(HERE / "workloads.py"), json.dumps(task)], cache_dir)
        res = json.loads(out.strip().splitlines()[-1])
        res["traced"] = traced
        return res

    # -- workloads -------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        try:
            # untimed: byte-compiles the program once and warms the page cache
            self.child([sys.executable, "-c", "import repro.core.figures, repro.serve.server"],
                       self.work / "prime-cache")
            if self.kind == "serve":
                return self.run_serve()
            return self.run_batch()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def run_batch(self) -> Dict[str, Any]:
        warm = self.workload == "sweep-warm"
        if warm:
            fill = self.work / "cache-warm"
            self.repetition(-1, fill, traced=False, checks=False)
        reps: List[Dict[str, Any]] = []
        deadline = self.started + self.seconds
        while not reps or time.monotonic() < deadline or (self.trace and len(reps) < 2):
            i = len(reps)
            cache = fill if warm else self.work / f"cache-{i}"
            reps.append(self.repetition(i, cache, traced=self.trace and i % 2 == 1, checks=i == 0))
            if not warm:
                shutil.rmtree(cache, ignore_errors=True)
        plain = [r for r in reps if not r["traced"]]
        summary = dict(
            timings(reps),
            setup_s=median([r["setup_s"] for r in plain]),
            peak_rss_mb=median([r["peak_rss_mb"] for r in plain]),
            digest=reps[0]["digest"],
            attempted=sum(r["points"] + r["checked"] for r in reps),
            failures=[f for r in reps for f in r["failures"]],
            fidelity=reps[0].get("fidelity", {}),
        )
        for r in reps[1:]:
            if r["digest"] != summary["digest"]:
                summary["failures"].append(f"rep digest {r['digest']} != {summary['digest']}")
        traced = [r for r in reps if r["traced"]]
        if traced:
            summary["layers"] = layer_summary(traced)
        return summary

    def run_serve(self) -> Dict[str, Any]:
        res = self.repetition(0, self.work / "cache-serve", traced=self.trace, checks=True)
        lat = res["latency"]
        serve, sup = res["metrics"].get("serve", {}), res["metrics"].get("supervise", {})
        summary = dict(
            timings(res["rounds"]),
            setup_s=res["setup_s"],
            peak_rss_mb=res["peak_rss_mb"],
            digest=res["digest"],
            attempted=res["hits"] + res["misses"],
            failures=res["failures"],
            latency={
                "hit_p50_s": workloads.percentile(lat["hit"], 50),
                "hit_p90_s": workloads.percentile(lat["hit"], 90),
                "miss_p50_s": workloads.percentile(lat["miss"], 50),
                "miss_p90_s": workloads.percentile(lat["miss"], 90),
                "hit_jobs": len(lat["hit"]),
                "miss_jobs": len(lat["miss"]),
            },
            serve={
                "serve.simulations": serve.get("simulations", 0.0),
                "serve.dedup_hits": serve.get("dedup_hits", 0.0),
                "serve.dedup_ratio": tracing.ratio(
                    serve.get("dedup_hits", 0.0), serve.get("points_enqueued", 0.0) + serve.get("dedup_hits", 0.0)
                ),
                "supervise.tasks": sup.get("tasks", 0.0),
                "supervise.retries": sup.get("retries", 0.0),
            },
        )
        if self.trace:
            spans = tracing.load_spans(res["spans_path"])
            summary["layers"] = {
                "metrics": {
                    "serve.submit_s": median(span_durations(spans, tracing.SERVE_SUBMIT)),
                    "serve.wait_s": median(span_durations(spans, tracing.SERVE_WAIT)),
                },
            }
        return summary


def layer_summary(traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-rep layer tables and the median per-layer metrics over them."""
    tables = [tracing.layer_table(tracing.load_spans(r["spans_path"])) for r in traced]
    per_rep = [tracing.layer_metrics(t) for t in tables]
    metrics = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
    return {"tables": tables, "metrics": metrics}


def calibrated_s(rep: Dict[str, Any]) -> float:
    """Host seconds of a repetition at the reference host speed."""
    return rep["wall_s"] * workloads.REFERENCE_NOMINAL_S / rep["reference_s"]


def timings(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median raw and calibrated times of the untraced (and traced) repetitions."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    out = {
        "reps": len(reps),
        "points_per_rep": reps[0]["points"],
        "wall_s": median([r["wall_s"] for r in plain]),
        "jobs_per_s": median([r["points"] / r["wall_s"] for r in plain]),
        "reference_s": median([r["reference_s"] for r in plain]),
        "wall_cal_s": median([calibrated_s(r) for r in plain]),
        "jobs_per_cal_s": median([r["points"] / calibrated_s(r) for r in plain]),
        "wall_s_reps": [r["wall_s"] for r in plain],
    }
    if traced:
        out["traced_wall_s"] = median([r["wall_s"] for r in traced])
        out["tracing_overhead_pct"] = 100.0 * (
            median([calibrated_s(r) for r in traced]) / out["wall_cal_s"] - 1.0
        )
    return out


def span_durations(spans: List[dict], name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def reap_group(pgid: int) -> None:
    """Kill whatever is left in a child's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


# -- reporting -----------------------------------------------------------


def metric_values(summary: Dict[str, Any], names: List[str], trace: bool) -> Dict[str, float]:
    """Every declared metric's value for this run."""
    if not trace:
        return {n: float(summary[n]) for n in names}
    values: Dict[str, float] = {}
    layers = summary.get("layers", {}).get("metrics", {})
    for n in names:
        if n in layers:
            values[n] = layers[n]
        elif n in summary.get("serve", {}):
            values[n] = summary["serve"][n]
        elif n.startswith("serve.") and n[len("serve."):] in summary.get("latency", {}):
            values[n] = summary["latency"][n[len("serve."):]]
        elif n.startswith("model.") and n[len("model."):] in summary.get("fidelity", {}):
            values[n] = summary["fidelity"][n[len("model."):]]
        elif n in ("tracing_overhead_pct", "traced_wall_s"):
            values[n] = summary[n]
        elif n == "untraced_wall_s":
            values[n] = summary["wall_s"]
        else:
            values[n] = 0.0
    return {k: float(v) for k, v in values.items()}


def report(runner: Runner, summary: Dict[str, Any], spec: Dict[str, Any], out=sys.stdout) -> Dict[str, Any]:
    """Print every metric line and return the final result object."""
    import numpy

    section = "per_layer" if runner.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    values = metric_values(summary, list(units), runner.trace)
    print(
        f"perfbench workload={runner.workload} seed={runner.seed} seconds={runner.seconds} "
        f"trace={int(runner.trace)} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scale={runner.params['scale']} "
        f"points_per_rep={summary['points_per_rep']} reps={summary['reps']}",
        file=out,
    )
    for name, unit in units.items():
        print(f"metric {name} {values[name]!r} {unit}", file=out)
    failed = len(summary["failures"])
    attempted = max(1, summary["attempted"])
    print(f"info error_rate {failed / attempted!r} 1", file=out)
    for key, val in summary.get("latency", {}).items():
        print(f"info {key} {val!r} {'count' if key.endswith('_jobs') else 's'}", file=out)
    for key, val in summary.get("fidelity", {}).items():
        print(f"info {key} {val!r} {'pp' if '_pp_' in key else '%'}", file=out)
    if "layers" in summary:
        if runner.kind != "serve":
            names = [tracing.largest_self_layer(t) for t in summary["layers"]["tables"]]
            top = max(set(names), key=names.count)
            print(f"info largest_self_layer {top} in {names.count(top)} of {len(names)} traced reps",
                  file=out)
    for key, unit in (("wall_s", "s"), ("jobs_per_s", "1/s"), ("reference_s", "s")):
        print(f"info {key} {summary[key]!r} {unit}", file=out)
    reps = " ".join(f"{w:.4f}" for w in summary["wall_s_reps"])
    print(f"info wall_s_reps [{reps}] s", file=out)
    print(f"info digest {summary['digest']}", file=out)
    for f in summary["failures"][:20]:
        print(f"FAIL {f}", file=out)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root (needs src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    runner = Runner(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        summary = runner.run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(runner, summary, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
