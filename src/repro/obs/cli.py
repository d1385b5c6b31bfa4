"""``repro trace`` / ``repro bench`` subcommand implementations.

``trace`` runs one traced SpMV experiment on the model and exports the
event stream — as Chrome/Perfetto ``trace_event`` JSON (load it at
``chrome://tracing`` or https://ui.perfetto.dev), as a terminal
timeline, or as a flat metric summary.  Traces are deterministic: two
runs with the same arguments produce byte-identical exports.

``bench snapshot`` records the model's throughput plus the tracer's
wall-clock overhead to ``BENCH_spmv.json`` so perf regressions in the
observability layer are visible in review; wall-clock numbers are
medians of warmed repeats so the snapshot reports overhead, not noise.
The snapshot also benchmarks the *exact replay* engines — the scalar
cache oracle against the set-parallel vectorized engine
(:mod:`repro.scc.vecreplay`) on a Table-I-scale trace — and records the
speedup plus a bitwise-equality check of their counts.
``bench gate`` re-measures the *simulated* throughput (deterministic,
CI-stable) and fails when it regressed more than ``--max-regression``
against a committed baseline snapshot, when the vectorized replay
speedup falls below ``--min-replay-speedup`` (or stops matching the
scalar oracle bit for bit), when the disabled-tracer path stops
being near-free (``--max-tracer-overhead``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Optional, TextIO

from ..cliutil import add_json_flag, add_output_flag, open_output
from .export import chrome_trace_json, metrics_summary, render_timeline
from .tracer import Tracer

__all__ = [
    "trace_main",
    "bench_main",
    "configure_trace_parser",
    "configure_bench_parser",
    "run_trace",
    "run_bench",
]

EXPORTS = ("chrome", "timeline", "summary")


def configure_trace_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro trace`` arguments to an existing parser."""
    p.add_argument(
        "--export",
        choices=EXPORTS,
        default="chrome",
        help="output form: Chrome trace_event JSON, terminal timeline, "
        "or flat metric summary (default: chrome)",
    )
    p.add_argument(
        "--matrix-id",
        type=int,
        default=24,
        help="Table I matrix id to run (default 24)",
    )
    p.add_argument(
        "--cores", type=int, default=4, help="units of execution (default 4)"
    )
    p.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="matrix-size scale; 1.0 = published UFL sizes (default 0.05)",
    )
    p.add_argument(
        "--iterations", type=int, default=2, help="SpMV repetitions (default 2)"
    )
    p.add_argument(
        "--mapping",
        type=str,
        default="distance_reduction",
        help="UE-to-core mapping policy (default distance_reduction)",
    )
    p.add_argument(
        "--kernel",
        choices=("csr", "no_x_miss"),
        default="csr",
        help="SpMV kernel variant (default csr)",
    )
    p.add_argument(
        "--categories",
        type=str,
        default="",
        help="comma-separated event categories to record (default: all); "
        "e.g. rcce,sim,fault",
    )
    add_json_flag(p)
    add_output_flag(p)


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one traced SpMV experiment and export the trace.",
    )
    configure_trace_parser(p)
    return p


def _traced_run(args: argparse.Namespace, tracer: Optional[Tracer]):
    from ..core.figures import suite_experiment
    from ..machine.base import DEFAULT_MACHINE

    if args.cores < 1:
        raise SystemExit(f"--cores must be >= 1, got {args.cores}")
    if not 0 < args.scale <= 1.0:
        raise SystemExit(f"--scale must be in (0, 1], got {args.scale}")
    if args.iterations < 1:
        raise SystemExit(f"--iterations must be >= 1, got {args.iterations}")
    # Memoized: rebuilding the matrix per timed repeat would swamp the
    # timed region and turn ``tracer_overhead_pct`` into noise.
    try:
        exp = suite_experiment(args.matrix_id, args.scale, DEFAULT_MACHINE)
    except KeyError as exc:
        raise SystemExit(f"repro trace: {exc}") from exc
    result = exp.run(
        n_cores=args.cores,
        mapping=args.mapping,
        kernel=args.kernel,
        iterations=args.iterations,
        tracer=tracer,
        # ``repro trace`` has no --mode: trace events only exist on the
        # event-driven path, so it always runs ``sim``.
        mode=getattr(args, "mode", "sim"),
    )
    return result


def run_trace(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro trace`` from a parsed namespace."""
    cats = [c.strip() for c in args.categories.split(",") if c.strip()] or None
    tracer = Tracer(categories=cats)
    result = _traced_run(args, tracer)
    with open_output(args, out) as stream:
        if args.export == "chrome":
            stream.write(chrome_trace_json(tracer) + "\n")
        elif args.export == "timeline":
            stream.write(render_timeline(tracer) + "\n")
        else:
            summary = {
                "run": result.to_record(),
                "events": len(tracer.events),
                "metrics": metrics_summary(tracer),
            }
            stream.write(
                json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"
            )
    return 0


def trace_main(argv=None, out: Optional[TextIO] = None) -> int:
    """Entry point for ``repro trace``; returns a process exit code."""
    return run_trace(build_trace_parser().parse_args(argv), out=out)


def configure_bench_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro bench`` arguments to an existing parser."""
    p.add_argument(
        "action",
        choices=("snapshot", "gate"),
        help="'snapshot' measures model throughput and tracer overhead; "
        "'gate' compares a fresh measurement against --baseline and "
        "exits non-zero on regression",
    )
    p.add_argument(
        "--matrix-id",
        type=int,
        default=24,
        help="Table I matrix id to benchmark (default 24)",
    )
    p.add_argument(
        "--cores", type=int, default=4, help="units of execution (default 4)"
    )
    p.add_argument(
        "--scale", type=float, default=0.05, help="matrix-size scale (default 0.05)"
    )
    p.add_argument(
        "--iterations", type=int, default=2, help="SpMV repetitions (default 2)"
    )
    p.add_argument(
        "--mapping",
        type=str,
        default="distance_reduction",
        help="UE-to-core mapping policy (default distance_reduction)",
    )
    p.add_argument(
        "--kernel",
        choices=("csr", "no_x_miss"),
        default="csr",
        help="SpMV kernel variant (default csr)",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="wall-clock reps per variant after one untimed warmup; the "
        "median is reported (default 5, min 5 enforced)",
    )
    p.add_argument(
        "--mode",
        choices=("sim", "model"),
        default="model",
        help="timing path to benchmark: the analytic fast path (model, "
        "default) or the event-driven simulator (sim)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep measurement (default 1)",
    )
    p.add_argument(
        "--baseline",
        type=str,
        default="BENCH_spmv.json",
        help="baseline snapshot for 'gate' (default BENCH_spmv.json)",
    )
    p.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="'gate' fails when model throughput drops by more than this "
        "fraction vs the baseline (default 0.30)",
    )
    p.add_argument(
        "--replay-matrix-id",
        type=int,
        default=14,
        help="Table I matrix for the exact-replay benchmark (default 14, "
        "sparsine: the locality worst case)",
    )
    p.add_argument(
        "--replay-scale",
        type=float,
        default=0.25,
        help="matrix-size scale of the replay benchmark (default 0.25, "
        "a >1M-access trace per pass)",
    )
    p.add_argument(
        "--replay-iterations",
        type=int,
        default=16,
        help="SpMV passes replayed by the vectorized engine (default 16)",
    )
    p.add_argument(
        "--min-replay-speedup",
        type=float,
        default=25.0,
        help="'gate' fails when the vectorized replay speedup over the "
        "scalar oracle drops below this, or the engines' counts stop "
        "matching bitwise; 0 skips the check (default 25)",
    )
    p.add_argument(
        "--max-tracer-overhead",
        type=float,
        default=0.75,
        help="'gate' fails when running with a live tracer costs more "
        "than this fraction over the untraced run; guards the "
        "zero-cost disabled path and the deferred metric emission "
        "(PR 10, measured ~20%% on a 50us model point); 0 skips the "
        "check (default 0.75)",
    )
    add_json_flag(p)
    add_output_flag(p)


def build_bench_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark snapshots of the simulator (BENCH_spmv.json).",
    )
    configure_bench_parser(p)
    return p


#: core counts of the snapshot's sweep measurement.
BENCH_SWEEP_COUNTS = (1, 2, 4, 8)


def _time_run(args: argparse.Namespace, traced: bool) -> float:
    """Median-of-N wall-clock seconds of one experiment run.

    One untimed warmup populates every cache (matrix build, partition,
    traces, fast-path schedules) before the timed repeats, and the
    median of at least five repeats is reported — without both, the
    first-run build cost and scheduler noise used to show up as bogus
    tracer overhead in the snapshot.
    """
    repeats = max(5, args.repeats)
    t0 = time.perf_counter()
    _traced_run(args, Tracer() if traced else None)  # warmup, untimed
    warm_s = time.perf_counter() - t0
    # timeit-style batching: sub-millisecond runs are timed in batches
    # so one sample spans >= ~5 ms and scheduler jitter averages out.
    # A fresh tracer per run keeps every batched run's work identical.
    batch = max(1, min(200, int(0.005 / max(warm_s, 1e-6))))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            _traced_run(args, Tracer() if traced else None)
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def _time_sweep(args: argparse.Namespace) -> float:
    """Wall-clock seconds of a core-count sweep sharded over --workers.

    ``--workers 1`` runs the tasks in-process; more workers fan them out
    through the supervised executor under its default policy.
    """
    from ..core.figures import run_suite_batch
    from ..core.supervise import supervised_parallel_map

    tasks = _sweep_tasks(args)

    def sweep() -> None:
        supervised_parallel_map(run_suite_batch, tasks, args.workers)

    sweep()  # warmup
    t0 = time.perf_counter()
    sweep()
    return time.perf_counter() - t0


def _sweep_tasks(args: argparse.Namespace) -> list:
    """The core-count sweep as ``run_suite_batch`` task tuples."""
    from ..sparse.suite import entry_by_id

    name = entry_by_id(args.matrix_id).name
    spec = dict(
        mapping=args.mapping,
        kernel=args.kernel,
        iterations=args.iterations,
        mode=args.mode,
    )
    return [
        (args.matrix_id, args.scale, name, [dict(spec, n_cores=n)])
        for n in BENCH_SWEEP_COUNTS
    ]


def _measure_replay(args: argparse.Namespace) -> dict:
    """Scalar-vs-vectorized exact-replay benchmark (the ``replay`` entry).

    The scalar oracle walks the hierarchy one address per Python
    iteration with no cross-iteration shortcut, so its cost is linear in
    the pass count: one pass is timed and scaled to the vectorized
    engine's iteration count (timing all passes would add minutes
    without changing the ratio).  The vectorized run is timed end to
    end — schedule compilation, set-parallel replay and iteration-cycle
    fast-forward included — with the disk cache off, on a fresh
    hierarchy; the best of three repeats is reported, since the run is
    short enough (sub-second) that transient machine load would
    otherwise dominate the ratio.  ``bitwise_match`` records whether
    both engines produced identical counts for the timed pass.
    """
    from ..scc.tracegen import replay_trace
    from ..sparse.suite import build_matrix, entry_by_id

    try:
        entry = entry_by_id(args.replay_matrix_id)
    except KeyError as exc:
        raise SystemExit(f"repro bench: {exc}") from exc
    if not 0 < args.replay_scale <= 1.0:
        raise SystemExit(
            f"--replay-scale must be in (0, 1], got {args.replay_scale}"
        )
    if args.replay_iterations < 1:
        raise SystemExit(
            f"--replay-iterations must be >= 1, got {args.replay_iterations}"
        )
    a = build_matrix(args.replay_matrix_id, scale=args.replay_scale)
    its = args.replay_iterations
    t0 = time.perf_counter()
    scalar_counts = replay_trace(a, iterations=1, engine="scalar")
    scalar_1iter_s = time.perf_counter() - t0
    vectorized_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        vec_counts = replay_trace(
            a, iterations=its, engine="vectorized", use_disk_cache=False
        )
        vectorized_s = min(vectorized_s, time.perf_counter() - t0)
    vec_1iter = replay_trace(
        a, iterations=1, engine="vectorized", use_disk_cache=False
    )
    scalar_est_s = scalar_1iter_s * its
    return {
        "matrix": entry.name,
        "matrix_id": args.replay_matrix_id,
        "scale": args.replay_scale,
        "iterations": its,
        "accesses_per_pass": 3 * a.n_rows + 3 * a.nnz,
        "bitwise_match": vec_1iter == scalar_counts,
        "wallclock_scalar_1iter_s": scalar_1iter_s,
        "wallclock_scalar_est_s": scalar_est_s,
        "wallclock_vectorized_s": vectorized_s,
        "speedup": scalar_est_s / vectorized_s,
        "l1_hits": vec_counts.l1_hits,
        "l2_hits": vec_counts.l2_hits,
        "mem_misses": vec_counts.mem_misses,
    }


def _measure_machines(args: argparse.Namespace) -> dict:
    """Per-machine analytic-path timings (the ``machines`` entry).

    One model-mode run per registered machine
    (:func:`repro.machine.list_machines`) on the same matrix as the
    main measurement: ``model_mflops``/``model_makespan_s`` are
    deterministic per machine (the gate compares them against the
    baseline), ``wallclock_model_s`` is a warmed median like every
    other wall-clock figure in the snapshot.
    """
    from ..core.figures import suite_experiment
    from ..machine.registry import get_machine, list_machines

    repeats = max(5, args.repeats)
    out = {}
    for machine_id in list_machines():
        machine = get_machine(machine_id)
        exp = suite_experiment(args.matrix_id, args.scale, machine_id)
        spec = dict(
            n_cores=min(args.cores, machine.topology.n_cores),
            mapping=args.mapping,
            kernel=args.kernel,
            iterations=args.iterations,
            mode="model",
        )
        t0 = time.perf_counter()
        result = exp.run(**spec)  # warmup, untimed
        warm_s = time.perf_counter() - t0
        batch = max(1, min(200, int(0.005 / max(warm_s, 1e-6))))
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(batch):
                exp.run(**spec)
            samples.append((time.perf_counter() - t0) / batch)
        out[machine_id] = {
            "n_cores": spec["n_cores"],
            "model_mflops": result.mflops,
            "model_makespan_s": result.makespan,
            "wallclock_model_s": statistics.median(samples),
        }
    return out


def _measure_serve_dedup(args: argparse.Namespace) -> dict:
    """Cold vs dedup-hit latency through the campaign server (the
    ``serve_dedup`` entry).

    An in-process :class:`repro.serve.CampaignServer` on an ephemeral
    port, private store: the same spec is submitted twice over HTTP.
    The first submission simulates every point (cold), the second must
    be answered entirely from the content store — ``repeat_simulations``
    / ``repeat_dedup_hits`` are deterministic (the gate's check), the
    wall-clock speedup is informational like every latency figure here.
    """
    import tempfile

    from ..core.supervise import fork_context
    from ..store import cache_enabled

    if fork_context() is None:  # pragma: no cover - platform-dependent
        return {"skipped": "fork start method unavailable"}
    if not cache_enabled():
        return {"skipped": "disk cache disabled (REPRO_NO_DISK_CACHE)"}

    from ..serve.client import ServeClient
    from ..serve.protocol import CampaignSpec
    from ..serve.server import CampaignServer

    spec = CampaignSpec(
        ids=(args.matrix_id,),
        core_counts=tuple(sorted({1, args.cores})),
        mappings=(args.mapping,),
        kernels=(args.kernel,),
        scale=args.scale,
        iterations=args.iterations,
        mode="model",
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        tmp_path = Path(tmp)
        server = CampaignServer(
            tmp_path / "data", workers=2, store_root=tmp_path / "cache"
        )
        server.start()
        try:
            client = ServeClient(server.url)
            t0 = time.perf_counter()
            cold = client.wait(
                str(client.submit(spec)["job_id"]), timeout=600.0, poll_s=0.01
            )
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            hit = client.wait(
                str(client.submit(spec)["job_id"]), timeout=600.0, poll_s=0.01
            )
            hit_s = time.perf_counter() - t0
        finally:
            server.stop()
    return {
        "points": cold["points"],
        "cold_wallclock_s": cold_s,
        "dedup_wallclock_s": hit_s,
        "dedup_speedup": cold_s / hit_s if hit_s else float("inf"),
        "cold_simulations": cold["simulated"],
        "repeat_simulations": hit["simulated"],
        "repeat_dedup_hits": hit["dedup_hits"],
    }


def _measure_snapshot(args: argparse.Namespace) -> dict:
    """The full ``bench snapshot`` measurement as a dict."""
    result = _traced_run(args, None)
    # Interleaved rounds, independent minima: machine speed drifts on
    # timescales longer than one measurement, so each variant keeps its
    # own fastest window.  The earlier pair-based scheme (fastest
    # untraced pair wins) still let a slow window land on the *traced*
    # half of the winning pair and swing the overhead figure by tens of
    # percentage points on a loaded host; the per-variant minimum of
    # interleaved rounds converges on the true cost of each side.
    _time_run(args, traced=True)  # process-level warmup, untimed
    rounds = [
        (_time_run(args, traced=False), _time_run(args, traced=True))
        for _ in range(5)
    ]
    untraced_s = min(r[0] for r in rounds)
    traced_s = min(r[1] for r in rounds)
    return {
        "benchmark": "spmv_model",
        "matrix": result.matrix_name,
        "n_cores": result.n_cores,
        "iterations": result.iterations,
        "scale": args.scale,
        "mode": args.mode,
        "workers": args.workers,
        "model_makespan_s": result.makespan,
        "model_mflops": result.mflops,
        "wallclock_untraced_s": untraced_s,
        "wallclock_traced_s": traced_s,
        "tracer_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "sweep_core_counts": list(BENCH_SWEEP_COUNTS),
        "sweep_wallclock_s": _time_sweep(args),
        "replay": _measure_replay(args),
        "machines": _measure_machines(args),
        "serve_dedup": _measure_serve_dedup(args),
    }


def _run_gate(args: argparse.Namespace, out: Optional[TextIO]) -> int:
    """``bench gate``: fail on model-throughput regression vs baseline.

    The compared quantity is ``model_mflops`` — *simulated* throughput,
    which is deterministic for fixed arguments — so the gate is immune
    to CI machine noise: it only trips when a model change shifted the
    numbers without the baseline being regenerated in the same commit.

    The replay check is different in kind: the vectorized engine's
    *speedup* is wall-clock (so the threshold is set well below the
    snapshot's measured value) while its *bitwise match* against the
    scalar oracle is deterministic — any mismatch fails the gate
    outright.
    """
    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"repro bench gate: cannot read baseline: {exc}") from exc
    snapshot = _measure_snapshot(args)
    base_mflops = float(baseline.get("model_mflops", 0.0))
    fresh_mflops = snapshot["model_mflops"]
    regression = (base_mflops - fresh_mflops) / base_mflops if base_mflops else 0.0
    replay = snapshot["replay"]
    replay_ok = args.min_replay_speedup <= 0 or (
        replay["bitwise_match"] and replay["speedup"] >= args.min_replay_speedup
    )
    # Per-machine model throughput (deterministic, like model_mflops);
    # skipped for machines the committed baseline predates.
    base_machines = baseline.get("machines", {})
    machine_regressions = {}
    machines_ok = True
    for machine_id, fresh in snapshot["machines"].items():
        base = base_machines.get(machine_id)
        if not base:
            continue
        base_m = float(base.get("model_mflops", 0.0))
        reg = (base_m - fresh["model_mflops"]) / base_m if base_m else 0.0
        machine_regressions[machine_id] = 100.0 * reg
        if reg > args.max_regression:
            machines_ok = False
    # Serve dedup (deterministic, baseline-free): resubmitting the same
    # spec must simulate nothing and answer every point from the store.
    serve = snapshot.get("serve_dedup", {})
    serve_ok = bool(serve.get("skipped")) or (
        serve.get("repeat_simulations") == 0
        and serve.get("repeat_dedup_hits") == serve.get("points")
    )
    # Tracer overhead: wall-clock, so the threshold sits far above the
    # measured figure — it trips on a reintroduced per-core metric hot
    # loop, not on scheduler jitter.
    tracer_ok = (
        args.max_tracer_overhead <= 0
        or snapshot["tracer_overhead_pct"] <= 100.0 * args.max_tracer_overhead
    )
    failed = (
        regression > args.max_regression
        or not replay_ok
        or not machines_ok
        or not serve_ok
        or not tracer_ok
    )
    verdict = {
        "baseline": args.baseline,
        "baseline_mflops": base_mflops,
        "measured_mflops": fresh_mflops,
        "regression_pct": 100.0 * regression,
        "max_regression_pct": 100.0 * args.max_regression,
        "replay_speedup": replay["speedup"],
        "min_replay_speedup": args.min_replay_speedup,
        "replay_bitwise_match": replay["bitwise_match"],
        "machine_regressions_pct": machine_regressions,
        "serve_dedup_ok": serve_ok,
        "serve_repeat_simulations": serve.get("repeat_simulations"),
        "serve_dedup_speedup": serve.get("dedup_speedup"),
        "tracer_overhead_pct": snapshot["tracer_overhead_pct"],
        "max_tracer_overhead_pct": 100.0 * args.max_tracer_overhead,
        "tracer_ok": tracer_ok,
        "status": "fail" if failed else "ok",
        "snapshot": snapshot,
    }
    if not getattr(args, "output", ""):
        args.output = "BENCH_gate.json"
    with open_output(args, out) as stream:
        stream.write(json.dumps(verdict, indent=2, sort_keys=True) + "\n")
    return 1 if verdict["status"] == "fail" else 0


def run_bench(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro bench``; writes the snapshot (or gate verdict) JSON."""
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.action == "gate":
        return _run_gate(args, out)
    snapshot = _measure_snapshot(args)
    if not getattr(args, "output", ""):
        args.output = "BENCH_spmv.json"
    with open_output(args, out) as stream:
        stream.write(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return 0


def bench_main(argv=None, out: Optional[TextIO] = None) -> int:
    """Entry point for ``repro bench``; returns a process exit code."""
    return run_bench(build_bench_parser().parse_args(argv), out=out)
