"""One repetition of a benchmark workload, run in a fresh child process.

``python3 perfbench/workloads.py '<task json>'`` runs the repetition the
task names and prints its result as one JSON object on the last line of
standard output.  The parent (``perfbench/run.py``) gives every child
its own ``REPRO_CACHE_DIR`` and puts ``src/`` on ``PYTHONPATH``; the
child only calls the program's public API:

* ``sweep``  — :func:`repro.core.figures.fig5_data` and ``fig9_data`` over
  one figure grid (the ``sweep-cold`` / ``sweep-warm`` workloads);
* ``exact``  — :meth:`SpMVExperiment.run` in ``mode="model"`` against
  ``mode="exact-trace"`` (the ``exact-validate`` workload);
* ``serve``  — a closed-loop client (:class:`repro.serve.client.ServeClient`)
  against a ``repro serve`` it starts and stops itself (``serve-mixed``).

Correctness checks run after the timed region, with tracing off, and
are counted per checked point in ``checked`` / ``failures``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: figure grid shaped like Fig. 5 x Fig. 9: both mappings at every Fig. 5
#: count, the three frequency presets at every Fig. 9 count.  Matrices
#: span the working-set regimes: streaming at low core counts (7, 14),
#: L2-resident (23) and short-row irregular (24, 25, 27, 30, 31).
SWEEP = {
    "scale": 0.1,
    "ids": [7, 14, 23, 24, 25, 27, 30, 31],
    "fig5_counts": [1, 2, 4, 8, 16, 24, 32, 48],
    "fig9_counts": [8, 16, 24, 32, 48],
    "sim_checks": 4,
}

#: model against exact replay on the Fig. 8 matrices plus sparsine.
EXACT = {
    "scale": 0.1,
    "ids": [14, 24, 25, 27, 30, 31],
    "counts": [1, 8, 24, 48],
    "oracle_rows": 48,
    "oracle_iterations": 2,
}

#: served job mix: every round submits ``misses`` new one-point jobs and
#: ``hits`` resubmits of earlier jobs, interleaved by the seed.
SERVE = {
    "scale": 0.25,
    "ids": [14, 24, 25, 27, 30, 31],
    "counts": list(range(1, 49)),
    "configs": ["conf0", "conf1", "conf2"],
    "mappings": ["standard", "distance_reduction"],
    "misses": 16,
    "hits": 16,
    "workers": 2,
    "poll_s": 0.002,
    "setup_starts": 3,
}

#: fixed shuffle of the serve point pool, so round k holds the same
#: points on every seed (the seed orders them and places the hits).
SERVE_POOL_SEED = 20120521


def canonical_digest(obj: Any) -> str:
    """sha256 of canonical JSON; floats keep every digit (``repr``)."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def result_summary(r: Any) -> List[Any]:
    """The simulated outputs a digest covers: makespan, MFLOPS, misses."""
    return [r.n_cores, r.config_name, r.mapping, r.makespan, r.mflops,
            float(sum(c.mem_lines for c in r.per_core))]


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


#: what :func:`reference_s` takes on the quiet 2-vCPU host the benchmark
#: was sized on; calibrated times are host seconds at that speed.
REFERENCE_NOMINAL_S = 0.05


def reference_s() -> float:
    """Seconds this process takes for a fixed NumPy + Python kernel.

    The kernel (stable argsort, cumsum, an interpreted loop) mixes the
    operations the model's hot layers spend their time in, and none of
    the program's code, so a change to the program cannot move it.  Run
    beside a timed region, it measures how fast the shared host is at
    that moment: ``wall * REFERENCE_NOMINAL_S / reference`` removes the
    host's drift, which on a shared VM moves every time by 20% or more
    within minutes.
    """
    a = np.random.default_rng(0).integers(0, 1 << 20, 100_000)
    t0 = time.perf_counter()
    for _ in range(3):
        np.cumsum(a[np.argsort(a, kind="stable")])
        s = 0
        for i in range(30_000):
            s += i
    return time.perf_counter() - t0


# -- sweep ---------------------------------------------------------------


def sweep_points(p: Dict[str, Any]) -> List[Tuple[int, str, int, str]]:
    """Every point of the grid as (matrix id, figure, cores, mapping/config)."""
    pts = []
    for mid in p["ids"]:
        for n in p["fig5_counts"]:
            for mapping in ("standard", "distance_reduction"):
                pts.append((mid, "fig5", n, mapping))
        for cfg in ("conf0", "conf1", "conf2"):
            for n in p["fig9_counts"]:
                pts.append((mid, "fig9", n, cfg))
    return pts


def run_sweep(task: Dict[str, Any], recorder: Any) -> Dict[str, Any]:
    from repro.core import figures

    p = task["params"]
    if recorder is not None:
        recorder.active = True
    exps = figures.suite_experiments(scale=p["scale"], ids=p["ids"])
    ready = time.monotonic()
    ref = reference_s()
    t0 = time.perf_counter()
    std, dr = figures.fig5_data(exps, core_counts=p["fig5_counts"])
    f9 = figures.fig9_data(exps, core_counts=p["fig9_counts"])
    wall = time.perf_counter() - t0
    if recorder is not None:
        recorder.active = False
    ref = (ref + reference_s()) / 2
    rss = peak_rss_mb()
    digest = canonical_digest(
        {
            "fig5": [std, dr],
            "fig9": {
                cfg: {str(n): [result_summary(r) for r in rs] for n, rs in by_n.items()}
                for cfg, by_n in f9.items()
            },
        }
    )
    out = {
        "setup_s": ready - task["spawned"],
        "wall_s": wall,
        "reference_s": ref,
        "peak_rss_mb": rss,
        "points": len(sweep_points(p)),
        "digest": digest,
        "checked": 0,
        "failures": [],
    }
    if task.get("checks"):
        checked, failures = check_sweep(exps, f9, p, task["seed"])
        out["checked"], out["failures"] = checked, failures
    return out


def check_sweep(exps, f9, p: Dict[str, Any], seed: int) -> Tuple[int, List[str]]:
    """model == sim on seed-chosen points, and one verified product."""
    rng = random.Random(seed)
    by_mid = dict(exps)
    presets = exps[0][1].machine.presets
    failures: List[str] = []
    checked = 0
    for mid, fig, n, which in rng.sample(sweep_points(p), p["sim_checks"]):
        exp = by_mid[mid]
        if fig == "fig5":
            kw = dict(n_cores=n, mapping=which)
            model = exp.run(mode="model", **kw)
        else:
            kw = dict(n_cores=n, config=presets[which])
            model = f9[which][n][[m for m, _ in exps].index(mid)]
        sim = exp.run(mode="sim", **kw)
        checked += 1
        if rel_diff(model.makespan, sim.makespan) > 1e-9:
            failures.append(f"{fig} id {mid} n {n} {which}: model {model.makespan!r} != sim {sim.makespan!r}")
    mid, exp = exps[rng.randrange(len(exps))]
    n = rng.choice(p["fig5_counts"])
    x = np.random.default_rng(seed).standard_normal(exp.a.n_cols)
    y = exp.run(n_cores=n, mode="model", verify=True, x=x).y
    a = exp.a.to_scipy()
    # 1e-9 relative, as the repository's verify tests, but of each row's
    # absolute sum |a| @ |x|: summation order differs from scipy, and a
    # row whose terms cancel must not turn rounding into a failure.
    tol = 1e-9 * (abs(a) @ np.abs(x))
    checked += 1
    if y is None or np.any(np.abs(y - a @ x) > tol):
        failures.append(f"verify id {mid} n {n}: y != a @ x")
    return checked, failures


# -- exact-validate ------------------------------------------------------


def run_exact(task: Dict[str, Any], recorder: Any) -> Dict[str, Any]:
    from repro.core import figures

    p = task["params"]
    if recorder is not None:
        recorder.active = True
    exps = figures.suite_experiments(scale=p["scale"], ids=p["ids"])
    ready = time.monotonic()
    ref = reference_s()
    t0 = time.perf_counter()
    pairs = []
    for mid, exp in exps:
        for n in p["counts"]:
            pairs.append((mid, exp, exp.run(n_cores=n, mode="model"), exp.run(n_cores=n, mode="exact-trace")))
    wall = time.perf_counter() - t0
    if recorder is not None:
        recorder.active = False
    ref = (ref + reference_s()) / 2
    rss = peak_rss_mb()
    mflops_err, miss_err, rows = [], [], []
    for mid, exp, model, exact in pairs:
        accesses = (3 * exp.a.n_rows + 3 * exp.a.nnz) * model.iterations
        m_miss = sum(c.mem_lines for c in model.per_core)
        x_miss = sum(c.mem_lines for c in exact.per_core)
        mflops_err.append(100.0 * rel_diff(model.mflops, exact.mflops))
        miss_err.append(100.0 * abs(m_miss - x_miss) / accesses)
        rows.append([mid, result_summary(model), result_summary(exact)])
    out = {
        "setup_s": ready - task["spawned"],
        "wall_s": wall,
        "reference_s": ref,
        "peak_rss_mb": rss,
        "points": 2 * len(pairs),
        "digest": canonical_digest(rows),
        "fidelity": {
            "miss_err_pp_max": max(miss_err),
            "mflops_err_pct_max": max(mflops_err),
            "mflops_err_pct_mean": sum(mflops_err) / len(mflops_err),
        },
        "checked": 0,
        "failures": [],
    }
    if task.get("checks"):
        checked, failures = check_replay(exps, p, task["seed"])
        out["checked"], out["failures"] = checked, failures
    return out


def check_replay(exps, p: Dict[str, Any], seed: int) -> Tuple[int, List[str]]:
    """Vectorized replay is bitwise-equal to the scalar oracle on a slice."""
    from repro.scc.tracegen import replay_trace

    rng = random.Random(seed)
    mid, exp = exps[rng.randrange(len(exps))]
    rows = min(p["oracle_rows"], exp.a.n_rows)
    r0 = rng.randrange(exp.a.n_rows - rows + 1)
    kw = dict(iterations=p["oracle_iterations"], use_disk_cache=False)
    vec = replay_trace(exp.a, r0, r0 + rows, engine="vectorized", **kw)
    ref = replay_trace(exp.a, r0, r0 + rows, engine="scalar", **kw)
    if vec != ref:
        return 1, [f"replay id {mid} rows {r0}:{r0 + rows}: vectorized {vec} != scalar {ref}"]
    return 1, []


# -- serve-mixed ---------------------------------------------------------


def serve_pool(p: Dict[str, Any]) -> List[Tuple[int, int, str, str]]:
    """Every distinct one-point job, in the fixed pool order."""
    pool = [
        (mid, n, cfg, mapping)
        for mid in p["ids"]
        for n in p["counts"]
        for cfg in p["configs"]
        for mapping in p["mappings"]
    ]
    random.Random(SERVE_POOL_SEED).shuffle(pool)
    return pool


def round_schedule(rng: random.Random, new: Sequence[int], hits: int) -> List[Tuple[str, int]]:
    """Seeded interleave of ``new`` pool indices and ``hits`` resubmits.

    A resubmit names no job yet; it picks among jobs submitted earlier
    when it runs.  The round never starts with a resubmit, so the first
    round always has something to resubmit.
    """
    order = list(new)
    rng.shuffle(order)
    kinds = ["miss"] * len(order) + ["hit"] * hits
    rng.shuffle(kinds)
    if kinds[0] == "hit":
        first_miss = kinds.index("miss")
        kinds[0], kinds[first_miss] = "miss", "hit"
    it = iter(order)
    return [(k, next(it) if k == "miss" else -1) for k in kinds]


def _spec(point: Tuple[int, int, str, str], p: Dict[str, Any]):
    from repro.serve.protocol import CampaignSpec

    mid, n, cfg, mapping = point
    return CampaignSpec(ids=(mid,), core_counts=(n,), configs=(cfg,), mappings=(mapping,),
                        scale=p["scale"], mode="model")


class Server:
    """A ``repro serve`` child on an ephemeral port, reaped on stop."""

    def __init__(self, data_dir: str, workers: int) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", str(workers),
             "--port", "0", "--data-dir", data_dir],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]

    def wait_ready(self, client: Any, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``healthz`` answers."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if client.healthz().get("ok"):
                    return time.monotonic() - self.spawned
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("repro serve never answered healthz")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGTERM (the server joins its workers), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, int(np.ceil(q / 100.0 * len(s))) - 1))]


def run_serve(task: Dict[str, Any], recorder: Any) -> Dict[str, Any]:
    from repro.serve.client import ServeClient

    p = task["params"]
    work = task["work_dir"]
    setup = []
    for k in range(p["setup_starts"] - 1):
        s = Server(os.path.join(work, f"serve-setup-{k}"), p["workers"])
        try:
            setup.append(s.wait_ready(ServeClient(s.url)))
        finally:
            s.stop()
    server = Server(os.path.join(work, "serve-data"), p["workers"])
    try:
        client = ServeClient(server.url)
        setup.append(server.wait_ready(client))
        out = serve_rounds(client, task, recorder)
        out["metrics"] = client.metrics()
    finally:
        server.stop()
    out["setup_s"] = float(np.median(setup))
    # the servers and their workers are waited-for descendants by now
    out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    records = out.pop("records")
    out["checked"], out["failures"] = (
        check_served(records, out["metrics"], p) if task.get("checks") else (0, [])
    )
    return out


def serve_rounds(client: Any, task: Dict[str, Any], recorder: Any) -> Dict[str, Any]:
    """Closed loop: one job in flight, rounds until ``seconds`` elapse."""
    p = task["params"]
    rng = random.Random(task["seed"])
    pool = serve_pool(p)
    m, h = p["misses"], p["hits"]
    jobs: List[int] = []  # pool index of every miss job so far
    records: Dict[int, List[dict]] = {}
    lat = {"hit": [], "miss": []}
    hit_records: List[Tuple[int, List[dict]]] = []
    rounds = []
    deadline = time.monotonic() + task["seconds"]
    r = 0
    ref = reference_s()
    # a traced run alternates untraced and traced rounds
    min_rounds = 1 if recorder is None else 2
    while r < min_rounds or time.monotonic() < deadline:
        if (r + 1) * m > len(pool):
            break
        if recorder is not None:
            recorder.active = r % 2 == 1
        sched = round_schedule(rng, range(r * m, (r + 1) * m), h)
        t_round = time.perf_counter()
        for kind, idx in sched:
            if kind == "hit":
                idx = jobs[rng.randrange(len(jobs))]
            t0 = time.perf_counter()
            job = client.submit(_spec(pool[idx], p))
            body = client.wait(job["job_id"], timeout=120.0, poll_s=p["poll_s"])
            lat[kind].append(time.perf_counter() - t0)
            if kind == "miss":
                jobs.append(idx)
                records[idx] = body["records"]
            else:
                hit_records.append((idx, body["records"]))
        wall = time.perf_counter() - t_round
        active = recorder is not None and recorder.active
        if recorder is not None:
            recorder.active = False
        ref_after = reference_s()
        rounds.append({"wall_s": wall, "reference_s": (ref + ref_after) / 2,
                       "points": len(sched), "traced": active})
        ref = ref_after
        r += 1
    return {
        "rounds": rounds,
        "latency": lat,
        "records": {"miss": {str(k): v for k, v in records.items()},
                    "hit": [[k, v] for k, v in hit_records]},
        "digest": canonical_digest([records[i] for i in range(m)]),
        "misses": len(lat["miss"]),
        "hits": len(lat["hit"]),
    }


def check_served(records: Dict[str, Any], metrics: Dict[str, Any], p: Dict[str, Any]) -> Tuple[int, List[str]]:
    """Served records equal serial in-process runs; resubmits never simulate."""
    pool = serve_pool(p)
    expected = expected_records([pool[int(k)] for k in records["miss"]], p)
    checked, failures = 0, []
    for (k, got), want in zip(records["miss"].items(), expected):
        checked += 1
        failures += compare_records(got, [want], f"miss {pool[int(k)]}")
    by_idx = dict(zip(records["miss"], expected))
    for k, got in records["hit"]:
        checked += 1
        failures += compare_records(got, [by_idx[str(k)]], f"hit {pool[k]}")
    sims = metrics.get("serve", {}).get("simulations")
    if sims != len(records["miss"]):
        failures.append(f"serve.simulations {sims} != {len(records['miss'])} distinct new points")
    return checked, failures


def expected_records(points: Sequence[Tuple[int, int, str, str]], p: Dict[str, Any]) -> List[dict]:
    """The record a serial ``SpMVExperiment.run`` gives each point."""
    from repro.core.experiment import SpMVExperiment
    from repro.sparse.suite import build_matrix, entry_by_id

    exps: Dict[int, Any] = {}
    out = []
    for mid, n, cfg, mapping in points:
        exp = exps.get(mid)
        if exp is None:
            exp = exps[mid] = SpMVExperiment(build_matrix(mid, scale=p["scale"]), name=entry_by_id(mid).name)
        rec = exp.run(n_cores=n, config=exp.machine.presets[cfg], mapping=mapping, mode="model").to_record()
        rec["scale"] = p["scale"]
        out.append(rec)
    return out


def compare_records(got: List[dict], want: List[dict], label: str) -> List[str]:
    """One failure message per record that differs from the expected one."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} records, expected {len(want)}"]
    return [
        f"{label}: served {json.dumps(g, sort_keys=True)} != serial {json.dumps(w, sort_keys=True)}"
        for g, w in zip(got, want)
        if canonical_digest(g) != canonical_digest(w)
    ]


RUNNERS = {"sweep": run_sweep, "exact": run_exact, "serve": run_serve}


def main(argv: Sequence[str]) -> int:
    task = json.loads(argv[0])
    recorder = None
    if task.get("traced"):
        import tracing

        recorder = tracing.SpanRecorder(task["run_id"])
        if task["kind"] == "serve":
            tracing.install_client(recorder)
        else:
            tracing.install(recorder)
    out = RUNNERS[task["kind"]](task, recorder)
    if recorder is not None:
        recorder.dump(task["spans_path"])
        out["spans_path"] = task["spans_path"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
