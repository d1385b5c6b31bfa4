"""In-memory span recording around the program's layer boundaries.

The benchmark installs these wrappers in its own child processes, at
the attribute each caller looks the layer up through, so the program
itself carries no tracing code.  A span is ``(name, start, end, parent,
run id, attrs)``; spans stay in memory until :meth:`SpanRecorder.dump`
writes them out as JSON lines at the end of a repetition.  Per-layer
numbers are derived from the spans alone (:func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

# Span names: the public module path of each layer.  The program is only
# imported inside install(), so importing this file imports none of it.
MISS_RATIO_CURVE = "scc.locality.miss_ratio_curve"
CHARACTERIZE = "core.trace.characterize_partition"
BUILD_MATRIX = "sparse.suite.build_matrix"
STORE_GET = "store.ContentStore.get"
STORE_PUT = "store.ContentStore.put"
REPLAY = "scc.tracegen.replay_trace"
BATCH_SUMMARIES = "sparse.fastpath.batch_access_summaries"
SOLVE_BATCHED = "core.timing.solve_core_times_batched"
BARRIER = "core.timing.barrier_exit_times"
PARTITION = "core.experiment.SpMVExperiment.partition"
EXPERIMENT_RUN = "core.experiment.SpMVExperiment.run"
SERVE_SUBMIT = "serve.client.ServeClient.submit"
SERVE_WAIT = "serve.client.ServeClient.wait"

#: layers whose self time competes for "largest self-time layer".
MODEL_LAYERS = (
    MISS_RATIO_CURVE,
    CHARACTERIZE,
    BUILD_MATRIX,
    STORE_GET,
    STORE_PUT,
    REPLAY,
    BATCH_SUMMARIES,
    SOLVE_BATCHED,
    BARRIER,
    PARTITION,
    EXPERIMENT_RUN,
)


class SpanRecorder:
    """Records nested spans of one single-threaded repetition."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable[[tuple, dict, Any], Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call while the recorder is active."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent, self.run_id, {}]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, run, attrs)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def _store_bytes(store: Any, key: str, ext: str) -> int:
    try:
        return os.path.getsize(store.path_for(key, ext))
    except OSError:
        return 0


def install(recorder: SpanRecorder) -> None:
    """Patch every model-side layer boundary to record into ``recorder``."""
    import repro.core.experiment as experiment
    import repro.core.figures as figures
    import repro.core.trace as trace
    import repro.scc.tracegen as tracegen
    from repro.store import ContentStore

    w = recorder.wrap
    trace.miss_ratio_curve = w(
        MISS_RATIO_CURVE,
        trace.miss_ratio_curve,
        lambda a, k, out: {"accesses": float(len(a[0]))},
    )
    experiment.characterize_partition = w(
        CHARACTERIZE,
        experiment.characterize_partition,
        lambda a, k, out: {"nnz": float(a[0].nnz)},
    )
    figures.build_matrix = w(BUILD_MATRIX, figures.build_matrix)
    tracegen.replay_trace = w(
        REPLAY, tracegen.replay_trace, lambda a, k, out: {"accesses": float(out.accesses)}
    )
    for attr, name in (
        ("batch_access_summaries", BATCH_SUMMARIES),
        ("solve_core_times_batched", SOLVE_BATCHED),
        ("barrier_exit_times", BARRIER),
    ):
        setattr(experiment, attr, w(name, getattr(experiment, attr)))
    cls = experiment.SpMVExperiment
    cls.partition = w(PARTITION, cls.partition)
    cls.run = w(EXPERIMENT_RUN, cls.run)

    def get_attrs(ext: str):
        return lambda a, k, out: {
            "hit": float(out is not None),
            "bytes": float(_store_bytes(a[0], a[1], ext)) if out is not None else 0.0,
        }

    def put_attrs(ext: str):
        return lambda a, k, out: {"bytes": float(_store_bytes(a[0], a[1], ext))}

    ContentStore.get_json = w(STORE_GET, ContentStore.get_json, get_attrs("json"))
    ContentStore.get_arrays = w(STORE_GET, ContentStore.get_arrays, get_attrs("npz"))
    ContentStore.put_json = w(STORE_PUT, ContentStore.put_json, put_attrs("json"))
    ContentStore.put_arrays = w(STORE_PUT, ContentStore.put_arrays, put_attrs("npz"))


def install_client(recorder: SpanRecorder) -> None:
    """Patch the serve client's submit and wait calls."""
    from repro.serve.client import ServeClient

    ServeClient.submit = recorder.wrap(SERVE_SUBMIT, ServeClient.submit)
    ServeClient.wait = recorder.wrap(SERVE_WAIT, ServeClient.wait)


def load_spans(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_table(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive time, self time and summed attrs."""
    table: Dict[str, Dict[str, float]] = {}
    for s, self_s in zip(spans, _self_times(spans)):
        row = table.setdefault(s["name"], {"calls": 0.0, "time_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["time_s"] += s["end"] - s["start"]
        row["self_s"] += self_s
        for k, v in s["attrs"].items():
            row[k] = row.get(k, 0.0) + v
    # build_matrix calls that reached the store, and how many of those hit.
    reads = hits = 0
    for s in spans:
        if s["name"] == STORE_GET and s["parent"] >= 0 and spans[s["parent"]]["name"] == BUILD_MATRIX:
            reads += 1
            hits += int(s["attrs"].get("hit", 0))
    if BUILD_MATRIX in table:
        table[BUILD_MATRIX]["store_reads"] = float(reads)
        table[BUILD_MATRIX]["store_hits"] = float(hits)
    return table


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer metric values of one traced repetition."""
    row = lambda name: table.get(name, {})  # noqa: E731
    mrc, char, build = row(MISS_RATIO_CURVE), row(CHARACTERIZE), row(BUILD_MATRIX)
    get, put, replay = row(STORE_GET), row(STORE_PUT), row(REPLAY)
    out = {
        "miss_ratio_curve.calls": mrc.get("calls", 0.0),
        "miss_ratio_curve.self_s": mrc.get("self_s", 0.0),
        "miss_ratio_curve.ns_per_access": 1e9 * ratio(mrc.get("self_s", 0.0), mrc.get("accesses", 0.0)),
        "characterize_partition.calls": char.get("calls", 0.0),
        "characterize_partition.self_s": char.get("self_s", 0.0),
        "characterize_partition.nnz": char.get("nnz", 0.0),
        "build_matrix.calls": build.get("calls", 0.0),
        "build_matrix.time_s": build.get("time_s", 0.0),
        "build_matrix.store_hit_ratio": ratio(build.get("store_hits", 0.0), build.get("store_reads", 0.0)),
        "store.calls": get.get("calls", 0.0) + put.get("calls", 0.0),
        "store.time_s": get.get("time_s", 0.0) + put.get("time_s", 0.0),
        "store.bytes": get.get("bytes", 0.0) + put.get("bytes", 0.0),
        "store.hit_ratio": ratio(get.get("hit", 0.0), get.get("calls", 0.0)),
        "replay_trace.calls": replay.get("calls", 0.0),
        "replay_trace.time_s": replay.get("time_s", 0.0),
        "replay_trace.accesses": replay.get("accesses", 0.0),
        "replay_trace.accesses_per_s": ratio(replay.get("accesses", 0.0), replay.get("time_s", 0.0)),
        "experiment_run.calls": row(EXPERIMENT_RUN).get("calls", 0.0),
        "experiment_run.self_s": row(EXPERIMENT_RUN).get("self_s", 0.0),
        "partition.calls": row(PARTITION).get("calls", 0.0),
        "partition.time_s": row(PARTITION).get("time_s", 0.0),
    }
    for name, key in (
        (BATCH_SUMMARIES, "batch_access_summaries"),
        (SOLVE_BATCHED, "solve_core_times_batched"),
        (BARRIER, "barrier_exit_times"),
    ):
        out[f"{key}.calls"] = row(name).get("calls", 0.0)
        out[f"{key}.time_s"] = row(name).get("time_s", 0.0)
    return out


def largest_self_layer(table: Dict[str, Dict[str, float]]) -> str:
    """The model layer with the most self time."""
    return max((n for n in MODEL_LAYERS if n in table), key=lambda n: table[n]["self_s"], default="none")
