"""The parallel execution contract: sharding never changes the answers.

Every ``workers > 1`` campaign runs under the supervised executor
(:mod:`repro.core.supervise`), which promises submission-order results
and retry-or-quarantine instead of an aborted sweep;
:class:`~repro.core.campaign.Campaign` builds on that to make a
``workers=N`` run bitwise-identical to the serial one, even when a
worker is killed mid-sweep.  These tests pin each promise, plus the
metrics-merge algebra that makes parallel campaign aggregation exact.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro.core import figures, supervise
from repro.core.campaign import Campaign
from repro.core.figures import fig5_data, suite_experiments
from repro.core.supervise import (
    CHAOS_ENV,
    QuarantinedTaskError,
    SupervisePolicy,
    available_parallelism,
    fork_context,
    supervised_iter_ordered,
    supervised_parallel_map,
)
from repro.obs.metrics import MetricsRegistry, merge_flat_summaries

pytestmark = pytest.mark.skipif(
    fork_context() is None, reason="requires the fork start method"
)

SCALE = 0.05
ITERATIONS = 2
GRID = dict(ids=(24, 30), core_counts=(1, 4), configs=("conf0", "conf1"))


def _campaign(tmp_path, name, **kw):
    kw.setdefault("scale", SCALE)
    kw.setdefault("iterations", ITERATIONS)
    kw.setdefault("mode", "model")
    return Campaign(name, tmp_path, **kw)


def _square(x: int) -> int:
    return x * x


class TestPrimitives:
    """The rule every fan-out follows: the in-process loop at
    ``workers=1``, the supervised executor otherwise — same answers."""

    def test_serial_and_parallel_agree(self):
        items = list(range(7))
        assert [_square(x) for x in items] == supervised_parallel_map(
            _square, items, workers=4
        )

    def test_iter_ordered_yields_item_result_pairs(self):
        # Campaign.run persists each outcome under its item's key
        pairs = [
            (o.item, o.value)
            for o in supervised_iter_ordered(_square, [3, 1, 2], workers=2)
        ]
        assert pairs == [(3, 9), (1, 1), (2, 4)]

    def test_fork_unavailable_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(supervise, "fork_context", lambda: None)
        with pytest.warns(UserWarning, match="in-process"):
            out = supervise.supervised_parallel_map(_square, [1, 2, 3], workers=4)
        assert out == [1, 4, 9]

    def test_available_parallelism_positive(self):
        assert available_parallelism() >= 1


class TestCampaignParallel:
    def test_parallel_file_bitwise_identical_to_serial(self, tmp_path):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "serial")
        par = _campaign(tmp_path, "par")
        assert serial.run(points) == (len(points), 0)
        assert par.run(points, workers=4) == (len(points), 0)
        assert par.path.read_bytes() == serial.path.read_bytes()

    def test_killed_worker_retried_by_default(self, tmp_path, monkeypatch):
        """No policy, workers=2: a one-shot kill heals to the serial bytes."""
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "reference")
        serial.run(points)

        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps({points[3].key(): {"action": "kill", "attempts": [1]}}),
        )
        healed = _campaign(tmp_path, "healed")
        assert healed.run(points, workers=2) == (len(points), 0)
        assert healed.path.read_bytes() == serial.path.read_bytes()
        assert healed.last_supervise["supervise.worker_crashes"] >= 1

    def test_poison_quarantined_resume_no_gaps(self, tmp_path, monkeypatch):
        """No policy, workers=2: a point killed on every attempt is the
        only quarantined record; a clean resume fills exactly that hole."""
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "reference")
        serial.run(points)

        target = points[3]
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps({target.key(): {"action": "kill", "attempts": "all"}}),
        )
        crashy = _campaign(tmp_path, "crashy")
        assert crashy.run(points, workers=2) == (len(points), 0)
        assert crashy.status_counts() == {
            "ok": len(points) - 1, "quarantined": 1,
        }
        assert crashy.completed_keys() == {pt.key() for pt in points} - {
            target.key()
        }

        monkeypatch.delenv(CHAOS_ENV)
        assert crashy.run(points, workers=2) == (1, len(points) - 1)
        # no gaps, no duplicates: one result line per point, each
        # byte-identical to the serial run's line for that point
        results = [
            line
            for line in crashy.path.read_text().splitlines()
            if json.loads(line).get("status") != "quarantined"
        ]
        assert sorted(json.loads(line)["_key"] for line in results) == sorted(
            pt.key() for pt in points
        )
        assert sorted(results) == sorted(serial.path.read_text().splitlines())

    def test_duplicate_points_count_as_skipped(self, tmp_path):
        points = Campaign.grid(**GRID)
        c = _campaign(tmp_path, "dups")
        ran, skipped = c.run(points + points[:3])
        assert (ran, skipped) == (len(points), 3)
        # a second run skips everything
        assert c.run(points, workers=2) == (0, len(points))

    def test_workers_must_be_positive(self, tmp_path):
        c = _campaign(tmp_path, "vals")
        with pytest.raises(ValueError, match="workers"):
            c.run(Campaign.grid(**GRID), workers=0)

    def test_model_mode_rejects_fault_plan(self, tmp_path):
        from repro.faults.plan import EXAMPLE_PLANS

        with pytest.raises(ValueError, match="fault_plan requires mode='sim'"):
            _campaign(tmp_path, "bad", fault_plan=EXAMPLE_PLANS["lossy"])

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            _campaign(tmp_path, "bad", mode="magic")

    def test_parallel_metrics_summary_matches_serial(self, tmp_path):
        points = Campaign.grid(ids=(24,), core_counts=(1, 4), configs=("conf0",))
        serial = _campaign(tmp_path, "m_serial", collect_metrics=True)
        par = _campaign(tmp_path, "m_par", collect_metrics=True)
        serial.run(points)
        par.run(points, workers=2)
        summary = par.metrics_summary()
        assert summary == serial.metrics_summary()
        assert summary  # collect_metrics actually recorded something


class TestSupervisedCampaign:
    """Campaign.run under a SupervisePolicy: self-healing, same bytes."""

    POLICY = SupervisePolicy(max_retries=2, backoff_base=0.0, backoff_jitter=0.0)

    def test_supervised_run_bitwise_identical_to_serial(self, tmp_path):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "sup_serial")
        sup = _campaign(tmp_path, "sup_par")
        serial.run(points)
        assert sup.run(points, workers=4, policy=self.POLICY) == (len(points), 0)
        assert sup.path.read_bytes() == serial.path.read_bytes()
        assert sup.last_supervise["supervise.tasks"] == len(points)

    def test_transient_kill_heals_with_identical_bytes(self, tmp_path, monkeypatch):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "heal_ref")
        serial.run(points)
        # SIGKILL the worker running point 3 on its first attempt only
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps({points[3].key(): {"action": "kill", "attempts": [1]}}),
        )
        healed = _campaign(tmp_path, "heal_run")
        assert healed.run(points, workers=2, policy=self.POLICY) == (
            len(points),
            0,
        )
        # recovered records carry no retry metadata: bytes stay identical
        assert healed.path.read_bytes() == serial.path.read_bytes()
        assert healed.last_supervise["supervise.retries"] >= 1
        assert healed.last_supervise["supervise.worker_crashes"] >= 1

    def test_poison_point_quarantines_then_reruns_after_clearing(
        self, tmp_path, monkeypatch
    ):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "poison_ref")
        serial.run(points)
        target = points[5]
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps({target.key(): {"action": "kill", "attempts": "all"}}),
        )
        c = _campaign(tmp_path, "poison_run")
        assert c.run(points, workers=2, policy=self.POLICY) == (len(points), 0)
        # the poison point persisted as a structured quarantine record
        assert c.status_counts().get("quarantined") == 1
        quarantined = [
            rec for rec in c.load() if rec.get("status") == "quarantined"
        ]
        assert len(quarantined) == 1
        rec = quarantined[0]
        assert rec["reason"] == "crash"
        assert rec["attempts"] == self.POLICY.max_attempts
        assert len(rec["tracebacks"]) == self.POLICY.max_attempts
        assert rec["n_cores"] == target.n_cores
        # quarantined points are retryable: excluded from the resume set
        assert target.key() not in c.completed_keys()
        assert len(c.completed_keys()) == len(points) - 1

        # fault clears -> resume reruns exactly the quarantined point
        monkeypatch.delenv(CHAOS_ENV)
        assert c.run(points, workers=2, policy=self.POLICY) == (
            1,
            len(points) - 1,
        )
        assert c.completed_keys() == {pt.key() for pt in points}
        # the healed record supersedes the quarantine marker in load()
        assert c.status_counts() == {"ok": len(points)}
        assert c.summarize() == serial.summarize()

    def test_on_failure_serial_rescues_in_parent(self, tmp_path, monkeypatch):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "ladder_ref")
        serial.run(points)
        # poison in the pool: every in-pool attempt of point 0 dies; the
        # serial fallback runs in the parent, where chaos is inert.
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps({points[0].key(): {"action": "kill", "attempts": "all"}}),
        )
        policy = SupervisePolicy(
            max_retries=0, backoff_base=0.0, backoff_jitter=0.0,
            on_failure="serial",
        )
        c = _campaign(tmp_path, "ladder_run")
        assert c.run(points, workers=2, policy=policy) == (len(points), 0)
        assert c.status_counts() == {"ok": len(points)}
        assert c.path.read_bytes() == serial.path.read_bytes()
        assert c.last_supervise["supervise.fallbacks"] == 1


class TestFigureSweepParallel:
    """``fig5_data(workers=2)`` with no policy runs supervised."""

    @staticmethod
    def _kill(monkeypatch, exps, attempts):
        mid, exp = exps[0]
        identity = f"suite:{mid}:{SCALE}:{exp.name}"
        monkeypatch.setenv(
            CHAOS_ENV, json.dumps({identity: {"action": "kill", "attempts": attempts}})
        )

    def test_one_shot_kill_heals_to_serial_output(self, monkeypatch):
        exps = suite_experiments(scale=SCALE, ids=[24, 30])
        serial = fig5_data(exps, iterations=ITERATIONS, core_counts=(1, 4))
        # observe the sweep's supervise.* counters: the kill must happen
        registry = MetricsRegistry()
        monkeypatch.setattr(
            figures,
            "supervised_parallel_map",
            partial(supervise.supervised_parallel_map, metrics=registry),
        )
        self._kill(monkeypatch, exps, [1])
        assert fig5_data(
            exps, iterations=ITERATIONS, core_counts=(1, 4), workers=2
        ) == serial
        assert registry.flat_summary()["supervise.worker_crashes"] == 1

    def test_persistent_kill_raises_instead_of_averaging_a_hole(self, monkeypatch):
        exps = suite_experiments(scale=SCALE, ids=[24, 30])
        self._kill(monkeypatch, exps, "all")
        with pytest.raises(QuarantinedTaskError):
            fig5_data(exps, iterations=ITERATIONS, core_counts=(1, 4), workers=2)


class TestMergeFlatSummaries:
    def test_counters_sum_as_totals(self):
        merged = merge_flat_summaries([{"msgs": 2.0}, {"msgs": 3.0, "drops": 1.0}])
        assert merged == {"drops": 1.0, "msgs": 5.0}

    def test_histograms_merge_count_weighted(self):
        a = {"lat": {"count": 2, "mean": 1.0, "min": 0.5, "max": 1.5}}
        b = {"lat": {"count": 6, "mean": 3.0, "min": 2.0, "max": 9.0}}
        merged = merge_flat_summaries([a, b])
        assert merged["lat"] == {"count": 8, "mean": 2.5, "min": 0.5, "max": 9.0}

    def test_empty_histograms_never_drag_min_max(self):
        empty = {"lat": {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}}
        real = {"lat": {"count": 4, "mean": 2.0, "min": 1.0, "max": 3.0}}
        assert merge_flat_summaries([empty, real]) == real
        assert merge_flat_summaries([real, empty]) == real
        assert merge_flat_summaries([empty]) == empty

    def test_merge_is_associative(self):
        parts = [
            {"n": 1.0, "lat": {"count": 1, "mean": 4.0, "min": 4.0, "max": 4.0}},
            {"n": 2.0, "lat": {"count": 3, "mean": 2.0, "min": 1.0, "max": 3.0}},
            {"n": 4.0, "lat": {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}},
        ]
        serial = merge_flat_summaries(parts)
        left = merge_flat_summaries([merge_flat_summaries(parts[:2]), parts[2]])
        right = merge_flat_summaries([parts[0], merge_flat_summaries(parts[1:])])
        assert serial == left == right
