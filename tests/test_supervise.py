"""The self-healing supervisor: retry, timeout, quarantine, fallback.

:mod:`repro.core.supervise` promises that worker deaths, hangs and task
exceptions never take a sweep down: failed attempts retry with
deterministic backoff, hung workers are SIGKILLed at the task deadline,
poison tasks quarantine with a structured failure history, and the
``on_failure`` ladder rescues tasks in the parent before quarantine.
These tests pin each promise with real forked workers and real injected
faults (the :data:`~repro.core.supervise.CHAOS_ENV` schedule).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.supervise import (
    CHAOS_ENV,
    ON_FAILURE_LADDER,
    QuarantinedTaskError,
    SupervisePolicy,
    TaskOutcome,
    backoff_delay,
    chaos_spec,
    fork_context,
    in_worker,
    maybe_chaos,
    supervised_iter_ordered,
    supervised_parallel_map,
)
from repro.obs.metrics import MetricsRegistry, summary_prefix

pytestmark = pytest.mark.skipif(
    fork_context() is None, reason="requires the fork start method"
)

#: instant-retry policy: no backoff waits slowing the suite down.
FAST = dict(backoff_base=0.0, backoff_jitter=0.0)


def _square(x: int) -> int:
    """Module-level so forked workers inherit it cleanly."""
    return x * x


def _sleep_forever(x: int) -> int:
    time.sleep(300)
    return x


def _fails_below_100(x: int) -> int:
    if x < 100:
        raise RuntimeError(f"no simulator for {x}")
    return x


def _always_fails(x: int) -> int:
    raise RuntimeError(f"poison {x}")


def _onto_model(x: int):
    """A ``degrade`` hook: items >= 100 already run on the model."""
    return None if x >= 100 else x + 100


def _chaos(monkeypatch, schedule: dict) -> None:
    monkeypatch.setenv(CHAOS_ENV, json.dumps(schedule))


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisePolicy(task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            SupervisePolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="backoff_jitter"):
            SupervisePolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError, match="on_failure"):
            SupervisePolicy(on_failure="shrug")

    def test_max_attempts(self):
        assert SupervisePolicy(max_retries=0).max_attempts == 1
        assert SupervisePolicy(max_retries=3).max_attempts == 4

    def test_ladder_is_the_documented_one(self):
        assert ON_FAILURE_LADDER == ("quarantine", "serial", "model", "raise")


class TestBackoffDelay:
    POLICY = SupervisePolicy(
        backoff_base=0.1, backoff_factor=2.0, backoff_max=1.0, backoff_jitter=0.25
    )

    def test_deterministic(self):
        a = backoff_delay(self.POLICY, "task:1", 2)
        b = backoff_delay(self.POLICY, "task:1", 2)
        assert a == b  # not approx: byte-identical replay schedules

    def test_jitter_varies_by_identity_and_attempt(self):
        assert backoff_delay(self.POLICY, "task:1", 2) != backoff_delay(
            self.POLICY, "task:2", 2
        )
        assert backoff_delay(self.POLICY, "task:1", 2) != backoff_delay(
            self.POLICY, "task:1", 3
        )

    def test_bounded_exponential_with_jitter_band(self):
        for attempt, base in ((2, 0.1), (3, 0.2), (4, 0.4)):
            d = backoff_delay(self.POLICY, "t", attempt)
            assert base <= d <= base * 1.25

    def test_cap(self):
        # attempt 12 would be base * 2**10 = 102.4 s without the cap
        assert backoff_delay(self.POLICY, "t", 12) <= 1.0 * 1.25

    def test_zero_jitter_is_exact(self):
        p = SupervisePolicy(backoff_base=0.5, backoff_jitter=0.0)
        assert backoff_delay(p, "anything", 2) == 0.5


class TestChaosHook:
    def test_spec_parses_valid_schedules(self, monkeypatch):
        _chaos(monkeypatch, {"t": {"action": "kill", "attempts": [1]}})
        assert chaos_spec() == {"t": {"action": "kill", "attempts": [1]}}

    def test_spec_tolerates_garbage(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "{not json")
        assert chaos_spec() == {}

    def test_inert_in_the_parent(self, monkeypatch):
        _chaos(monkeypatch, {"t": {"action": "kill", "attempts": "all"}})
        maybe_chaos("t", 1)  # must NOT kill the test process


class TestSupervisedIterOrdered:
    def test_clean_run_matches_map_in_order(self):
        outcomes = list(supervised_iter_ordered(_square, range(9), workers=3))
        assert [o.value for o in outcomes] == [x * x for x in range(9)]
        assert all(o.ok and o.attempts == 1 and not o.failures for o in outcomes)

    def test_kill_on_attempt_1_succeeds_on_attempt_2(self, monkeypatch):
        _chaos(monkeypatch, {"2": {"action": "kill", "attempts": [1]}})
        registry = MetricsRegistry()
        outcomes = list(
            supervised_iter_ordered(
                _square,
                range(5),
                workers=2,
                policy=SupervisePolicy(**FAST),
                metrics=registry,
            )
        )
        # no duplicates, no gaps, submission order kept
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16]
        rescued = outcomes[2]
        assert rescued.ok and rescued.attempts == 2 and rescued.retries == 1
        assert rescued.failures[0].kind == "crash"
        m = summary_prefix(registry.flat_summary(), "supervise")
        assert m["tasks"] == 5
        assert m["retries"] == 1
        assert m["worker_crashes"] >= 1
        assert m["respawns"] >= 1
        assert "quarantines" not in m

    def test_poison_task_quarantines_with_history(self, monkeypatch):
        _chaos(monkeypatch, {"3": {"action": "raise", "attempts": "all"}})
        registry = MetricsRegistry()
        outcomes = list(
            supervised_iter_ordered(
                _square,
                range(5),
                workers=2,
                policy=SupervisePolicy(max_retries=1, **FAST),
                metrics=registry,
            )
        )
        poisoned = outcomes[3]
        assert not poisoned.ok
        assert poisoned.attempts == 2
        assert [f.kind for f in poisoned.failures] == ["error", "error"]
        assert all("ChaosInjectedError" in f.detail for f in poisoned.failures)
        # the healthy neighbours are untouched
        assert [o.value for o in outcomes[:3]] == [0, 1, 4]
        assert outcomes[4].value == 16
        rec = poisoned.quarantine_record()
        assert rec["status"] == "quarantined"
        assert rec["reason"] == "error"
        assert rec["attempts"] == 2
        assert len(rec["tracebacks"]) == 2
        m = summary_prefix(registry.flat_summary(), "supervise")
        assert m["quarantines"] == 1
        assert m["retries"] == 1

    def test_hung_worker_killed_at_deadline(self, monkeypatch):
        _chaos(monkeypatch, {"1": {"action": "stop", "attempts": "all"}})
        t0 = time.monotonic()
        outcomes = list(
            supervised_iter_ordered(
                _square,
                range(3),
                workers=2,
                policy=SupervisePolicy(task_timeout=0.5, max_retries=0, **FAST),
            )
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0  # SIGSTOP did not wedge the sweep
        hung = outcomes[1]
        assert not hung.ok
        assert hung.failures[0].kind == "timeout"
        assert "SIGKILLed" in hung.failures[0].detail
        assert outcomes[0].ok and outcomes[2].ok

    def test_slow_task_times_out_without_chaos(self):
        outcomes = list(
            supervised_iter_ordered(
                _sleep_forever,
                [0],
                workers=1,
                policy=SupervisePolicy(task_timeout=0.3, max_retries=0, **FAST),
            )
        )
        assert not outcomes[0].ok
        assert outcomes[0].quarantine_record()["reason"] == "timeout"

    def test_fallback_ladder_rescues_before_quarantine(self, monkeypatch):
        _chaos(monkeypatch, {"2": {"action": "kill", "attempts": "all"}})
        registry = MetricsRegistry()
        outcomes = list(
            supervised_iter_ordered(
                _square,
                range(4),
                workers=2,
                policy=SupervisePolicy(max_retries=0, on_failure="serial", **FAST),
                metrics=registry,
            )
        )
        rescued = outcomes[2]
        assert rescued.ok and rescued.value == 4
        assert rescued.fallback == "serial"
        assert rescued.failures  # the in-pool attempt is still on record
        m = summary_prefix(registry.flat_summary(), "supervise")
        assert m["fallbacks"] == 1
        assert "quarantines" not in m

    def test_on_failure_quarantine_runs_no_rung(self, monkeypatch):
        _chaos(monkeypatch, {"2": {"action": "kill", "attempts": "all"}})
        registry = MetricsRegistry()
        outcomes = list(
            supervised_iter_ordered(
                _square,
                range(4),
                workers=2,
                policy=SupervisePolicy(max_retries=0, **FAST),
                degrade=lambda x: x,
                metrics=registry,
            )
        )
        poisoned = outcomes[2]
        assert not poisoned.ok and poisoned.fallback is None
        assert [f.kind for f in poisoned.failures] == ["crash"]
        m = summary_prefix(registry.flat_summary(), "supervise")
        assert m["quarantines"] == 1
        assert "fallbacks" not in m

    def test_model_rung_runs_the_degraded_item(self):
        # items >= 100 stand for "already on the model": degrade skips them
        outcomes = list(
            supervised_iter_ordered(
                _fails_below_100,
                [1, 2],
                workers=2,
                policy=SupervisePolicy(max_retries=0, on_failure="model", **FAST),
                degrade=_onto_model,
            )
        )
        for x, outcome in zip([1, 2], outcomes):
            assert outcome.ok and outcome.fallback == "model"
            assert outcome.item == x and outcome.value == x + 100
            assert [f.kind for f in outcome.failures] == ["error", "fallback:serial"]

    def test_model_rung_skipped_for_items_already_on_the_model(self):
        outcomes = list(
            supervised_iter_ordered(
                _always_fails,
                [100],
                workers=2,
                policy=SupervisePolicy(max_retries=0, on_failure="model", **FAST),
                degrade=_onto_model,
            )
        )
        assert not outcomes[0].ok
        assert [f.kind for f in outcomes[0].failures] == ["error", "fallback:serial"]

    def test_model_rung_needs_a_degrade_hook(self):
        outcomes = list(
            supervised_iter_ordered(
                _always_fails,
                [1],
                workers=2,
                policy=SupervisePolicy(max_retries=0, on_failure="model", **FAST),
            )
        )
        assert [f.kind for f in outcomes[0].failures] == ["error", "fallback:serial"]

    def test_on_failure_raise_aborts(self, monkeypatch):
        _chaos(monkeypatch, {"0": {"action": "raise", "attempts": "all"}})
        with pytest.raises(QuarantinedTaskError, match="failed all 1 attempt"):
            list(
                supervised_iter_ordered(
                    _square,
                    range(2),
                    workers=2,
                    policy=SupervisePolicy(
                        max_retries=0, on_failure="raise", **FAST
                    ),
                )
            )

    def test_lazy_items_bounded_window(self):
        pulled = []

        def gen():
            for x in range(200):
                pulled.append(x)
                yield x

        it = supervised_iter_ordered(
            _square, gen(), workers=2, policy=SupervisePolicy(**FAST)
        )
        try:
            first = next(it)
            assert first.value == 0
            # window_factor=4 * 2 workers = 8 beyond the unyielded head
            assert len(pulled) < 200
            assert len(pulled) <= 2 + 4 * 2 + 1
        finally:
            it.close()


class TestSupervisedParallelMap:
    def test_values_in_order(self):
        assert supervised_parallel_map(_square, range(7), workers=3) == [
            x * x for x in range(7)
        ]

    def test_raises_on_quarantine_regardless_of_policy(self, monkeypatch):
        _chaos(monkeypatch, {"1": {"action": "raise", "attempts": "all"}})
        with pytest.raises(QuarantinedTaskError) as excinfo:
            supervised_parallel_map(
                _square,
                range(3),
                workers=2,
                policy=SupervisePolicy(max_retries=0, **FAST),
            )
        assert isinstance(excinfo.value.outcome, TaskOutcome)
        assert excinfo.value.outcome.identity == "1"


class TestInProcess:
    """``workers=1`` with no policy: the plain loop, unsupervised."""

    def test_runs_in_process_and_counts_nothing(self):
        registry = MetricsRegistry()
        outcomes = list(
            supervised_iter_ordered(
                lambda x: (x * x, in_worker()), [2, 3], workers=1, metrics=registry
            )
        )
        assert [o.value for o in outcomes] == [(4, False), (9, False)]
        assert all(o.ok and o.attempts == 1 and not o.failures for o in outcomes)
        assert registry.flat_summary() == {}

    def test_exception_propagates_unretried(self):
        calls = []

        def boom(x: int) -> int:
            calls.append(x)
            raise RuntimeError("no retry in-process")

        with pytest.raises(RuntimeError, match="no retry in-process"):
            supervised_parallel_map(boom, [1, 2], workers=1)
        assert calls == [1]

    def test_a_policy_still_supervises(self):
        outcomes = list(
            supervised_iter_ordered(
                lambda x: in_worker(), [0], workers=1, policy=SupervisePolicy(**FAST)
            )
        )
        assert outcomes[0].value is True


class TestForklessDegradation:
    def test_serial_supervision_retries_and_quarantines(self, monkeypatch):
        import repro.core.supervise as sup

        monkeypatch.setattr(sup, "fork_context", lambda: None)
        calls = {"n": 0}

        def flaky(x: int) -> int:
            calls["n"] += 1
            if x == 1 and calls["n"] < 3:  # item 1 fails its first attempt
                raise RuntimeError("transient")
            if x == 2:
                raise RuntimeError("poison")
            return x * x

        with pytest.warns(UserWarning, match="in-process"):
            outcomes = list(
                sup.supervised_iter_ordered(
                    flaky,
                    range(3),
                    workers=4,
                    policy=SupervisePolicy(max_retries=1, **FAST),
                )
            )
        assert outcomes[0].ok and outcomes[1].ok
        assert outcomes[1].attempts == 2
        assert not outcomes[2].ok
        assert outcomes[2].attempts == 2

    def test_serial_supervision_walks_the_same_ladder(self, monkeypatch):
        import repro.core.supervise as sup

        monkeypatch.setattr(sup, "fork_context", lambda: None)
        registry = MetricsRegistry()
        with pytest.warns(UserWarning, match="in-process"):
            outcomes = list(
                sup.supervised_iter_ordered(
                    _fails_below_100,
                    [1, 100],
                    workers=4,
                    policy=SupervisePolicy(max_retries=1, on_failure="model", **FAST),
                    degrade=_onto_model,
                    metrics=registry,
                )
            )
        assert outcomes[0].fallback == "model" and outcomes[0].value == 101
        assert [f.kind for f in outcomes[0].failures] == [
            "error", "error", "fallback:serial",
        ]
        assert outcomes[1].ok and outcomes[1].fallback is None
        m = summary_prefix(registry.flat_summary(), "supervise")
        assert m["fallbacks"] == 1 and m["retries"] == 1
