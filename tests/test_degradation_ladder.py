"""The ``--on-failure`` ladder as campaigns, figure sweeps, the server and
``repro faults`` see it.

:mod:`repro.core.supervise` builds the rungs from the policy alone:
``serial`` reruns a failed task in the parent, ``model`` then reruns
the item the caller's ``degrade`` hook moved onto the analytic model,
and an item already on the model gets no ``model`` rung.  These tests
make the event-driven runtime (or the analytic path) raise everywhere
and check what each front end does with that.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.core import campaign as campaign_mod
from repro.core.campaign import Campaign
from repro.core.experiment import SpMVExperiment
from repro.core.figures import fig5_data, suite_experiments
from repro.core.supervise import CHAOS_ENV, SupervisePolicy, fork_context, in_worker
from repro.serve import CampaignServer, CampaignSpec, ServeClient

pytestmark = pytest.mark.skipif(
    fork_context() is None, reason="the ladder runs behind a fork pool"
)

SCALE = 0.05
ITERATIONS = 2
GRID = dict(ids=(24,), core_counts=(1, 4))


def _policy(on_failure: str) -> SupervisePolicy:
    return SupervisePolicy(
        max_retries=0, backoff_base=0.0, backoff_jitter=0.0, on_failure=on_failure
    )


def _broken(*_args, **_kwargs):
    raise RuntimeError("injected: this path is broken")


@pytest.fixture()
def no_simulator(monkeypatch):
    """Every ``mode="sim"`` run raises, in the parent and in workers."""
    monkeypatch.setattr(SpMVExperiment, "_time_sim", _broken)


@pytest.fixture()
def no_model(monkeypatch):
    """Every ``mode="model"`` run raises, in the parent and in workers."""
    monkeypatch.setattr(SpMVExperiment, "_time_analytic", _broken)


def _campaign(tmp_path, name, mode, machine="scc-48"):
    return Campaign(
        name, tmp_path, scale=SCALE, iterations=ITERATIONS, mode=mode, machine=machine
    )


def _spec(mode, machine="scc-48"):
    return CampaignSpec(
        ids=GRID["ids"],
        core_counts=GRID["core_counts"],
        machine=machine,
        scale=SCALE,
        iterations=ITERATIONS,
        mode=mode,
    )


def _canon(records):
    return [json.dumps(r, sort_keys=True) for r in records]


def _failure_kinds(rec: dict):
    return [line.split("]")[0].split("[")[1] for line in rec["tracebacks"]]


class TestModelRung:
    def test_campaign_sim_point_rescued_on_the_model(self, tmp_path, no_simulator):
        points = Campaign.grid(**GRID)
        model = _campaign(tmp_path, "model", "model")
        model.run(points)
        c = _campaign(tmp_path, "rescued", "sim")
        assert c.run(points, workers=2, policy=_policy("model")) == (len(points), 0)
        assert c.load() == model.load()
        assert c.last_supervise["supervise.fallbacks"] == len(points)

    def test_figure_sweep_rescued_on_the_model(self, no_simulator):
        exps = suite_experiments(scale=SCALE, ids=[24, 30])
        kw = dict(iterations=ITERATIONS, core_counts=(1, 4))
        assert fig5_data(
            exps, mode="sim", workers=2, policy=_policy("model"), **kw
        ) == fig5_data(exps, mode="model", **kw)

    def test_served_rescue_is_returned_but_not_stored(self, tmp_path, no_simulator):
        spec = _spec("sim")
        model = _campaign(tmp_path, "model", "model")
        model.run(spec.points())
        server = CampaignServer(
            tmp_path / "serve-data", workers=2, policy=_policy("model")
        )
        server.start()
        try:
            client = ServeClient(server.url)
            first = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
            assert _canon(first["records"]) == _canon(model.load())
            assert first["simulated"] == len(spec.points())
            assert client.healthz()["store_entries"] == 0
            health = client.metrics()["worker_health"]
            assert health["rescued"] == {"model": len(spec.points())}
            # nothing stored, so a resubmit simulates again
            again = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
            assert again["simulated"] == len(spec.points())
            assert again["dedup_hits"] == 0
        finally:
            server.stop()


class TestNoModelRungOnTheModel:
    def test_model_campaign_quarantines_after_the_serial_rung(self, tmp_path, no_model):
        points = Campaign.grid(**GRID)
        c = _campaign(tmp_path, "model", "model")
        assert c.run(points, workers=2, policy=_policy("model")) == (len(points), 0)
        records = c.load()
        assert [r["status"] for r in records] == ["quarantined"] * len(points)
        assert all(_failure_kinds(r) == ["error", "fallback:serial"] for r in records)
        assert c.last_supervise["supervise.quarantines"] == len(points)
        assert "supervise.fallbacks" not in c.last_supervise

    def test_served_model_job_quarantines_after_the_serial_rung(self, tmp_path, no_model):
        spec = _spec("model")
        server = CampaignServer(
            tmp_path / "serve-data", workers=2, policy=_policy("model")
        )
        server.start()
        try:
            client = ServeClient(server.url)
            result = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
            n = len(spec.points())
            assert result["quarantined"] == n
            assert all(
                _failure_kinds(r) == ["error", "fallback:serial"]
                for r in result["records"]
            )
            health = client.metrics()["worker_health"]
            assert health["failures"] == {"error": n, "fallback:serial": n}
            assert health["rescued"] == {}
        finally:
            server.stop()


class TestInProcessCampaign:
    def test_unsupervised_in_process_run(self, tmp_path, monkeypatch):
        calls = []
        real = campaign_mod.run_campaign_point

        def spy(pt, ctx):
            calls.append(in_worker())
            if pt.n_cores == 4:
                raise RuntimeError("no retry in-process")
            return real(pt, ctx)

        monkeypatch.setattr(campaign_mod, "run_campaign_point", spy)
        c = _campaign(tmp_path, "serial", "model")
        with pytest.raises(RuntimeError, match="no retry in-process"):
            c.run(Campaign.grid(**GRID))
        assert calls == [False, False]  # one attempt each, in this process
        assert c.last_supervise == {}
        assert len(c.load()) == 1


class TestQuarantineRecordShape:
    SUPERVISOR_FIELDS = ("status", "reason", "attempts", "tracebacks")

    def test_served_and_campaign_quarantines_carry_the_same_grid_fields(
        self, tmp_path, monkeypatch
    ):
        spec = _spec("model", machine="xeonphi-61")
        poison = spec.points()[1]
        monkeypatch.setenv(
            CHAOS_ENV, json.dumps({poison.key(): {"action": "kill", "attempts": "all"}})
        )
        c = _campaign(tmp_path, "poisoned", "model", machine="xeonphi-61")
        c.run(spec.points(), workers=2, policy=_policy("quarantine"))
        campaign_rec = c.load()[1]
        server = CampaignServer(
            tmp_path / "serve-data", workers=2, policy=_policy("quarantine")
        )
        server.start()
        try:
            client = ServeClient(server.url)
            result = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
        finally:
            server.stop()
        served_rec = result["records"][1]
        assert served_rec["status"] == campaign_rec["status"] == "quarantined"

        def grid(rec):
            return {
                k: v
                for k, v in rec.items()
                if k not in self.SUPERVISOR_FIELDS and k != "scale"
            }

        assert grid(served_rec) == grid(campaign_rec)
        assert grid(served_rec)["machine"] == "xeonphi-61"
        assert grid(served_rec)["matrix"] and "matrix_id" not in served_rec


class TestFaultsCli:
    ARGS = [
        "faults", "--plan", "crash", "--ids", "2,7", "--cores", "8",
        "--scale", "0.05", "--iterations", "2", "--json",
    ]

    @staticmethod
    def _run(*argv):
        buf = io.StringIO()
        assert main(list(argv), out=buf) == 0
        return buf.getvalue()

    def test_supervised_fan_out_prints_the_serial_bytes(self):
        serial = self._run(*self.ARGS, "--workers", "1")
        parallel = self._run(*self.ARGS, "--workers", "2", "--on-failure", "serial")
        assert parallel == serial
        assert len(json.loads(serial)) == 2
