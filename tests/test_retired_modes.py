"""Requests for the retired ``predict`` mode fail through existing checks.

``predict`` is no longer a run mode.  A CLI flag, an HTTP submission or
a journal line written by an older server that still names it must be
turned away by the validation every other bad mode meets: argparse
``choices``, :class:`~repro.serve.CampaignSpec` validation and the
``MODES`` check of :meth:`SpMVExperiment.run`.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.experiment import MODES, SpMVExperiment
from repro.core.supervise import fork_context
from repro.serve import CampaignServer, CampaignSpec, ServeClient, ServeError
from repro.sparse.suite import build_matrix

#: the mode an older version accepted.
RETIRED = "predict"

needs_fork = pytest.mark.skipif(
    fork_context() is None,
    reason="the campaign server's supervised pool needs the fork start method",
)


def _wire(**overrides) -> dict:
    wire = CampaignSpec(
        ids=(24,), core_counts=(1,), scale=0.02, iterations=1, mode="model"
    ).to_wire()
    wire.update(overrides)
    return wire


def test_modes_are_the_three_timing_paths():
    assert MODES == ("sim", "model", "exact-trace")


def test_experiment_run_rejects_predict():
    exp = SpMVExperiment(build_matrix(24, scale=0.02))
    with pytest.raises(ValueError, match="mode must be one of"):
        exp.run(n_cores=1, mode=RETIRED)


def test_cli_run_mode_predict_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fig5", "--mode", RETIRED])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --mode: invalid choice: 'predict'" in err


@needs_fork
def test_post_jobs_mode_predict_is_a_400_naming_valid_modes(tmp_path):
    server = CampaignServer(tmp_path / "serve-data", workers=1)
    server.start()
    try:
        client = ServeClient(server.url)
        with pytest.raises(ServeError) as excinfo:
            client._ok("POST", "/api/v1/jobs", {"spec": _wire(mode=RETIRED)})
    finally:
        server.stop()
    assert excinfo.value.status == 400
    message = str(excinfo.value.body["error"])
    assert "'predict'" in message
    assert all(repr(mode) in message for mode in MODES)


@needs_fork
def test_journaled_predict_job_is_skipped_on_recovery(tmp_path):
    """A journal from an older server restarts; only its valid jobs return."""
    data_dir = tmp_path / "serve-data"
    data_dir.mkdir()
    events = [
        {"event": "submit", "job_id": "job-000001", "spec": _wire(mode=RETIRED)},
        {"event": "submit", "job_id": "job-000002", "spec": _wire()},
    ]
    (data_dir / "jobs.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8"
    )
    server = CampaignServer(data_dir, workers=1)
    server.start()
    try:
        client = ServeClient(server.url)
        recovered = client.wait("job-000002", timeout=120.0)
        assert recovered["state"] == "done"
        assert [r["status"] for r in recovered["records"]] == ["ok"]
        with pytest.raises(ServeError) as excinfo:
            client.status("job-000001")
        assert excinfo.value.status == 404
        # Fresh ids continue past the recovered ones.
        fresh = client.submit(CampaignSpec.from_wire(_wire()))
        assert fresh["job_id"] == "job-000003"
    finally:
        server.stop()
