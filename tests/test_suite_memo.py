"""The process-wide experiment memo stays bounded and changes no record.

:func:`repro.core.figures.suite_experiment` is the one memo behind figure
sweeps, campaign points and served points.  A long-lived server may see
any number of distinct scales; the memo must evict rather than grow, and
an evicted experiment rebuilt later must produce the same bytes.
"""

from __future__ import annotations

import json

from repro.core.campaign import CampaignContext, CampaignPoint
from repro.core.experiment import SpMVExperiment
from repro.core.figures import suite_experiment, suite_experiments
from repro.machine.registry import get_machine, list_machines
from repro.serve.protocol import execute_point
from repro.sparse.suite import SUITE, build_matrix, entry_by_id

#: 40 distinct scales, more than the memo holds.
SCALES = [round(0.010 + 0.0005 * k, 4) for k in range(40)]


def _fresh_record(pt: CampaignPoint, scale: float) -> dict:
    machine = get_machine("scc-48")
    exp = SpMVExperiment(
        build_matrix(pt.mid, scale=scale), name=entry_by_id(pt.mid).name, machine=machine
    )
    result = exp.run(
        n_cores=pt.n_cores,
        config=machine.presets[pt.config],
        mapping=pt.mapping,
        kernel=pt.kernel,
        iterations=2,
        mode="model",
    )
    return dict(result.to_record(), scale=scale)


def test_memo_is_bounded_across_many_scales_and_records_match_fresh_runs():
    pt = CampaignPoint(24, 4, "conf0", "distance_reduction", "csr")
    shared_after_first_scale = None
    # Two passes: the second rebuilds experiments the first evicted.
    for _ in range(2):
        for scale in SCALES:
            ctx = CampaignContext(scale=scale, iterations=2, mode="model")
            rec = execute_point(pt, ctx)
            assert json.dumps(rec, sort_keys=True) == json.dumps(
                _fresh_record(pt, scale), sort_keys=True
            )
            assert suite_experiment.cache_info().currsize <= len(SUITE) == 32
            if shared_after_first_scale is None:
                shared_after_first_scale = len(SpMVExperiment._shared)
    assert suite_experiment.cache_info().currsize == 32
    # The matrix-independent memo is keyed by machine, never by scale.
    assert len(SpMVExperiment._shared) == shared_after_first_scale
    assert {key[1] for key in SpMVExperiment._shared} <= set(list_machines())


def test_suite_experiments_share_the_memo():
    first = dict(suite_experiments(scale=0.02, ids=[7, 24]))
    again = dict(suite_experiments(scale=0.02, ids=[7, 24]))
    assert first[24] is again[24] is suite_experiment(24, 0.02, "scc-48")
    assert first[24].suite_ref == (24, 0.02)
    xeon = dict(suite_experiments(scale=0.02, ids=[24], machine="xeonphi-61"))
    assert xeon[24] is not first[24]
    assert xeon[24].suite_ref == (24, 0.02, "xeonphi-61")
