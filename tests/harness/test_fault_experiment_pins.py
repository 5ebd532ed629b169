"""Pinned fault experiments: the dirty-input paths the fleet never takes.

``experiment_faults("probe_dropout")`` is the one run where the
:class:`~repro.transfer.guarded.GuardedController` sees NaN observations
and repairs them; ``report_loss`` and ``random`` query the dropout,
report-loss, restart and scale lookups of the fault schedule, and all
three read a noisy probe.  Run-twice determinism cannot tell an inexact
rewrite of those paths from an exact one, so each digest (the summary and
every series, fast profile, seed 0) was taken before the per-interval
fast paths went in.
"""

import hashlib
import json

import pytest

from repro.harness.experiments import experiment_faults

PINS = {
    "probe_dropout": "f420d676093d80c0348877b2e4ca66c369ad2f6b443d3f75ddb0d909f7e949e7",
    "report_loss": "5862e4ea89314706bd1a40403017453bb2333e3edfc2ac13e441cd89dd286ff5",
    "random": "741c65c7ce6a39f6b3878fd8bfe2e679ef39aff6e079e15fe4f36c2d96ac0023",
}


@pytest.mark.parametrize("fault", sorted(PINS))
def test_fault_experiment_is_pinned(fault):
    result = experiment_faults(fault, fast=True, seed=0)
    blob = json.dumps(
        {
            "summary": result.summary,
            "series": {
                name: [series.times.tolist(), series.values.tolist()]
                for name, series in result.series.items()
            },
        },
        sort_keys=True,
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == PINS[fault]
