"""Golden pin for trace replay: :func:`replay_trace` reproduces the
event stream it produced before it became a wrapper over
``Experiment(app="trace")``.

The fixture holds the replayed trace's :meth:`Trace.content_hash` for
the small ESCAT trace on {PFS, PPFS escat_tuned} x every think-time
mode, replayed on the small machine.
"""

import json
import os

import pytest

from repro.apps.trace import THINK_TIMES
from repro.apps.workloads import small_machine
from repro.core import replay_trace, small_experiment
from repro.ppfs import PPFSPolicies

_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_replay_hashes.json")

with open(_FIXTURE) as _fh:
    GOLDEN = json.load(_fh)

CONFIGS = {
    "pfs": dict(filesystem="pfs"),
    "ppfs-escat_tuned": dict(filesystem="ppfs", policies=PPFSPolicies.escat_tuned()),
}


@pytest.fixture(scope="module")
def escat_trace():
    return small_experiment("escat").run().trace


@pytest.mark.parametrize("think", THINK_TIMES)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_replay_matches_golden(escat_trace, config, think):
    result = replay_trace(
        escat_trace, machine_factory=small_machine, think_time=think,
        **CONFIGS[config],
    )
    assert result.trace.content_hash() == GOLDEN[f"{config}/{think}"]
    assert result.trace.application == "ESCAT-replay"
