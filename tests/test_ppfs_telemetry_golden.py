"""Golden pins for the PPFS telemetry columns and registry counters.

``tests/data/golden_telemetry.json`` pins the PFS series and registry
only, so it says nothing about the policy-layer columns
(``cache.*``, ``server_cache.*``, ``writebehind.*``, ``prefetch.*``) or
the per-level ``cache.*`` registry counters.
``tests/data/golden_ppfs_telemetry.json`` holds, per case, the series
:meth:`~repro.telemetry.TimeSeries.content_hash` and the full
``registry.as_dict()`` of a small-scale, event-fidelity run sampled
every 0.5 simulated seconds:

* ``<app>/<config>`` — every small app on PPFS escat_tuned (client
  caches, write-behind, aggregation) and PPFS two_level (I/O-node
  caches);
* ``faults/<app>/<config>`` — the same under the ``repro faults
  example`` plan, whose I/O-node restart empties that node's server
  cache mid-run and whose drops send write-behind flushes through the
  retry loop.

Like the PFS pins, these were recorded with the batched (eager) I/O-node
path, the default.  If a change intentionally alters simulated
behaviour, regenerate with ``PYTHONPATH=src python -m
tests.test_ppfs_telemetry_golden`` and say why.
"""

import json
import os

import pytest

from repro.cli import example_fault_plan
from repro.core import small_experiment
from repro.ppfs import PPFSPolicies

_FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "golden_ppfs_telemetry.json"
)

APPS = ("escat", "render", "htf", "checkpoint")

CONFIGS = {
    "ppfs-escat_tuned": PPFSPolicies.escat_tuned,
    "ppfs-two_level": PPFSPolicies.two_level,
}

CASES = {
    **{
        f"{app}/{cfg}": (app, cfg, None)
        for app in APPS
        for cfg in CONFIGS
    },
    **{
        f"faults/{app}/{cfg}": (app, cfg, example_fault_plan)
        for app in APPS
        for cfg in CONFIGS
    },
}


def case(key: str) -> dict:
    app, cfg, plan = CASES[key]
    kwargs = {"faults": plan()} if plan is not None else {}
    telem = small_experiment(
        app, filesystem="ppfs", policies=CONFIGS[cfg](), telemetry=0.5, **kwargs
    ).run().telemetry
    return {"series": telem.series.content_hash(), "registry": telem.registry.as_dict()}


@pytest.fixture(scope="module")
def golden():
    with open(_FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(CASES))
def test_series_and_registry_match_pins(golden, key):
    got = case(key)
    assert got["registry"] == golden[key]["registry"], f"{key} registry drifted"
    assert got["series"] == golden[key]["series"], f"{key} series drifted"


if __name__ == "__main__":
    with open(_FIXTURE, "w") as fh:
        json.dump({key: case(key) for key in sorted(CASES)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
