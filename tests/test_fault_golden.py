"""Golden pins for the striped chunk path under faults and with spans on.

``tests/data/golden_fault_hashes.json`` holds, per case, the Pablo trace
content hashes and the :meth:`SpanStore.content_hash` of the span store:

* ``faults/<app>/<config>`` — every small app on PFS, PPFS escat_tuned
  (write-behind flusher) and PPFS two_level (I/O-node caches) under the
  ``repro faults example`` plan, so the retry, failover and budget
  logic of both the fan-out and the flusher is pinned;
* ``faults/checkpoint/pfs-bb16M`` — the same plan with a 16 MB burst
  buffer, whose drains go through the same fan-out;
* ``drops/<app>/<config>`` — ESCAT and RENDER under a 9.5 s, 50% drop
  window that closes before either ends, so the fan-out retries dozens
  of chunks (the example plan's short window retries only a handful);
* ``spans/<app>/<config>/<mode>`` — fault-free span content on PFS and
  PPFS two_level, with the batched I/O-node path on and off
  (``REPRO_NO_BATCH``), which :mod:`tests.test_spans` pins only by
  trace hash.

If a change intentionally alters simulated behaviour, regenerate with
``PYTHONPATH=src python -m tests.test_fault_golden`` and say why.
"""

import json
import os

import pytest

from repro.cli import example_fault_plan
from repro.core import small_experiment
from repro.faults import FaultPlan, RequestDrops
from repro.ppfs import PPFSPolicies
from repro.util.units import MB

_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_fault_hashes.json")

APPS = ("escat", "render", "htf", "checkpoint")

CONFIGS = {
    "pfs": dict(filesystem="pfs"),
    "ppfs-escat_tuned": dict(filesystem="ppfs", policies=PPFSPolicies.escat_tuned()),
    "ppfs-two_level": dict(filesystem="ppfs", policies=PPFSPolicies.two_level()),
}

DROPS = FaultPlan(drops=(RequestDrops(probability=0.5, start_s=0.5, duration_s=9.5),))

FAULT_CASES = {
    **{
        f"faults/{app}/{cfg}": (app, example_fault_plan(), CONFIGS[cfg], {})
        for app in APPS
        for cfg in CONFIGS
    },
    "faults/checkpoint/pfs-bb16M": (
        "checkpoint", example_fault_plan(), CONFIGS["pfs"], {"burst_buffer": 16 * MB}
    ),
    **{
        f"drops/{app}/{cfg}": (app, DROPS, CONFIGS[cfg], {})
        for app in ("escat", "render")
        for cfg in CONFIGS
    },
}

SPAN_CASES = {
    f"spans/{app}/{cfg}/{mode}": (app, CONFIGS[cfg], mode)
    for app in APPS
    for cfg in ("pfs", "ppfs-two_level")
    for mode in ("batch", "scalar")
}


def _hashes(result) -> dict:
    return {
        "traces": {n: t.content_hash() for n, t in sorted(result.traces.items())},
        "spans": result.spans.store.content_hash(),
    }


def fault_case(key: str) -> dict:
    app, plan, config, extra = FAULT_CASES[key]
    return _hashes(small_experiment(app, faults=plan, spans=True, **config, **extra).run())


def span_case(key: str) -> dict:
    app, config, _mode = SPAN_CASES[key]
    return _hashes(small_experiment(app, spans=True, **config).run())


@pytest.fixture(scope="module")
def golden():
    with open(_FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(FAULT_CASES))
def test_faulted_run_matches_golden(golden, key):
    assert fault_case(key) == golden[key], f"{key} drifted from the golden fixture"


@pytest.mark.parametrize("key", sorted(SPAN_CASES))
def test_span_content_matches_golden(golden, key, monkeypatch):
    if SPAN_CASES[key][2] == "scalar":
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
    else:
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    assert span_case(key) == golden[key], f"{key} drifted from the golden fixture"


def record() -> dict:
    """Recompute every pinned case; sets ``REPRO_NO_BATCH`` per span case,
    so run it as a script, not from a test."""
    out = {key: fault_case(key) for key in sorted(FAULT_CASES)}
    for key in sorted(SPAN_CASES):
        os.environ.pop("REPRO_NO_BATCH", None)
        if SPAN_CASES[key][2] == "scalar":
            os.environ["REPRO_NO_BATCH"] = "1"
        out[key] = span_case(key)
    return out


if __name__ == "__main__":
    with open(_FIXTURE, "w") as fh:
        json.dump(record(), fh, indent=2, sort_keys=True)
        fh.write("\n")
