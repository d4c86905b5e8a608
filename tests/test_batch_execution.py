"""Batched execution: op-for-op equivalence + golden guards.

The eager FIFO :class:`IONode` prices every request through the same
scalar law as the queued dispatcher (:meth:`IONode._price`) and
promises *bit-identical* results to it — same IEEE-754 service times,
same completion instants, same statistics, whether requests arrive one
at a time or as a :meth:`IONode.submit_batch` cohort.  Hypothesis
checks both against the scalar queue; the golden-hash guards then pin
the end-to-end promise for every application x filesystem preset with
batching forced on AND off (``REPRO_NO_BATCH=1``), so both code paths
stay wired to the same checked-in event streams.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import RunSpec
from repro.machine.ionode import IONode
from repro.sim.core import Environment

_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_trace_hashes.json")

with open(_FIXTURE) as _fh:
    GOLDEN = json.load(_fh)


# -- strategies ----------------------------------------------------------------
requests = st.lists(
    st.tuples(st.integers(0, 256 * 1024 * 1024), st.integers(0, 1024 * 1024)),
    min_size=1,
    max_size=16,
)


class TestEagerIONodeCohort:
    """A same-instant cohort completes at identical times on every path."""

    @staticmethod
    def _sequential(eager, reqs):
        env = Environment()
        node = IONode(env, 0)
        # Force the mode so the test is meaningful whether or not the
        # suite itself runs under REPRO_NO_BATCH=1.
        node._eager = eager
        assert node._eager is eager
        times = []
        for offset, nbytes in reqs:
            node.submit(offset, nbytes, True).callbacks.append(
                lambda _ev, env=env: times.append(env.now)
            )
        env.run()
        return times, node

    @given(requests)
    @settings(max_examples=80, deadline=None)
    def test_eager_matches_scalar_queue(self, reqs):
        eager_times, eager_node = self._sequential(True, reqs)
        scalar_times, scalar_node = self._sequential(False, reqs)
        assert eager_times == scalar_times  # exact, per-request
        for attr in ("busy_time", "requests_served", "bytes_served", "size_buckets"):
            assert getattr(eager_node, attr) == getattr(scalar_node, attr)
        assert eager_node.array._arm.head_pos == scalar_node.array._arm.head_pos

    @given(requests)
    @settings(max_examples=80, deadline=None)
    def test_submit_batch_completes_with_the_cohort_tail(self, reqs):
        scalar_times, scalar_node = self._sequential(False, reqs)
        env = Environment()
        node = IONode(env, 0)
        node._eager = True  # exercise the batch path even under REPRO_NO_BATCH
        offsets = [o for o, _ in reqs]
        sizes = [s for _, s in reqs]
        done_at = []
        node.submit_batch(offsets, sizes, True).callbacks.append(
            lambda _ev: done_at.append(env.now)
        )
        env.run()
        assert done_at == [scalar_times[-1]]
        for attr in ("busy_time", "requests_served", "bytes_served", "size_buckets"):
            assert getattr(node, attr) == getattr(scalar_node, attr)
        assert node.array._arm.head_pos == scalar_node.array._arm.head_pos


# -- golden guards: every app x preset, batching forced on AND off -------------
APPS = ("escat", "render", "htf", "checkpoint")

PPFS_PRESETS = ("default", "escat_tuned", "sequential_reader", "adaptive",
                "two_level")


def _hashes(app, preset):
    if preset is None:
        spec = RunSpec(app, scale="small")
    else:
        policy = None if preset == "default" else preset
        spec = RunSpec(app, scale="small", fs="ppfs", policy=policy)
    result = spec.build_experiment().run()
    return {name: trace.content_hash() for name, trace in sorted(result.traces.items())}


class TestGoldenWithAndWithoutBatching:
    """Both execution paths reproduce the checked-in event streams."""

    @pytest.mark.parametrize("mode", ("batched", "scalar"))
    @pytest.mark.parametrize("preset", (None,) + PPFS_PRESETS)
    @pytest.mark.parametrize("app", APPS)
    def test_matches_golden(self, app, preset, mode, monkeypatch):
        if mode == "scalar":
            monkeypatch.setenv("REPRO_NO_BATCH", "1")
        else:
            monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        key = app if preset is None else f"{app}/ppfs/{preset}"
        assert _hashes(app, preset) == GOLDEN[key], (
            f"{key} with {mode} execution drifted from the golden fixture — "
            f"the batched and scalar paths no longer agree byte-for-byte"
        )
