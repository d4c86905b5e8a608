"""Application registry: names -> configs and experiment builders.

Gives benches/examples one place to enumerate the study's applications
and build paper-scale or test-scale experiments by name.
"""

from __future__ import annotations

from typing import Any, Callable

from ..apps.workloads import (
    paper_checkpoint,
    paper_escat,
    paper_htf,
    paper_machine,
    paper_render,
    production_checkpoint,
    production_escat,
    production_htf,
    production_machine,
    production_render,
    small_checkpoint,
    small_escat,
    small_htf,
    small_machine,
    small_render,
    small_trace,
    paper_trace,
    production_trace,
)
from .experiment import Experiment

__all__ = [
    "APPLICATIONS",
    "SCALES",
    "paper_experiment",
    "small_experiment",
    "production_experiment",
]

#: name -> (paper, small, production) config factories.  Indexes 0 and 1
#: predate the production preset and stay stable for existing callers.
APPLICATIONS: dict[str, tuple[Callable[[], Any], ...]] = {
    "escat": (paper_escat, small_escat, production_escat),
    "render": (paper_render, small_render, production_render),
    "htf": (paper_htf, small_htf, production_htf),
    "checkpoint": (paper_checkpoint, small_checkpoint, production_checkpoint),
    # Trace replay: the "bring your own app" entry.  Its presets are
    # scale-free placeholders — the ingested trace supplies the workload
    # (repro run trace --input FILE).
    "trace": (paper_trace, small_trace, production_trace),
}


#: scale -> (machine factory, index of the scale's preset in each
#: APPLICATIONS row).  The one scale table: the CLI, campaigns and the
#: vfs harness all resolve a scale name here.
SCALES: dict[str, tuple[Callable[..., Any], int]] = {
    "paper": (paper_machine, 0),
    "small": (small_machine, 1),
    "production": (production_machine, 2),
}


def _scaled_experiment(scale: str, app: str, **kwargs) -> Experiment:
    """The ``scale`` experiment for ``app`` (kwargs override fields)."""
    if app not in APPLICATIONS:
        raise KeyError(f"unknown application {app!r}")
    machine, index = SCALES[scale]
    kwargs.setdefault("machine_factory", machine)
    kwargs.setdefault("config", APPLICATIONS[app][index]())
    return Experiment(app=app, **kwargs)


def paper_experiment(app: str, **kwargs) -> Experiment:
    """The paper-scale experiment for ``app`` (kwargs override fields)."""
    return _scaled_experiment("paper", app, **kwargs)


def small_experiment(app: str, **kwargs) -> Experiment:
    """A fast, structure-preserving miniature for tests and examples."""
    return _scaled_experiment("small", app, **kwargs)


def production_experiment(app: str, **kwargs) -> Experiment:
    """The 2048-node production-scale experiment for ``app``."""
    return _scaled_experiment("production", app, **kwargs)
