"""Public experiment registry.

Experiments register themselves here at import time (importing
:mod:`repro.experiments` is enough — no private bootstrap calls), and
the CLI, benchmark harness and library users all go through the same
three entry points:

* :func:`register_experiment` — add (or override) an experiment by id,
  optionally with a declarative :class:`~repro.experiments.engine.ExperimentPlan`
  builder so the parallel engine can schedule it;
* :func:`available_experiments` — sorted ids;
* :func:`get_experiment` / :func:`get_plan` — look up the runner-based
  callable and (when declared) the plan builder.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ExperimentPlan
    from .report import ExperimentResult
    from .runner import ExperimentScale, Runner

ExperimentFn = Callable[["Runner"], "ExperimentResult"]
PlanFn = Callable[["ExperimentScale"], "ExperimentPlan"]

#: id -> runner-based implementation (every experiment has one).
EXPERIMENTS: Dict[str, ExperimentFn] = {}

#: id -> plan builder, for experiments the parallel engine can schedule.
PLANS: Dict[str, PlanFn] = {}


def register_experiment(
    experiment_id: str,
    fn: ExperimentFn,
    *,
    plan: Optional[PlanFn] = None,
    overwrite: bool = True,
) -> None:
    """Register an experiment id (last registration wins by default)."""
    if not overwrite and experiment_id in EXPERIMENTS:
        return
    EXPERIMENTS[experiment_id] = fn
    if plan is not None:
        PLANS[experiment_id] = plan
    elif overwrite:
        PLANS.pop(experiment_id, None)


def available_experiments() -> List[str]:
    """Sorted ids of every registered experiment."""
    return sorted(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentFn:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {available_experiments()}"
        ) from None


def get_plan(experiment_id: str) -> Optional[PlanFn]:
    """The plan builder for an id, or None for runner-only experiments."""
    return PLANS.get(experiment_id)
