"""Run specifications: one (scenario, policy, trace) cell of a campaign.

A :class:`RunSpec` is a *description* of a run, not a live simulation —
it must survive pickling into a worker process, so it names the policy
(either by its Table-4 factory name or by a picklable zero-argument
factory) instead of carrying a constructed :class:`~repro.core.policies.
base.Policy`.

:func:`batched` steps several cells as one batched simulation; inside
its block each cell's :meth:`RunSpec.execute` hands back the cell's
share of the batch.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign.cache import callable_token, canonical, object_key
from repro.core.policies.base import Policy
from repro.core.policies.factory import make_policy
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation, batch_key
from repro.sim.results import SimResult
from repro.sim.scenario import Scenario
from repro.solar.trace import SolarTrace


@dataclass(frozen=True)
class RunSpec:
    """One campaign cell.

    Attributes
    ----------
    scenario / trace:
        The experiment description and the matched solar trace.
    policy:
        Table-4 scheme name, built in the worker via
        :func:`~repro.core.policies.factory.make_policy` with the
        scenario's seed. Mutually exclusive with ``policy_factory``.
    policy_factory:
        Zero-argument callable returning a fresh policy (module-level
        functions, classes, and :func:`functools.partial` of those are
        picklable *and* hashable; lambdas/closures force the spec to run
        in-process and uncached).
    label:
        Key for this cell in campaign reports (defaults to ``policy``).
    """

    scenario: Scenario
    trace: SolarTrace
    policy: Optional[str] = None
    policy_factory: Optional[Callable[[], Policy]] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.policy is None) == (self.policy_factory is None):
            raise ConfigurationError(
                "exactly one of policy (name) or policy_factory is required"
            )
        if self.policy_factory is not None and not callable(self.policy_factory):
            raise ConfigurationError("policy_factory must be callable")

    # ------------------------------------------------------------------
    @property
    def effective_label(self) -> str:
        """Report key for this cell."""
        if self.label:
            return self.label
        if self.policy:
            return self.policy
        return getattr(self.policy_factory, "__name__", repr(self.policy_factory))

    def _policy_token(self) -> Optional[Tuple]:
        if self.policy is not None:
            return ("named-policy", self.policy, self.scenario.seed)
        return callable_token(self.policy_factory)

    @property
    def cacheable(self) -> bool:
        """Whether this spec has a deterministic content identity."""
        return self._policy_token() is not None

    def cache_key(self) -> Optional[str]:
        """Content-hash key for the run, or ``None`` when uncacheable."""
        policy_token = self._policy_token()
        if policy_token is None:
            return None
        return object_key(
            "run-spec",
            canonical(self.scenario),
            policy_token,
            canonical(self.trace),
        )

    # ------------------------------------------------------------------
    def build_policy(self) -> Policy:
        """Construct a fresh policy instance for this cell."""
        if self.policy is not None:
            return make_policy(self.policy, seed=self.scenario.seed)
        return self.policy_factory()

    def build_simulation(self) -> Simulation:
        """Construct the simulation (not yet run)."""
        return Simulation(self.scenario, self.build_policy(), self.trace)

    @property
    def batch_key(self) -> Optional[Tuple]:
        """Cells with one key can step as one batch (see
        :func:`~repro.sim.engine.batch_key`); ``None`` for a cell that
        always runs alone: one on the reference stepper."""
        return batch_key(self.scenario, self.trace)

    def execute(self) -> SimResult:
        """Run this cell to completion (in whatever process we are in).

        Inside a :func:`batched` block, a cell the batch already stepped
        is not run again: its first call returns the batch's result for
        it, or raises the batch's error for it.
        """
        serving = _SERVING.get()
        outcome = serving.pop(id(self), None) if serving else None
        if outcome is None:
            return self.build_simulation().run()
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


Outcome = Union[SimResult, Exception]

#: Inside a batched() block: the outcomes its cells' execute() has not
#: collected yet, by spec identity.
_SERVING: ContextVar[Optional[Dict[int, Outcome]]] = ContextVar(
    "batch_outcomes", default=None
)


@contextmanager
def batched(specs: Sequence[RunSpec]) -> Iterator[None]:
    """Step ``specs`` (one batch key) as one batched simulation on the
    fleet stepper, then serve each cell's outcome to its first
    :meth:`RunSpec.execute` inside the block.

    Each cell's result equals its run alone, bit for bit. A cell whose
    policy or cell fails to build, or whose policy hooks raise, ends
    alone; an error of the batch as a whole ends every cell. Either way
    the error is what that cell's execute() raises, so retries run the
    cell alone.
    """
    outcomes = _step_batch(specs)
    token = _SERVING.set({id(s): o for s, o in zip(specs, outcomes)})
    try:
        yield
    finally:
        _SERVING.reset(token)


def _step_batch(specs: Sequence[RunSpec]) -> List[Outcome]:
    outcomes: List[Optional[Outcome]] = [None] * len(specs)
    runs = []
    for k, spec in enumerate(specs):
        try:
            runs.append((k, (spec.scenario, spec.build_policy(), spec.trace)))
        except Exception as exc:  # noqa: BLE001 - this cell's error
            outcomes[k] = exc
    if runs:
        try:
            stepped = Simulation.batch([run for _, run in runs]).run_cells()
        except Exception as exc:  # noqa: BLE001 - every cell's error
            stepped = [exc] * len(runs)
        for (k, _), outcome in zip(runs, stepped):
            outcomes[k] = outcome
    return outcomes
