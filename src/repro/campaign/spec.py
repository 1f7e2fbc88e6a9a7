"""Run specifications: one (scenario, policy, trace) cell of a campaign.

A :class:`RunSpec` is a *description* of a run, not a live simulation —
it must survive pickling into a worker process, so it names the policy
(either by its Table-4 factory name or by a picklable zero-argument
factory) instead of carrying a constructed :class:`~repro.core.policies.
base.Policy`, and its optional ``setup`` hook is a picklable callable
applied to the freshly built :class:`~repro.sim.engine.Simulation` before
stepping (sensitivity analysis swaps perturbed aging models in there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.campaign.cache import callable_token, canonical, object_key
from repro.core.policies.base import Policy
from repro.core.policies.factory import make_policy
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation
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
    setup:
        Optional hook ``setup(sim)`` run after the simulation is built
        and before any stepping.
    label:
        Key for this cell in campaign reports (defaults to ``policy``).
    """

    scenario: Scenario
    trace: SolarTrace
    policy: Optional[str] = None
    policy_factory: Optional[Callable[[], Policy]] = None
    setup: Optional[Callable[[Simulation], None]] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.policy is None) == (self.policy_factory is None):
            raise ConfigurationError(
                "exactly one of policy (name) or policy_factory is required"
            )
        if self.policy_factory is not None and not callable(self.policy_factory):
            raise ConfigurationError("policy_factory must be callable")
        if self.setup is not None and not callable(self.setup):
            raise ConfigurationError("setup must be callable")

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

    def _setup_token(self) -> Optional[Any]:
        if self.setup is None:
            return ("no-setup",)
        return callable_token(self.setup)

    @property
    def cacheable(self) -> bool:
        """Whether this spec has a deterministic content identity."""
        return self._policy_token() is not None and self._setup_token() is not None

    def cache_key(self) -> Optional[str]:
        """Content-hash key for the run, or ``None`` when uncacheable."""
        policy_token = self._policy_token()
        setup_token = self._setup_token()
        if policy_token is None or setup_token is None:
            return None
        return object_key(
            "run-spec",
            canonical(self.scenario),
            policy_token,
            setup_token,
            canonical(self.trace),
        )

    # ------------------------------------------------------------------
    def build_policy(self) -> Policy:
        """Construct a fresh policy instance for this cell."""
        if self.policy is not None:
            return make_policy(self.policy, seed=self.scenario.seed)
        return self.policy_factory()

    def build_simulation(self) -> Simulation:
        """Construct the simulation (setup hook applied, not yet run)."""
        sim = Simulation(self.scenario, self.build_policy(), self.trace)
        if self.setup is not None:
            self.setup(sim)
        return sim

    def execute(self) -> SimResult:
        """Run this cell to completion (in whatever process we are in)."""
        return self.build_simulation().run()
