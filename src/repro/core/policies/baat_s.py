"""BAAT-s: slowdown-only scheme (paper Table 4).

"Only use aging-aware CPU frequency throttling to slow down battery
aging." Placement stays aging-blind; the Fig.-9 monitor runs with
``prefer_migration=False`` so every violation is answered with DVFS. The
paper calls this "a passive solution [that] leads to workload performance
degradation" — the throughput cost shows up in Fig. 20 while the aging
benefit shows up in Figs. 13/14.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.policies.base import Policy
from repro.core.slowdown import SlowdownConfig, SlowdownMonitor
from repro.datacenter.vm import VM

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fleet import FleetState


class BAATSlowdownPolicy(Policy):
    """Aging-aware DVFS power capping only."""

    name = "baat-s"

    def __init__(self, config: Optional[SlowdownConfig] = None) -> None:
        super().__init__()
        base = config or SlowdownConfig()
        # Force the DVFS-only ladder regardless of the supplied config.
        self.slowdown_config = SlowdownConfig(
            low_soc_threshold=base.low_soc_threshold,
            ddt_threshold=base.ddt_threshold,
            reserve_seconds_threshold=base.reserve_seconds_threshold,
            recovery_soc=base.recovery_soc,
            protected_soc=base.protected_soc,
            window_end_h=base.window_end_h,
            prefer_migration=False,
            allow_parking=False,
        )

    def _after_bind(self) -> None:
        assert self.cluster is not None and self.controller is not None
        self.monitor = SlowdownMonitor(
            self.cluster,
            self.controller,
            scheduler=None,
            config=self.slowdown_config,
            window_end_h=self._scenario_window_end_h(),
        )

    def place_vm(self, vm: VM) -> str:
        self._require_bound()
        assert self.scheduler is not None
        return self.scheduler.place_naive(vm)

    def control_fleet(
        self,
        t: float,
        dt: float,
        fleet: "FleetState",
        solar_w: float = 0.0,
    ) -> bool:
        """BAAT-s control is the Fig.-9 monitor alone."""
        assert self.monitor is not None
        self.monitor.fleet_control(t, fleet)
        return True

    def describe(self) -> str:
        return "Only use aging-aware CPU frequency throttling to slow down battery aging"
