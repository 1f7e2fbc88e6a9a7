"""Scenario: everything needed to assemble one experiment.

Defaults describe the paper's prototype: six server nodes, each with a
12 V / 35 Ah battery, an 8 kWh-per-sunny-day solar line, the six HiBench/
CloudSuite workloads (one VM each), an 8:30-18:30 operating window, and
no utility backing for the compute load.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.battery.params import BatteryParams
from repro.battery.unit import BatteryUnit
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.datacenter.server import Server, ServerParams
from repro.datacenter.vm import VM
from repro.datacenter.workloads import WorkloadProfile, standard_mix
from repro.errors import ConfigurationError
from repro.rng import DEFAULT_SEED, spawn
from repro.solar.irradiance import ClearSkyModel
from repro.solar.panel import PVPanel
from repro.solar.trace import SolarTraceGenerator


@dataclass(frozen=True)
class Scenario:
    """Immutable experiment description.

    Attributes
    ----------
    n_nodes:
        Number of server+battery nodes (the prototype has six).
    battery / server:
        Component parameter sets shared by all nodes.
    sunny_day_kwh:
        Solar energy budget of a fully sunny day (paper: 8 kWh).
    operating_window_h:
        Local-hour window in which servers run (paper: ~8:30-18:30).
    dt_s / control_interval_s:
        Simulation step and policy control period.
    utility_budget_w:
        Optional capped grid assist for the compute load (0 = pure green).
    manufacturing_variation:
        Apply per-unit initial-capacity variation (the aging-variation
        source the paper attributes to manufacturing).
    initial_fade:
        Pre-age every battery to this capacity fade before the run
        ("old battery" experiments use ~0.12).
    workloads:
        One VM is created per profile; defaults to the six-app mix.
    seed:
        Root seed for every stochastic stream.
    """

    n_nodes: int = 6
    battery: BatteryParams = field(default_factory=BatteryParams)
    server: ServerParams = field(default_factory=ServerParams)
    sunny_day_kwh: float = 8.0
    clear_sky: ClearSkyModel = field(default_factory=ClearSkyModel)
    operating_window_h: Tuple[float, float] = (8.5, 18.5)
    dt_s: float = 60.0
    control_interval_s: float = 300.0
    utility_budget_w: float = 0.0
    manufacturing_variation: bool = True
    initial_fade: float = 0.0
    initial_soc: float = 1.0
    #: Diurnal ambient temperature around the battery shelf: mean deg C
    #: and peak-to-trough swing. Temperature doubles aging per +10 deg C
    #: (section III-E), so afternoon heat coinciding with deep discharge
    #: is a real interaction the simulator should carry.
    ambient_mean_c: float = 25.0
    ambient_swing_c: float = 6.0
    workloads: Optional[Tuple[WorkloadProfile, ...]] = None
    #: Energy storage architecture (paper Fig. 7): "per-server" gives each
    #: server its own battery (Google style); "rack-pool" shares all
    #: batteries behind one rack bus (Facebook Open-Rack style), and runs
    #: on the fleet stepper only.
    architecture: str = "per-server"
    #: Engine stepping implementation of power routing, battery and
    #: server physics and VM advance: "reference" walks the node objects
    #: one by one (the original, easiest-to-audit path); "fleet" runs them
    #: as the vectorized struct-of-arrays kernels in :mod:`repro.sim.fleet`,
    #: bit-compatible with the reference (see
    #: tests/test_fleet_equivalence.py) but much faster at rack scale.
    #: Both run the same control passes (``Policy.control_fleet``), the
    #: reference on a capture of its objects. Only "fleet" routes the
    #: rack-pool architecture.
    stepper: str = "reference"
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigurationError("n_nodes must be positive")
        if self.architecture not in ("per-server", "rack-pool"):
            raise ConfigurationError(
                f"unknown architecture {self.architecture!r}; "
                "choose 'per-server' or 'rack-pool'"
            )
        if self.stepper not in ("reference", "fleet"):
            raise ConfigurationError(
                f"unknown stepper {self.stepper!r}; choose 'reference' or 'fleet'"
            )
        if self.architecture == "rack-pool" and self.stepper != "fleet":
            raise ConfigurationError(
                "the rack-pool architecture runs on the fleet stepper only"
            )
        if self.sunny_day_kwh <= 0:
            raise ConfigurationError("sunny_day_kwh must be positive")
        lo, hi = self.operating_window_h
        if not 0.0 <= lo < hi <= 24.0:
            raise ConfigurationError("operating_window_h must satisfy 0 <= lo < hi <= 24")
        if self.dt_s <= 0 or self.control_interval_s < self.dt_s:
            raise ConfigurationError("need dt_s > 0 and control_interval_s >= dt_s")
        if not 0.0 <= self.initial_fade < 0.95:
            raise ConfigurationError("initial_fade must be in [0, 0.95)")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ConfigurationError("initial_soc must be in [0, 1]")

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def effective_workloads(self) -> Tuple[WorkloadProfile, ...]:
        """The workload mix this scenario deploys."""
        return self.workloads if self.workloads is not None else standard_mix()

    def build_cluster(self) -> Cluster:
        """Construct fresh nodes (servers + batteries + trackers)."""
        nodes: List[Node] = []
        for i in range(self.n_nodes):
            name = f"node{i}"
            cap_factor = 1.0
            if self.manufacturing_variation:
                rng = spawn(self.seed, f"battery-mfg/{i}")
                sigma = self.battery.manufacturing_capacity_sigma
                cap_factor = float(max(0.85, 1.0 + rng.normal(0.0, sigma)))
            battery = BatteryUnit(
                params=self.battery,
                name=f"{name}/battery",
                initial_soc=self.initial_soc,
                capacity_factor=cap_factor,
            )
            if self.initial_fade > 0.0:
                self._pre_age(battery, self.initial_fade)
            server = Server(params=self.server, name=name)
            nodes.append(Node.build(name, server=server, battery=battery))
        return Cluster(nodes)

    @staticmethod
    def _pre_age(battery: BatteryUnit, fade: float) -> None:
        """Pre-age a battery by injecting mechanism damage in the typical
        cycling proportions (an "old" battery for the Fig. 13 runs)."""
        shares = {
            "active_mass": 0.55,
            "sulphation": 0.15,
            "corrosion": 0.12,
            "water_loss": 0.12,
            "stratification": 0.06,
        }
        for name, share in shares.items():
            battery.aging.state.damage[name] = fade * share
        # An old battery has also consumed a matching slice of its
        # life-long throughput (used by planned aging's Eq. 7).
        battery.aging.state.discharged_ah = (
            fade / 0.20 * 0.8 * battery.params.lifetime_ah_throughput
        )

    def build_vms(self) -> List[VM]:
        """One VM per workload profile."""
        return [
            VM(name=f"vm-{profile.name}", workload=profile)
            for profile in self.effective_workloads()
        ]

    def panel(self) -> PVPanel:
        """The scenario's PV array, sized to the sunny-day budget."""
        return PVPanel.sized_for_daily_energy(self.sunny_day_kwh, self.clear_sky)

    def trace_generator(self) -> SolarTraceGenerator:
        """A solar trace generator bound to this scenario's panel/seed."""
        return SolarTraceGenerator(self.panel(), seed=self.seed, dt_s=self.dt_s)

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_server_to_battery_ratio(self, w_per_ah: float) -> "Scenario":
        """Scale server power so peak-W / battery-Ah equals ``w_per_ah``
        (the Fig. 15 sweep)."""
        if w_per_ah <= 0:
            raise ConfigurationError("w_per_ah must be positive")
        target_peak = w_per_ah * self.battery.capacity_ah
        factor = target_peak / self.server.peak_w
        return replace(self, server=self.server.scaled(factor))

    @property
    def server_to_battery_ratio(self) -> float:
        """Peak server watts per battery amp-hour."""
        return self.server.peak_w / self.battery.capacity_ah
