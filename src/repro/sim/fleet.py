"""Vectorised fleet stepping: struct-of-arrays node state + power path.

The reference engine advances each node's battery and server objects
through a deep per-node call chain every step; at rack and fleet scale
that chain dominates wall-clock. This module provides a fast path that
holds the whole fleet's battery, tracker, server power and VM state in
flat numpy arrays (:class:`FleetState`) and replays the *exact* same
arithmetic as array passes (:class:`FleetPowerPath`, and the VM-advance
pass :meth:`FleetState.advance_vms`).

Bit-compatibility contract
--------------------------
The fast path must produce bit-identical results to the per-node path —
same ``SimResult``, same recorder series, same RNG draw order. Three rules
make that possible:

- every add/sub/mul/div/min/max is IEEE-754-exact elementwise, so those
  move to numpy with the *same association order* as the scalar code;
- ``**`` and ``exp`` are *not* guaranteed to match between numpy array
  kernels and Python's libm-backed scalar operators, so every
  transcendental (Arrhenius, OCV fade, Peukert, rate/mass stress,
  thermal decay, self-discharge) is computed per element with Python
  floats, exactly as the scalar models do. Every pow goes through
  :func:`~repro.numerics.scalar_pow`, which maps builtin ``pow`` over
  the ``tolist()`` floats into ``np.fromiter``: builtin ``pow`` on two
  floats is the C ``float_pow`` that ``b ** e`` calls, so it is exact
  by construction, with no bytecode run per element;
- sequential folds (the utility budget, the charge walk's surplus, flow
  sums) stay strict left folds in the reference iteration order:
  ``np.add.accumulate``/``np.subtract.accumulate`` where the reference
  loops ``+=``/``-=``, and builtin ``sum()`` where it calls ``sum()``
  (never the pairwise ``np.sum``).

RNG draws keep the reference order: one vector of standard normals per
cell, scaled by ``sd[mask]`` over the VM table (node order, then
``server.vms`` order), yields the same values and generator state as the
per-VM scalar ``rng.normal(0.0, sd)`` draws.

Batches
-------
A :class:`FleetState` may hold several independent runs (*cells*) on
one node axis, each cell one cluster. Everything elementwise per node
runs once for the whole batch; what the reference folds across a
cluster (the solar share and restart guess, the utility budget, the
charge walk's surplus, the flow sums and grid feedback) and the demand
noise stay per cell, each in the order the cell alone would use, so
every cell is bit-identical to its run alone. The per-cell folds and the
charge walk run as one pass over a grid with a row per cell (padded to
the widest cell), so a step issues about as many numpy calls for a batch
as for one cell. Policies read their cell through a :class:`FleetCell`
view.

Architectures
-------------
:class:`FleetPowerPath` routes a batch by one of the paper's two storage
architectures (Fig. 7), chosen at build: per-server batteries, each
bridging its own server's deficit, or a rack-shared pool, whose members
are the rack's own node batteries (so the same per-node arrays), pooled
by five routing rules: restart, aggregate allocation, proportional
discharge split, worst-deficit-first shedding and emptiest-first pool
charge. Both reuse the same battery kernels.

The fast path intentionally supports only the configuration the scalar
models ship with: plain :class:`BatteryUnit`, :class:`Server`,
:class:`VM` and :class:`WorkloadProfile` instances, and the five default
aging mechanisms. Anything else raises
:class:`~repro.errors.ConfigurationError` at build time rather than
silently diverging from the scalar models.
"""

from __future__ import annotations

import functools
import math
import operator
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.battery.aging.mechanisms import (
    EOL_FADE,
    ActiveMassDegradation,
    GridCorrosion,
    Stratification,
    Sulphation,
    WaterLoss,
)
from repro.battery.aging.model import (
    COULOMBIC_DEGRADATION,
    RESISTANCE_GROWTH_GAIN,
    AgingModel,
)
from repro.battery.charger import Charger
from repro.battery.peukert import peukert_factor_array
from repro.battery.unit import BatteryUnit
from repro.battery.voltage import (
    LOW_SOC_KNEE,
    LOW_SOC_SAG_V,
    OCV_FADE_COEFF,
    OCV_FADE_EXPONENT,
)
from repro.datacenter.cluster import Cluster
from repro.datacenter.power_path import RESTART_SOC, PowerFlows, PowerPath
from repro.datacenter.server import (
    DVFS_POWER_EXPONENT,
    IDLE_DYNAMIC_FRACTION,
    Server,
    ServerPowerState,
)
from repro.datacenter.vm import MIGRATION_POWER_W, VM
from repro.datacenter.workloads import WorkloadProfile
from repro.errors import ConfigurationError
from repro.numerics import scalar_pow
from repro.obs import BUS, REGISTRY
from repro.obs.events import BrownoutEvent
from repro.obs.telemetry import TELEMETRY
from repro.obs.timers import StepPhaseTimers
from repro.units import SECONDS_PER_HOUR

#: Canonical mechanism order; row indices of ``FleetState.damage``.
MECHANISM_ORDER = (
    GridCorrosion,
    ActiveMassDegradation,
    Sulphation,
    WaterLoss,
    Stratification,
)
_STRAT_ROW = 4

#: Node-op codes for one step (every battery is touched exactly once).
_OP_REST = 0  # rest(): age at 0 A, reset last_current
_OP_REST_KEEP = 1  # discharge cut-off/dead branch: age at 0 A, keep last_current
_OP_DISCHARGE = 2
_OP_CHARGE = 3

#: Server power-state codes of ``FleetState.server_state``.
_UP, _DOWN, _BOOTING = 0, 1, 2
_STATE_CODE = {
    ServerPowerState.UP: _UP,
    ServerPowerState.DOWN: _DOWN,
    ServerPowerState.BOOTING: _BOOTING,
}

#: Tracker region rows (paper Eq. 3): A (>=0.8), B, C, D.
_REGION_LABELS = ("A", "B", "C", "D")

#: Region boundaries: ``searchsorted(_REGION_EDGES, soc, "right")`` counts
#: the boundaries at or below ``soc``, 3 minus its region row (A..D).
_REGION_EDGES = np.array([0.40, 0.60, 0.80])

#: Active-mass SoC stress weights of regions D..A, indexed by that count.
_SOC_WEIGHTS_BY_RANK = np.array([3.0, 2.1, 1.5, 1.0])


#: An empty node-index array.
_NO_NODES = np.zeros(0, dtype=np.intp)

#: The demand noise generator(s): one for a single cell, one per cell for
#: a batch.
Rngs = Union[np.random.Generator, Sequence[np.random.Generator]]


def _clamp01(values: np.ndarray) -> np.ndarray:
    """Vector twin of ``clamp(v, 0.0, 1.0)`` (= max(0, min(1, v)))."""
    return np.maximum(0.0, np.minimum(1.0, values))


def _low_soc_sag(
    soc: np.ndarray, soc_c: np.ndarray
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Which SoCs are below the low-SoC knee, and the voltage model's
    ``LOW_SOC_SAG_V * depth`` there (``None`` when none is)."""
    knee = soc < LOW_SOC_KNEE
    if not np.count_nonzero(knee):
        return knee, None
    return knee, LOW_SOC_SAG_V * ((LOW_SOC_KNEE - soc_c) / LOW_SOC_KNEE)


def _terminal_voltage(
    v0: np.ndarray,
    current: np.ndarray,
    res: np.ndarray,
    i_ref: np.ndarray,
    knee: np.ndarray,
    sag: Optional[np.ndarray],
) -> np.ndarray:
    """Vector :meth:`VoltageModel.terminal_voltage` from the open-circuit
    voltage ``v0`` and :func:`_low_soc_sag`: the IR drop, and the sag of
    a discharge below the knee."""
    v = v0 - current * res
    if sag is not None:
        sagging = knee & (current > 0.0)
        if np.count_nonzero(sagging):
            rate = np.minimum(current / i_ref, 4.0) / 4.0
            v = np.where(sagging, v - sag * rate, v)
    return v


class _Derived(dict):
    """:meth:`FleetState.derived`'s memoized result: a dict whose
    ``"ocv_hi"`` entry ``make_ocv_hi()`` computes on its first read."""

    def __init__(self, values: Dict[str, np.ndarray], make_ocv_hi):
        super().__init__(values)
        self._make_ocv_hi = make_ocv_hi

    def __missing__(self, key: str) -> np.ndarray:
        if key != "ocv_hi":
            raise KeyError(key)
        value = self[key] = self._make_ocv_hi()
        return value


def _idle_power_w(server: Server) -> float:
    """Idle draw at the server's current frequency: the expression
    :meth:`Server.power` evaluates for a booting or VM-less up server."""
    p = server.params
    return p.idle_w * (1.0 - IDLE_DYNAMIC_FRACTION * (1.0 - server.frequency))


class FleetState:
    """Struct-of-arrays mirror of every node's battery, tracker, server
    power and VM state.

    Battery and tracker arrays are authoritative between :meth:`capture`
    and :meth:`materialize`; the per-node objects are only synchronised
    at policy/inspection boundaries. Node arrays are ordered like
    ``cluster.nodes`` (cluster after cluster for a batch); the VM table
    (``vm_*`` arrays, ``vms``) is ordered by node, then by
    ``server.vms``, with ``vm_node`` the host's index.

    Server and VM state have four kinds of writer:

    - the power path owns ``server_state``, ``boot_left_s`` and
      ``downtime_s``. State transitions (power-on, brownout, finished
      boot) are sparse and written straight through to the
      :class:`Server` objects, so ``server.state`` is always current for
      policies; downtime and boot time left are written back in
      :meth:`materialize`;
    - the demand kernel and :meth:`advance_vms` own the VM table's
      dynamic columns (``vm_stall_s``, ``vm_progress`` and the
      per-timestamp utilisation cache ``vm_cache_t``/``vm_cache_util``),
      written back to the :class:`VM` objects in :meth:`materialize`. A
      brownout's checkpoint stall is written through;
    - the engine's operating-window fan-out writes ``admin_off`` through
      :meth:`set_admin_off`;
    - control-plane inputs (``policy_off_mask``, ``freq_index``,
      ``frequency``, ``f_pow``, ``idle_now_w``, ``discharge_cap_w``,
      ``hosting``) are re-read from the objects by
      :meth:`refresh_policy_view` after any pass that may have changed
      them, or for one node by :meth:`refresh_node`. The VM table
      (layout, workload columns and dynamic columns) is rebuilt by
      :meth:`refresh_policy_view`, whose callers :meth:`materialize`
      before acting on the objects (placing or migrating VMs);
      :meth:`refresh_node` leaves it alone.
    """

    def __init__(self, cluster: Union[Cluster, Sequence[Cluster]]):
        clusters = [cluster] if isinstance(cluster, Cluster) else list(cluster)
        for c in clusters:
            self.validate(c)
        self.nodes = [node for c in clusters for node in c.nodes]
        self.n = len(self.nodes)
        #: Node ranges of the cells: cell k owns nodes ``cells[k][0]`` up
        #: to ``cells[k][1]``. One cell per cluster; a batch of several
        #: independent runs concatenates their clusters on the node axis.
        bounds = [0]
        for c in clusters:
            bounds.append(bounds[-1] + len(c.nodes))
        self.cells: Tuple[Tuple[int, int], ...] = tuple(zip(bounds, bounds[1:]))
        self.n_cells = len(self.cells)
        self._bounds = np.array(bounds, dtype=np.intp)
        #: Per node, the index of its cell.
        self.cell_index = np.repeat(
            np.arange(self.n_cells), np.diff(self._bounds)
        )
        # The cells as the rows of an (n_cells, widest cell + 1) grid, so
        # a per-cell fold or walk is one pass for the whole batch: grid
        # slot (c, j) holds cell c's j-th node. Slots past a cell's end
        # (``~_grid_valid``, at least one per row) repeat its first node;
        # every reader masks them.
        sizes = np.diff(self._bounds)
        self._grid_col = np.arange(int(sizes.max()) + 1)
        self._grid_valid = self._grid_col < sizes[:, None]
        first = self._bounds[:-1, None]
        self._grid = np.where(self._grid_valid, first + self._grid_col, first)
        self._grid_rows = np.arange(self.n_cells)
        self._alloc_constants()
        # Cached per-dt exponential factors (thermal decay, self-discharge).
        self._decay_dt: float | None = None
        self._decay: np.ndarray | None = None
        self._sd_factor: np.ndarray | None = None
        #: Monotone state generation: bumped whenever the arrays take new
        #: values (capture, end of a power step, server transitions) so
        #: per-step derived() results and node rankings can be memoized
        #: safely.
        self._state_version = 0
        self._derived_cache: Dict[float, Tuple[int, Dict[str, np.ndarray]]] = {}
        # Per-label (epoch, arrays) snapshots of tracker marks.
        self._mark_cache: Dict[str, Tuple[int, Dict[str, np.ndarray]]] = {}
        self.capture()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def validate(cluster: Cluster) -> None:
        """Reject configurations the vectorised kernels do not replicate.

        The kernels transcribe the concrete default models; subclasses or
        custom mechanism sets would silently diverge, so they are refused
        loudly instead.
        """
        FleetState.validate_vms(cluster)
        for node in cluster.nodes:
            if type(node.server) is not Server:
                raise ConfigurationError(
                    f"fleet stepper requires plain Server nodes; "
                    f"{node.name} has {type(node.server).__name__}"
                )
            b = node.battery
            if type(b) is not BatteryUnit:
                raise ConfigurationError(
                    f"fleet stepper requires plain BatteryUnit nodes; "
                    f"{node.name} has {type(b).__name__}"
                )
            if type(b.aging) is not AgingModel:
                raise ConfigurationError(
                    f"fleet stepper requires the default AgingModel; "
                    f"{node.name} has {type(b.aging).__name__}"
                )
            if type(b.charger) is not Charger:
                raise ConfigurationError(
                    f"fleet stepper requires the default Charger; "
                    f"{node.name} has {type(b.charger).__name__}"
                )
            mechs = b.aging.mechanisms
            if len(mechs) != len(MECHANISM_ORDER) or any(
                type(m) is not cls for m, cls in zip(mechs, MECHANISM_ORDER)
            ):
                raise ConfigurationError(
                    f"fleet stepper requires the five default aging "
                    f"mechanisms in canonical order; {node.name} differs"
                )

    @staticmethod
    def validate_vms(cluster: Cluster) -> None:
        """The VM part of :meth:`validate`, run again when VMs are
        deployed."""
        for node in cluster.nodes:
            for vm in node.server.vms:
                if type(vm) is not VM:
                    raise ConfigurationError(
                        f"fleet stepper requires plain VMs; "
                        f"{vm.name} on {node.name} is {type(vm).__name__}"
                    )
                if type(vm.workload) is not WorkloadProfile:
                    raise ConfigurationError(
                        f"fleet stepper requires plain WorkloadProfile "
                        f"workloads; {vm.name} runs {type(vm.workload).__name__}"
                    )

    # ------------------------------------------------------------------
    # Allocation and synchronisation
    # ------------------------------------------------------------------
    def _alloc_constants(self) -> None:
        n = self.n

        def arr(get) -> np.ndarray:
            return np.array([float(get(node)) for node in self.nodes])

        p = lambda node: node.battery.params  # noqa: E731
        #: The aging model's capacity base (manufacturing-adjusted, unfaded).
        self.cap_scaled = np.array(
            [
                float(nd.battery.params.capacity_ah * nd.battery.capacity_factor)
                for nd in self.nodes
            ]
        )
        self.cutoff_soc = arr(lambda nd: p(nd).cutoff_soc)
        self.cutoff_v = arr(lambda nd: p(nd).cutoff_voltage)
        self.r0 = arr(lambda nd: p(nd).internal_resistance_ohm)
        self.ocv_full = arr(lambda nd: p(nd).ocv_full)
        self.ocv_empty = arr(lambda nd: p(nd).ocv_empty)
        self.i_ref = arr(lambda nd: p(nd).reference_current)
        self.k_minus_1 = arr(lambda nd: p(nd).peukert_exponent - 1.0)
        self.gassing_soc = arr(lambda nd: p(nd).gassing_soc)
        self.coul_base = arr(lambda nd: p(nd).coulombic_efficiency)
        self.tau = arr(
            lambda nd: p(nd).thermal_capacity_j_per_k * p(nd).thermal_resistance_k_per_w
        )
        self.r_th = arr(lambda nd: p(nd).thermal_resistance_k_per_w)
        self.sd_rate = arr(lambda nd: p(nd).self_discharge_per_day)
        self.charge_max = arr(lambda nd: nd.battery.charger.max_current)
        self.charge_float = arr(lambda nd: nd.battery.charger.float_current)
        self.taper_start = arr(lambda nd: nd.battery.charger.params.taper_start_soc)
        self.feedback_gain = arr(lambda nd: nd.battery.aging.feedback_gain)
        # Mechanism calibration, read off the instances so re-calibrated
        # (but structurally default) models still match.
        mech = lambda nd, i: nd.battery.aging.mechanisms[i]  # noqa: E731
        self.cor_base = arr(lambda nd: mech(nd, 0).base_rate)
        self.cor_float_mult = arr(lambda nd: mech(nd, 0).float_multiplier)
        self.cor_high_mult = arr(lambda nd: mech(nd, 0).high_soc_multiplier)
        self.am_pcf = np.array(
            [
                float(EOL_FADE / mech(nd, 1).lifetime_full_cycles)
                for nd in self.nodes
            ]
        )
        #: Nodes whose active mass wears the same for every Ah.
        self.am_flat = np.array([not mech(nd, 1).stress_weights for nd in self.nodes])
        self._any_am_flat = bool(self.am_flat.any())
        self.sul_thresh = arr(lambda nd: mech(nd, 2).low_soc_threshold)
        self.sul_base = arr(lambda nd: mech(nd, 2).base_rate)
        self.wl_fpc = arr(lambda nd: mech(nd, 3).fade_per_gassing_cycle)
        self.st_base = arr(lambda nd: mech(nd, 4).base_rate)
        self.st_sat = arr(lambda nd: mech(nd, 4).saturation_hours)
        self.resistance_shares = np.array(
            [
                [float(m.resistance_share) for m in nd.battery.aging.mechanisms]
                for nd in self.nodes
            ]
        ).T  # (5, n)
        self.mech_names = [m.name for m in self.nodes[0].battery.aging.mechanisms]
        self.tracker_ref_current = arr(lambda nd: nd.tracker.params.reference_current)
        self.tracker_lifetime_ah = arr(
            lambda nd: nd.tracker.params.lifetime_ah_throughput
        )
        #: Base idle power (W), the restart check's bar.
        self.idle_w = arr(lambda nd: nd.server.params.idle_w)
        #: Dynamic power span ``peak_w - idle_w`` (W) of :meth:`Server.power`.
        self.span_w = arr(lambda nd: nd.server.params.peak_w - nd.server.params.idle_w)
        self.node_names = [nd.name for nd in self.nodes]
        assert len(self.node_names) == n
        # Per-node factors of the advance kernel that never change.
        self._cor_float_factor = 1.0 + self.cor_float_mult
        self._self_discharging = self.sd_rate > 0.0
        self._i_ref_pos = self.i_ref > 0.0
        self._i_ref_safe = np.where(self._i_ref_pos, self.i_ref, 1.0)
        # ... and of the charge walk's acceptance and efficiency curves.
        self._taper_span = 1.0 - self.taper_start
        self._coul_span = 0.60 - self.coul_base
        self._gassing_span = np.maximum(1e-9, 1.0 - self.gassing_soc)
        self._float_limit = self.charge_float * 2.0

    def capture(self) -> None:
        """Load all mutable per-node state from the objects into arrays.

        One pass over the nodes gathers every float field; each array is
        a contiguous row of one block."""
        mechs = self.mech_names
        rows = []
        for nd in self.nodes:
            b, acc, server = nd.battery, nd.tracker.acc, nd.server
            aging, thermal = b.aging, b.thermal
            damage, region = aging.state.damage, acc.region_discharged_ah
            rows.append(
                (
                    b._soc,
                    thermal.temperature_c,
                    thermal.ambient_c,
                    b._time_s,
                    b._last_current,
                    b._hours_since_full,
                    b.energy_in_wh,
                    b.energy_out_wh,
                    aging.state.discharged_ah,
                    aging.state.charged_ah,
                    aging._recoverable_stratification,
                    acc.discharged_ah,
                    acc.charged_ah,
                    acc.total_time_s,
                    acc.deep_discharge_time_s,
                    acc.discharge_time_s,
                    acc.discharge_current_time_as,
                    acc.peak_discharge_current_a,
                    acc.high_rate_low_soc_time_s,
                    nd.feedback_wh,
                    server._boot_remaining_s,
                    server.downtime_s,
                    *[damage.get(name, 0.0) for name in mechs],
                    *[region[k] for k in _REGION_LABELS],
                )
            )
        width = 22 + len(mechs) + len(_REGION_LABELS)
        cols = np.array(rows, dtype=float).reshape(self.n, width).T.copy()
        (
            self.soc,
            self.temp_c,
            self.ambient_c,
            self.time_s,
            self.last_current,
            self.h_full,
            self.energy_in_wh,
            self.energy_out_wh,
            self.aging_discharged_ah,
            self.aging_charged_ah,
            self.recoverable_strat,
            self.tr_discharged_ah,
            self.tr_charged_ah,
            self.tr_total_time_s,
            self.tr_deep_time_s,
            self.tr_discharge_time_s,
            self.tr_current_time_as,
            self.tr_peak_a,
            self.tr_high_rate_s,
            self.feedback_wh,
            self.boot_left_s,
            self.downtime_s,
        ) = cols[:22]
        self.damage = cols[22 : 22 + len(mechs)]  # (5, n)
        self.tr_region = cols[22 + len(mechs) :]  # (4, n)
        servers = [nd.server for nd in self.nodes]
        self.server_state = np.array(
            [_STATE_CODE[s.state] for s in servers], dtype=np.int8
        )
        self.admin_off = np.array([s.admin_off for s in servers], dtype=bool)
        #: Cells whose objects hold the arrays' values (see materialize).
        self._synced = set(range(self.n_cells))
        self._state_version += 1
        self.refresh_policy_view()

    def refresh_policy_view(self, cell: Optional[int] = None) -> None:
        """Re-read every node's control-plane inputs from the objects.

        Parking, DVFS, discharge caps and VM placement are policy
        actions on the object API; the engine calls this after deploying
        VMs, and a control pass after it acted. With ``cell``, only
        that cell's nodes and VMs are re-read.
        """
        if cell is None:
            lo, hi = 0, self.n
            self.policy_off_mask = np.zeros(self.n, dtype=bool)
            self.freq_index = np.zeros(self.n, dtype=np.intp)
            self.frequency = np.zeros(self.n)
            self.f_pow = np.zeros(self.n)
            self.idle_now_w = np.zeros(self.n)
            self.discharge_cap_w = np.zeros(self.n)
            self.hosting = np.zeros(self.n, dtype=bool)
        else:
            lo, hi = self.cells[cell]
        nodes = self.nodes[lo:hi]
        self.policy_off_mask[lo:hi] = [nd.server.policy_off for nd in nodes]
        self.freq_index[lo:hi] = [nd.server.freq_index for nd in nodes]
        freq = [nd.server.frequency for nd in nodes]
        self.frequency[lo:hi] = freq
        # Scalar pow, as Server.power takes it.
        self.f_pow[lo:hi] = scalar_pow(freq, DVFS_POWER_EXPONENT)
        self.idle_now_w[lo:hi] = [_idle_power_w(nd.server) for nd in nodes]
        self.discharge_cap_w[lo:hi] = [float(nd.discharge_cap_w) for nd in nodes]
        self.hosting[lo:hi] = [bool(nd.server.vms) for nd in nodes]
        self._read_vms(cell)

    def refresh_node(self, i: int) -> None:
        """:meth:`refresh_policy_view` for node ``i`` alone (an in-place
        control action on one node that leaves its VMs where they are).
        It does not touch the VM table."""
        node = self.nodes[i]
        server = node.server
        self.policy_off_mask[i] = server.policy_off
        self.freq_index[i] = server.freq_index
        self.frequency[i] = server.frequency
        self.f_pow[i] = server.frequency ** DVFS_POWER_EXPONENT
        self.idle_now_w[i] = _idle_power_w(server)
        self.discharge_cap_w[i] = node.discharge_cap_w
        self.hosting[i] = bool(server.vms)

    # ------------------------------------------------------------------
    # VM table
    # ------------------------------------------------------------------
    def _read_vms(self, cell: Optional[int] = None) -> None:
        """Rebuild the VM table from ``server.vms``: layout, workload
        columns, and the dynamic columns, which the objects must hold
        current (see the class docstring). With ``cell``, only that
        cell's dynamic columns are read from the objects; the other
        cells' rows keep their array values (VMs never leave their cell,
        so each cell's block of rows keeps its place and length)."""
        vms, node_of, slot = [], [], []
        for i, node in enumerate(self.nodes):
            for k, vm in enumerate(node.server.vms):
                vms.append(vm)
                node_of.append(i)
                slot.append(k)
        self.vms = vms
        self.vm_node = np.array(node_of, dtype=np.intp)
        #: Table offsets: node i's VMs are ``vms[_vm_start[i]:_vm_start[i+1]]``.
        self._vm_start = np.searchsorted(self.vm_node, np.arange(self.n + 1))
        #: Per cell, its first VM row; the last entry is the table length.
        self._vm_bounds = self._vm_start[self._bounds]
        slot_arr = np.array(slot, dtype=np.intp)
        #: Per in-server position k < 2: (table rows, their nodes). For a
        #: server with one or two VMs, folding the positions in order is
        #: exactly builtin ``sum()`` of its VMs.
        self._vm_slots = [
            (rows, self.vm_node[rows])
            for rows in ((slot_arr == k).nonzero()[0] for k in range(2))
            if len(rows)
        ]
        #: (node, first row, end row) of servers with three or more VMs,
        #: which :meth:`sum_by_node` sums with builtin ``sum()`` itself
        #: (compensated, not a left fold, from Python 3.12 on).
        count = np.diff(self._vm_start)
        self._vm_wide = [
            (i, int(self._vm_start[i]), int(self._vm_start[i + 1]))
            for i in (count > 2).nonzero()[0].tolist()
        ]
        m = len(vms)
        groups: Dict[Tuple[float, float, float], int] = {}
        columns, draws, group = [], [], []
        for vm in vms:
            w = vm.workload
            columns.append((w.mean_util, w.burst_util, w.burstiness * w.mean_util))
            draws.append(w.burstiness > 0)
            key = (float(w.period_s), float(w.phase), float(w.duty_cycle))
            group.append(groups.setdefault(key, len(groups)))
        self.vm_mean, self.vm_burst, self.vm_noise_sd = (
            np.array(columns, dtype=float).reshape(m, 3).T.copy()
        )
        self.vm_draws = np.array(draws, dtype=bool)
        self.vm_group = np.array(group, dtype=np.intp)
        self._wave_groups = groups
        if cell is None:
            lo, hi = 0, m
            self.vm_stall_s = np.zeros(m)
            self.vm_progress = np.zeros(m)
            self.vm_cache_t = np.zeros(m)
            self.vm_cache_util = np.zeros(m)
        else:
            lo, hi = self._vm_bounds[cell], self._vm_bounds[cell + 1]
        fresh = vms[lo:hi]
        self.vm_stall_s[lo:hi] = [float(vm._stall_remaining_s) for vm in fresh]
        self.vm_progress[lo:hi] = [float(vm.progress) for vm in fresh]
        self.vm_cache_t[lo:hi] = [float(vm._cache_t) for vm in fresh]
        self.vm_cache_util[lo:hi] = [float(vm._cache_util) for vm in fresh]

    def _wave(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per wave group (distinct period, phase, duty cycle): whether
        the workload is inside its duty cycle at ``t`` and its
        raised-cosine level, computed with the scalar expression of
        :meth:`WorkloadProfile.utilization_at` (so no array ``cos`` has
        to match libm)."""
        active, wave = [], []
        for period, phase, duty in self._wave_groups:
            cycle_pos = ((t / period) + phase) % 1.0
            on = not cycle_pos > duty
            active.append(on)
            wave.append(
                0.5 - 0.5 * math.cos(2.0 * math.pi * cycle_pos / duty) if on else 0.0
            )
        return np.array(active, dtype=bool), np.array(wave, dtype=float)

    def vm_utilization(
        self, on_node: np.ndarray, t: float, rng: Optional[Rngs]
    ) -> np.ndarray:
        """Per table row, :meth:`VM.utilization` for the VMs hosted on
        ``on_node`` nodes (0 elsewhere and while stalled).

        Rows already sampled at ``t`` reuse the cache; the rest are
        sampled with one masked normal draw per cell in table order
        (``rng`` holds one generator per cell on a batch) and, with an
        ``rng``, cached.
        """
        util = np.zeros(len(self.vms))
        rows = (on_node[self.vm_node] & ~(self.vm_stall_s > 0.0)).nonzero()[0]
        if rng is not None and len(rows):
            hit = self.vm_cache_t[rows] == t
            if np.count_nonzero(hit):
                util[rows[hit]] = self.vm_cache_util[rows[hit]]
                rows = rows[~hit]
        if not len(rows):
            return util
        active, wave = self._wave(t)
        group = self.vm_group[rows]
        on = active[group]
        u = np.where(on, self.vm_mean[rows] + self.vm_burst[rows] * wave[group], 0.0)
        if rng is not None:
            draw = on & self.vm_draws[rows]
            if np.count_nonzero(draw):
                self._draw_by_cell(u, draw, rows, rng)
        u = _clamp01(u)
        util[rows] = u
        if rng is not None:
            self.vm_cache_t[rows] = t
            self.vm_cache_util[rows] = u
        return util

    def _draw_by_cell(
        self,
        u: np.ndarray,
        draw: np.ndarray,
        rows: np.ndarray,
        rngs: Rngs,
    ) -> None:
        """The demand noise: each cell's rows draw from that cell's
        generator, in table order, exactly as the cell alone."""
        if isinstance(rngs, np.random.Generator):
            rngs = (rngs,)
        at = draw.nonzero()[0]
        drawn = rows[at]
        cuts = np.searchsorted(drawn, self._vm_bounds).tolist()
        # ``normal(0, sd)`` is ``0.0 + sd * z`` over the same standard
        # normals ``z``; the ``0.0 +`` only turns a -0.0 into +0.0, which
        # the addition into ``u >= 0`` (and the clamp after it) absorbs.
        z = [
            rng.standard_normal(hi - lo)
            for rng, lo, hi in zip(rngs, cuts, cuts[1:])
            if hi > lo
        ]
        u[at] += np.concatenate(z) * self.vm_noise_sd[drawn]

    def fold_by_cell(self, values: np.ndarray) -> List[float]:
        """Per cell, the strict left fold ``0.0 + v0 + v1 + ...`` of its
        nodes' ``values`` in node order, as one pass over the cell grid
        (a padding slot adds ``0.0``, which leaves a fold that starts at
        ``+0.0`` unchanged; the final ``+ 0.0`` is that start)."""
        rows = np.where(self._grid_valid, values[self._grid], 0.0)
        return (np.add.accumulate(rows, axis=1)[:, -1] + 0.0).tolist()

    def sum_by_node(self, values: np.ndarray) -> np.ndarray:
        """Per node, builtin ``sum()`` of its VMs' ``values`` in
        ``server.vms`` order (0 on nodes without VMs)."""
        total = np.zeros(self.n)
        for rows, nodes in self._vm_slots:
            total[nodes] += values[rows]
        for i, lo, hi in self._vm_wide:
            total[i] = sum(values[lo:hi].tolist())
        return total

    def advance_vms(self, t: float, dt: float, rng: Optional[Rngs]) -> None:
        """The engine's VM-advance phase as one array pass: utilisation
        once per VM (cached since demand, fresh for a host that finished
        booting this step), time-shared contention, stall consumption and
        ``util * factor * active_dt`` progress.

        Applied to every row: a VM with no stall consumes
        ``min(0, dt) = 0``, and one with no active time or zero speed
        gains exactly ``0.0``, so those rows are left unchanged as
        :meth:`VM.advance` leaves them.
        """
        if not self.vms:
            return
        speed = np.where(
            self.server_up & ~(self.admin_off | self.policy_off_mask),
            self.frequency,
            0.0,
        )
        util = self.vm_utilization(speed > 0.0, t, rng)
        demand = self.sum_by_node(util)
        contention = np.ones(self.n)
        over = demand > 1.0
        if np.count_nonzero(over):
            contention[over] = np.minimum(1.0, 1.0 / demand[over])
        factor = (speed * contention)[self.vm_node]
        consumed = np.minimum(self.vm_stall_s, dt)
        self.vm_stall_s -= consumed
        self.vm_progress += util * factor * (dt - consumed)
        self._synced.clear()

    @property
    def server_up(self) -> np.ndarray:
        """Nodes whose server is serving load (``Node.is_up``)."""
        return self.server_state == _UP

    @property
    def policy_restricted(self) -> np.ndarray:
        """Nodes the slowdown monitor has throttled or capped."""
        return (self.freq_index > 0) | (self.discharge_cap_w != math.inf)

    def set_admin_off(self, off: bool) -> None:
        """Fan the operating window's administrative shutdown out to every
        server (the engine writes the objects alongside)."""
        self.admin_off[:] = off

    # Server transitions: sparse, written through to the objects. Each
    # moves the state version, which keys cached node rankings.
    def power_on(self, i: int) -> None:
        server = self.nodes[i].server
        server.power_on()
        self.server_state[i] = _STATE_CODE[server.state]
        self.boot_left_s[i] = server._boot_remaining_s
        self._state_version += 1

    def brownout(self, i: int) -> None:
        server = self.nodes[i].server
        # The checkpoint goes through the objects, so hand them the
        # current stall and take the checkpointed one back.
        lo, hi = self._vm_start[i], self._vm_start[i + 1]
        vms = self.vms[lo:hi]
        for vm, stall in zip(vms, self.vm_stall_s[lo:hi].tolist()):
            vm._stall_remaining_s = stall
        server.brownout()
        self.vm_stall_s[lo:hi] = [vm._stall_remaining_s for vm in vms]
        self.server_state[i] = _STATE_CODE[server.state]
        self._state_version += 1

    def finish_boot(self, i: int) -> None:
        server = self.nodes[i].server
        server.state = ServerPowerState.UP
        server._boot_remaining_s = 0.0
        self.server_state[i] = _UP
        self._state_version += 1

    def materialize(self, cell: Optional[int] = None) -> None:
        """Write array state back into the per-node objects.

        Called before any code that reads batteries, trackers or VMs
        through the object API (policy control, day hooks, result
        collection). With ``cell``, only that cell's nodes and VMs. A
        no-op for cells whose arrays have not advanced since their last
        sync.
        """
        for k in range(self.n_cells) if cell is None else (cell,):
            if k in self._synced:
                continue
            lo, hi = self.cells[k]
            for i in range(lo, hi):
                self._write_node(i)
            vlo, vhi = self._vm_bounds[k], self._vm_bounds[k + 1]
            for vm, stall, progress, cache_t, cache_util in zip(
                self.vms[vlo:vhi],
                self.vm_stall_s[vlo:vhi].tolist(),
                self.vm_progress[vlo:vhi].tolist(),
                self.vm_cache_t[vlo:vhi].tolist(),
                self.vm_cache_util[vlo:vhi].tolist(),
            ):
                vm._stall_remaining_s = stall
                vm.progress = progress
                vm._cache_t = cache_t
                vm._cache_util = cache_util
            self._synced.add(k)

    def _write_node(self, i: int) -> None:
        node = self.nodes[i]
        bat = node.battery
        bat._soc = float(self.soc[i])
        bat.thermal.temperature_c = float(self.temp_c[i])
        bat.thermal.ambient_c = float(self.ambient_c[i])
        bat._time_s = float(self.time_s[i])
        bat._last_current = float(self.last_current[i])
        bat._hours_since_full = float(self.h_full[i])
        bat.energy_in_wh = float(self.energy_in_wh[i])
        bat.energy_out_wh = float(self.energy_out_wh[i])
        damage = bat.aging.state.damage
        for row, name in enumerate(self.mech_names):
            damage[name] = float(self.damage[row, i])
        bat.aging.state.discharged_ah = float(self.aging_discharged_ah[i])
        bat.aging.state.charged_ah = float(self.aging_charged_ah[i])
        bat.aging._recoverable_stratification = float(self.recoverable_strat[i])
        acc = node.tracker.acc
        acc.discharged_ah = float(self.tr_discharged_ah[i])
        acc.charged_ah = float(self.tr_charged_ah[i])
        for row, label in enumerate(_REGION_LABELS):
            acc.region_discharged_ah[label] = float(self.tr_region[row, i])
        acc.total_time_s = float(self.tr_total_time_s[i])
        acc.deep_discharge_time_s = float(self.tr_deep_time_s[i])
        acc.discharge_time_s = float(self.tr_discharge_time_s[i])
        acc.discharge_current_time_as = float(self.tr_current_time_as[i])
        acc.peak_discharge_current_a = float(self.tr_peak_a[i])
        acc.high_rate_low_soc_time_s = float(self.tr_high_rate_s[i])
        node.feedback_wh = float(self.feedback_wh[i])
        node.server.downtime_s = float(self.downtime_s[i])
        node.server._boot_remaining_s = float(self.boot_left_s[i])

    def set_ambient(self, ambient_c: float) -> None:
        """Fan one ambient temperature out to every battery (array write)."""
        self.ambient_c[:] = ambient_c
        self._synced.clear()

    # ------------------------------------------------------------------
    # Per-step derived quantities
    # ------------------------------------------------------------------
    def derived(self, dt: float) -> Dict[str, np.ndarray]:
        """Aging-derived electrical quantities, valid for one whole step.

        Every battery is touched exactly once per power-path step and all
        aging/thermal inputs use the pre-step state, so fade, resistance
        growth, OCV endpoints, Arrhenius factors etc. can be computed once
        here and shared by the restart check and all kernels.

        Memoized on (dt, battery-state generation): control-plane passes
        between power steps reuse the step's arrays instead of re-running
        the scalar pows. One entry is lazy: ``"ocv_hi"``, the faded
        full-charge OCV endpoint, is computed by its first reader in a
        state generation (restart, discharge, the charge walk, the
        voltage helpers, the control pass), so a step on which
        every battery rests never pays for its pow. ``"ocv_hi" in der``
        tells whether it has been read.
        """
        cached = self._derived_cache.get(dt)
        if cached is not None and cached[0] == self._state_version:
            return cached[1]
        d = self.damage
        # Reducing the (5, n) rows along axis 0 is the strict left fold
        # d[0] + d[1] + ... + d[4] per node (no pairwise summation across
        # rows).
        total_raw = np.add.reduce(d, axis=0)
        fade = np.maximum(0.0, np.minimum(0.95, total_raw))
        resistive = np.add.reduce(d * self.resistance_shares, axis=0)
        growth = RESISTANCE_GROWTH_GAIN * resistive
        res = self.r0 * (1.0 + np.maximum(0.0, growth))
        eff_cap = self.cap_scaled * (1.0 - fade)
        feedback = 1.0 + self.feedback_gain * total_raw
        ceff = np.maximum(
            0.3, np.minimum(1.0, 1.0 - COULOMBIC_DEGRADATION * fade)
        )
        # Arrhenius: the exponent's arithmetic is exact elementwise; the
        # pow is the scalar one (bit-compatibility rule 2).
        arr = scalar_pow(2.0, (self.temp_c - 20.0) / 10.0)
        if self._decay_dt != dt:
            self._decay = np.array(
                [math.exp(-dt / t) if t > 0 else 0.0 for t in self.tau.tolist()]
            )
            self._sd_factor = np.array(
                [
                    math.exp(-rate * dt / 86400.0) if rate > 0.0 else 1.0
                    for rate in self.sd_rate.tolist()
                ]
            )
            self._decay_dt = dt
        out = _Derived(
            {
                "total_raw": total_raw,
                "fade": fade,
                "growth": growth,
                "res": res,
                "eff_cap": eff_cap,
                "feedback": feedback,
                "ceff": ceff,
                "arr": arr,
                "decay": self._decay,
                "sd_factor": self._sd_factor,
            },
            functools.partial(self._ocv_hi, fade),
        )
        self._derived_cache[dt] = (self._state_version, out)
        return out

    def _ocv_hi(self, fade: np.ndarray) -> np.ndarray:
        """The full-charge OCV endpoint at ``fade``: the voltage model's
        faded ``ocv_full``, floored at ``ocv_empty``. The fade is in
        [0, 0.95], so it is its own clamp to [0, 1], the pow's operand."""
        fade_pow = scalar_pow(fade, OCV_FADE_EXPONENT)
        # max(full, empty): the OCV floor of the voltage model.
        return np.maximum(
            self.ocv_full * (1.0 - OCV_FADE_COEFF * fade_pow), self.ocv_empty
        )

    def derived_now(self) -> Dict[str, np.ndarray]:
        """Derived quantities at the step dt the run is using (60 s until
        the first step) — the dt only affects the decay/self-discharge
        factors, which control-plane readers never consult."""
        return self.derived(self._decay_dt if self._decay_dt is not None else 60.0)

    # ------------------------------------------------------------------
    # Electrical helpers (vector + scalar twins)
    # ------------------------------------------------------------------
    def ocv(self, soc: np.ndarray, der: Dict[str, np.ndarray]) -> np.ndarray:
        """Vector :meth:`VoltageModel.ocv` at the derived aging state."""
        soc_c = _clamp01(soc)
        return self.ocv_empty + (der["ocv_hi"] - self.ocv_empty) * soc_c

    def terminal_voltage(
        self,
        soc: np.ndarray,
        current: np.ndarray,
        der: Dict[str, np.ndarray],
        idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vector :meth:`VoltageModel.terminal_voltage` (signed current)."""
        if idx is None:
            ocv_hi, empty, res, i_ref = (
                der["ocv_hi"], self.ocv_empty, der["res"], self.i_ref,
            )
        else:
            ocv_hi, empty, res, i_ref = (
                der["ocv_hi"][idx], self.ocv_empty[idx],
                der["res"][idx], self.i_ref[idx],
            )
        soc_c = _clamp01(soc)
        v0 = empty + (ocv_hi - empty) * soc_c
        return _terminal_voltage(v0, current, res, i_ref, *_low_soc_sag(soc, soc_c))

    def _ocv_scalar(self, i: int, soc: float, der: Dict[str, np.ndarray]) -> float:
        soc_c = max(0.0, min(1.0, soc))
        empty = float(self.ocv_empty[i])
        full = float(der["ocv_hi"][i])
        return empty + (full - empty) * soc_c

    def _tv_scalar(
        self, i: int, soc: float, current: float, der: Dict[str, np.ndarray]
    ) -> float:
        v = self._ocv_scalar(i, soc, der)
        v -= current * float(der["res"][i])
        if current > 0.0 and soc < LOW_SOC_KNEE:
            depth = (LOW_SOC_KNEE - max(0.0, min(1.0, soc))) / LOW_SOC_KNEE
            rate = min(current / float(self.i_ref[i]), 4.0) / 4.0
            v -= LOW_SOC_SAG_V * depth * rate
        return v

    def max_discharge_power(
        self, idx: np.ndarray, der: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """Vector :meth:`BatteryUnit.max_discharge_power` over ``idx``."""
        soc = self.soc[idx]
        empty = self.ocv_empty[idx]
        v = empty + (der["ocv_hi"][idx] - empty) * _clamp01(soc)
        headroom = v - self.cutoff_v[idx]
        live = (soc > self.cutoff_soc[idx]) & (headroom > 0.0)
        i_max = np.where(live, headroom / der["res"][idx], 0.0)
        live &= i_max > 0.0
        v = self.terminal_voltage(soc, i_max, der, idx)
        return np.where(live, np.maximum(0.0, i_max * v), 0.0)

    def max_discharge_power_i(self, i: int, der: Dict[str, np.ndarray]) -> float:
        """Scalar twin of :meth:`BatteryUnit.max_discharge_power`."""
        soc = float(self.soc[i])
        if soc <= float(self.cutoff_soc[i]):
            return 0.0
        v = self._ocv_scalar(i, soc, der)
        headroom = v - float(self.cutoff_v[i])
        if headroom <= 0.0:
            i_max = 0.0
        else:
            i_max = headroom / float(der["res"][i])
        if i_max <= 0.0:
            return 0.0
        v = self._tv_scalar(i, soc, i_max, der)
        return max(0.0, i_max * v)

    def mark_arrays(self, label: str, epoch: int) -> Dict[str, np.ndarray]:
        """Array snapshots of every tracker's ``label`` mark accumulator.

        Marks are frozen copies taken while the objects were current, so
        ``live array - mark array`` equals the object path's
        ``acc - mark`` elementwise. Cached per label until ``epoch`` (the
        controller's window counter) moves.
        """
        cached = self._mark_cache.get(label)
        if cached is not None and cached[0] == epoch:
            return cached[1]

        def arr(get) -> np.ndarray:
            return np.array([float(get(node)) for node in self.nodes])

        m = lambda nd: nd.tracker.mark_acc(label)  # noqa: E731
        out = {
            "discharged_ah": arr(lambda nd: m(nd).discharged_ah),
            "charged_ah": arr(lambda nd: m(nd).charged_ah),
            "region": np.array(
                [
                    [
                        float(m(nd).region_discharged_ah[k])
                        for nd in self.nodes
                    ]
                    for k in _REGION_LABELS
                ]
            ),
            "total_time_s": arr(lambda nd: m(nd).total_time_s),
            "deep_time_s": arr(lambda nd: m(nd).deep_discharge_time_s),
        }
        self._mark_cache[label] = (epoch, out)
        return out


#: Every per-node array of :class:`FleetState` (node axis last), which a
#: :class:`FleetCell` shows sliced to its cell.
NODE_ARRAYS = frozenset(
    """
    admin_off aging_charged_ah aging_discharged_ah am_flat am_pcf ambient_c
    boot_left_s cap_scaled charge_float charge_max cor_base cor_float_mult
    cor_high_mult coul_base cutoff_soc cutoff_v damage discharge_cap_w
    downtime_s energy_in_wh energy_out_wh f_pow feedback_gain feedback_wh
    freq_index frequency gassing_soc h_full hosting i_ref idle_now_w idle_w
    k_minus_1 last_current ocv_empty ocv_full policy_off_mask r0 r_th
    recoverable_strat resistance_shares sd_rate server_state soc span_w
    st_base st_sat sul_base sul_thresh taper_start tau temp_c time_s
    tr_charged_ah tr_current_time_as tr_deep_time_s tr_discharge_time_s
    tr_discharged_ah tr_high_rate_s tr_peak_a tr_region tr_total_time_s
    tracker_lifetime_ah tracker_ref_current wl_fpc
    """.split()
)


class FleetCell:
    """One cell's view of a batched :class:`FleetState`.

    A policy, its controller and the engine's per-cell code read the
    batch through this view exactly as they read a one-cell fleet: every
    per-node array (:data:`NODE_ARRAYS`) comes sliced to the cell, node
    indices are cell-local, and the object-path boundaries
    (:meth:`materialize`, :meth:`refresh_policy_view`,
    :meth:`refresh_node`) touch this cell alone. Slices are taken at
    each access, so they follow the batch arrays when a kernel rebinds
    them.
    """

    def __init__(self, fleet: FleetState, cell: int):
        self.fleet = fleet
        self.cell = cell
        self._lo, self._hi = fleet.cells[cell]
        self.nodes = fleet.nodes[self._lo:self._hi]
        self.node_names = fleet.node_names[self._lo:self._hi]
        self.n = len(self.nodes)
        self._mark_cache: Dict[str, Tuple[int, Dict[str, np.ndarray]]] = {}
        self._derived: Tuple[Optional[dict], Dict[str, np.ndarray]] = (None, {})

    def __getattr__(self, name: str):
        if name in NODE_ARRAYS:
            return getattr(self.fleet, name)[..., self._lo:self._hi]
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    @property
    def _state_version(self) -> int:
        return self.fleet._state_version

    def derived_now(self) -> Dict[str, np.ndarray]:
        """The batch's derived quantities, sliced to this cell; the
        lazy ``"ocv_hi"`` is sliced on its first read here."""
        der = self.fleet.derived_now()
        if self._derived[0] is not der:
            lo, hi = self._lo, self._hi
            self._derived = (
                der,
                _Derived(
                    {k: v[lo:hi] for k, v in der.items()},
                    lambda: der["ocv_hi"][lo:hi],
                ),
            )
        return self._derived[1]

    def materialize(self) -> None:
        self.fleet.materialize(self.cell)

    def refresh_policy_view(self) -> None:
        self.fleet.refresh_policy_view(self.cell)

    def refresh_node(self, i: int) -> None:
        self.fleet.refresh_node(self._lo + i)

    # What policies, controllers and the engine's per-cell code read,
    # evaluated on the cell's slices.
    server_up = FleetState.server_up
    policy_restricted = FleetState.policy_restricted
    ocv = FleetState.ocv
    terminal_voltage = FleetState.terminal_voltage
    mark_arrays = FleetState.mark_arrays


class FleetPowerPath(PowerPath):
    """Array-native power routing, bit-compatible with :class:`PowerPath`.

    Every part of a step is an array pass over :class:`FleetState`:
    restart scan, demand (including the per-VM utilisation draws),
    utility allocation, discharge, charge walk, battery advance, server
    advance and tracker observe. Object calls remain only for the sparse
    server transitions (power-on, brownout with its VM checkpoints and
    event, finished boot), in node order.

    ``architecture`` picks the routing rules once, at build:
    ``"per-server"`` (each battery bridges its own node's deficit, as
    :class:`PowerPath` does) or ``"rack-pool"`` (each cell's batteries
    form one pool behind the rack bus: the pool bridges the cell's
    aggregate deficit, a short pool sheds the hungriest servers, and
    surplus charges the pool's emptiest members). A batch is all one
    architecture, so a step never branches on it.

    With the metric registry enabled, each kernel's wall time goes to a
    ``phase/power/<kernel>`` histogram (:data:`~repro.obs.timers.
    POWER_KERNELS`), the step's :meth:`FleetState.derived` pass first, so
    the kernels cover the whole power step. The derived OCV endpoint
    (``"ocv_hi"``) is lazy, so its cost lands in the histogram of its
    first reader: restart, discharge or the charge walk (or in the
    control phase, when a policy read it first).

    Given a sequence of clusters (and a utility budget per cluster, or
    one for all), the path routes a *batch*: independent runs concatenated on the node
    axis as the cells of one :class:`FleetState`. Solar, the demand
    noise generator, the utility allocation, the charge walk and the
    grid feedback stay per cell, each in the order the cell alone would
    use; every other kernel is elementwise per node and runs once for
    the whole batch. The per-cell folds and the charge walk run as one
    pass over the cell grid (a row per cell), not a loop over cells. A
    one-cell path is the single-run case.
    """

    def __init__(
        self,
        cluster: Union[Cluster, Sequence[Cluster]],
        utility_budget_w: Union[float, Sequence[float]] = 0.0,
        architecture: str = "per-server",
    ):
        super().__init__(cluster, utility_budget_w=utility_budget_w)
        if architecture not in ("per-server", "rack-pool"):
            raise ConfigurationError(f"unknown architecture {architecture!r}")
        self.architecture = architecture
        self.fleet = FleetState(cluster)
        #: Per cell, its utility budget (one value may serve every cell).
        self._budgets = (
            tuple(utility_budget_w)
            if isinstance(utility_budget_w, Sequence)
            else (utility_budget_w,) * self.fleet.n_cells
        )
        if len(self._budgets) != self.fleet.n_cells:
            raise ConfigurationError("need one utility budget per cluster")
        for budget in self._budgets:
            self.validate_budget(budget)
        # Reusable per-step op buffers, zeroed at each step: the op mode,
        # the float flag, and six float rows: signed current (+ discharge,
        # - charge), gassing current, drained Ah, stored Ah, delivered W,
        # absorbed W.
        n = self.fleet.n
        self._op_mode = np.zeros(n, dtype=np.int8)
        self._op_float = np.zeros(n, dtype=bool)
        self._op_values = np.zeros((6, n))
        (
            self._op_current, self._op_gassing, self._op_drain_ah,
            self._op_stored_ah, self._op_delivered_w, self._op_absorbed_w,
        ) = self._op_values
        # The routing rules, chosen once.
        if architecture == "rack-pool":
            self._restart = self._restart_pool
            self._route = self._route_pool
            self._advance = self._advance_pool
            #: Full pool members the step's charge reached (see
            #: :meth:`_float_age`).
            self._floating = _NO_NODES
        else:
            self._route = self._route_per_server
            self._advance = self._advance_all
        # Kernel histograms, built on the first timed step so a disabled
        # registry never holds them.
        self._timers: StepPhaseTimers | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def validate_budget(utility_budget_w: float) -> None:
        """Refuse a negative utility budget: the prefix allocation in
        :meth:`_allocate` assumes a budget that only shrinks."""
        if utility_budget_w < 0.0:
            raise ConfigurationError("the fleet stepper needs utility_budget_w >= 0")

    def step(
        self,
        t: float,
        dt: float,
        solar_w: Union[float, Sequence[float]],
        rng: Optional[Rngs] = None,
    ) -> PowerFlows:
        """One routing step. On a batch, ``solar_w`` and ``rng`` hold one
        entry per cell; the returned flows are then the sums of the
        cells' flows."""
        fs = self.fleet
        solar = (solar_w,) if isinstance(solar_w, (int, float)) else tuple(solar_w)
        # One registry check per step: kernel boundaries are stamped and
        # observed together at the end.
        timing = REGISTRY.enabled
        stamps = [perf_counter()] if timing else None

        der = fs.derived(dt)
        if timing:
            stamps.append(perf_counter())

        self._restart(solar, der)
        if timing:
            stamps.append(perf_counter())

        demand = self.demand(t, rng)
        # Builtin sum per cell, as the reference sums its demand dict.
        listed = demand.tolist()
        total_demand = [sum(listed[lo:hi]) for lo, hi in fs.cells]
        if timing:
            stamps.append(perf_counter())

        # Allocation, discharge and charge (three kernels).
        routed = self._route(t, dt, der, solar, demand, total_demand, stamps)

        self._advance(dt, der)
        if timing:
            stamps.append(perf_counter())

        self._advance_servers(dt)
        if timing:
            stamps.append(perf_counter())

        self._observe_all(dt)
        fs._synced.clear()
        fs._state_version += 1
        if timing:
            stamps.append(perf_counter())
            self._observe_kernels(stamps)

        columns = (total_demand, solar, *routed)
        # Left folds with no 0 start: one cell's flows come back as they are.
        return PowerFlows(*[functools.reduce(operator.add, c) for c in columns])

    def _fresh_ops(self) -> np.ndarray:
        """Zero the per-node op buffers (every battery resolves to exactly
        one op, rest unless a kernel writes another); returns the modes."""
        self._op_mode.fill(0)
        self._op_float.fill(False)
        self._op_values.fill(0.0)
        return self._op_mode

    def _feed_back(self, surplus: Sequence[float], dt: float) -> List[float]:
        """Each cell's surplus left after charging goes back to the grid,
        shared evenly over its nodes; returns each cell's feedback."""
        fs = self.fleet
        feedback = [max(0.0, x) for x in surplus]
        if any(fed > 0.0 for fed in feedback):
            # A cell that feeds nothing back adds 0.0.
            per_node = [
                fed / (hi - lo) * dt / SECONDS_PER_HOUR if fed > 0.0 else 0.0
                for (lo, hi), fed in zip(fs.cells, feedback)
            ]
            fs.feedback_wh += np.array(per_node)[fs.cell_index]
        return feedback

    def _brownout(self, i: int, t: float, dt: float, shortfall_w: float) -> None:
        """Node ``i`` goes down ``shortfall_w`` short."""
        node = self.fleet.nodes[i]
        node.unserved_wh += shortfall_w * dt / SECONDS_PER_HOUR
        self.fleet.brownout(i)
        if BUS.enabled:
            BUS.emit(BrownoutEvent(t=t, node=node.name, shortfall_w=shortfall_w))
        if REGISTRY.enabled:
            REGISTRY.counter("power/brownouts").inc()

    # ------------------------------------------------------------------
    # Per-server routing
    # ------------------------------------------------------------------
    def _route_per_server(
        self,
        t: float,
        dt: float,
        der: Dict[str, np.ndarray],
        solar: Sequence[float],
        demand: np.ndarray,
        total_demand: Sequence[float],
        stamps: Optional[List[float]],
    ) -> Tuple[List, ...]:
        """Each battery bridges its own node's deficit; surplus charges
        the cell's emptiest batteries. Returns the per-cell flow columns
        from solar-to-load to the brownout count."""
        fs = self.fleet
        solar_to_load = [min(s, d) for s, d in zip(solar, total_demand)]
        def_idx, deficit, utility_used = self._allocate(
            demand, total_demand, solar_to_load
        )
        if stamps is not None:
            stamps.append(perf_counter())

        mode = self._fresh_ops()
        battery_to_load, unserved, browned_out = self._discharge(
            t, dt, der, def_idx, deficit
        )
        if stamps is not None:
            stamps.append(perf_counter())

        # --- surplus solar charges batteries, emptiest first --------------
        surplus = [max(0.0, s - used) for s, used in zip(solar, solar_to_load)]
        solar_to_battery = [0.0] * fs.n_cells
        if any(x > 0.0 for x in surplus):
            chargeable = (fs.soc < 1.0) & (mode == _OP_REST)
            if np.count_nonzero(chargeable):
                surplus, solar_to_battery = self._charge_walk(
                    chargeable, surplus, dt, der, stop=1e-9
                )
        feedback = self._feed_back(surplus, dt)
        if stamps is not None:
            stamps.append(perf_counter())
        return (
            solar_to_load, solar_to_battery, battery_to_load, utility_used,
            feedback, unserved, browned_out,
        )

    def _observe_kernels(self, stamps) -> None:
        if self._timers is None:
            self._timers = StepPhaseTimers(REGISTRY, power_kernels=True)
        for hist, t0, t1 in zip(self._timers.power_kernels, stamps, stamps[1:]):
            hist.observe(t1 - t0)

    # ------------------------------------------------------------------
    # Server kernels
    # ------------------------------------------------------------------
    def _restart(self, solar_w: Sequence[float], der: Dict[str, np.ndarray]) -> None:
        """Power on every down node that now has a power prospect.

        The solar estimate (one per cell) is shared across the cell's
        nodes that would draw if the candidate restarted (see
        :meth:`PowerPath.step`); the battery prospect needs the restart
        SoC and enough sustainable discharge power, both evaluated for
        the down candidates only.
        """
        fs = self.fleet
        state = fs.server_state
        on = ~fs.admin_off
        cand = (on & (state == _DOWN)).nonzero()[0]
        if not len(cand):
            return
        drawing = on & (state != _DOWN)
        counts = np.add.reduceat(drawing, fs._bounds[:-1]).tolist()
        guess = [s / float(c + 1) for s, c in zip(solar_w, counts)]
        per_node_solar_guess = np.array(guess)[fs.cell_index[cand]]
        idle = fs.idle_w[cand]
        battery_w = np.minimum(
            fs.max_discharge_power(cand, der), fs.discharge_cap_w[cand]
        )
        ok = (per_node_solar_guess >= idle) | (
            (fs.soc[cand] >= RESTART_SOC)
            & (battery_w + per_node_solar_guess >= idle)
        )
        for i in cand[ok].tolist():
            fs.power_on(i)

    def demand(self, t: float, rng: Optional[Rngs] = None) -> np.ndarray:
        """Per-node ``Server.power(Server.utilization(t, rng))`` (W).

        Only up, not-off servers hosting VMs sample utilisation (and so
        draw RNG), as one pass over the VM table: their VMs' clamped
        utilisation summed per server in ``server.vms`` order, then
        ``idle + span * u * f**2.2 + migrating * 15 W``. Every other
        server's draw is closed-form: 0 W when off or down, its idle
        power at the current frequency otherwise.
        """
        fs = self.fleet
        off = fs.admin_off | fs.policy_off_mask
        state = fs.server_state
        demand = np.where(off | (state == _DOWN), 0.0, fs.idle_now_w)
        busy = ~off & (state == _UP) & fs.hosting
        b = busy.nonzero()[0]
        if len(b):
            u = _clamp01(fs.sum_by_node(fs.vm_utilization(busy, t, rng))[b])
            power = fs.idle_now_w[b] + fs.span_w[b] * u * fs.f_pow[b]
            stalled = fs.vm_stall_s > 0.0
            # Without a migrating (stalled) VM the 15 W term adds 0.0,
            # which leaves every draw as it is.
            if np.count_nonzero(stalled):
                migrating = np.bincount(fs.vm_node[stalled], minlength=fs.n)[b]
                power += migrating * MIGRATION_POWER_W
            demand[b] = power
        return demand

    def _advance_servers(self, dt: float) -> None:
        """Vector :meth:`Server.advance_state`: downtime and boot timers
        (planned shutdown never counts as downtime)."""
        fs = self.fleet
        active = ~(fs.admin_off | fs.policy_off_mask)
        state = fs.server_state
        # Usually every active server is up (and off-window none is
        # active): then no timer moves.
        if not np.count_nonzero(active & (state != _UP)):
            return
        fs.downtime_s[active & (state == _DOWN)] += dt
        boot = (active & (state == _BOOTING)).nonzero()[0]
        if len(boot):
            left = fs.boot_left_s[boot]
            fs.downtime_s[boot] += np.minimum(dt, left)
            left -= dt
            done = left <= 0.0
            left[done] = 0.0
            fs.boot_left_s[boot] = left
            for i in boot[done].tolist():
                fs.finish_boot(i)

    # ------------------------------------------------------------------
    # Routing kernels
    # ------------------------------------------------------------------
    def _allocate(
        self,
        demand: np.ndarray,
        total_demand: Sequence[float],
        solar_to_load: Sequence[float],
    ) -> Tuple[np.ndarray, np.ndarray, List[float]]:
        """Solar share, utility budget and battery-side deficit per node.

        Returns the nodes left with a deficit (node order), their
        deficits, and each cell's utility power used. Each cell's solar
        share is proportional to its nodes' demand (``demand - to_load *
        demand / total``, one pass for every cell; a cell with no demand
        keeps its zero deficits), and its budget goes out in node order
        (``left -= min(deficit, left)``), a prefix allocation: the strict
        left fold ``subtract.accumulate([budget, deficits...])`` is the
        budget left after each node until the first node it cannot cover,
        which takes the remainder, and every later node gets 0. A zero
        budget leaves every deficit as it is.
        """
        fs = self.fleet
        deficit = demand
        if any(total > 0 for total in total_demand):
            share = np.array(
                [
                    (to_load, total) if total > 0 else (0.0, 1.0)
                    for total, to_load in zip(total_demand, solar_to_load)
                ]
            )[fs.cell_index]
            deficit = demand - share[:, 0] * demand / share[:, 1]
        idx = (deficit > 1e-9).nonzero()[0]
        deficit = deficit[idx]
        utility_used = [0.0] * fs.n_cells
        if not len(idx) or not any(self._budgets):
            return idx, deficit, utility_used
        cuts = np.searchsorted(idx, fs._bounds).tolist()
        for c, (budget, a, b) in enumerate(zip(self._budgets, cuts, cuts[1:])):
            if b == a:
                continue
            left = np.subtract.accumulate(np.concatenate(([budget], deficit[a:b])))
            from_utility = deficit[a:b].copy()
            short = (left[1:] < 0.0).nonzero()[0]
            if len(short):
                k = short[0]
                from_utility[k] = left[k]
                from_utility[k + 1:] = 0.0
            utility_used[c] = float(
                np.add.accumulate(np.concatenate(([0.0], from_utility)))[-1]
            )
            deficit[a:b] = deficit[a:b] - from_utility
        keep = deficit > 1e-9
        return idx[keep], deficit[keep], utility_used

    def _discharge(
        self,
        t: float,
        dt: float,
        der: Dict[str, np.ndarray],
        idx: np.ndarray,
        deficit: np.ndarray,
    ) -> Tuple[List[float], List[float], List[int]]:
        """Batteries bridge the deficits under each node's discharge cap;
        a node left materially short browns out.

        Returns, per cell, battery-to-load power (a strict left fold in
        node order of the delivered power, which is 0 on every other
        node), unserved power and the brownout count. Only the
        browned-out nodes take object calls and events.
        """
        fs = self.fleet
        n_cells = fs.n_cells
        if not len(idx):
            return [0.0] * n_cells, [0.0] * n_cells, [0] * n_cells
        allowed = np.minimum(deficit, fs.discharge_cap_w[idx])
        live = allowed > 0.0
        battery_to_load = [0.0] * n_cells
        delivered = self._op_delivered_w
        if np.count_nonzero(live):
            self._discharge_kernel(idx[live], allowed[live], dt, der)
            battery_to_load = fs.fold_by_cell(delivered)
        # Tolerate solver rounding and small sags: a server browns out
        # only on a materially unmet deficit (>2 % or >2 W).
        shortfall = deficit - delivered[idx]
        failed = (shortfall > np.maximum(2.0, 0.02 * deficit)).nonzero()[0]
        unserved = [0.0] * n_cells
        browned_out = [0] * n_cells
        for k in failed.tolist():
            i = int(idx[k])
            short = float(shortfall[k])
            c = int(fs.cell_index[i])
            unserved[c] += short
            browned_out[c] += 1
            self._brownout(i, t, dt, short)
        return battery_to_load, unserved, browned_out

    # ------------------------------------------------------------------
    # Rack-pool routing
    # ------------------------------------------------------------------
    def _pool_power(
        self, der: Dict[str, np.ndarray]
    ) -> Tuple[np.ndarray, List[float]]:
        """Each member's deliverable power and, per cell, its pool's
        (builtin sum over the members)."""
        fs = self.fleet
        power = fs.max_discharge_power(np.arange(fs.n), der)
        listed = power.tolist()
        return power, [sum(listed[lo:hi]) for lo, hi in fs.cells]

    def _pool_socs(self, der: Dict[str, np.ndarray]) -> List[float]:
        """Per cell, its pool's charge-weighted SoC (0 without capacity):
        builtin sums of the members' stored charge and capacity."""
        fs = self.fleet
        capacity = der["eff_cap"].tolist()
        stored = (fs.soc * der["eff_cap"]).tolist()
        socs = []
        for lo, hi in fs.cells:
            total = sum(capacity[lo:hi])
            socs.append(sum(stored[lo:hi]) / total if total > 0 else 0.0)
        return socs

    def _restart_pool(
        self, solar_w: Sequence[float], der: Dict[str, np.ndarray]
    ) -> None:
        """Power on every down node with a prospect on its rack: its even
        share of the rack's solar (over all the rack's nodes) covers its
        idle draw, or does with an even share of the pool's deliverable
        power added while the pool's SoC is at least ``RESTART_SOC``.
        Discharge caps do not bound the prospect."""
        fs = self.fleet
        cand = (~fs.admin_off & (fs.server_state == _DOWN)).nonzero()[0]
        if not len(cand):
            return
        sizes = [hi - lo for lo, hi in fs.cells]
        solar_share = [s / n for s, n in zip(solar_w, sizes)]
        pool_share = [p / n for p, n in zip(self._pool_power(der)[1], sizes)]
        pool_ok = [soc >= RESTART_SOC for soc in self._pool_socs(der)]
        cell = fs.cell_index[cand]
        idle = fs.idle_w[cand]
        share = np.array(solar_share)[cell]
        ok = (share >= idle) | (
            np.array(pool_ok)[cell] & (share + np.array(pool_share)[cell] >= idle)
        )
        for i in cand[ok].tolist():
            fs.power_on(i)

    def _route_pool(
        self,
        t: float,
        dt: float,
        der: Dict[str, np.ndarray],
        solar: Sequence[float],
        demand: np.ndarray,
        total_demand: Sequence[float],
        stamps: Optional[List[float]],
    ) -> Tuple[List, ...]:
        """Each cell's batteries form one pool behind the rack bus.

        The utility budget covers ``min(budget, residual)`` of the cell's
        aggregate deficit, and the pool is asked for the rest up to the
        sum of its members' discharge caps (unbounded when any cap is).
        The request splits over all members in proportion to their
        deliverable power; a member with no share rests. A materially
        short cell sheds its hungriest servers first. A pool that was not
        asked for power charges from the surplus, emptiest member first,
        down to a 1e-12 W stop; a full member it reaches rests (and
        floats, see :meth:`_float_age`). Returns the per-cell flow columns
        from solar-to-load to the brownout count.
        """
        fs = self.fleet
        solar_to_load = [min(s, d) for s, d in zip(solar, total_demand)]
        utility_used = [
            min(budget, max(0.0, d - s))
            for budget, d, s in zip(self._budgets, total_demand, solar_to_load)
        ]
        residual = [
            max(0.0, d - s - u)
            for d, s, u in zip(total_demand, solar_to_load, utility_used)
        ]
        caps = fs.discharge_cap_w.tolist()
        request = []
        for (lo, hi), need in zip(fs.cells, residual):
            ceiling = caps[lo:hi]
            request.append(min(need, math.inf if math.inf in ceiling else sum(ceiling)))
        if stamps is not None:
            stamps.append(perf_counter())

        self._fresh_ops()
        battery_to_load = [0.0] * fs.n_cells
        if any(r > 0.0 for r in request):
            # Shares request * power / total; none in a cell that asks
            # for nothing or whose pool can deliver nothing.
            power, totals = self._pool_power(der)
            total = np.array(totals)[fs.cell_index]
            share = np.divide(
                np.array(request)[fs.cell_index] * power, total,
                out=np.zeros(fs.n), where=total > 0.0,
            )
            drawn = (share > 0.0).nonzero()[0]
            if len(drawn):
                self._discharge_kernel(drawn, share[drawn], dt, der)
                battery_to_load = fs.fold_by_cell(self._op_delivered_w)

        unserved = [max(0.0, r - b) for r, b in zip(residual, battery_to_load)]
        browned_out = [0] * fs.n_cells
        for c, (need, short) in enumerate(zip(residual, unserved)):
            if short > max(2.0, 0.02 * need):
                browned_out[c] = self._shed(c, demand, short, t, dt)
        if stamps is not None:
            stamps.append(perf_counter())

        surplus = [max(0.0, s - used) for s, used in zip(solar, solar_to_load)]
        solar_to_battery = [0.0] * fs.n_cells
        self._floating = _NO_NODES
        # Only a pool not asked for power charges.
        charging = [x > 0.0 and not r > 0.0 for x, r in zip(surplus, request)]
        if any(charging):
            charging = np.array(charging)[fs.cell_index]
            full = fs.soc >= 1.0
            left = surplus
            if np.count_nonzero(charging & ~full):
                # A cell that does not charge absorbs 0.0.
                left, solar_to_battery = self._charge_walk(
                    charging & ~full, surplus, dt, der, stop=1e-12
                )
                surplus = [x - got for x, got in zip(surplus, solar_to_battery)]
            # Full members come last in the walk: power is left for them
            # when more than the stop is left after the others.
            reached = np.array([x > 1e-12 for x in left])[fs.cell_index]
            self._floating = (charging & full & reached).nonzero()[0]
        feedback = self._feed_back(surplus, dt)
        if stamps is not None:
            stamps.append(perf_counter())
        return (
            solar_to_load, solar_to_battery, battery_to_load, utility_used,
            feedback, unserved, browned_out,
        )

    def _shed(
        self, c: int, demand: np.ndarray, unserved: float, t: float, dt: float
    ) -> int:
        """Brown out cell ``c``'s servers, hungriest first (equal demands
        in node order), until ``unserved`` W is shed; returns how many."""
        lo, hi = self.fleet.cells[c]
        draw = demand.tolist()
        remaining = unserved
        shed = 0
        for i in sorted(range(lo, hi), key=draw.__getitem__, reverse=True):
            if remaining <= 0.0 or draw[i] <= 0.0:
                break
            self._brownout(i, t, dt, min(remaining, draw[i]))
            remaining -= draw[i]
            shed += 1
        return shed

    def _advance_pool(self, dt: float, der: Dict[str, np.ndarray]) -> None:
        """:meth:`_advance_all`, then the float step of every full member
        the charge reached that its rest left full."""
        self._advance_all(dt, der)
        floating = self._floating
        if len(floating):
            floating = floating[self.fleet.soc[floating] >= 1.0]
            if len(floating):
                self._float_age(floating, dt)

    def _float_age(self, idx: np.ndarray, dt: float) -> None:
        """Vector ``BatteryUnit._register_float``: one more aging step at
        the float current for the full members ``idx``, at their state
        after the step's rest (so the feedback, temperature and SoC are
        the post-rest ones). Active mass needs a discharge and sulphation
        a SoC below its threshold, so only corrosion (on float, at full
        charge), water loss, stratification and the charged Ah move."""
        fs = self.fleet
        damage = fs.damage
        flt = fs.charge_float[idx]
        arr = scalar_pow(2.0, (fs.temp_c[idx] - 20.0) / 10.0)
        fbk = 1.0 + fs.feedback_gain[idx] * np.add.reduce(damage[:, idx], axis=0)
        # A full member's SoC is 1.0, above the corrosion's 0.9 knee.
        rate = fs.cor_base[idx] * arr * fs._cor_float_factor[idx]
        rate *= 1.0 + fs.cor_high_mult[idx] * (fs.soc[idx] - 0.9) / 0.1
        damage[0, idx] += (rate * dt) * fbk
        # The whole float current gasses.
        gah = flt * dt / SECONDS_PER_HOUR
        damage[3, idx] += (fs.wl_fpc[idx] * (gah / fs.cap_scaled[idx]) * arr) * fbk
        stale = np.maximum(0.0, np.minimum(1.0, fs.h_full[idx] / fs.st_sat[idx]))
        # No stratification without a current.
        d_str = np.where(flt > 0.0, (fs.st_base[idx] * stale * dt) * fbk, 0.0)
        damage[_STRAT_ROW, idx] += d_str
        fs.recoverable_strat[idx] += d_str
        fs.aging_charged_ah[idx] += gah

    # ------------------------------------------------------------------
    # Battery kernels
    # ------------------------------------------------------------------
    def _discharge_kernel(
        self,
        idx: np.ndarray,
        power: np.ndarray,
        dt: float,
        der: Dict[str, np.ndarray],
    ) -> None:
        """Vectorised :meth:`BatteryUnit.discharge` over the deficit set.

        Writes each element's op and delivered power (0 for the cut-off /
        zero-current branches, which rest-age while keeping their stale
        ``last_current`` exactly like the scalar path). Every input is
        gathered once; the terminal voltage at each trial current reuses
        the open-circuit voltage ``v0`` and the low-SoC sag depth.
        """
        fs = self.fleet
        soc = fs.soc[idx]
        cutoff = fs.cutoff_soc[idx]
        res = der["res"][idx]
        i_ref = fs.i_ref[idx]
        km1 = fs.k_minus_1[idx]
        empty = fs.ocv_empty[idx]
        soc_c = _clamp01(soc)
        v0 = empty + (der["ocv_hi"][idx] - empty) * soc_c
        knee, sag = _low_soc_sag(soc, soc_c)

        def terminal_voltage(current: np.ndarray) -> np.ndarray:
            return _terminal_voltage(v0, current, res, i_ref, knee, sag)

        live = ~(soc <= cutoff)

        # Fixed-point solve for current at the requested power (2 rounds).
        current = np.where(live, power / np.maximum(v0, 1e-6), 0.0)
        running = live
        for _ in range(2):
            v = terminal_voltage(current)
            running = running & (v > 0.0)
            np.divide(power, v, out=current, where=running)

        # Voltage cut-off limit.
        headroom = v0 - fs.cutoff_v[idx]
        i_max = np.where(headroom <= 0.0, 0.0, headroom / res)
        current = np.where(live & (current > i_max), i_max, current)
        m_live = live & ~(current <= 0.0)

        # Charge-availability limit.
        pf = peukert_factor_array(current, i_ref, km1)
        drain_ah = current * pf * dt / SECONDS_PER_HOUR
        avail_ah = np.maximum(0.0, (soc - cutoff) * der["eff_cap"][idx])
        m_scale = m_live & (drain_ah > avail_ah)
        if np.count_nonzero(m_scale):
            scale = np.divide(
                avail_ah, drain_ah, out=np.zeros(len(idx)),
                where=m_scale & (drain_ah > 0.0),
            )
            current = np.where(m_scale, current * scale, current)
            pf = np.where(m_scale, peukert_factor_array(current, i_ref, km1), pf)
            drain_ah = np.where(m_scale, current * pf * dt / SECONDS_PER_HOUR, drain_ah)

        v = terminal_voltage(current)
        self._op_mode[idx] = np.where(m_live, _OP_DISCHARGE, _OP_REST_KEEP)
        self._op_current[idx] = np.where(m_live, current, 0.0)
        self._op_drain_ah[idx] = np.where(m_live, drain_ah, 0.0)
        self._op_delivered_w[idx] = np.where(
            m_live, current * np.maximum(v, 0.0), 0.0
        )

    def _charge_walk(
        self,
        chargeable: np.ndarray,
        surplus: Sequence[float],
        dt: float,
        der: Dict[str, np.ndarray],
        stop: float,
    ) -> Tuple[List[float], List[float]]:
        """Emptiest-first charge walk of every cell at once, each cell
        over its ``chargeable`` nodes with its ``surplus``, until no more
        than ``stop`` W is left.

        The acceptance-limited outcome of :meth:`BatteryUnit.charge` does
        not depend on the offered power, so it is precomputed for every
        node in one vector pass. Each cell is a row of the cell grid,
        its candidates sorted emptiest first (a stable sort on SoC, with
        +inf keys after the candidates). A round runs every row's walk
        as accumulate passes: while candidates take their
        acceptance-limited charge free of the overshoot clamp, the
        surplus before each one is the strict left fold
        ``subtract.accumulate([surplus, absorbed...])``, equal to the
        reference's running ``surplus -= absorbed``. The first candidate
        of a row that fails that test (its marginal node, usually the
        last one charged) goes through the literal scalar transcription
        :meth:`_charge_scalar`, and a row with surplus and candidates
        left after it walks on in the next round. A finished row's fold
        reads back unchanged, so rounds need no row bookkeeping.

        Returns each cell's surplus left and power absorbed.
        """
        fs = self.fleet
        soc = fs.soc
        res = der["res"]
        # Only candidates (soc < 1) are read below, so their SoC clamped
        # to [0, 1] is max(0, soc), and the charger's acceptance is the
        # bulk current or the taper (its float branch needs soc >= 1).
        soc_c = np.maximum(0.0, soc)
        ocv = fs.ocv_empty + (der["ocv_hi"] - fs.ocv_empty) * soc_c
        # Terminal voltage at 1 A of charge, ocv - (-1.0) * res.
        v1 = ocv + res
        # The derived fade is in [0, 0.95]: its own clamp to [0, 1].
        bulk = fs.charge_max * (1.0 - der["fade"])
        start = fs.taper_start
        flt = fs.charge_float
        i_accept = np.where(
            soc_c < start,
            bulk,
            bulk + (flt - bulk) * ((soc_c - start) / fs._taper_span),
        )
        gas_soc = fs.gassing_soc
        base = fs.coul_base
        coul = np.where(
            soc_c <= gas_soc,
            base,
            base + fs._coul_span * ((soc_c - gas_soc) / fs._gassing_span),
        )
        eta = coul * der["ceff"]

        # Acceptance-limited hypothesis: current = i_accept.
        cur0 = i_accept
        stored0 = cur0 * eta
        gas0 = cur0 - stored0
        st_ah0 = stored0 * dt / SECONDS_PER_HOUR
        room = np.maximum(0.0, (1.0 - soc) * der["eff_cap"])
        m_room = chargeable & (st_ah0 > room)
        if np.count_nonzero(m_room):
            scale = np.divide(
                room, st_ah0, out=np.zeros(fs.n), where=m_room & (st_ah0 > 0.0)
            )
            cur0 = np.where(m_room, cur0 * scale, cur0)
            stored0 = np.where(m_room, stored0 * scale, stored0)
            gas0 = np.where(m_room, gas0 * scale, gas0)
            st_ah0 = np.where(m_room, room, st_ah0)
        # At the terminal voltage ocv - (-cur0) * res.
        absorbed0 = cur0 * (ocv + cur0 * res)
        float0 = (soc >= 0.99) & (cur0 <= fs._float_limit)

        # The cell grid, each row's candidates first, emptiest first; a
        # row always ends in a non-candidate slot.
        grid, col, rows = fs._grid, fs._grid_col, fs._grid_rows
        cand = fs._grid_valid & chargeable[grid]
        order = np.argsort(np.where(cand, soc[grid], np.inf), axis=1, kind="stable")
        sorted_at = (rows[:, None], order)
        nodes = grid[sorted_at]
        in_cand = cand[sorted_at]
        abs_g = absorbed0[nodes]
        ia_g = i_accept[nodes]
        v1_g = np.maximum(v1, 1e-6)[nodes]

        # Per row: next candidate, surplus left, power absorbed so far.
        k = np.zeros(fs.n_cells, dtype=np.intp)
        left = np.array(surplus, dtype=float)
        absorbed = np.zeros(fs.n_cells)
        marginal = []
        while True:
            ahead = col >= k[:, None]
            offered = np.where(ahead, abs_g, 0.0)
            acc = np.subtract.accumulate(
                np.concatenate((left[:, None], offered), axis=1), axis=1
            )
            before = acc[:, :-1]
            ok = (
                (before > stop)
                & (ia_g <= before / v1_g)
                & (abs_g <= before)
                & in_cand
            ) | ~ahead
            # The first failing slot; a row's padding slot always fails.
            k = ok.argmin(axis=1)
            left = acc[rows, k]
            absorbed = np.add.accumulate(
                np.concatenate((absorbed[:, None], offered), axis=1), axis=1
            )[rows, k]
            # Each row's marginal node: the scalar transcription.
            walking = False
            for c in (in_cand[rows, k] & (left > stop)).nonzero()[0].tolist():
                at = k.item(c)
                i = nodes.item(c, at)
                out = self._charge_scalar(
                    left.item(c), dt, soc.item(i), v1.item(i),
                    i_accept.item(i), eta.item(i), room.item(i),
                    ocv.item(i), res.item(i), flt.item(i),
                )
                marginal.append((i, out))
                power = out[3]
                absorbed[c] = absorbed.item(c) + power
                left[c] = left.item(c) - power
                k[c] = at + 1
                walking = walking or (in_cand.item(c, at + 1) and left.item(c) > stop)
            if not walking:
                break
        # Every walked node took its acceptance-limited charge but the
        # marginal ones.
        fast = np.zeros(fs.n, dtype=bool)
        fast[nodes[col < k[:, None]]] = True
        self._op_mode[fast] = _OP_CHARGE
        op_current, op_gassing, op_float = (
            self._op_current, self._op_gassing, self._op_float
        )
        op_stored_ah, op_absorbed_w = self._op_stored_ah, self._op_absorbed_w
        for i, (cur, gas, st_ah, power, is_float) in marginal:
            fast[i] = False
            op_current[i] = -cur
            op_gassing[i] = gas
            op_float[i] = is_float
            op_stored_ah[i] = st_ah
            op_absorbed_w[i] = power
        np.negative(cur0, out=op_current, where=fast)
        np.copyto(op_gassing, gas0, where=fast)
        np.copyto(op_float, float0, where=fast)
        np.copyto(op_stored_ah, st_ah0, where=fast)
        np.copyto(op_absorbed_w, absorbed0, where=fast)
        return left.tolist(), absorbed.tolist()

    @staticmethod
    def _charge_scalar(
        power_w: float, dt: float, soc: float, v1: float, i_accept: float,
        eta: float, room_ah: float, ocv: float, res: float, flt: float,
    ) -> Tuple[float, float, float, float, bool]:
        """Literal scalar transcription of :meth:`BatteryUnit.charge`
        (state updates deferred to the batched advance) for one node,
        given its acceptance current, charge efficiency, room, open-
        circuit voltage and terminal voltage at 1 A of charge from the
        walk's vector pass (the same IEEE operations the scalar models
        run)."""
        i_request = power_w / max(v1, 1e-6)
        current = min(i_request, i_accept)
        stored_current = current * eta
        gassing_current = current - stored_current
        stored_ah = stored_current * dt / SECONDS_PER_HOUR
        if stored_ah > room_ah:
            scale = room_ah / stored_ah if stored_ah > 0 else 0.0
            current *= scale
            stored_current *= scale
            gassing_current *= scale
            stored_ah = room_ah
        # Terminal voltage while charging: no low-SoC sag.
        v = ocv - (-current) * res
        absorbed_w = current * v
        if absorbed_w > power_w > 0.0:
            scale = power_w / absorbed_w
            current *= scale
            stored_current *= scale
            gassing_current *= scale
            stored_ah *= scale
            absorbed_w = power_w
        is_float = soc >= 0.99 and current <= flt * 2.0
        return current, gassing_current, stored_ah, absorbed_w, is_float

    # ------------------------------------------------------------------
    def _advance_all(self, dt: float, der: Dict[str, np.ndarray]) -> None:
        """One batched ``_apply_step`` + SoC/energy update for all nodes,
        each by its op in the step's buffers.

        Valid because every node's op is independent: aging, thermal, and
        SoC updates read only that node's pre-step state, which no other
        node's op can touch. On a step where every battery rests (mode 0
        everywhere: no current, gassing or float charge), the terms that
        need a current are skipped whole.
        """
        fs = self.fleet
        mode = self._op_mode
        current = self._op_current  # signed
        op_gassing = self._op_gassing
        pre_soc = fs.soc
        fbk = der["feedback"]
        arr = der["arr"]
        acting = np.count_nonzero(mode) > 0

        # --- aging mechanisms (pre-step soc/temp/hours, exact formulas) --
        # Each mechanism touches only its active subset: the adds below
        # are bit-equal to full-fleet adds of masked zeros (x + 0.0 == x),
        # and a ufunc with ``where=`` leaves every other node as it is.
        # Grid corrosion (always active).
        rate = fs.cor_base * arr
        if acting:
            np.multiply(rate, fs._cor_float_factor, out=rate, where=self._op_float)
        high = pre_soc > 0.9
        if np.count_nonzero(high):
            np.multiply(
                rate, 1.0 + fs.cor_high_mult * (pre_soc - 0.9) / 0.1,
                out=rate, where=high,
            )
        fs.damage[0] += (rate * dt) * fbk
        # Sulphation (low SoC only; uses pre-step hours-since-full).
        si = (pre_soc < fs.sul_thresh).nonzero()[0]
        if len(si):
            depth = (fs.sul_thresh[si] - pre_soc[si]) / fs.sul_thresh[si]
            stale_s = np.maximum(0.1, np.minimum(1.0, fs.h_full[si] / 48.0))
            fs.damage[2][si] += (
                (fs.sul_base[si] * depth * stale_s * arr[si]) * dt
            ) * fbk[si]
        if acting:
            discharging = mode == _OP_DISCHARGE
            charging = mode == _OP_CHARGE
            # Op currents are strictly positive exactly on the discharge
            # ops, and a charge op's is <= 0 (adding 0.0 for a zero one).
            di = discharging.nonzero()[0]
            # Signed Ah through each battery this step.
            ah = current * dt / SECONDS_PER_HOUR
            rn_d = self._active_mass(di, current, ah, pre_soc, arr, fbk)
            # Water loss (gassing only; damage already integrates dt via Ah).
            wli = (op_gassing > 0.0).nonzero()[0]
            if len(wli):
                gah = op_gassing[wli] * dt / SECONDS_PER_HOUR
                fs.damage[3][wli] += (
                    fs.wl_fpc[wli] * (gah / fs.cap_scaled[wli]) * arr[wli]
                ) * fbk[wli]
            # Stratification (any current, stale full charge).
            stale_t = np.maximum(0.0, np.minimum(1.0, fs.h_full / fs.st_sat))
            ti = ((current != 0.0) & (stale_t != 0.0)).nonzero()[0]
            if len(ti):
                rate_t = fs.st_base * stale_t
                if len(di):
                    # The 1.5x worst-case factor is harmless on stale==0 rows
                    # (their rate is already zero and they are outside `ti`).
                    worst = di[(pre_soc[di] < 0.4) & (rn_d < 1.0)]
                    rate_t[worst] *= 1.5
                d_str = (rate_t[ti] * dt) * fbk[ti]
                fs.damage[_STRAT_ROW][ti] += d_str
                fs.recoverable_strat[ti] += d_str
            # Charged Ah: x + (-current * dt / 3600) is x - ah exactly.
            np.add(fs.aging_discharged_ah, ah, out=fs.aging_discharged_ah, where=discharging)
            np.subtract(fs.aging_charged_ah, ah, out=fs.aging_charged_ah, where=charging)

        # --- thermal (uses start-of-step resistance; aging already read
        # the pre-step temperature through `arr`) -------------------------
        p_loss = current * current * der["res"]
        t_inf = fs.ambient_c + p_loss * fs.r_th
        fs.temp_c = t_inf + (fs.temp_c - t_inf) * der["decay"]

        # --- time and hours-since-full (pre-update SoC, like _apply_step)
        fs.time_s += dt
        np.add(fs.h_full, dt / SECONDS_PER_HOUR, out=fs.h_full, where=pre_soc < 0.99)

        # --- SoC updates per op ------------------------------------------
        # Discharge: soc - drain / cap; charge: soc + stored / cap (the
        # other buffer is 0.0 on each, so one signed expression serves
        # both); a rest op self-discharges.
        if acting:
            moved = pre_soc + (self._op_stored_ah - self._op_drain_ah) / np.maximum(
                der["eff_cap"], 1e-9
            )
            soc = np.where(discharging | charging, _clamp01(moved), pre_soc)
        else:
            soc = pre_soc.copy()
        np.multiply(
            soc, der["sd_factor"], out=soc,
            where=(mode <= _OP_REST_KEEP) & fs._self_discharging & (pre_soc > 0.0),
        )
        fs.soc = soc

        if acting:
            # --- full-charge bookkeeping (charge op only) -----------------
            chg_i = charging.nonzero()[0]
            full_i = chg_i[soc[chg_i] >= 0.99]
            if len(full_i):
                rec_i = full_i[pre_soc[full_i] < 0.99]
                if len(rec_i):
                    d4 = fs.damage[_STRAT_ROW]
                    rec = np.minimum(d4[rec_i], fs.recoverable_strat[rec_i] * 0.25)
                    pos = (rec > 0.0).nonzero()[0]
                    if len(pos):
                        d4[rec_i[pos]] -= rec[pos]
                    fs.recoverable_strat[rec_i] = 0.0
                fs.h_full[full_i] = 0.0
            # --- terminal energy (the op's power is 0.0 elsewhere) --------
            fs.energy_out_wh += self._op_delivered_w * dt / SECONDS_PER_HOUR
            fs.energy_in_wh += self._op_absorbed_w * dt / SECONDS_PER_HOUR
        # --- last current: the op's (0.0 on a rest op), kept on a cut-off
        np.copyto(fs.last_current, current, where=mode != _OP_REST_KEEP)

    def _active_mass(
        self,
        di: np.ndarray,
        current: np.ndarray,
        ah: np.ndarray,
        pre_soc: np.ndarray,
        arr: np.ndarray,
        fbk: np.ndarray,
    ) -> np.ndarray | None:
        """Active-mass degradation of the discharging nodes ``di``;
        returns their rate relative to the reference current (``None``
        when nothing discharges)."""
        if not len(di):
            return None
        fs = self.fleet
        cd = current[di]
        rn_d = np.where(fs._i_ref_pos[di], cd / fs._i_ref_safe[di], 0.0)
        nat = ah[di] / fs.cap_scaled[di]
        # The region of clamp01(soc) is that of soc: the edges lie in (0, 1).
        socw = _SOC_WEIGHTS_BY_RANK[
            np.searchsorted(_REGION_EDGES, pre_soc[di], side="right")
        ]
        ratew = np.ones(len(di))
        hot = (rn_d > 1.0).nonzero()[0]
        if len(hot):
            ratew[hot] = np.minimum(2.0, scalar_pow(rn_d[hot], 0.25))
        arr_sqrt = scalar_pow(arr[di], 0.5)
        weight = socw * ratew * arr_sqrt
        if fs._any_am_flat:
            weight[fs.am_flat[di]] = 1.0
        fs.damage[1][di] += (fs.am_pcf[di] * nat * weight) * fbk[di]
        return rn_d

    def _observe_all(self, dt: float) -> None:
        """Vectorised :meth:`Node.observe_battery` for the whole fleet."""
        fs = self.fleet
        soc = fs.soc
        current = fs.last_current
        fs.tr_total_time_s += dt
        deep = soc < 0.40
        dpi = deep.nonzero()[0]
        if len(dpi):
            fs.tr_deep_time_s[dpi] += dt
        di = (current > 0.0).nonzero()[0]
        if len(di):
            cd = current[di]
            ah = cd * dt / SECONDS_PER_HOUR
            fs.tr_discharged_ah[di] += ah
            # Region row: A (>= 0.8) is 0, ..., D (< 0.4) is 3.
            region = 3 - np.searchsorted(_REGION_EDGES, soc[di], side="right")
            fs.tr_region[region, di] += ah
            fs.tr_discharge_time_s[di] += dt
            fs.tr_current_time_as[di] += cd * dt
            peak = fs.tr_peak_a[di]
            upd = (cd > peak).nonzero()[0]
            if len(upd):
                fs.tr_peak_a[di[upd]] = cd[upd]
            hri = di[deep[di] & (cd > fs.tracker_ref_current[di])]
            if len(hri):
                fs.tr_high_rate_s[hri] += dt
        ci = (current < 0.0).nonzero()[0]
        if len(ci):
            fs.tr_charged_ah[ci] += -current[ci] * dt / SECONDS_PER_HOUR
        if BUS.enabled:
            # One frame per selected step, identical to the reference
            # stepper's.
            TELEMETRY.record_fleet_step(BUS.now, dt, fs)
