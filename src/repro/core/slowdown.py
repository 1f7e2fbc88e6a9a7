"""Aging slowdown: server-level control (paper section IV-C, Fig. 9).

"It is dangerous to discharge battery with high discharge rate during low
SoC state." The slowdown monitor periodically checks two metrics once a
battery drops below 40 % SoC:

- **DDT** — deep-discharge time over the current assessment window; and
- **DR** — whether present discharge would exhaust the battery's reserve
  within the 2-minute emergency window (``P_threshold`` in the Fig. 9
  caption, derived from the Govindan et al. 2-minute UPS-reserve rule the
  paper cites).

On a violation the monitor prefers VM migration to a healthy node (chosen
by minimal weighted aging, like the hiding scheme); if no migration is
feasible it falls back to DVFS power capping, and it additionally caps the
node's battery discharge to the 2-minute-safe power. Frequencies recover
once the battery climbs back above the recovery SoC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.battery.peukert import peukert_factor, peukert_factor_array
from repro.battery.unit import BatteryUnit
from repro.core.controller import BAATController
from repro.core.scheduler import AgingHidingScheduler
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.errors import ConfigurationError, MigrationError
from repro.obs import ALERTS, BUS, REGISTRY
from repro.obs.events import (
    DvfsCapEvent,
    DvfsUncapEvent,
    EvacuationEvent,
    ParkEvent,
    SlowdownActionEvent,
)
from repro.obs.spans import SPANS, caused_by, in_span
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Operating-window end used when no scenario is bound (the paper's
#: prototype runs 8:30-18:30). A bound policy derives the real horizon
#: from ``Scenario.operating_window_h`` instead.
DEFAULT_WINDOW_END_H = 18.5

#: The alert rules a monitoring pass observes, floor rule first.
_WATCHED_RULES = ("soc_floor_violation", "ddt_window_breach", "dr_reserve_exhaustion")


def _key_mask(fleet, keys) -> np.ndarray:
    """Per fleet node: is its name among ``keys``?"""
    if not keys:
        return np.zeros(fleet.n, dtype=bool)
    return np.array([name in keys for name in fleet.node_names])


def reserve_seconds(battery: BatteryUnit, power_w: float) -> float:
    """How long the battery could sustain ``power_w`` before its cut-off.

    Inverts the Peukert-corrected drain at the implied current. Returns
    ``inf`` for zero draw.
    """
    if power_w <= 0.0:
        return float("inf")
    voltage = battery.terminal_voltage(0.0)
    if voltage <= 0:
        return 0.0
    current = power_w / voltage
    avail_ah = max(
        0.0, (battery.soc - battery.params.cutoff_soc) * battery.effective_capacity_ah
    )
    drain_per_s = current * peukert_factor(current, battery.params) / SECONDS_PER_HOUR
    if drain_per_s <= 0:
        return float("inf")
    return avail_ah / drain_per_s


@dataclass(frozen=True)
class SlowdownConfig:
    """Thresholds of the Fig.-9 procedure.

    Attributes
    ----------
    low_soc_threshold:
        SoC below which checks begin (40 %; planned aging overrides it
        with ``1 - DoD_goal``).
    ddt_threshold:
        Window DDT fraction above which action is taken.
    reserve_seconds_threshold:
        The 2-minute emergency reserve (T_threshold).
    recovery_soc:
        SoC at which throttled servers return to full frequency.
    prefer_migration:
        Full BAAT migrates first and throttles only as a fallback; BAAT-s
        sets this False (DVFS only).
    """

    low_soc_threshold: float = 0.40
    ddt_threshold: float = 0.25
    reserve_seconds_threshold: float = 120.0
    recovery_soc: float = 0.60
    prefer_migration: bool = True
    #: SoC floor the rationing cap protects: once triggered, battery draw
    #: is limited so the charge above this floor stretches to the end of
    #: the operating window ("promote the chances of battery charging to a
    #: higher SoC when the intermittent power supply becomes sufficient").
    #: Just below the 40 % line, so slowdown parks batteries out of the
    #: sulphation-prone deep-discharge region.
    protected_soc: float = 0.28
    #: End of the operating window (local hours), for rationing horizons.
    #: ``None`` (the default) derives it from the bound scenario's
    #: ``operating_window_h`` — falling back to 18.5 for monitors built
    #: without a scenario. An explicit value always wins.
    window_end_h: Optional[float] = None
    #: A migration is worthwhile only onto a materially healthier node:
    #: the target battery must have at least this much more SoC than the
    #: source. Guards full BAAT against BAAT-h-style churn when every node
    #: is equally stressed.
    migration_soc_margin: float = 0.12
    #: Whether the action ladder may park a server (planned checkpointing)
    #: when even its idle draw is unsustainable. Full BAAT coordinates
    #: checkpoint/consolidation; BAAT-s is frequency-throttling only
    #: (Table 4) and must leave this False.
    allow_parking: bool = True
    #: Deepest DVFS ladder step the monitor will command (None = the
    #: hardware floor). With idle-dominated servers, deep throttling is
    #: power-*inefficient* per unit of compute, so full BAAT — which can
    #: migrate and park instead — stops at a shallow step; BAAT-s has no
    #: other lever and rides the whole ladder (its Fig. 20 penalty).
    max_throttle_index: int = 10**6

    def __post_init__(self) -> None:
        if not 0.0 < self.low_soc_threshold < 1.0:
            raise ConfigurationError("low_soc_threshold must be in (0, 1)")
        if not 0.0 <= self.ddt_threshold <= 1.0:
            raise ConfigurationError("ddt_threshold must be in [0, 1]")
        if self.recovery_soc <= self.low_soc_threshold:
            raise ConfigurationError("recovery_soc must exceed low_soc_threshold")
        if not 0.0 <= self.protected_soc < self.low_soc_threshold:
            raise ConfigurationError("protected_soc must be below low_soc_threshold")
        if self.window_end_h is not None and not 0.0 < self.window_end_h <= 24.0:
            raise ConfigurationError("window_end_h must be in (0, 24]")


class SlowdownMonitor:
    """Implements the Fig.-9 control loop for one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        controller: BAATController,
        scheduler: Optional[AgingHidingScheduler] = None,
        config: Optional[SlowdownConfig] = None,
        window_end_h: Optional[float] = None,
    ):
        self.cluster = cluster
        self.controller = controller
        self.scheduler = scheduler
        self.config = config or SlowdownConfig()
        #: Rationing horizon (local hours): an explicit config value wins,
        #: then the scenario-derived window end passed by the binding
        #: policy, then the prototype's 18:30.
        if self.config.window_end_h is not None:
            self.window_end_h = self.config.window_end_h
        elif window_end_h is not None:
            self.window_end_h = window_end_h
        else:
            self.window_end_h = DEFAULT_WINDOW_END_H
        self.migrations = 0
        self.throttles = 0
        self.parks = 0
        #: Simulation time of the first action taken, or None. The paper's
        #: Fig. 12 marks when slowdown engages on each weather day ("the
        #: slowdown time varies in different weathers").
        self.first_action_t: Optional[float] = None
        #: Per-node override of the low-SoC threshold (planned aging).
        self.low_soc_override: dict = {}
        #: Per-node override of the protected spending floor (planned
        #: aging: a deep DoD goal lowers the floor so the charge may be
        #: spent, while monitoring still engages at the threshold).
        self.floor_override: dict = {}
        #: Per-node (trigger, cause eid) of the last :meth:`check` that
        #: fired — the provenance anchor :meth:`control` stamps onto the
        #: resulting action events.
        self.last_trigger: dict = {}
        self._last_t = 0.0
        # Cached (fleet, threshold, floor) arrays for the vectorized pass;
        # only valid while no per-node overrides exist (planned aging
        # rebuilds them every pass instead).
        self._thr_cache: Optional[tuple] = None

    def low_soc_threshold(self, node: Node) -> float:
        """Effective low-SoC trigger for a node."""
        return self.low_soc_override.get(node.name, self.config.low_soc_threshold)

    # ------------------------------------------------------------------
    def check(self, node: Node, current_draw_w: float) -> bool:
        """True when the Fig.-9 trigger fires for this node.

        Below the low-SoC line, any of three conditions acts:

        - the window DDT exceeds its threshold (chronic deep discharge);
        - the present draw leaves less than the 2-minute reserve; or
        - the present draw exceeds the *sustainable ration* — the power at
          which the remaining protected charge lasts to the end of the
          operating window. This is the "high discharge rate during low
          SoC" condition of section III-E: a draw that is fine at 80 % SoC
          is dangerous at 35 %.
        """
        battery = node.battery
        below = battery.soc < self.low_soc_threshold(node)
        alerting = ALERTS.enabled
        if not below and not alerting:
            return False
        if not below and not (
            ALERTS.is_active("ddt_window_breach", node.name)
            or ALERTS.is_active("dr_reserve_exhaustion", node.name)
        ):
            # Healthy node, no episode in flight: the DDT/DR watchdogs
            # only act below the low-SoC line (section III-E) and DDT
            # cannot accrue above it, so computing the window metrics
            # here would feed alerts that can neither fire nor clear —
            # skip the (comparatively expensive) window/reserve read.
            return False
        ddt = self.controller.window_metrics(node).ddt
        reserve = reserve_seconds(battery, current_draw_w)
        ddt_alert = dr_alert = None
        if alerting:
            # Feed the watched values even when healthy, so active alerts
            # can observe their hysteresis release.
            ddt_alert, dr_alert = self._observe_watchdogs(node.name, ddt, reserve)
        if not below:
            return False
        if ddt > self.config.ddt_threshold:
            self._record_trigger(node, "ddt", ddt_alert, "ddt_window_breach")
            return True
        if reserve < self.config.reserve_seconds_threshold:
            self._record_trigger(node, "dr", dr_alert, "dr_reserve_exhaustion")
            return True
        if current_draw_w > self._ration_w(node, self._last_t):
            self._record_trigger(node, "ration", None, None)
            return True
        return False

    def _observe_watchdogs(self, name: str, ddt: float, reserve: float) -> tuple:
        """Feed one node's DDT and DR values to their alert rules.

        Observing inside the node's deep-discharge span (if one is open)
        stamps the excursion onto the alert events for provenance chains.
        Returns the (DDT, DR) alert emissions, either possibly None.
        """
        with in_span(SPANS.open_id("deep_discharge", name)):
            return (
                ALERTS.observe(
                    "ddt_window_breach",
                    name,
                    ddt,
                    self._last_t,
                    threshold=self.config.ddt_threshold,
                ),
                ALERTS.observe(
                    "dr_reserve_exhaustion",
                    name,
                    reserve,
                    self._last_t,
                    threshold=self.config.reserve_seconds_threshold,
                ),
            )

    def _record_trigger(self, node: Node, trigger: str, alert, rule_name) -> None:
        """Remember which check tripped and its causal anchor event.

        The cause is the alert emission backing the trip (fresh, or the
        still-active episode's when dedup suppressed one), falling back
        to the node's open deep-discharge span — the rationing check has
        no alert rule, and alerting may be off while tracing is on.
        """
        if not BUS.enabled:
            return
        cause = 0
        if alert is not None and not alert.cleared:
            cause = alert.eid
        elif rule_name is not None and ALERTS.enabled:
            cause = ALERTS.active_cause(rule_name, node.name)
        if not cause:
            cause = SPANS.open_id("deep_discharge", node.name)
        self.last_trigger[node.name] = (trigger, cause)

    def act(self, node: Node, t: float) -> str:
        """Apply the Fig.-9 action ladder to a triggered node.

        Returns the action taken: ``"migrated"``, ``"throttled"``, or
        ``"capped"`` (discharge cap only, when the server is already at
        its frequency floor).
        """
        cfg = self.config
        if cfg.prefer_migration and self.scheduler is not None and node.server.vms:
            # Move the heaviest migratable VM to the healthiest node —
            # but only when that node's battery is materially healthier,
            # otherwise migration is the BAAT-h churn the paper criticises.
            candidates = sorted(
                node.server.vms, key=lambda vm: -vm.workload.mean_util
            )
            for vm in candidates:
                target = self.scheduler.migration_target(vm, node.name)
                if target is None:
                    continue
                target_node = self.cluster.node(target)
                margin = target_node.battery.soc - node.battery.soc
                if margin < cfg.migration_soc_margin:
                    continue
                try:
                    self.cluster.migrate(vm.name, target)
                except MigrationError:
                    continue
                self.migrations += 1
                self._cap_discharge(node, t)
                return "migrated"
        # DVFS fallback ("if the VM cannot be migrated ... perform DVFS").
        if node.server.freq_index < cfg.max_throttle_index and node.server.throttle_down():
            self.throttles += 1
            if BUS.enabled:
                # One dvfs_cap span covers first throttle to full recovery
                # (start is idempotent while the episode stays open).
                span_id = SPANS.start("dvfs_cap", node=node.name, t=t)
                BUS.emit(
                    DvfsCapEvent(
                        t=t,
                        span_id=span_id,
                        node=node.name,
                        freq_index=node.server.freq_index,
                        freq=node.server.frequency,
                    )
                )
            if REGISTRY.enabled:
                REGISTRY.counter("slowdown/dvfs_caps").inc()
            self._cap_discharge(node, t)
            return "throttled"
        # Ladder exhausted. If even the idle draw is unsustainable, park
        # the server gracefully — the prototype's planned checkpointing
        # ("when solar power budget is temporarily unavailable, our system
        # can make checkpoint and all VM states are saved") — instead of
        # letting the battery run to an unplanned cut-off.
        if (
            cfg.allow_parking
            and self._ration_w(node, t) < node.server.params.idle_w
            and self._active_count() > max(1, len(self.cluster.nodes) // 2)
        ):
            self._evacuate(node, t)
            for vm in node.server.vms:
                vm.checkpoint()
            node.server.policy_off = True
            node.discharge_cap_w = 0.0
            self.parks += 1
            if BUS.enabled:
                span_id = SPANS.start("parked", node=node.name, t=t)
                BUS.emit(
                    ParkEvent(
                        t=t, span_id=span_id, node=node.name, reason="slowdown"
                    )
                )
            if REGISTRY.enabled:
                REGISTRY.counter("slowdown/parks").inc()
            return "parked"
        self._cap_discharge(node, t)
        return "capped"

    def _active_count(self) -> int:
        """Servers currently serving (up and not parked). Parking stops at
        half the fleet — the datacenter sheds load, it does not shut."""
        return sum(
            1 for n in self.cluster if n.is_up and not n.server.policy_off
        )

    def _evacuate(self, node: Node, t: float) -> None:
        """Move VMs off a node that is about to park.

        The SoC margin is waived here: a parked VM makes zero progress, so
        *any* live host beats staying.
        """
        if self.scheduler is None:
            return
        moved = 0
        # The evacuation span groups the burst of migrations it causes.
        with SPANS.span("evacuation", node=node.name, t=t) as span_id:
            for vm in list(node.server.vms):
                target = self.scheduler.migration_target(vm, node.name)
                if target is None:
                    continue
                try:
                    self.cluster.migrate(vm.name, target)
                except MigrationError:
                    continue
                self.migrations += 1
                moved += 1
            if moved and BUS.enabled:
                BUS.emit(
                    EvacuationEvent(
                        t=t, span_id=span_id, node=node.name, moved=moved
                    )
                )

    def recover(self, node: Node) -> None:
        """Release parking/throttling/caps gradually as the battery
        recovers.

        Stepping one DVFS level per control pass avoids the throttle/
        recover oscillation a full jump would cause at the recovery edge.
        """
        if node.server.policy_off:
            # Waking parked servers is a cluster-level decision (the
            # consolidation plan), not a per-node one: a freshly recharged
            # battery does not mean the fleet can afford another server.
            return
        if node.battery.soc >= self.config.recovery_soc:
            self._release(node)

    def _release(self, node: Node) -> None:
        """Step a recovered node one DVFS level up and lift its cap."""
        if node.server.throttle_up() and BUS.enabled:
            BUS.emit(
                DvfsUncapEvent(
                    t=self._last_t,
                    span_id=SPANS.open_id("dvfs_cap", node.name),
                    node=node.name,
                    freq_index=node.server.freq_index,
                    freq=node.server.frequency,
                )
            )
            if node.server.freq_index == 0:
                # Back at full frequency: the cap episode is over.
                SPANS.end("dvfs_cap", node=node.name, t=self._last_t)
        node.discharge_cap_w = float("inf")

    def protected_floor(self, node: Node) -> float:
        """SoC floor the rationing protects for this node.

        An explicit per-node override (planned aging's Eq.-7 spending
        allowance) wins; otherwise the floor tracks the node's low-SoC
        threshold at a fixed offset.
        """
        hard_floor = node.battery.params.cutoff_soc + 0.02
        if node.name in self.floor_override:
            return max(hard_floor, self.floor_override[node.name])
        threshold = self.low_soc_threshold(node)
        offset = self.config.low_soc_threshold - self.config.protected_soc
        return max(hard_floor, threshold - offset)

    def _ration_w(self, node: Node, t: float) -> float:
        """Sustainable battery power: the charge above the protected floor
        rationed over the remainder of the operating window."""
        battery = node.battery
        tod_h = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        remaining_s = max(300.0, (self.window_end_h - tod_h) * SECONDS_PER_HOUR)
        usable_ah = max(
            0.0,
            (battery.soc - self.protected_floor(node)) * battery.effective_capacity_ah,
        )
        voltage = battery.terminal_voltage(0.0)
        return usable_ah * voltage * SECONDS_PER_HOUR / remaining_s

    def _cap_discharge(self, node: Node, t: float) -> None:
        """Cap battery draw at the sustainable ration.

        Above the protected SoC floor the cap is floored at the server's
        idle draw — a throttled server should ride through at minimum
        speed rather than flap through brownout/boot cycles. At the floor
        itself the ration takes over fully; the battery is not drained
        past the protected charge.
        """
        # A parking-capable monitor parks before the floor matters; a
        # DVFS-only monitor cannot shed the idle draw, so the server keeps
        # eating (and eventually browns out) — the paper's "passive
        # solution" behaviour of BAAT-s.
        node.discharge_cap_w = max(self._ration_w(node, t), node.server.params.idle_w)

    # ------------------------------------------------------------------
    def control(self, t: float, node_draws: dict) -> List[str]:
        """One monitoring pass over all nodes.

        Parameters
        ----------
        node_draws:
            Mapping of node name to its battery draw (W) in the last step,
            used for the DR/reserve check.

        Returns the actions taken, for logging.
        """
        actions: List[str] = []
        self._last_t = t
        for node in self.cluster:
            # Skip down servers and consolidation-parked ones — a parked
            # node's zero discharge cap must not be overridden here.
            if not node.is_up or node.server.policy_off:
                continue
            draw = node_draws.get(node.name, 0.0)
            if ALERTS.enabled:
                ALERTS.observe(
                    "soc_floor_violation",
                    node.name,
                    node.battery.soc,
                    t,
                    threshold=self.protected_floor(node),
                )
            if self.check(node, draw):
                trigger, cause = self.last_trigger.pop(node.name, ("", 0))
                # Everything the action ladder emits — migrations, DVFS
                # caps, parks, evacuations — inherits the triggering
                # alert/excursion as its cause through the ambient
                # context, no signature plumbing needed.
                with caused_by(cause):
                    action = self.act(node, t)
                    actions.append(f"{node.name}:{action}")
                    if self.first_action_t is None:
                        self.first_action_t = t
                    if BUS.enabled:
                        BUS.emit(
                            SlowdownActionEvent(
                                t=t,
                                node=node.name,
                                action=action,
                                soc=node.battery.soc,
                                draw_w=draw,
                                cap_w=node.discharge_cap_w,
                                trigger=trigger,
                            )
                        )
                if REGISTRY.enabled:
                    REGISTRY.counter(f"slowdown/actions/{action}").inc()
            else:
                self.recover(node)
        return actions

    # ------------------------------------------------------------------
    # Vectorized fast path (fleet stepper)
    # ------------------------------------------------------------------
    def _fleet_thresholds(self, fleet):
        """Per-node (low-SoC threshold, protected floor) arrays.

        Without overrides both are pure config constants, cached per
        fleet; planned aging's per-node overrides force a rebuild through
        the object-path accessors every pass, keeping the arrays
        bit-identical to :meth:`low_soc_threshold`/:meth:`protected_floor`.
        """
        if not self.low_soc_override and not self.floor_override:
            cached = self._thr_cache
            if cached is not None and cached[0] is fleet:
                return cached[1], cached[2]
            thr = np.full(fleet.n, self.config.low_soc_threshold)
            offset = self.config.low_soc_threshold - self.config.protected_soc
            floor = np.maximum(fleet.cutoff_soc + 0.02, thr - offset)
            self._thr_cache = (fleet, thr, floor)
            return thr, floor
        thr = np.array([self.low_soc_threshold(nd) for nd in fleet.nodes])
        floor = np.array([self.protected_floor(nd) for nd in fleet.nodes])
        return thr, floor

    def _reserve_seconds_array(self, fleet, idx, draws, voltage, der):
        """Vector :func:`reserve_seconds` for the node subset ``idx``.

        Same branch structure as the scalar: zero draw -> inf, dead
        voltage -> 0, Peukert-inflated drain otherwise.
        """
        out = np.full(len(idx), float("inf"))
        out[(draws > 0.0) & (voltage <= 0.0)] = 0.0
        li = np.nonzero((draws > 0.0) & (voltage > 0.0))[0]
        if len(li):
            sub = idx[li]
            current = draws[li] / voltage[li]
            avail = np.maximum(
                0.0, (fleet.soc[sub] - fleet.cutoff_soc[sub]) * der["eff_cap"][sub]
            )
            pf = peukert_factor_array(
                current, fleet.i_ref[sub], fleet.k_minus_1[sub]
            )
            drain = current * pf / SECONDS_PER_HOUR
            pos = drain > 0.0
            out[li] = np.where(
                pos,
                np.divide(avail, drain, out=np.zeros(len(li)), where=pos),
                float("inf"),
            )
        return out

    def _ration_w_array(self, fleet, idx, floor, voltage, der, t):
        """Vector :meth:`_ration_w` for the node subset ``idx``."""
        tod_h = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        remaining_s = max(300.0, (self.window_end_h - tod_h) * SECONDS_PER_HOUR)
        usable = np.maximum(0.0, (fleet.soc[idx] - floor) * der["eff_cap"][idx])
        return usable * voltage * SECONDS_PER_HOUR / remaining_s

    def fleet_control(self, t: float, fleet) -> bool:
        """One monitoring pass as array threshold checks over ``fleet``.

        Covers every pass of :meth:`control` in which no node triggers:
        the Fig.-9 trigger predicates (DDT, reserve, ration) for every
        eligible node, then, per node in node order, the alert
        observations :meth:`control` and :meth:`check` make and the
        recovery release of :meth:`recover` (with its DvfsUncap event
        and ``dvfs_cap`` span end when the bus is on). Returns ``False``
        — telling the caller to materialize and run the object path
        instead — when any node triggers its action ladder (the rare
        per-node actions are deliberately not replicated in array form),
        or when alerting is on and a watched rule is not a ``threshold``
        rule.

        Bit-compatibility: the trigger predicates depend only on battery/
        tracker state and constants, never on earlier actions within the
        same pass, so evaluating them in one batch, before any side
        effect, matches the sequential object loop. A threshold rule's
        observation changes nothing for a key that is neither breached
        nor in an active episode, so observing only the others emits the
        same alerts in the same order; the watched values are the array
        twins of the object path's floats.
        """
        self._last_t = t
        cfg = self.config
        soc = fleet.soc
        eligible = fleet.server_up & ~fleet.policy_off_mask
        thr, floor = self._fleet_thresholds(fleet)
        below = eligible & (soc < thr)
        alerting = ALERTS.enabled
        if alerting:
            rules = [ALERTS.rule(name) for name in _WATCHED_RULES]
            if any(rule.kind != "threshold" for rule in rules):
                return False
            # check() reads DDT/DR below the line, and wherever an
            # episode needs to observe its hysteresis release.
            watch = below | (
                eligible
                & (
                    _key_mask(fleet, ALERTS.active_keys("ddt_window_breach"))
                    | _key_mask(fleet, ALERTS.active_keys("dr_reserve_exhaustion"))
                )
            )
        else:
            watch = below
        wi = np.nonzero(watch)[0]
        if len(wi):
            in_below = below[wi]
            ddt = self.controller.window_ddt_array(fleet)[wi]
            if (in_below & (ddt > cfg.ddt_threshold)).any():
                return False
            der = fleet.derived_now()
            # The DR draw signal: the same floats the engine's lazy
            # last_draw_powers() refresh hands the object path.
            cur = np.maximum(0.0, fleet.last_current[wi])
            tv = fleet.terminal_voltage(soc[wi], cur, der, wi)
            draws = cur * np.maximum(tv, 0.0)
            v0 = fleet.ocv(soc, der)[wi]
            reserve = self._reserve_seconds_array(fleet, wi, draws, v0, der)
            ration = self._ration_w_array(fleet, wi, floor[wi], v0, der, t)
            if (
                in_below
                & ((reserve < cfg.reserve_seconds_threshold) | (draws > ration))
            ).any():
                return False
        # No trigger anywhere: the object loop would only observe alerts
        # and run recover().
        rec = eligible & (soc >= cfg.recovery_soc) & fleet.policy_restricted
        if alerting:
            # AlertRule.breached compares elementwise given arrays.
            floor_obs = eligible & (
                rules[0].breached(soc, floor)
                | _key_mask(fleet, ALERTS.active_keys("soc_floor_violation"))
            )
            watched = (
                dict(zip(wi.tolist(), zip(ddt.tolist(), reserve.tolist())))
                if len(wi)
                else {}
            )
            todo = np.nonzero(floor_obs | watch | rec)[0].tolist()
        else:
            todo = np.nonzero(rec)[0].tolist()
        for i in todo:
            node = fleet.nodes[i]
            if alerting:
                if floor_obs[i]:
                    ALERTS.observe(
                        "soc_floor_violation",
                        node.name,
                        float(soc[i]),
                        t,
                        threshold=float(floor[i]),
                    )
                if i in watched:
                    self._observe_watchdogs(node.name, *watched[i])
            if rec[i]:
                self._release(node)
                fleet.refresh_node(i)
        return True
