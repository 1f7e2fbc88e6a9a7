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

A monitoring pass (:meth:`SlowdownMonitor.fleet_control`) decides on the
fleet arrays and acts through the node objects (:meth:`SlowdownMonitor.act`,
:meth:`SlowdownMonitor._release`), on either engine stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.battery.peukert import peukert_factor_array
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

#: Trigger labels by the code :meth:`SlowdownMonitor.fleet_control` gives
#: them, in Fig.-9 precedence.
_TRIGGERS = {1: "ddt", 2: "dr", 3: "ration"}


def _key_mask(fleet, keys) -> np.ndarray:
    """Per fleet node: is its name among ``keys``?"""
    if not keys:
        return np.zeros(fleet.n, dtype=bool)
    return np.array([name in keys for name in fleet.node_names])


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
        self._last_t = 0.0
        # Cached (fleet, threshold, floor) arrays for the vectorized pass;
        # only valid while no per-node overrides exist (planned aging
        # rebuilds them every pass instead).
        self._thr_cache: Optional[tuple] = None

    def low_soc_threshold(self, node: Node) -> float:
        """Effective low-SoC trigger for a node."""
        return self.low_soc_override.get(node.name, self.config.low_soc_threshold)

    # ------------------------------------------------------------------
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
    # Array decisions
    # ------------------------------------------------------------------
    def _fleet_thresholds(self, fleet):
        """Per-node (low-SoC threshold, protected floor) arrays.

        Without overrides both are pure config constants, cached per
        fleet; planned aging's per-node overrides force a rebuild through
        the per-node accessors every pass, keeping the arrays
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
        """How long each battery of the node subset ``idx`` could sustain
        its draw before its cut-off: the Peukert-corrected drain at the
        implied current, inverted. Zero draw -> inf, dead voltage -> 0.
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

    def _cause(self, name: str, trigger: str, alerts: tuple) -> int:
        """The provenance anchor of a trip: the alert emission backing it
        (fresh, or the still-active episode's when dedup suppressed one),
        else the node's open deep-discharge span. The ration check has
        no alert rule, and alerting may be off while tracing is on."""
        rule_name, alert = {
            "ddt": ("ddt_window_breach", alerts[0]),
            "dr": ("dr_reserve_exhaustion", alerts[1]),
        }.get(trigger, (None, None))
        cause = 0
        if alert is not None and not alert.cleared:
            cause = alert.eid
        elif rule_name is not None and ALERTS.enabled:
            cause = ALERTS.active_cause(rule_name, name)
        return cause or SPANS.open_id("deep_discharge", name)

    def _trip(self, node: Node, t: float, trigger: str, draw: float, cause: int) -> None:
        """Run the action ladder on a triggered node and report it.

        Everything the ladder emits (migrations, DVFS caps, parks,
        evacuations) inherits the trip's cause through the ambient
        context.
        """
        with caused_by(cause):
            action = self.act(node, t)
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

    def fleet_control(self, t: float, fleet) -> None:
        """One Fig.-9 monitoring pass over ``fleet``: decide on the
        arrays, act through the objects.

        The decisions are array passes over every node: the trigger
        predicates below the low-SoC line (window DDT, then the 2-minute
        reserve at the last step's draw, then the sustainable ration),
        the nodes whose alert rules must observe, and the recovered nodes
        (at or above the recovery SoC, still throttled or capped). Then,
        per node in node order, it makes the node's alert observations
        and acts: a triggered node runs :meth:`act` (after one
        ``fleet.materialize()`` for the pass), a recovered one
        :meth:`_release`. A pass that acted ends with
        ``fleet.refresh_policy_view()``.

        Skipped nodes are those down or parked (``policy_off``), read
        from the arrays until the pass first acts and live from the
        objects after that: a migration wakes a parked destination, which
        is then checked or released later in the same pass. The trigger
        predicates read only battery and tracker state, which no action
        changes, so deciding them all before the first side effect is
        the sequential Fig.-9 loop.

        With alerting on, a ``threshold`` rule's observation changes
        nothing for a key that is neither breached nor in an active
        episode, so the floor rule observes only the others; a rule of
        any other kind observes every node. The DDT and DR rules observe
        below the line and wherever an episode is active.
        """
        self._last_t = t
        cfg = self.config
        soc = fleet.soc
        up = fleet.server_up
        eligible = up & ~fleet.policy_off_mask
        thr, floor = self._fleet_thresholds(fleet)
        below = soc < thr
        rec = (soc >= cfg.recovery_soc) & fleet.policy_restricted
        alerting = ALERTS.enabled
        watch = below
        if alerting:
            watch = below | (
                _key_mask(fleet, ALERTS.active_keys("ddt_window_breach"))
                | _key_mask(fleet, ALERTS.active_keys("dr_reserve_exhaustion"))
            )
            floor_rule = ALERTS.rule("soc_floor_violation")
            if floor_rule.kind == "threshold":
                # AlertRule.breached compares elementwise given arrays.
                floor_obs = floor_rule.breached(soc, floor) | _key_mask(
                    fleet, ALERTS.active_keys("soc_floor_violation")
                )
            else:
                floor_obs = np.ones(fleet.n, dtype=bool)
            todo = rec | watch | floor_obs
        else:
            todo = rec.copy()
        # Watched values of every up node, parked ones included: a parked
        # node woken mid-pass is checked with them.
        wi = np.nonzero(watch & up)[0]
        watched, tripped = {}, {}
        if len(wi):
            ddt = self.controller.window_ddt_array(fleet)[wi]
            der = fleet.derived_now()
            # The DR draw signal: the last step's discharge current at
            # the terminal voltage it left.
            cur = np.maximum(0.0, fleet.last_current[wi])
            tv = fleet.terminal_voltage(soc[wi], cur, der, wi)
            draws = cur * np.maximum(tv, 0.0)
            v0 = fleet.ocv(soc, der)[wi]
            reserve = self._reserve_seconds_array(fleet, wi, draws, v0, der)
            ration = self._ration_w_array(fleet, wi, floor[wi], v0, der, t)
            # First matching trigger in Fig.-9 order: DDT, DR, ration.
            code = np.where(
                ddt > cfg.ddt_threshold,
                1,
                np.where(
                    reserve < cfg.reserve_seconds_threshold,
                    2,
                    np.where(draws > ration, 3, 0),
                ),
            )
            code[~below[wi]] = 0
            hit = np.nonzero(code)[0]
            for i, c, draw in zip(
                wi[hit].tolist(), code[hit].tolist(), draws[hit].tolist()
            ):
                tripped[i] = (_TRIGGERS[c], draw)
            todo[wi[hit]] = True
            if alerting:
                watched = dict(zip(wi.tolist(), zip(ddt.tolist(), reserve.tolist())))
        order = np.nonzero(todo & eligible)[0].tolist()
        nodes = fleet.nodes
        acted = False
        pos = 0
        while pos < len(order):
            i = order[pos]
            pos += 1
            node = nodes[i]
            if acted and (node.server.policy_off or not node.is_up):
                continue
            alerts = (None, None)
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
                    alerts = self._observe_watchdogs(node.name, *watched[i])
            if i in tripped:
                if not acted:
                    acted = True
                    fleet.materialize()
                    # From here on eligibility is read live: visit every
                    # up node later in node order with work to do.
                    later = np.nonzero(todo & up)[0]
                    order, pos = later[later > i].tolist(), 0
                trigger, draw = tripped[i]
                cause = self._cause(node.name, trigger, alerts) if BUS.enabled else 0
                self._trip(node, t, trigger, draw, cause)
            elif rec[i]:
                self._release(node)
                if not acted:
                    fleet.refresh_node(i)
        if acted:
            fleet.refresh_policy_view()
