"""Declarative alert engine over the telemetry stream.

The paper's controller watches the five aging metrics continuously and
its DDT/DR watchdogs act below 40 % SoC; this module turns those checks
(and fleet-level regressions) into operator-facing, typed
:class:`~repro.obs.events.AlertEvent` objects with severities,
hysteresis, and dedup.

Three rule shapes cover the monitoring the health layer needs:

- **threshold** — fire when a value crosses a line (above or below),
  clear with hysteresis at ``threshold -/+ clear_margin``;
- **rate** — fire on the value's rate of change over a rolling window
  (aging-speed spikes, fade ramps);
- **fleet** — fire when one key's value exceeds ``fleet_factor`` times
  the fleet median (per-battery regression against its peers).

A fired alert stays *active* until its clear condition holds; while
active it is deduplicated (re-emitted only every ``renotify_s``). The
process-wide :data:`ALERTS` engine is disabled by default and enabled by
:func:`repro.obs.enable_observability`, mirroring the bus/registry
contract: live call sites (slowdown monitor, planned aging, campaign
runner) guard on ``ALERTS.enabled`` so the off path costs one branch.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from statistics import median
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import AlertEvent

#: Severity ranking, least to most urgent.
SEVERITIES = ("info", "warning", "critical")
SEVERITY_ORDER: Dict[str, int] = {s: i for i, s in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Numeric urgency of a severity label (higher = more urgent)."""
    try:
        return SEVERITY_ORDER[severity]
    except KeyError:
        raise ConfigurationError(
            f"unknown severity {severity!r}; choose from {SEVERITIES}"
        ) from None


@dataclass(frozen=True)
class AlertRule:
    """One declarative monitoring rule.

    Attributes
    ----------
    kind:
        ``"threshold"`` compares the observed value itself; ``"rate"``
        compares its derivative per second over ``window_s``; ``"fleet"``
        compares each key's value to the fleet median (evaluated by
        :meth:`AlertEngine.evaluate_fleet`).
    direction:
        ``"above"`` fires when the compared quantity exceeds
        ``threshold``; ``"below"`` when it drops under it.
    clear_margin:
        Hysteresis band: an *above* alert clears only once the value
        falls below ``threshold - clear_margin`` (mirrored for *below*).
    renotify_s:
        While active, the alert is re-emitted at most this often
        (``inf`` = fire once per episode, the dedup default; ``0`` =
        every breach fires).
    fleet_factor / min_value:
        Fleet rules fire for keys whose value exceeds
        ``fleet_factor x median`` and is at least ``min_value`` (the
        floor suppresses noise when the whole fleet sits near zero).
    """

    name: str
    description: str = ""
    severity: str = "warning"
    kind: str = "threshold"
    threshold: float = 0.0
    direction: str = "above"
    clear_margin: float = 0.0
    renotify_s: float = math.inf
    window_s: float = 0.0
    fleet_factor: float = 2.0
    min_value: float = 0.0

    def __post_init__(self) -> None:
        severity_rank(self.severity)
        if self.kind not in ("threshold", "rate", "fleet"):
            raise ConfigurationError(f"unknown rule kind {self.kind!r}")
        if self.direction not in ("above", "below"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
        if self.clear_margin < 0:
            raise ConfigurationError("clear_margin must be >= 0")
        if self.renotify_s < 0:
            raise ConfigurationError("renotify_s must be >= 0")
        if self.kind == "rate" and self.window_s <= 0:
            raise ConfigurationError("rate rules need a positive window_s")
        if self.kind == "fleet" and self.fleet_factor <= 0:
            raise ConfigurationError("fleet_factor must be positive")

    # ------------------------------------------------------------------
    def breached(self, value: float, threshold: Optional[float] = None) -> bool:
        """Does ``value`` violate the rule's line?"""
        line = self.threshold if threshold is None else threshold
        return value > line if self.direction == "above" else value < line

    def released(self, value: float, threshold: Optional[float] = None) -> bool:
        """Has ``value`` crossed back past the hysteresis band?"""
        line = self.threshold if threshold is None else threshold
        if self.direction == "above":
            return value <= line - self.clear_margin
        return value >= line + self.clear_margin


@dataclass
class ActiveAlert:
    """Book-keeping for one (rule, key) currently in breach.

    ``eid`` is the bus event id of the latest emission for this episode
    (0 when the engine has no enabled bus) — the causal anchor control
    actions cite while the alert stays active but deduplicated.
    """

    rule: AlertRule
    key: str
    since_t: float
    last_emit_t: float
    value: float
    threshold: float
    eid: int = 0


class AlertEngine:
    """Evaluates rules against observed values and emits typed alerts.

    Attach a ``bus`` to publish fired alerts as events on the telemetry
    stream (the process engine publishes on :data:`repro.obs.BUS`); with
    ``bus=None`` the engine only records :attr:`history` — the mode the
    trace-replay health tooling uses.
    """

    def __init__(self, rules: Iterable[AlertRule] = (), bus=None) -> None:
        self.enabled: bool = False
        self.bus = bus
        self._rules: Dict[str, AlertRule] = {}
        self._active: Dict[Tuple[str, str], ActiveAlert] = {}
        #: Per (rule, key) sample history for rate rules.
        self._rate_hist: Dict[Tuple[str, str], Deque[Tuple[float, float]]] = {}
        #: Per rule: latest value per key, for fleet evaluation.
        self._fleet_values: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self.history: List[AlertEvent] = []
        for rule in rules:
            self.add_rule(rule)

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------
    def add_rule(self, rule: AlertRule) -> AlertRule:
        self._rules[rule.name] = rule
        return rule

    def rule(self, name: str) -> AlertRule:
        try:
            return self._rules[name]
        except KeyError:
            raise ConfigurationError(f"no alert rule named {name!r}") from None

    @property
    def rules(self) -> List[AlertRule]:
        return list(self._rules.values())

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        rule_name: str,
        key: str,
        value: float,
        t: float,
        threshold: Optional[float] = None,
    ) -> Optional[AlertEvent]:
        """Feed one observation; returns the emitted alert, if any.

        ``threshold`` overrides the rule's static line for this call —
        per-node planned-aging floors use it. Fleet rules only *record*
        here; call :meth:`evaluate_fleet` to compare the fleet.
        """
        rule = self.rule(rule_name)
        if rule.kind == "fleet":
            self._fleet_values.setdefault(rule_name, {})[key] = (value, t)
            return None
        if rule.kind == "rate":
            rate = self._update_rate(rule, key, value, t)
            if rate is None:
                return None
            value = rate
        return self._evaluate(rule, key, value, t, threshold)

    def _update_rate(
        self, rule: AlertRule, key: str, value: float, t: float
    ) -> Optional[float]:
        """Fold a sample into the rate window; return the current rate."""
        hist = self._rate_hist.setdefault((rule.name, key), deque())
        hist.append((t, value))
        # Trim to the window, keeping one sample at or beyond its edge so
        # the derivative always spans at least window_s once warmed up.
        while len(hist) >= 2 and t - hist[1][0] >= rule.window_s:
            hist.popleft()
        t0, v0 = hist[0]
        if t <= t0:
            return None
        return (value - v0) / (t - t0)

    def _evaluate(
        self,
        rule: AlertRule,
        key: str,
        value: float,
        t: float,
        threshold: Optional[float] = None,
    ) -> Optional[AlertEvent]:
        line = rule.threshold if threshold is None else threshold
        state_key = (rule.name, key)
        active = self._active.get(state_key)
        if rule.breached(value, line):
            if active is None:
                active = self._active[state_key] = ActiveAlert(
                    rule=rule, key=key, since_t=t, last_emit_t=t,
                    value=value, threshold=line,
                )
                event = self._fire(rule, key, value, line, t)
                active.eid = event.eid
                return event
            # Dedup: an already-active alert re-emits only on renotify.
            active.value = value
            active.threshold = line
            if t - active.last_emit_t >= rule.renotify_s:
                active.last_emit_t = t
                event = self._fire(rule, key, value, line, t)
                active.eid = event.eid or active.eid
                return event
            return None
        if active is not None and rule.released(value, active.threshold):
            del self._active[state_key]
            return self._fire(rule, key, value, active.threshold, t, cleared=True)
        return None

    def evaluate_fleet(self, rule_name: str, t: float) -> List[AlertEvent]:
        """Compare every key's recorded value to the fleet median."""
        rule = self.rule(rule_name)
        if rule.kind != "fleet":
            raise ConfigurationError(f"{rule_name!r} is not a fleet rule")
        values = self._fleet_values.get(rule_name, {})
        if len(values) < 2:
            return []
        fleet_median = median(v for v, _ in values.values())
        emitted: List[AlertEvent] = []
        # The min_value floor keeps a near-zero fleet median from turning
        # numerical noise into "regressions".
        line = max(rule.fleet_factor * fleet_median, rule.min_value)
        for key, (value, _) in sorted(values.items()):
            event = self._evaluate(rule, key, value, t, line)
            if event is not None:
                emitted.append(event)
        return emitted

    def _fire(
        self,
        rule: AlertRule,
        key: str,
        value: float,
        threshold: float,
        t: float,
        cleared: bool = False,
    ) -> AlertEvent:
        verb = "cleared" if cleared else "fired"
        event = AlertEvent(
            t=t,
            rule=rule.name,
            node=key,
            severity="info" if cleared else rule.severity,
            value=value,
            threshold=threshold,
            cleared=cleared,
            message=f"{rule.name} {verb} for {key}: "
            f"value {value:.4g} vs threshold {threshold:.4g}",
        )
        self.history.append(event)
        if self.bus is not None and self.bus.enabled:
            self.bus.emit(event)
        return event

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active(self) -> List[ActiveAlert]:
        """Currently-breached alerts, most severe first."""
        return sorted(
            self._active.values(),
            key=lambda a: (-severity_rank(a.rule.severity), a.rule.name, a.key),
        )

    def is_active(self, rule_name: str, key: str) -> bool:
        """Is a (rule, key) episode currently in breach?

        O(1); hot-path callers use it to skip computing expensive
        watched values when the value is known-healthy and no episode
        needs to observe its hysteresis release.
        """
        return (rule_name, key) in self._active

    def active_keys(self, rule_name: str) -> Set[str]:
        """Keys with an episode of ``rule_name`` currently in breach."""
        return {key for (name, key) in self._active if name == rule_name}

    def active_cause(self, rule_name: str, key: str) -> int:
        """Event id anchoring an active (rule, key) breach, or 0.

        Lets control code cite the alert that is *still* driving an
        action even when dedup suppressed a fresh emission this pass.
        """
        active = self._active.get((rule_name, key))
        return active.eid if active is not None else 0

    def fired(self, rule_name: Optional[str] = None) -> List[AlertEvent]:
        """Non-cleared alert emissions, optionally for one rule."""
        return [
            e
            for e in self.history
            if not e.cleared and (rule_name is None or e.rule == rule_name)
        ]

    def reset_episodes(self) -> None:
        """Forget every open episode and the samples rules evaluate over.

        :attr:`history`, the rules and ``enabled`` persist. A simulation
        calls this when it starts, so an episode a previous run left
        active neither suppresses nor clears inside the next run.
        """
        self._active.clear()
        self._rate_hist.clear()
        self._fleet_values.clear()

    def reset(self) -> None:
        """Drop all alert state and history (rules and ``enabled`` persist)."""
        self.reset_episodes()
        self.history.clear()


# ----------------------------------------------------------------------
# The standard rule set
# ----------------------------------------------------------------------
def default_rules() -> List[AlertRule]:
    """The fleet-health rule set :func:`~repro.obs.enable_observability` installs.

    Thresholds mirror the control defaults they watch
    (:class:`~repro.core.slowdown.SlowdownConfig`): the rules alert on
    the same lines the Fig.-9 procedure acts on, so an alert with no
    matching action is itself a policy regression signal.
    """
    return [
        AlertRule(
            name="ddt_window_breach",
            description="window deep-discharge time exceeded its budget",
            severity="warning",
            threshold=0.25,
            direction="above",
            clear_margin=0.05,
        ),
        AlertRule(
            name="dr_reserve_exhaustion",
            description="present draw leaves less than the emergency reserve",
            severity="critical",
            threshold=120.0,
            direction="below",
            clear_margin=60.0,
        ),
        AlertRule(
            name="soc_floor_violation",
            description="battery fell through its protected SoC floor",
            severity="critical",
            threshold=0.28,
            direction="below",
            clear_margin=0.02,
        ),
        AlertRule(
            name="aging_speed_regression",
            description="battery ages faster than the fleet median",
            severity="warning",
            kind="fleet",
            fleet_factor=2.0,
            min_value=1e-6,
        ),
        AlertRule(
            name="aging_score_ramp",
            description="weighted aging score rising anomalously fast",
            severity="info",
            kind="rate",
            threshold=0.5 / 86_400.0,  # half a score unit per day
            direction="above",
            window_s=6 * 3600.0,
        ),
        AlertRule(
            name="cache_miss_storm",
            description="campaign cache served almost nothing",
            severity="warning",
            threshold=0.75,
            direction="above",
            renotify_s=0.0,
        ),
        AlertRule(
            name="dod_goal_saturated",
            description="Eq.-7 DoD goal pinned at its 90 % ceiling",
            severity="info",
            threshold=0.899,
            direction="above",
        ),
        AlertRule(
            name="perf_regression",
            description="benchmark metric fell outside its rolling baseline",
            severity="warning",
            # Observed value is the robust-sigma deviation computed by
            # repro.perf.regression; threshold mirrors its
            # DEVIATION_THRESHOLD (alerts cannot import perf — the perf
            # CLI feeds this engine, not the other way around).
            threshold=4.0,
            direction="above",
            renotify_s=0.0,
        ),
    ]


#: The process-wide engine live control code observes into. Disabled by
#: default; ``enable_observability`` turns it on with ``default_rules``.
ALERTS = AlertEngine()
