"""Every policy's Fig.-9 control decisions, pinned to a golden.

``tests/data/control_golden.json`` holds three kinds of record.

- *Per-policy digests.* ``e-buff``, ``baat-s``, ``baat-h``, ``baat`` and
  ``baat-planned`` each run at 6 and 48 nodes on old batteries (10 %
  fade) over a rainy, a cloudy and a sunny day, stepped and controlled
  every 600 s. A record holds the
  ``SimResult`` aggregates (rel 1e-9), the action counts (migrations,
  DVFS transitions, the monitor's throttles, migrations and parks,
  consolidations, hiding migrations, servers parked at the end; all
  exact), ``slowdown_onset_s`` and ``dod_goals``.
- *Event digests of traced, alerting runs.* One 6-node run per policy
  over the same days: per event kind its count, and a sha256 of the
  canonical event lines (``battery_frame`` and the wall-clock kinds
  dropped).
- *Event digests of scripted control passes.* Runs stepped with
  :meth:`Simulation.step_once` and direct state writes before chosen
  control steps, to reach what a paper run never does: a DVFS release,
  an evacuation before a park, a wake on solar headroom, and a pass in
  which an action on one node migrates a VM onto a parked node later in
  node order, which the same pass then checks and releases.

Every record must come out of both steppers. Together the event records
reach every kind in :data:`repro.obs.provenance.ACTION_KINDS`.

``PYTHONPATH=src python -m tests.test_control_golden`` rewrites the
golden: do that only for a deliberate change of the control rules.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.policies.factory import make_policy
from repro.datacenter.workloads import standard_mix
from repro.obs import ALERTS, BUS, disable_observability, enable_observability
from repro.obs.alerts import default_rules
from repro.obs.provenance import ACTION_KINDS
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.trace import SolarTrace
from repro.solar.weather import DayClass

GOLDEN = Path(__file__).parent / "data" / "control_golden.json"

#: Relative tolerance of a recorded float.
REL_TOL = 1e-9

POLICIES = ("e-buff", "baat-s", "baat-h", "baat", "baat-planned")
SIZES = (6, 48)
STEPPERS = ("reference", "fleet")
DAYS = (DayClass.RAINY, DayClass.CLOUDY, DayClass.SUNNY)
#: Step and control interval of the policy runs.
RUN_DT_S = 600.0
FADE = 0.1
#: Cluster size of the traced runs.
TRACED_NODES = 6

#: Step of the scripted runs, and their first control step inside the
#: operating window (08:30).
DT_S = 300.0
WINDOW_STEP = 102


def _scenario(n_nodes: int, stepper: str) -> Scenario:
    return Scenario(
        n_nodes=n_nodes,
        dt_s=RUN_DT_S,
        control_interval_s=RUN_DT_S,
        initial_fade=FADE,
        stepper=stepper,
    )


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def run_digest(result, policy) -> dict:
    """The golden fields of one run."""
    monitor = policy.monitor
    return {
        "throughput": result.throughput,
        "total_downtime_s": result.total_downtime_s,
        "unserved_wh": result.unserved_wh,
        "feedback_wh": result.feedback_wh,
        "worst_fade_per_day": result.worst_damage_per_day(),
        "mean_fade_per_day": result.mean_damage_per_day(),
        "final_socs": [n.final_soc for n in result.nodes],
        "migrations": result.migrations,
        "dvfs_transitions": result.dvfs_transitions,
        "monitor_throttles": None if monitor is None else monitor.throttles,
        "monitor_migrations": None if monitor is None else monitor.migrations,
        "monitor_parks": None if monitor is None else monitor.parks,
        "consolidations": getattr(policy, "consolidations", None),
        "hiding_migrations": (
            policy.migrations if policy.name == "baat-h" else None
        ),
        "parked_at_end": sum(n.server.policy_off for n in policy.cluster),
        "slowdown_onset_s": result.slowdown_onset_s,
        "dod_goals": result.dod_goals,
    }


def mismatches(got, want, path: str = "") -> list:
    """Where ``got`` differs from ``want``: floats beyond :data:`REL_TOL`,
    everything else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        bad = [f"{path}/{k}: missing" for k in sorted(set(want) ^ set(got))]
        for key in sorted(set(want) & set(got)):
            bad += mismatches(got[key], want[key], f"{path}/{key}")
        return bad
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [
            bad
            for i, (g, w) in enumerate(zip(got, want))
            for bad in mismatches(g, w, f"{path}[{i}]")
        ]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def policy_digest(policy_name: str, n_nodes: int, stepper: str) -> dict:
    scenario = _scenario(n_nodes, stepper)
    trace = scenario.trace_generator().days(list(DAYS))
    policy = make_policy(policy_name)
    return run_digest(Simulation(scenario, policy, trace).run(), policy)


def _keep(event) -> bool:
    """Engine events that do not depend on the stepper or wall clock."""
    return (
        event.kind not in ("battery_frame", "trace_meta")
        and not event.kind.startswith(("campaign_", "cell_"))
        and getattr(event, "scope", None) != "campaign"
    )


def events_digest(events) -> dict:
    lines = [json.dumps(e.to_dict(), sort_keys=True) for e in events if _keep(e)]
    kinds = Counter(json.loads(line)["kind"] for line in lines)
    return {
        "counts": dict(sorted(kinds.items())),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def _traced(sim: Simulation, drive) -> list:
    """Run ``drive(sim)`` with a fresh bus capture; the emitted events."""
    BUS.clear_sinks()
    ALERTS.reset()
    with BUS.capture(maxlen=None) as sink:
        drive(sim)
        return list(sink.events)


def traced_policy_events(policy_name: str, stepper: str) -> list:
    scenario = _scenario(TRACED_NODES, stepper)
    trace = scenario.trace_generator().days(list(DAYS))
    sim = Simulation(scenario, make_policy(policy_name), trace)
    return _traced(sim, Simulation.run)


# ----------------------------------------------------------------------
# Scripted control passes
# ----------------------------------------------------------------------
def _poke(sim: Simulation, write) -> None:
    """Apply ``write(sim)`` to the objects between two steps."""
    fleet = sim._fleet
    if fleet is not None:
        fleet.materialize()
    write(sim)
    if fleet is not None:
        fleet.capture()


def _set_battery(node, soc: float, current_a: float = 0.0) -> None:
    node.battery._soc = soc
    node.battery._last_current = current_a


def _hosts(sim: Simulation) -> list:
    return [n for n in sim.cluster if n.server.vms]


def _script_dvfs_release(sim: Simulation, step: int) -> None:
    """baat-s: a starved host throttles, then recovers once charged."""
    node = _hosts(sim)[0]
    if step == WINDOW_STEP:
        _set_battery(node, 0.2, 6.0)
    elif step > WINDOW_STEP:
        _set_battery(node, 0.95)


def _script_evacuation(sim: Simulation, step: int) -> None:
    """baat: a throttled, starved host with no healthier peer parks,
    its VMs evacuated first; the next pass wakes it on solar headroom."""
    if step != WINDOW_STEP:
        return
    victim = _hosts(sim)[0]
    for node in sim.cluster:
        _set_battery(node, 0.25)
    _set_battery(victim, 0.2, 6.0)
    victim.server.throttle_down()


def _script_mid_pass_wake(sim: Simulation, step: int) -> None:
    """baat: the first host triggers and migrates onto a parked,
    throttled node later in node order, which the same pass releases."""
    if step != WINDOW_STEP:
        return
    cluster = sim.cluster
    source, target = cluster.nodes[0], cluster.nodes[1]
    for vm in list(target.server.vms):
        cluster.migrate(vm.name, cluster.nodes[-1].name)
    for node in cluster:
        _set_battery(node, 0.5)
    _set_battery(source, 0.2, 6.0)
    _set_battery(target, 0.95)
    target.server.throttle_down()
    target.server.policy_off = True
    target.discharge_cap_w = 0.0
    # No consolidation in this pass: the monitor alone acts.
    sim.policy._last_consolidation_s = step * DT_S


#: name -> (policy, solar W at every step, script, steps).
SCRIPTS = {
    "dvfs-release": ("baat-s", 0.0, _script_dvfs_release, WINDOW_STEP + 4),
    "evacuation": ("baat", 5000.0, _script_evacuation, WINDOW_STEP + 3),
    "mid-pass-wake": ("baat", 0.0, _script_mid_pass_wake, WINDOW_STEP + 2),
}


def scripted_sim(case: str, stepper: str) -> Simulation:
    """Six nodes and four VMs: two nodes start without a VM."""
    policy_name, solar_w, _script, steps = SCRIPTS[case]
    scenario = Scenario(
        n_nodes=6, dt_s=DT_S, stepper=stepper, workloads=standard_mix()[:4]
    )
    trace = SolarTrace(
        dt_s=DT_S, power_w=np.full(steps, solar_w), day_classes=("scripted",)
    )
    return Simulation(scenario, make_policy(policy_name), trace)


def drive_script(case: str, sim: Simulation) -> None:
    script = SCRIPTS[case][2]
    while sim.steps_done < sim.steps_total:
        step = sim.steps_done
        if step >= WINDOW_STEP:
            _poke(sim, lambda s: script(s, step))
        sim.step_once()


def scripted_events(case: str, stepper: str) -> list:
    sim = scripted_sim(case, stepper)
    return _traced(sim, lambda s: drive_script(case, s))


# ----------------------------------------------------------------------
# Observability on for the traced records
# ----------------------------------------------------------------------
class _Alerting:
    def __enter__(self):
        BUS.clear_sinks()
        enable_observability()
        return self

    def __exit__(self, *exc):
        disable_observability()
        BUS.clear_sinks()
        for rule in default_rules():
            ALERTS.add_rule(rule)


@pytest.fixture
def alerting():
    with _Alerting():
        yield


def _load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("n_nodes", SIZES)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_policy_digest(policy_name, n_nodes, stepper):
    want = _load()["digests"][f"{policy_name}/{n_nodes}"]
    got = json.loads(json.dumps(policy_digest(policy_name, n_nodes, stepper)))
    assert mismatches(got, want) == []


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_traced_events(alerting, policy_name, stepper):
    want = _load()["traced"][policy_name]
    assert events_digest(traced_policy_events(policy_name, stepper)) == want


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("case", sorted(SCRIPTS))
def test_scripted_events(alerting, case, stepper):
    want = _load()["scripted"][case]
    assert events_digest(scripted_events(case, stepper)) == want


@pytest.mark.parametrize("stepper", STEPPERS)
def test_mid_pass_wake_is_checked_in_the_same_pass(alerting, stepper):
    """The parked node a migration wakes is released by the pass that
    woke it: its DVFS release follows the migration at the same time."""
    events = [e for e in scripted_events("mid-pass-wake", stepper) if _keep(e)]
    t = WINDOW_STEP * DT_S
    moved = [e for e in events if e.kind == "vm_migrated" and e.t == t]
    assert moved
    dest = moved[0].dest
    assert any(e.kind == "dvfs_uncap" and e.node == dest and e.t == t for e in events)
    assert events.index(moved[0]) < next(
        i for i, e in enumerate(events) if e.kind == "dvfs_uncap" and e.node == dest
    )


def test_golden_reaches_every_action_kind():
    golden = _load()
    seen = set()
    for group in ("traced", "scripted"):
        for record in golden[group].values():
            seen |= {k for k, n in record["counts"].items() if n > 0}
    assert set(ACTION_KINDS) <= seen, sorted(set(ACTION_KINDS) - seen)


# ----------------------------------------------------------------------
def _generate() -> dict:
    """Build the golden, insisting that both steppers agree on it."""

    def agreed(make):
        records = [make(stepper) for stepper in STEPPERS]
        assert all(mismatches(r, records[0]) == [] for r in records[1:])
        return records[0]

    golden = {"digests": {}, "traced": {}, "scripted": {}}
    for policy_name in POLICIES:
        for n_nodes in SIZES:
            golden["digests"][f"{policy_name}/{n_nodes}"] = agreed(
                lambda s: json.loads(json.dumps(policy_digest(policy_name, n_nodes, s)))
            )
    with _Alerting():
        for policy_name in POLICIES:
            golden["traced"][policy_name] = agreed(
                lambda s: events_digest(traced_policy_events(policy_name, s))
            )
        for case in sorted(SCRIPTS):
            golden["scripted"][case] = agreed(
                lambda s: events_digest(scripted_events(case, s))
            )
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
