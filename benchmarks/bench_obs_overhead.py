"""Bench: the telemetry layer must be near-free when disabled.

The `repro.obs` contract is that every instrumented call site guards on a
single ``enabled`` attribute, so a run with observability off (including
with only a :class:`~repro.obs.sinks.NullSink` attached — null sinks do
not enable the bus) pays only those branch checks over the pre-PR
baseline. This bench measures the step loop three ways:

- **disabled** — no sinks, registry off (the default state every run
  ships with; the pre-PR-equivalent path);
- **null sink** — a ``NullSink`` attached: must be indistinguishable
  from disabled (< 3 % overhead, the PR's acceptance criterion);
- **full tracing** — memory sink + metric registry + phase timers, for
  context on what enabling everything costs;
- **alerting** — full tracing plus a live :class:`~repro.obs.health.
  FleetHealthModel` on the bus and the default alert rules armed: the
  everything-on operator configuration ``repro health`` uses. Budgeted
  at :data:`MAX_ALERTING_OVERHEAD_PCT` over disabled.

Standalone runs additionally measure the **enabled-path fleet mode**: a
1024-node (``--fleet-nodes`` for more) vectorized fleet run untraced vs
traced to a real JSONL file at the default ``full`` telemetry (one
columnar ``battery_frame`` per step). Two budgets gate this in CI:
tracing must stay within :data:`MAX_FLEET_TRACED_RATIO` x the untraced
fleet run, and the trace must stay within
:data:`MAX_FRAME_BYTES_PER_NODE_STEP` bytes per node-step on disk.

Run standalone (``python benchmarks/bench_obs_overhead.py``) or through
pytest (``pytest benchmarks/bench_obs_overhead.py -s``; the pytest path
skips the minutes-long fleet mode). Standalone, ``--json PATH``
additionally writes the measurements machine-readably (the shape CI's
``BENCH_obs.json`` gate consumes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from time import perf_counter

from repro.core.policies.factory import make_policy
from repro.obs import (
    ALERTS,
    BUS,
    REGISTRY,
    JsonlSink,
    MemorySink,
    NullSink,
)
from repro.obs.alerts import default_rules
from repro.obs.health import FleetHealthModel
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

#: Acceptance threshold for the null-sink path, percent.
MAX_NULL_OVERHEAD_PCT = 3.0

#: Budget for the everything-on path (tracing + health model + alert
#: rules), percent over disabled. Folding every battery sample twice
#: (tracker + health model) and running the watchdog observations is
#: real work; the budget (~2x the typical ~25 % measured cost, for CI
#: noise) says it must stay a modest fraction of the step loop itself.
MAX_ALERTING_OVERHEAD_PCT = 50.0

#: Timing rounds; a multiple of 4 so the rotating mode order puts every
#: mode in every position equally often. The per-mode minimum is
#: reported (least-noise estimator).
REPEATS = 8

#: Steps in the measured run: one day at dt = 120 s.
STEPS_PER_RUN = 720

#: Enabled-path fleet mode: cluster size, step, repeats, and budgets.
#: One cloudy day at dt = 300 s -> 288 steps per run. Each repeat is one
#: untraced and one traced run; an even count lets each side go first
#: equally often.
FLEET_NODES = 1024
FLEET_DT_S = 300.0
FLEET_STEPS = 288
FLEET_REPEATS = 4

#: A traced fleet run must stay within this factor of the untraced
#: fleet run (the retired per-node sample events cost ~6x).
MAX_FLEET_TRACED_RATIO = 1.5

#: On-disk trace bytes per node-step. A retired per-node sample line
#: took ~122 B, so this ceiling keeps frames >= 10x smaller than it.
MAX_FRAME_BYTES_PER_NODE_STEP = 12.0


def _step_loop_seconds(dt_s: float = 120.0) -> float:
    """Wall-clock seconds for one full single-day BAAT run."""
    scenario = Scenario(dt_s=dt_s, initial_fade=0.10, seed=11)
    trace = scenario.trace_generator().day(DayClass.CLOUDY)
    sim = Simulation(scenario, make_policy("baat"), trace)
    t0 = perf_counter()
    sim.run()
    return perf_counter() - t0


def measure() -> dict:
    """Time the three observability modes; returns seconds + overhead %.

    The modes are *interleaved* round-robin (rather than timed in
    sequential blocks) so slow drift in machine load hits all three
    equally; the per-mode minimum over ``REPEATS`` rounds is reported.
    """
    memory = MemorySink()

    def _disabled() -> float:
        BUS.clear_sinks()
        REGISTRY.enabled = False
        return _step_loop_seconds()

    def _null() -> float:
        BUS.clear_sinks()
        REGISTRY.enabled = False
        null = NullSink()
        BUS.add_sink(null)
        try:
            assert not BUS.enabled, "null sink must not enable the bus"
            return _step_loop_seconds()
        finally:
            BUS.remove_sink(null)

    def _full() -> float:
        BUS.clear_sinks()
        memory.clear()
        BUS.add_sink(memory)
        REGISTRY.enabled = True
        try:
            return _step_loop_seconds()
        finally:
            BUS.remove_sink(memory)
            REGISTRY.enabled = False
            REGISTRY.reset()

    def _alerting() -> float:
        BUS.clear_sinks()
        memory.clear()
        BUS.add_sink(memory)
        model = FleetHealthModel()
        BUS.add_sink(model)
        REGISTRY.enabled = True
        for rule in default_rules():
            ALERTS.add_rule(rule)
        ALERTS.enabled = True
        try:
            return _step_loop_seconds()
        finally:
            BUS.remove_sink(model)
            BUS.remove_sink(memory)
            REGISTRY.enabled = False
            REGISTRY.reset()
            ALERTS.enabled = False
            ALERTS.reset()
            ALERTS.rules.clear()

    _step_loop_seconds()  # warm-up: imports, numpy, allocator caches
    modes = [
        ("disabled", _disabled),
        ("null", _null),
        ("full", _full),
        ("alerting", _alerting),
    ]
    best = {name: float("inf") for name, _ in modes}
    n_modes = len(modes)
    for round_no in range(REPEATS):
        # Rotate the order each round so position bias (CPU frequency
        # ramps, allocator pressure from the previous mode) cancels.
        shift = round_no % n_modes
        for name, fn in modes[shift:] + modes[:shift]:
            best[name] = min(best[name], fn())

    disabled_s, null_s, full_s = best["disabled"], best["null"], best["full"]
    alerting_s = best["alerting"]
    return {
        "disabled_s": disabled_s,
        "null_s": null_s,
        "full_s": full_s,
        "alerting_s": alerting_s,
        "null_overhead_pct": 100.0 * (null_s - disabled_s) / disabled_s,
        "full_overhead_pct": 100.0 * (full_s - disabled_s) / disabled_s,
        "alerting_overhead_pct": 100.0 * (alerting_s - disabled_s) / disabled_s,
        "n_events_full": len(memory),
    }


def _fleet_run_seconds(n_nodes: int, trace_path: str | None = None) -> float:
    """One fleet-stepper BAAT day; optionally traced to a JSONL file.

    The traced variant attaches a raw :class:`JsonlSink` (no registry,
    no alerting) so it measures exactly the telemetry cost on top of the
    fleet fast path — the configuration a scale run would use.
    """
    scenario = Scenario(
        n_nodes=n_nodes,
        dt_s=FLEET_DT_S,
        initial_fade=0.10,
        seed=11,
        stepper="fleet",
    )
    trace = scenario.trace_generator().day(DayClass.CLOUDY)
    sim = Simulation(scenario, make_policy("baat"), trace)
    sink = None
    if trace_path is not None:
        sink = JsonlSink(trace_path)
        BUS.add_sink(sink)
    t0 = perf_counter()
    try:
        sim.run()
        return perf_counter() - t0
    finally:
        if sink is not None:
            BUS.remove_sink(sink)
            sink.close()


def measure_fleet(n_nodes: int = FLEET_NODES) -> dict:
    """Enabled-path overhead and trace size of tracing the fleet stepper.

    Untraced and traced runs alternate, and each round swaps which goes
    first, so host drift over the measurement lands on both sides of
    the ratio instead of on one block of runs.
    """
    _fleet_run_seconds(n_nodes)  # warm-up at this size
    untraced_s = frame_s = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        first_trace = os.path.join(tmp, "frames0.jsonl")
        for i in range(FLEET_REPEATS):
            path = os.path.join(tmp, f"frames{i}.jsonl")
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    frame_s = min(frame_s, _fleet_run_seconds(n_nodes, path))
                else:
                    untraced_s = min(untraced_s, _fleet_run_seconds(n_nodes))
        frame_bytes = os.path.getsize(first_trace)
    return {
        "n_nodes": n_nodes,
        "dt_s": FLEET_DT_S,
        "steps": FLEET_STEPS,
        "untraced_s": untraced_s,
        "frame_traced_s": frame_s,
        "traced_ratio": frame_s / untraced_s,
        "frame_trace_bytes": frame_bytes,
        "frame_bytes_per_node_step": frame_bytes / (n_nodes * FLEET_STEPS),
    }


def fleet_report(fleet: dict) -> str:
    return "\n".join(
        [
            f"fleet {fleet['n_nodes']} nodes, {fleet['steps']} steps:",
            f"  untraced      : {fleet['untraced_s'] * 1e3:8.1f} ms/run",
            f"  frame traced  : {fleet['frame_traced_s'] * 1e3:8.1f} ms/run "
            f"({fleet['traced_ratio']:.2f}x, budget "
            f"{MAX_FLEET_TRACED_RATIO}x)",
            f"  trace size    : {fleet['frame_trace_bytes'] / 1e6:.2f} MB "
            f"({fleet['frame_bytes_per_node_step']:.2f} B/node-step, "
            f"ceiling {MAX_FRAME_BYTES_PER_NODE_STEP})",
        ]
    )


def report(results: dict) -> str:
    return "\n".join(
        [
            f"disabled      : {results['disabled_s'] * 1e3:8.2f} ms/run",
            f"null sink     : {results['null_s'] * 1e3:8.2f} ms/run "
            f"({results['null_overhead_pct']:+.2f} %)",
            f"full tracing  : {results['full_s'] * 1e3:8.2f} ms/run "
            f"({results['full_overhead_pct']:+.2f} %, "
            f"{results['n_events_full']} events)",
            f"alerting      : {results['alerting_s'] * 1e3:8.2f} ms/run "
            f"({results['alerting_overhead_pct']:+.2f} %)",
        ]
    )


def payload(results: dict, fleet: dict | None = None) -> dict:
    """The machine-readable form of one measurement (``BENCH_obs.json``)."""
    data = {
        **results,
        "steps_per_run": STEPS_PER_RUN,
        "steps_per_s_disabled": STEPS_PER_RUN / results["disabled_s"],
        "steps_per_s_alerting": STEPS_PER_RUN / results["alerting_s"],
        "budgets": {
            "null_pct": MAX_NULL_OVERHEAD_PCT,
            "alerting_pct": MAX_ALERTING_OVERHEAD_PCT,
            "fleet_traced_ratio": MAX_FLEET_TRACED_RATIO,
            "frame_bytes_per_node_step": MAX_FRAME_BYTES_PER_NODE_STEP,
        },
        "ok_null": results["null_overhead_pct"] < MAX_NULL_OVERHEAD_PCT,
        "ok_alerting": (
            results["alerting_overhead_pct"] < MAX_ALERTING_OVERHEAD_PCT
        ),
    }
    if fleet is not None:
        data["fleet"] = fleet
        data["ok_fleet_ratio"] = fleet["traced_ratio"] <= MAX_FLEET_TRACED_RATIO
        data["ok_fleet_size"] = (
            fleet["frame_bytes_per_node_step"] <= MAX_FRAME_BYTES_PER_NODE_STEP
        )
    data["ok"] = all(v for k, v in data.items() if k.startswith("ok_"))
    return data


def test_obs_overhead_null_sink():
    results = measure()
    print()
    print(report(results))
    assert results["null_overhead_pct"] < MAX_NULL_OVERHEAD_PCT, (
        f"null-sink overhead {results['null_overhead_pct']:.2f} % exceeds "
        f"{MAX_NULL_OVERHEAD_PCT} %"
    )
    assert results["alerting_overhead_pct"] < MAX_ALERTING_OVERHEAD_PCT, (
        f"alerting overhead {results['alerting_overhead_pct']:.2f} % exceeds "
        f"{MAX_ALERTING_OVERHEAD_PCT} %"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the measurements as JSON (the BENCH_obs.json shape)",
    )
    parser.add_argument(
        "--fleet-nodes", type=int, default=FLEET_NODES, metavar="N",
        help="cluster size for the enabled-path fleet mode",
    )
    parser.add_argument(
        "--skip-fleet", action="store_true",
        help="skip the enabled-path fleet measurement",
    )
    args = parser.parse_args(argv)
    results = measure()
    print(report(results))
    fleet = None
    if not args.skip_fleet:
        fleet = measure_fleet(args.fleet_nodes)
        print(fleet_report(fleet))
    data = payload(results, fleet)
    from repro.perf import collect_meta

    document = {"obs_overhead": data, "meta": collect_meta()}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    print(
        f"null-sink overhead {'within' if data['ok_null'] else 'EXCEEDS'} "
        f"{MAX_NULL_OVERHEAD_PCT} % budget"
    )
    print(
        f"alerting overhead {'within' if data['ok_alerting'] else 'EXCEEDS'} "
        f"{MAX_ALERTING_OVERHEAD_PCT} % budget"
    )
    if fleet is not None:
        print(
            f"fleet frame-traced ratio "
            f"{'within' if data['ok_fleet_ratio'] else 'EXCEEDS'} "
            f"{MAX_FLEET_TRACED_RATIO}x budget"
        )
        print(
            f"frame trace size "
            f"{'within' if data['ok_fleet_size'] else 'EXCEEDS'} "
            f"{MAX_FRAME_BYTES_PER_NODE_STEP} B/node-step ceiling"
        )
    return 0 if data["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
