"""Bench: the fleet stepper must beat the reference stepper at scale.

The vectorized struct-of-arrays fast path (``Scenario(stepper="fleet")``)
exists to make rack-scale sweeps tractable; it is bit-compatible with the
per-node reference stepper (tests/test_fleet_equivalence.py), so its only
reason to exist is speed. This bench times identical cloudy-day e-Buff
runs through both steppers at 6, 48, 192 and 1024 nodes, reports
steps/second and the fleet/reference speedup per size, then pushes the
fleet stepper alone to 4096 and 10240 nodes. A per-phase wall-clock
breakdown (control / power / advance / record, via
:class:`~repro.obs.timers.StepPhaseTimers`) is captured at the 48-node
point for both steppers and — the scaling curve — for the fleet stepper
under the BAAT policy at every :data:`CURVE_SIZES` point, because BAAT's
control pass exercises the vectorized decision kernels (slowdown
thresholds, Eq.-6 scores, consolidation planning) rather than e-Buff's
trivial buffering rule. Each curve point also splits the power phase
into its ``phase/power/<kernel>`` timers (:data:`~repro.obs.timers.
POWER_KERNELS`, µs/step), which answers where the time goes at fleet
scale; that breakdown carries no gate.

Acceptance (gated in CI like ``BENCH_obs.json``):

- fleet/reference speedup >= :data:`MIN_SPEEDUP_AT_SCALE` at every
  measured size >= :data:`SCALE_THRESHOLD_NODES` nodes, and >=
  :data:`MIN_SPEEDUP_AT_LARGE` at sizes >= :data:`LARGE_THRESHOLD_NODES`;
- on the fleet phase curve, control-phase wall time stays within
  :data:`MAX_CONTROL_OVER_POWER` times the power phase at
  >= :data:`LARGE_THRESHOLD_NODES` nodes;
- the curve is sublinear: from the first to the last curve point the
  per-step control time must grow strictly slower than the node count.

The 6-node prototype size is reported for context only. So is a lone
sweep cell — fig14's BAAT cell (``sweep_scenario``, dt 120 s, a 4-day
season at sunshine 0.55) at 6, 24 and 96 nodes, in µs/step on both
steppers with the fleet/reference ratio: at 6 nodes the fleet stepper's
fixed per-step numpy-call cost decides the ratio, and the goal is a
fleet stepper no slower than the reference there (ratio <= 1.05). These
rows carry no gate: on a shared host a small-margin timing gate flips on
noise.

Run standalone (``python benchmarks/bench_engine.py --json
BENCH_engine.json``), with ``--quick`` for the reduced CI matrix, or
through pytest (``pytest benchmarks/bench_engine.py -s``).
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from repro.analysis.lifetime import season_day_classes
from repro.core.policies.factory import make_policy
from repro.experiments.common import sweep_scenario
from repro.obs import REGISTRY
from repro.obs.timers import POWER_KERNELS, STEP_PHASES
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

#: Required fleet/reference speedup at and above SCALE_THRESHOLD_NODES.
MIN_SPEEDUP_AT_SCALE = 3.0

#: Node count from which the speedup requirement applies.
SCALE_THRESHOLD_NODES = 48

#: Stricter speedup floor once vectorization should fully dominate.
MIN_SPEEDUP_AT_LARGE = 10.0

#: Node count from which the large-scale floor (and the control/power
#: ceiling on the phase curve) applies.
LARGE_THRESHOLD_NODES = 1024

#: On fleet curve rows at >= LARGE_THRESHOLD_NODES nodes the control
#: phase must cost at most this multiple of the power phase.
MAX_CONTROL_OVER_POWER = 5.0

#: Sizes run through BOTH steppers: prototype, rack, four racks, a pod.
SIZES = (6, 48, 192, 1024)

#: Sizes where the reference stepper is too slow to be worth timing;
#: the fleet stepper runs alone for throughput context.
FLEET_ONLY_SIZES = (4096, 10240)

#: Fleet-stepper sizes on the per-phase scaling curve.
CURVE_SIZES = (192, 1024, 4096, 10240)

#: Policy used for the scaling curve: BAAT's control pass actually runs
#: the batched decision kernels every control tick.
CURVE_POLICY = "baat"

#: Best-of rounds per (size, stepper); fewer at sizes where a single
#: reference run already dominates the bench's wall time.
REPEATS = {6: 3, 48: 3, 192: 2, 1024: 2}

#: The lone sweep cell (report only): sizes, season length, sunshine
#: fraction and best-of rounds.
SWEEP_CELL_SIZES = (6, 24, 96)
SWEEP_CELL_DAYS = 4
SWEEP_CELL_SUNSHINE = 0.55
SWEEP_CELL_REPEATS = 3

DT_S = 60.0

#: Per-node solar sizing matching the 6-node default of 8 kWh/day, so
#: policy behaviour stays comparable as the fleet grows.
KWH_PER_NODE = 8.0 / 6.0


def _days(n_nodes: int) -> list[DayClass]:
    """Two cloudy days (2880 steps) up to four racks; one day (1440
    steps) beyond, where a single run is already tens of seconds."""
    n = 2 if n_nodes <= 192 else 1
    return [DayClass.CLOUDY] * n


def _scenario(n_nodes: int, stepper: str) -> Scenario:
    return Scenario(
        n_nodes=n_nodes,
        dt_s=DT_S,
        stepper=stepper,
        seed=11,
        sunny_day_kwh=KWH_PER_NODE * n_nodes,
    )


def _run_seconds(scenario: Scenario, policy: str = "e-buff") -> tuple[float, int]:
    """Wall-clock seconds and step count for one full run."""
    trace = scenario.trace_generator().days(_days(scenario.n_nodes))
    sim = Simulation(scenario, make_policy(policy), trace)
    t0 = perf_counter()
    sim.run()
    return perf_counter() - t0, len(trace.power_w)


def _sweep_cell_seconds(n_nodes: int, stepper: str) -> tuple[float, int]:
    """Wall-clock seconds and step count of one lone BAAT sweep cell."""
    scenario = sweep_scenario(
        stepper=stepper, n_nodes=n_nodes, sunny_day_kwh=KWH_PER_NODE * n_nodes
    )
    classes = season_day_classes(SWEEP_CELL_SUNSHINE, SWEEP_CELL_DAYS, scenario.seed)
    trace = scenario.trace_generator().days(classes)
    sim = Simulation(scenario, make_policy("baat"), trace)
    t0 = perf_counter()
    sim.run()
    return perf_counter() - t0, len(trace.power_w)


def _sweep_cell_rows(quick: bool) -> list[dict]:
    """µs/step of a lone sweep cell on both steppers (best of the rounds,
    interleaved) and the fleet/reference ratio."""
    rows = []
    for n_nodes in SWEEP_CELL_SIZES:
        best = {"reference": float("inf"), "fleet": float("inf")}
        steps = 0
        for _ in range(1 if quick else SWEEP_CELL_REPEATS):
            for stepper in ("reference", "fleet"):
                seconds, steps = _sweep_cell_seconds(n_nodes, stepper)
                best[stepper] = min(best[stepper], seconds)
        rows.append(
            {
                "n_nodes": n_nodes,
                "steps": steps,
                "reference_us_per_step": best["reference"] / steps * 1e6,
                "fleet_us_per_step": best["fleet"] / steps * 1e6,
                "fleet_over_reference": best["fleet"] / best["reference"],
            }
        )
    return rows


def _phase_breakdown(n_nodes: int, stepper: str, policy: str = "e-buff") -> dict:
    """Per-phase wall totals (s) from one registry-enabled run; on the
    fleet stepper also each power kernel's (``power/<kernel>``)."""
    REGISTRY.enabled = True
    try:
        _, steps = _run_seconds(_scenario(n_nodes, stepper), policy)
        names = list(STEP_PHASES)
        if stepper == "fleet":
            names += [f"power/{kernel}" for kernel in POWER_KERNELS]
        phases = {
            name: REGISTRY.histogram(f"phase/{name}").to_dict() for name in names
        }
        phases["steps"] = steps
        return phases
    finally:
        REGISTRY.enabled = False
        REGISTRY.reset()


def _curve_row(n_nodes: int) -> dict:
    """One fleet-stepper point on the control-phase scaling curve."""
    phases = _phase_breakdown(n_nodes, "fleet", CURVE_POLICY)
    steps = phases["steps"]
    control_s = phases["control"]["total"]
    power_s = phases["power"]["total"]
    return {
        "n_nodes": n_nodes,
        "policy": CURVE_POLICY,
        "steps": steps,
        "control_s": control_s,
        "power_s": power_s,
        "control_us_per_step": control_s / steps * 1e6,
        "control_over_power": control_s / power_s if power_s > 0 else float("inf"),
        "power_kernels_us_per_step": {
            kernel: phases[f"power/{kernel}"]["total"] / steps * 1e6
            for kernel in POWER_KERNELS
        },
    }


def measure(quick: bool = False) -> dict:
    """Time both steppers at every size; best-of-``REPEATS`` per cell.

    Reference and fleet runs are interleaved within each round so slow
    machine-load drift hits both steppers equally. ``quick`` is the CI
    matrix: single rounds, no fleet-only sizes, curve capped at
    :data:`LARGE_THRESHOLD_NODES` nodes.
    """
    _run_seconds(_scenario(6, "fleet"))  # warm-up: imports, numpy caches
    sizes = []
    for n_nodes in SIZES:
        best = {"reference": float("inf"), "fleet": float("inf")}
        steps = 0
        for _ in range(1 if quick else REPEATS[n_nodes]):
            for stepper in ("reference", "fleet"):
                seconds, steps = _run_seconds(_scenario(n_nodes, stepper))
                best[stepper] = min(best[stepper], seconds)
        sizes.append(
            {
                "n_nodes": n_nodes,
                "steps": steps,
                "reference_s": best["reference"],
                "fleet_s": best["fleet"],
                "reference_steps_per_s": steps / best["reference"],
                "fleet_steps_per_s": steps / best["fleet"],
                "speedup": best["reference"] / best["fleet"],
            }
        )
    fleet_only = []
    if not quick:
        for n_nodes in FLEET_ONLY_SIZES:
            seconds, steps = _run_seconds(_scenario(n_nodes, "fleet"))
            fleet_only.append(
                {
                    "n_nodes": n_nodes,
                    "steps": steps,
                    "fleet_s": seconds,
                    "fleet_steps_per_s": steps / seconds,
                }
            )
    breakdown = {
        stepper: _phase_breakdown(SCALE_THRESHOLD_NODES, stepper)
        for stepper in ("reference", "fleet")
    }
    curve_sizes = [
        n for n in CURVE_SIZES if not quick or n <= LARGE_THRESHOLD_NODES
    ]
    curve = [_curve_row(n) for n in curve_sizes]
    return {
        "sizes": sizes,
        "fleet_only": fleet_only,
        "phase_breakdown": breakdown,
        "phase_curve": curve,
        "sweep_cell": _sweep_cell_rows(quick),
    }


def report(results: dict) -> str:
    lines = [
        f"{'nodes':>6} {'steps':>6} {'reference':>12} {'fleet':>12} "
        f"{'ref steps/s':>12} {'fleet steps/s':>14} {'speedup':>8}"
    ]
    for row in results["sizes"]:
        lines.append(
            f"{row['n_nodes']:>6} {row['steps']:>6} "
            f"{row['reference_s'] * 1e3:>10.1f} ms {row['fleet_s'] * 1e3:>10.1f} ms "
            f"{row['reference_steps_per_s']:>12.0f} "
            f"{row['fleet_steps_per_s']:>14.0f} "
            f"{row['speedup']:>7.2f}x"
        )
    for row in results["fleet_only"]:
        lines.append(
            f"{row['n_nodes']:>6} {row['steps']:>6} {'—':>12} "
            f"{row['fleet_s'] * 1e3:>10.1f} ms {'—':>12} "
            f"{row['fleet_steps_per_s']:>14.0f} {'—':>8}"
        )
    lines.append(f"phase breakdown at {SCALE_THRESHOLD_NODES} nodes (wall s):")
    for stepper, phases in results["phase_breakdown"].items():
        parts = ", ".join(
            f"{name} {phases[name]['total']:.3f}" for name in STEP_PHASES
        )
        lines.append(f"  {stepper:>9}: {parts}")
    lines.append(
        f"fleet control-phase scaling curve ({CURVE_POLICY} policy):"
    )
    for row in results["phase_curve"]:
        lines.append(
            f"  {row['n_nodes']:>6} nodes: control {row['control_s']:.3f} s "
            f"({row['control_us_per_step']:.0f} us/step), "
            f"power {row['power_s']:.3f} s, "
            f"control/power {row['control_over_power']:.2f}"
        )
        kernels = ", ".join(
            f"{kernel} {us:.0f}"
            for kernel, us in row["power_kernels_us_per_step"].items()
        )
        lines.append(f"  {'':>6}  power kernels (us/step): {kernels}")
    lines.append(
        f"lone sweep cell (baat, {SWEEP_CELL_DAYS}-day season at sunshine "
        f"{SWEEP_CELL_SUNSHINE}; report only):"
    )
    for row in results["sweep_cell"]:
        lines.append(
            f"  {row['n_nodes']:>6} nodes: reference "
            f"{row['reference_us_per_step']:.0f} us/step, fleet "
            f"{row['fleet_us_per_step']:.0f} us/step, fleet/reference "
            f"{row['fleet_over_reference']:.2f}x"
        )
    return "\n".join(lines)


def _curve_sublinear(curve: list[dict]) -> bool:
    """Per-step control time must grow slower than the node count over
    the measured range. The bound is end-to-end (first vs last curve
    point), not per adjacent pair: at the top sizes the vectorized
    passes are memory-bound and a single pair can brush linear within
    timing noise, while a reintroduced per-node python loop overshoots
    the end-to-end bound by orders of magnitude regardless."""
    if len(curve) < 2:
        return True
    first, last = curve[0], curve[-1]
    node_ratio = last["n_nodes"] / first["n_nodes"]
    time_ratio = last["control_us_per_step"] / max(
        first["control_us_per_step"], 1e-9
    )
    return time_ratio < node_ratio


def payload(results: dict) -> dict:
    """The machine-readable form of one measurement (``BENCH_engine.json``)."""
    at_scale = [
        row for row in results["sizes"] if row["n_nodes"] >= SCALE_THRESHOLD_NODES
    ]
    at_large = [
        row for row in results["sizes"] if row["n_nodes"] >= LARGE_THRESHOLD_NODES
    ]
    curve_large = [
        row
        for row in results["phase_curve"]
        if row["n_nodes"] >= LARGE_THRESHOLD_NODES
    ]
    ok_speedup = all(row["speedup"] >= MIN_SPEEDUP_AT_SCALE for row in at_scale)
    ok_speedup_large = all(
        row["speedup"] >= MIN_SPEEDUP_AT_LARGE for row in at_large
    )
    ok_control_over_power = all(
        row["control_over_power"] <= MAX_CONTROL_OVER_POWER for row in curve_large
    )
    ok_curve = _curve_sublinear(results["phase_curve"])
    return {
        **results,
        "min_speedup_at_scale": MIN_SPEEDUP_AT_SCALE,
        "scale_threshold_nodes": SCALE_THRESHOLD_NODES,
        "min_speedup_at_large": MIN_SPEEDUP_AT_LARGE,
        "large_threshold_nodes": LARGE_THRESHOLD_NODES,
        "max_control_over_power": MAX_CONTROL_OVER_POWER,
        "ok_speedup": ok_speedup,
        "ok_speedup_large": ok_speedup_large,
        "ok_control_over_power": ok_control_over_power,
        "ok_curve_sublinear": ok_curve,
        "ok": ok_speedup
        and ok_speedup_large
        and ok_control_over_power
        and ok_curve,
    }


def test_engine_speedup():
    results = measure(quick=True)
    print()
    print(report(results))
    data = payload(results)
    for row in results["sizes"]:
        if row["n_nodes"] >= SCALE_THRESHOLD_NODES:
            assert row["speedup"] >= MIN_SPEEDUP_AT_SCALE, (
                f"fleet speedup {row['speedup']:.2f}x at {row['n_nodes']} "
                f"nodes is below the {MIN_SPEEDUP_AT_SCALE}x floor"
            )
        if row["n_nodes"] >= LARGE_THRESHOLD_NODES:
            assert row["speedup"] >= MIN_SPEEDUP_AT_LARGE, (
                f"fleet speedup {row['speedup']:.2f}x at {row['n_nodes']} "
                f"nodes is below the {MIN_SPEEDUP_AT_LARGE}x large-scale floor"
            )
    assert data["ok_control_over_power"], (
        "fleet control phase exceeds "
        f"{MAX_CONTROL_OVER_POWER}x the power phase at scale"
    )
    assert data["ok_curve_sublinear"], (
        "fleet per-step control time is not sublinear in node count"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the measurements as JSON (the BENCH_engine.json shape)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI matrix: single rounds, no fleet-only sizes, curve capped "
        f"at {LARGE_THRESHOLD_NODES} nodes",
    )
    args = parser.parse_args(argv)
    results = measure(quick=args.quick)
    print(report(results))
    data = payload(results)
    from repro.perf import collect_meta

    document = {"engine_bench": data, "meta": collect_meta()}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
    if not data["ok"]:
        failed = [
            gate
            for gate in (
                "ok_speedup",
                "ok_speedup_large",
                "ok_control_over_power",
                "ok_curve_sublinear",
            )
            if not data[gate]
        ]
        print(f"FAIL: engine bench gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
