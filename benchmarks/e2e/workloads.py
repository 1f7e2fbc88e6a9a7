"""The end-to-end benchmark's workloads, and the process that runs one.

``run.py`` starts one fresh interpreter per workload::

    python benchmarks/e2e/workloads.py --workload W --seed N --seconds S \
        --trace 0|1 --scale full|smoke --out RESULT.json

with ``src`` on ``PYTHONPATH``. The process runs one untimed warm-up (a
6-node, one-day run of the same stepper and policy), then timed
repetitions back to back -- one client in a closed loop, one campaign
worker -- for ``--seconds``, and writes medians (scaled to reference
seconds by :mod:`hostspeed`, raw ones beside them), per-repetition
values, the correctness verdict and its own peak RSS to RESULT.json.

With ``--trace 1`` it runs one repetition under the timing wrappers of
:mod:`tracer`, one plain repetition to price the wrappers, and (on the
traced workload) one with the observability layer off.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro.campaign import RunSpec, configure_cache, run_campaign
from repro.campaign.cache import ResultCache
from repro.core.policies.factory import make_policy
from repro.datacenter.workloads import standard_mix
from repro.experiments import fig14_lifetime_sunshine, fig17_expansion
from repro.experiments.common import sweep_scenario
from repro.obs import REGISTRY, disable_observability, enable_observability
from repro.perf import collect_meta
from repro.rng import DEFAULT_SEED
from repro.sim.engine import Simulation
from repro.sim.results import SimResult
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

from hostspeed import REFERENCE_S, HostSpeed
from tracer import LAYER_UNITS, Tracer, layer_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space (caches, traces, spans): inside the checkout, ignored by git.
WORK = ROOT / ".bench_build" / "e2e"
GOLDEN = HERE / "golden.json"

#: Relative tolerance of the golden digest's float fields.
GOLDEN_REL_TOL = 1e-9

#: Fleet runs size their solar line like the 6-node prototype's 8 kWh.
KWH_PER_NODE = 8.0 / 6.0

#: Node count of every fleet workload at ``--scale smoke``.
SMOKE_NODES = 48

FLEET_SEED = 11


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: a BAAT fleet run (``nodes`` > 0) or the paper sweep."""

    name: str
    nodes: int = 0
    #: One VM per node instead of the six default VMs.
    dense: bool = False
    days: Tuple[DayClass, ...] = (DayClass.CLOUDY,)
    #: Run through the observability layer, as ``--trace FILE`` does.
    traced: bool = False
    #: The seed when none is given. A fleet's weather always comes from
    #: it: how hard the days hit the fleet sets how many migrations and
    #: control fallbacks run (100 to 1900 migrations on ``traced-64``
    #: across ten seeds, wall time following), so ``--seed`` draws only
    #: the batteries' spread, the VMs' load and the policy's choices.
    default_seed: int = FLEET_SEED

    @property
    def is_sweep(self) -> bool:
        return self.nodes == 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fleet-idle-1024", nodes=1024),
        Workload("fleet-dense-256", nodes=256, dense=True),
        Workload("sweep-paper", default_seed=DEFAULT_SEED),
        Workload(
            "traced-64",
            nodes=64,
            dense=True,
            days=(DayClass.CLOUDY, DayClass.RAINY),
            traced=True,
        ),
    )
}

#: The paper sweep, in order, at one sunshine fraction so a repetition
#: stays a few seconds long; fig17 re-reads two of fig14's cells from
#: the cache.
SWEEP = (
    ("fig14", fig14_lifetime_sunshine.run),
    ("fig17", fig17_expansion.run),
)
SWEEP_FRACTIONS = (0.55,)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "node_steps_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


@dataclasses.dataclass
class Rep:
    """One timed repetition.

    ``cells`` and ``failed`` count campaign cells per *part* of the
    repetition: ``"run"`` for a fleet run, the figure for the sweep. A
    digest key ``"fig14/..."`` belongs to part ``fig14``, any other key
    to ``"run"``.
    """

    wall_s: float
    setup_s: float
    #: Simulated node-steps of the cells this repetition executed.
    node_steps: int
    #: Cells finished, executed or served from the cache, per part.
    cells: Dict[str, int]
    #: Cells that raised or failed a correctness check, per part.
    failed: Dict[str, int]
    failures: List[str]
    digest: Dict[str, float]
    trace_bytes: int = 0

    def fail(self, part: str, reason: str) -> None:
        """Fail every cell of ``part``."""
        self.cells[part] = max(1, self.cells.get(part, 0))
        self.failed[part] = self.cells[part]
        self.failures.append(reason)


def _part(key: str) -> str:
    return key.split("/", 1)[0] if "/" in key else "run"


# ----------------------------------------------------------------------
# Hooks the benchmark puts around public calls
# ----------------------------------------------------------------------
@contextmanager
def hooked(owner: type, attr: str, make: Callable) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(current)`` for the block."""
    current = vars(owner)[attr]
    setattr(owner, attr, make(current))
    try:
        yield
    finally:
        setattr(owner, attr, current)


@contextmanager
def first_step_clock() -> Iterator[List[float]]:
    """Yields a list that receives the time of the first ``step_once``.

    The hook removes itself on that first call, so later steps run the
    unhooked method.
    """
    stamps: List[float] = []

    def make(current):
        def step_once(sim):
            Simulation.step_once = current
            stamps.append(perf_counter())
            return current(sim)

        return step_once

    with hooked(Simulation, "step_once", make):
        yield stamps


@contextmanager
def step_clock() -> Iterator[List[float]]:
    """Yields a list that receives the duration of every ``step_once``."""
    durations: List[float] = []

    def make(current):
        def step_once(sim):
            t0 = perf_counter()
            try:
                return current(sim)
            finally:
                durations.append(perf_counter() - t0)

        return step_once

    with hooked(Simulation, "step_once", make):
        yield durations


@contextmanager
def probing_steps(host: HostSpeed) -> Iterator[List[float]]:
    """Lets ``host`` probe between steps while one repetition runs; yields
    a one-item list with the seconds the probing took."""
    spent = [0.0]
    host.start_repetition()

    def make(current):
        def step_once(sim):
            spent[0] += host.tick()
            return current(sim)

        return step_once

    with hooked(Simulation, "step_once", make):
        yield spent


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def result_digest(result: SimResult) -> Dict[str, float]:
    """The golden fields of one run."""
    return {
        "throughput": result.throughput,
        "total_downtime_s": result.total_downtime_s,
        "unserved_wh": result.unserved_wh,
        "feedback_wh": result.feedback_wh,
        "worst_fade_per_day": result.worst_damage_per_day(),
        "mean_fade_per_day": result.mean_damage_per_day(),
        "final_soc_sum": sum(n.final_soc for n in result.nodes),
        "migrations": result.migrations,
        "dvfs_transitions": result.dvfs_transitions,
    }


def soc_failures(result: SimResult, label: str) -> List[str]:
    return [
        f"{label}: {n.name} ends at SoC {n.final_soc!r}, outside [0, 1]"
        for n in result.nodes
        if not 0.0 <= n.final_soc <= 1.0
    ]


def digest_mismatches(digest: Dict[str, float], golden: Dict[str, float]) -> List[str]:
    """Keys whose value differs from the golden one: integers exactly,
    floats within :data:`GOLDEN_REL_TOL`."""
    bad = []
    for key in sorted(set(digest) | set(golden)):
        got, want = digest.get(key), golden.get(key)
        if got is None or want is None:
            bad.append(key)
        elif isinstance(want, int):
            if got != want:
                bad.append(key)
        elif not math.isclose(got, want, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0):
            bad.append(key)
    return bad


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
def fleet_scenario(workload: Workload, seed: int, n_nodes: int) -> Scenario:
    profiles = None
    if workload.dense:
        mix = standard_mix()
        profiles = tuple(
            dataclasses.replace(mix[i % len(mix)], name=f"{mix[i % len(mix)].name}-{i}")
            for i in range(n_nodes)
        )
    return Scenario(
        n_nodes=n_nodes,
        dt_s=60.0,
        stepper="fleet",
        seed=seed,
        sunny_day_kwh=KWH_PER_NODE * n_nodes,
        workloads=profiles,
    )


def run_fleet_rep(
    scenario: Scenario, days: Tuple[DayClass, ...], weather_seed: int, traced: bool
) -> Rep:
    """Trace generation, build, deploy, every step, and the result; with
    ``traced``, all of it through the observability layer into a JSONL
    trace at the default telemetry tier.

    The solar trace is drawn from ``weather_seed``, everything else from
    the scenario's seed.
    """
    trace_path = WORK / f"trace-{os.getpid()}.jsonl"
    trace_bytes = 0
    result = None
    t0 = perf_counter()
    with first_step_clock() as first:
        sink = enable_observability(str(trace_path)) if traced else None
        try:
            weather = dataclasses.replace(scenario, seed=weather_seed)
            trace = weather.trace_generator().days(list(days))
            sim = Simulation(scenario, make_policy("baat", seed=scenario.seed), trace)
            result = sim.run()
        except Exception as exc:  # noqa: BLE001 - a failed cell, reported
            failures = [f"run: {type(exc).__name__}: {exc}"]
        finally:
            if sink is not None:
                trace_bytes = sink.bytes_written
                disable_observability()
    wall = perf_counter() - t0
    trace_path.unlink(missing_ok=True)
    if result is not None:
        failures = soc_failures(result, "run")
    return Rep(
        wall_s=wall,
        setup_s=first[0] - t0 if first else wall,
        node_steps=scenario.n_nodes * sim.steps_done if result else 0,
        cells={"run": 1},
        failed={"run": 1 if failures else 0},
        failures=failures,
        digest=result_digest(result) if result else {},
        trace_bytes=trace_bytes,
    )


# ----------------------------------------------------------------------
# The paper sweep
# ----------------------------------------------------------------------
def run_sweep_rep(seed: int, tracer: Optional[Tracer] = None) -> Rep:
    """fig14, then fig17 (quick seasons), on a fresh disk cache."""
    cache_dir = WORK / f"cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    configure_cache(enabled=True, directory=cache_dir)
    executed: List[Tuple[RunSpec, SimResult]] = []
    errors: List[str] = []
    hits = [0]

    def hook_execute(current):
        def execute(spec):
            try:
                result = current(spec)
            except Exception as exc:
                errors.append(f"{spec.effective_label}: {type(exc).__name__}: {exc}")
                raise
            executed.append((spec, result))
            return result

        return execute

    def hook_get(current):
        def get(cache, key, expect=None):
            payload = current(cache, key, expect=expect)
            hits[0] += payload is not None
            return payload

        return get

    def n_cells() -> int:
        return len(executed) + hits[0] + len(errors)

    rep = Rep(
        wall_s=0.0, setup_s=0.0, node_steps=0, cells={}, failed={}, failures=[], digest={}
    )
    t0 = perf_counter()
    with first_step_clock() as first, hooked(
        RunSpec, "execute", hook_execute
    ), hooked(ResultCache, "get", hook_get):
        for figure, run_figure in SWEEP:
            cells0, executed0, errors0 = n_cells(), len(executed), len(errors)
            with tracer.span(f"bench.{figure}") if tracer else nullcontext():
                try:
                    headline = run_figure(
                        quick=True, seed=seed, fractions=SWEEP_FRACTIONS, n_workers=1
                    ).headline
                except Exception as exc:  # noqa: BLE001 - a failed figure
                    headline = None
                    crash = f"{figure}: {type(exc).__name__}: {exc}"
            rep.cells[figure] = n_cells() - cells0
            rep.failed[figure] = len(errors) - errors0
            rep.failures += errors[errors0:]
            for spec, result in executed[executed0:]:
                bad = soc_failures(result, spec.effective_label)
                rep.failed[figure] += 1 if bad else 0
                rep.failures += bad
            if headline is None:
                rep.fail(figure, crash)
            else:
                rep.digest.update({f"{figure}/{k}": v for k, v in headline.items()})
    rep.wall_s = perf_counter() - t0
    rep.setup_s = first[0] - t0 if first else rep.wall_s
    rep.node_steps = sum(
        spec.scenario.n_nodes * len(spec.trace.power_w) for spec, _ in executed
    )
    shutil.rmtree(cache_dir, ignore_errors=True)
    return rep


def sweep_warm_up(seed: int) -> None:
    """One 6-node, one-day BAAT cell on the reference stepper through the
    campaign runner and a disk cache: imports, the source fingerprint,
    pickling and the cache store are all warm before timing."""
    scenario = sweep_scenario(seed=seed)
    trace = scenario.trace_generator().days([DayClass.CLOUDY])
    cache_dir = WORK / f"warm-{os.getpid()}"
    try:
        run_campaign(
            [RunSpec(scenario=scenario, trace=trace, policy="baat")],
            n_workers=1,
            cache=ResultCache(cache_dir),
        ).results()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def _rep_runner(workload: Workload, seed: int, scale: str) -> Callable[..., Rep]:
    """``rep(tracer=None, obs=True)`` runs one repetition."""
    n_nodes = workload.nodes if scale == "full" else SMOKE_NODES
    scenario = None if workload.is_sweep else fleet_scenario(workload, seed, n_nodes)

    def rep(tracer: Optional[Tracer] = None, obs: bool = True) -> Rep:
        gc.collect()  # every repetition starts from a collected heap
        if scenario is None:
            return run_sweep_rep(seed, tracer)
        return run_fleet_rep(
            scenario, workload.days, workload.default_seed, workload.traced and obs
        )

    return rep


def _warm_up(workload: Workload, seed: int) -> None:
    if workload.is_sweep:
        sweep_warm_up(seed)
    else:
        scenario = fleet_scenario(workload, seed, 6)
        run_fleet_rep(scenario, (DayClass.CLOUDY,), seed, workload.traced)


def traced_run(
    workload: Workload, rep: Callable[..., Rep]
) -> Tuple[List[Rep], Dict[str, float], dict]:
    """One wrapped repetition, then the plain one(s) it is priced against.

    Returns the repetitions (wrapped first), the per-layer values and the
    raw per-call statistics.
    """
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.rep"):
            wrapped = rep(tracer=tracer)
    finally:
        tracer.uninstall()
    spans_path = WORK / f"spans-{workload.name}.jsonl"
    tracer.write_spans(str(spans_path))
    violations = tracer.invariants.violations
    for part in list(wrapped.cells) if violations else ():
        wrapped.fail(part, f"{part}: invariant violated: " + "; ".join(violations))

    # The plain repetition keeps only the engine's own phase timers and a
    # step clock, whose cost is one timer pair per step.
    REGISTRY.reset()
    REGISTRY.enabled = True
    try:
        with step_clock() as step_s:
            plain = rep()
    finally:
        registry = REGISTRY.snapshot()
        REGISTRY.enabled = False
    reps = [wrapped, plain]
    values = layer_values(
        tracer, wrapped.node_steps, wrapped.trace_bytes, registry, step_s
    )
    # The wrappers' cost, without the invariant checks the plain run skips.
    values["bench.tracing_overhead"] = (wrapped.wall_s - tracer.hook_s) / plain.wall_s
    if workload.traced:
        dark = rep(obs=False)
        reps.append(dark)
        values["obs.traced_over_untraced"] = plain.wall_s / dark.wall_s
    raw = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "invariant_steps": tracer.invariants.steps,
        "wrapper_residual_s": tracer.residual_s,
        "calls": {
            name: {
                "calls": tracer.calls(name),
                "total_s": tracer.total_s(name),
                "self_s": tracer.self_s(name),
            }
            for name in sorted(tracer.stats)
        },
    }
    return reps, values, raw


def _median(values) -> float:
    return float(statistics.median(values))


def e2e_values(reps: List[Rep], speeds: Optional[List[float]] = None) -> Dict[str, float]:
    """Medians over the repetitions. Repetition ``i``'s times are divided
    by ``speeds[i]`` (the host's slowdown against the reference host while
    it ran) and its rates multiplied; without ``speeds``, raw values."""
    speeds = speeds or [1.0] * len(reps)
    pairs = list(zip(reps, speeds))
    return {
        "setup_s": _median(r.setup_s / f for r, f in pairs),
        "wall_s": _median(r.wall_s / f for r, f in pairs),
        "node_steps_per_s": _median(
            f * r.node_steps / max(r.wall_s - r.setup_s, 1e-9) for r, f in pairs
        ),
        "cells_per_s": _median(f * sum(r.cells.values()) / r.wall_s for r, f in pairs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(
    name: str,
    seed: Optional[int] = None,
    seconds: float = 25.0,
    trace: bool = False,
    scale: str = "full",
    golden: Optional[dict] = None,
) -> dict:
    """Run one workload in this process; returns its result document."""
    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    WORK.mkdir(parents=True, exist_ok=True)
    golden = load_golden() if golden is None else golden
    expected = None
    if seed == workload.default_seed:
        expected = golden.get(scale, {}).get(name)

    rep = _rep_runner(workload, seed, scale)
    _warm_up(workload, seed)
    out = {"workload": name, "seed": seed, "scale": scale, "trace": int(trace)}
    if trace:
        reps, values, out["layers_raw"] = traced_run(workload, rep)
        units = LAYER_UNITS
    else:
        reps = []
        host = HostSpeed()
        start = perf_counter()
        while True:
            host.sample()
            with probing_steps(host) as probing_s:
                reps.append(rep())
            reps[-1].wall_s -= probing_s[0]
            elapsed = perf_counter() - start
            if scale == "smoke" or elapsed + _median(r.wall_s for r in reps) > seconds:
                break
        host.sample()
        speeds = [host.factor(i) for i in range(len(reps))]
        values, units = e2e_values(reps, speeds), E2E_UNITS
        out["host_speed"] = {
            "factors": speeds,
            "probe_s": host.probe_s,
            "reference_s": REFERENCE_S,
        }
        out["raw_metrics"] = {
            k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e_values(reps).items()
        }

    # Every repetition must reproduce the first (wrapped, plain and
    # observability-off runs included) and, at the default seed, the
    # committed golden digest.
    for i, r in enumerate(reps):
        drift = [
            k for k in set(r.digest) | set(reps[0].digest)
            if repr(r.digest.get(k)) != repr(reps[0].digest.get(k))
        ]
        for part in sorted({_part(k) for k in drift}):
            r.fail(part, f"rep {i}: digest differs from rep 0 in {part}")
        if expected is not None:
            bad = digest_mismatches(r.digest, expected)
            for part in sorted({_part(k) for k in bad}):
                r.fail(part, f"rep {i}: golden mismatch in {part}: "
                       + ", ".join(k for k in bad if _part(k) == part))
    attempted = sum(sum(r.cells.values()) for r in reps)
    failed = sum(sum(r.failed.values()) for r in reps)
    if not trace:
        values["failed_frac"] = failed / attempted
    out.update(
        {
            "repetitions": len(reps),
            "attempted": attempted,
            "failed": failed,
            "failures": [f for r in reps for f in r.failures],
            "golden": "not checked" if expected is None else (
                "match" if not digest_mismatches(reps[0].digest, expected)
                else "mismatch"
            ),
            "digest": reps[0].digest,
            "reps": [
                {
                    "wall_s": r.wall_s,
                    "setup_s": r.setup_s,
                    "node_steps": r.node_steps,
                    "cells": sum(r.cells.values()),
                    "failed": sum(r.failed.values()),
                }
                for r in reps
            ],
            "metrics": {
                k: {"value": v, "unit": units[k]} for k, v in values.items()
            },
            "meta": collect_meta(),
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: repro imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
