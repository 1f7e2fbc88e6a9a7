"""Command-line interface.

The subcommands mirror how the prototype was operated:

- ``repro experiments`` — list the paper figures this repo regenerates;
- ``repro run <exp>`` — regenerate one figure's table (``--full`` for the
  dense sweep);
- ``repro compare`` — run the Table-4 schemes head-to-head on a chosen
  day/battery-age cell and print the comparison;
- ``repro campaign`` — run an arbitrary policy x weather sweep through
  the parallel, cached campaign runner; with ``--trace FILE`` every
  cell runs in this process and writes its events to that one trace;
- ``repro cache`` — inspect or clear the on-disk result cache;
- ``repro trace <file>`` — inspect a trace JSONL written by ``--trace``;
- ``repro trace diff <a> <b>`` — event-count and per-battery aging
  deltas between two traces (policy comparison, instrumentation drift);
- ``repro trace validate <file>`` — schema/monotonicity/span-matching
  checks on a trace; non-zero exit on any violation (CI gate);
- ``repro explain <trace>`` — causal provenance: walk each control
  action (migration, DVFS cap, park...) back to the alert / SoC
  crossing / plan that triggered it, plus aggregate trigger stats;
- ``repro stats`` — run one instrumented simulation and print the metric
  registry: step-phase timings, action counters, gauges;
- ``repro health`` — per-battery aging attribution, alerts, and EOL
  projections from a trace file or a live instrumented run;
- ``repro export`` — run one instrumented simulation and export the
  metric registry (OpenMetrics/Prometheus text format);
- ``repro perf record <e2e.json>...`` — append full-scale, untraced
  ``benchmarks/e2e/run.py --json`` documents to the append-only perf
  history (JSONL, provenance-stamped);
- ``repro perf history [METRIC]`` — ASCII sparkline + table of one
  metric's recorded trajectory (omit METRIC to list the series);
- ``repro perf diff SHA_A SHA_B`` — metric-by-metric comparison of two
  recorded commits;
- ``repro perf check`` — judge the newest record (or an e2e document)
  against each metric's rolling same-host baseline; exits non-zero on
  a regression, naming the metric, the deviation, and the trend (CI
  gate).

Every simulation-running subcommand accepts ``--workers N`` (process
fan-out), ``--no-cache`` (force fresh runs), ``--cache-dir``,
``--trace FILE`` (stream structured telemetry events to a JSONL file;
a traced command runs its cells in this process, whatever ``--workers``
says), and ``--profile [FILE]`` (cProfile the command; hot functions print
next to the step-phase timers, or dump to FILE for snakeviz-style
tooling).

Usage::

    python -m repro experiments
    python -m repro run fig14 --full --workers 4
    python -m repro run fig18 --trace out.jsonl
    python -m repro compare --day rainy --fade 0.1 --days 2
    python -m repro campaign --policies e-buff,baat --days 3 --workers 4
    python -m repro campaign --days 3 --trace campaign.jsonl
    python -m repro trace out.jsonl --kind vm_migrated
    python -m repro trace diff baseline.jsonl candidate.jsonl
    python -m repro trace validate out.jsonl
    python -m repro explain out.jsonl --battery batt03
    python -m repro stats --policy baat-planned --day rainy --days 2
    python -m repro health out.jsonl
    python -m repro health --policy baat --day rainy --days 2
    python -m repro export --out metrics.prom
    python benchmarks/e2e/run.py --json e2e-run.json
    python -m repro perf record e2e-run.json
    python -m repro perf history sweep-paper/cells_per_s
    python -m repro perf check --trace perf.jsonl --export perf.prom
    python -m repro cache info
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections import Counter as _Counter
from typing import List, Optional, Sequence

from repro.analysis.reporting import format_table, percent_change
from repro.campaign import (
    RunSpec,
    configure_cache,
    default_cache,
    default_cache_dir,
    run_campaign,
    set_default_workers,
)
from repro.core.policies.factory import POLICY_NAMES
from repro.errors import ConfigurationError
from repro.obs import (
    BUS,
    REGISTRY,
    disable_observability,
    enable_observability,
    iter_events,
    parse_telemetry,
)
from repro.rng import DEFAULT_SEED
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

EXPERIMENTS = (
    "table01_usage_scenarios",
    "fig03_voltage",
    "fig04_capacity",
    "fig05_efficiency",
    "fig10_cycle_life",
    "fig12_profiling",
    "fig13_aging_comparison",
    "fig14_lifetime_sunshine",
    "fig15_lifetime_capacity",
    "fig16_cost",
    "fig17_expansion",
    "fig18_low_soc",
    "fig19_soc_distribution",
    "fig20_throughput",
    "fig21_dod_performance",
    "fig22_planned_aging",
)


def _resolve_experiment(token: str) -> str:
    """Accept 'fig14', 'fig14_lifetime_sunshine', or '14'."""
    token = token.lower()
    if token.isdigit():
        token = f"fig{int(token):02d}"
    matches = [name for name in EXPERIMENTS if name.startswith(token)]
    if len(matches) != 1:
        raise SystemExit(
            f"unknown or ambiguous experiment {token!r}; "
            f"choose from {', '.join(EXPERIMENTS)}"
        )
    return matches[0]


def cmd_experiments(_args: argparse.Namespace) -> int:
    for name in EXPERIMENTS:
        module = importlib.import_module(f"repro.experiments.{name}")
        first_line = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:28s} {first_line}")
    return 0


def _apply_execution_flags(args: argparse.Namespace) -> None:
    """Fold --workers / --no-cache / --cache-dir into process defaults.

    Experiments pick these up through the campaign runner, so one flag
    parallelises every sweep without threading a parameter through each
    figure's ``run()`` signature.
    """
    workers = getattr(args, "workers", None)
    if workers is not None:
        if workers < 1:
            raise SystemExit("--workers must be >= 1")
        set_default_workers(workers)
    if getattr(args, "no_cache", False):
        configure_cache(enabled=False)
    if getattr(args, "cache_dir", None):
        configure_cache(directory=args.cache_dir)


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="simulation worker processes (default: REPRO_CAMPAIGN_WORKERS or 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result cache (force fresh simulation)",
    )
    parser.add_argument(
        "--cache-dir", default=None, help="override the result-cache directory"
    )
    _add_trace_flags(parser)
    _add_profile_flag(parser)


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write structured telemetry events (JSONL) to FILE",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="SPEC",
        help="which steps and nodes the traced battery_frame events "
        "cover: full (every node every step; the default) or "
        "sampled:N[:node1,node2] (every N-th step, optional node subset)",
    )


def _telemetry_spec(args: argparse.Namespace) -> Optional[str]:
    """The validated ``--telemetry`` spec (``None`` when not given)."""
    telemetry = getattr(args, "telemetry", None)
    if telemetry is not None:
        try:
            parse_telemetry(telemetry)
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
    return telemetry


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="FILE",
        help="cProfile the command; print hot functions (or dump stats "
        "to FILE) alongside the step-phase timers",
    )


def _add_stepper_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stepper", choices=("reference", "fleet"), default="reference",
        help="engine stepping path: the per-node reference walk or the "
        "bit-compatible vectorized fleet fast path (see "
        "benchmarks/bench_engine.py for the speedup at scale)",
    )
    parser.add_argument(
        "--nodes", type=int, default=6, metavar="N",
        help="cluster size in server+battery nodes (default 6, the "
        "paper's testbed; pair large N with --stepper fleet)",
    )


def cmd_run(args: argparse.Namespace) -> int:
    _apply_execution_flags(args)
    name = _resolve_experiment(args.experiment)
    module = importlib.import_module(f"repro.experiments.{name}")
    result = module.run(quick=not args.full, seed=args.seed)
    print(result.to_text())
    return 0


def _comparison_table(results, labels) -> str:
    rows = []
    base = None
    for name in labels:
        result = results[name]
        if base is None:
            base = result
        rows.append(
            (
                name,
                result.throughput_per_day(),
                percent_change(result.throughput, base.throughput),
                result.worst_damage_per_day() * 1000.0,
                result.worst_low_soc_fraction() * 24.0,
                result.total_downtime_s / 3600.0,
                result.migrations,
                result.dvfs_transitions,
            )
        )
    return format_table(
        (
            "scheme",
            "thr/day",
            f"vs {labels[0]} %",
            "worst fade/d x1e-3",
            "low-SoC h/d",
            "down h",
            "migr",
            "dvfs",
        ),
        rows,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    _apply_execution_flags(args)
    day = DayClass(args.day)
    scenario = Scenario(
        n_nodes=args.nodes, dt_s=args.dt, initial_fade=args.fade,
        seed=args.seed, stepper=args.stepper,
    )
    trace = scenario.trace_generator().days([day] * args.days)
    print(
        f"{args.days} x {day.value} day(s), initial fade {args.fade:.0%}, "
        f"solar {trace.energy_wh() / 1000:.2f} kWh total\n"
    )
    specs = [
        RunSpec(scenario=scenario, trace=trace, policy=name)
        for name in POLICY_NAMES
    ]
    report = run_campaign(specs)
    print(_comparison_table(report.results(), POLICY_NAMES))
    print(f"\n  {report.summary_line()}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    _apply_execution_flags(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise SystemExit("--policies must name at least one scheme")
    day_names = [d.strip() for d in args.day_mix.split(",") if d.strip()]
    try:
        day_mix = [DayClass(d) for d in day_names]
    except ValueError as exc:
        raise SystemExit(f"unknown day class in --day-mix: {exc}")
    days = (day_mix * ((args.days + len(day_mix) - 1) // len(day_mix)))[: args.days]

    scenario = Scenario(
        n_nodes=args.nodes, dt_s=args.dt, initial_fade=args.fade,
        seed=args.seed, stepper=args.stepper,
    )
    trace = scenario.trace_generator().days(days)
    print(
        f"campaign: {len(policies)} scheme(s) x {args.days} day(s) "
        f"({'/'.join(d.value for d in days)}), initial fade {args.fade:.0%}, "
        f"solar {trace.energy_wh() / 1000:.2f} kWh total\n"
    )
    specs = [
        RunSpec(scenario=scenario, trace=trace, policy=name) for name in policies
    ]

    try:
        report = run_campaign(specs, n_workers=args.workers)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    failures = report.failures
    ok_labels = [o.label for o in report.outcomes if o.ok]
    if ok_labels:
        print(_comparison_table(report.results(strict=False), ok_labels))
    else:
        print("no successful cells to compare")
    print("\ncells:")
    for line in report.per_cell_lines():
        print(f"  {line}")
    print(f"\n  {report.cache_summary_line()}")
    print(f"  {report.summary_line()}")
    for outcome in failures:
        print(f"  FAILED {outcome.label}: {'; '.join(outcome.errors)}")
    return 1 if failures else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect one trace JSONL file, diff two, or validate one."""
    tokens: List[str] = args.args
    if tokens[0] == "diff":
        if len(tokens) != 3:
            raise SystemExit("usage: repro trace diff A.jsonl B.jsonl")
        return _trace_diff(tokens[1], tokens[2])
    if tokens[0] == "validate":
        if len(tokens) != 2:
            raise SystemExit("usage: repro trace validate FILE")
        return _trace_validate(tokens[1])
    if len(tokens) != 1:
        raise SystemExit(
            "usage: repro trace FILE [--kind K] [--node N] [--limit N]\n"
            "       repro trace diff A.jsonl B.jsonl\n"
            "       repro trace validate FILE"
        )
    args.file = tokens[0]
    kinds: _Counter = _Counter()
    printed = 0
    t_min = float("inf")
    t_max = float("-inf")
    total = 0
    try:
        for event in iter_events(args.file, strict=False):
            total += 1
            kinds[event.kind] += 1
            t_min = min(t_min, event.t)
            t_max = max(t_max, event.t)
            if args.kind and event.kind != args.kind:
                continue
            if args.node and getattr(event, "node", None) != args.node:
                continue
            if printed < args.limit:
                print(event.to_json())
                printed += 1
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.file}")
    except BrokenPipeError:  # piped into head/less that closed early
        return 0
    except ValueError as exc:
        raise SystemExit(f"malformed trace line in {args.file}: {exc}")
    try:
        if total == 0:
            print("(empty trace)")
            return 0
        print(f"\n{total} event(s), t in [{t_min:.0f}, {t_max:.0f}] s")
        for kind, count in kinds.most_common():
            print(f"  {kind:20s} {count}")
    except BrokenPipeError:  # piped into head/less that closed early
        pass
    return 0


def _trace_validate(path: str) -> int:
    """Schema / monotonicity / span-matching checks; non-zero on failure."""
    from repro.obs.provenance import validate_trace

    try:
        result = validate_trace(path)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {path}")
    for violation in result.violations:
        print(f"  VIOLATION {violation}")
    for span_id, name, node in result.open_spans:
        print(f"  open span: {name} on {node or 'cluster'} (id {span_id})")
    print(result.summary())
    return 0 if result.ok else 1


def cmd_explain(args: argparse.Namespace) -> int:
    """Causal provenance chains: why did each control action fire?"""
    from repro.obs.provenance import DEFAULT_EXPLAIN_KINDS, ProvenanceIndex

    try:
        index = ProvenanceIndex.from_trace(args.trace_file)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.trace_file}")
    except ValueError as exc:
        raise SystemExit(f"malformed trace line in {args.trace_file}: {exc}")
    if not index.n_events:
        print("(empty trace)")
        return 0

    runs = ", ".join(f"{r.policy} ({r.n_actions} action(s))" for r in index.runs)
    print(
        f"{args.trace_file}: {index.n_events} event(s), "
        f"{len(index.runs)} run(s){': ' + runs if runs else ''}\n"
    )

    if args.event is not None:
        chain = index.chain(args.event)
        if not chain:
            raise SystemExit(
                f"event #{args.event} is not in the provenance index "
                f"(not emitted, or a bulk-telemetry kind)"
            )
        for line in index.render_chain(chain):
            print(line)
        return 0

    kinds = (args.action,) if args.action else DEFAULT_EXPLAIN_KINDS
    chains = index.action_chains(kinds=kinds, node=args.battery)
    if not chains:
        scope = f" on {args.battery}" if args.battery else ""
        print(f"no {'/'.join(kinds)} action(s){scope} in this trace")
    for chain in chains[: args.limit]:
        for line in index.render_chain(chain):
            print(line)
        print()
    if len(chains) > args.limit:
        print(f"... {len(chains) - args.limit} more chain(s); raise --limit\n")

    summary = index.action_summary()
    rows = [
        (kind, trigger, count)
        for kind in sorted(summary)
        for trigger, count in sorted(
            summary[kind].items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    if rows:
        print(format_table(
            ("action", "triggered by", "count"), rows, title="action triggers"
        ))
    span_rows = [
        (
            name,
            int(stats["count"]),
            int(stats.get("open", 0)),
            stats["total"],
            stats["mean"],
            stats["max"],
        )
        for name, stats in index.span_stats().items()
    ]
    if span_rows:
        print()
        print(format_table(
            ("span", "closed", "open", "total s", "mean s", "max s"),
            span_rows,
            title="time in span",
        ))
    return 0


def _load_trace_model(path: str):
    """Event-kind counts plus a finalized health model for one trace."""
    from repro.obs.health import FleetHealthModel

    kinds: _Counter = _Counter()
    model = FleetHealthModel()
    try:
        for event in iter_events(path, strict=False):
            kinds[event.kind] += 1
            model.emit(event)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {path}")
    except ValueError as exc:
        raise SystemExit(f"malformed trace line in {path}: {exc}")
    model.finalize()
    return kinds, model


def _trace_diff(path_a: str, path_b: str) -> int:
    """Compare two traces: event counts, per-battery aging, alerts."""
    kinds_a, model_a = _load_trace_model(path_a)
    kinds_b, model_b = _load_trace_model(path_b)
    print(f"A = {path_a}\nB = {path_b}\n")
    rows = [
        (kind, kinds_a.get(kind, 0), kinds_b.get(kind, 0),
         kinds_b.get(kind, 0) - kinds_a.get(kind, 0))
        for kind in sorted(set(kinds_a) | set(kinds_b))
    ]
    if not rows:
        print("(both traces are empty)")
        return 0
    print(format_table(("event kind", "A", "B", "B-A"), rows,
                       title="event counts"))
    for run_a, run_b in zip(model_a.runs, model_b.runs):
        names = sorted(set(run_a.batteries) | set(run_b.batteries))
        if not names:
            continue
        weights = model_a.weights
        metric_rows = []
        for name in names:
            in_a = name in run_a.batteries
            in_b = name in run_b.batteries
            score_a = (
                run_a.batteries[name].breakdown(weights).score if in_a else 0.0
            )
            score_b = (
                run_b.batteries[name].breakdown(weights).score if in_b else 0.0
            )
            m_a = run_a.batteries[name].metrics() if in_a else None
            m_b = run_b.batteries[name].metrics() if in_b else None

            def delta(field):
                a = getattr(m_a, field) if m_a is not None else 0.0
                b = getattr(m_b, field) if m_b is not None else 0.0
                return b - a

            metric_rows.append(
                (
                    name,
                    score_a,
                    score_b,
                    score_b - score_a,
                    delta("nat") * 1000.0,
                    delta("pc"),
                    delta("ddt"),
                    delta("dr_mean"),
                )
            )
        print()
        print(format_table(
            ("battery", "score A", "score B", "dscore",
             "dNAT x1e-3", "dPC", "dDDT", "dDR"),
            metric_rows,
            title=f"[{run_a.label} vs {run_b.label}] per-battery aging",
        ))
    if len(model_a.runs) != len(model_b.runs):
        print(
            f"\nnote: A has {len(model_a.runs)} run(s), B has "
            f"{len(model_b.runs)}; extra runs are not compared"
        )
    alerts_a = sum(len(r.alerts) for r in model_a.runs)
    alerts_b = sum(len(r.alerts) for r in model_b.runs)
    print(f"\nalert events: A {alerts_a}, B {alerts_b}")
    return 0


def _live_sim_inputs(args: argparse.Namespace):
    """Shared scenario/trace/policy construction for stats-like commands."""
    day = DayClass(args.day)
    scenario = Scenario(
        n_nodes=getattr(args, "nodes", 6),
        dt_s=args.dt,
        initial_fade=args.fade,
        seed=args.seed,
        stepper=getattr(args, "stepper", "reference"),
    )
    trace = scenario.trace_generator().days([day] * args.days)
    spec = RunSpec(scenario=scenario, trace=trace, policy=args.policy)
    return day, scenario, trace, spec


def cmd_health(args: argparse.Namespace) -> int:
    """Fleet health report from a trace file or a live instrumented run."""
    from repro.obs.alerts import AlertEngine, default_rules
    from repro.obs.health import FleetHealthModel

    if args.source:
        # Replay mode: a private engine re-derives day-window alerts from
        # the stream without touching the process-wide BUS/ALERTS.
        engine = AlertEngine(default_rules())
        engine.enabled = True
        try:
            model = FleetHealthModel.from_trace(args.source, alert_engine=engine)
        except FileNotFoundError:
            raise SystemExit(f"no such trace file: {args.source}")
        except ValueError as exc:
            raise SystemExit(f"malformed trace line in {args.source}: {exc}")
        print(model.report().to_text())
        return 0

    from repro.sim.engine import Simulation

    day, scenario, trace, spec = _live_sim_inputs(args)
    REGISTRY.reset()
    enable_observability(args.trace, telemetry=_telemetry_spec(args))
    model = FleetHealthModel()
    BUS.add_sink(model)
    try:
        Simulation(scenario, spec.build_policy(), trace).run()
        model.finalize()
        print(
            f"{args.policy} on {args.days} x {day.value} day(s), "
            f"fade {args.fade:.0%}, dt {args.dt:.0f}s\n"
        )
        print(model.report().to_text())
    finally:
        BUS.remove_sink(model)
        disable_observability()
        REGISTRY.reset()
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Run one instrumented simulation and export the metric registry."""
    from repro.obs.export import to_openmetrics
    from repro.sim.engine import Simulation

    day, scenario, trace, spec = _live_sim_inputs(args)
    REGISTRY.reset()
    enable_observability(args.trace, telemetry=_telemetry_spec(args))
    try:
        Simulation(scenario, spec.build_policy(), trace).run()
        text = to_openmetrics(REGISTRY)
    finally:
        disable_observability()
        REGISTRY.reset()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote openmetrics export to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run one instrumented simulation and print the metric registry."""
    from repro.sim.engine import Simulation

    day, scenario, trace, spec = _live_sim_inputs(args)
    REGISTRY.reset()
    enable_observability(args.trace, telemetry=_telemetry_spec(args))
    try:
        with BUS.capture() as sink:
            Simulation(scenario, spec.build_policy(), trace).run()
        snap = REGISTRY.snapshot()
        print(
            f"{args.policy} on {args.days} x {day.value} day(s), "
            f"fade {args.fade:.0%}, dt {args.dt:.0f}s\n"
        )
        phase_rows = [
            (
                name[len("phase/"):],
                h["count"],
                h["total"] * 1e3,
                h["mean"] * 1e6,
                h["max"] * 1e6,
            )
            for name, h in snap["histograms"].items()
            if name.startswith("phase/")
        ]
        if phase_rows:
            print(format_table(
                ("phase", "calls", "total ms", "mean us", "max us"), phase_rows
            ))
        counter_rows = [(n, v) for n, v in snap["counters"].items()]
        if counter_rows:
            print()
            print(format_table(("counter", "value"), counter_rows))
        gauge_rows = [(n, v) for n, v in snap["gauges"].items()]
        if gauge_rows:
            print()
            print(format_table(("gauge", "value"), gauge_rows))
        event_counts = _Counter(e.kind for e in sink.events)
        if event_counts:
            print()
            print(format_table(
                ("event kind", "count"), list(event_counts.most_common())
            ))
        print(f"\n  {BUS.n_emitted} event(s) emitted, "
              f"{len(REGISTRY.samples)} day snapshot(s)")
    finally:
        disable_observability()
        REGISTRY.reset()
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_dir:
        configure_cache(directory=args.cache_dir)
    cache = default_cache()
    if cache is None:
        print("result cache is disabled (REPRO_CAMPAIGN_CACHE=0)")
        return 0
    if args.cache_action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.path}")
        return 0
    entries = len(cache)
    print(f"cache dir : {default_cache_dir()}")
    print(f"entries   : {entries}")
    print(f"size      : {cache.size_bytes() / 1024:.1f} KiB")
    return 0


def _read_record(path: str):
    """The perf record of one end-to-end benchmark document."""
    import json

    from repro import perf

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"no such document: {path}") from None
    except ValueError as exc:
        raise SystemExit(f"{path} is not valid JSON: {exc}") from None
    try:
        return perf.e2e_record(data)
    except ConfigurationError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _perf_record(args: argparse.Namespace, history) -> int:
    for path in args.files:
        record = history.append(_read_record(path))
        print(
            f"recorded {len(record.metrics)} metric(s) from {path} at "
            f"{record.sha[:9] or 'unknown sha'}"
        )
    print(f"history: {len(history)} record(s) in {history.path}")
    return 0


def _perf_history(args: argparse.Namespace, history) -> int:
    from repro import perf

    records = history.records()
    if history.n_skipped:
        print(
            f"warning: skipped {history.n_skipped} unreadable history line(s)"
        )
    if not args.metric:
        print(perf.render_metric_list(history.metric_names()))
        return 0
    pairs = history.series(args.metric, records=records)
    if not pairs:
        matches = [n for n in history.metric_names() if args.metric in n]
        if matches:
            print(f"no metric named {args.metric!r}; close matches:")
            for name in matches[:20]:
                print(f"  {name}")
        else:
            print(f"no recorded values for metric {args.metric!r}")
        return 1
    values = [v for _, v in pairs]
    print(
        perf.render_history(
            args.metric, pairs,
            change=perf.change_point(values),
            limit=args.limit,
        )
    )
    return 0


def _perf_diff(args: argparse.Namespace, history) -> int:
    from repro import perf

    records = history.records()

    def merged(sha_prefix: str):
        """Latest value of every metric recorded at a matching sha."""
        metrics: dict = {}
        full = None
        for record in records:
            if record.sha.startswith(sha_prefix) and record.sha:
                metrics.update(record.metrics)
                full = record.sha
        if full is None:
            raise SystemExit(
                f"no history record in {history.path} matches sha "
                f"{sha_prefix!r}"
            )
        return full, metrics

    sha_a, metrics_a = merged(args.sha_a)
    sha_b, metrics_b = merged(args.sha_b)
    print(perf.render_diff(sha_a, sha_b, metrics_a, metrics_b))
    return 0


def _announce_regressions(result) -> None:
    """Fan confirmed regressions out to the obs layer (when enabled).

    Each regression becomes a typed ``perf_regression`` bus event, an
    observation against the ``perf_regression`` alert rule, and registry
    metrics — so a ``repro perf check --trace FILE`` produces a trace
    that validates and exports like any other instrumented command.
    ``t`` is an emission counter: perf checks have no simulation clock,
    and the validator only requires run-clock monotonicity.
    """
    from repro.obs import ALERTS, PerfRegressionEvent

    sha = result.candidate.sha if result.candidate is not None else ""
    have_rule = any(r.name == "perf_regression" for r in ALERTS.rules)
    for i, check in enumerate(result.regressions):
        t = float(i)
        if BUS.enabled:
            BUS.emit(PerfRegressionEvent(
                t=t,
                metric=check.metric,
                value=check.value,
                baseline=check.median,
                sigma=check.sigma,
                deviation=check.deviation,
                direction=check.direction or "",
                sha=sha,
            ))
        if ALERTS.enabled and have_rule:
            ALERTS.observe("perf_regression", check.metric, check.deviation, t)
        if REGISTRY.enabled:
            REGISTRY.counter("perf/regressions_total").inc()
            REGISTRY.gauge(f"perf/deviation/{check.metric}").set(
                check.deviation
            )


def _export_perf_metrics(result, path: str) -> None:
    """OpenMetrics rendering of a check outcome (no --trace required)."""
    from repro.obs.export import write_export
    from repro.obs.metrics import MetricRegistry

    registry = MetricRegistry()
    registry.enabled = True
    registry.counter("perf/regressions_total").inc(len(result.regressions))
    registry.gauge("perf/metrics_checked").set(len(result.checks))
    registry.gauge("perf/metrics_without_baseline").set(
        len(result.no_baseline)
    )
    for check in result.regressions:
        registry.gauge(f"perf/deviation/{check.metric}").set(check.deviation)
    write_export(registry, path)
    print(f"wrote openmetrics export to {path}")


def _perf_check(args: argparse.Namespace, history) -> int:
    from repro import perf

    # A given document is judged against the whole history without
    # being appended: the "would this regress?" pre-commit shape.
    candidate = _read_record(args.document) if args.document else None
    result = perf.check_history(
        history,
        candidate=candidate,
        window=args.window,
        threshold=args.threshold,
    )
    _announce_regressions(result)
    if args.export:
        _export_perf_metrics(result, args.export)
    print(perf.render_check(result))
    return 0 if result.ok else 1


def cmd_perf(args: argparse.Namespace) -> int:
    """Perf observatory: record, plot, diff, and gate on bench history."""
    from repro import perf

    history = perf.PerfHistory(args.history or perf.default_history_path())
    if args.perf_cmd == "record":
        return _perf_record(args, history)
    if args.perf_cmd == "history":
        return _perf_history(args, history)
    if args.perf_cmd == "diff":
        return _perf_diff(args, history)
    return _perf_check(args, history)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BAAT (DSN 2015) reproduction: regenerate paper figures "
        "and compare battery management schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list regenerable paper figures")

    run = sub.add_parser("run", help="regenerate one paper figure")
    run.add_argument("experiment", help="e.g. fig14 or 14")
    run.add_argument("--full", action="store_true", help="dense (slow) sweep")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_execution_flags(run)

    compare = sub.add_parser("compare", help="run the four schemes head-to-head")
    compare.add_argument(
        "--day", choices=[d.value for d in DayClass], default="cloudy"
    )
    compare.add_argument("--fade", type=float, default=0.0,
                         help="initial battery fade (0.10 = 'old')")
    compare.add_argument("--days", type=int, default=1)
    compare.add_argument("--dt", type=float, default=120.0)
    compare.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_stepper_flag(compare)
    _add_execution_flags(compare)

    campaign = sub.add_parser(
        "campaign",
        help="run a policy x weather sweep through the parallel, cached runner",
    )
    campaign.add_argument(
        "--policies",
        default=",".join(POLICY_NAMES),
        help="comma-separated scheme names (default: the four Table-4 schemes)",
    )
    campaign.add_argument(
        "--day-mix",
        default="cloudy",
        help="comma-separated day classes cycled over the horizon "
        "(e.g. cloudy,rainy)",
    )
    campaign.add_argument("--days", type=int, default=3)
    campaign.add_argument("--fade", type=float, default=0.0,
                          help="initial battery fade (0.10 = 'old')")
    campaign.add_argument("--dt", type=float, default=120.0)
    campaign.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_stepper_flag(campaign)
    _add_execution_flags(campaign)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument(
        "cache_action", choices=("info", "clear"), nargs="?", default="info"
    )
    cache.add_argument("--cache-dir", default=None,
                       help="override the result-cache directory")

    trace = sub.add_parser(
        "trace",
        help="inspect a telemetry JSONL file written by --trace, "
        "'trace diff A B' to compare two, or 'trace validate FILE' "
        "to schema-check one",
    )
    trace.add_argument(
        "args", nargs="+", metavar="FILE | diff A B | validate FILE",
        help="trace JSONL path, or: diff A.jsonl B.jsonl, or: validate FILE",
    )
    trace.add_argument("--kind", default=None,
                       help="print only events of this kind")
    trace.add_argument("--node", default=None,
                       help="print only events touching this node")
    trace.add_argument("--limit", type=int, default=20,
                       help="max events to print before the summary (default 20)")

    explain = sub.add_parser(
        "explain",
        help="causal provenance from a trace: walk control actions back "
        "to the alerts / SoC crossings that triggered them",
    )
    explain.add_argument("trace_file", metavar="TRACE",
                         help="trace JSONL written by --trace")
    explain.add_argument("--battery", default=None, metavar="NODE",
                         help="only actions touching this node")
    explain.add_argument("--event", type=int, default=None, metavar="EID",
                         help="explain one event by its #eid")
    explain.add_argument(
        "--action", default=None, metavar="KIND",
        help="only actions of this kind (e.g. vm_migrated, dvfs_cap)",
    )
    explain.add_argument("--limit", type=int, default=10,
                         help="max chains to print (default 10)")

    stats = sub.add_parser(
        "stats",
        help="run one instrumented simulation and print phase timings/metrics",
    )
    stats.add_argument("--policy", default="baat",
                       help="scheme to run (default baat; baat-planned allowed)")
    stats.add_argument("--day", choices=[d.value for d in DayClass],
                       default="cloudy")
    stats.add_argument("--days", type=int, default=1)
    stats.add_argument("--fade", type=float, default=0.0,
                       help="initial battery fade (0.10 = 'old')")
    stats.add_argument("--dt", type=float, default=120.0)
    stats.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_stepper_flag(stats)
    _add_trace_flags(stats)
    _add_profile_flag(stats)

    health = sub.add_parser(
        "health",
        help="per-battery aging attribution, alerts, and EOL projections",
    )
    health.add_argument(
        "source", nargs="?", default=None, metavar="TRACE",
        help="trace JSONL to replay; omit to run a live instrumented "
        "simulation instead",
    )
    health.add_argument("--policy", default="baat",
                        help="scheme for the live run (default baat)")
    health.add_argument("--day", choices=[d.value for d in DayClass],
                        default="cloudy")
    health.add_argument("--days", type=int, default=1)
    health.add_argument("--fade", type=float, default=0.0,
                        help="initial battery fade (0.10 = 'old')")
    health.add_argument("--dt", type=float, default=120.0)
    health.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_stepper_flag(health)
    _add_trace_flags(health)
    _add_profile_flag(health)

    export = sub.add_parser(
        "export",
        help="run one instrumented simulation and export the metric registry",
    )
    export.add_argument("--out", default=None, metavar="FILE",
                        help="write the export to FILE (default: stdout)")
    export.add_argument("--policy", default="baat",
                        help="scheme to run (default baat)")
    export.add_argument("--day", choices=[d.value for d in DayClass],
                        default="cloudy")
    export.add_argument("--days", type=int, default=1)
    export.add_argument("--fade", type=float, default=0.0,
                        help="initial battery fade (0.10 = 'old')")
    export.add_argument("--dt", type=float, default=120.0)
    export.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_stepper_flag(export)
    _add_trace_flags(export)
    _add_profile_flag(export)

    perf_p = sub.add_parser(
        "perf",
        help="benchmark history: record e2e runs, plot series, diff shas, "
        "gate on regressions",
    )
    perf_sub = perf_p.add_subparsers(dest="perf_cmd", required=True)

    def _add_history_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--history", default=None, metavar="FILE",
            help="perf history JSONL (default: $REPRO_PERF_HISTORY or "
            "./perf-history.jsonl)",
        )

    perf_record = perf_sub.add_parser(
        "record",
        help="append full-scale, untraced 'benchmarks/e2e/run.py --json' "
        "documents to the history",
    )
    perf_record.add_argument(
        "files", nargs="+", metavar="E2E_JSON",
        help="end-to-end benchmark document(s) to record",
    )
    _add_history_flag(perf_record)

    perf_hist = perf_sub.add_parser(
        "history",
        help="ASCII sparkline + table of one metric's recorded series",
    )
    perf_hist.add_argument(
        "metric", nargs="?", default=None,
        help="metric name (e.g. sweep-paper/cells_per_s); omit to "
        "list every recorded metric",
    )
    perf_hist.add_argument(
        "--limit", type=int, default=15,
        help="table rows to print (default 15)",
    )
    _add_history_flag(perf_hist)

    perf_diff = perf_sub.add_parser(
        "diff", help="metric-by-metric comparison of two recorded shas"
    )
    perf_diff.add_argument("sha_a", help="first sha (prefix match)")
    perf_diff.add_argument("sha_b", help="second sha (prefix match)")
    _add_history_flag(perf_diff)

    perf_check = perf_sub.add_parser(
        "check",
        help="exit non-zero when the newest record (or a given e2e "
        "document) falls outside its rolling same-host baseline",
    )
    perf_check.add_argument(
        "document", nargs="?", default=None, metavar="E2E_JSON",
        help="judge this end-to-end benchmark document against the "
        "history instead of the newest recorded entry (nothing is "
        "appended)",
    )
    perf_check.add_argument(
        "--window", type=int, default=20, metavar="K",
        help="rolling baseline window: last K same-host records "
        "(default 20)",
    )
    perf_check.add_argument(
        "--threshold", type=float, default=4.0, metavar="SIGMA",
        help="robust sigmas outside baseline that count as a regression "
        "(default 4.0)",
    )
    perf_check.add_argument(
        "--export", default=None, metavar="FILE",
        help="write an OpenMetrics rendering of the check outcome",
    )
    _add_history_flag(perf_check)
    _add_trace_flags(perf_check)

    return parser


#: Subcommands that manage their own observability lifecycle (so the
#: ``--trace`` plumbing in :func:`main` must not double-enable it).
_SELF_INSTRUMENTED = ("stats", "health", "export")


def _dispatch(args: argparse.Namespace) -> int:
    handlers = {
        "experiments": cmd_experiments,
        "run": cmd_run,
        "compare": cmd_compare,
        "campaign": cmd_campaign,
        "cache": cmd_cache,
        "trace": cmd_trace,
        "explain": cmd_explain,
        "stats": cmd_stats,
        "health": cmd_health,
        "export": cmd_export,
        "perf": cmd_perf,
    }
    # --trace on run/compare/campaign: attach a JSONL sink (and enable the
    # metric registry) for the duration of the command. stats/health/export
    # manage their own sinks so they can also use the in-memory stream.
    trace_path = (
        getattr(args, "trace", None)
        if args.command not in _SELF_INSTRUMENTED
        else None
    )
    if trace_path is None:
        return handlers[args.command](args)
    sink = enable_observability(trace_path, telemetry=_telemetry_spec(args))
    try:
        return handlers[args.command](args)
    finally:
        n_events = sink.n_written if sink is not None else 0
        disable_observability()
        print(f"\n  wrote {n_events} telemetry event(s) to {trace_path}")


def _print_profile(profiler, target: str) -> None:
    """Render the cProfile result: dump to a file or print hot functions.

    The printed view complements the registry's step-phase timers: the
    timers say *which phase* is slow, the profile says *which function*.
    """
    import pstats

    profiler.disable()
    if target:
        profiler.dump_stats(target)
        print(f"\n  profile written to {target}")
        return
    stats = pstats.Stats(profiler, stream=sys.stdout)
    print("\nprofile (top 15 by cumulative time):")
    stats.sort_stats("cumulative").print_stats(15)
    # A second cut by internal time: cumulative ranking buries the leaf
    # array kernels under the callers that dispatch them.
    print("profile (top 15 by tottime):")
    stats.sort_stats("tottime").print_stats(15)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profile_target = getattr(args, "profile", None)
    try:
        if profile_target is None:
            return _dispatch(args)
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _dispatch(args)
        finally:
            try:
                _print_profile(profiler, profile_target)
            except BrokenPipeError:
                pass
    except BrokenPipeError:  # piped into head/less that closed early
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
