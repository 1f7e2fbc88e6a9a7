#!/usr/bin/env python3
"""Causal decision provenance: why did the controller do that?

BAAT's Fig.-9 monitor migrates VMs, caps DVFS, and parks servers in
response to deep-discharge stress. This example instruments one hard
(rainy, aged-fleet) day and then *explains* the control decisions:

1. run BAAT with a :class:`~repro.obs.provenance.ProvenanceIndex` on the
   event bus while also streaming the trace to a plain JSONL file (what
   ``--trace FILE`` writes);
2. walk each migration / DVFS cap back through its causal chain —
   action ← alert ← deep-discharge span ← SoC crossing — and print the
   chains, exactly what ``repro explain`` does;
3. aggregate: which trigger (DDT window breach vs DR reserve exhaustion
   vs consolidation plan) accounts for which share of the actions, and
   how long each battery spent inside deep-discharge / DVFS-capped /
   parked spans;
4. prove the trace round-trips: replaying the JSONL file yields *the
   same* chains the live index saw (the property ``repro trace
   validate`` + CI rely on).

Run:  python examples/decision_provenance.py  (takes a few seconds)
"""

from repro import Scenario, Simulation, make_policy
from repro.analysis.reporting import format_table
from repro.obs import BUS, disable_observability, enable_observability
from repro.obs.provenance import ProvenanceIndex, validate_trace
from repro.solar.weather import DayClass

TRACE_PATH = "provenance-trace.jsonl"


def run_traced_day():
    """One rainy day on an aged fleet, indexed live + streamed to disk."""
    scenario = Scenario(dt_s=120.0, initial_fade=0.12, seed=7)
    trace = scenario.trace_generator().days([DayClass.RAINY, DayClass.CLOUDY])

    live = ProvenanceIndex()
    enable_observability(TRACE_PATH)
    BUS.add_sink(live)
    try:
        Simulation(scenario, make_policy("baat"), trace).run()
    finally:
        BUS.remove_sink(live)
        disable_observability()
    return live


def main() -> None:
    live = run_traced_day()

    # 1. Causal chains: each control action explained back to its root.
    print("=== why did each control action fire? (first 6 chains) ===\n")
    chains = live.action_chains(kinds=("vm_migrated", "dvfs_cap", "park"))
    for chain in chains[:6]:
        for line in live.render_chain(chain):
            print(line)
        print()

    # 2. Aggregate attribution: migrations DDT- vs DR- vs plan-driven.
    rows = [
        (kind, trigger, count)
        for kind, per_kind in sorted(live.action_summary().items())
        for trigger, count in sorted(per_kind.items(), key=lambda kv: -kv[1])
    ]
    print(format_table(("action", "triggered by", "count"), rows,
                       title="action attribution"))

    # 3. Time-in-span: how long batteries spent in each managed state.
    span_rows = [
        (name, int(s["count"]), int(s.get("open", 0)), s["total"] / 3600.0)
        for name, s in live.span_stats().items()
    ]
    print()
    print(format_table(("span", "closed", "open", "total h"), span_rows,
                       title="time in span", float_fmt="{:.2f}"))

    # 4. The trace round-trips: replay == live, and it validates.
    replayed = ProvenanceIndex.from_trace(TRACE_PATH)
    identical = all(
        [(e.kind, e.eid) for e in live.chain(eid)]
        == [(e.kind, e.eid) for e in replayed.chain(eid)]
        for eid in live.actions
    )
    validation = validate_trace(TRACE_PATH)
    print(
        f"\nreplay check : {len(live.actions)} action chain(s) "
        f"{'identical' if identical else 'DIVERGED'} live vs JSONL"
        f"\nvalidation   : {validation.summary()}"
    )


if __name__ == "__main__":
    main()
