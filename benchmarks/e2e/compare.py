"""Judge a change against its parent from end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... \
                                      --change C1.json C2.json ...

Each file is one ``run.py --json`` result of the end-to-end pass (one
workload or all). Run parent and change alternately, swapping which
goes first in each pair, at least ten pairs; pair ``i`` is the ``i``-th
parent file with the ``i``-th change file.

For every workload and every ``end_to_end`` metric of ``BENCHMARK.json``
the verdict is:

``gain``
    the change wins at least nine tenths of the pairs (ties count for
    neither), its median beats the parent's by more than the parent's
    interquartile range, and no more cells failed than at the parent;
``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound (for ``setup_s``, also by more than 0.05 s);
``unresolved``
    the run-to-run spread (interquartile range over median, either side)
    is wider than the bound, unless every change run beats every parent
    run;
``ok``
    otherwise.

It prints one row per workload, then each side's median and quartiles.
The exit status is 1 when any metric regressed or is unresolved, or the
change failed more cells than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: ``setup_s`` may also worsen by this many seconds: set-ups of a few
#: tens of milliseconds jitter by more than any share of themselves.
SETUP_FLOOR_S = 0.05

#: Share of pairs the change must win to claim a gain.
GAIN_WIN_SHARE = 0.9


def load_runs(paths: List[str]) -> List[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("args", {}).get("trace"):
            raise SystemExit(f"{path}: a --trace run; compare end-to-end runs")
        runs.append(doc)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _share(part: float, whole: float) -> float:
    return abs(part / whole) if whole else float("inf") if part else 0.0


def judge(spec: dict, parent: List[float], change: List[float], more_failed: bool) -> dict:
    """The verdict on one metric of one workload."""
    lower = spec["better"] == "lower"

    def beats(c: float, p: float) -> bool:
        return c < p if lower else c > p

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    worse_by = c_med - p_med if lower else p_med - c_med
    allowed = spec["bound"] * abs(p_med)
    if spec["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    spread = max(_share(p_q3 - p_q1, p_med), _share(c_q3 - c_q1, c_med))
    if (
        pairs
        and wins >= GAIN_WIN_SHARE * len(pairs)
        and -worse_by > p_q3 - p_q1
        and not more_failed
    ):
        verdict = "gain"
    elif worse_by > allowed:
        verdict = "regressed"
    elif spread > spec["bound"] and not all(beats(c, p) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "verdict": verdict,
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(pairs),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "spread": spread,
    }


def _alternates(parent: List[dict], change: List[dict]) -> bool:
    """Whether no two runs of one side ran back to back."""
    order = sorted(
        [(d["started_at"], "p") for d in parent] + [(d["started_at"], "c") for d in change]
    )
    return all(a[1] != b[1] for a, b in zip(order, order[1:]))


def compare(parent: List[dict], change: List[dict], bench: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether the change is acceptable.

    Each workload is judged over the runs that hold it, so files of single
    workloads and of whole passes can be mixed.
    """
    specs = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    width = max(len(n) for n in names)
    header = f"{'workload':<{width}}  " + "  ".join(f"{s['name']:>20}" for s in specs)
    lines = [header + "  failed (parent/change)", "-" * (len(header) + 24)]
    warnings: List[str] = []
    details: List[str] = []
    ok = True
    for name in names:
        p_docs = [d for d in parent if name in d["workloads"]]
        c_docs = [d for d in change if name in d["workloads"]]
        if not p_docs or not c_docs:
            warnings.append(f"warning: {name}: no runs on one side, not judged")
            continue
        if len(p_docs) != len(c_docs):
            warnings.append(
                f"warning: {name}: {len(p_docs)} parent vs {len(c_docs)} change "
                "runs; unpaired runs count only toward medians"
            )
        if min(len(p_docs), len(c_docs)) < 10:
            warnings.append(f"warning: {name}: fewer than ten pairs")
        if not _alternates(p_docs, c_docs):
            warnings.append(f"warning: {name}: runs did not alternate")
        p_failed = sum(d["workloads"][name]["failed"] for d in p_docs)
        c_failed = sum(d["workloads"][name]["failed"] for d in c_docs)
        more_failed = c_failed > p_failed
        ok &= not more_failed
        cells = []
        for spec in specs:
            p_values, c_values = (
                [d["workloads"][name]["metrics"][spec["name"]]["value"] for d in docs]
                for docs in (p_docs, c_docs)
            )
            v = judge(spec, p_values, c_values, more_failed)
            ok &= v["verdict"] not in ("regressed", "unresolved")
            cells.append(f"{v['verdict']} {v['delta']:+.1%}")
            details.append(
                f"  {name} {spec['name']} [{spec['unit']}]: "
                f"parent {v['parent'][1]:.6g} ({v['parent'][0]:.6g}..{v['parent'][2]:.6g}), "
                f"change {v['change'][1]:.6g} ({v['change'][0]:.6g}..{v['change'][2]:.6g}), "
                f"change won {v['wins']}/{v['pairs']} pairs, spread {v['spread']:.1%} "
                f"vs bound {spec['bound']:.0%} -> {v['verdict']}"
            )
        lines.append(
            f"{name:<{width}}  " + "  ".join(f"{c:>20}" for c in cells)
            + f"  {p_failed}/{c_failed}"
        )
    lines += ["", "median (q1..q3) per side:"] + details + warnings
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--change", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    lines, ok = compare(load_runs(args.parent), load_runs(args.change), bench)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
