"""End-to-end benchmark: the repository's one performance yardstick.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--scale full|smoke]
                                  [--json OUT]

Each workload (all of ``BENCHMARK.json``'s, or just ``--workload``) runs
in its own fresh interpreter (``workloads.py``), one after another, so
peak memory and the observability singletons stay per workload. The
output prints every metric with its unit, whether the outputs matched
the committed goldens and invariants, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the ``end_to_end`` metrics of ``BENCHMARK.json`` (or, with
``--trace``, its ``per_layer`` ones; every measured per-layer metric is
printed above that line and written by ``--json``). With several
workloads, metric names are prefixed ``<workload>/``.

``--json OUT`` writes the full result (per-repetition values, digests,
failures, the host/commit ``meta`` block); name it ``e2e-*.json`` so
``compare.py`` and ``.gitignore`` treat it as a result file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "e2e"

#: Measurement time per workload run (matches ``run_seconds``).
DEFAULT_SECONDS = 25

#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170.0


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Run one workload in a fresh interpreter; returns its result."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"result-{name}-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", name,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--out", str(out),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(WORK)
    env.pop("REPRO_CAMPAIGN_WORKERS", None)
    try:
        # run() kills and reaps the child if it overruns.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        out.unlink(missing_ok=True)


def format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_result(result: dict) -> None:
    print(
        f"== {result['workload']}: seed {result['seed']}, {result['scale']} scale, "
        f"{'traced' if result['trace'] else 'e2e'}, "
        f"{result['repetitions']} repetition(s) =="
    )
    raw = result.get("raw_metrics", {})
    for name, metric in result["metrics"].items():
        line = f"  {name:<36} {format_value(metric['value']):>14} {metric['unit']}"
        if name in raw and raw[name]["value"] != metric["value"]:
            line += f"  (raw {format_value(raw[name]['value'])})"
        print(line)
    if "host_speed" in result:
        speed = result["host_speed"]
        factors = speed["factors"]
        print(
            f"  host speed: probe {speed['probe_s'] * 1e3:.3f} ms vs "
            f"{speed['reference_s'] * 1e3:.3f} ms reference; times above are "
            f"reference seconds, each repetition's raw time divided by its "
            f"estimated slowdown ({min(factors):.3f} to {max(factors):.3f})"
        )
    print(
        f"  correctness: {result['failed']} of {result['attempted']} cell(s) failed; "
        f"golden {result['golden']}"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if result["golden"] == "not checked":
        print(f"  digest {json.dumps(result['digest'], sort_keys=True)}")


def summary_line(results: dict, bench: dict, trace: int) -> dict:
    """The last output line, holding exactly the metrics BENCHMARK.json
    names; a name the run did not produce, or produced in another unit,
    is a benchmark error."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for name, result in results.items():
        prefix = f"{name}/" if len(results) > 1 else ""
        for spec in wanted:
            got = result["metrics"].get(spec["name"])
            if got is None or got["unit"] != spec["unit"]:
                raise RuntimeError(
                    f"{name}: metric {spec['name']} [{spec['unit']}] "
                    f"not produced (got {got})"
                )
            metrics[prefix + spec["name"]] = got
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # workload process before re-raising.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed (default: the workload's own; goldens are checked only there)",
    )
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measurement time per workload; repetitions run until the next "
        "would overrun it (at least one)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="run the per-layer traced pass instead of the end-to-end one",
    )
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: 48-node fleets, short sweeps, one repetition",
    )
    parser.add_argument("--json", default=None, metavar="OUT", help="write the full result")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]

    started_at = time.time()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
            print_result(results[name])
        line = summary_line(results, bench, args.trace)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        document = {
            "benchmark": "e2e",
            "started_at": started_at,
            "meta": next(iter(results.values()))["meta"],
            "args": vars(args),
            "workloads": results,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
