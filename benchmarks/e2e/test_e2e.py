"""Smoke test of the end-to-end benchmark, at ``--scale smoke``.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

``benchmarks/conftest.py`` turns the campaign cache off for everything
under ``benchmarks/``; the sweep workload sets its own fresh cache
directory per repetition, and the traced smoke run below checks that
the cache really served hits.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from compare import compare  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_definitions_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for spec in BENCH["end_to_end"]:
        assert workloads.E2E_UNITS[spec["name"]] == spec["unit"]
    for spec in BENCH["per_layer"]:
        assert LAYER_UNITS[spec["name"]] == spec["unit"]
    assert BENCH["run_seconds"] == run.DEFAULT_SECONDS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(tmp_path, trace, section):
    out = tmp_path / "e2e-smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--trace", str(trace), "--json", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 4
    expected = {
        f"{w['name']}/{m['name']}": m["unit"]
        for w in BENCH["workloads"]
        for m in BENCH[section]
    }
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    printed = "\n".join(lines[:-1])
    for m in BENCH[section]:
        pattern = (
            rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}"
            r"(  \(raw \S+\))?$"
        )
        assert len(re.findall(pattern, printed, re.M)) == len(BENCH["workloads"])
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["meta"]["fingerprint"]
    if trace:
        sweep = document["workloads"]["sweep-paper"]["metrics"]
        assert sweep["campaign.cache_hit_frac"]["value"] > 0


def test_perturbed_golden_trips_failed_frac():
    name = "fleet-idle-1024"
    golden = workloads.load_golden()
    clean = workloads.run(name, scale="smoke", golden=golden)
    assert clean["golden"] == "match"
    assert clean["metrics"]["failed_frac"]["value"] == 0
    perturbed = copy.deepcopy(golden)
    perturbed["smoke"][name]["throughput"] *= 1 + 1e-6
    result = workloads.run(name, scale="smoke", golden=perturbed)
    assert result["golden"] == "mismatch"
    assert result["metrics"]["failed_frac"]["value"] == 1.0


def test_span_self_time_within_total():
    result = workloads.run("fleet-dense-256", scale="smoke", trace=True)
    assert result["failed"] == 0, result["failures"]
    for name, call in result["layers_raw"]["calls"].items():
        assert 0.0 <= call["self_s"] <= call["total_s"], name
    lines = (ROOT / result["layers_raw"]["spans_file"]).read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and any(s["name"] == "policy.place_vm" for s in spans)
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        assert -1e-9 <= duration - covered[i] <= duration, span


def test_compare_flags_regression_and_spread():
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
        ],
    }

    def doc(value, started_at):
        metrics = {"wall_s": {"value": value, "unit": "s"}}
        return {"started_at": started_at,
                "workloads": {"w": {"failed": 0, "metrics": metrics}}}

    parent = [doc(1.0 + 0.001 * i, 2 * i) for i in range(10)]
    same = [doc(1.0 + 0.001 * i, 2 * i + 1) for i in range(10)]
    slower = [doc(1.2 + 0.001 * i, 2 * i + 1) for i in range(10)]
    faster = [doc(0.8 + 0.001 * i, 2 * i + 1) for i in range(10)]
    noisy = [doc(1.0 + 0.1 * (i % 2) * i, 2 * i + 1) for i in range(10)]
    assert compare(parent, same, bench)[1]
    lines, ok = compare(parent, slower, bench)
    assert not ok and "regressed" in lines[2]
    lines, ok = compare(parent, faster, bench)
    assert ok and "gain" in lines[2]
    lines, ok = compare(parent, noisy, bench)
    assert not ok and "unresolved" in lines[2]
