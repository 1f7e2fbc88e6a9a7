"""Perf observatory: history store, e2e document ingest, regression math,
and the ``repro perf`` CLI family (record / history / diff / check)."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.perf import (
    COLD_START_MESSAGE,
    MIN_BASELINE,
    STORE_SCHEMA,
    PerfHistory,
    PerfRecord,
    baseline_stats,
    change_point,
    check_history,
    collect_meta,
    default_history_path,
    e2e_record,
    host_fingerprint,
    metric_direction,
    sparkline,
)
from repro.perf.ingest import E2E_METRICS

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("fleet-idle-1024", "fleet-dense-256", "sweep-paper", "traced-64")

#: One workload's end-to-end metrics in a healthy run.
_E2E_VALUES = {
    "setup_s": 0.05,
    "wall_s": 2.0,
    "node_steps_per_s": 1.0e5,
    "cells_per_s": 4.0,
    "peak_rss_mb": 50.0,
}


def _meta(sha="a" * 40, host="benchhost"):
    meta = {
        "git_sha": sha,
        "branch": "main",
        "timestamp": "2026-01-01T00:00:00Z",
        "host": host,
        "platform": "Linux-x86_64",
        "python": "3.11.9",
        "numpy": "2.4.0",
    }
    meta["fingerprint"] = host_fingerprint(meta)
    return meta


def _e2e_doc(overrides=None, scale="full", trace=0, meta=None):
    """A minimal ``benchmarks/e2e/run.py --json`` document: every workload
    holds the end-to-end metrics (plus ``failed_frac``, which is not one);
    ``overrides`` maps ``<workload>/<metric>`` to a value."""
    overrides = overrides or {}
    workloads = {}
    for name in WORKLOADS:
        metrics = {
            m: {"value": overrides.get(f"{name}/{m}", v), "unit": "-"}
            for m, v in _E2E_VALUES.items()
        }
        metrics["failed_frac"] = {"value": 0.0, "unit": "ratio"}
        workloads[name] = {
            "workload": name, "scale": scale, "trace": trace, "metrics": metrics,
            "attempted": 4, "failed": 0, "golden": "match",
        }
    return {
        "benchmark": "e2e",
        "started_at": 0.0,
        "meta": meta or _meta(),
        "args": {"scale": scale, "trace": trace},
        "workloads": workloads,
    }


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _seed(history, values, metric="sweep-paper/wall_s", host="benchhost"):
    """Append one single-metric record per value, distinct shas."""
    for i, value in enumerate(values):
        history.append(
            PerfRecord(
                meta=_meta(sha=f"{i:03d}" + "e" * 37, host=host),
                metrics={metric: value},
            )
        )


class TestMeta:
    def test_collect_meta_is_self_describing(self):
        meta = collect_meta()
        for key in (
            "git_sha", "branch", "timestamp", "host", "platform",
            "python", "numpy", "fingerprint",
        ):
            assert key in meta, key
        # In this repo the sha must resolve; the fingerprint embeds
        # feature versions only (py3.11, not py3.11.9).
        assert len(meta["git_sha"]) == 40
        assert "|py" in meta["fingerprint"]
        assert meta["fingerprint"].count(".") <= 2

    def test_host_env_override_pins_the_fingerprint(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_HOST", "gha-Linux")
        meta = collect_meta()
        assert meta["host"] == "gha-Linux"
        assert meta["fingerprint"].startswith("gha-Linux|")

    def test_history_env_overrides_default_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_HISTORY", "/elsewhere/h.jsonl")
        assert default_history_path() == "/elsewhere/h.jsonl"

    def test_fingerprint_prefers_stamped_value(self):
        assert host_fingerprint({"fingerprint": "frozen"}) == "frozen"


class TestIngest:
    def test_flattens_an_e2e_document(self):
        record = e2e_record(_e2e_doc({"sweep-paper/cells_per_s": 3.5}))
        assert len(record.metrics) == len(WORKLOADS) * len(E2E_METRICS)
        assert record.metrics["sweep-paper/cells_per_s"] == 3.5
        assert record.metrics["fleet-idle-1024/peak_rss_mb"] == 50.0
        # failed_frac is a correctness figure, not an end-to-end metric
        assert not any(name.endswith("failed_frac") for name in record.metrics)
        assert record.sha == "a" * 40
        assert record.fingerprint == host_fingerprint(_meta())

    def test_refuses_smoke_traced_and_bench_payloads(self):
        one_smoke = _e2e_doc()
        one_smoke["workloads"]["traced-64"]["scale"] = "smoke"
        no_rss = _e2e_doc()
        del no_rss["workloads"]["sweep-paper"]["metrics"]["peak_rss_mb"]
        refused = [
            _e2e_doc(scale="smoke"),
            _e2e_doc(trace=1),
            one_smoke,
            no_rss,
            {**_e2e_doc(), "meta": {}},
            {"engine_bench": {"sizes": []}, "meta": _meta()},
            {"obs_overhead": {"disabled_s": 0.2}, "meta": _meta()},
            {"benches": {"benchmarks/bench_x.py::test_a": {
                "wall_s": 1.5, "outcome": "passed"}}, "meta": _meta()},
        ]
        for data in refused:
            with pytest.raises(ConfigurationError, match="benchmarks/e2e/run.py"):
                e2e_record(data)

    def test_refuses_a_golden_mismatch(self):
        data = _e2e_doc()
        data["workloads"]["fleet-dense-256"]["golden"] = "mismatch"
        with pytest.raises(ConfigurationError, match="'fleet-dense-256'.*golden 'mismatch'"):
            e2e_record(data)

    def test_refuses_a_run_with_a_failed_cell(self):
        data = _e2e_doc()
        data["workloads"]["sweep-paper"]["failed"] = 1
        with pytest.raises(ConfigurationError, match="'sweep-paper'.*1 failed cell"):
            e2e_record(data)

    def test_refuses_a_run_without_correctness_fields(self):
        for key in ("failed", "golden"):
            data = _e2e_doc()
            del data["workloads"]["traced-64"][key]
            with pytest.raises(ConfigurationError, match="'traced-64'"):
                e2e_record(data)

    def test_campaign_rollup_is_not_a_payload(self):
        """The retired campaign rollup shape is rejected, not recorded."""
        data = {
            "campaign": {"wall_s": 12.0, "n_cells": 4},
            "cells": {"done": 4},
            "throughput": {"cells_per_s": 0.33},
        }
        with pytest.raises(ConfigurationError):
            e2e_record(data)

    def test_empty_payload_raises(self):
        with pytest.raises(ConfigurationError):
            e2e_record({**_e2e_doc(), "workloads": {}})

    def test_metric_table_matches_the_benchmark(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert {m["name"]: m["better"] for m in bench["end_to_end"]} == E2E_METRICS
        assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS


class TestStore:
    def test_round_trip(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        record = history.append(e2e_record(_e2e_doc()))
        assert record.schema == STORE_SCHEMA
        (read,) = history.records()
        assert read.metrics == record.metrics
        assert read.sha == "a" * 40
        assert read.fingerprint == record.fingerprint

    def test_newer_schema_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = PerfHistory(str(path))
        _seed(history, [1.0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": STORE_SCHEMA + 1}) + "\n")
            fh.write("{not json\n")
            fh.write("[1, 2]\n")
        assert len(history.records()) == 1
        assert history.n_skipped == 3

    def test_payload_meta_wins_over_fresh_collection(self, tmp_path):
        """A record's provenance is the document's own meta block, never
        one collected when the document is recorded."""
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        record = history.append(
            e2e_record(_e2e_doc(meta=_meta(sha="f" * 40, host="elsewhere")))
        )
        assert record.sha == "f" * 40
        assert record.meta["host"] == "elsewhere"

    def test_series_and_names_scope_by_fingerprint(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 2.0], host="hostA")
        _seed(history, [9.0], host="hostB")
        fp = host_fingerprint(_meta(host="hostA"))
        pairs = history.series("sweep-paper/wall_s", fingerprint=fp)
        assert [v for _, v in pairs] == [1.0, 2.0]
        assert history.metric_names() == ["sweep-paper/wall_s"]
        assert history.latest(fingerprint=fp).metrics["sweep-paper/wall_s"] == 2.0

    def test_missing_file_reads_empty(self, tmp_path):
        assert PerfHistory(str(tmp_path / "absent.jsonl")).records() == []


class TestRegressionMath:
    def test_direction_inference(self):
        """Only the end-to-end metrics have a direction."""
        assert metric_direction("sweep-paper/peak_rss_mb") == "lower"
        assert metric_direction("sweep-paper/cells_per_s") == "higher"
        assert metric_direction("fleet-idle-1024/node_steps_per_s") == "higher"
        assert metric_direction("traced-64/setup_s") == "lower"
        assert metric_direction("traced-64/wall_s") == "lower"
        assert metric_direction("sweep-paper/failed_frac") is None
        # series that older histories recorded from other benches
        assert metric_direction("engine/n48/fleet_s") is None
        assert metric_direction("engine/n48/fleet_steps_per_s") is None
        assert metric_direction("bench/bench_x:test_a/wall_s") is None
        assert metric_direction("wall_s") is None

    def test_sigma_floor_protects_flat_series(self):
        stats = baseline_stats([1.0, 1.0, 1.0, 1.0])
        assert stats.sigma == pytest.approx(0.05)  # REL_FLOOR * |median|

    def test_two_x_slowdown_regresses(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 1.01, 0.99, 1.0, 2.0])
        result = check_history(history)
        (check,) = result.regressions
        assert check.metric == "sweep-paper/wall_s"
        assert check.deviation > 4.0
        assert not result.ok

    def test_noise_within_baseline_passes(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 1.05, 0.95, 1.02, 1.06])
        result = check_history(history)
        assert result.ok and result.checks

    def test_throughput_drop_regresses_higher_better(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1000.0, 990.0, 1010.0, 480.0],
              metric="fleet-idle-1024/node_steps_per_s")
        result = check_history(history)
        assert [c.metric for c in result.regressions] == [
            "fleet-idle-1024/node_steps_per_s"
        ]

    def test_rss_growth_regresses_lower_better(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [50.0, 50.4, 49.8, 70.0], metric="sweep-paper/peak_rss_mb")
        result = check_history(history)
        (check,) = result.regressions
        assert check.metric == "sweep-paper/peak_rss_mb"
        assert check.direction == "lower"

    def test_retired_series_never_gate(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 1.01, 0.99, 1.0, 2.0], metric="engine/n48/fleet_s")
        result = check_history(history)
        assert result.ok and [c.metric for c in result.checks] == ["engine/n48/fleet_s"]

    def test_improvement_never_regresses(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 1.01, 0.99, 1.0, 0.5])
        assert check_history(history).ok

    def test_cold_paths_yield_no_baseline_not_errors(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        result = check_history(history)  # empty file
        assert result.ok and result.cold and result.candidate is None
        _seed(history, [1.0, 1.0])  # 1 prior < MIN_BASELINE
        result = check_history(history)
        assert result.ok and result.cold
        assert result.no_baseline == ["sweep-paper/wall_s"]
        assert MIN_BASELINE == 3

    def test_new_fingerprint_is_cold(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 1.0, 1.0, 1.0], host="hostA")
        _seed(history, [99.0], host="hostB")  # newest record, other host
        result = check_history(history)
        assert result.ok and result.cold
        assert result.fingerprint == host_fingerprint(_meta(host="hostB"))

    def test_explicit_candidate_does_not_need_appending(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 1.0, 1.0, 1.0])
        candidate = PerfRecord(
            meta=_meta(sha="c" * 40), metrics={"sweep-paper/wall_s": 2.2},
        )
        result = check_history(history, candidate=candidate)
        assert not result.ok
        assert len(history.records()) == 4  # nothing appended

    def test_change_point_locates_the_shift(self):
        values = [1.0, 1.01, 0.99, 1.0, 2.0, 2.02, 1.98, 2.0]
        change = change_point(values)
        assert change is not None
        assert 3 <= change.index <= 5  # floored sigmas tie adjacent splits
        assert change.before == pytest.approx(1.0, abs=0.02)
        assert change.after == pytest.approx(2.0, abs=0.02)
        assert change_point([1.0, 1.01, 0.99, 1.0, 1.02, 0.98]) is None

    def test_sparkline_shape(self):
        line = sparkline([1.0, 2.0, 3.0])
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([5.0, 5.0]) == "▁▁"
        assert sparkline([]) == ""


@pytest.fixture()
def history_path(tmp_path):
    return str(tmp_path / "perf-history.jsonl")


class TestPerfCLI:
    def test_record_and_cold_check_round_trip(self, history_path, tmp_path, capsys):
        doc = _write(tmp_path, "e2e-run.json", _e2e_doc())
        assert main(["perf", "record", doc, "--history", history_path]) == 0
        out = capsys.readouterr().out
        assert f"recorded {len(WORKLOADS) * len(E2E_METRICS)} metric(s)" in out
        assert main(["perf", "check", "--history", history_path]) == 0
        assert COLD_START_MESSAGE in capsys.readouterr().out

    def test_check_on_empty_history_passes(self, history_path, capsys):
        assert main(["perf", "check", "--history", history_path]) == 0
        assert COLD_START_MESSAGE in capsys.readouterr().out

    def test_injected_slowdown_fails_naming_the_metric(
        self, history_path, capsys
    ):
        history = PerfHistory(history_path)
        _seed(history, [1.0, 1.01, 0.99, 1.0])
        _seed(history, [2.08])
        assert main(["perf", "check", "--history", history_path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION sweep-paper/wall_s" in out
        assert "sigma" in out
        # an unmodified re-run of the same history still fails the same
        # way (the check is pure)
        assert main(["perf", "check", "--history", history_path]) == 1
        capsys.readouterr()

    def test_injected_cells_per_s_drop_fails_naming_the_metric(
        self, history_path, tmp_path, capsys
    ):
        for i, rate in enumerate((4.0, 4.1, 3.9, 4.05)):
            meta = _meta(sha=f"{i:03d}" + "d" * 37)
            doc = _write(tmp_path, f"e2e-{i}.json",
                         _e2e_doc({"sweep-paper/cells_per_s": rate}, meta=meta))
            assert main(["perf", "record", doc, "--history", history_path]) == 0
        dropped = _write(tmp_path, "e2e-drop.json",
                         _e2e_doc({"sweep-paper/cells_per_s": 2.0}))
        capsys.readouterr()
        assert main(["perf", "check", dropped, "--history", history_path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION sweep-paper/cells_per_s" in out
        assert out.count("REGRESSION") == 1
        assert "better=higher" in out

    def test_check_trace_validates_and_exports(self, history_path, tmp_path, capsys):
        from repro.obs.export import parse_openmetrics

        history = PerfHistory(history_path)
        _seed(history, [1.0, 1.0, 1.0, 1.0, 2.5])
        trace = str(tmp_path / "perf-check.jsonl")
        prom = str(tmp_path / "perf.prom")
        assert main(
            ["perf", "check", "--history", history_path,
             "--trace", trace, "--export", prom]
        ) == 1
        out = capsys.readouterr().out
        assert "telemetry event(s)" in out
        assert main(["trace", "validate", trace]) == 0
        assert "-> OK" in capsys.readouterr().out
        parsed = parse_openmetrics(
            Path(prom).read_text(encoding="utf-8")
        )
        assert parsed["counter"]["repro_perf_regressions_total"] == 1.0
        assert "repro_perf_metrics_checked" in parsed["gauge"]

    def test_check_judges_payload_files_without_recording(
        self, history_path, tmp_path, capsys
    ):
        history = PerfHistory(history_path)
        for _ in range(4):
            history.append(e2e_record(_e2e_doc()))
        doc = _write(tmp_path, "e2e-run.json", _e2e_doc())
        assert main(["perf", "check", doc, "--history", history_path]) == 0
        out = capsys.readouterr().out
        assert "no regressions outside baseline" in out
        assert len(history.records()) == 4

    def test_check_ignores_retired_service_bench_records(
        self, history_path, tmp_path, capsys
    ):
        """Histories written before the end-to-end benchmark became the
        only input hold ``service_bench`` and ``engine_bench`` records
        with a ``source`` key: they load, and a check judges only the
        candidate's own metrics."""
        retired = [
            {"schema": 1, "source": "engine_bench", "meta": _meta(sha="4" * 40),
             "metrics": {"engine/n48/fleet_s": 1.0, "engine/n48/speedup": 3.5}},
            {"schema": 1, "source": "service_bench", "meta": _meta(sha="5" * 40),
             "metrics": {"service/cells_per_s": 3.0, "service/submit_p99_s": 0.4}},
        ]
        with open(history_path, "w", encoding="utf-8") as fh:
            for line in retired * 4:
                fh.write(json.dumps(line) + "\n")
        history = PerfHistory(history_path)
        for _ in range(3):
            history.append(e2e_record(_e2e_doc()))
        history.append(e2e_record(_e2e_doc({"sweep-paper/cells_per_s": 4.1})))
        records = history.records()
        assert len(records) == 12 and history.n_skipped == 0
        assert records[0].metrics["engine/n48/fleet_s"] == 1.0
        assert main(["perf", "check", "--history", history_path]) == 0
        out = capsys.readouterr().out
        n = len(WORKLOADS) * len(E2E_METRICS)
        assert f"{n} metric(s) checked against baseline" in out
        assert "service/" not in out and "engine/" not in out
        assert main(["perf", "history", "--history", history_path]) == 0
        assert "engine/n48/fleet_s" in capsys.readouterr().out

    def test_history_lists_and_plots(self, history_path, capsys):
        history = PerfHistory(history_path)
        _seed(history, [1.0, 1.2, 1.4, 1.6])
        assert main(["perf", "history", "--history", history_path]) == 0
        assert "sweep-paper/wall_s" in capsys.readouterr().out
        assert main(
            ["perf", "history", "sweep-paper/wall_s",
             "--history", history_path]
        ) == 0
        out = capsys.readouterr().out
        assert "▁" in out and "█" in out  # sparkline ramp
        assert "better=lower" in out
        assert "000eee" in out  # sha column

    def test_history_suggests_close_matches(self, history_path, capsys):
        _seed(PerfHistory(history_path), [1.0])
        assert main(
            ["perf", "history", "wall", "--history", history_path]
        ) == 1
        assert "close matches" in capsys.readouterr().out

    def test_diff_marks_the_worse_side(self, history_path, capsys):
        history = PerfHistory(history_path)
        _seed(history, [1.0, 2.0])
        assert main(
            ["perf", "diff", "000e", "001e", "--history", history_path]
        ) == 0
        out = capsys.readouterr().out
        assert "+100.0%" in out
        assert "B worse" in out

    def test_record_rejects_unknown_payloads(self, history_path, tmp_path):
        refused = {
            "bad.json": {"mystery": 1},
            "bench-engine.json": {"engine_bench": {"sizes": []}, "meta": _meta()},
            "bench-obs.json": {"obs_overhead": {"disabled_s": 0.2}, "meta": _meta()},
            "suite.json": {"benches": {}, "meta": _meta()},
            "e2e-smoke.json": _e2e_doc(scale="smoke"),
            "e2e-traced.json": _e2e_doc(trace=1),
        }
        for name, data in refused.items():
            path = _write(tmp_path, name, data)
            with pytest.raises(SystemExit) as exc:
                main(["perf", "record", path, "--history", history_path])
            assert "benchmarks/e2e/run.py" in str(exc.value.code), name
            with pytest.raises(SystemExit):
                main(["perf", "check", path, "--history", history_path])
        assert not os.path.exists(history_path)


    def test_record_refuses_a_wrong_run(self, history_path, tmp_path):
        mismatch = _e2e_doc()
        mismatch["workloads"]["fleet-dense-256"]["golden"] = "mismatch"
        failed = _e2e_doc()
        failed["workloads"]["sweep-paper"]["failed"] = 2
        for name, data in {"e2e-mismatch.json": mismatch, "e2e-failed.json": failed}.items():
            path = _write(tmp_path, name, data)
            with pytest.raises(SystemExit) as exc:
                main(["perf", "record", path, "--history", history_path])
            assert "is not recorded" in str(exc.value.code), name
        assert not os.path.exists(history_path)


class TestObsWiring:
    def test_perf_regression_event_round_trips(self):
        from repro.obs import PerfRegressionEvent
        from repro.obs.events import EVENT_TYPES, event_from_dict

        assert EVENT_TYPES["perf_regression"] is PerfRegressionEvent
        event = PerfRegressionEvent(
            t=0.0, metric="sweep-paper/wall_s", value=2.0, baseline=1.0,
            sigma=0.05, deviation=20.0, direction="lower", sha="abc",
        )
        back = event_from_dict(event.to_dict())
        assert back.metric == "sweep-paper/wall_s"
        assert back.deviation == 20.0

    def test_default_rules_include_perf_regression(self):
        from repro.obs.alerts import default_rules
        from repro.perf.regression import DEVIATION_THRESHOLD

        (rule,) = [r for r in default_rules() if r.name == "perf_regression"]
        assert rule.threshold == DEVIATION_THRESHOLD
        assert rule.direction == "above"
