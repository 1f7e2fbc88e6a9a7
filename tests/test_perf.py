"""Perf observatory: history store, payload ingest, regression math,
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
    detect_source,
    extract_metrics,
    host_fingerprint,
    metric_direction,
    sparkline,
)

#: A trimmed ``bench_engine.py --quick --json`` payload. Its name must not
#: match the ``BENCH_*.json`` ignore pattern, which applies at any depth.
BENCH_ENGINE = Path(__file__).resolve().parent / "data" / "engine_bench_quick.json"


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


def _seed(history, values, metric="engine/n48/fleet_s", host="benchhost"):
    """Append one single-metric record per value, distinct shas."""
    for i, value in enumerate(values):
        history.append(
            PerfRecord(
                source="engine_bench",
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
    def test_detects_the_three_sources(self):
        assert detect_source({"engine_bench": {}}) == "engine_bench"
        assert detect_source({"benches": {}}) == "bench_suite"
        assert detect_source({"obs_overhead": {}}) == "obs_overhead"
        with pytest.raises(ConfigurationError):
            detect_source({"something": 1})

    def test_flattens_the_committed_engine_bench(self):
        data = json.loads(BENCH_ENGINE.read_text(encoding="utf-8"))
        source, metrics = extract_metrics(data)
        assert source == "engine_bench"
        assert metrics["engine/n48/speedup"] > 0
        assert "engine/n48/fleet_steps_per_s" in metrics
        assert "engine/curve/n1024/control_us_per_step" in metrics
        assert "engine/phase/fleet/control_total_s" in metrics
        # gate booleans must not become series
        assert not any("ok" in name for name in metrics)

    def test_bench_suite_skips_failures_and_folds_obs(self):
        data = {
            "benches": {
                "benchmarks/bench_x.py::test_a": {
                    "wall_s": 1.5, "outcome": "passed"},
                "benchmarks/bench_x.py::test_b": {
                    "wall_s": 9.9, "outcome": "failed"},
            },
            "obs_overhead": {"disabled_s": 0.2, "null_overhead_pct": 1.0},
        }
        source, metrics = extract_metrics(data)
        assert source == "bench_suite"
        assert metrics["bench/bench_x:test_a/wall_s"] == 1.5
        assert not any("test_b" in name for name in metrics)
        assert metrics["obs/disabled_s"] == 0.2

    def test_obs_fleet_block_records_the_frame_trace_only(self):
        """Payloads from before per-node sample events were retired also
        carry events_* and size_win_x keys; those are not series."""
        data = {
            "obs_overhead": {
                "fleet": {
                    "untraced_s": 2.0,
                    "frame_traced_s": 2.6,
                    "traced_ratio": 1.3,
                    "frame_trace_bytes": 2.9e6,
                    "frame_bytes_per_node_step": 9.8,
                    "events_traced_s": 12.2,
                    "events_ratio": 6.1,
                    "event_trace_bytes": 3.6e7,
                    "size_win_x": 12.4,
                },
            }
        }
        _, metrics = extract_metrics(data)
        assert metrics == {
            "obs/fleet/untraced_s": 2.0,
            "obs/fleet/frame_traced_s": 2.6,
            "obs/fleet/traced_ratio": 1.3,
            "obs/fleet/frame_trace_bytes": 2.9e6,
        }

    def test_campaign_rollup_is_not_a_payload(self):
        """The retired campaign rollup shape is rejected, not recorded."""
        data = {
            "campaign": {"wall_s": 12.0, "n_cells": 4},
            "cells": {"done": 4},
            "throughput": {"cells_per_s": 0.33},
        }
        with pytest.raises(ConfigurationError):
            extract_metrics(data)

    def test_empty_payload_raises(self):
        with pytest.raises(ConfigurationError):
            extract_metrics({"engine_bench": {}})


class TestStore:
    def test_round_trip(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        record = history.record_payload(
            {"obs_overhead": {"disabled_s": 0.25}, "meta": _meta()}
        )
        assert record.schema == STORE_SCHEMA
        (read,) = history.records()
        assert read.metrics == {"obs/disabled_s": 0.25}
        assert read.sha == "a" * 40
        assert read.fingerprint == record.fingerprint

    def test_newer_schema_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = PerfHistory(str(path))
        _seed(history, [1.0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": STORE_SCHEMA + 1}) + "\n")
            fh.write("{not json\n")
        assert len(history.records()) == 1
        assert history.n_skipped == 2

    def test_payload_meta_wins_over_fresh_collection(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        record = history.record_payload(
            {"obs_overhead": {"disabled_s": 0.1},
             "meta": _meta(sha="f" * 40, host="elsewhere")}
        )
        assert record.sha == "f" * 40
        assert record.meta["host"] == "elsewhere"

    def test_series_and_names_scope_by_fingerprint(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 2.0], host="hostA")
        _seed(history, [9.0], host="hostB")
        fp = host_fingerprint(_meta(host="hostA"))
        pairs = history.series("engine/n48/fleet_s", fingerprint=fp)
        assert [v for _, v in pairs] == [1.0, 2.0]
        assert history.metric_names() == ["engine/n48/fleet_s"]
        assert history.latest(fingerprint=fp).metrics["engine/n48/fleet_s"] == 2.0

    def test_missing_file_reads_empty(self, tmp_path):
        assert PerfHistory(str(tmp_path / "absent.jsonl")).records() == []


class TestRegressionMath:
    def test_direction_inference(self):
        assert metric_direction("engine/n48/fleet_s") == "lower"
        assert metric_direction("engine/n48/fleet_steps_per_s") == "higher"
        assert metric_direction("obs/null_overhead_pct") == "lower"
        assert metric_direction("obs/fleet/frame_trace_bytes") == "lower"
        assert metric_direction("campaign/hit_rate") == "higher"
        assert metric_direction("campaign/cell_wall_s/p95") == "lower"
        assert metric_direction("campaign/n_cells") is None
        assert metric_direction("campaign/health/score_max") == "lower"

    def test_sigma_floor_protects_flat_series(self):
        stats = baseline_stats([1.0, 1.0, 1.0, 1.0])
        assert stats.sigma == pytest.approx(0.05)  # REL_FLOOR * |median|

    def test_two_x_slowdown_regresses(self, tmp_path):
        history = PerfHistory(str(tmp_path / "h.jsonl"))
        _seed(history, [1.0, 1.01, 0.99, 1.0, 2.0])
        result = check_history(history)
        (check,) = result.regressions
        assert check.metric == "engine/n48/fleet_s"
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
              metric="engine/n48/fleet_steps_per_s")
        result = check_history(history)
        assert [c.metric for c in result.regressions] == [
            "engine/n48/fleet_steps_per_s"
        ]

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
        assert result.no_baseline == ["engine/n48/fleet_s"]
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
            source="engine_bench", meta=_meta(sha="c" * 40),
            metrics={"engine/n48/fleet_s": 2.2},
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
    def test_record_and_cold_check_round_trip(self, history_path, capsys):
        assert main(
            ["perf", "record", str(BENCH_ENGINE), "--history", history_path]
        ) == 0
        out = capsys.readouterr().out
        assert "recorded engine_bench" in out
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
        assert "REGRESSION engine/n48/fleet_s" in out
        assert "sigma" in out
        # an unmodified re-run of the same history still fails the same
        # way (the check is pure), while trimming the bad record passes
        assert main(["perf", "check", "--history", history_path]) == 1
        capsys.readouterr()

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
        self, history_path, capsys
    ):
        history = PerfHistory(history_path)
        data = json.loads(BENCH_ENGINE.read_text(encoding="utf-8"))
        for _ in range(4):
            history.record_payload(dict(data))
        assert main(
            ["perf", "check", str(BENCH_ENGINE), "--history", history_path]
        ) == 0
        out = capsys.readouterr().out
        assert "no regressions outside baseline" in out
        assert len(history.records()) == 4

    def test_check_ignores_retired_service_bench_records(
        self, history_path, capsys
    ):
        """Histories written before the service bench was retired still
        hold ``service_bench`` records: they load, and a check judges
        only the candidate's own metrics."""
        history = PerfHistory(history_path)
        _seed(history, [1.0, 1.01, 0.99, 1.0])
        history.append(
            PerfRecord(
                source="service_bench",
                meta=_meta(sha="5" * 40),
                metrics={"service/cells_per_s": 3.0, "service/submit_p99_s": 0.4},
            )
        )
        history.append(
            PerfRecord(
                source="engine_bench",
                meta=_meta(sha="c" * 40),
                metrics={"engine/n48/fleet_s": 1.02},
            )
        )
        assert [r.source for r in history.records()].count("service_bench") == 1
        assert main(["perf", "check", "--history", history_path]) == 0
        out = capsys.readouterr().out
        assert "1 metric(s) checked against baseline" in out
        assert "service/" not in out

    def test_history_lists_and_plots(self, history_path, capsys):
        history = PerfHistory(history_path)
        _seed(history, [1.0, 1.2, 1.4, 1.6])
        assert main(["perf", "history", "--history", history_path]) == 0
        assert "engine/n48/fleet_s" in capsys.readouterr().out
        assert main(
            ["perf", "history", "engine/n48/fleet_s",
             "--history", history_path]
        ) == 0
        out = capsys.readouterr().out
        assert "▁" in out and "█" in out  # sparkline ramp
        assert "better=lower" in out
        assert "000eee" in out  # sha column

    def test_history_suggests_close_matches(self, history_path, capsys):
        _seed(PerfHistory(history_path), [1.0])
        assert main(
            ["perf", "history", "fleet_s", "--history", history_path]
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
        bad = tmp_path / "bad.json"
        bad.write_text('{"mystery": 1}', encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["perf", "record", str(bad), "--history", history_path])


class TestObsWiring:
    def test_perf_regression_event_round_trips(self):
        from repro.obs import PerfRegressionEvent
        from repro.obs.events import EVENT_TYPES, event_from_dict

        assert EVENT_TYPES["perf_regression"] is PerfRegressionEvent
        event = PerfRegressionEvent(
            t=0.0, metric="engine/n48/fleet_s", value=2.0, baseline=1.0,
            sigma=0.05, deviation=20.0, direction="lower", sha="abc",
        )
        back = event_from_dict(event.to_dict())
        assert back.metric == "engine/n48/fleet_s"
        assert back.deviation == 20.0

    def test_default_rules_include_perf_regression(self):
        from repro.obs.alerts import default_rules
        from repro.perf.regression import DEVIATION_THRESHOLD

        (rule,) = [r for r in default_rules() if r.name == "perf_regression"]
        assert rule.threshold == DEVIATION_THRESHOLD
        assert rule.direction == "above"
