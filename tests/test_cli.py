"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, _resolve_experiment, build_parser, main
from repro.obs import parse_openmetrics


class TestResolution:
    def test_full_name(self):
        assert _resolve_experiment("fig14_lifetime_sunshine") == "fig14_lifetime_sunshine"

    def test_prefix(self):
        assert _resolve_experiment("fig14") == "fig14_lifetime_sunshine"

    def test_bare_number(self):
        assert _resolve_experiment("14") == "fig14_lifetime_sunshine"
        assert _resolve_experiment("3") == "fig03_voltage"

    def test_unknown(self):
        with pytest.raises(SystemExit):
            _resolve_experiment("fig99")

    def test_ambiguous(self):
        with pytest.raises(SystemExit):
            _resolve_experiment("fig1")  # fig10, fig12, ... all match


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.day == "cloudy"
        assert args.fade == 0.0
        assert args.days == 1

    def test_run_args(self):
        args = build_parser().parse_args(["run", "fig10", "--full"])
        assert args.experiment == "fig10"
        assert args.full

    def test_trace_accepts_file_or_diff(self):
        args = build_parser().parse_args(["trace", "run.jsonl"])
        assert args.args == ["run.jsonl"]
        args = build_parser().parse_args(["trace", "diff", "a.jsonl", "b.jsonl"])
        assert args.args == ["diff", "a.jsonl", "b.jsonl"]

    def test_health_defaults(self):
        args = build_parser().parse_args(["health"])
        assert args.source is None
        assert args.policy == "baat"
        args = build_parser().parse_args(["health", "run.jsonl"])
        assert args.source == "run.jsonl"

    def test_profile_flag_three_forms(self):
        assert build_parser().parse_args(["stats"]).profile is None
        assert build_parser().parse_args(["stats", "--profile"]).profile == ""
        args = build_parser().parse_args(["stats", "--profile", "out.pstats"])
        assert args.profile == "out.pstats"


class TestCommands:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "[fig10]" in out
        assert "hoppecke" in out

    def test_compare_executes(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--day",
                    "sunny",
                    "--days",
                    "1",
                    "--dt",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for name in ("e-buff", "baat-s", "baat-h", "baat"):
            assert name in out


@pytest.fixture(scope="module")
def trace_pair(tmp_path_factory):
    """Two traced single-day runs (sunny vs rainy) for replay commands."""
    directory = tmp_path_factory.mktemp("cli-traces")
    path_a = str(directory / "sunny.jsonl")
    path_b = str(directory / "rainy.jsonl")
    assert main(["stats", "--day", "sunny", "--dt", "300", "--trace", path_a]) == 0
    assert main(["stats", "--day", "rainy", "--dt", "300", "--trace", path_b]) == 0
    return path_a, path_b


class TestObservabilityCommands:
    def test_trace_single_file_summary(self, trace_pair, capsys):
        path_a, _ = trace_pair
        assert main(["trace", path_a, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "event(s), t in [" in out
        assert "battery_frame" in out

    def test_trace_diff(self, trace_pair, capsys):
        path_a, path_b = trace_pair
        assert main(["trace", "diff", path_a, path_b]) == 0
        out = capsys.readouterr().out
        assert "event counts" in out
        assert "per-battery aging" in out
        assert "alert events: A" in out

    def test_trace_diff_usage_error(self):
        with pytest.raises(SystemExit):
            main(["trace", "diff", "only-one.jsonl"])

    def test_health_replay(self, trace_pair, capsys):
        path_a, _ = trace_pair
        assert main(["health", path_a]) == 0
        out = capsys.readouterr().out
        assert "fleet health" in out
        assert "node0" in out
        assert "alerts" in out

    def test_health_missing_trace_exits(self):
        with pytest.raises(SystemExit):
            main(["health", "no-such-trace.jsonl"])

    def test_health_live_run(self, capsys):
        assert main(["health", "--day", "sunny", "--dt", "300"]) == 0
        out = capsys.readouterr().out
        assert "baat on 1 x sunny day(s)" in out
        assert "fleet health" in out
        assert "EOL (d)" in out

    def test_export_openmetrics_stdout(self, capsys):
        assert main(["export", "--day", "sunny", "--dt", "300"]) == 0
        out = capsys.readouterr().out
        assert "# EOF" in out
        assert "repro_" in out
        assert "phase_" in out  # step-phase timers made it into the export

    def test_export_openmetrics_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "export", "--out", str(out_path),
                    "--day", "sunny", "--dt", "300",
                ]
            )
            == 0
        )
        assert "wrote openmetrics export" in capsys.readouterr().out
        parsed = parse_openmetrics(out_path.read_text(encoding="utf-8"))
        assert parsed["counter"] and parsed["histogram"]

    def test_profile_prints_hot_functions(self, capsys):
        assert main(["stats", "--day", "sunny", "--dt", "300", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (top 15 by cumulative time):" in out
        # leaf view: the array kernels surface by internal time too
        assert "profile (top 15 by tottime):" in out

    def test_profile_dump_to_file(self, tmp_path, capsys):
        import pstats

        target = tmp_path / "run.pstats"
        assert main(
            ["stats", "--day", "sunny", "--dt", "300",
             "--profile", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert f"profile written to {target}" in out
        assert "by cumulative time" not in out  # dump replaces the print
        stats = pstats.Stats(str(target))  # loadable by pstats tooling
        assert stats.total_calls > 0

    def test_profile_file_with_trace_prints_both_lines(
        self, tmp_path, capsys
    ):
        target = tmp_path / "run.pstats"
        trace = tmp_path / "run.jsonl"
        assert main(
            ["compare", "--day", "sunny", "--dt", "300", "--days", "1",
             "--trace", str(trace), "--profile", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry event(s)" in out
        assert f"profile written to {target}" in out
        assert target.exists()


class TestProvenanceCommands:
    def test_trace_validate_clean_trace(self, trace_pair, capsys):
        path_a, _ = trace_pair
        assert main(["trace", "validate", path_a]) == 0
        out = capsys.readouterr().out
        assert "-> OK" in out

    def test_trace_validate_flags_corruption(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "no_such_kind", "t": 0.0}\n')
        assert main(["trace", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "unknown event kind" in out

    def test_trace_validate_usage_error(self):
        with pytest.raises(SystemExit):
            main(["trace", "validate"])

    def test_explain_prints_chains_and_aggregates(self, trace_pair, capsys):
        _, path_b = trace_pair  # rainy day: the monitor acts
        assert main(["explain", path_b]) == 0
        out = capsys.readouterr().out
        assert "action triggers" in out
        assert "time in span" in out

    def test_explain_filters_by_action_kind(self, trace_pair, capsys):
        _, path_b = trace_pair
        assert main(["explain", path_b, "--action", "slowdown_action"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_explain_single_event(self, trace_pair, capsys):
        from repro.obs.provenance import ProvenanceIndex

        _, path_b = trace_pair
        index = ProvenanceIndex.from_trace(path_b)
        assert index.actions, "rainy trace must contain actions"
        eid = index.actions[0]
        assert main(["explain", path_b, "--event", str(eid)]) == 0
        out = capsys.readouterr().out
        assert f"(#{eid})" in out

    def test_explain_unknown_event_exits(self, trace_pair):
        path_a, _ = trace_pair
        with pytest.raises(SystemExit):
            main(["explain", path_a, "--event", "999999999"])

    def test_explain_missing_trace_exits(self):
        with pytest.raises(SystemExit):
            main(["explain", "no-such-trace.jsonl"])
