"""Tests for the metric exporters (`repro.obs.export`)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricRegistry
from repro.obs.export import (
    parse_openmetrics,
    sanitize_metric_name,
    to_openmetrics,
    write_export,
)


@pytest.fixture
def registry() -> MetricRegistry:
    reg = MetricRegistry()
    reg.enabled = True
    reg.counter("engine/steps").inc(42.0)
    reg.gauge("planned/dod_goal/node0").set(0.55)
    hist = reg.histogram("phase/control")
    for v in (0.001, 0.002, 0.009):
        hist.observe(v)
    return reg


class TestNameSanitization:
    def test_dotted_and_slashed_names_map_to_charset(self):
        assert sanitize_metric_name("engine/steps") == "engine_steps"
        assert sanitize_metric_name("a.b-c d") == "a_b_c_d"

    def test_leading_digit_gets_underscore(self):
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_valid_names_pass_through(self):
        assert sanitize_metric_name("already_valid:name") == "already_valid:name"


class TestOpenMetrics:
    def test_round_trip_preserves_exact_values(self, registry):
        parsed = parse_openmetrics(to_openmetrics(registry))
        assert parsed["counter"]["repro_engine_steps"] == 42.0
        assert parsed["gauge"]["repro_planned_dod_goal_node0"] == 0.55
        hist = parsed["histogram"]["repro_phase_control"]
        buckets = hist.pop("buckets")
        assert hist == {"count": 3.0, "sum": 0.012, "min": 0.001, "max": 0.009}
        # 0.001, 0.002, 0.009: one bucket each, then +Inf equals _count.
        assert list(buckets.values()) == [1.0, 2.0, 3.0, 3.0]
        assert list(buckets)[-1] == math.inf

    def test_histogram_buckets_round_trip(self, registry):
        hist = registry.histogram("phase/control")
        for v in (0.0, 1e-9, 0.0042, 0.0042, 0.5, 3.0e8):
            hist.observe(v)
        parsed = parse_openmetrics(to_openmetrics(registry))
        snap = registry.snapshot()["histograms"]["phase/control"]
        expected, cumulative = {}, 0
        for le, n in snap["buckets"].items():
            cumulative += n
            expected[float(le)] = cumulative
        assert parsed["histogram"]["repro_phase_control"]["buckets"] == expected
        assert expected[math.inf] == snap["count"] == 9

    def test_bucket_readout_within_bound_of_exact_quantiles(self, registry):
        # The read-outs of the three samples 0.001, 0.002, 0.009 are
        # bucket upper bounds, within 2**(1/16) - 1 of the exact
        # nearest-rank values 0.002, 0.009, 0.009.
        snap = registry.snapshot()["histograms"]["phase/control"]
        for key, exact in (("p50", 0.002), ("p95", 0.009), ("p99", 0.009)):
            assert exact <= snap[key] <= exact * 2.0 ** (1 / 16), key
        assert snap["p50"] == pytest.approx(0.0020396, rel=1e-4)
        assert snap["p95"] == snap["p99"] == 0.009

    def test_terminates_with_eof(self, registry):
        text = to_openmetrics(registry)
        assert text.endswith("# EOF\n")

    def test_counter_total_suffix(self, registry):
        text = to_openmetrics(registry)
        assert "# TYPE repro_engine_steps counter" in text
        assert "repro_engine_steps_total 42.0" in text

    def test_custom_prefix(self, registry):
        parsed = parse_openmetrics(to_openmetrics(registry, prefix="baat"))
        assert "baat_engine_steps" in parsed["counter"]

    def test_empty_registry_is_valid(self):
        assert parse_openmetrics(to_openmetrics(MetricRegistry())) == {
            "counter": {},
            "gauge": {},
            "histogram": {},
        }

    def test_untyped_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_openmetrics("mystery_metric 1.0\n# EOF\n")


class TestWriteExport:
    def test_writes_file_and_returns_text(self, registry, tmp_path):
        path = tmp_path / "metrics.prom"
        text = write_export(registry, str(path))
        assert path.read_text(encoding="utf-8") == text
        assert "# EOF" in text
        text = write_export(registry, str(path), prefix="baat")
        assert "baat_engine_steps" in parse_openmetrics(text)["counter"]
