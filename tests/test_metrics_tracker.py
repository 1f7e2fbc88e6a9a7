"""Unit tests for the online metrics tracker."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.tracker import MetricsTracker
from repro.units import hours


@pytest.fixture
def tracker(params):
    return MetricsTracker(params, name="b0")


class TestLifetime:
    def test_empty_tracker_is_neutral(self, tracker):
        m = tracker.lifetime()
        assert m.nat == 0.0
        assert m.cf == 1.0
        assert m.ddt == 0.0

    def test_accumulates(self, tracker):
        tracker.observe(0.9, 7.0, hours(2))
        assert tracker.lifetime().discharged_ah == pytest.approx(14.0)


class TestMarks:
    def test_since_mark_isolates_window(self, tracker):
        tracker.observe(0.9, 7.0, hours(1))
        tracker.mark("day")
        tracker.observe(0.3, 7.0, hours(1))
        window = tracker.since("day")
        assert window.discharged_ah == pytest.approx(7.0)
        assert window.pc == pytest.approx(1.0)  # all output in region D

    def test_unknown_mark_raises(self, tracker):
        with pytest.raises(ConfigurationError):
            tracker.since("nope")

    def test_remarking_moves_the_window(self, tracker):
        tracker.mark("w")
        tracker.observe(0.9, 7.0, hours(1))
        tracker.mark("w")
        tracker.observe(0.9, 3.5, hours(1))
        assert tracker.since("w").discharged_ah == pytest.approx(3.5)
