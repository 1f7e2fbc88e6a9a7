"""Smoke + shape tests for the ablation experiments.

Every row and headline of the architecture ablation's quick run is also
pinned to the ``ablation_architecture`` entry of
``tests/data/figure_golden.json`` at a relative tolerance of 1e-9.
"""

import pytest

from repro.campaign import cache as cache_module
from repro.campaign import runner as runner_module
from repro.experiments import ablation_architecture, ablation_baat
from tests.test_experiment_shapes import assert_matches_golden


class TestBaatAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation_baat.run(quick=True)

    def test_all_variants_present(self, result):
        labels = [row[0] for row in result.rows]
        assert "baat (full)" in labels
        assert "e-buff (no BAAT at all)" in labels
        assert len(labels) == 6

    def test_full_baat_beats_ebuff_on_aging(self, result):
        assert result.headline["full BAAT aging cut vs e-Buff %"] > 10.0

    def test_every_variant_still_beats_ebuff(self, result):
        """No single knockout collapses to the unmanaged baseline."""
        by_label = {row[0]: row for row in result.rows}
        ebuff_fade = by_label["e-buff (no BAAT at all)"][2]
        for label, row in by_label.items():
            if label == "e-buff (no BAAT at all)":
                continue
            assert row[2] < ebuff_fade


class TestArchitectureAblation:
    @pytest.fixture(scope="class")
    def run(self):
        """The quick run, uncached and inline, and the labels of every
        batch its campaign steps."""
        seen = []
        batched = runner_module.batched
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cache_module, "_override_enabled", False)
            mp.setattr(
                runner_module,
                "batched",
                lambda specs: (seen.append([s.label for s in specs]), batched(specs))[1],
            )
            result = ablation_architecture.run(quick=True, n_workers=1)
        return result, seen

    @pytest.fixture(scope="class")
    def result(self, run):
        return run[0]

    def test_matches_golden(self, result):
        assert_matches_golden("ablation_architecture", result)

    def test_each_architecture_steps_as_one_batch(self, run):
        assert sorted(run[1]) == [
            ["per-server|e-buff", "per-server|baat"],
            ["rack-pool|e-buff", "rack-pool|baat"],
        ]

    def test_matrix_complete(self, result):
        cells = {(row[0], row[1]) for row in result.rows}
        assert cells == {
            ("per-server", "e-buff"),
            ("per-server", "baat"),
            ("rack-pool", "e-buff"),
            ("rack-pool", "baat"),
        }

    def test_pooling_cuts_aging_spread(self, result):
        assert result.headline["e-Buff aging-spread cut by pooling %"] > 20.0

    def test_baat_helps_on_both_architectures(self, result):
        by_cell = {(row[0], row[1]): row for row in result.rows}
        for arch in ("per-server", "rack-pool"):
            assert by_cell[(arch, "baat")][3] < by_cell[(arch, "e-buff")][3]
