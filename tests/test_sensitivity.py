"""Robustness tests: the headline conclusion survives recalibration.

Every row and headline of the quick run is also pinned to the
``sensitivity`` entry of ``tests/data/figure_golden.json`` at a relative
tolerance of 1e-9.
"""

import pytest

from repro.campaign import cache as cache_module
from repro.campaign import runner as runner_module
from repro.experiments import sensitivity
from tests.test_experiment_shapes import assert_matches_golden


@pytest.fixture(scope="module")
def run():
    """The quick run, uncached, and the labels of every batch its
    campaign steps."""
    seen = []
    batched = runner_module.batched
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cache_module, "_override_enabled", False)
        mp.setattr(
            runner_module,
            "batched",
            lambda specs: (seen.append([s.label for s in specs]), batched(specs))[1],
        )
        result = sensitivity.run(quick=True, n_workers=1)
    return result, seen


@pytest.fixture(scope="module")
def result(run):
    return run[0]


def test_matches_golden(result):
    assert_matches_golden("sensitivity", result)


def test_cells_step_as_one_batch(run):
    [batch] = run[1]
    assert len(batch) == 2 * len(sensitivity.VARIANTS)


def test_all_variants_run(result):
    assert [row[0] for row in result.rows] == list(sensitivity.VARIANTS)


def test_baat_wins_under_every_perturbation(result):
    for row in result.rows:
        assert row[3] > 10.0, f"BAAT advantage collapsed under {row[0]}"


def test_harsher_sulphation_amplifies_the_advantage(result):
    by_variant = {row[0]: row[3] for row in result.rows}
    assert by_variant["sulphation x2"] > by_variant["sulphation x0.5"]


def test_flat_soc_weights_shrink_but_keep_the_advantage(result):
    by_variant = {row[0]: row[3] for row in result.rows}
    assert by_variant["soc-weights flat"] < by_variant["sulphation x2"]
    assert by_variant["soc-weights flat"] > 10.0


def test_perturbed_calibration_reaches_the_batteries(result):
    """Each variant's battery calibration reaches the fleet kernels: a
    perturbed variant's worst-node fade differs from the baseline's."""
    by_variant = {row[0]: row for row in result.rows}
    for variant in list(sensitivity.VARIANTS)[1:]:
        assert by_variant[variant][1] != by_variant["baseline"][1], variant
        assert by_variant[variant][2] != by_variant["baseline"][2], variant
