"""Robustness tests: the headline conclusion survives recalibration."""

import pytest

from repro.experiments import sensitivity


@pytest.fixture(scope="module")
def result():
    return sensitivity.run(quick=True)


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
    """The setup hook's aging model is what the reference stepper steps:
    a perturbed variant's worst-node fade differs from the baseline's."""
    by_variant = {row[0]: row for row in result.rows}
    for variant in sensitivity.VARIANTS[1:]:
        assert by_variant[variant][1] != by_variant["baseline"][1], variant
        assert by_variant[variant][2] != by_variant["baseline"][2], variant
