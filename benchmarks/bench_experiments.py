"""Bench: regenerate every paper figure and table, and the design studies.

One case per experiment: the ``repro run`` figures and tables
(:data:`repro.cli.EXPERIMENTS`), the calibration-sensitivity study and
the two design ablations (DESIGN.md section 4). Each runs once in quick
mode under pytest-benchmark (wall-clock measured) and prints its
regenerated table, so ``pytest benchmarks/ --benchmark-only -s``
reproduces every artifact inline; ``-k fig14`` picks one.
"""

import importlib

import pytest

from repro.cli import EXPERIMENTS

#: The robustness and ablation studies beside the paper's artifacts.
STUDIES = ("sensitivity", "ablation_baat", "ablation_architecture")


@pytest.mark.parametrize("name", EXPERIMENTS + STUDIES)
def test_experiment(benchmark, name):
    experiment = importlib.import_module(f"repro.experiments.{name}")
    result = benchmark.pedantic(
        experiment.run, kwargs={"quick": True}, rounds=1, iterations=1
    )
    print()
    print(result.to_text())
    assert result.rows, "experiment produced no rows"
    assert result.headline, "experiment produced no headline comparisons"
