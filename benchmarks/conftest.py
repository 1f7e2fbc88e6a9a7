"""Benchmark-suite configuration.

Each bench regenerates one paper figure/table (see DESIGN.md section 4)
and prints the resulting text table. Run with::

    pytest benchmarks/ --benchmark-only -s

Experiments route their simulations through the campaign runner, so the
suite accepts ``--campaign-workers N`` to fan each bench's sweep out
over N worker processes. The on-disk result cache is disabled for the
whole suite — benches must measure simulation, not pickle loads.
"""

import pytest

from repro.campaign import configure_cache, reset_cache_config, set_default_workers


def pytest_addoption(parser):
    parser.addoption(
        "--campaign-workers",
        type=int,
        default=1,
        help="worker processes for campaign-routed benches (default 1)",
    )


@pytest.fixture(autouse=True, scope="session")
def _bench_execution_defaults(request):
    configure_cache(enabled=False)
    set_default_workers(request.config.getoption("--campaign-workers"))
    yield
    reset_cache_config()
    set_default_workers(1)
