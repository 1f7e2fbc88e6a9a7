"""Campaign execution: parallel, cached sweeps over (scenario, policy,
trace) run specs.

Every multi-run experiment in this reproduction — the figure sweeps, the
sensitivity matrix, the ablations, the CLI comparisons, the benchmark
harnesses — funnels through :func:`run_campaign`, which fans simulation
cells out over a process pool, retries failures once, and memoizes
completed results in :class:`ResultCache`, a content-addressed directory
of pickle files. Seeded RNG streams make each run a pure function of its
spec, so cached results are identical to fresh ones.

Quick start::

    from repro.campaign import RunSpec, run_campaign

    specs = [
        RunSpec(scenario=scenario, trace=trace, policy=name)
        for name in ("e-buff", "baat-s", "baat-h", "baat")
    ]
    report = run_campaign(specs, n_workers=4)
    results = report.results()          # {policy name: SimResult}
    print(report.summary_line())        # cached / executed / failed counts
"""

from repro.campaign.cache import (
    ResultCache,
    canonical,
    configure_cache,
    default_cache,
    default_cache_dir,
    object_key,
    reset_cache_config,
)
from repro.campaign.runner import (
    DEFAULT_CACHE,
    CampaignError,
    CampaignReport,
    RunOutcome,
    get_default_workers,
    run_campaign,
    set_default_workers,
)
from repro.campaign.spec import RunSpec

__all__ = [
    "CampaignError",
    "CampaignReport",
    "DEFAULT_CACHE",
    "ResultCache",
    "RunOutcome",
    "RunSpec",
    "canonical",
    "configure_cache",
    "default_cache",
    "default_cache_dir",
    "get_default_workers",
    "object_key",
    "reset_cache_config",
    "run_campaign",
    "set_default_workers",
]
