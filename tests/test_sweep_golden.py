"""The paper sweep pinned to its golden numbers.

fig14 then fig17, quick seasons at one sunshine fraction, on a fresh
result cache: the same run as the end-to-end benchmark's `sweep-paper`
workload, whose golden headline numbers `tests/data/sweep_golden.json`
repeats. fig14's four policies step as one batch, fig17's two ratio
cells as another, and fig17 reads fig14's e-Buff and BAAT cells back
from the cache.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.campaign import ResultCache
from repro.campaign import cache as cache_module
from repro.experiments import fig14_lifetime_sunshine, fig17_expansion

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "sweep_golden.json").read_text()
)

#: Relative tolerance of a golden float (the benchmark's).
REL_TOL = 1e-9


def test_sweep_matches_golden(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "_override_enabled", True)
    monkeypatch.setattr(cache_module, "_override_dir", tmp_path)
    hits = []
    get = ResultCache.get

    def counting_get(cache, key, expect=None):
        payload = get(cache, key, expect=expect)
        hits.append(payload is not None)
        return payload

    monkeypatch.setattr(ResultCache, "get", counting_get)
    headline = {}
    served = {}
    for name, figure in (("fig14", fig14_lifetime_sunshine), ("fig17", fig17_expansion)):
        hits.clear()
        result = figure.run(
            quick=True,
            seed=GOLDEN["seed"],
            fractions=(GOLDEN["sunshine_fraction"],),
            n_workers=1,
        )
        headline.update({f"{name}/{k}": v for k, v in result.headline.items()})
        served[name] = sum(hits)
    assert sorted(headline) == sorted(GOLDEN["headline"])
    for key, want in GOLDEN["headline"].items():
        assert math.isclose(headline[key], want, rel_tol=REL_TOL, abs_tol=0.0), (
            key, headline[key], want,
        )
    assert served == {"fig14": 0, "fig17": 2}
