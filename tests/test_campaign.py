"""Tests for the campaign runner: specs, cache, fan-out, retries."""

import functools
import os
import pickle

import pytest

from repro.campaign import (
    CampaignError,
    ResultCache,
    RunSpec,
    run_campaign,
    set_default_workers,
)
from repro.campaign.cache import callable_token, canonical, object_key
from repro.core.policies.factory import make_policy
from repro.errors import ConfigurationError
from repro.sim.engine import run_policy_on_trace
from repro.sim.results import SimResult

POLICIES = ("e-buff", "baat")

#: Module-level call counter so the flaky hook survives spec re-execution.
_FLAKY_CALLS = {"n": 0}


def _reset_flaky():
    _FLAKY_CALLS["n"] = 0


def flaky_setup(sim):
    """Fails on its first invocation, succeeds afterwards."""
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] == 1:
        raise RuntimeError("transient worker failure")


def broken_setup(sim):
    raise RuntimeError("this cell always breaks")


def kill_worker_setup(sim):
    """Hard-kills the worker process (OOM-killer / segfault stand-in)."""
    os._exit(42)


def _claim(marker):
    """Atomically claim a cross-process one-shot marker file."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def kill_worker_once_setup(sim, marker):
    """Kills the worker the first time only; the marker file remembers."""
    if _claim(marker):
        os._exit(42)


def kill_then_raise_setup(sim, kill_marker, raise_marker):
    """First call kills the worker, second raises, third succeeds."""
    if _claim(kill_marker):
        os._exit(42)
    if _claim(raise_marker):
        raise RuntimeError("transient failure after pool death")


@pytest.fixture
def specs(tiny_scenario, one_sunny_day):
    return [
        RunSpec(scenario=tiny_scenario, trace=one_sunny_day, policy=name)
        for name in POLICIES
    ]


class TestRunSpec:
    def test_requires_exactly_one_policy_source(self, tiny_scenario, one_sunny_day):
        with pytest.raises(ConfigurationError):
            RunSpec(scenario=tiny_scenario, trace=one_sunny_day)
        with pytest.raises(ConfigurationError):
            RunSpec(
                scenario=tiny_scenario,
                trace=one_sunny_day,
                policy="baat",
                policy_factory=functools.partial(make_policy, "baat"),
            )

    def test_labels(self, tiny_scenario, one_sunny_day):
        named = RunSpec(scenario=tiny_scenario, trace=one_sunny_day, policy="baat")
        assert named.effective_label == "baat"
        tagged = RunSpec(
            scenario=tiny_scenario, trace=one_sunny_day, policy="baat", label="cell-3"
        )
        assert tagged.effective_label == "cell-3"

    def test_cache_key_is_stable_and_content_sensitive(
        self, tiny_scenario, one_sunny_day
    ):
        from dataclasses import replace

        spec = RunSpec(scenario=tiny_scenario, trace=one_sunny_day, policy="baat")
        again = RunSpec(scenario=tiny_scenario, trace=one_sunny_day, policy="baat")
        assert spec.cache_key() == again.cache_key()

        other_policy = RunSpec(
            scenario=tiny_scenario, trace=one_sunny_day, policy="e-buff"
        )
        other_seed = RunSpec(
            scenario=replace(tiny_scenario, seed=tiny_scenario.seed + 1),
            trace=one_sunny_day,
            policy="baat",
        )
        with_series = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy="baat",
            record_series=True,
        )
        keys = {
            spec.cache_key(),
            other_policy.cache_key(),
            other_seed.cache_key(),
            with_series.cache_key(),
        }
        assert len(keys) == 4

    def test_lambda_factory_is_uncacheable(self, tiny_scenario, one_sunny_day):
        spec = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy_factory=lambda: make_policy("baat"),
        )
        assert not spec.cacheable
        assert spec.cache_key() is None

    def test_partial_factory_is_cacheable_and_picklable(
        self, tiny_scenario, one_sunny_day
    ):
        spec = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy_factory=functools.partial(make_policy, "baat"),
        )
        assert spec.cacheable
        assert pickle.loads(pickle.dumps(spec)).effective_label == spec.effective_label


class TestCanonical:
    def test_callable_token_rejects_closures(self):
        def maker():
            captured = "baat"
            return lambda: make_policy(captured)

        assert callable_token(maker()) is None
        assert callable_token(make_policy) is not None

    def test_object_key_is_hex_and_deterministic(self):
        key = object_key("x", 1, (2.0, "three"))
        assert key == object_key("x", 1, (2.0, "three"))
        assert int(key, 16) >= 0

    def test_canonical_distinguishes_float_and_int(self):
        assert canonical(1) != canonical(1.0)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = object_key("k")
        assert cache.get(key) is None
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert key in cache
        assert len(cache) == 1
        assert cache.size_bytes() > 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = object_key("corrupt")
        cache.put(key, [1, 2, 3])
        cache._file_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert len(cache) == 0  # the broken file was removed

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for i in range(3):
            cache.put(object_key("entry", i), i)
        assert cache.clear() == 3
        assert len(cache) == 0


class TestRunCampaign:
    def test_serial_matches_direct_execution(self, tiny_scenario, one_sunny_day, specs):
        report = run_campaign(specs, n_workers=1, cache=None)
        assert report.n_executed == len(specs)
        assert not report.failures
        results = report.results()
        for name in POLICIES:
            direct = run_policy_on_trace(
                tiny_scenario,
                make_policy(name, seed=tiny_scenario.seed),
                one_sunny_day,
            )
            assert results[name] == direct

    def test_parallel_matches_serial(self, specs):
        serial = run_campaign(specs, n_workers=1, cache=None).results()
        parallel = run_campaign(specs, n_workers=2, cache=None).results()
        assert parallel == serial

    def test_cache_hit_skips_resimulation(self, tmp_path, specs):
        cache = ResultCache(tmp_path / "campaign")
        first = run_campaign(specs, n_workers=1, cache=cache)
        assert first.n_executed == len(specs)
        assert first.n_cache_hits == 0

        second = run_campaign(specs, n_workers=1, cache=cache)
        assert second.n_executed == 0
        assert second.n_cache_hits == len(specs)
        assert all(o.from_cache and o.attempts == 0 for o in second.outcomes)
        assert second.results() == first.results()

    def test_flaky_cell_is_retried_to_success(self, tiny_scenario, one_sunny_day):
        _reset_flaky()
        spec = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy="e-buff",
            setup=flaky_setup,
        )
        report = run_campaign([spec], n_workers=1, cache=None)
        outcome = report.outcome("e-buff")
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.errors == ("RuntimeError: transient worker failure",)

    def test_persistent_failure_is_surfaced(self, tiny_scenario, one_sunny_day, specs):
        broken = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy="baat",
            setup=broken_setup,
            label="broken",
        )
        report = run_campaign([specs[0], broken], n_workers=1, cache=None)
        outcome = report.outcome("broken")
        assert not outcome.ok
        assert outcome.attempts == 2  # first try + one retry
        assert len(outcome.errors) == 2
        with pytest.raises(CampaignError, match="broken"):
            report.results()
        assert list(report.results(strict=False)) == [specs[0].effective_label]

    def test_persistent_failure_in_pool_is_surfaced(
        self, tiny_scenario, one_sunny_day, specs
    ):
        broken = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy="baat",
            setup=broken_setup,
            label="broken",
        )
        report = run_campaign([specs[0], broken], n_workers=2, cache=None)
        outcome = report.outcome("broken")
        assert not outcome.ok
        assert outcome.attempts == 2
        assert report.outcome(specs[0].effective_label).ok

    def test_unpicklable_spec_runs_inline_and_uncached(
        self, tmp_path, tiny_scenario, one_sunny_day
    ):
        cache = ResultCache(tmp_path / "campaign")
        spec = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy_factory=lambda: make_policy("baat"),
            label="closure",
        )
        report = run_campaign([spec], n_workers=2, cache=cache)
        assert report.outcome("closure").ok
        assert len(cache) == 0

    def test_zero_retries(self, tiny_scenario, one_sunny_day):
        spec = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy="baat",
            setup=broken_setup,
        )
        report = run_campaign([spec], n_workers=1, cache=None, retries=0)
        assert report.outcome("baat").attempts == 1

    def test_argument_validation(self, specs):
        with pytest.raises(ConfigurationError):
            run_campaign(specs, n_workers=0)
        with pytest.raises(ConfigurationError):
            run_campaign(specs, retries=-1)
        report = run_campaign(specs[:1], n_workers=1, cache=None)
        with pytest.raises(ConfigurationError):
            report.outcome("no-such-cell")

    def test_default_workers_hook(self, specs):
        set_default_workers(2)
        try:
            report = run_campaign(specs[:1], cache=None)
            assert report.n_workers == 2
        finally:
            set_default_workers(None)

    def test_summary_line(self, specs):
        report = run_campaign(specs[:1], n_workers=1, cache=None)
        assert "1 executed" in report.summary_line()
        assert "0 cached" in report.summary_line()


class TestBrokenPool:
    """Hard worker deaths must not abort the campaign or eat results."""

    def test_always_dying_worker_fails_its_cell_only(
        self, tiny_scenario, one_sunny_day
    ):
        killer = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy="baat",
            setup=kill_worker_setup,
            label="killer",
        )
        # Regression: a BrokenProcessPool used to propagate out of
        # run_campaign, discarding every other cell's work.
        report = run_campaign([killer], n_workers=2, cache=None, retries=1)
        outcome = report.outcome("killer")
        assert not outcome.ok
        assert outcome.attempts == 2  # first try + one pool-death strike
        assert len(outcome.errors) == 2
        assert any("terminated" in e or "BrokenProcessPool" in e for e in outcome.errors)
        with pytest.raises(CampaignError, match="killer"):
            report.results()

    def test_pool_is_rebuilt_and_survivors_finish(
        self, tmp_path, tiny_scenario, one_sunny_day, specs
    ):
        marker = tmp_path / "died-once"
        killer = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy="baat",
            setup=functools.partial(
                kill_worker_once_setup, marker=str(marker)
            ),
            label="killer",
        )
        report = run_campaign(
            [specs[0], killer], n_workers=2, cache=None, retries=1
        )
        assert marker.exists()
        assert report.outcome(specs[0].effective_label).ok
        survivor = report.outcome("killer")
        assert survivor.ok
        assert survivor.attempts >= 2  # pool-death strike, then success

    def test_pool_death_strikes_do_not_consume_genuine_retries(
        self, tmp_path, tiny_scenario, one_sunny_day
    ):
        """A cell that dies with the pool once and then raises once
        still succeeds with retries=1: pool-death strikes are budgeted
        separately from genuine failures, so the strike cannot eat the
        cell's one real retry."""
        cell = RunSpec(
            scenario=tiny_scenario,
            trace=one_sunny_day,
            policy="e-buff",
            setup=functools.partial(
                kill_then_raise_setup,
                kill_marker=str(tmp_path / "killed"),
                raise_marker=str(tmp_path / "raised"),
            ),
            label="cell",
        )
        report = run_campaign([cell], n_workers=2, cache=None, retries=1)
        outcome = report.outcome("cell")
        assert outcome.ok
        assert outcome.attempts == 3  # kill + raise + success
        assert len(outcome.errors) == 2


class TestUncacheableAccounting:
    def _lambda_specs(self, tiny_scenario, one_sunny_day, n=5):
        return [
            RunSpec(
                scenario=tiny_scenario,
                trace=one_sunny_day,
                policy_factory=lambda: make_policy("baat"),
                label=f"cell-{i}",
            )
            for i in range(n)
        ]

    def test_all_uncacheable_campaign_does_not_trip_miss_storm(
        self, tmp_path, tiny_scenario, one_sunny_day
    ):
        """Regression: closure-built cells (key=None) were counted as
        misses, so a sweep of lambda policies read as a 100% miss storm
        even though those cells can never hit."""
        from repro.obs import ALERTS, disable_observability, enable_observability

        cache = ResultCache(tmp_path / "c")
        specs = self._lambda_specs(tiny_scenario, one_sunny_day)
        enable_observability()
        try:
            report = run_campaign(specs, n_workers=1, cache=cache)
            assert ALERTS.fired("cache_miss_storm") == []
        finally:
            disable_observability()
        assert report.n_uncacheable == len(specs)
        assert "5 uncacheable" in report.cache_summary_line()
        assert "0 miss(es)" in report.cache_summary_line()

    def test_keyed_misses_still_trip_the_storm(
        self, tmp_path, tiny_scenario, one_sunny_day
    ):
        from repro.obs import ALERTS, disable_observability, enable_observability

        cache = ResultCache(tmp_path / "c")
        seeds = range(4)
        from dataclasses import replace

        specs = [
            RunSpec(
                scenario=replace(tiny_scenario, seed=100 + i),
                trace=one_sunny_day,
                policy="e-buff",
            )
            for i in seeds
        ]
        enable_observability()
        try:
            run_campaign(specs, n_workers=1, cache=cache)
            assert len(ALERTS.fired("cache_miss_storm")) == 1
        finally:
            disable_observability()

    def test_mixed_campaign_reports_uncacheable_bucket(
        self, tmp_path, tiny_scenario, one_sunny_day, specs
    ):
        cache = ResultCache(tmp_path / "c")
        mixed = [specs[0]] + self._lambda_specs(
            tiny_scenario, one_sunny_day, n=1
        )
        report = run_campaign(mixed, n_workers=1, cache=cache)
        assert report.n_uncacheable == 1
        line = report.cache_summary_line()
        assert "1 miss(es)" in line and "1 uncacheable" in line


class TestCacheHardening:
    def test_wrong_type_payload_evicts_as_miss(self, tmp_path):
        """Regression: a payload of the wrong type counted as a hit and
        stayed on disk, so the poisoned entry shadowed every rerun."""
        cache = ResultCache(tmp_path / "c")
        key = object_key("poisoned")
        cache.put(key, {"not": "a SimResult"})
        assert cache.get(key, expect=SimResult) is None
        assert cache.misses == 1 and cache.hits == 0
        assert key not in cache  # evicted, so a rerun can repopulate it

    def test_untyped_get_still_accepts_any_payload(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = object_key("any")
        cache.put(key, [1, 2])
        assert cache.get(key) == [1, 2]

    def test_put_fsyncs_data_file_and_directory(self, tmp_path, monkeypatch):
        """Regression: the rename was not fsynced, so a crash could
        leave an empty/truncated entry that later read as corrupt."""
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        cache = ResultCache(tmp_path / "c")
        cache.put(object_key("durable"), 7)
        # One fsync for the temp data file, one for the directory.
        assert len(synced) >= 2

    def test_clear_removes_orphaned_temp_files(self, tmp_path):
        """Regression: a writer killed between mkstemp and the rename
        leaves a temp file that ``repro cache clear`` never removed."""
        cache = ResultCache(tmp_path / "c")
        key = object_key("entry")
        cache.put(key, 1)
        orphan = cache.path / f".{key[:12]}-killed.tmp"
        orphan.write_bytes(b"half a pickle")
        assert len(cache) == 1  # the temp file is not an entry
        assert cache.clear() == 1
        assert not orphan.exists()
        assert len(cache) == 0 and cache.size_bytes() == 0


class TestAgingCampaignCaching:
    def test_runs_against_an_empty_default_cache(self, tmp_path):
        """Regression: an *empty* ResultCache is falsy (``__len__`` == 0),
        so ``if cache:`` skipped key computation while ``cache is not
        None`` still probed it — crashing on the malformed None key."""
        from repro.campaign import cache as cache_mod
        from repro.experiments import aging_campaign

        saved = (cache_mod._override_enabled, cache_mod._override_dir)
        cache_mod.configure_cache(directory=tmp_path / "empty")
        try:
            aging_campaign.run_campaign.cache_clear()
            first = aging_campaign.run_campaign(months=1)
            assert first.snapshots
            # Second process-equivalent lookup replays from disk.
            aging_campaign.run_campaign.cache_clear()
            assert aging_campaign.run_campaign(months=1) == first
        finally:
            aging_campaign.run_campaign.cache_clear()
            cache_mod._override_enabled, cache_mod._override_dir = saved
