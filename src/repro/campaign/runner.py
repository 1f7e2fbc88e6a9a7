"""The campaign runner: execute many run specs fast and safely.

Execution pipeline for a list of :class:`~repro.campaign.spec.RunSpec`:

1. **Cache probe** — cacheable specs are looked up in the on-disk
   :class:`~repro.campaign.cache.ResultCache`; hits skip simulation
   entirely (seeded RNG makes a cached result identical to a fresh run).
2. **Fan-out** — remaining specs run on a
   :class:`concurrent.futures.ProcessPoolExecutor` (``n_workers`` > 1) or
   inline in this process (``n_workers=1``, the deterministic serial
   fallback). Specs that cannot be pickled into a worker (closure-built
   policies) transparently run inline. A campaign that starts with the
   trace bus enabled runs every cell inline, so its events reach the
   trace directly and in order. Inline, with tracing and alerting off,
   every group of two or more cells with one :attr:`~repro.campaign.
   spec.RunSpec.batch_key` steps as one batched fleet; each cell's result
   equals its run alone. Pooled cells run one by one.
3. **Retry** — a failed cell is retried once (configurable); every
   attempt's error is recorded on the outcome so flaky infrastructure is
   visible even when the retry succeeds.
4. **Memoize** — fresh successful results of cacheable specs are written
   back to the cache.

The worker count defaults to ``REPRO_CAMPAIGN_WORKERS`` (else serial) and
can be set process-wide with :func:`set_default_workers` — the CLI's
``--workers`` flag and the benchmark harness use that hook, which is how
every figure sweep inherits parallelism without threading a parameter
through each ``run()`` signature.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.cache import ResultCache, default_cache
from repro.campaign.spec import RunSpec, batched
from repro.errors import ConfigurationError, SimulationError
from repro.obs import ALERTS, BUS, REGISTRY
from repro.obs.events import (
    CampaignFinishEvent,
    CampaignStartEvent,
    CellCacheHitEvent,
    CellFinishEvent,
    CellRetryEvent,
    CellStartEvent,
)
from repro.obs.spans import SPANS, in_span
from repro.sim.results import SimResult

_ENV_WORKERS = "REPRO_CAMPAIGN_WORKERS"

#: Sentinel: "use the process default cache" (distinct from None = off).
DEFAULT_CACHE = object()

_default_workers: Optional[int] = None


class CampaignError(SimulationError):
    """A campaign cell failed after exhausting its retries."""


# ----------------------------------------------------------------------
# Worker-count defaults
# ----------------------------------------------------------------------
def get_default_workers() -> int:
    """Process-default worker count (env ``REPRO_CAMPAIGN_WORKERS`` or 1)."""
    if _default_workers is not None:
        return _default_workers
    env = os.environ.get(_ENV_WORKERS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigurationError(
                f"{_ENV_WORKERS} must be an integer, got {env!r}"
            ) from None
    return 1


def set_default_workers(n: Optional[int]) -> None:
    """Set (or with ``None`` reset) the process-default worker count."""
    global _default_workers
    if n is not None and n < 1:
        raise ConfigurationError("worker count must be >= 1")
    _default_workers = n


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunOutcome:
    """What happened to one campaign cell."""

    spec: RunSpec
    result: Optional[SimResult]
    from_cache: bool = False
    attempts: int = 0
    errors: Tuple[str, ...] = ()
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def label(self) -> str:
        return self.spec.effective_label


@dataclass(frozen=True)
class CampaignReport:
    """All outcomes of one :func:`run_campaign` invocation."""

    outcomes: Tuple[RunOutcome, ...]
    n_workers: int
    wall_s: float
    cache_dir: Optional[str] = None
    #: cells that cannot have a cache key (closure-built policies);
    #: they are neither hits nor misses in the probe accounting.
    n_uncacheable: int = 0

    @property
    def n_cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.from_cache)

    @property
    def n_executed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and not o.from_cache)

    @property
    def failures(self) -> Tuple[RunOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    def outcome(self, label: str) -> RunOutcome:
        """The outcome for one labelled cell."""
        for o in self.outcomes:
            if o.label == label:
                return o
        raise ConfigurationError(f"no campaign cell labelled {label!r}")

    def results(self, strict: bool = True) -> Dict[str, SimResult]:
        """Results keyed by cell label (insertion order preserved).

        With ``strict`` (the default), any failed cell raises
        :class:`CampaignError` carrying the recorded errors; otherwise
        failed cells are silently omitted.
        """
        if strict and self.failures:
            details = "; ".join(
                f"{o.label}: {o.errors[-1] if o.errors else 'unknown error'}"
                for o in self.failures
            )
            raise CampaignError(
                f"{len(self.failures)} campaign cell(s) failed after retries: "
                f"{details}"
            )
        return {o.label: o.result for o in self.outcomes if o.ok}

    def summary_line(self) -> str:
        """One-line accounting string for logs and CLI output."""
        return (
            f"{len(self.outcomes)} run(s): {self.n_cache_hits} cached, "
            f"{self.n_executed} executed, {len(self.failures)} failed "
            f"[{self.n_workers} worker(s), {self.wall_s:.2f}s]"
        )

    def cache_summary_line(self) -> str:
        """Hit/miss accounting for the cache probe phase.

        Uncacheable cells (no key, so they can never hit) are reported
        in their own bucket rather than inflating the miss count.
        """
        misses = len(self.outcomes) - self.n_cache_hits - self.n_uncacheable
        where = f" ({self.cache_dir})" if self.cache_dir else " (cache disabled)"
        extra = (
            f", {self.n_uncacheable} uncacheable" if self.n_uncacheable else ""
        )
        return f"cache: {self.n_cache_hits} hit(s), {misses} miss(es){extra}{where}"

    def per_cell_lines(self) -> List[str]:
        """Per-cell accounting: wall time, attempts, and result source."""
        lines = []
        width = max((len(o.label) for o in self.outcomes), default=0)
        for o in self.outcomes:
            label = o.label.ljust(width)
            if o.from_cache:
                lines.append(f"{label}  cached")
            elif o.ok:
                retries = (
                    f", {o.attempts} attempt(s)" if o.attempts > 1 else ""
                )
                lines.append(f"{label}  {o.duration_s:7.2f}s{retries}")
            else:
                lines.append(
                    f"{label}  FAILED after {o.attempts} attempt(s) "
                    f"[{o.duration_s:.2f}s]"
                )
        return lines


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def sanitize_forked_worker() -> None:
    """Drop observability state inherited across a ``fork``.

    POSIX process pools fork workers from the parent mid-campaign, so a
    worker starts with the parent's attached sinks — including a JSONL
    sink whose file descriptor is *shared* with the parent and whose
    buffered, not-yet-flushed lines were copied into the child. Left
    alone, the worker would interleave its events directly into the
    parent's trace file and re-flush the copied buffer (duplicating
    lines). Point the inherited descriptor at ``/dev/null`` (fork copies
    the fd table, so the parent's own descriptor is untouched), detach
    every sink, and reset the singletons; the worker then runs
    observability-silent. Used as the pool's worker ``initializer``.
    """
    for sink in BUS.sinks:
        fh = getattr(sink, "_fh", None)
        if fh is None:
            continue
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, fh.fileno())
            finally:
                os.close(devnull)
        except (OSError, ValueError):
            pass
    BUS.clear_sinks()
    REGISTRY.reset()
    REGISTRY.enabled = False
    ALERTS.reset()
    ALERTS.enabled = False
    SPANS.reset()


def _execute_spec(spec: RunSpec) -> SimResult:
    """Worker entry point: run one cell to completion."""
    return spec.execute()


def _finish_cell(
    spec: RunSpec,
    result: Optional[SimResult],
    attempts: int,
    duration: float,
    t0: float,
) -> None:
    """Completion bookkeeping, at the moment the cell actually finishes.

    Emitting ``cell_finish`` here (not in the assembly phase) puts it
    in the trace at the cell's real completion time, not after the
    slowest cell.
    """
    if BUS.enabled:
        BUS.emit(
            CellFinishEvent(
                t=time.perf_counter() - t0,
                label=spec.effective_label,
                ok=result is not None,
                attempts=attempts,
                wall_s=duration,
            )
        )
    if REGISTRY.enabled:
        REGISTRY.histogram("campaign/cell_wall_s").observe(duration)
        if result is None:
            REGISTRY.counter("campaign/failures").inc()
        else:
            REGISTRY.counter("campaign/executed").inc()


def _error_string(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_inline(
    spec: RunSpec, retries: int, t0: float = 0.0
) -> Tuple[Optional[SimResult], int, Tuple[str, ...]]:
    """Run one spec in-process with retries; returns (result, attempts, errors)."""
    errors: List[str] = []
    for attempt in range(1 + retries):
        try:
            return _execute_spec(spec), attempt + 1, tuple(errors)
        except Exception as exc:  # noqa: BLE001 - recorded and surfaced
            errors.append(_error_string(exc))
            if attempt < retries and BUS.enabled:
                BUS.emit(
                    CellRetryEvent(
                        t=time.perf_counter() - t0,
                        label=spec.effective_label,
                        attempt=attempt + 1,
                        error=errors[-1],
                    )
                )
    return None, 1 + retries, tuple(errors)


def _batches(jobs: Sequence[Tuple]) -> List[List[Tuple]]:
    """The inline jobs (tuples whose second item is the spec) that step
    as batches: per batch key with two or more jobs, those jobs in
    order, keys in first-seen order."""
    groups: Dict[Tuple, List[Tuple]] = {}
    for job in jobs:
        key = job[1].batch_key
        if key is not None:
            groups.setdefault(key, []).append(job)
    return [group for group in groups.values() if len(group) > 1]


def _is_picklable(spec: RunSpec) -> bool:
    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


def run_campaign(
    specs: Sequence[RunSpec],
    n_workers: Optional[int] = None,
    cache: Union[ResultCache, None, object] = DEFAULT_CACHE,
    retries: int = 1,
) -> CampaignReport:
    """Execute a list of run specs with caching and parallel fan-out.

    Parameters
    ----------
    specs:
        The campaign cells; report order follows spec order. Their
        labels (:attr:`~repro.campaign.spec.RunSpec.effective_label`)
        key the report, so they must be unique.
    n_workers:
        Process pool size. ``None`` uses the process default
        (:func:`get_default_workers`); ``1`` runs serially inline, and
        so does a campaign that starts with the trace bus enabled.
    cache:
        A :class:`ResultCache`, ``None`` to disable memoization, or the
        default sentinel to use the process default cache.
    retries:
        How many times to re-run a failed cell (default 1).
    """
    specs = list(specs)
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    workers = n_workers if n_workers is not None else get_default_workers()
    if workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    seen = set()
    for spec in specs:
        label = spec.effective_label
        if label in seen:
            raise ConfigurationError(
                f"two campaign cells are labelled {label!r}; the report "
                "keys results by label, so labels must be unique"
            )
        seen.add(label)
    resolved_cache: Optional[ResultCache]
    if cache is DEFAULT_CACHE:
        resolved_cache = default_cache()
    else:
        resolved_cache = cache  # type: ignore[assignment]

    # A traced campaign runs every cell in this process, so the trace
    # gets each cell's events straight from the bus. Batches run only
    # with tracing and alerting off (both key on node names).
    traced = BUS.enabled
    if traced:
        workers = 1
    batching = not (traced or ALERTS.enabled)
    t0 = time.perf_counter()
    if traced:
        BUS.emit(
            CampaignStartEvent(t=0.0, n_cells=len(specs), n_workers=workers)
        )
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    pending: List[Tuple[int, RunSpec, Optional[str]]] = []
    n_hits = 0
    n_uncacheable = 0

    # Phase 1: cache probe.
    for i, spec in enumerate(specs):
        key = spec.cache_key() if resolved_cache is not None else None
        if resolved_cache is not None and key is None:
            n_uncacheable += 1
        if key is not None:
            # expect= makes a wrong-type payload behave like a corrupt
            # entry (evicted, counted as a miss) instead of a "hit"
            # whose cell silently re-runs every campaign.
            hit = resolved_cache.get(key, expect=SimResult)
            if hit is not None:
                n_hits += 1
                outcomes[i] = RunOutcome(
                    spec=spec, result=hit, from_cache=True, attempts=0
                )
                if BUS.enabled:
                    BUS.emit(
                        CellCacheHitEvent(
                            t=time.perf_counter() - t0,
                            label=spec.effective_label,
                        )
                    )
                if REGISTRY.enabled:
                    REGISTRY.counter("campaign/cache_hits").inc()
                continue
        pending.append((i, spec, key))
    # Miss accounting is only meaningful when a cache is actually in
    # use, and only over *keyed* specs: with cache=None every cell is
    # trivially "uncached", and an uncacheable spec (closure-built
    # policy, key=None) can never hit — counting those as misses would
    # read a sweep of lambda policies as a 100% miss storm.
    if resolved_cache is not None:
        keyed_misses = sum(1 for _, _, k in pending if k is not None)
        if REGISTRY.enabled:
            if keyed_misses:
                REGISTRY.counter("campaign/cache_misses").inc(keyed_misses)
            if n_uncacheable:
                REGISTRY.counter("campaign/uncacheable").inc(n_uncacheable)
        n_keyed = keyed_misses + n_hits
        if ALERTS.enabled and n_keyed >= 4:
            # A near-zero hit rate across a sizeable keyed campaign
            # usually means a source fingerprint drifted and the whole
            # cache silently expired.
            ALERTS.observe(
                "cache_miss_storm",
                "campaign",
                keyed_misses / n_keyed,
                time.perf_counter() - t0,
            )

    # Phase 2: execute misses (pool or inline).
    fresh: List[Tuple[int, RunSpec, Optional[str], Optional[SimResult], int, Tuple[str, ...], float]] = []
    pool_indices = {i for i, s, _ in pending if workers > 1 and _is_picklable(s)}
    pool_jobs = [(i, s, k) for i, s, k in pending if i in pool_indices]
    inline_jobs = [(i, s, k) for i, s, k in pending if i not in pool_indices]

    if pool_jobs:
        # Each queued job carries the full retry state of one cell —
        # (i, spec, key, genuine, strikes, errors, started) — so a pool
        # rebuild after a hard worker death resumes exactly where the
        # broken round stopped. ``genuine`` counts real cell failures,
        # ``strikes`` counts broken-pool incidents; each has its own
        # ``retries`` budget, so infrastructure deaths neither abort the
        # campaign nor consume a cell's genuine retries (and a
        # persistently pool-killing cell still terminates).
        queue: List[Tuple] = [
            (i, spec, key, 0, 0, (), time.perf_counter())
            for i, spec, key in pool_jobs
        ]

        def _finish_pooled(job, result) -> None:
            """Final completion of a pooled cell (success or exhausted)."""
            i, spec, key, genuine, strikes, errors, started = job
            attempts = genuine + strikes + (1 if result is not None else 0)
            duration = time.perf_counter() - started
            _finish_cell(spec, result, attempts, duration, t0)
            fresh.append((i, spec, key, result, attempts, errors, duration))

        def _record_failure(job, error: str, pool_died: bool):
            """Fold one failed submission into the job's retry state.

            Returns the updated job when budget remains, else finalizes
            the cell as failed and returns ``None``.
            """
            i, spec, key, genuine, strikes, errors, started = job
            errors = errors + (error,)
            if pool_died:
                strikes += 1
                retryable = strikes <= retries
            else:
                genuine += 1
                retryable = genuine <= retries
            job = (i, spec, key, genuine, strikes, errors, started)
            if not retryable:
                _finish_pooled(job, None)
                return None
            return job

        while queue:
            jobs, queue = queue, []
            broken = False
            with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs)),
                initializer=sanitize_forked_worker,
            ) as pool:
                states = {}
                not_done = set()
                for job in jobs:
                    if not broken:
                        try:
                            fut = pool.submit(_execute_spec, job[1])
                        except BrokenProcessPool as exc:
                            broken = True
                            error = _error_string(exc)
                        else:
                            states[fut] = job
                            not_done.add(fut)
                            continue
                    # The pool died before this job could run; charge a
                    # strike (termination guarantee) and requeue.
                    retry_job = _record_failure(job, error, pool_died=True)
                    if retry_job is not None:
                        queue.append(retry_job)
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for fut in done:
                        job = states.pop(fut)
                        spec = job[1]
                        result: Optional[SimResult] = None
                        error: Optional[str] = None
                        pool_died = False
                        try:
                            result = fut.result()
                        except BrokenProcessPool as exc:
                            # A hard worker death (OOM-kill, segfault)
                            # poisons the whole pool: every in-flight
                            # future fails this way and further submits
                            # raise. The round drains, then a fresh pool
                            # picks up the survivors.
                            pool_died = True
                            broken = True
                            error = _error_string(exc)
                        except Exception as exc:  # noqa: BLE001 - retried below
                            error = _error_string(exc)
                        if error is None:
                            _finish_pooled(job, result)
                            continue
                        retry_job = _record_failure(job, error, pool_died)
                        if retry_job is None:
                            continue
                        if broken:
                            # Never resubmit into a dead pool — the
                            # retry runs in the next round's pool.
                            queue.append(retry_job)
                            continue
                        try:
                            retry = pool.submit(_execute_spec, spec)
                        except BrokenProcessPool:
                            broken = True
                            queue.append(retry_job)
                        else:
                            states[retry] = retry_job
                            not_done.add(retry)

    def _inline_cell(
        i: int, spec: RunSpec, key: Optional[str], started: Optional[float] = None
    ):
        # The cell span brackets the whole inline execution (campaign
        # wall-clock scope); running inside ``in_span`` stamps every event
        # the simulation emits with the enclosing cell, so `repro explain`
        # can attribute in-run decisions to their campaign cell.
        span_id = SPANS.start(
            "campaign_cell",
            node=spec.effective_label,
            t=time.perf_counter() - t0,
            scope="campaign",
        )
        if BUS.enabled:
            BUS.emit(
                CellStartEvent(
                    t=time.perf_counter() - t0,
                    label=spec.effective_label,
                    span_id=span_id,
                )
            )
        if started is None:
            started = time.perf_counter()
        with in_span(span_id):
            result, attempts, errors = _run_inline(spec, retries, t0=t0)
        SPANS.end(
            "campaign_cell",
            node=spec.effective_label,
            t=time.perf_counter() - t0,
        )
        duration = time.perf_counter() - started
        _finish_cell(spec, result, attempts, duration, t0)
        fresh.append((i, spec, key, result, attempts, errors, duration))

    # Batching: each batch steps first; its cells then collect their
    # results through execute() inside the batched() block. A batched
    # cell's wall time is its batch's.
    inline_batches = _batches(inline_jobs) if batching else []
    in_batch = {job[0] for batch in inline_batches for job in batch}
    for batch in inline_batches:
        started = time.perf_counter()
        with batched([job[1] for job in batch]):
            for job in batch:
                _inline_cell(*job, started)
    for job in inline_jobs:
        if job[0] not in in_batch:
            _inline_cell(*job)

    # Phase 3: memoize and assemble.
    for i, spec, key, result, attempts, errors, duration in fresh:
        if result is not None and key is not None and resolved_cache is not None:
            try:
                resolved_cache.put(key, result)
            except OSError:
                # An unwritable cache dir degrades to uncached execution;
                # it must never fail a campaign that already has results.
                pass
        outcomes[i] = RunOutcome(
            spec=spec,
            result=result,
            from_cache=False,
            attempts=attempts,
            errors=errors,
            duration_s=duration,
        )

    report = CampaignReport(
        outcomes=tuple(o for o in outcomes if o is not None),
        n_workers=workers,
        wall_s=time.perf_counter() - t0,
        cache_dir=str(resolved_cache.path) if resolved_cache is not None else None,
        n_uncacheable=n_uncacheable,
    )
    if BUS.enabled:
        BUS.emit(
            CampaignFinishEvent(
                t=time.perf_counter() - t0,
                n_cells=len(report.outcomes),
                ok=report.n_executed,
                failed=len(report.failures),
                cached=report.n_cache_hits,
                executed=report.n_executed + len(report.failures),
                wall_s=report.wall_s,
            )
        )
    return report
