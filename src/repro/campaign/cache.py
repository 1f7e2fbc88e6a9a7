"""On-disk memoization of simulation results.

Seeded RNG streams make every run of this reproduction a pure function of
its inputs: the scenario parameters, the policy (name or factory), and
the solar trace fully determine the :class:`~repro.sim.results.SimResult`.
The cache exploits that — each completed run is pickled under a content
hash of those inputs, so re-running a sweep (a figure regeneration, a
benchmark, a CI smoke test) replays finished cells from disk with results
byte-identical to a fresh simulation.

Key construction is *structural*, not positional: dataclasses are folded
field by field, numpy arrays by dtype/shape/content digest, enums by
value, callables by module-qualified name (plus bound arguments for
``functools.partial``). Anything that cannot be named deterministically —
a lambda, a closure — yields no key, and the campaign runner simply runs
that spec uncached.

Entries live in one flat directory, one ``<key>.pkl`` file each. A
write goes to a temp file that is fsynced, atomically renamed into
place, and followed by a directory fsync, so a crash never leaves a
truncated payload under its final name. A writer killed before the
rename can leave a ``.<key12>-*.tmp`` file behind; :meth:`ResultCache.clear`
removes those too, and they never count as entries.

Environment knobs (both overridable through :func:`configure_cache`):

- ``REPRO_CACHE_DIR`` — cache directory (default
  ``~/.cache/repro-baat/campaign``);
- ``REPRO_CAMPAIGN_CACHE=0`` (or ``off``/``false``/``no``) — disable the
  default cache entirely.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

PathLike = Union[str, Path]

#: Bumped whenever engine/model changes invalidate previously cached
#: results (also salted with the package version).
CACHE_SCHEMA_VERSION = 1

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLED = "REPRO_CAMPAIGN_CACHE"
_OFF_VALUES = ("0", "off", "false", "no")

# Process-wide overrides set by configure_cache() (CLI / bench harness).
_override_dir: Optional[Path] = None
_override_enabled: Optional[bool] = None


# ----------------------------------------------------------------------
# Canonical content hashing
# ----------------------------------------------------------------------
def canonical(obj: Any) -> Any:
    """Fold ``obj`` into a deterministic tree of primitives and tuples.

    The output is stable across processes and Python hash randomisation,
    so its ``repr`` can be hashed as a content key.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        # repr() round-trips doubles exactly; avoids 0.1 + 0.2 surprises
        # from any locale/format-dependent rendering.
        return ("f", repr(obj))
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__module__, type(obj).__qualname__, obj.value)
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return (
            "ndarray",
            str(arr.dtype),
            arr.shape,
            hashlib.sha256(arr.tobytes()).hexdigest(),
        )
    if isinstance(obj, np.generic):
        return ("npscalar", str(obj.dtype), repr(obj.item()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = tuple(
            (f.name, canonical(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
        return ("dataclass", type(obj).__module__, type(obj).__qualname__, fields)
    if isinstance(obj, dict):
        items = tuple(
            (canonical(k), canonical(v))
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return ("dict", items)
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(canonical(v) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(canonical(v)) for v in obj)))
    if isinstance(obj, functools.partial):
        return (
            "partial",
            callable_token(obj.func),
            canonical(obj.args),
            canonical(obj.keywords),
        )
    if callable(obj):
        token = callable_token(obj)
        if token is None:
            raise ConfigurationError(
                f"cannot build a deterministic cache token for {obj!r}"
            )
        return token
    # Last resort: a stable repr (parameter objects etc. define one).
    return ("repr", type(obj).__module__, type(obj).__qualname__, repr(obj))


def callable_token(fn: Any) -> Optional[Tuple]:
    """A deterministic identity for a callable, or ``None`` if it has no
    stable cross-process name (lambdas, closures, local functions)."""
    if isinstance(fn, functools.partial):
        inner = callable_token(fn.func)
        if inner is None:
            return None
        return ("partial", inner, canonical(fn.args), canonical(fn.keywords))
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not qualname or not module:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    return ("callable", module, qualname)


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``.py`` source file in the ``repro`` package.

    Salting cache keys with this makes any code edit (engine, battery
    model, policies, ...) invalidate previously cached results, which is
    what upholds the "a cache hit is identical to a fresh run" contract
    across development — the package version alone does not change per
    commit.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for source in sorted(root.rglob("*.py")):
        digest.update(str(source.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(source.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def object_key(*parts: Any) -> str:
    """Content-hash key for arbitrary (canonicalisable) parts."""
    import repro

    salted = (
        "repro-cache",
        CACHE_SCHEMA_VERSION,
        repro.__version__,
        code_fingerprint(),
    ) + tuple(canonical(p) for p in parts)
    return hashlib.sha256(repr(salted).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The disk cache
# ----------------------------------------------------------------------
class ResultCache:
    """Pickled payloads keyed by content hash, one ``<key>.pkl`` file per
    entry in a flat directory.

    Hit/miss accounting, key validation and (un)pickling live here
    alongside the file I/O; writes are atomic and durable.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.hits = 0
        self.misses = 0

    # -- internals ------------------------------------------------------
    def _check_key(self, key: str) -> str:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ConfigurationError(f"malformed cache key {key!r}")
        return key

    def _file_for(self, key: str) -> Path:
        """The entry file for ``key``."""
        return self.path / f"{self._check_key(key)}.pkl"

    def _entries(self) -> List[Path]:
        return sorted(self.path.glob("*.pkl"))

    def _evict(self, file: Path) -> None:
        file.unlink(missing_ok=True)
        self.misses += 1

    # -- API ------------------------------------------------------------
    def get(self, key: str, expect: Optional[type] = None) -> Optional[Any]:
        """Return the cached payload for ``key``, or ``None`` on a miss.

        A corrupt entry (truncated write, incompatible pickle) is deleted
        and reported as a miss rather than poisoning the campaign. When
        ``expect`` is given, a payload of any other type gets the same
        treatment — otherwise a stale or foreign entry under a colliding
        key would be "hit" on every campaign yet silently re-run.
        """
        file = self._file_for(key)
        try:
            blob = file.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self._evict(file)
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self._evict(file)
            return None
        if expect is not None and not isinstance(payload, expect):
            self._evict(file)
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Any) -> None:
        """Store ``payload`` under ``key`` atomically and durably."""
        file = self._file_for(key)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.path.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:12]}-", suffix=".tmp", dir=self.path
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
                fh.flush()
                # Durability before visibility: without this fsync a
                # crash right after os.replace() can leave a truncated
                # entry readable under its final name.
                os.fsync(fh.fileno())
            os.replace(tmp_name, file)
            _fsync_dir(self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._file_for(key).is_file()

    def __len__(self) -> int:
        return len(self._entries())

    def size_bytes(self) -> int:
        """Total bytes held by cache entries."""
        return sum(f.stat().st_size for f in self._entries())

    def clear(self) -> int:
        """Delete every entry and any orphaned temp file; returns the
        number of entries removed.

        Temp files are left by writers killed between ``mkstemp`` and the
        rename. A live writer whose temp file goes here fails its rename
        with :class:`OSError`, which the campaign runner already treats
        as a skipped memoization.
        """
        entries = self._entries()
        for file in entries:
            file.unlink(missing_ok=True)
        for tmp in self.path.glob(".*.tmp"):
            tmp.unlink(missing_ok=True)
        return len(entries)


def _fsync_dir(path: Path) -> None:
    """Flush directory metadata (the rename itself) to disk."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        # Some filesystems refuse fsync on directory fds; the entry
        # itself is already durable, only the rename may lag.
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Default-cache resolution
# ----------------------------------------------------------------------
def configure_cache(
    enabled: Optional[bool] = None,
    directory: Optional[PathLike] = None,
) -> None:
    """Process-wide default-cache overrides (CLI flags, bench harness).

    ``None`` leaves the corresponding setting untouched; the environment
    variables still apply where no override is set.
    """
    global _override_enabled, _override_dir
    if enabled is not None:
        _override_enabled = bool(enabled)
    if directory is not None:
        _override_dir = Path(directory)


def reset_cache_config() -> None:
    """Drop :func:`configure_cache` overrides (used by tests)."""
    global _override_enabled, _override_dir
    _override_enabled = None
    _override_dir = None


def default_cache_dir() -> Path:
    """The directory the default cache lives in."""
    if _override_dir is not None:
        return _override_dir
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-baat" / "campaign"


def default_cache() -> Optional[ResultCache]:
    """The process default cache, or ``None`` when disabled."""
    if _override_enabled is False:
        return None
    if _override_enabled is None:
        env = os.environ.get(_ENV_ENABLED, "").strip().lower()
        if env in _OFF_VALUES:
            return None
    return ResultCache(default_cache_dir())
