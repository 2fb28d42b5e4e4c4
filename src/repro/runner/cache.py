"""Content-addressed, crash-safe result cache for experiment jobs.

Each completed job is stored as one small JSON file named by the SHA-256
of the job's canonical description (:meth:`~repro.runner.jobs.JobSpec.
payload`) plus a code-version salt.  The key is a pure function of the
job's *configuration* — never of when or where it ran — so an
interrupted sweep can resume from every job that finished, and two
machines running the same sweep address the same entries.  The stored
result is plain JSON (a number, or a dataclass as its field mapping);
a read rebuilds it through the spec's ``result_type``, so the cache
knows no result class by name.

Every entry lives directly in the cache directory as ``<key>.json``:
one flat directory, no fan-out.  Crash safety comes from the write
protocol: an entry is written to a temporary file in the cache
directory and published with :func:`os.replace` (atomic on POSIX), so
a killed process can leave at most an orphaned temp file, never a torn
entry; it becomes durable at the one directory fsync that ends each
:meth:`ResultCache.put_many` batch.  Reads treat missing, torn or
schema-mismatched files as misses — a corrupt cache degrades to
recomputation, never to wrong results.  So does an entry filed under
another spec's name (its stored ``key`` is checked) and a stored result
of the wrong shape: not a JSON number for a number-valued spec, not a
JSON object for the others.  Writes refuse a result that is not of the
spec's ``result_type``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, is_dataclass
from typing import Any, Iterable

__all__ = ["ResultCache", "cache_key", "CACHE_SCHEMA", "code_salt"]

#: Bumped whenever the cache entry layout or job semantics change.
CACHE_SCHEMA = "repro.runner/v3"


def code_salt() -> str:
    """The code-version salt mixed into every cache key.

    Combines the cache schema with the package version, so upgrading
    either invalidates old entries instead of silently reusing results
    computed by different code.
    """
    import repro
    return f"{CACHE_SCHEMA}:{getattr(repro, '__version__', 'unknown')}"


def cache_key(spec: Any, salt: str | None = None) -> str:
    """SHA-256 hex key of one job spec (config + code-version salt)."""
    material = {"salt": salt if salt is not None else code_salt(),
                "spec": spec.payload()}
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _encode_result(result: Any) -> Any:
    """JSON-able form of a job result: a number or a dataclass."""
    if isinstance(result, (int, float)):
        return float(result)
    if is_dataclass(result):
        return asdict(result)
    raise TypeError(f"cannot cache result of type {type(result).__name__}")


def _is_number(value: Any) -> bool:
    # bool is an int: ``true`` must not pass for 1.0.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_result(result: Any, spec: Any) -> None:
    """Refuse a result that is not of the spec's ``result_type``."""
    result_type = spec.result_type
    ok = (_is_number(result) if result_type is float
          else isinstance(result, result_type))
    if not ok:
        raise TypeError(
            f"cannot cache a {type(result).__name__} result for a "
            f"{type(spec).__name__}, whose result_type is "
            f"{result_type.__name__}")


def _decode_result(encoded: Any, result_type: type) -> Any:
    """Inverse of :func:`_encode_result`, given the spec's result type."""
    if result_type is float:
        if not _is_number(encoded):
            raise TypeError(f"cached result {encoded!r} is not a number")
        return float(encoded)
    if not isinstance(encoded, dict):
        raise TypeError(f"cached result {encoded!r} is not a JSON object")
    return result_type(**encoded)


#: Sentinel distinguishing "cache miss" from a legitimately falsy result.
MISS = object()


class ResultCache:
    """A directory of content-addressed job results.

    >>> import tempfile
    >>> from repro.runner.jobs import PlacementRunSpec, strategy_spec
    >>> spec = PlacementRunSpec(sweep="s", series="random", x=1.0,
    ...                         run_index=0, n_dc=5, k=2,
    ...                         strategy=strategy_spec("random"), seed=0)
    >>> with tempfile.TemporaryDirectory() as d:
    ...     cache = ResultCache(d)
    ...     cache.get(spec) is MISS
    ...     _ = cache.put(spec, 12.5)
    ...     cache.get(spec)
    ...     len(cache)
    True
    12.5
    1
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, spec: Any) -> Any:
        """The cached result for ``spec``, or :data:`MISS`."""
        key = cache_key(spec)
        try:
            with open(self._path(key)) as handle:
                entry = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return MISS
        if not (isinstance(entry, dict) and entry.get("schema") == CACHE_SCHEMA
                and entry.get("key") == key):
            return MISS
        try:
            return _decode_result(entry["result"], spec.result_type)
        except (KeyError, TypeError, ValueError):
            return MISS

    def _write_entry(self, spec: Any, result: Any) -> str:
        _check_result(result, spec)
        key = cache_key(spec)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "spec": spec.payload(),
            "result": _encode_result(result),
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return key

    def put(self, spec: Any, result: Any) -> str:
        """Atomically store ``result`` for ``spec``; returns the key."""
        return self.put_many([(spec, result)])[0]

    def put_many(self, pairs: Iterable[tuple[Any, Any]]) -> list[str]:
        """Store a batch of ``(spec, result)`` pairs with one fsync.

        Each entry is published by an atomic ``os.replace`` of its temp
        file and becomes durable at the one fsync of the cache
        directory that ends the batch — one per chunk of the executor,
        not one per 4 ms job.  A torn or unsynced entry reads back as a
        miss and is recomputed: the cache can lose work to a power cut,
        never return wrong results.
        """
        keys = [self._write_entry(spec, result) for spec, result in pairs]
        if keys:
            try:
                fd = os.open(self.directory, os.O_RDONLY)
            except OSError:  # pragma: no cover - platform-specific
                return keys
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return keys

    def __len__(self) -> int:
        with os.scandir(self.directory) as entries:
            return sum(1 for e in entries if e.name.endswith(".json"))

    def __repr__(self) -> str:
        return f"ResultCache({self.directory!r}, entries={len(self)})"
