"""Content-addressed, crash-safe result cache for experiment jobs.

Each completed job is stored as one small JSON file named by the SHA-256
of the job's canonical description (:meth:`~repro.runner.jobs.JobSpec.
payload`) plus a code-version salt.  The key is a pure function of the
job's *configuration* — never of when or where it ran — so an
interrupted sweep can resume from every job that finished, and two
machines running the same sweep address the same entries.  The stored
result is plain JSON (a number, or a dataclass / dict as its field
mapping); a read rebuilds it through the spec's ``result_type``, so the
cache knows no result class by name.

Crash safety comes from the write protocol: entries are written to a
temporary file in the cache directory and published with
:func:`os.replace` (atomic on POSIX), so a killed process can leave at
most an orphaned temp file, never a torn entry.  Reads treat missing,
torn or schema-mismatched files as misses — a corrupt cache degrades to
recomputation, never to wrong results.
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
CACHE_SCHEMA = "repro.runner/v2"


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
    """JSON-able form of a job result: a number, dataclass or dict."""
    if isinstance(result, (int, float)):
        return float(result)
    if is_dataclass(result):
        return asdict(result)
    if isinstance(result, dict):
        return result
    raise TypeError(f"cannot cache result of type {type(result).__name__}")


def _decode_result(encoded: Any, result_type: type) -> Any:
    """Inverse of :func:`_encode_result`, given the spec's result type."""
    if isinstance(encoded, dict) and result_type is not dict:
        return result_type(**encoded)
    return encoded


#: Sentinel distinguishing "cache miss" from a legitimately falsy result.
MISS = object()


class ResultCache:
    """A directory of content-addressed job results.

    >>> import tempfile
    >>> from repro.runner.jobs import Table2Spec
    >>> spec = Table2Spec(n_accesses=10, k=2, m=3)
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
        # Two-level fan-out keeps directories small on huge sweeps.
        return os.path.join(self.directory, key[:2], key + ".json")

    def get(self, spec: Any) -> Any:
        """The cached result for ``spec``, or :data:`MISS`."""
        path = self._path(cache_key(spec))
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return MISS
        if entry.get("schema") != CACHE_SCHEMA:
            return MISS
        try:
            return _decode_result(entry["result"], spec.result_type)
        except (KeyError, TypeError, ValueError):
            return MISS

    def _write_entry(self, spec: Any, result: Any,
                     fsync_file: bool = True) -> str:
        key = cache_key(spec)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
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
                handle.flush()
                if fsync_file:
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return key

    def put(self, spec: Any, result: Any) -> str:
        """Atomically store ``result`` for ``spec``; returns the key."""
        return self._write_entry(spec, result, fsync_file=True)

    def put_many(self, pairs: Iterable[tuple[Any, Any]]) -> list[str]:
        """Store a batch of ``(spec, result)`` pairs with one fsync pass.

        The chunked executor lands a whole chunk of results at once;
        paying one ``fsync`` per 4 ms job would hand the dispatch
        savings straight back to the filesystem.  ``put_many`` writes
        every entry (temp file + atomic ``os.replace``, exactly like
        :meth:`put`) *without* per-file fsyncs, then fsyncs each touched
        directory once, batching durability per chunk instead of per
        job.  The weaker guarantee is safe by construction: a torn or
        unsynced entry reads back as a miss and is recomputed — the
        cache can lose work to a power cut, never return wrong results.
        """
        keys = []
        touched: set[str] = set()
        for spec, result in pairs:
            key = self._write_entry(spec, result, fsync_file=False)
            keys.append(key)
            touched.add(os.path.dirname(self._path(key)))
        if keys:
            touched.add(self.directory)
        for directory in sorted(touched):
            try:
                fd = os.open(directory, os.O_RDONLY)
            except OSError:  # pragma: no cover - platform-specific
                continue
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return keys

    def __len__(self) -> int:
        total = 0
        for _root, _dirs, files in os.walk(self.directory):
            total += sum(1 for f in files if f.endswith(".json"))
        return total

    def __repr__(self) -> str:
        return f"ResultCache({self.directory!r}, entries={len(self)})"
