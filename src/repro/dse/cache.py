"""Evaluation-cache backends for the DSE.

Algorithm 2 is a pure function of ``(branch, resource distribution,
customization, quantization, frequency)``, so its solutions can be memoized
aggressively. All backends share one small mapping interface
(``get`` / ``put`` / ``items`` / ``len``) and hold two kinds of entries,
both built in :mod:`repro.dse.worker`:

- **analytical solutions** under ``(spec digest, branch index, quantized
  budget bucket)`` — per-branch Algorithm-2 results. These are *metrics*,
  not scores: the objective is applied after rehydration, so the entries
  are valid under every objective and a warm cache keeps hitting when the
  caller switches from the paper fitness to an SLO one.
  The spec digest (which deliberately excludes the objective) namespaces
  entries, so one cache can safely serve a whole sweep of different
  models, budgets, and precisions at once.
- **re-rank metrics** under ``(spec digest, "rerank", oracle key,
  bucket vector)`` — whole-candidate
  :class:`~repro.dse.objective.BranchMetrics` from an expensive oracle
  (cycle-accurate sim, serving replay). Only these keys fold in the
  oracle identity: expensive measurements depend on which oracle took
  them, while the analytical entries are the same for every oracle stack.

Backends, in the order a search should prefer them:

- :class:`LocalEvalCache` — a plain dict, and the default.
- :class:`FileEvalCache` — a SQLite-backed append-log that persists across
  runs and processes. Warm-starting a search from a previous run's file is
  free, and the file is the seam for sharding one sweep across machines
  (each machine appends its deltas; a merge is a plain ``put`` loop).
- :class:`DeltaEvalCache` — an overlay recording new entries on top of any
  read-only base. A fleet worker runs each shard through one of these so
  the shard's new solutions come back as an explicit delta
  (``new_entries``) that it ships to the coordinator.

Because cached values are deterministic pure-function results, a cache hit
is bit-identical to recomputation — sharing, persisting, or merging caches
never changes search results, only how fast they arrive.
"""

from __future__ import annotations

import pickle
import sqlite3
from typing import Any, Hashable, Iterable, Iterator, Protocol


class EvalCache(Protocol):
    """What the evaluator and the fleet need from a cache."""

    def get(self, key: Hashable) -> Any | None: ...

    def put(self, key: Hashable, value: Any) -> None: ...

    def put_many(
        self, entries: Iterable[tuple[Hashable, Any]]
    ) -> None: ...

    def items(self) -> Iterable[tuple[Hashable, Any]]: ...

    def __len__(self) -> int: ...


def put_entries(
    cache: EvalCache, entries: Iterable[tuple[Hashable, Any]]
) -> None:
    """Bulk-insert entries, tolerating caches without ``put_many``.

    The batched kernel produces whole generations of solutions at once;
    every in-tree backend takes them in one :meth:`put_many` call, while
    duck-typed caches from external drivers fall back to per-entry
    ``put`` with identical results.
    """
    put_many = getattr(cache, "put_many", None)
    if put_many is not None:
        put_many(entries)
        return
    for key, value in entries:
        cache.put(key, value)


class LocalEvalCache:
    """A plain in-process memoization table."""

    def __init__(self) -> None:
        self._store: dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Any | None:
        return self._store.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        self._store[key] = value

    def put_many(self, entries: Iterable[tuple[Hashable, Any]]) -> None:
        self._store.update(entries)

    def items(self) -> Iterable[tuple[Hashable, Any]]:
        return self._store.items()

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)


class DeltaEvalCache:
    """An overlay that records every new entry on top of a base cache.

    Reads fall through to the base; writes land only in the overlay. The
    overlay is the *delta*: everything this cache learned that the base
    did not already know. Fleet workers run a shard through one of these
    and ship ``new_entries()`` to the coordinator, so it can pool exactly
    the new solutions without any shared state.
    """

    def __init__(self, base: EvalCache | None = None) -> None:
        self.base: EvalCache = base if base is not None else LocalEvalCache()
        self._delta: dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Any | None:
        value = self._delta.get(key)
        if value is None:
            value = self.base.get(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._delta[key] = value

    def put_many(self, entries: Iterable[tuple[Hashable, Any]]) -> None:
        self._delta.update(entries)

    def new_entries(self) -> list[tuple[Hashable, Any]]:
        """The delta: entries put here that the base never saw."""
        return list(self._delta.items())

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        seen = set()
        for key, value in self._delta.items():
            seen.add(key)
            yield key, value
        for key, value in self.base.items():
            if key not in seen:
                yield key, value

    def __len__(self) -> int:
        return len(self._delta) + sum(
            1 for key, _ in self.base.items() if key not in self._delta
        )


class FileEvalCache:
    """A persistent cache backed by a SQLite append-log.

    The whole table is loaded into a dict at open, so every ``get`` is a
    plain dict lookup — the file is touched only at open and at
    :meth:`flush` (which appends the entries written since the last
    flush). Keys and values are pickled; values are pure-function results,
    so merging files from different runs or machines is always safe.

    This backend is what makes warm starts and cross-machine sharding
    work: run a sweep once, and every later run (or every other shard
    pointed at a copy of the file) starts with all of its solutions
    already solved.

    **Crash consistency.** Each :meth:`flush` appends the whole dirty set
    in a single SQLite transaction (the ``with self._conn`` block), and
    SQLite's journal makes that transaction atomic: a process killed
    mid-flush leaves the file holding either *all* of that flush's
    entries or *none* of them — never a torn batch, never a corrupt
    database. On reopen the partial transaction is rolled back
    automatically and every entry from earlier flushes is intact. Since
    entries are pure-function results, losing an unflushed batch costs
    recomputation only; it can never change a search result. This is the
    property the fleet runtime leans on when a worker dies mid-sweep
    (:mod:`repro.dist`), and ``tests/test_dist.py`` kills a flushing
    process on purpose to hold it.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._store: dict[Hashable, Any] = {}
        self._dirty: dict[Hashable, Any] = {}
        self._conn = sqlite3.connect(self.path)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS eval_cache "
            "(key BLOB PRIMARY KEY, value BLOB)"
        )
        self._conn.commit()
        for key_blob, value_blob in self._conn.execute(
            "SELECT key, value FROM eval_cache"
        ):
            self._store[pickle.loads(key_blob)] = pickle.loads(value_blob)

    def get(self, key: Hashable) -> Any | None:
        return self._store.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        # Overwrites are dirty too: last writer wins across reopen, not
        # just in memory (merging a corrected shard file must stick).
        self._dirty[key] = value
        self._store[key] = value

    def put_many(self, entries: Iterable[tuple[Hashable, Any]]) -> None:
        for key, value in entries:
            self._dirty[key] = value
            self._store[key] = value

    def items(self) -> Iterable[tuple[Hashable, Any]]:
        return self._store.items()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def pending_writes(self) -> int:
        """Entries not yet appended to the file."""
        return len(self._dirty)

    def flush(self) -> int:
        """Append unsaved entries to the file; returns how many."""
        if not self._dirty:
            return 0
        rows = [
            (
                pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL),
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
            )
            for key, value in self._dirty.items()
        ]
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO eval_cache (key, value) "
                "VALUES (?, ?)",
                rows,
            )
        flushed = len(self._dirty)
        self._dirty.clear()
        return flushed

    def close(self) -> None:
        if self._conn is not None:
            self.flush()
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "FileEvalCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Backend names accepted by :func:`make_cache`.
CACHE_BACKENDS = ("local", "file")


def make_cache(backend: str = "local", path: str | None = None) -> EvalCache:
    """Build an evaluation cache by backend name.

    - ``"local"`` — :class:`LocalEvalCache`; right for everything that
      runs inside one process.
    - ``"file"`` — :class:`FileEvalCache` at ``path``; persists across
      runs, required for warm starts and cross-machine sharding.
    """
    if backend == "local":
        return LocalEvalCache()
    if backend == "file":
        if not path:
            raise ValueError("the file backend needs a path")
        return FileEvalCache(path)
    raise ValueError(
        f"unknown cache backend {backend!r}; pick one of {CACHE_BACKENDS}"
    )


__all__ = [
    "CACHE_BACKENDS",
    "DeltaEvalCache",
    "EvalCache",
    "FileEvalCache",
    "LocalEvalCache",
    "make_cache",
    "put_entries",
]
