"""The DSE evaluation cache.

Algorithm 2 is a pure function of ``(branch, resource distribution,
customization, quantization, frequency)``, so its solutions can be memoized
aggressively. :class:`LocalEvalCache` is a plain in-process dict holding
two kinds of entries, both built in :mod:`repro.dse.worker`:

- **analytical solutions** under ``(spec digest, branch index, quantized
  budget bucket)`` — per-branch Algorithm-2 results. These are *metrics*,
  not scores: the objective is applied after rehydration, so the entries
  are valid under every objective and a warm cache keeps hitting when the
  caller switches from the paper fitness to an SLO one.
  The spec digest (which deliberately excludes the objective) namespaces
  entries, so one cache can safely serve a whole sweep of different
  models, budgets, and precisions at once; only cases with the same spec
  hit each other's entries.
- **re-rank metrics** under ``(spec digest, "rerank", oracle key,
  bucket vector)`` — whole-candidate
  :class:`~repro.dse.objective.BranchMetrics` from an expensive oracle
  (cycle-accurate sim, serving replay). Only these keys fold in the
  oracle identity: expensive measurements depend on which oracle took
  them, while the analytical entries are the same for every oracle stack.

Because cached values are deterministic pure-function results, a cache hit
is bit-identical to recomputation — sharing a cache never changes search
results, only how fast they arrive.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable


def put_entries(
    cache: "LocalEvalCache", entries: Iterable[tuple[Hashable, Any]]
) -> None:
    """Bulk-insert entries: the batched kernel produces whole generations
    of solutions at once. A module-level function, so the benchmark's
    tracer can time every cache write under one name."""
    cache.put_many(entries)


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


__all__ = ["LocalEvalCache", "put_entries"]
