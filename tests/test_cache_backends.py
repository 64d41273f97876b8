"""Conformance suite for the evaluation-cache backends, plus bit-identity.

Every backend implements the same tiny mapping protocol, so one shared
test suite runs against all of them; backend-specific guarantees
(persistence, delta tracking) get their own classes. The
final class asserts the property everything rests on: fresh-cache and
file-backed cold and warm-started searches return the same DseResult.
"""

from __future__ import annotations

import pytest

from repro.devices.fpga import get_device
from repro.dse.cache import (
    CACHE_BACKENDS,
    DeltaEvalCache,
    FileEvalCache,
    LocalEvalCache,
    make_cache,
    put_entries,
)
from repro.dse.engine import DseEngine
from repro.dse.space import Customization
from repro.quant.schemes import INT8
from tests.conftest import make_tiny_decoder


@pytest.fixture
def backend(request, tmp_path):
    """Yield a fresh cache of the requested flavour."""
    if request.param == "local":
        yield LocalEvalCache()
    elif request.param == "delta":
        yield DeltaEvalCache(LocalEvalCache())
    elif request.param == "file":
        with FileEvalCache(tmp_path / "cache.sqlite") as cache:
            yield cache
    else:  # pragma: no cover
        raise ValueError(request.param)


ALL_BACKENDS = ["local", "delta", "file"]


@pytest.mark.parametrize("backend", ALL_BACKENDS, indirect=True)
class TestConformance:
    """The contract every backend must honour identically."""

    def test_missing_key_is_none(self, backend):
        assert backend.get(("missing", 0, (1, 2, 3))) is None

    def test_roundtrip(self, backend):
        key = ("digest", 1, (10, 20, 30))
        backend.put(key, "solution")
        assert backend.get(key) == "solution"

    def test_overwrite_is_last_writer(self, backend):
        backend.put("k", "first")
        backend.put("k", "second")
        assert backend.get("k") == "second"

    def test_items_contains_put_entries(self, backend):
        backend.put(("a", 0, (0, 0, 0)), 1)
        backend.put(("b", 1, (1, 1, 1)), 2)
        entries = dict(backend.items())
        assert entries[("a", 0, (0, 0, 0))] == 1
        assert entries[("b", 1, (1, 1, 1))] == 2

    def test_len_counts_entries(self, backend):
        before = len(backend)
        backend.put(("len", 0, (9, 9, 9)), "x")
        assert len(backend) == before + 1

    def test_tuple_keys_and_rich_values(self, backend):
        """The real key/value shapes: nested tuples and dataclasses."""
        key = ("sha1" * 10, 2, (17, 3, 250))
        value = {"configs": ((1, 2, 3), (4, 5, 6)), "fps": 71.5}
        backend.put(key, value)
        assert backend.get(key) == value

    def test_put_many_equals_put_loop(self, backend):
        """Bulk insert is observationally identical to a put() loop."""
        entries = [
            (("bulk", i, (i, i, i)), f"solution-{i}") for i in range(5)
        ]
        put_entries(backend, entries)
        for key, value in entries:
            assert backend.get(key) == value

    def test_put_many_overwrites_like_put(self, backend):
        key = ("bulk-overwrite", 0, (0, 0, 0))
        backend.put(key, "old")
        put_entries(backend, [(key, "new")])
        assert backend.get(key) == "new"


class TestMakeCache:
    def test_backend_names(self, tmp_path):
        assert isinstance(make_cache("local"), LocalEvalCache)
        cache = make_cache("file", tmp_path / "c.sqlite")
        try:
            assert isinstance(cache, FileEvalCache)
        finally:
            cache.close()
        assert set(CACHE_BACKENDS) == {"local", "file"}

    def test_file_needs_path(self):
        with pytest.raises(ValueError, match="path"):
            make_cache("file")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            make_cache("redis")
        with pytest.raises(ValueError, match="unknown"):
            make_cache("manager")


class TestDeltaCache:
    def test_reads_fall_through_to_base(self):
        base = LocalEvalCache()
        base.put("warm", 1)
        delta = DeltaEvalCache(base)
        assert delta.get("warm") == 1
        assert delta.new_entries() == []

    def test_new_entries_is_exactly_the_delta(self):
        base = LocalEvalCache()
        base.put("warm", 1)
        delta = DeltaEvalCache(base)
        delta.put("new", 2)
        assert delta.new_entries() == [("new", 2)]
        assert base.get("new") is None  # writes stay in the overlay

    def test_items_unions_without_duplicates(self):
        base = LocalEvalCache()
        base.put("k", "base")
        delta = DeltaEvalCache(base)
        delta.put("k", "delta")
        delta.put("only", 1)
        entries = dict(delta.items())
        assert entries == {"k": "delta", "only": 1}
        assert len(delta) == 2

    def test_put_many_lands_in_the_delta(self):
        """Bulk inserts must land in the delta like put() does."""
        base = LocalEvalCache()
        delta = DeltaEvalCache(base)
        put_entries(delta, [("a", 1), ("b", 2)])
        assert sorted(delta.new_entries()) == [("a", 1), ("b", 2)]
        assert base.get("a") is None  # writes stay in the overlay


class TestFileCache:
    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "persist.sqlite"
        with FileEvalCache(path) as cache:
            cache.put(("digest", 0, (1, 2, 3)), {"fps": 30.0})
        with FileEvalCache(path) as warm:
            assert warm.get(("digest", 0, (1, 2, 3))) == {"fps": 30.0}
            assert len(warm) == 1

    def test_flush_appends_only_new_entries(self, tmp_path):
        path = tmp_path / "flush.sqlite"
        with FileEvalCache(path) as cache:
            cache.put("a", 1)
            assert cache.pending_writes == 1
            assert cache.flush() == 1
            assert cache.pending_writes == 0
            cache.put("b", 2)
            assert cache.flush() == 1
            assert cache.flush() == 0

    def test_overwrite_persists_across_reopen(self, tmp_path):
        """Last writer wins on disk too, not just in memory."""
        path = tmp_path / "overwrite.sqlite"
        with FileEvalCache(path) as cache:
            cache.put("k", "first")
            cache.flush()  # "first" already on disk
            cache.put("k", "second")
        with FileEvalCache(path) as warm:
            assert warm.get("k") == "second"

    def test_merging_two_runs_accumulates(self, tmp_path):
        path = tmp_path / "merge.sqlite"
        with FileEvalCache(path) as first:
            first.put("run1", 1)
        with FileEvalCache(path) as second:
            second.put("run2", 2)
        with FileEvalCache(path) as third:
            assert third.get("run1") == 1
            assert third.get("run2") == 2


class TestBitIdentity:
    """Fresh-cache, file-backed, and warm-started searches agree bit for bit."""

    @pytest.fixture(scope="class")
    def engine(self):
        from repro.construction.reorg import build_pipeline_plan

        plan = build_pipeline_plan(make_tiny_decoder())
        return DseEngine(
            plan=plan,
            budget=get_device("Z7045").budget(),
            customization=Customization.uniform(plan.num_branches),
            quant=INT8,
        )

    def test_fresh_and_file_warm_agree(self, engine, tmp_path):
        size = dict(iterations=2, population=10, seed=13)
        fresh = engine.search(**size)

        path = tmp_path / "warm.sqlite"
        with FileEvalCache(path) as cold_cache:
            cold = engine.search(**size, cache=cold_cache)
        with FileEvalCache(path) as warm_cache:
            preloaded = len(warm_cache)
            warm = engine.search(**size, cache=warm_cache)

        for result in (cold, warm):
            assert result.best_fitness == fresh.best_fitness
            assert result.best_config == fresh.best_config
            assert result.history == fresh.history
            assert (
                result.convergence_iteration == fresh.convergence_iteration
            )
        # The warm start really was warm: every bucket came from the file.
        assert preloaded > 0
        assert warm.evaluations == 0
        assert warm.cache_hits == warm.cache_lookups
