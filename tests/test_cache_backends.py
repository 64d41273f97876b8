"""The evaluation cache's mapping contract, plus bit-identity.

The final class asserts the property everything rests on: fresh-cache,
cold and warm-started searches return the same DseResult.
"""

from __future__ import annotations

import pytest

from repro.devices.fpga import get_device
from repro.dse.cache import LocalEvalCache, put_entries
from repro.dse.engine import DseEngine
from repro.dse.space import Customization
from repro.quant.schemes import INT8
from tests.conftest import make_tiny_decoder


@pytest.fixture
def backend(request):
    """A fresh cache; the ``[local]`` parameter keeps the test ids."""
    return LocalEvalCache()


@pytest.mark.parametrize("backend", ["local"], indirect=True)
class TestConformance:
    """The mapping contract the evaluator relies on."""

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


class TestBitIdentity:
    """Fresh-cache, cold and warm-started searches agree bit for bit."""

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

    def test_fresh_and_warm_agree(self, engine):
        size = dict(iterations=2, population=10, seed=13)
        fresh = engine.search(**size)

        cache = LocalEvalCache()
        cold = engine.search(**size, cache=cache)
        preloaded = len(cache)
        warm = engine.search(**size, cache=cache)

        for result in (cold, warm):
            assert result.best_fitness == fresh.best_fitness
            assert result.best_config == fresh.best_config
            assert result.history == fresh.history
            assert (
                result.convergence_iteration == fresh.convergence_iteration
            )
        # The warm start really was warm: every bucket came from the cache.
        assert preloaded > 0
        assert warm.evaluations == 0
        assert warm.cache_hits == warm.cache_lookups
