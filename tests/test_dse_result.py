"""The versioned DseResult JSON codec: round-trip, old payloads, errors."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch.config import ConfigError
from repro.construction.reorg import build_pipeline_plan
from repro.devices.fpga import get_device
from repro.dse.engine import DseEngine
from repro.dse.result import (
    RESULT_FORMAT_VERSION,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.dse.space import Customization
from repro.quant.schemes import INT8
from tests.conftest import make_tiny_decoder

FIXTURES = Path(__file__).parent / "data"

#: The accounting block searches run with the removed surrogate filter
#: wrote next to the result fields; archived payloads may still carry it.
SURROGATE_STATS_BLOCK = {
    "mode": "prune",
    "pruned_candidates": 41,
    "pruned_buckets": 97,
    "solved_buckets": 112,
    "predictions": 160,
    "false_prunes": 0,
    "audited": 12,
    "model_samples": 112,
    "refits": 3,
    "fit_seconds": 0.0042,
}


def pinned_payload() -> dict:
    return json.loads((FIXTURES / "dse_result_pre_surrogate.json").read_text())


@pytest.fixture(scope="module")
def searched():
    plan = build_pipeline_plan(make_tiny_decoder())
    engine = DseEngine(
        plan=plan,
        budget=get_device("Z7045").budget(),
        customization=Customization.uniform(plan.num_branches),
        quant=INT8,
    )
    return engine.search(iterations=3, population=12, seed=0)


class TestResultCodec:
    def test_round_trip(self, searched):
        clone = result_from_json(result_to_json(searched))
        assert clone == searched
        # And the dict shape is JSON-stable.
        assert result_to_dict(clone) == result_to_dict(searched)

    def test_payload_omits_surrogate_key(self, searched):
        assert "surrogate_stats" not in result_to_dict(searched)

    def test_payload_keeps_constant_pool_keys(self, searched):
        """Format version 1 still writes the keys of the removed process
        pool, as constants, and loads payloads with another worker count."""
        payload = result_to_dict(searched)
        assert (payload["workers"], payload["overhead_seconds"]) == (1, 0.0)
        assert result_from_dict({**payload, "workers": 4}) == searched

    def test_pinned_pre_surrogate_payload_loads(self):
        """Old archived payloads (no surrogate_stats key) keep loading."""
        payload = pinned_payload()
        assert "surrogate_stats" not in payload
        result = result_from_dict(payload)
        assert result.best_fitness > 0
        assert result.iterations == len(result.history) == 3
        # Round-trips losslessly through the current codec.
        assert result_from_json(result_to_json(result)) == result

    def test_surrogate_stats_block_is_ignored(self):
        """Payloads written with the surrogate filter on still load."""
        payload = pinned_payload()
        payload["surrogate_stats"] = dict(SURROGATE_STATS_BLOCK)
        assert result_from_dict(payload) == result_from_dict(pinned_payload())

    def test_unknown_version_raises(self):
        payload = pinned_payload()
        payload["version"] = RESULT_FORMAT_VERSION + 1
        with pytest.raises(ConfigError, match="version"):
            result_from_dict(payload)

    def test_malformed_payload_raises(self):
        with pytest.raises(ConfigError, match="malformed"):
            result_from_dict({"version": RESULT_FORMAT_VERSION})
