"""Tests for the top-level F-CAD flow."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.construction.reorg import build_pipeline_plan
from repro.devices.asic import AsicSpec
from repro.devices.budget import ResourceBudget
from repro.devices.fpga import get_device
from repro.dse.engine import DseEngine
from repro.dse.space import Customization
from repro.dse.worker import EvalSpec
from repro.fcad.flow import FCad, sweep_grid
from repro.quant.schemes import INT8
from tests.conftest import make_tiny_decoder


@pytest.fixture(scope="module")
def small_result():
    flow = FCad(
        network=make_tiny_decoder(),
        device=get_device("Z7045"),
        quant="int8",
    )
    return flow.run(iterations=3, population=15, seed=0)


class TestFlow:
    def test_produces_all_artifacts(self, small_result):
        assert small_result.profile.total_macs > 0
        assert small_result.plan.num_branches == 2
        assert small_result.dse.best_perf.fps > 0
        assert small_result.fps == small_result.dse.best_perf.fps
        assert 0 < small_result.efficiency <= 1.0

    def test_render_contains_all_sections(self, small_result):
        text = small_result.render()
        assert "Branch profile" in text
        assert "F-CAD generated accelerator" in text
        assert "budget:" in text

    def test_accelerator_instantiation(self, small_result):
        acc = small_result.accelerator()
        assert acc.num_branches == 2
        assert len(acc.units()) == sum(
            b.num_stages for b in small_result.plan.branches
        )

    def test_quant_accepts_string_or_scheme(self):
        graph = make_tiny_decoder()
        by_name = FCad(network=graph, device=get_device("Z7045"), quant="int8")
        by_scheme = FCad(network=graph, device=get_device("Z7045"), quant=INT8)
        assert by_name.quant is by_scheme.quant

    def test_device_xor_budget_required(self):
        graph = make_tiny_decoder()
        with pytest.raises(ValueError, match="exactly one"):
            FCad(network=graph)
        with pytest.raises(ValueError, match="exactly one"):
            FCad(
                network=graph,
                device=get_device("Z7045"),
                budget=ResourceBudget(1, 1, 1.0),
            )

    def test_explicit_budget_target(self):
        result = FCad(
            network=make_tiny_decoder(),
            budget=ResourceBudget(compute=256, memory=256, bandwidth_gbps=6.0),
            quant="int8",
        ).run(iterations=2, population=10, seed=0)
        assert result.dse.best_perf.total_dsp <= 256

    def test_asic_target(self):
        """Sec. VII: F-CAD can also target ASIC budgets."""
        spec = AsicSpec(
            name="hmd-npu",
            mac_units=512,
            onchip_buffer_kb=2048,
            bandwidth_gbps=8.0,
        )
        result = FCad(
            network=make_tiny_decoder(), device=spec, quant="int8"
        ).run(iterations=2, population=10, seed=0)
        assert result.frequency_mhz == spec.default_frequency_mhz
        assert result.dse.best_perf.fps > 0

    def test_custom_customization_respected(self):
        result = FCad(
            network=make_tiny_decoder(),
            device=get_device("ZU17EG"),
            quant="int8",
            customization=Customization(batch_sizes=(1, 2), priorities=(1.0, 1.0)),
        ).run(iterations=3, population=15, seed=0)
        batches = [b.batch_size for b in result.dse.best_config.branches]
        assert batches == [1, 2]

    def test_seed_reproducibility(self):
        graph = make_tiny_decoder()

        def run(seed):
            return FCad(
                network=graph, device=get_device("Z7045"), quant="int8"
            ).run(iterations=2, population=10, seed=seed)

        assert run(5).dse.best_config == run(5).dse.best_config


def frequency_entry_points():
    """Every public way to set a search's clock."""
    network = make_tiny_decoder()
    plan = build_pipeline_plan(network)
    device = get_device("Z7045")
    return {
        "FCad": lambda f: FCad(network=network, device=device, frequency_mhz=f),
        "DseEngine": lambda f: DseEngine(
            plan=plan, budget=device.budget(), quant=INT8, frequency_mhz=f
        ),
        "sweep_grid": lambda f: sweep_grid([network], [device], frequency_mhz=f),
        "EvalSpec": lambda f: EvalSpec(
            plan=plan,
            budget=device.budget(),
            customization=Customization.uniform(plan.num_branches),
            quant=INT8,
            frequency_mhz=f,
        ),
    }


FREQUENCY_ENTRY_POINTS = frequency_entry_points()


class TestFrequencyIsChecked:
    """``frequency_mhz`` is a finite real number > 0 wherever it enters:
    a negative clock no longer reports negative FPS, an infinite one no
    longer scores every design 0 FPS, ``True`` no longer runs at 1 MHz,
    and 0, NaN or a string no longer fail deep inside a search."""

    @pytest.mark.parametrize("entry", sorted(FREQUENCY_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "frequency, error",
        [
            (-200.0, ValueError),
            (0, ValueError),
            (0.0, ValueError),
            (math.inf, ValueError),
            (-math.inf, ValueError),
            (math.nan, ValueError),
            (True, TypeError),
            ("200", TypeError),
        ],
        ids=["-200", "0", "0.0", "inf", "-inf", "nan", "True", "str"],
    )
    def test_rejected_naming_frequency(self, entry, frequency, error):
        with pytest.raises(error, match="frequency_mhz"):
            FREQUENCY_ENTRY_POINTS[entry](frequency)

    @pytest.mark.parametrize("entry", sorted(FREQUENCY_ENTRY_POINTS))
    def test_finite_positive_values_accepted(self, entry):
        for frequency in (200, 150.0, np.float64(300.0), 1e-3):
            FREQUENCY_ENTRY_POINTS[entry](frequency)
