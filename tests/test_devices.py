"""Tests for the device database and resource budgets."""

from __future__ import annotations

import math

import pytest

from repro.devices.asic import AsicSpec
from repro.devices.budget import ResourceBudget
from repro.devices.fpga import (
    KU115,
    Z7045,
    ZU17EG,
    ZU9CG,
    get_device,
    list_devices,
)


class TestFpgaDatabase:
    def test_paper_budgets_match_table_iv(self):
        # "Resource budget: 900 DSPs, 1090 BRAMs" etc.
        assert (Z7045.dsp, Z7045.bram_18k) == (900, 1090)
        assert (ZU17EG.dsp, ZU17EG.bram_18k) == (1590, 1592)
        assert (ZU9CG.dsp, ZU9CG.bram_18k) == (2520, 1824)

    def test_ku115_is_largest(self):
        assert KU115.dsp > ZU9CG.dsp

    def test_lookup_case_insensitive(self):
        assert get_device("zu9cg") is ZU9CG

    def test_unknown_device_raises_with_choices(self):
        with pytest.raises(KeyError, match="known devices"):
            get_device("virtex9000")

    def test_list_sorted_by_dsp(self):
        dsps = [dev.dsp for dev in list_devices()]
        assert dsps == sorted(dsps)

    def test_budget_conversion(self):
        budget = Z7045.budget()
        assert budget.compute == 900
        assert budget.memory == 1090
        assert budget.bandwidth_gbps > 0


class TestResourceBudget:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceBudget(compute=-1, memory=0, bandwidth_gbps=0)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="finite"):
            ResourceBudget(compute=1, memory=1, bandwidth_gbps=bandwidth)

    def test_scaled_fraction(self):
        budget = ResourceBudget(100, 50, 10.0).scaled(0.5)
        assert (budget.compute, budget.memory) == (50, 25)
        assert budget.bandwidth_gbps == pytest.approx(5.0)

    def test_scaled_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ResourceBudget(1, 1, 1.0).scaled(1.5)

    def test_fits(self):
        budget = ResourceBudget(10, 10, 1.0)
        assert budget.fits(10, 10, 1.0)
        assert not budget.fits(11, 0, 0)
        assert not budget.fits(0, 11, 0)
        assert not budget.fits(0, 0, 1.1)

    def test_with_methods_replace_single_field(self):
        budget = ResourceBudget(10, 10, 1.0)
        assert budget.with_compute(5).compute == 5
        assert budget.with_memory(7).memory == 7
        assert budget.with_bandwidth(2.5).bandwidth_gbps == 2.5
        assert budget.compute == 10  # frozen original untouched


class TestAsicSpec:
    def test_budget_converts_sram_to_block_equivalents(self):
        spec = AsicSpec(
            name="edge-npu",
            mac_units=1024,
            onchip_buffer_kb=1024,
            bandwidth_gbps=25.6,
        )
        budget = spec.budget()
        assert budget.compute == 1024
        # 1 MiB of SRAM = 8 Mib / 18 Kib ~ 455 BRAM18K equivalents.
        assert budget.memory == (1024 * 1024 * 8) // (18 * 1024)

    def test_default_frequency(self):
        spec = AsicSpec("a", 1, 1, 1.0)
        assert spec.default_frequency_mhz > 0
