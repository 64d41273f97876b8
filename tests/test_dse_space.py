"""Tests for the design space: customization, GetPF, sizing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.space import Customization, DesignSpace, get_pf


class TestCustomization:
    def test_paper_decoder_customization(self):
        custom = Customization(batch_sizes=(1, 2, 2), priorities=(1.0, 1.0, 1.0))
        assert custom.batch_sizes == (1, 2, 2)

    def test_uniform_helper(self):
        custom = Customization.uniform(3, batch_size=2)
        assert custom.batch_sizes == (2, 2, 2)
        assert custom.priorities == (1.0, 1.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Customization(batch_sizes=(1, 2), priorities=(1.0,))

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            Customization(batch_sizes=(0,), priorities=(1.0,))

    def test_negative_priority_rejected(self):
        with pytest.raises(ValueError):
            Customization(batch_sizes=(1,), priorities=(-1.0,))

    @pytest.mark.parametrize("priority", [float("nan"), float("inf")])
    def test_non_finite_priority_rejected(self, priority):
        with pytest.raises(ValueError, match="finite"):
            Customization(batch_sizes=(1, 1), priorities=(1.0, priority))

    def test_validate_against_plan(self, decoder_plan):
        Customization.uniform(3).validate_for(decoder_plan)
        with pytest.raises(ValueError, match="branches"):
            Customization.uniform(2).validate_for(decoder_plan)


class TestGetPF:
    def test_balanced_channel_growth_first(self, decoder_plan):
        stage = decoder_plan.branches[1].stages[1].stage  # 256 -> 160
        cfg = get_pf(stage, 16)
        assert cfg.h == 1
        assert cfg.cpf * cfg.kpf >= 16
        # Balanced doubling keeps the two channel factors within 2x.
        assert max(cfg.cpf, cfg.kpf) <= 2 * min(cfg.cpf, cfg.kpf)

    def test_h_used_only_after_channels_saturate(self, decoder_plan):
        texture = decoder_plan.stage_by_name("texture").stage  # 16 -> 3
        cfg = get_pf(texture, 200)
        assert cfg.cpf == 16
        assert cfg.kpf == 3
        assert cfg.h > 1  # channels alone cap at 48

    def test_thin_layer_scales_past_channel_cap(self, decoder_plan):
        """The core F-CAD claim: H-partition rescues thin HD layers."""
        texture = decoder_plan.stage_by_name("texture").stage
        channel_cap = texture.cpf_max * texture.kpf_max
        cfg = get_pf(texture, 8 * channel_cap)
        assert cfg.pf >= 8 * channel_cap

    def test_snaps_to_non_pow2_caps(self, decoder_plan):
        stage = decoder_plan.stage_by_name("conv11").stage  # 32 -> 26
        cfg = get_pf(stage, stage.cpf_max * stage.kpf_max)
        assert cfg.kpf == 26 or cfg.cpf == 32

    def test_target_one_is_minimal(self, decoder_plan):
        stage = decoder_plan.branches[0].stages[0].stage
        assert get_pf(stage, 1).pf == 1

    def test_never_exceeds_dimension_caps(self, decoder_plan):
        for planned in decoder_plan.all_stages():
            stage = planned.stage
            cfg = get_pf(stage, 10**9)
            assert cfg.cpf <= stage.cpf_max
            assert cfg.kpf <= stage.kpf_max
            assert cfg.h <= stage.h_max

    @settings(max_examples=100, deadline=None)
    @given(target=st.integers(1, 1 << 22))
    def test_pf_reaches_target_or_saturates(self, decoder_plan, target):
        for planned in decoder_plan.all_stages()[:4]:
            stage = planned.stage
            cfg = get_pf(stage, target)
            if cfg.pf < target:
                # Saturated: every dimension at its cap.
                assert cfg.cpf == stage.cpf_max
                assert cfg.kpf == stage.kpf_max
                assert cfg.h == stage.h_max
            cfg.validate_for(planned)


class TestDesignSpace:
    def test_choices_are_legal(self, decoder_plan):
        space = DesignSpace(decoder_plan)
        choices = space.stage_choices(0, 0)  # conv1: 4 -> 128 @ 8x8
        assert choices["cpf"][-1] == 4
        assert choices["kpf"][-1] == 128
        assert choices["h"][-1] == 8

    def test_space_is_astronomically_large(self, decoder_plan):
        space = DesignSpace(decoder_plan)
        # The multi-branch dynamic space motivates the DSE engine: brute
        # force is out of the question.
        assert space.log2_size() > 100
