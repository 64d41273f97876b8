"""Tests for the ablation drivers and the max-parallelism customization."""

from __future__ import annotations

import pytest

from repro.devices.budget import ResourceBudget
from repro.dse.inbranch import optimize_branch
from repro.dse.space import Customization, get_pf
from repro.experiments.ablations import (
    run_ablation_alpha,
    run_ablation_parallelism,
    run_ablation_search,
)
from repro.quant.schemes import INT8


class TestMaxParallelismConstraints:
    def test_max_h_caps_h(self, decoder_plan):
        texture = decoder_plan.stage_by_name("texture").stage
        cfg = get_pf(texture, 10**6, max_h=1)
        assert cfg.h == 1
        cfg = get_pf(texture, 10**6, max_h=4)
        assert cfg.h <= 4

    def test_max_pf_caps_product(self, decoder_plan):
        stage = decoder_plan.branches[0].stages[2].stage
        cfg = get_pf(stage, 10**6, max_pf=64)
        assert cfg.pf <= 128  # one ladder step above the cap at most
        assert cfg.pf >= 64 or (
            cfg.cpf == stage.cpf_max and cfg.kpf == stage.kpf_max
        )

    def test_customization_validates_constraints(self):
        with pytest.raises(ValueError):
            Customization(batch_sizes=(1,), priorities=(1.0,), max_h=0)
        with pytest.raises(ValueError):
            Customization(batch_sizes=(1,), priorities=(1.0,), max_pf=0)

    def test_inbranch_respects_max_h(self, decoder_plan):
        budget = ResourceBudget(compute=2000, memory=1500, bandwidth_gbps=12.8)
        free = optimize_branch(decoder_plan.branches[1], budget, 1, INT8)
        capped = optimize_branch(
            decoder_plan.branches[1], budget, 1, INT8, max_h=1
        )
        assert all(cfg.h == 1 for cfg in capped.config.stages)
        assert capped.fps <= free.fps


class TestAblationDrivers:
    @pytest.fixture(scope="class")
    def parallelism(self):
        return run_ablation_parallelism(iterations=4, population=25)

    def test_3d_beats_2d(self, parallelism):
        assert parallelism.full_3d.fps > parallelism.two_level.fps
        assert parallelism.texture_speedup > 1.5

    def test_2d_configs_have_h_one(self, parallelism):
        # The decoder FPS under 2-D mirrors DNNBuilder's saturation story.
        assert parallelism.two_level.fps < 0.6 * parallelism.full_3d.fps

    def test_parallelism_render(self, parallelism):
        assert "H-partition" in parallelism.render()

    def test_search_fitnesses_pinned_at_the_defaults(self):
        # Every strategy evaluates its candidates through one generation
        # evaluator; these are the per-candidate loop's results, bit for bit.
        result = run_ablation_search()
        assert result.fitness == {
            "PSO (Algorithm 1)": 342.9298077790149,
            "random sampling": 334.42019760554194,
            "heuristic split only": 185.4344865811813,
        }

    def test_search_strategies_ordered(self):
        result = run_ablation_search(iterations=3, population=20)
        assert (
            result.fitness["PSO (Algorithm 1)"]
            >= result.fitness["random sampling"]
        )
        assert "strategy" in result.render()

    def test_alpha_reduces_variance(self):
        result = run_ablation_alpha(
            alphas=(0.0, 0.5), iterations=4, population=25
        )
        assert result.variance(1) <= result.variance(0)
        assert "alpha" in result.render()
