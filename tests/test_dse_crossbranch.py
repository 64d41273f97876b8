"""Tests for Algorithm 1: cross-branch stochastic search and fitness."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.construction.reorg import build_pipeline_plan
from repro.devices.fpga import get_device
from repro.dse import crossbranch, objective
from repro.dse.crossbranch import (
    CrossBranchOptimizer,
    Particle,
    _normalize_block,
    scan_global_best,
)
from repro.dse.cache import LocalEvalCache
from repro.dse.engine import DseEngine
from repro.dse.objective import BranchMetrics, PaperObjective
from repro.dse.space import Customization
from repro.dse.worker import GenerationEvaluator
from repro.models.codec_avatar import build_codec_avatar_decoder
from repro.models.variants import build_gan_decoder, build_modular_decoder
from repro.perf.estimator import evaluate
from repro.quant.schemes import INT8
from tests.conftest import compensated_sum, make_tiny_decoder


def paper_fitness(fps, priorities, alpha=0.05):
    metrics = BranchMetrics(fps=tuple(fps), meets_batch=(True,) * len(fps))
    return PaperObjective(alpha=alpha).score(metrics, tuple(priorities))


class TestFitness:
    def test_weighted_sum(self):
        assert paper_fitness([10.0, 20.0], (1.0, 1.0), alpha=0.0) == 30.0

    def test_priorities_weight_branches(self):
        low = paper_fitness([10.0, 20.0], (1.0, 1.0), alpha=0.0)
        high = paper_fitness([10.0, 20.0], (1.0, 2.0), alpha=0.0)
        assert high > low

    def test_variance_penalty(self):
        balanced = paper_fitness([15.0, 15.0], (1.0, 1.0), alpha=1.0)
        skewed = paper_fitness([5.0, 25.0], (1.0, 1.0), alpha=1.0)
        assert balanced > skewed

    def test_single_branch_no_variance(self):
        assert paper_fitness([10.0], (1.0,), alpha=5.0) == 10.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paper_fitness([1.0], (1.0, 1.0))


class TestNormalization:
    def test_normalize_sums_to_one(self):
        out = _normalize_block([3.0, 1.0, 0.0])
        assert sum(out) == pytest.approx(1.0)
        assert all(v > 0 for v in out)

    def test_floor_keeps_every_branch_nonzero(self):
        out = _normalize_block([100.0, 0.0])
        assert min(out) > 0.0
        assert max(out) < 1.0

    def test_block_sum_adds_left_to_right(self):
        # (0.1 + 0.2) + 0.3 == 0.6000000000000001, while a compensated sum
        # (Python 3.12's sum() of floats) gives 0.6: the same seed would
        # start a different swarm on 3.12.
        assert _normalize_block([0.1, 0.2, 0.3]) == [
            0.16666666666666666,
            0.3333333333333333,
            0.4999999999999999,
        ]


@pytest.fixture(scope="module")
def optimizer(decoder_plan):
    return CrossBranchOptimizer(
        plan=decoder_plan,
        budget=get_device("ZU9CG").budget(),
        customization=Customization(batch_sizes=(1, 2, 2), priorities=(1.0, 1.0, 1.0)),
        quant=INT8,
    )


class TestSwarm:
    def test_population_positions_are_normalized(self, optimizer):
        import random

        particles = optimizer.init_population(20, random.Random(0))
        assert len(particles) == 20
        B = optimizer.num_branches
        for particle in particles:
            for block in range(3):
                block_sum = sum(particle.position[block * B : (block + 1) * B])
                assert block_sum == pytest.approx(1.0)

    def test_heuristic_seed_tracks_demand(self, optimizer, decoder_plan):
        position = optimizer._heuristic_position()
        B = optimizer.num_branches
        compute = position[:B]
        # Br.2 (texture) dominates the decoder's compute.
        assert compute[1] == max(compute)

    def test_evaluate_returns_branch_solutions(self, optimizer):
        generation = GenerationEvaluator(optimizer.spec, LocalEvalCache())(
            [optimizer._heuristic_position()]
        )
        ((_, solutions),) = generation.designs
        assert len(solutions) == 3
        assert generation.scores[0] > 0  # heuristic split is feasible on ZU9CG

    def test_search_history_is_monotone(self, optimizer):
        _, _, history, _ = optimizer.search(
            iterations=5, population=20, seed=0
        )
        assert len(history) == 5
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_search_is_deterministic_per_seed(self, decoder_plan):
        def run(seed):
            opt = CrossBranchOptimizer(
                plan=decoder_plan,
                budget=get_device("ZU9CG").budget(),
                customization=Customization.uniform(3),
                quant=INT8,
            )
            fitness, config, _, _ = opt.search(
                iterations=3, population=15, seed=seed
            )
            return fitness, config

        assert run(7) == run(7)

    def test_best_config_respects_budget(self, optimizer, decoder_plan):
        _, config, _, _ = optimizer.search(iterations=4, population=20, seed=1)
        perf = evaluate(decoder_plan, config, INT8, 200.0)
        budget = get_device("ZU9CG").budget()
        assert perf.total_dsp <= budget.compute
        assert perf.total_bram <= budget.memory

    def test_batch_customization_honoured(self, optimizer):
        _, config, _, _ = optimizer.search(iterations=4, population=20, seed=1)
        assert [b.batch_size for b in config.branches] == [1, 2, 2]


def scalar_evolve(optimizer, particle, global_best, rng, B):
    """The per-particle PSO update: the scalar reference for the array ``evolve``."""
    for i in range(3 * B):
        r_local = rng.random()
        r_global = rng.random()
        particle.velocity[i] = (
            optimizer.inertia * particle.velocity[i]
            + optimizer.c_local * r_local * (particle.best_position[i] - particle.position[i])
            + optimizer.c_global * r_global * (global_best[i] - particle.position[i])
        )
        particle.position[i] += particle.velocity[i]
    for block in range(3):
        start, end = block * B, (block + 1) * B
        particle.position[start:end] = _normalize_block(particle.position[start:end])


def random_row(rng, width):
    # Positions can leave [0, 1] between updates, so some cells clip.
    return [rng.uniform(-0.5, 1.5) for _ in range(width)]


class TestArrayEvolve:
    @settings(max_examples=60, deadline=None)
    @given(
        P=st.integers(1, 40),
        B=st.integers(1, 4),
        inertia=st.floats(0.0, 1.5),
        c_local=st.floats(0.0, 3.0),
        c_global=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        generations=st.integers(1, 3),
    )
    def test_matches_the_per_particle_loop(
        self, decoder_plan, P, B, inertia, c_local, c_global, seed, generations
    ):
        # evolve takes the swarm's width from the arrays, so one optimizer
        # evolves swarms of any branch count.
        optimizer = CrossBranchOptimizer(
            plan=decoder_plan,
            budget=get_device("ZU9CG").budget(),
            customization=Customization.uniform(3),
            quant=INT8,
            inertia=inertia,
            c_local=c_local,
            c_global=c_global,
        )
        fill = random.Random(seed)
        particles = [
            Particle(
                position=random_row(fill, 3 * B),
                velocity=[fill.uniform(-1.0, 1.0) for _ in range(3 * B)],
                best_position=random_row(fill, 3 * B),
            )
            for _ in range(P)
        ]
        global_best = random_row(fill, 3 * B)
        positions = np.array([p.position for p in particles])
        velocities = np.array([p.velocity for p in particles])
        best_positions = np.array([p.best_position for p in particles])
        scalar_rng, array_rng = random.Random(seed), random.Random(seed)
        for _ in range(generations):
            for particle in particles:
                scalar_evolve(optimizer, particle, global_best, scalar_rng, B)
            optimizer.evolve(
                positions, velocities, best_positions, np.array(global_best), array_rng
            )
        assert positions.tolist() == [p.position for p in particles]
        assert velocities.tolist() == [p.velocity for p in particles]
        assert array_rng.getstate() == scalar_rng.getstate()


def full_scan(generations, best, tolerance):
    """The global-best scan over every particle of every generation."""
    winner, convergence = None, 0
    for iteration, scores in enumerate(generations):
        for index, score in enumerate(scores):
            if score > best + tolerance:
                best, winner, convergence = score, (iteration, index), iteration + 1
    return best, winner, convergence


def filtered_scan(generations, best, tolerance):
    """The same scan through :func:`scan_global_best`, as the search runs it."""
    winner, convergence = None, 0
    for iteration, scores in enumerate(generations):
        best, index = scan_global_best(scores, best, tolerance)
        if index >= 0:
            winner, convergence = (iteration, index), iteration + 1
    return best, winner, convergence


@st.composite
def scan_cases(draw):
    """Score vectors around one level: ties inside and outside the
    tolerance, repeats, -inf, inf and NaN, from a random starting best."""
    tolerance = draw(st.sampled_from([0.0, 1e-9, 0.25, 1.0]))
    level = draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    step = tolerance / 4 if tolerance else 1e-3
    near = st.integers(-8, 8).map(lambda k: level + k * step)
    special = st.sampled_from([-math.inf, math.inf, math.nan])
    score = st.one_of(near, near, special, st.floats(-1e6, 1e6))
    generations = draw(
        st.lists(st.lists(score, max_size=12), min_size=1, max_size=4)
    )
    best = draw(st.one_of(st.just(-math.inf), near, special))
    return generations, best, tolerance


class TestGlobalBestScan:
    @settings(max_examples=500, deadline=None)
    @given(scan_cases())
    def test_filtered_scan_picks_the_full_scans_winner(self, case):
        generations, best, tolerance = case
        got = filtered_scan(generations, best, tolerance)
        want = full_scan(generations, best, tolerance)
        assert repr(got[0]) == repr(want[0])
        assert got[1:] == want[1:]

    def test_ties_inside_the_tolerance_keep_the_first(self):
        # 2.5 beats the start by more than the tolerance, but not 2.0.
        assert scan_global_best([1.0, 1.0 + 1e-12, 2.0, 2.5], 0.0, 0.6) == (2.0, 2)
        assert scan_global_best([1.0, 1.0 + 1e-12], 0.0, 1e-9) == (1.0, 0)
        assert scan_global_best([math.nan, -math.inf], -math.inf, 0.0) == (-math.inf, -1)


class ConstantObjective:
    """Scores every candidate the same value (a broken custom objective)."""

    name = "constant"

    def __init__(self, value):
        self.value = value

    @property
    def key(self):
        return f"constant({self.value!r})"

    def score(self, metrics, priorities):
        return self.value


class TestNoScoringCandidate:
    @pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_search_fails_loudly(self, value):
        engine = DseEngine(
            plan=build_pipeline_plan(make_tiny_decoder()),
            budget=get_device("Z7045").budget(),
            quant=INT8,
        )
        with pytest.raises(ValueError, match="no candidate scored above -inf"):
            engine.search(
                iterations=2, population=4, objective=ConstantObjective(value)
            )


class TestSearchSizes:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(iterations=0), "iterations"),
            (dict(iterations=-3), "iterations"),
            (dict(population=0, heuristic_seed=False), "population"),
            (dict(population=0), "population"),
            # The global-best scan needs a best that only rises.
            (dict(improvement_tolerance=-1e-9), "improvement_tolerance"),
            (dict(improvement_tolerance=math.nan), "improvement_tolerance"),
        ],
    )
    def test_degenerate_sizes_raise_value_error(self, optimizer, kwargs, name):
        with pytest.raises(ValueError, match=name):
            optimizer.search(**{"iterations": 2, "population": 4, **kwargs})

    def test_engine_reports_the_same_error(self, decoder_plan):
        engine = DseEngine(
            plan=decoder_plan,
            budget=get_device("ZU9CG").budget(),
            quant=INT8,
        )
        with pytest.raises(ValueError, match="iterations"):
            engine.search(iterations=0, population=4)


#: (best_fitness, history, evaluations, cache_hits) per seed, captured
#: from the per-particle swarm and the Fraction-based variance that the
#: array update and the integer variance replaced. Both plans have more
#: than one branch, so the variance and the block sums take part.
PINNED_GAN_DECODER = {
    0: (67.68284745501457, (32.31281071849581, 55.26044333237223, 67.68284745501457), 94, 2),
    1: (67.68284745501457, (62.20832711946575, 67.68284745501457, 67.68284745501457), 94, 2),
    2: (67.68284745501457, (64.42014637286775, 67.68284745501457, 67.68284745501457), 94, 2),
}
PINNED_DECODER = {
    0: (147.39609126687515, (138.7779231418572, 147.39609126687515, 147.39609126687515), 141, 3),
    1: (154.2560612760144, (147.39609126687515, 154.2560612760144, 154.2560612760144), 141, 3),
    2: (132.71082014701324, (94.4589396803915, 132.71082014701324, 132.71082014701324), 141, 3),
}
#: The four-branch decoder, captured at 3.11 ``sum()`` semantics: at seed 0
#: a compensated weighted sum rounds the best fitness one bit higher.
PINNED_MODULAR_DECODER = {
    0: (871.7405921025827, (817.987092787244, 871.7405921025827, 871.7405921025827), 188, 4),
    1: (817.987092787244, (817.987092787244, 817.987092787244, 817.987092787244), 184, 8),
    2: (817.987092787244, (817.987092787244, 817.987092787244, 817.987092787244), 184, 8),
}

PINNED_CASES = [
    (build, seed, pins[seed])
    for build, pins in (
        (build_gan_decoder, PINNED_GAN_DECODER),
        (build_codec_avatar_decoder, PINNED_DECODER),
        (build_modular_decoder, PINNED_MODULAR_DECODER),
    )
    for seed in range(3)
]


class TestPinnedSearches:
    """N=3, P=16 searches on Z7045 give the values pinned before the rewrite."""

    @pytest.mark.parametrize("seed", range(3))
    def test_gan_decoder(self, seed):
        plan = build_pipeline_plan(build_gan_decoder())
        self.check(plan, seed, PINNED_GAN_DECODER[seed])

    @pytest.mark.parametrize("seed", range(3))
    def test_codec_avatar_decoder(self, decoder_plan, seed):
        self.check(decoder_plan, seed, PINNED_DECODER[seed])

    @pytest.mark.parametrize("seed", range(3))
    def test_modular_decoder(self, seed):
        plan = build_pipeline_plan(build_modular_decoder())
        self.check(plan, seed, PINNED_MODULAR_DECODER[seed])

    @pytest.mark.parametrize(
        "build, seed, pinned",
        PINNED_CASES,
        ids=[f"{build.__name__}-{seed}" for build, seed, _ in PINNED_CASES],
    )
    def test_pins_hold_under_a_compensated_sum(self, build, seed, pinned, monkeypatch):
        # The tier-1 matrix runs Python 3.10-3.12. A float ``sum()`` left in
        # scoring or the swarm would round differently on 3.12 and send the
        # search down another trajectory there.
        for module in (objective, crossbranch):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        self.check(build_pipeline_plan(build()), seed, pinned)

    @staticmethod
    def check(plan, seed, pinned):
        engine = DseEngine(plan=plan, budget=get_device("Z7045").budget(), quant=INT8)
        result = engine.search(iterations=3, population=16, seed=seed)
        assert (
            result.best_fitness,
            result.history,
            result.evaluations,
            result.cache_hits,
        ) == pinned


class TestEngine:
    def test_engine_end_to_end(self, decoder_plan):
        engine = DseEngine(
            plan=decoder_plan,
            budget=get_device("ZU17EG").budget(),
            customization=Customization(batch_sizes=(1, 2, 2), priorities=(1.0, 1.0, 1.0)),
            quant=INT8,
        )
        result = engine.search(iterations=4, population=25, seed=0)
        assert result.best_perf.fps > 0
        assert result.convergence_iteration <= result.iterations
        assert result.runtime_seconds > 0
        assert result.evaluations > 0

    def test_engine_requires_quant(self, decoder_plan):
        with pytest.raises(ValueError, match="quantization"):
            DseEngine(
                plan=decoder_plan,
                budget=get_device("ZU17EG").budget(),
                quant=None,
            )

    def test_priorities_shift_resources(self, decoder_plan):
        """Raising Br.1's priority should not lower its throughput."""
        budget = get_device("Z7045").budget()

        def run(priorities):
            engine = DseEngine(
                plan=decoder_plan,
                budget=budget,
                customization=Customization(
                    batch_sizes=(1, 1, 1), priorities=priorities
                ),
                quant=INT8,
            )
            return engine.search(iterations=5, population=30, seed=3)

        neutral = run((1.0, 1.0, 1.0))
        boosted = run((8.0, 0.5, 0.5))
        assert (
            boosted.best_perf.branches[0].fps
            >= neutral.best_perf.branches[0].fps
        )

    def test_render_mentions_branches(self, decoder_plan):
        engine = DseEngine(
            plan=decoder_plan,
            budget=get_device("ZU17EG").budget(),
            customization=Customization.uniform(3),
            quant=INT8,
        )
        result = engine.search(iterations=2, population=10, seed=0)
        text = result.render()
        assert "Br.1" in text and "Br.3" in text
