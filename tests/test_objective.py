"""Objective-layer unit tests: metrics, objectives, factories."""

from __future__ import annotations

import random
import statistics
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import objective
from repro.dse.objective import (
    INFEASIBILITY_PENALTY,
    BranchMetrics,
    CompositeObjective,
    PaperObjective,
    ServingOracle,
    SimOracle,
    SloObjective,
    make_objective,
    make_oracle,
    metrics_from_solutions,
    penalized_score,
    _pvariance,
    resolve_objective,
    resolve_oracle,
)
from tests.conftest import compensated_sum


def analytical(fps, meets=None):
    return BranchMetrics(
        fps=tuple(fps),
        meets_batch=tuple(meets) if meets is not None else (True,) * len(fps),
    )


def historical_weighted(fps, priorities):
    """The pinned fitness's weighted sum, as Python 3.10 and 3.11 added it.

    ``sum()`` added floats left to right there; 3.12 compensates.
    """
    weighted = 0.0
    for f, p in zip(fps, priorities):
        weighted += f * p
    return weighted


class TestBranchMetrics:
    def test_serving_fields_default_absent(self):
        metrics = analytical([10.0, 20.0])
        assert metrics.p99_ms is None
        assert metrics.deadline_miss_rate is None
        assert metrics.throughput_fps is None
        assert metrics.oracle == "analytical"

    def test_shortfall_counts_failed_branches(self):
        assert analytical([1.0, 2.0, 3.0], (True, False, False)).shortfall == 2
        assert analytical([1.0], (True,)).shortfall == 0

    def test_from_solutions(self):
        solutions = [
            SimpleNamespace(fps=30.0, meets_batch_target=True),
            SimpleNamespace(fps=90.0, meets_batch_target=False),
        ]
        metrics = metrics_from_solutions(solutions)
        assert metrics.fps == (30.0, 90.0)
        assert metrics.meets_batch == (True, False)


class TestPaperObjective:
    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            PaperObjective().score(analytical([1.0]), (1.0, 1.0))
        with pytest.raises(ValueError):
            PaperObjective().score(analytical([1.0, 2.0, 3.0]), (1.0, 1.0))

    def test_single_branch_has_zero_variance(self):
        # With one branch there is no imbalance to penalize, no matter
        # how heavy the penalty weight.
        assert PaperObjective(alpha=1e9).score(analytical([42.0]), (2.0,)) == 84.0

    def test_zero_priority_branches_still_count_in_variance(self):
        # A zero-priority branch contributes nothing to the weighted sum
        # but its FPS still unbalances the pipeline.
        score = PaperObjective(alpha=1.0).score(
            analytical([10.0, 30.0]), (0.0, 1.0)
        )
        assert score == 30.0 - statistics.pvariance([10.0, 30.0])
        # All-zero priorities: pure (negative) variance penalty.
        assert PaperObjective(alpha=1.0).score(
            analytical([10.0, 30.0]), (0.0, 0.0)
        ) == -statistics.pvariance([10.0, 30.0])

    def test_bit_identical_to_historical_formula_on_random_inputs(self):
        """PaperObjective is the Sec. VI-B1 fitness, bit for bit."""
        rng = random.Random(0)
        objective_cases = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            fps = [rng.uniform(0.0, 500.0) for _ in range(n)]
            priorities = tuple(rng.uniform(0.0, 4.0) for _ in range(n))
            alpha = rng.choice([0.0, 0.05, 0.5, 5.0, rng.random()])
            # The pre-refactor fitness_score implementation.
            weighted = historical_weighted(fps, priorities)
            variance = statistics.pvariance(fps) if len(fps) > 1 else 0.0
            old = weighted - alpha * variance
            new = PaperObjective(alpha=alpha).score(
                analytical(fps), priorities
            )
            assert new == old
            objective_cases += 1
        assert objective_cases == 300

    def test_key_carries_alpha(self):
        assert PaperObjective(alpha=0.5).key != PaperObjective(alpha=0.05).key


def outcome(fn, *args):
    """A float's exact bits, or the exception type a call raised."""
    try:
        return fn(*args).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


FINITE = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.floats(-500.0, 500.0),
    # Subnormals: below the smallest normal float, 2.2250738585072014e-308.
    st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True),
)
NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])


class TestIntegerVariance:
    """``_pvariance`` is ``statistics.pvariance``, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(FINITE, min_size=2, max_size=8))
    def test_matches_pvariance(self, values):
        assert outcome(_pvariance, values) == outcome(statistics.pvariance, values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(FINITE, min_size=1, max_size=7),
        NON_FINITE,
        st.integers(0, 7),
    )
    def test_non_finite_values_keep_pvariance_behaviour(self, values, bad, index):
        values.insert(min(index, len(values)), bad)
        assert outcome(_pvariance, values) == outcome(statistics.pvariance, values)

    def test_non_float_values_keep_pvariance_types(self):
        assert _pvariance([1, 3]) == 1 and type(_pvariance([1, 3])) is int

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(FINITE, min_size=2, max_size=8).flatmap(
            lambda fps: st.tuples(
                st.just(fps),
                st.lists(st.floats(0.0, 4.0), min_size=len(fps), max_size=len(fps)),
            )
        ),
        st.sampled_from([0.0, 0.05, 0.5, 5.0]),
    )
    def test_paper_score_matches_historical_formula(self, case, alpha):
        fps, priorities = case

        def historical():
            weighted = historical_weighted(fps, priorities)
            return weighted - alpha * statistics.pvariance(fps)

        def score():
            return PaperObjective(alpha=alpha).score(analytical(fps), tuple(priorities))

        assert outcome(score) == outcome(historical)


class TestSloObjective:
    def test_scores_serving_metrics(self):
        metrics = BranchMetrics(
            fps=(30.0,),
            meets_batch=(True,),
            oracle="serving",
            p99_ms=12.5,
            deadline_miss_rate=0.1,
            throughput_fps=300.0,
        )
        assert SloObjective(miss_weight=1000.0).score(metrics, (1.0,)) == -(
            12.5 + 1000.0 * 0.1
        )

    def test_lower_p99_scores_higher(self):
        fast = BranchMetrics((30.0,), (True,), "serving", p99_ms=5.0,
                             deadline_miss_rate=0.0)
        slow = BranchMetrics((30.0,), (True,), "serving", p99_ms=40.0,
                             deadline_miss_rate=0.2)
        slo = SloObjective()
        assert slo.score(fast, (1.0,)) > slo.score(slow, (1.0,))

    def test_falls_back_to_paper_proxy_on_analytical_metrics(self):
        metrics = analytical([10.0, 30.0])
        priorities = (1.0, 2.0)
        assert SloObjective(fallback_alpha=0.5).score(
            metrics, priorities
        ) == PaperObjective(alpha=0.5).score(metrics, priorities)


class TestCompositeObjective:
    def test_weights_are_normalized(self):
        metrics = analytical([10.0, 20.0])
        priorities = (1.0, 1.0)
        heavy = CompositeObjective(
            parts=((PaperObjective(), 2.0), (SloObjective(), 2.0))
        )
        light = CompositeObjective(
            parts=((PaperObjective(), 0.5), (SloObjective(), 0.5))
        )
        assert heavy.parts[0][1] == pytest.approx(0.5)
        assert sum(w for _, w in heavy.parts) == pytest.approx(1.0)
        assert heavy.score(metrics, priorities) == pytest.approx(
            light.score(metrics, priorities)
        )

    def test_single_part_scores_like_the_part(self):
        metrics = analytical([15.0, 45.0])
        priorities = (1.0, 1.0)
        composite = CompositeObjective(parts=((PaperObjective(), 7.0),))
        assert composite.parts[0][1] == pytest.approx(1.0)
        assert composite.score(metrics, priorities) == pytest.approx(
            PaperObjective().score(metrics, priorities)
        )

    def test_blend_adds_left_to_right_under_a_compensated_sum(self, monkeypatch):
        # Python 3.12's ``sum()`` would round a blend of three or more
        # parts differently from 3.10 and 3.11.
        monkeypatch.setattr(objective, "sum", compensated_sum, raising=False)
        rng = random.Random(0)
        for _ in range(200):
            parts = [
                (PaperObjective(alpha=rng.random()), rng.uniform(0.1, 3.0))
                for _ in range(rng.randint(3, 5))
            ]
            composite = CompositeObjective(parts=tuple(parts))
            total = 0.0
            for _, weight in parts:
                total += weight
            assert composite.parts == tuple((part, w / total) for part, w in parts)
            fps = [rng.uniform(0.0, 500.0) for _ in range(3)]
            metrics, priorities = analytical(fps), (1.0, 2.0, 0.5)
            expected = 0.0
            for part, weight in composite.parts:
                expected += weight * part.score(metrics, priorities)
            assert composite.score(metrics, priorities) == expected

    def test_empty_and_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            CompositeObjective(parts=())
        with pytest.raises(ValueError):
            CompositeObjective(parts=((PaperObjective(), 0.0),))
        with pytest.raises(ValueError):
            CompositeObjective(
                parts=((PaperObjective(), 1.0), (SloObjective(), -2.0))
            )


class TestPenalizedScore:
    def test_subtracts_penalty_per_failed_branch(self):
        metrics = analytical([10.0, 20.0], (False, False))
        raw = PaperObjective().score(metrics, (1.0, 1.0))
        assert penalized_score(
            PaperObjective(), metrics, (1.0, 1.0)
        ) == raw - 2 * INFEASIBILITY_PENALTY


class TestFactories:
    def test_make_objective_names(self):
        assert isinstance(make_objective("paper"), PaperObjective)
        assert isinstance(make_objective("slo"), SloObjective)
        assert isinstance(make_objective("composite"), CompositeObjective)
        with pytest.raises(ValueError):
            make_objective("nope")

    def test_make_objective_threads_alpha(self):
        assert make_objective("paper", alpha=0.7).alpha == 0.7
        assert make_objective("slo", alpha=0.7).fallback_alpha == 0.7

    def test_make_oracle_names(self):
        assert make_oracle("none") is None
        assert isinstance(make_oracle("sim"), SimOracle)
        assert isinstance(make_oracle("serving"), ServingOracle)
        # Stage 1 is no re-rank oracle, so "analytical" is no oracle name.
        for name in ("quantum", "analytical"):
            with pytest.raises(ValueError):
                make_oracle(name)

    def test_resolvers_pass_instances_through(self):
        paper = PaperObjective(alpha=0.2)
        assert resolve_objective(paper) is paper
        assert resolve_objective(None, alpha=0.3).alpha == 0.3
        assert resolve_objective("slo").name == "slo"
        oracle = SimOracle()
        assert resolve_oracle(oracle) is oracle
        assert resolve_oracle(None) is None
        assert resolve_oracle("none") is None

    def test_oracle_keys_distinguish_parameters(self):
        assert SimOracle(frames=6).key != SimOracle(frames=8).key
        assert (
            ServingOracle(avatars=16).key != ServingOracle(avatars=32).key
        )
