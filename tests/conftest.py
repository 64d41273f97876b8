"""Shared fixtures: reference networks, plans, small test graphs, and
the explored designs the serving tests deploy."""

from __future__ import annotations

import builtins
import math

import pytest

from repro.construction.reorg import build_pipeline_plan
from repro.devices.budget import ResourceBudget
from repro.dse.objective import PaperObjective, metrics_from_solutions, penalized_score
from repro.dse.worker import quantize_rd, solve_bucket
from repro.ir.builder import GraphBuilder
from repro.ir.layer import BiasMode, TensorShape
from repro.models.benchmarks import build_alexnet, build_tiny_yolo, build_vgg16
from repro.models.codec_avatar import build_codec_avatar_decoder
from repro.models.mimic import build_mimic_decoder
from repro.serving import AvatarWorkload, GroupSpec
from repro.sim.runner import FrameLatencyProfile


@pytest.fixture(scope="session")
def decoder_graph():
    return build_codec_avatar_decoder()

@pytest.fixture(scope="session")
def mimic_graph():
    return build_mimic_decoder()


@pytest.fixture(scope="session")
def decoder_plan(decoder_graph):
    return build_pipeline_plan(decoder_graph)


@pytest.fixture(scope="session")
def mimic_plan(mimic_graph):
    return build_pipeline_plan(mimic_graph)


@pytest.fixture(scope="session")
def alexnet_graph():
    return build_alexnet()


@pytest.fixture(scope="session")
def vgg16_graph():
    return build_vgg16()


@pytest.fixture(scope="session")
def tiny_yolo_graph():
    return build_tiny_yolo()


def make_tiny_decoder(
    untied: bool = True, base: int = 4, channels: int = 8
) -> "NetworkGraph":
    """A miniature two-branch decoder with a shared front part.

    Structure mirrors the real decoder (shared CAU front, one HD-ish branch
    and one lightweight branch) at toy sizes so tests stay fast.
    """
    bias = BiasMode.UNTIED if untied else BiasMode.TIED
    b = GraphBuilder("tiny_decoder")
    z = b.input("z", TensorShape(channels, base, base))
    shared = b.cau_block(z, out_channels=2 * channels, kernel=3, bias=bias)
    big = b.cau_block(shared, out_channels=channels, kernel=3, bias=bias)
    b.conv(big, out_channels=3, kernel=3, bias=bias, name="texture")
    b.conv(shared, out_channels=2, kernel=3, bias=bias, name="warp")
    graph = b.graph
    graph.validate()
    return graph


#: ``result_to_dict`` keys that hold host timings.
HOST_TIME_KEYS = frozenset(
    {
        "runtime_seconds",
        "eval_seconds",
        "cache_seconds",
        "overhead_seconds",
        "ladder_seconds",
        "growth_seconds",
        "measure_seconds",
    }
)


def compensated_sum(values, start=0):
    """``sum()`` that adds floats compensated, as Python 3.12's does.

    ``math.fsum`` rounds once, which is what 3.12's ``sum()`` gives on
    short lists; integer sums are left to the builtin. Patched into a
    module, it shows whether a result would move on 3.12.
    """
    values = list(values)
    if any(type(v) is float for v in values):
        return math.fsum([start, *values])
    return builtins.sum(values, start)


def scalar_generation(spec, positions, cache, objective=None):
    """The per-candidate reference for one generation of positions.

    Each candidate's keys come from :func:`quantize_rd` of its absolute
    branch budgets, each key the cache lacks is solved by the scalar
    Algorithm 2 (:func:`solve_bucket`) and charged to this candidate, and
    the candidate is scored by ``penalized_score`` on
    ``metrics_from_solutions``. Returns one ``(score, metrics, solutions,
    evaluations, cache_hits)`` row per position.
    """
    objective = objective if objective is not None else PaperObjective()
    budget = spec.budget
    B = spec.plan.num_branches
    rows = []
    for position in positions:
        solutions = []
        evaluations = 0
        for j in range(B):
            bucket = quantize_rd(
                ResourceBudget(
                    compute=int(budget.compute * position[j]),
                    memory=int(budget.memory * position[B + j]),
                    bandwidth_gbps=budget.bandwidth_gbps * position[2 * B + j],
                )
            )
            key = (spec.digest, j, bucket)
            solution = cache.get(key)
            if solution is None:
                solution = solve_bucket(spec, j, bucket)
                cache.put(key, solution)
                evaluations += 1
            solutions.append(solution)
        metrics = metrics_from_solutions(solutions)
        score = penalized_score(objective, metrics, spec.customization.priorities)
        rows.append((score, metrics, tuple(solutions), evaluations, B - evaluations))
    return rows


def make_chain(depth: int = 3, channels: int = 8, size: int = 16):
    """A simple single-branch conv chain."""
    b = GraphBuilder("chain")
    x = b.input("x", TensorShape(3, size, size))
    for _ in range(depth):
        x = b.conv(x, out_channels=channels, kernel=3, bias=BiasMode.TIED)
        x = b.act(x, fn="relu")
    graph = b.graph
    graph.validate()
    return graph


@pytest.fixture()
def tiny_decoder():
    return make_tiny_decoder()


@pytest.fixture()
def tiny_plan():
    return build_pipeline_plan(make_tiny_decoder())


@pytest.fixture()
def chain_graph():
    return make_chain()


#: The explored codec-avatar design on ZU9CG at int8 with per-branch
#: batch 1: ``FCad(...).run(iterations=5, population=40, seed=0,
#: workers=1).frame_latency_profile(frames=8)``. Kept literal, so a later
#: DSE change cannot move what the serving tests built on it check.
EXPLORED_BATCH1 = FrameLatencyProfile(
    finish_ms=(
        14.923048602150539, 25.43952860215054, 35.95600860215054,
        46.47248860215054, 56.988968602150536, 67.50544860215054,
        78.02192860215054, 88.53840860215053,
    ),
    first_frame_ms=14.923048602150539,
    steady_interval_ms=10.516479999999998,
    frequency_mhz=200.0,
)

#: The same search at per-branch batch 2: twice the cold fill, the same
#: steady rate.
EXPLORED_BATCH2 = FrameLatencyProfile(
    finish_ms=(
        26.93516860215054, 47.968128602150536, 69.00108860215055,
        90.03404860215053, 111.06700860215052, 132.09996860215054,
        153.13292860215054, 174.16588860215052,
    ),
    first_frame_ms=26.93516860215054,
    steady_interval_ms=10.51648,
    frequency_mhz=200.0,
)


def two_tier_groups(replicas: int) -> list[GroupSpec]:
    """One batch-1 EDF replica for the tight tier, the rest batch-2 FIFO."""
    return [
        GroupSpec(
            "latency", EXPLORED_BATCH1, replicas=1, policy="edf",
            batch_window_ms=0.0, max_batch=4,
        ),
        GroupSpec(
            "throughput", EXPLORED_BATCH2, replicas=replicas - 1,
            policy="fifo", batch_window_ms=4.0, max_batch=8,
        ),
    ]


def two_tier_workload(saturation: float, replicas: int) -> AvatarWorkload:
    """Mixed-deadline avatars offering ``saturation`` of a batch-1 fleet.

    The tight budget, the batch-1 cold fill plus 15 ms, sits between the
    two designs' unloaded latencies, so only the batch-1 design can meet
    it. One tight tier among ``ceil(avatars / 3)`` pins the tight fleet
    at 3 avatars, which one batch-1 replica can carry.
    """
    capacity_fps = replicas * EXPLORED_BATCH1.steady_fps
    avatars = max(4, round(saturation * capacity_fps / 30.0))
    tight_ms = round(EXPLORED_BATCH1.first_frame_ms + 15.0, 1)
    tiers = (tight_ms,) + (2.0 * tight_ms,) * (math.ceil(avatars / 3) - 1)
    return AvatarWorkload(
        avatars=avatars,
        frames_per_avatar=60,
        frame_interval_ms=1000.0 / 30.0,
        deadline_ms=50.0,
        deadline_tiers=tiers,
        jitter_ms=8.0,
    )
