"""Serving layer: replicas, policies, sessions, SLOs, determinism."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.fpga import get_device
from repro.dse.objective import ServingOracle
from repro.fcad.flow import FCad
from repro.serving import (
    AvatarWorkload,
    GroupSpec,
    Replica,
    RequestTrace,
    nearest_rank,
    report_from_json,
    report_to_json,
    serve_trace,
)
from repro.sim.runner import FrameLatencyProfile
from tests.conftest import make_tiny_decoder

#: A hand-built latency model: 8 ms cold start, 4 ms/frame steady state —
#: one replica decodes at most 250 FPS once warm.
PROFILE = FrameLatencyProfile(
    finish_ms=(8.0, 12.0, 16.0),
    first_frame_ms=8.0,
    steady_interval_ms=4.0,
    frequency_mhz=200.0,
)


def group(replicas: int, max_batch: int, policy: str = "fifo", **knobs):
    """One group of ``PROFILE`` replicas, FIFO unless ``policy`` says."""
    return GroupSpec(
        "g", PROFILE, replicas=replicas, policy=policy, max_batch=max_batch,
        **knobs,
    )


def make_workload(**overrides) -> AvatarWorkload:
    defaults = dict(
        avatars=8,
        frames_per_avatar=10,
        frame_interval_ms=33.3,
        deadline_ms=40.0,
        jitter_ms=3.0,
        seed=0,
    )
    defaults.update(overrides)
    return AvatarWorkload(**defaults)


class TestFrameLatencyProfile:
    def test_sampled_from_simulator(self, tiny_plan):
        budget = get_device("Z7045").budget()
        from repro.arch.config import AcceleratorConfig

        config = AcceleratorConfig.uniform(tiny_plan)
        from repro.sim.runner import frame_latency_profile

        from repro.quant.schemes import INT8

        profile = frame_latency_profile(
            tiny_plan,
            config,
            quant=INT8,
            bandwidth_gbps=budget.bandwidth_gbps,
            frames=6,
        )
        assert len(profile.finish_ms) == 6
        # Completion times are monotonically increasing...
        assert list(profile.finish_ms) == sorted(profile.finish_ms)
        # ...and the cold first frame costs at least a steady interval.
        assert profile.first_frame_ms >= profile.steady_interval_ms > 0
        assert profile.steady_fps > 0

    def test_batch_finish_cold_vs_warm(self):
        cold = PROFILE.batch_finish_ms(100.0, 3)
        assert cold == (108.0, 112.0, 116.0)
        warm = PROFILE.batch_finish_ms(100.0, 3, warm=True)
        assert warm == (104.0, 108.0, 112.0)
        with pytest.raises(ValueError):
            PROFILE.batch_finish_ms(0.0, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"steady_interval_ms": math.nan},
            {"first_frame_ms": math.nan},
            {"steady_interval_ms": math.inf},
            {"steady_interval_ms": 0.0},
            {"steady_interval_ms": -4.0},
            {"first_frame_ms": -8.0},
            {"frequency_mhz": 0.0},
        ],
    )
    def test_invalid_latencies_rejected(self, bad):
        # Each one served a session without complaint: a NaN or infinite
        # latency reported a NaN p99, a zero steady interval served
        # everything at once, and negative ones ran as if they were real.
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(PROFILE, **bad)


class TestReplica:
    def test_warm_window_accounting(self):
        replica = Replica(0, PROFILE, max_batch=4)
        first = replica.service_times(0.0, 2)
        assert first == (8.0, 12.0)
        # Immediately following batch keeps the pipeline warm.
        second = replica.service_times(12.0, 2)
        assert second == (16.0, 20.0)
        # A long idle gap forces a fresh fill.
        third = replica.service_times(100.0, 1)
        assert third == (108.0,)
        assert replica.frames_served == 5
        assert replica.busy_ms == pytest.approx(12.0 + 8.0 + 8.0)
        # The warm window is closed: a batch starting exactly one steady
        # interval after the last finish is warm, one ulp later is cold.
        edge = Replica(0, PROFILE, max_batch=4)
        edge.last_finish_ms = 0.0
        steady = PROFILE.steady_interval_ms
        assert edge.preview_service(steady, 1) == PROFILE.batch_finish_ms(
            steady, 1, warm=True
        )
        late = math.nextafter(steady, math.inf)
        assert edge.preview_service(late, 1) == PROFILE.batch_finish_ms(late, 1)

    def test_batch_capacity_enforced(self):
        replica = Replica(0, PROFILE, max_batch=2)
        with pytest.raises(ValueError, match="capacity"):
            replica.service_times(0.0, 3)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_step_table_equals_the_scalar_reference(self, data):
        # Steady intervals whose multiples round (0.1, 1/3, 1e-3) and
        # start times far from zero make any reassociation of
        # ``base + j * steady`` show in the last bits.
        steady = data.draw(
            st.sampled_from([0.1, 1 / 3, 1e-3, 4.0, 16.7])
            | st.floats(1e-3, 50.0)
        )
        first = data.draw(st.sampled_from([steady, 8.0, 0.7]) | st.floats(1e-3, 100.0))
        profile = FrameLatencyProfile(
            finish_ms=(first,),
            first_frame_ms=first,
            steady_interval_ms=steady,
            frequency_mhz=200.0,
        )
        max_batch = data.draw(st.integers(1, 12))
        replica = Replica(0, profile, max_batch=max_batch)
        start = data.draw(st.sampled_from([0.0, 0.1, 1e6 + 0.1]) | st.floats(0.0, 1e7))
        largest = 0
        for _ in range(data.draw(st.integers(1, 10))):
            # Any size in any order, so the table grows mid-session.
            batch = data.draw(st.integers(1, max_batch))
            factor = data.draw(st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 4.0))
            replica.latency_factor = factor
            warm = start - replica.last_finish_ms <= steady
            expected = profile.batch_finish_ms(start, batch, warm=warm)
            if factor != 1.0:
                expected = tuple(start + (f - start) * factor for f in expected)
            largest = max(largest, batch)
            before = (
                replica.busy_ms,
                replica.frames_served,
                replica.batches_served,
                replica.last_finish_ms,
            )
            if data.draw(st.booleans()):
                # A crashing dispatch previews and charges nothing.
                assert replica.preview_service(start, batch) == expected
                assert before == (
                    replica.busy_ms,
                    replica.frames_served,
                    replica.batches_served,
                    replica.last_finish_ms,
                )
            else:
                assert replica.service_times(start, batch) == expected
                busy, frames, batches, _ = before
                assert replica.busy_ms == busy + (expected[-1] - start)
                assert replica.frames_served == frames + batch
                assert replica.batches_served == batches + 1
                assert replica.last_finish_ms == expected[-1]
            assert len(replica.steps) == largest
            # The next batch starts on the warm edge, one ulp past it,
            # or after an idle gap (from this start, until one is served).
            last = replica.last_finish_ms if replica.batches_served else start
            edge = last + steady
            start = data.draw(
                st.sampled_from([edge, math.nextafter(edge, math.inf)])
                | st.floats(0.0, 1e3).map(lambda gap: last + gap)
            )

    def test_step_table_grows_only_to_the_largest_batch(self, monkeypatch):
        # A cap of a million frames must not size the table: each
        # replica's table is as long as the largest batch it was asked.
        asked: dict[int, tuple[Replica, int]] = {}
        preview = Replica.preview_service

        def record(replica, start_ms, batch):
            _, largest = asked.get(id(replica), (replica, 0))
            asked[id(replica)] = (replica, max(largest, batch))
            return preview(replica, start_ms, batch)

        monkeypatch.setattr(Replica, "preview_service", record)
        report = serve_trace(
            group(replicas=2, max_batch=10**6),
            make_workload(
                avatars=8, frames_per_avatar=5, frame_interval_ms=2.0, jitter_ms=0.0
            ),
        )
        assert report.submitted == 40 and report.completed == 40
        assert len(asked) == 2
        assert max(largest for _, largest in asked.values()) > 1
        for replica, largest in asked.values():
            assert len(replica.steps) == largest <= 40

    def test_spec_reuse_across_sessions_is_clean(self):
        # Every session builds its replicas from scratch: running the same
        # workload twice on one spec reports identical SLOs both times.
        spec = group(replicas=2, max_batch=4)
        first = serve_trace(spec, make_workload())
        second = serve_trace(spec, make_workload())
        assert report_to_json(first) == report_to_json(second)


class TestPolicies:
    """Each policy's batch order, read off one replica batching two frames.

    Avatar 3's frame holds the replica from 0 to 8 ms while the other
    three queue; the policy picks the two that ride the next batch
    (finishing at 12 and 16 ms) and the one that waits (20 ms). Every
    avatar sends one frame, so ``per_avatar_p99_ms`` is that frame's
    latency.
    """

    #: (avatar, arrival ms, relative deadline ms), in arrival order.
    FRAMES = ((3, 0.0, 100.0), (1, 1.0, 50.0), (2, 3.0, 10.0), (0, 5.0, 100.0))

    def finish_order(self, policy: str) -> list[int]:
        avatar, arrival, rel = zip(*self.FRAMES)
        trace = RequestTrace(
            arrival_ms=np.array(arrival),
            avatar_id=np.array(avatar),
            deadline_rel_ms=np.array(rel),
            avatars=len(self.FRAMES),
            deadline_ms=100.0,
        )
        report = serve_trace(
            group(replicas=1, max_batch=2, policy=policy, batch_window_ms=0.0),
            trace,
        )
        finish = {a: t + report.per_avatar_p99_ms[a] for a, t, _ in self.FRAMES}
        return sorted(finish, key=finish.get)

    def test_fifo_orders_by_arrival(self):
        assert self.finish_order("fifo") == [3, 1, 2, 0]

    def test_edf_orders_by_deadline(self):
        assert self.finish_order("edf") == [3, 2, 1, 0]

    def test_edf_breaks_equal_deadlines_by_arrival(self):
        # Avatars 1 and 2 share the absolute deadline 7.0 through two
        # budgets, and the later frame's budget (4.0) was queued first:
        # the tie goes to the earlier arrival, not the first budget.
        self.FRAMES = ((3, 0.0, 4.0), (1, 1.0, 6.0), (2, 3.0, 4.0), (0, 5.0, 100.0))
        assert self.finish_order("edf") == [3, 1, 2, 0]

    def test_fair_serves_least_recently_served_avatars_first(self):
        # None of the waiting avatars has been served: ties go by id.
        assert self.finish_order("fair") == [3, 0, 1, 2]

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="known policies"):
            GroupSpec("g", PROFILE, policy="lifo")


class TestPercentiles:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]  # 1..100
        assert nearest_rank(samples, 50) == 50.0
        assert nearest_rank(samples, 95) == 95.0
        assert nearest_rank(samples, 99) == 99.0
        assert nearest_rank(samples, 100) == 100.0

    def test_small_sample(self):
        assert nearest_rank([7.0], 99) == 7.0
        assert nearest_rank([3.0, 9.0], 50) == 3.0
        assert nearest_rank([], 99) == 0.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)


class TestServingSession:
    def test_all_frames_served(self):
        report = serve_trace(group(replicas=2, max_batch=4), make_workload())
        assert report.completed == report.submitted == 80
        assert report.latency_p50_ms > 0
        assert report.latency_p99_ms >= report.latency_p95_ms
        assert report.latency_p95_ms >= report.latency_p50_ms
        assert report.throughput_fps > 0
        assert len(report.replica_utilization) == 2
        assert all(0 <= u <= 1 for u in report.replica_utilization)

    def test_group_max_batch_caps_every_batch(self):
        capped = serve_trace(
            group(replicas=2, max_batch=np.int64(2)), make_workload()
        )
        assert type(capped.max_batch) is int and capped.max_batch == 2
        assert capped.groups[0].max_batch == 2
        assert capped.mean_batch_size <= 2
        report_to_json(capped)

    def test_deterministic_at_same_seed(self):
        def run():
            return serve_trace(
                group(replicas=2, max_batch=4, policy="edf"), make_workload()
            )

        assert report_to_json(run()) == report_to_json(run())

    def test_seed_changes_workload(self):
        def run(seed):
            return serve_trace(
                group(replicas=2, max_batch=4), make_workload(seed=seed)
            )

        assert report_to_json(run(0)) != report_to_json(run(1))

    def test_saturated_pool_misses_deadlines(self):
        # Offered: 16 avatars x 30 FPS = 480 FPS against a single replica
        # that tops out at 250 FPS: the queue grows without bound and the
        # deadline-miss SLO must light up.
        report = serve_trace(
            group(replicas=1, max_batch=8),
            make_workload(avatars=16, frames_per_avatar=20),
        )
        assert report.completed == 320
        assert report.deadline_misses > 0
        assert report.miss_rate > 0.5
        assert max(report.replica_utilization) > 0.9

    def test_edf_beats_fifo_on_mixed_deadlines(self):
        # Moderate saturation with mixed SLO tiers: EDF reorders so the
        # tight-deadline frames go first while the loose ones still have
        # slack; FIFO makes the tight ones wait behind loose arrivals.
        workload = make_workload(
            avatars=14,
            frames_per_avatar=30,
            jitter_ms=8.0,
            deadline_ms=50.0,
            deadline_tiers=(20.0, 60.0),
        )

        def run(policy):
            return serve_trace(
                group(replicas=2, max_batch=8, policy=policy), workload
            )

        fifo, edf = run("fifo"), run("edf")
        assert fifo.completed == edf.completed == 420
        assert edf.deadline_misses < fifo.deadline_misses

    def test_batch_window_coalesces(self):
        workload = make_workload(jitter_ms=0.0)

        def run(window):
            return serve_trace(
                group(replicas=1, max_batch=8, batch_window_ms=window),
                workload,
            )

        eager, windowed = run(0.0), run(5.0)
        assert windowed.mean_batch_size > eager.mean_batch_size

    def test_report_json_roundtrip(self):
        report = serve_trace(
            group(replicas=2, max_batch=4, policy="fair"), make_workload()
        )
        clone = report_from_json(report_to_json(report))
        assert clone == report
        payload = report_to_json(report)
        assert '"miss_rate"' in payload and '"throughput_fps"' in payload

    def test_render_mentions_slos(self):
        report = serve_trace(
            group(replicas=1, max_batch=4), make_workload(avatars=2)
        )
        text = report.render()
        assert "p50/p95/p99" in text
        assert "deadline misses (@40 ms)" in text
        assert "replica utilization" in text

    def test_render_shows_router_and_shed_rows_only_when_they_act(self):
        def rows(report):
            return {
                line.split("|")[0].strip()
                for line in report.render().splitlines()
                if "|" in line
            }

        # One group never consults its router and here sheds nothing.
        quiet = serve_trace(
            group(replicas=1, max_batch=4), make_workload(avatars=2)
        )
        assert quiet.shed == 0 and len(quiet.groups) == 1
        assert not {"router", "shed"} & rows(quiet)
        # One group whose admission turns frames away shows the shed row.
        shedding = serve_trace(
            group(replicas=1, max_batch=4),
            make_workload(avatars=24, deadline_ms=10.0),
            admission=True,
        )
        assert shedding.shed > 0
        assert "shed" in rows(shedding) and "router" not in rows(shedding)
        # A cluster shows both, sheds or not.
        cluster = serve_trace(
            [
                group(replicas=1, max_batch=4),
                GroupSpec("h", PROFILE, replicas=1, max_batch=4),
            ],
            make_workload(avatars=2),
            router="least-loaded",
        )
        assert cluster.shed == 0
        assert {"router", "shed"} <= rows(cluster)

    def test_tiered_deadlines_labelled_as_tiers(self):
        report = serve_trace(
            group(replicas=1, max_batch=4),
            make_workload(avatars=2, deadline_tiers=(25.0, 100.0)),
        )
        assert report.deadline_tiers_ms == (25.0, 100.0)
        assert "@tiers 25/100 ms" in report.render()

    def test_saturation_workload_sizes_from_capacity(self):
        from repro.serving import saturation_workload

        workload = saturation_workload(PROFILE, replicas=2)
        # 0.85 * 2 replicas * 250 FPS / 30 FPS-per-avatar ~= 14 avatars.
        assert workload.avatars == 14
        assert workload.deadline_tiers == (20.0, 60.0)

    def test_oracle_workload_is_design_independent(self):
        # Unlike saturation_workload, the oracle's fleet must not depend
        # on any design profile — every DSE candidate sees the same traffic.
        workload = ServingOracle(avatars=12, frames_per_avatar=6).workload()
        assert workload.avatars == 12
        assert workload.frames_per_avatar == 6
        assert workload.frame_interval_ms == 1000.0 / 30.0
        assert (workload.deadline_ms, workload.seed) == (50.0, 0)

    def test_oracle_replay_from_bare_profile(self):
        oracle = ServingOracle(avatars=4, frames_per_avatar=5)
        report = oracle.replay(PROFILE)
        assert report.completed == oracle.workload().total_frames
        assert report.replicas == 2
        assert report.latency_p99_ms > 0

    def test_oracle_replay_serves_one_candidate_group(self):
        report = ServingOracle(
            avatars=4, frames_per_avatar=5, policy="fair"
        ).replay(PROFILE)
        (only,) = report.groups
        assert (only.name, only.policy, only.max_batch) == (
            "candidate", "fair", 8,
        )
        assert only.completed == report.completed

    def test_oracle_replay_deterministic(self):
        oracle = ServingOracle(avatars=4, frames_per_avatar=5)
        assert oracle.replay(PROFILE) == oracle.replay(PROFILE)


class TestOverload:
    """Pinned overload behavior: EDF degradation and load shedding."""

    def overload_workload(self, saturation):
        from repro.serving import saturation_workload

        return saturation_workload(PROFILE, replicas=1, saturation=saturation)

    def test_edf_degrades_past_overload_point(self):
        # EDF holds the line near capacity but collapses past ~1.2x
        # overload: the backlog hands every frame a stale deadline, and
        # the miss SLO must measure the cliff.
        def run(saturation):
            return serve_trace(
                group(replicas=1, max_batch=8, policy="edf"),
                self.overload_workload(saturation),
            )

        nominal, overloaded = run(0.85), run(1.3)
        assert nominal.miss_rate < 0.05
        assert overloaded.miss_rate > 0.5
        assert overloaded.latency_p99_ms > 4 * nominal.latency_p99_ms

    def test_shedding_bounds_accepted_p99_under_overload(self):
        # The same 1.5x-overload session with admission control: the
        # cluster refuses the excess (shed_rate lights up) and the
        # accepted requests keep a bounded p99 inside the deadline tiers.
        workload = self.overload_workload(1.5)

        def run(admission):
            return serve_trace(
                [GroupSpec("only", PROFILE, replicas=1, max_batch=8)],
                workload,
                admission=admission,
            )

        unshielded, shielded = run(None), run(True)
        assert unshielded.shed_rate == 0.0
        assert unshielded.latency_p99_ms > 100.0
        assert shielded.shed_rate > 0.1
        assert shielded.completed + shielded.shed == shielded.submitted
        # Accepted requests stay inside the workload's lax tier budget.
        assert shielded.latency_p99_ms <= max(workload.deadline_tiers)
        assert shielded.latency_p99_ms < unshielded.latency_p99_ms / 4


class TestExploredDesign:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        return FCad(
            network=make_tiny_decoder(),
            device=get_device("Z7045"),
            quant="int8",
        ).run(iterations=2, population=8, seed=0)

    def test_serving_group_from_result(self, tiny_result):
        spec = tiny_result.serving_group(replicas=3, sim_frames=4)
        assert spec.replicas == 3
        assert spec.profile.steady_interval_ms > 0

    def test_precomputed_profile_skips_resampling(self, tiny_result):
        spec = tiny_result.serving_group(profile=PROFILE)
        assert spec.profile is PROFILE

    def test_batch_replication_scales_capacity(self):
        # A design whose branches each run batch=2 replica pipelines
        # decodes twice as fast as the single-replica simulation ticks:
        # the serving capacity must agree with the simulator's own
        # steady-state measurement, which applies the same scaling.
        from repro.dse.space import Customization
        from repro.sim.runner import simulate

        batched = FCad(
            network=make_tiny_decoder(),
            device=get_device("Z7045"),
            quant="int8",
            customization=Customization(
                batch_sizes=(2, 2), priorities=(1.0, 1.0)
            ),
        ).run(iterations=2, population=8, seed=0)
        profile = batched.frame_latency_profile(frames=8)
        measured = simulate(
            plan=batched.plan,
            config=batched.dse.best_config,
            quant=batched.quant,
            bandwidth_gbps=batched.budget.bandwidth_gbps,
            frequency_mhz=batched.frequency_mhz,
            frames=8,
        )
        assert profile.steady_fps == pytest.approx(measured.fps, rel=0.05)

    def test_end_to_end_deterministic(self, tiny_result):
        def run():
            return serve_trace(
                tiny_result.serving_group(
                    replicas=2, policy="edf", sim_frames=4
                ),
                AvatarWorkload(
                    avatars=4,
                    frames_per_avatar=6,
                    frame_interval_ms=1000.0 / 30,
                    deadline_ms=50.0,
                ),
            )

        first, second = run(), run()
        assert report_to_json(first) == report_to_json(second)
        assert first.completed == 24
        # One design serves as one group of the design's replicas.
        (group,) = first.groups
        assert (group.name, group.policy, group.replicas) == (
            tiny_result.network_name, "edf", 2,
        )
