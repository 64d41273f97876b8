#!/usr/bin/env python
"""Serve a multi-avatar telepresence call on simulated accelerator replicas.

The full production story in one script:

1. **design time** — F-CAD explores an accelerator for the codec avatar
   decoder on a headset-class budget;
2. **deploy** — N simulated replicas of the found design are stood up,
   each driven by the cycle-accurate simulator's fill/steady-state
   per-frame latency model;
3. **serve** — a group call's worth of avatars stream frames concurrently:
   the active speakers need tight decode deadlines (their faces are on
   everyone's screen), the listeners tolerate more. The serving engine
   batches requests onto free replicas under three policies, and the SLO
   report shows what each policy did to tail latency and deadline misses;
4. **scale** — a flash crowd thousands of avatars strong served with
   autoscaling: the fleet grows through the spike, pays the cold-fill
   warm-up, and drains back down.

Everything runs in simulated session time, so the whole session is
deterministic and finishes in seconds of wall time.

Usage:  python examples/serve_avatars.py [--avatars 12] [--replicas 2]
"""

from __future__ import annotations

import argparse

from repro import FCad, get_device
from repro.models.codec_avatar import build_codec_avatar_decoder
from repro.serving import AutoscalePolicy, AvatarWorkload, make_trace, serve_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--avatars",
        type=int,
        default=5,
        help="concurrent avatars (default 5 — ~80%% of two-replica "
        "capacity; raise it to watch the SLOs collapse)",
    )
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--frames", type=int, default=24, help="per avatar")
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--population", type=int, default=24)
    parser.add_argument(
        "--scale-avatars",
        type=int,
        default=3000,
        help="flash-crowd size for the autoscaled session",
    )
    args = parser.parse_args()

    # --- design time --------------------------------------------------
    design = FCad(
        network=build_codec_avatar_decoder(),
        device=get_device("ZU9CG"),
        quant="int8",
    ).run(iterations=args.iterations, population=args.population, seed=0)
    profile = design.frame_latency_profile(frames=8)
    print(
        f"designed accelerator: {design.fps:.1f} FPS steady decode rate\n"
        f"per replica: first frame {profile.first_frame_ms:.2f} ms (cold "
        f"fill), then one per {profile.steady_interval_ms:.2f} ms\n"
        f"fleet capacity: ~{args.replicas * profile.steady_fps:.0f} FPS "
        f"across {args.replicas} replicas"
    )

    # --- the call -----------------------------------------------------
    # Speakers (every 3rd avatar) get a 20 ms decode budget; listeners 60.
    workload = AvatarWorkload(
        avatars=args.avatars,
        frames_per_avatar=args.frames,
        frame_interval_ms=1000.0 / 30.0,
        deadline_ms=50.0,
        deadline_tiers=(20.0, 60.0, 60.0),
        jitter_ms=8.0,
        seed=0,
    )
    offered = args.avatars * 30.0
    print(
        f"\ncall: {args.avatars} avatars x 30 FPS = {offered:.0f} FPS "
        f"offered, deadlines 20 ms (speakers) / 60 ms (listeners)\n"
    )

    for policy in ("fifo", "edf", "fair"):
        group = design.serving_group(
            name="call", replicas=args.replicas, policy=policy, max_batch=8,
            profile=profile,
        )
        report = serve_trace(group, workload)
        print(report.render())
        print()

    # --- a flash crowd, autoscaled ------------------------------------
    # Thousands of avatars pile into the session over a few hundred
    # milliseconds; the autoscaler grows the fleet through the spike
    # (each new replica pays its cold fill) and drains it afterwards.
    crowd = args.scale_avatars
    trace = make_trace(
        crowd,
        20.0,
        shape="flash",
        avatar_fps=2.0,
        deadline_ms=100.0,
        jitter_ms=50.0,
        seed=0,
    )
    report = serve_trace(
        design.serving_group(
            name="fleet", replicas=args.replicas, policy="edf",
            profile=profile,
        ),
        trace,
        admission=True,
        autoscale=AutoscalePolicy(
            check_interval_ms=500.0, warmup_ms=1000.0, max_replicas=32
        ),
    )
    print(
        f"flash crowd: {crowd} avatars, {report.submitted} requests — "
        f"fleet {args.replicas} -> peak {report.peak_replicas} replicas "
        f"(+{report.scale_ups}/-{report.scale_downs})"
    )
    print(report.render())


if __name__ == "__main__":
    main()
