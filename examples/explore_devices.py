#!/usr/bin/env python
"""Sweep devices and precisions — the paper's Table IV scenario.

Explores accelerators for the decoder across three embedded FPGAs at 8- and
16-bit precision, with the VR customization {1, 2, 2}, and prints one
summary row per case: who meets 90 FPS, at what hardware efficiency, with
what device utilization.

The six cases run as ONE batch (`run_sweep`). Cache entries are per
spec, so each case solves its own budget buckets; cases with the same
network, quantization and frequency share the Algorithm-2 ladders (the
three devices at one precision here). Per-case results are
bit-identical to running each case alone, so batching is purely a
wall-clock knob. `run_sweep(..., workers=2)` runs the cases on two
forked processes, with the same results.

Usage:  python examples/explore_devices.py [--iterations N] [--population P]
"""

from __future__ import annotations

import argparse

from repro import Customization, FCad, build_codec_avatar_decoder, get_device
from repro.fcad.flow import run_sweep
from repro.utils.tables import render_table

DEVICES = ("Z7045", "ZU17EG", "ZU9CG")
QUANTS = ("int8", "int16")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--population", type=int, default=80)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    decoder = build_codec_avatar_decoder()
    customization = Customization(
        batch_sizes=(1, 2, 2), priorities=(1.0, 1.0, 1.0)
    )
    # One grid list drives both the flows and the table labels, so rows can
    # never get attributed to the wrong case.
    grid = [(get_device(d), q) for d in DEVICES for q in QUANTS]
    flows = [
        FCad(network=decoder, device=device, quant=quant,
             customization=customization)
        for device, quant in grid
    ]
    results = run_sweep(
        flows,
        iterations=args.iterations,
        population=args.population,
        seed=args.seed,
    )

    rows = []
    for (device, _), result in zip(grid, results):
        perf = result.dse.best_perf
        rows.append(
            [
                device.name,
                result.quant.name,
                f"{perf.fps:.1f}",
                "yes" if perf.fps >= 90.0 else "no",
                f"{100 * perf.overall_efficiency:.1f}",
                f"{perf.total_dsp}/{device.dsp}",
                f"{perf.total_bram}/{device.bram_18k}",
                f"{result.dse.runtime_seconds:.1f}",
                f"{100 * result.dse.cache_hit_rate:.0f}",
            ]
        )

    print(
        render_table(
            [
                "device",
                "quant",
                "FPS",
                "VR-ready",
                "eff %",
                "DSP",
                "BRAM",
                "DSE s",
                "cache %",
            ],
            rows,
            title="Decoder accelerators across devices and precisions",
        )
    )
    total_evals = sum(r.dse.evaluations for r in results)
    total_hits = sum(r.dse.cache_hits for r in results)
    print(
        f"\n{len(results)} cases: "
        f"{total_evals} in-branch solves, {total_hits} cache hits"
    )


if __name__ == "__main__":
    main()
