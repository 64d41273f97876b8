"""Write ``pins.json``: every workload's input and output digests per seed.

A run at a pinned seed fails its output check when its digests differ, so
any change to simulated results shows. Regenerate only from a commit whose
outputs are the reference, from the root of the checkout::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys

from run import PINS, import_program
from workloads import WORKLOADS, reset_process_state

SEEDS = range(20)


def main() -> int:
    pins: dict[str, dict[str, dict[str, str]]] = {}
    for name, workload in WORKLOADS.items():
        import_program()
        fixture = workload.setup()
        pins[name] = {}
        for seed in SEEDS:
            reset_process_state()
            outcome = workload.inspect(workload.run(fixture, seed), seed)
            if outcome.problems:
                print(f"{name} seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = {
                "input": outcome.input_digest,
                "output": outcome.output_digest,
            }
            print(f"{name} seed {seed}: {pins[name][str(seed)]}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
