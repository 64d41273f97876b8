"""Benchmark harness configuration.

Every benchmark regenerates one table/figure of the paper at the paper's
own search sizes (N = 20 iterations, P = 200 candidates for DSE runs) and
prints the reproduced rows next to the published numbers. Run with::

    pytest benchmarks/ --benchmark-only -s

Each emitted table is also written to ``benchmarks/out/`` so CI can upload
the reproduced numbers as a build artifact.
"""

from __future__ import annotations

import re
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def _slug(title: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")


def emit(title: str, text: str) -> None:
    """Print a reproduced table (visible with -s) and archive it.

    The table also lands in ``benchmarks/out/<slug>.txt`` — the artifact
    dir CI uploads so every PR keeps its reproduced numbers.
    """
    print()
    print(f"### {title}")
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{_slug(title)}.txt").write_text(f"### {title}\n{text}\n")
