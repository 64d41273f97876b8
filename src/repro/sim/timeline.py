"""ASCII timeline rendering of a simulation run.

Turns the recorded busy intervals of every stage into a Gantt-style
utilization chart — the quickest way to *see* pipeline fill, a bottleneck
stage running flat out while its neighbours starve, or a fork throttling a
branch::

    conv1  |#######..#..#..#..#..#..#..#..#..| 34%
    conv2  |.#################################| 97%
    out_a  |..###..###..###..###..###..###..#| 58%

Each column is one time bucket; the glyph encodes the stage's busy
fraction within the bucket (' ' idle, '.' < 50 %, ':' < 90 %, '#' busy).
"""

from __future__ import annotations

from repro.sim.stats import SimStats

_GLYPHS = ((0.90, "#"), (0.50, ":"), (1e-9, "."))

#: The narrowest timeline :func:`render_timeline` draws, in columns.
MIN_WIDTH = 8


def _bucket_glyph(busy_fraction: float) -> str:
    for threshold, glyph in _GLYPHS:
        if busy_fraction >= threshold:
            return glyph
    return " "


def render_timeline(stats: SimStats, width: int = 72) -> str:
    """Render the whole run as one utilization row per stage."""
    if width < MIN_WIDTH:
        raise ValueError(f"width must be >= {MIN_WIDTH}: {width}")
    total = stats.total_cycles
    if total <= 0:
        return "(empty simulation)"
    bucket = total / width
    name_width = max(len(name) for name in stats.stages) if stats.stages else 0

    lines = [
        f"timeline: {total:,.0f} cycles, {width} buckets of {bucket:,.0f}"
    ]
    for name, stage in stats.stages.items():
        busy = [0.0] * width
        for start, end in stage.busy_intervals:
            first = min(width - 1, int(start / bucket))
            last = min(width - 1, int(max(start, end - 1e-9) / bucket))
            for idx in range(first, last + 1):
                lo = max(start, idx * bucket)
                hi = min(end, (idx + 1) * bucket)
                busy[idx] += max(0.0, hi - lo)
        row = "".join(_bucket_glyph(b / bucket) for b in busy)
        overall = 100.0 * stage.busy_cycles / total
        lines.append(f"{name.ljust(name_width)} |{row}| {overall:3.0f}%")
    return "\n".join(lines)
