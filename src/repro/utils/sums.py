"""Float sums that round the same on every supported Python."""

from __future__ import annotations

from typing import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, starting from ``0.0``.

    Not ``sum()``: Python 3.12 made ``sum()`` of floats compensated, so a
    search score or a serving report built with it would round
    differently per Python. On 3.10 and 3.11 the two agree bit for bit.
    """
    total = 0.0
    for value in values:
        total += value
    return total
