"""Validation shared by the config objects."""

from __future__ import annotations

import math
from numbers import Integral, Real


def is_count(value: object, minimum: int = 1) -> bool:
    """An integer >= ``minimum`` (numpy integers too); a bool is not a
    count, and neither is a float, even a whole or NaN one."""
    return (
        isinstance(value, Integral)
        and not isinstance(value, bool)
        and value >= minimum
    )


def check_finite(name: str, value: object, minimum: float = -math.inf) -> None:
    """Raise unless ``value`` is a finite real number >= ``minimum``.

    A ``bool`` or a string is not a number (``TypeError``); NaN, an
    infinity or a number below ``minimum`` is out of range
    (``ValueError``). Both messages name the parameter.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value >= minimum):
        raise ValueError(
            f"{name} must be a finite number >= {minimum:g}, got {value!r}"
        )
