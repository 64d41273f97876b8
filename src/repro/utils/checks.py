"""Validation shared by the config objects."""

from __future__ import annotations

from numbers import Integral


def is_count(value: object, minimum: int = 1) -> bool:
    """An integer >= ``minimum`` (numpy integers too); a bool is not a
    count, and neither is a float, even a whole or NaN one."""
    return (
        isinstance(value, Integral)
        and not isinstance(value, bool)
        and value >= minimum
    )
