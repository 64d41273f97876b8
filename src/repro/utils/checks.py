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


def check_count(name: str, value: object, minimum: int = 1) -> int:
    """``value`` as an ``int``, if it :func:`is_count`; otherwise raise
    ``ValueError`` naming the parameter."""
    if not is_count(value, minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_real(name: str, value: object) -> None:
    """Raise ``TypeError`` naming the parameter unless ``value`` is a real
    number: a ``bool`` is a switch, not the number 0 or 1, and a string
    is not a number. Range checks are the caller's."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def check_finite(name: str, value: object, minimum: float = -math.inf) -> None:
    """Raise unless ``value`` is a finite real number >= ``minimum``.

    A ``bool`` or a string is not a number (``TypeError``); NaN, an
    infinity or a number below ``minimum`` is out of range
    (``ValueError``). Both messages name the parameter.
    """
    check_real(name, value)
    if not (math.isfinite(value) and value >= minimum):
        raise ValueError(
            f"{name} must be a finite number >= {minimum:g}, got {value!r}"
        )


def check_positive(name: str, value: object) -> None:
    """Raise unless ``value`` is a finite real number > 0.

    Raises as :func:`check_finite` does: ``TypeError`` for a ``bool`` or
    a non-number, ``ValueError`` for NaN, an infinity, zero or a
    negative number.
    """
    check_real(name, value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def check_flag(name: str, value: object) -> None:
    """Raise ``TypeError`` naming the parameter unless ``value`` is a
    ``bool``: a string such as ``"no"`` is truthy, and a number is not a
    switch."""
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a bool, got {value!r}")
