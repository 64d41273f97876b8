"""The batch-selection policies, by name.

A policy answers one question: given a group's queue, which (at most
``limit``) frames ride the next batch onto a freed replica? The serving
engine (:mod:`repro.serving.engine`) implements each one, and every
choice is deterministic, ties included.

- ``fifo``     — arrival order; the baseline every serving system starts at.
- ``edf``      — earliest absolute deadline first; classic real-time
  scheduling, minimizes deadline misses when the system is saturated.
- ``fair``     — per-avatar round-robin (least-recently-served avatar
  first, FIFO within an avatar), so one chatty avatar cannot starve the
  rest of a session.
"""

from __future__ import annotations

#: The policy names a group may ask for.
POLICIES = ("fifo", "edf", "fair")


def list_policies() -> list[str]:
    """Names of the scheduling policies."""
    return sorted(POLICIES)


__all__ = ["POLICIES", "list_policies"]
