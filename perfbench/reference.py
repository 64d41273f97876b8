"""Host-speed scaling: a fixed probe interleaved with the measured call.

On a shared host one core's speed flips between states that differ by up
to 1.7x, every few seconds, and the other cores do not follow it. Neither
a longer run nor a concurrent probe on another core removes that from a
wall time, and a reference run before and after a repetition of several
seconds misses the flips inside it. So while a measured call runs, a timer
interrupts it every ``PERIOD_S`` seconds of wall time and times a fixed
probe of a few milliseconds on the same core, in the same process (Python
runs the handler between two bytecodes of the call, never inside a C
function). Each stretch of the call between two probes is then scaled to
a host that runs the probe in ``NOMINAL_S``::

    scaled = sum over stretches of  length * NOMINAL_S / probe seconds near it

where "probe seconds near it" is the median of the (up to) four probes
closest to the stretch, so one probe that a page fault or a neighbour's
burst stretched does not scale a stretch on its own. The probes' own time
is left out of both the host and the scaled seconds.

The probe mixes what the program spends its time on: tuple keys in dicts
(the DSE caches), a heap of event tuples (the serving engines), and numpy
calls on arrays of a few hundred elements (the Algorithm-2 kernel and the
swarm). It never changes with the program, so a change to the program
moves the scaled times and a change in the host's speed does not.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Wall seconds between two probes.
PERIOD_S = 0.1
#: Seconds the probe takes on the host the scale refers to: a 2-vCPU x86-64
#: VM, where it took 2.4-4.3 ms depending on the moment.
NOMINAL_S = 0.003

_RNG = np.random.default_rng(0)
_LADDER = np.sort(_RNG.random(4_096))
_BUDGETS = _RNG.random(256)


def probe_seconds() -> float:
    """Host seconds the fixed probe takes now."""
    started = time.perf_counter()
    table: dict[tuple[int, int, int], float] = {}
    total = 0.0
    for i in range(2_500):
        key = (i % 251, i % 97, i & 7)
        value = table.get(key)
        if value is None:
            table[key] = value = (key[0] * 1.5 + key[1]) / (key[2] + 1.0)
        total += value
    heap: list[tuple[float, int]] = []
    for i in range(900):
        heapq.heappush(heap, (float((i * 7919) % 10_007), i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    for _ in range(60):
        rung = np.searchsorted(_LADDER, _BUDGETS)
        total += float(np.minimum(_LADDER[rung % _LADDER.size] * 2.0, 1.5).sum())
    return time.perf_counter() - started


@dataclass(frozen=True)
class Timing:
    host_s: float  # the call's wall seconds, the probes' time left out
    scaled_s: float  # the same, scaled to a host that runs the probe in NOMINAL_S
    probes: int


#: Probes of the call being timed: (handler start, handler end, probe seconds).
_marks: list[tuple[float, float, float]] | None = None


def _on_alarm(signum: int, frame: Any) -> None:
    if _marks is None:  # an alarm that arrived as the timer was stopped
        return
    started = time.perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    try:
        seconds = probe_seconds()
    finally:
        if enabled:
            gc.enable()
    _marks.append((started, time.perf_counter(), seconds))


def timed(call: Callable[[], Any], started: float | None = None) -> tuple[Any, Timing]:
    """Run ``call`` with the probe interleaved; return its result and timing.

    ``started`` backdates the start (the first set-up round starts at
    process start); the stretch before the timer runs is scaled by the
    first probes.
    """
    global _marks
    # Installed once and never restored: an alarm still pending when the
    # timer stops must not reach the default action, which ends the process.
    signal.signal(signal.SIGALRM, _on_alarm)
    marks: list[tuple[float, float, float]] = []
    _marks = marks
    if started is None:
        started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        ended = time.perf_counter()
        _marks = None
    return result, scale(started, ended, marks)


def scale(started: float, ended: float, marks: list[tuple[float, float, float]]) -> Timing:
    if not marks:  # a call shorter than PERIOD_S: probe once, right after it
        marks = [(ended, ended, probe_seconds())]
    probes = [seconds for _, _, seconds in marks]
    starts = [started] + [end for _, end, _ in marks]
    ends = [start for start, _, _ in marks] + [ended]
    host = scaled = 0.0
    for k, (begin, end) in enumerate(zip(starts, ends)):
        near = probes[max(0, k - 2) : k + 2]
        host += end - begin
        scaled += (end - begin) * NOMINAL_S / statistics.median(near)
    return Timing(host, scaled, len(marks))
