"""Layer timing for the traced run.

The benchmark measures the program from outside. In the traced run only,
:class:`Tracer` replaces each public function or method listed in
:data:`PROBES` with a timing wrapper, everywhere a ``repro`` module holds a
reference to it, and puts every original object back afterwards.

Every wrapped call pushes a frame on one stack, so a layer's *self* time
is its calls' duration minus the part spent in wrapped calls beneath it.
The self times of all probes plus the root's self time (program code
outside every probe) add up to the traced wall time exactly: that is the
ledger. Hot per-request calls (a million admissions) are kept as a count
and a total; searches, generations and serving sessions are also kept as
span records (id, parent, start, end) and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Probe:
    """One public call site to time: ``attr`` is ``name`` or ``Class.method``."""

    key: str  # the counters it feeds; several probes may share them
    row: str  # the ledger row its self time is booked to
    module: str
    attr: str
    span: str | None = None  # also record a span of this kind per call


#: Every call the traced run times. Rows are named after the modules
#: that own the calls.
PROBES: tuple[Probe, ...] = (
    Probe("analysis", "analysis.s", "repro.analysis.analyzer", "analyze_network"),
    Probe("construction", "construction.s", "repro.construction.reorg", "build_pipeline_plan"),
    Probe("dse.keys", "dse.keys.s", "repro.dse.worker", "candidate_keys"),
    Probe("dse.cache.get", "dse.cache.s", "repro.dse.cache", "LocalEvalCache.get"),
    Probe("dse.cache.put", "dse.cache.s", "repro.dse.cache", "put_entries"),
    Probe("dse.kernel", "dse.kernel.s", "repro.dse.kernel", "solve_buckets"),
    Probe("dse.score.metrics", "dse.score.s", "repro.dse.objective", "metrics_from_solutions"),
    Probe("dse.score", "dse.score.s", "repro.dse.objective", "penalized_score"),
    Probe("dse.swarm.init", "dse.swarm.s", "repro.dse.crossbranch",
          "CrossBranchOptimizer.init_population"),
    Probe("dse.swarm.evolve", "dse.swarm.s", "repro.dse.crossbranch",
          "CrossBranchOptimizer.evolve"),
    # Structural spans: their self time is DSE code outside every probe
    # (bucket grouping, dedup, optimizer set-up, the best design's estimate).
    Probe("dse.search", "dse.unattributed_s", "repro.dse.engine", "DseEngine.search",
          span="search"),
    Probe("dse.generation", "dse.unattributed_s", "repro.dse.worker",
          "GenerationEvaluator.__call__", span="generation"),
    Probe("traffic", "traffic.s", "repro.serving.traffic", "make_trace"),
    Probe("admission", "admission.s", "repro.serving.admission", "AdmissionControl.admit"),
    Probe("router", "router.s", "repro.serving.router", "RoundRobinRouter.route"),
    Probe("router", "router.s", "repro.serving.router", "LeastLoadedRouter.route"),
    Probe("router", "router.s", "repro.serving.router", "DeadlineTieredRouter.route"),
    Probe("failover", "router.s", "repro.serving.router", "failover_route"),
    Probe("replica", "replica.s", "repro.serving.replica", "Replica.service_times"),
    Probe("replica", "replica.s", "repro.serving.replica", "Replica.preview_service"),
    Probe("engine", "engine.self_s", "repro.serving.engine", "serve_trace", span="session"),
)

_ROW_OF = {probe.key: probe.row for probe in PROBES}

#: Ledger rows in print order; ``unattributed_s`` is the root's self time.
LEDGER_ROWS: tuple[str, ...] = tuple(dict.fromkeys(_ROW_OF.values())) + ("unattributed_s",)


@dataclass
class ProbeStats:
    calls: int = 0
    self_s: float = 0.0
    #: what the observer counts: cache hits, buckets solved, admissions refused
    hits: int = 0


@dataclass
class Tracer:
    """Wraps the probes, keeps counters and spans, and restores on exit."""

    run_id: str = "run"
    stats: dict[str, ProbeStats] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    #: candidates whose full bucket tuple was already seen in their search
    repeated_tuples: int = 0
    wall_s: float = 0.0
    root_self_s: float = 0.0
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _stack: list[list[float]] = field(default_factory=list)
    _span_stack: list[int] = field(default_factory=list)
    _search: int = 0
    _seen_tuples: dict[int, set] = field(default_factory=dict)
    _origin: float = 0.0

    # -- installing and restoring ---------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            stat = self.stats.setdefault(probe.key, ProbeStats())
            owner_name, _, name = probe.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[name]
                self._patch(owner, name, original, self._wrap(probe, stat, original))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(probe, stat, original)
            # ``from x import f`` copies the reference: patch every copy.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "repro" or mod_name.startswith("repro."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner: object, name: str, original: object, wrapper: object) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)

    def restored(self) -> bool:
        """Whether every patched attribute is the original object again."""
        return all(
            vars(owner)[name] is original for owner, name, original in self._patched
        )

    @property
    def patched_sites(self) -> int:
        return len(self._patched)

    # -- timing ----------------------------------------------------------
    def _wrap(self, probe: Probe, stat: ProbeStats, fn: Callable) -> Callable:
        if probe.span is not None:
            return self._wrap_span(probe, stat, fn)
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(probe.key)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
            if observe is not None:
                observe(self, stat, result)
            return result

        return timed

    def _wrap_span(self, probe: Probe, stat: ProbeStats, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "parent": self._span_stack[-1],
                "run": self.run_id,
                "name": probe.span,
                "start_s": clock() - self._origin,
            }
            self.spans.append(record)
            self._span_stack.append(span_id)
            outer_search = self._search
            if probe.span == "search":
                self._search = span_id
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self._span_stack.pop()
                self._search = outer_search
                stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                record["end_s"] = record["start_s"] + elapsed

        return spanned

    def measure(self, program: Callable[[], Any]) -> Any:
        """Run ``program`` as the root span; its wall time is the ledger total."""
        self.spans.append(
            {"id": 0, "parent": None, "run": self.run_id, "name": "run", "start_s": 0.0}
        )
        self._span_stack[:] = [0]
        root = [0.0]
        self._stack[:] = [root]
        self._origin = started = time.perf_counter()
        try:
            return program()
        finally:
            self.wall_s = time.perf_counter() - started
            self.root_self_s = self.wall_s - root[0]
            self.spans[0]["end_s"] = self.wall_s

    # -- results ---------------------------------------------------------
    def ledger(self) -> dict[str, float]:
        """Self seconds per row; the rows sum to :attr:`wall_s`."""
        rows = dict.fromkeys(LEDGER_ROWS, 0.0)
        for key, row in _ROW_OF.items():
            rows[row] += self.stat(key).self_s
        rows["unattributed_s"] = self.root_self_s
        return rows

    def stat(self, key: str) -> ProbeStats:
        return self.stats.get(key, ProbeStats())


# -- observers: count what a probed call returned ---------------------------
def _observe_keys(tracer: Tracer, stat: ProbeStats, keys) -> None:
    seen = tracer._seen_tuples.setdefault(tracer._search, set())
    buckets = tuple(key[1:] for key in keys)
    if buckets in seen:
        tracer.repeated_tuples += 1
    else:
        seen.add(buckets)


def _observe_hit(tracer: Tracer, stat: ProbeStats, value) -> None:
    if value is not None:
        stat.hits += 1


def _observe_solved(tracer: Tracer, stat: ProbeStats, solutions) -> None:
    stat.hits += len(solutions)


def _observe_refused(tracer: Tracer, stat: ProbeStats, admitted) -> None:
    if not admitted:
        stat.hits += 1


_OBSERVERS = {
    "dse.keys": _observe_keys,
    "dse.cache.get": _observe_hit,
    "dse.kernel": _observe_solved,
    "admission": _observe_refused,
}
