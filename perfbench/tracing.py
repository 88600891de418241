"""The traced pass: span recorders patched around each layer's entry points.

Spans are recorded from the benchmark's own code: every public entry
point below is replaced, at every place it can be looked up (module
attributes anywhere in ``sys.modules``, or the class attribute for a
method), by a wrapper that records name, start, end and parent.  A
layer's self time is the duration of its spans minus the part covered
by their child spans; time not under any wrapped call is the ``other``
bucket.  Work counts come from the program's own ``obs`` counters of
the surrounding ``instrumented()`` session and, for the campaign
scenarios that run in sessions of their own, from per-call counter
deltas read by the ``simulate`` wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.runtime import get_instrumentation

#: (module, attribute, span name).  The layer is the span name minus
#: its last component.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graphs.io", "problem_from_dict", "graphs.io.load"),
    ("repro.graphs.io", "problem_hash", "graphs.io.hash"),
    ("repro.graphs.io", "schedule_hash", "graphs.io.hash"),
    ("repro.graphs.routing", "RoutingTable.__init__", "graphs.routing.build"),
    ("repro.core.pressure", "PressurePrePass.compute", "core.pressure.prepass"),
    ("repro.core.list_scheduler", "ListScheduler.__init__", "core.list_scheduler.init"),
    ("repro.core.solution1", "Solution1Scheduler.__init__", "core.list_scheduler.init"),
    ("repro.core.list_scheduler", "ListScheduler.run", "core.list_scheduler.run"),
    ("repro.core.timeouts", "compute_timeout_table", "core.timeouts.compute"),
    ("repro.core.validate", "validate_schedule", "core.validate.validate"),
    ("repro.sim.runner", "simulate", "sim.simulate"),
    ("repro.lint.proof.verifier", "prove_delivery", "lint.proof.prove"),
    ("repro.lint.proof.automaton", "compile_automaton", "lint.proof.compile"),
    ("repro.obs.campaign.space", "enumerate_space", "obs.campaign.enumerate"),
    ("repro.obs.campaign.executor", "run_campaign", "obs.campaign.run"),
    ("repro.obs.campaign.executor", "execute_scenario", "obs.campaign.scenario"),
    ("repro.obs.campaign.executor", "minimize_scenario", "obs.campaign.minimize"),
    ("repro.obs.campaign.diagnose", "diagnose", "obs.campaign.diagnose"),
    ("repro.obs.causal.diff", "diff_traces", "obs.causal.diff"),
    ("repro.obs.causal.graph", "build_causal_graph", "obs.causal.graph"),
)

#: Counters a ``simulate`` call adds to whichever session is active.
SIM_COUNTERS = ("sim.engine.events", "sim.frames_sent")


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.info: Dict[str, Any] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class SpanRecorder:
    """Spans kept in memory, in the order they were opened."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: The session whose counters the traced pass reads; a
        #: ``simulate`` span notes whether it ran inside it.
        self.outer: Any = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, function: Callable, name: str) -> Callable:
        if name == "sim.simulate":
            return self._wrap_simulate(function)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = function(*args, **kwargs)
            if name == "obs.causal.graph":
                span.info["nodes"] = len(result.nodes)
            return result

        return wrapper

    def _wrap_simulate(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            obs = get_instrumentation()
            before = [obs.registry.counter_value(c) for c in SIM_COUNTERS]
            with self.span("sim.simulate") as span:
                result = function(*args, **kwargs)
            span.info["outer"] = obs is self.outer
            for counter, value in zip(SIM_COUNTERS, before):
                span.info[counter] = obs.registry.counter_value(counter) - value
            return result

        return wrapper

    def under(self, root: Span) -> List[Span]:
        """The spans of ``root``'s tree, ``root`` included."""
        return [span for span in self.spans if span.root() is root]


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(recorder: SpanRecorder) -> Iterator[None]:
    """Install a recording wrapper at every lookup site of each entry point."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, attribute, span_name in ENTRY_POINTS:
            owner, name = _resolve(module_name, attribute)
            if isinstance(owner, type):
                descriptor = owner.__dict__[name]
                if isinstance(descriptor, classmethod):
                    wrapped: Any = classmethod(
                        recorder.wrap(descriptor.__func__, span_name)
                    )
                else:
                    wrapped = recorder.wrap(descriptor, span_name)
                restore.append((owner, name, descriptor))
                setattr(owner, name, wrapped)
                continue
            original = getattr(owner, name)
            wrapped = recorder.wrap(original, span_name)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapped)
        yield
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def self_times(spans: List[Span]) -> Dict[Span, float]:
    """Each span's duration minus the durations of its direct children."""
    covered: Dict[Span, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span: span.duration - covered[span] for span in spans}


def by_name(spans: List[Span], selfs: Dict[Span, float]) -> Dict[str, Tuple[int, float, float]]:
    """span name -> (calls, total self time, total duration)."""
    table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = table[span.name]
        row[0] += 1
        row[1] += selfs[span]
        row[2] += span.duration
    return {name: (int(c), s, d) for name, (c, s, d) in table.items()}


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def per_layer(
    recorder: SpanRecorder,
    root: Span,
    counters: Callable[[str], float],
    result: Any,
    untraced_wall_s: float,
    beyond_s: float,
    nominal_gap: float,
) -> Tuple[Dict[str, float], Dict[str, Tuple[int, float, float]]]:
    """The per-layer metrics of one traced pass, and its span table."""
    spans = recorder.under(root)
    names = by_name(spans, self_times(spans))

    def self_of(*span_names: str) -> float:
        return sum(names.get(name, (0, 0.0, 0.0))[1] for name in span_names)

    sims = [span for span in spans if span.name == "sim.simulate"]
    events = sum(span.info["sim.engine.events"] for span in sims)
    evals = counters("pressure.evals")
    scheduler_self = self_of("core.list_scheduler.init", "core.list_scheduler.run")
    prove_self = self_of("lint.proof.prove")
    evaluations = counters("proof.evaluations")
    checked, pruned = counters("proof.subsets_checked"), counters("proof.pruned")
    scenarios = counters("campaign.scenarios")
    deduplicated = counters("campaign.deduplicated")
    hits, misses = counters("evalcache.hits"), counters("evalcache.misses")
    proofs = [run.proof for run in result.runs if run.proof is not None]
    decided = sum(1 for proof in proofs if proof.verdict in ("SAFE", "UNSAFE"))
    metrics = {
        "graphs.io.load_s": self_of("graphs.io.load"),
        "graphs.io.hash_s": self_of("graphs.io.hash"),
        "graphs.routing.build_s": self_of("graphs.routing.build"),
        "core.pressure.prepass_s": self_of("core.pressure.prepass"),
        "core.pressure.evals": evals,
        "core.list_scheduler.self_s": scheduler_self,
        "core.list_scheduler.steps": counters("scheduler.steps"),
        "core.list_scheduler.us_per_eval": _ratio(scheduler_self, evals, 1e6),
        "core.evalcache.hit_rate": _ratio(hits, hits + misses),
        "core.evalcache.invalidated": counters("evalcache.invalidated"),
        "core.timeouts.compute_s": self_of("core.timeouts.compute"),
        "core.timeouts.entries": counters("timeouts.entries"),
        "core.validate.validate_s": self_of("core.validate.validate"),
        "sim.simulate_s": self_of("sim.simulate"),
        "sim.calls": float(len(sims)),
        "sim.engine.events": events,
        "sim.frames_sent": sum(span.info["sim.frames_sent"] for span in sims),
        "sim.us_per_event": _ratio(self_of("sim.simulate"), events, 1e6),
        "sim.nominal_response_gap": nominal_gap,
        "lint.proof.compile_s": self_of("lint.proof.compile"),
        "lint.proof.verify_s": prove_self - beyond_s,
        "lint.proof.beyond_s": beyond_s,
        "lint.proof.evaluations": evaluations,
        "lint.proof.subsets_checked": checked,
        "lint.proof.pruned": pruned,
        "lint.proof.classes_collapsed": counters("proof.classes_collapsed"),
        "lint.proof.us_per_evaluation": _ratio(prove_self, evaluations, 1e6),
        "lint.proof.prune_ratio": _ratio(pruned, checked + pruned),
        "lint.proof.verdicts_decided": _ratio(decided, len(proofs)),
        "obs.campaign.enumerate_s": self_of("obs.campaign.enumerate"),
        "obs.campaign.self_s": self_of("obs.campaign.run", "obs.campaign.scenario"),
        "obs.campaign.minimize_s": self_of("obs.campaign.minimize"),
        "obs.campaign.diagnose_s": self_of("obs.campaign.diagnose"),
        "obs.campaign.scenarios": scenarios,
        "obs.campaign.dedup_ratio": _ratio(deduplicated, scenarios + deduplicated),
        "obs.campaign.us_per_scenario": _ratio(
            names.get("obs.campaign.run", (0, 0.0, 0.0))[2], scenarios, 1e6
        ),
        "obs.campaign.coverage": _ratio(
            counters("campaign.classes_executed"), counters("campaign.classes_enumerated")
        ),
        "obs.causal.diff_s": self_of("obs.causal.diff", "obs.causal.graph"),
        "obs.causal.nodes": float(
            sum(span.info["nodes"] for span in spans if span.name == "obs.causal.graph")
        ),
        "other.self_s": self_of(root.name),
        "trace.wall_s": root.duration,
        "trace.overhead_s": root.duration - untraced_wall_s,
    }
    return metrics, names


def consistency(
    recorder: SpanRecorder, root: Span, counters: Callable[[str], float], result: Any
) -> List[Tuple[bool, str]]:
    """Checks that the spans and the program's counters tell one story."""
    spans = recorder.under(root)
    sims = [span for span in spans if span.name == "sim.simulate"]
    outer = sum(1 for span in sims if span.info["outer"])
    scenario_spans = sum(1 for span in spans if span.name == "obs.campaign.scenario")
    outcomes = sum(len(run.campaign.outcomes) for run in result.runs if run.campaign)
    scenarios = counters("campaign.scenarios")
    nested = all(
        span.parent is None
        or span.parent.start <= span.start <= span.end <= span.parent.end
        for span in spans
    )
    names = by_name(spans, self_times(spans))
    total = sum(row[1] for row in names.values())
    return [
        (
            len(sims) == counters("sim.iterations") + scenarios
            and outer == counters("sim.iterations"),
            f"simulate spans {len(sims)} ({outer} outside scenario sessions) "
            f"!= sim.iterations {counters('sim.iterations'):g} + "
            f"campaign.scenarios {scenarios:g}",
        ),
        (
            scenario_spans == scenarios == outcomes,
            f"scenario spans {scenario_spans}, campaign.scenarios {scenarios:g} "
            f"and outcomes {outcomes} differ",
        ),
        (nested, "a span is not nested inside its parent"),
        (
            abs(total - root.duration) <= 1e-6,
            f"layer self times sum to {total!r}, traced wall is {root.duration!r}",
        ),
    ]


def render_table(names: Dict[str, Tuple[int, float, float]], wall_s: float) -> str:
    """Per-layer calls, self time and share of the traced wall time."""
    layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for name, (count, self_s, _) in names.items():
        layer = name.rsplit(".", 1)[0] if "." in name else "other"
        layers[layer][0] += count
        layers[layer][1] += self_s
    lines = [f"{'layer':<20} {'calls':>8} {'self_s':>10} {'share':>7}"]
    for layer, (count, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        lines.append(
            f"{layer:<20} {int(count):>8} {self_s:>10.4f} {100 * self_s / wall_s:>6.1f}%"
        )
    lines.append(f"{'traced wall':<20} {'':>8} {wall_s:>10.4f} {100.0:>6.1f}%")
    return "\n".join(lines)
