"""Outside-in per-layer tracing for the benchmark.

The benchmark times ``repro``'s layers without editing ``src/``: it
wraps the public functions and methods that mark each layer boundary,
records one span per call (layer, parent span, start, end) in flat
in-memory arrays, and turns the spans into per-layer counts and
exclusive ("self") times only after the workload has finished.

:func:`install` rebinds every ``repro.*`` module attribute that *is* a
target function (``generate_workload`` as imported by
``experiments/context.py``, for instance) and patches target methods on
their classes, so calls made through ``World`` and the experiment
modules reach the wrappers too. :func:`uninstall` restores everything.

``ContentPortMapper.eligible_ports`` is deliberately not wrapped: it is
called millions of times per content evaluation and a wrapper around it
adds about a quarter to the wall time, which would swamp the layers it
sits under.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "LAYERS", "install", "uninstall", "layer_metrics"]

#: A counter hook: ``(tracer, args, kwargs, result) -> None``. Hooks run
#: after the span has closed, so reading sizes off a returned value is
#: never charged to the layer that produced it.
Counter = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: List[int] = []
        self.counts: Dict[str, float] = {}
        self._distinct: Dict[str, set] = {}
        #: Keeps objects whose ``id`` was used as a distinct token alive,
        #: so an id can never be reused by another object mid-run.
        self._pinned: List[Any] = []
        #: ``(owner, attribute, original)`` for :func:`uninstall`.
        self.patches: List[Tuple[Any, str, Any]] = []

    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def _enter(self, lid: int) -> int:
        index = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(index)
        self.span_start.append(perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, layer: str):
        """Record one span around a block of the benchmark's own code."""
        index = self._enter(self.layer_id(layer))
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, layer: str, fn: Callable,
             counter: Optional[Counter] = None) -> Callable:
        """``fn`` with a span around every call."""
        lid = self.layer_id(layer)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = enter(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def distinct(self, name: str, token: tuple, *pin: Any) -> None:
        """Count ``token`` once under ``name`` however often it is seen."""
        seen = self._distinct.setdefault(name, set())
        seen.add(token)
        self.counts[name] = len(seen)
        self._pinned.extend(pin)

    def spans(self) -> Dict[str, list]:
        """The recorded spans as plain columns (JSON-ready)."""
        return {
            "layers": list(self.layers),
            "layer": self.span_layer.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }


# -- counter hooks ------------------------------------------------------


def _count_len(key: str) -> Counter:
    """Add ``len(result)`` to the count ``key``."""
    def counter(tracer, args, kwargs, result):
        tracer.add(key, len(result))
    return counter


def _count_generated_events(tracer, args, kwargs, result):
    tracer.add("mobility.generate_workload.events",
               len(result.all_transitions()))


def _count_device_events(tracer, args, kwargs, result):
    tracer.add("core.device_evaluate.events", result.num_events)


def _count_content_events(tracer, args, kwargs, result):
    tracer.add("core.content_evaluate.events", result.num_events)
    measurement = args[1] if len(args) > 1 else kwargs["measurement"]
    strategy = args[2] if len(args) > 2 else kwargs["strategy"]
    tracer.distinct("core.content_evaluate.pairs",
                    (id(measurement), strategy), measurement)


def _count_measured_names(tracer, args, kwargs, result):
    tracer.add("measurement.measure_universe.names", len(result.timelines))


#: The convergence layer is the simulator's whole public surface.
_CONVERGENCE_METHODS = (
    "update_arrival_times",
    "forwarding_state_at",
    "deliver",
    "simulate_event",
    "expected_outage",
    "lossy_update_arrival_times",
    "deliver_under_faults",
    "simulate_event_under_faults",
    "expected_outage_under_faults",
)

#: ``(layer, module, attribute path, counter)``: the layer boundaries.
#: A dotted attribute path names a method on a class of that module.
LAYERS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("topology.generate_as_topology", "repro.topology.aslevel",
     "generate_as_topology", None),
    ("routing.routes_to_many", "repro.routing.bgp",
     "RoutingOracle.routes_to_many",
     _count_len("routing.routes_to_many.dests")),
    ("routing.next_hop_table", "repro.routing.bgp",
     "VantagePoint.next_hop_table",
     _count_len("routing.next_hop_table.prefixes")),
    ("routing.routes_to", "repro.routing.bgp", "RoutingOracle.routes_to",
     None),
    ("routing.candidate_routes", "repro.routing.bgp",
     "VantagePoint.candidate_routes", None),
    ("measurement.build_routers", "repro.measurement.routeviews",
     "build_routers", None),
    ("measurement.measure_universe", "repro.measurement.vantage",
     "MeasurementController.measure_universe", _count_measured_names),
    ("content.generate_domain_universe", "repro.content.domains",
     "generate_domain_universe", None),
    ("content.assign_hosting", "repro.content.hosting", "assign_hosting",
     None),
    ("mobility.generate_workload", "repro.mobility.synth",
     "generate_workload", _count_generated_events),
    ("mobility.as_columns", "repro.mobility.synth",
     "MobilityWorkload.as_columns", None),
    ("core.content_evaluate", "repro.core.evaluator",
     "ContentUpdateCostEvaluator.evaluate", _count_content_events),
    ("core.routes_for_addresses", "repro.core.strategies",
     "ContentPortMapper.routes_for_addresses", None),
    ("core.union_table_sizes", "repro.core.evaluator",
     "ContentUpdateCostEvaluator.union_table_sizes", None),
    ("core.evaluate_tradeoff", "repro.core.tradeoff", "evaluate_tradeoff",
     None),
    ("core.device_evaluate", "repro.core.evaluator",
     "DeviceUpdateCostEvaluator.evaluate", _count_device_events),
    ("core.per_day_update_rates", "repro.core.evaluator",
     "per_day_update_rates", None),
) + tuple(
    ("forwarding.convergence", "repro.forwarding.convergence",
     f"ConvergenceSimulator.{method}", None)
    for method in _CONVERGENCE_METHODS
)


def install(tracer: Tracer, layers=LAYERS) -> Tracer:
    """Wrap every layer boundary in ``layers``; returns ``tracer``.

    Import every ``repro`` module that may call a target *before*
    installing (the benchmark loads the experiment registry first):
    module attributes are rebound by identity with the original, so a
    module imported afterwards picks the wrapper up from its source
    module anyway, but a reference held outside ``repro`` is missed.
    """
    for layer, module_name, path, counter in layers:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            tracer.patches.append((owner, method, original))
            setattr(owner, method, tracer.wrap(layer, original, counter))
            continue
        original = getattr(module, path)
        wrapper = tracer.wrap(layer, original, counter)
        for name, loaded in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    tracer.patches.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)
    return tracer


def uninstall(tracer: Tracer) -> None:
    """Undo :func:`install` (restores every patched attribute)."""
    while tracer.patches:
        owner, attr, original = tracer.patches.pop()
        setattr(owner, attr, original)


def layer_metrics(spans: Dict[str, list]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls`` and ``self_s`` from recorded span columns.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it; summing self time over a layer's spans
    therefore never counts nested wrapped work twice.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    child_time = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += end[i] - start[i]
    out: Dict[str, Dict[str, float]] = {
        layer: {"calls": 0, "self_s": 0.0} for layer in spans["layers"]
    }
    for i, lid in enumerate(spans["layer"]):
        stats = out[spans["layers"][lid]]
        stats["calls"] += 1
        stats["self_s"] += end[i] - start[i] - child_time[i]
    return out
