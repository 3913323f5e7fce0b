"""In-memory span tracer wrapped around the program's public layer calls.

The tracer patches public methods of the simulator's classes for the
duration of a traced pass (``install`` / ``uninstall``) and records, for
each call made while a unit is open:

- a span ``(layer, start_ns, end_ns, parent_index, unit_id)`` for the
  calls whose host time matters (``SPAN_SITES``);
- a plain count for the calls that are too frequent to span
  (``COUNT_SITES``: kernel event factories and spawns).

Spans stay in memory; :meth:`Tracer.write_jsonl` writes them out once
the benchmark ends.  Self time of a span is its duration minus the
durations of its direct children, so nested layers never double count.
Calls made while no unit is open (context set-up) pass straight through.
"""

from __future__ import annotations

import collections
import functools
import json
import time
import typing as t

from repro.autotune.tuner import AutoTuner
from repro.cluster.fabric import SharedFabric
from repro.cluster.scheduler import PlacementScheduler
from repro.collectives.timed import TimedCollectives
from repro.obs.detectors import DetectorSuite, LinkUtilisationSampler
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timeline import StepTimeline
from repro.sim.kernel import Simulator
from repro.sim.network import FluidNetwork

_now_ns = time.perf_counter_ns

#: ``(class, method, layer)`` call sites recorded as spans.
SPAN_SITES: tuple[tuple[type, str, str], ...] = (
    (Simulator, "run", "kernel.run"),
    (FluidNetwork, "start_flow", "network.start"),
    (FluidNetwork, "start_flows", "network.start"),
    (FluidNetwork, "start_flow_group", "network.start"),
    (FluidNetwork, "set_link_capacity", "network.capacity"),
    (FluidNetwork, "cancel_flow", "network.cancel"),
    (TimedCollectives, "allreduce", "collectives.launch"),
    (TimedCollectives, "control_roundtrip", "collectives.launch"),
    (TimedCollectives, "broadcast", "collectives.launch"),
    (StepTimeline, "span", "obs.record"),
    (StepTimeline, "instant", "obs.record"),
    (StepTimeline, "flow_start", "obs.record"),
    (StepTimeline, "flow_step", "obs.record"),
    (StepTimeline, "flow_end", "obs.record"),
    (Counter, "inc", "obs.record"),
    (Gauge, "set", "obs.record"),
    (Histogram, "observe", "obs.record"),
    (DetectorSuite, "observe_step", "obs.record"),
    (DetectorSuite, "observe_negotiation", "obs.record"),
    (DetectorSuite, "observe_stream_span", "obs.record"),
    (DetectorSuite, "observe_flow", "obs.record"),
    (DetectorSuite, "observe_tuner_trial", "obs.record"),
    (LinkUtilisationSampler, "observe_interval", "obs.record"),
    (PlacementScheduler, "try_admit", "cluster.admit"),
    (SharedFabric, "allreduce", "cluster.fabric_allreduce"),
    (SharedFabric, "scale_node_nic", "cluster.nic"),
    (SharedFabric, "flap_node_nic", "cluster.nic"),
    (SharedFabric, "restore_node_nic", "cluster.nic"),
    (AutoTuner, "tune", "autotune.tune"),
)

#: ``(class, method, counter)`` call sites that are only counted.
COUNT_SITES: tuple[tuple[type, str, str], ...] = (
    (Simulator, "event", "kernel.events_created"),
    (Simulator, "timeout", "kernel.events_created"),
    (Simulator, "pooled_event", "kernel.events_created"),
    (Simulator, "all_of", "kernel.events_created"),
    (Simulator, "any_of", "kernel.events_created"),
    (Simulator, "spawn", "kernel.spawns"),
)


class Tracer:
    """Span recorder for one traced pass of a workload."""

    def __init__(self) -> None:
        #: ``[layer, start_ns, end_ns, parent_index, unit_id]`` per span.
        self.spans: list[list] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.unit: int | None = None
        self.units = 0
        #: Simulated durations of every all-reduce launched in a unit.
        self.sim_allreduce_s: list[float] = []
        #: Largest ``len(network.flows)`` seen at a start-call boundary,
        #: one entry per closed unit.
        self.unit_peak_flows: list[int] = []
        #: Simulated exposed-communication seconds per unit (step
        #: workloads fill this from ``IterationStats``).
        self.exposed_comm_s: list[float] = []
        #: Reference-over-host time factor of each unit (``calib.timed``),
        #: which rescales the unit's self times.
        self.unit_scale: list[float] = []
        self._peak = 0
        self._stack: list[int] = []
        self._network: FluidNetwork | None = None
        self._network_base = (0, 0)
        self._saved: list[tuple[type, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every site; call before building the traced contexts."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, name, layer in SPAN_SITES:
            self._patch(cls, name, self._span_wrapper(cls, name, layer))
        for cls, name, counter in COUNT_SITES:
            self._patch(cls, name, self._count_wrapper(cls, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def _patch(self, cls: type, name: str, wrapper: t.Callable) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def _count_wrapper(self, cls: type, name: str,
                       counter: str) -> t.Callable:
        original = cls.__dict__[name]
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.unit is not None:
                counts[counter] += 1
            return original(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, cls: type, name: str, layer: str) -> t.Callable:
        original = cls.__dict__[name]
        observe = _OBSERVERS.get((cls, name))
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            unit = self.unit
            if unit is None:
                return original(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [layer, 0, 0, parent, unit]
            spans.append(record)
            stack.append(index)
            record[1] = _now_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = _now_ns()
                stack.pop()
            if observe is not None:
                nested = parent >= 0 and spans[parent][0] == layer
                observe(self, args, kwargs, result, nested)
            return result
        return wrapper

    # -- units ---------------------------------------------------------------

    def begin_unit(self, network: FluidNetwork) -> None:
        """Open a unit; ``network`` is the fluid network it drives."""
        self.unit = self.units
        self._network = network
        self._network_base = (network.reallocations,
                              network.solver_flow_visits)
        self._peak = len(network.flows)
        self.spans.append(["unit", _now_ns(), 0, -1, self.unit])
        self._stack.append(len(self.spans) - 1)

    def end_unit(self) -> None:
        root = self.spans[self._stack.pop()]
        root[2] = _now_ns()
        if self._stack:
            raise RuntimeError("unbalanced spans at unit end")
        network = t.cast(FluidNetwork, self._network)
        self.counts["network.reallocations"] += \
            network.reallocations - self._network_base[0]
        self.counts["network.solver_flow_visits"] += \
            network.solver_flow_visits - self._network_base[1]
        self.unit_peak_flows.append(self._peak)
        self.unit = None
        self.units += 1

    # -- results -------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Total self time per layer, in reference milliseconds."""
        child_ns = [0] * len(self.spans)
        for _layer, start, end, parent, _unit in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        scale = self.unit_scale
        totals: dict[str, float] = collections.defaultdict(float)
        for index, (layer, start, end, _parent, unit) in \
                enumerate(self.spans):
            factor = scale[unit] if unit < len(scale) else 1.0
            totals[layer] += (end - start - child_ns[index]) / 1e6 * factor
        return dict(totals)

    def span_counts(self) -> dict[str, int]:
        """Spans recorded per layer (deterministic for a fixed input)."""
        return dict(collections.Counter(s[0] for s in self.spans))

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                ["layer", "start_ns", "end_ns", "parent", "unit"]) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


# -- per-site observers: read call arguments and results ---------------------


def _flows_started(tracer: Tracer, args: tuple, kwargs: dict,
                   result: object, nested: bool) -> None:
    network = t.cast(FluidNetwork, args[0])
    tracer._peak = max(tracer._peak, len(network.flows))
    if nested:
        return  # a one-member group re-enters start_flow
    tracer.counts["network.flows_started"] += 1


def _batch_started(tracer: Tracer, args: tuple, kwargs: dict,
                   result: object, nested: bool) -> None:
    network = t.cast(FluidNetwork, args[0])
    tracer._peak = max(tracer._peak, len(network.flows))
    if not nested:
        requests = args[1] if len(args) > 1 else kwargs["requests"]
        tracer.counts["network.flows_started"] += len(requests)


def _group_started(tracer: Tracer, args: tuple, kwargs: dict,
                   result: object, nested: bool) -> None:
    network = t.cast(FluidNetwork, args[0])
    tracer._peak = max(tracer._peak, len(network.flows))
    members = args[1] if len(args) > 1 else kwargs["member_links"]
    members = getattr(members, "members", members)
    tracer.counts["network.groups_started"] += 1
    tracer.counts["network.flows_started"] += len(members)


def _counter(name: str) -> t.Callable:
    def observe(tracer: Tracer, args: tuple, kwargs: dict,
                result: object, nested: bool) -> None:
        if not nested:
            tracer.counts[name] += 1
    return observe


def _enabled_counter(name: str) -> t.Callable:
    """Count only calls on an enabled instrument (not the no-op branch)."""
    def observe(tracer: Tracer, args: tuple, kwargs: dict,
                result: object, nested: bool) -> None:
        if args[0].enabled:
            tracer.counts[name] += 1
    return observe


def _allreduce(tracer: Tracer, args: tuple, kwargs: dict,
               result: object, nested: bool) -> None:
    collectives = t.cast(TimedCollectives, args[0])
    size = args[1] if len(args) > 1 else kwargs["size_bytes"]
    algorithm = args[2] if len(args) > 2 else kwargs.get("algorithm",
                                                          "ring")
    tracer.counts[f"collectives.calls.{algorithm}"] += 1
    tracer.counts["collectives.bytes"] += size
    sim = collectives.sim
    start = sim.now
    samples = tracer.sim_allreduce_s
    result.add_callback(lambda _ev: samples.append(sim.now - start))


def _broadcast(tracer: Tracer, args: tuple, kwargs: dict,
               result: object, nested: bool) -> None:
    size = args[1] if len(args) > 1 else kwargs["size_bytes"]
    tracer.counts["collectives.calls.broadcast"] += 1
    tracer.counts["collectives.bytes"] += size


def _admit(tracer: Tracer, args: tuple, kwargs: dict,
           result: object, nested: bool) -> None:
    tracer.counts["cluster.admit_attempts"] += 1
    placement, _reason = t.cast(tuple, result)
    if placement is None:
        tracer.counts["cluster.admit_rejects"] += 1


def _tune(tracer: Tracer, args: tuple, kwargs: dict,
          result: object, nested: bool) -> None:
    tracer.counts["autotune.tunes"] += 1
    tracer.counts["autotune.trials"] += len(result.trials)


_TIMELINE = _enabled_counter("obs.spans")
_METRIC = _enabled_counter("obs.metric_updates")
_DETECTOR = _counter("obs.detector_calls")

_OBSERVERS: dict[tuple[type, str], t.Callable] = {
    (FluidNetwork, "start_flow"): _flows_started,
    (FluidNetwork, "start_flows"): _batch_started,
    (FluidNetwork, "start_flow_group"): _group_started,
    (FluidNetwork, "set_link_capacity"): _counter("network.capacity_changes"),
    (FluidNetwork, "cancel_flow"): _counter("network.cancels"),
    (TimedCollectives, "allreduce"): _allreduce,
    (TimedCollectives, "control_roundtrip"):
        _counter("collectives.calls.control"),
    (TimedCollectives, "broadcast"): _broadcast,
    (StepTimeline, "span"): _TIMELINE,
    (StepTimeline, "instant"): _TIMELINE,
    (StepTimeline, "flow_start"): _TIMELINE,
    (StepTimeline, "flow_step"): _TIMELINE,
    (StepTimeline, "flow_end"): _TIMELINE,
    (Counter, "inc"): _METRIC,
    (Gauge, "set"): _METRIC,
    (Histogram, "observe"): _METRIC,
    (DetectorSuite, "observe_step"): _DETECTOR,
    (DetectorSuite, "observe_negotiation"): _DETECTOR,
    (DetectorSuite, "observe_stream_span"): _DETECTOR,
    (DetectorSuite, "observe_flow"): _DETECTOR,
    (DetectorSuite, "observe_tuner_trial"): _DETECTOR,
    (LinkUtilisationSampler, "observe_interval"): _DETECTOR,
    (PlacementScheduler, "try_admit"): _admit,
    (SharedFabric, "scale_node_nic"): _counter("cluster.nic_changes"),
    (SharedFabric, "flap_node_nic"): _counter("cluster.nic_changes"),
    (SharedFabric, "restore_node_nic"): _counter("cluster.nic_changes"),
    (AutoTuner, "tune"): _tune,
}


def label_sets(registry: MetricsRegistry) -> int:
    """Label sets held by every metric family of ``registry``."""
    return sum(len(metric.samples) for metric in registry.collect())

