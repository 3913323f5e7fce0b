"""Timed collective execution over the simulated network.

This is the bridge between the collective algorithms and the fluid network
model.  A timed all-reduce creates the flows its algorithm would place on
the cluster links (each flow is one transport stream, subject to the
per-stream rate cap) and completes when the slowest flow drains plus the
α/pipeline-fill latency of the ring schedule.

Symmetric clusters run in **representative mode**: only node 0's NIC pair
and NVLink fabric are simulated.  By symmetry every other NIC would carry
exactly the same flow set at exactly the same rates, so the representative
rates — and therefore all completion times — are exact while the event
count drops by a factor of ``num_nodes``.
"""

from __future__ import annotations

import typing as t

from repro.errors import CollectiveError
from repro.collectives.cost_model import ring_volume_bytes
from repro.collectives.planner import PLANNER_ALGORITHMS, CollectivePlanner
from repro.obs import NETWORK_RANK, Observability
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.network import FlowBundle, FluidNetwork, Link
from repro.sim.topology import Cluster
from repro.sim.tracing import Trace

#: Supported all-reduce algorithm names: the two legacy hard-coded
#: schedules (paper Section V-B) plus the topology-synthesized planner
#: backends (halving-doubling, multi-tree, in-network aggregation).
ALGORITHMS = ("ring", "hierarchical") + PLANNER_ALGORITHMS

#: Device-wide synchronization between the hierarchical algorithm's three
#: phases.  Every GPU of a node must finish phase k before phase k+1 may
#: launch; under backward-pass SM occupancy this event sync costs about a
#: millisecond — the overhead that makes the auto-tuner prefer the flat
#: ring on healthy networks (paper §VIII-D) while the hierarchical
#: algorithm still wins on congested links, where its bandwidth shape
#: matters more.
HIERARCHICAL_PHASE_SYNC_S = 2e-3


class _WirePlan:
    """Cached launch skeleton for the node-level ring's wire fan-out.

    The flat ring and the half-ring primitives place the identical flow
    pattern every launch — one NIC hop per node plus the NVLink fabrics
    — and the pattern depends only on the (immutable) topology and the
    static per-node stream caps.  Building it per call costs O(nodes)
    Python work per collective unit, so the plan is built once per
    collectives instance.  ``specs`` holds ``(links, cap, weight)`` per
    flow; ``runs`` holds one cached :class:`~repro.sim.network.
    FlowBundle` handle per uniform run (see
    :meth:`TimedCollectives._bundle_runs`), or ``None`` when the
    structure cannot bundle and launches take one batched
    ``start_flows`` call.  Caps are stored unscaled; launches multiply
    by their ``cap_scale``.
    """

    __slots__ = ("specs", "runs", "slowest_base")

    def __init__(self, specs: list[tuple[list[Link], float | None, int]],
                 runs: list[tuple[FlowBundle, float | None, int]] | None,
                 slowest_base: float | None) -> None:
        self.specs = specs
        self.runs = runs
        self.slowest_base = slowest_base


class TimedCollectives:
    """Schedules timed collectives on a cluster.

    Parameters
    ----------
    sim, network, cluster:
        The simulation context.
    representative:
        Force representative mode on (True) / off (False); default:
        automatic — on for symmetric clusters.
    """

    def __init__(self, sim: Simulator, network: FluidNetwork,
                 cluster: Cluster, trace: Trace | None = None,
                 representative: bool | None = None,
                 obs: Observability | None = None) -> None:
        self.sim = sim
        self.network = network
        self.cluster = cluster
        self.trace = trace or Trace(enabled=False)
        #: Tenant identity stamped on every launched flow (the cluster
        #: runtime sets it so shared-fabric fairness and telemetry can
        #: attribute traffic per job; ``None`` = single-job semantics).
        self.job: str | None = None
        #: Observability sink for collective telemetry.
        self.obs = obs or Observability.disabled()
        registry = self.obs.registry
        self._m_allreduce = registry.counter(
            "allreduce_total", "Completed timed all-reduces")
        self._m_allreduce_bytes = registry.histogram(
            "allreduce_bytes", "Payload size of timed all-reduces",
            buckets=(1e6, 4e6, 16e6, 64e6, 256e6, 1e9))
        self._m_allreduce_seconds = registry.histogram(
            "allreduce_seconds", "Wall-clock duration of timed all-reduces",
            buckets=(1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0))
        if representative is None:
            representative = cluster.is_symmetric
        if representative and not cluster.is_symmetric:
            raise CollectiveError(
                "representative mode requires a symmetric cluster"
            )
        self.representative = representative
        #: Lazily built topology-aware planner (halving-doubling,
        #: multi-tree, ina).  Planner schedules always place the full
        #: link set — their flow patterns are not NIC-symmetric (e.g.
        #: the ina multicast trunk), so representative sampling would
        #: mis-count shared links.
        self._planner: CollectivePlanner | None = None
        #: Lazily built wire-flow launch skeleton (see :class:`_WirePlan`).
        self._wire_cache: _WirePlan | None = None

    # -- public API -------------------------------------------------------

    def _stalled(self, name: str) -> Event | None:
        """A never-firing event when a participating node is dead.

        Real NCCL collectives do not error when a ring member dies —
        they hang until an external watchdog fires.  Modelling that
        honestly (instead of raising) is what gives the engine's
        timeout-based failure detector something real to detect.
        Returns ``None`` when every node is alive.
        """
        if not self.cluster.failed_nodes:
            return None
        self.trace.incr("aiacc.faults.stalled_collectives")
        return self.sim.event(name=f"{name}.stalled")

    def allreduce(self, size_bytes: float, algorithm: str = "ring",
                  cap_scale: float = 1.0) -> Event:
        """Start a timed all-reduce of ``size_bytes`` across all workers.

        Parameters
        ----------
        algorithm:
            ``"ring"`` — flat topology-aware ring over all GPUs;
            ``"hierarchical"`` — intra-node reduce-scatter, ``g`` parallel
            inter-node rings, intra-node all-gather;
            ``"halving-doubling"`` / ``"multi-tree"`` / ``"ina"`` —
            planner-synthesized schedules (see
            :mod:`repro.collectives.planner`).
        cap_scale:
            Multiplier on the transport's per-stream rate cap.  1.0 models
            a well-tuned stack (Horovod's documented NCCL socket tuning);
            PyTorch-DDP v1.10 shipped with NCCL's default socket
            configuration and reaches a lower single-stream ceiling, which
            its backend models with ``cap_scale < 1``.

        Returns an event triggering at completion; its value is the
        duration in seconds.
        """
        if algorithm not in ALGORITHMS:
            raise CollectiveError(
                f"unknown all-reduce algorithm {algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        if size_bytes < 0:
            raise CollectiveError("size_bytes must be non-negative")
        if not 0 < cap_scale <= 1:
            raise CollectiveError("cap_scale must be in (0, 1]")
        stalled = self._stalled(f"allreduce.{algorithm}")
        if stalled is not None:
            return stalled
        start = self.sim.now
        if size_bytes == 0 or self.cluster.world_size == 1:
            # Degenerate all-reduce: nothing crosses any link.  Complete
            # at zero cost rather than launching empty flows (which would
            # still pay link latencies and α terms).
            inner = self.sim.timeout(0.0)
        elif algorithm == "ring":
            inner = self._ring(size_bytes, cap_scale)
        elif algorithm == "hierarchical":
            inner = self._hierarchical(size_bytes, cap_scale)
        else:
            inner = self._planned(algorithm, size_bytes, cap_scale)

        done = self.sim.event(name=f"allreduce.{algorithm}")

        def _finish(_ev: Event) -> None:
            duration = self.sim.now - start
            self.trace.add_span("allreduce", start, self.sim.now,
                                bytes=size_bytes, algorithm=algorithm)
            self.trace.incr("allreduce.count")
            self.trace.incr("allreduce.bytes", size_bytes)
            self._m_allreduce.inc(algorithm=algorithm)
            self._m_allreduce_bytes.observe(size_bytes,
                                            algorithm=algorithm)
            self._m_allreduce_seconds.observe(duration,
                                              algorithm=algorithm)
            done.succeed(duration)

        inner.add_callback(_finish)
        return done

    def control_roundtrip(self, payload_bytes: float = 64.0) -> Event:
        """A decentralized control-plane ring pass (readiness bit vector).

        AIACC's gradient synchronization all-reduces an ``n``-bit vector
        among the MPI daemons (paper Fig. 8b).  The payload is tiny, so the
        cost is pure latency: ``2 (m - 1)`` inter-node hops.
        """
        stalled = self._stalled("control_roundtrip")
        if stalled is not None:
            return stalled
        m = self.cluster.num_nodes
        spec = self.cluster.spec
        if m == 1:
            delay = 2 * max(spec.gpus_per_node - 1, 1) * \
                spec.intra_node_latency_s
        else:
            per_hop = spec.inter_node_latency_s + \
                spec.transport.per_message_overhead_s
            delay = 2 * (m - 1) * per_hop
            delay += payload_bytes * 8.0 * 2 * (m - 1) / \
                self.cluster.stream_cap_bps()
        return self.sim.timeout(delay)

    def broadcast(self, size_bytes: float) -> Event:
        """Timed pipelined broadcast from rank 0 to all workers."""
        stalled = self._stalled("broadcast")
        if stalled is not None:
            return stalled
        if size_bytes <= 0 or self.cluster.world_size == 1:
            # Nothing to move (or nobody to move it to): zero-cost, no
            # flows — a single-worker "broadcast" is a no-op, not an
            # NVLink transfer of the full payload to itself.
            return self.sim.timeout(0.0)
        if self.cluster.num_nodes == 1:
            specs = [([self.cluster.nvlink[0]], size_bytes, None, 1)]
        else:
            specs = [(hop, size_bytes, self.cluster.stream_cap_bps(src_node),
                      1) for src_node, hop in self._nic_hops()]
        return self.sim.all_of(self._launch(specs, label="broadcast"))

    def alltoall(self, size_bytes: float) -> Event:
        """Timed all-to-all: each worker exchanges ``size_bytes`` split
        evenly across all ``n`` workers (staggered-partner schedule).

        Returns an event triggering at completion.
        """
        stalled = self._stalled("alltoall")
        if stalled is not None:
            return stalled
        n = self.cluster.world_size
        if size_bytes <= 0 or n == 1:
            return self.sim.timeout(0.0)
        m = self.cluster.num_nodes
        g = self.cluster.spec.gpus_per_node
        spec = self.cluster.spec
        specs: list[tuple[list[Link], float, float | None, int]] = []
        # Bytes leaving node i for other nodes: g senders x (n - g)/n of
        # their payload each.
        if m > 1:
            inter_bytes = g * size_bytes * (n - g) / n
            for src_node, hop in self._nic_hops():
                cap = self.cluster.stream_cap_bps(src_node)
                specs.append((hop, inter_bytes, cap, g))
            alpha = (n - 1) * spec.inter_node_latency_s
        else:
            alpha = (n - 1) * spec.intra_node_latency_s
        if g > 1:
            intra_bytes = g * size_bytes * (g - 1) / n
            for fabric in self._nvlink_fabrics():
                specs.append(([fabric], intra_bytes, None, 1))
        if not specs:
            return self.sim.timeout(alpha)
        done = self.sim.all_of(self._launch(specs, label="alltoall"))
        return self._after(done, alpha)

    def reduce_scatter(self, size_bytes: float) -> Event:
        """Timed ring reduce-scatter of ``size_bytes`` (half a ring
        all-reduce: ``n - 1`` steps, ``S (n-1)/n`` bytes per hop)."""
        return self._half_ring("reduce_scatter", size_bytes)

    def allgather(self, size_bytes: float) -> Event:
        """Timed ring all-gather of ``size_bytes`` (the other half)."""
        return self._half_ring("allgather", size_bytes)

    def _half_ring(self, name: str, size_bytes: float) -> Event:
        stalled = self._stalled(name)
        if stalled is not None:
            return stalled
        n = self.cluster.world_size
        if size_bytes <= 0 or n == 1:
            return self.sim.timeout(0.0)
        m = self.cluster.num_nodes
        spec = self.cluster.spec
        hop_bytes = ring_volume_bytes(size_bytes, n) / 2.0
        if m > 1:
            alpha = (n - 1) * spec.inter_node_latency_s
        else:
            alpha = (n - 1) * spec.intra_node_latency_s
        done = self.sim.all_of(
            self._launch_wire(self._wire_plan(), hop_bytes, 1.0, name))
        return self._after(done, alpha)

    # -- algorithm schedules -------------------------------------------------

    def _nic_hops(self) -> list[tuple[int, list[Link]]]:
        """Directed inter-node NIC hops of the node-level ring.

        Returns ``(source_node, links)`` pairs; the source node determines
        the per-stream rate cap (a congested node's NIC caps lower).
        """
        m = self.cluster.num_nodes
        if self.representative:
            return [(0, self.cluster.representative_hop())]
        core = [self.cluster.core] if self.cluster.core is not None else []
        return [
            (i, [self.cluster.nic_out[i], *core,
                 self.cluster.nic_in[(i + 1) % m]])
            for i in range(m)
        ]

    def _nvlink_fabrics(self) -> list[Link]:
        if self.representative:
            return [self.cluster.nvlink[0]]
        return list(self.cluster.nvlink)

    def _launch(self, specs: t.Sequence[tuple[t.Sequence[Link], float,
                                              float | None, int]],
                label: str | None = None) -> list[Event]:
        """Start one flow per ``(links, bytes, cap, weight)`` spec.

        ``label`` stamps every launched flow with its algorithm for
        telemetry.
        """
        return self._start(self._bundle_runs(specs), specs, label)

    def _start(self, groups: list[tuple[FlowBundle, float, float | None,
                                        int]] | None,
               specs: t.Sequence[tuple[t.Sequence[Link], float,
                                       float | None, int]],
               label: str | None) -> list[Event]:
        """The single launch path of every timed collective.

        Each ``(bundle, bytes, cap, weight)`` group enters the network
        through :meth:`~repro.sim.network.FluidNetwork.start_flow_group`,
        which fuses it into one solver entity when its claim channel
        accepts it and falls back to per-member flows otherwise; with no
        groups, ``specs`` enter in one batched ``start_flows`` call.
        Either way every flow's rate trajectory, and hence every
        completion time, is the one per-flow insertion would produce.
        """
        network = self.network
        previous = network.flow_label
        previous_job = network.flow_job
        if label is not None:
            network.flow_label = label
        if self.job is not None:
            network.flow_job = self.job
        try:
            if groups is None:
                return network.start_flows(specs)
            return [network.start_flow_group(handle, size_bytes,
                                             rate_cap_bps=cap,
                                             weight=weight)
                    for handle, size_bytes, cap, weight in groups]
        finally:
            network.flow_label = previous
            network.flow_job = previous_job

    def _bundle_runs(self, specs: t.Sequence[tuple]) -> list[tuple] | None:
        """Partition a launch into bundled uniform runs, or ``None``.

        A *run* is a maximal stretch of consecutive specs sharing
        ``spec[1:]`` (bytes, cap, weight) — e.g. a ring launch is one
        run of NIC hops followed by one run of NVLink fabrics.  Returns
        ``[(FlowBundle, *spec[1:]), ...]`` when
        :meth:`~repro.sim.network.FluidNetwork.bundle` accepts **every**
        run's structure (>= 2 pairwise-disjoint, equal-length members):
        a loose run beside bundled ones could land on freshly claimed
        links and split them right back apart.
        """
        runs: list[tuple[list[t.Sequence[Link]], tuple]] = []
        for links, *rest in specs:
            key = tuple(rest)
            if runs and runs[-1][1] == key:
                runs[-1][0].append(links)
            else:
                runs.append(([links], key))
        groups: list[tuple] = []
        for members, key in runs:
            handle = self.network.bundle(members)
            if handle is None:
                return None
            groups.append((handle, *key))
        return groups

    def _wire_plan(self) -> _WirePlan:
        """Build (once) the launch skeleton for ring/half-ring wire flows.

        Safe to cache for the instance lifetime: hop structure and
        NVLink fabrics are fixed by the topology, and per-node stream
        caps come from the static cluster spec and build-time congestion
        map — runtime capacity degradation (``set_link_capacity``) does
        not alter them, it only breaks bundle exactness, which the
        cached :class:`~repro.sim.network.FlowBundle` handles re-check
        through their claim channels on every launch.
        """
        plan = self._wire_cache
        if plan is not None:
            return plan
        cluster = self.cluster
        specs: list[tuple[list[Link], float | None, int]] = []
        slowest_base: float | None = None
        if cluster.num_nodes > 1:
            hops = self._nic_hops()
            slowest_base = min(cluster.stream_cap_bps(src_node)
                               for src_node, _hop in hops)
            for src_node, hop in hops:
                specs.append((hop, cluster.stream_cap_bps(src_node), 1))
        if cluster.num_nodes == 1 or cluster.spec.gpus_per_node > 1:
            for fabric in self._nvlink_fabrics():
                specs.append(([fabric], None, 1))
        plan = _WirePlan(specs, self._bundle_runs(specs), slowest_base)
        self._wire_cache = plan
        return plan

    def _launch_wire(self, plan: _WirePlan, hop_bytes: float,
                     cap_scale: float, label: str) -> list[Event]:
        """Launch one ``hop_bytes`` transfer per wire-plan spec.

        Identical flow set and launch order as building the spec list
        per call (NIC hops in node order, then NVLink fabrics), with the
        plan's unscaled caps multiplied by ``cap_scale``; a bundled plan
        relaunches off its cached handles in O(runs).
        """
        if plan.runs is not None:
            return self._start(
                [(handle, hop_bytes,
                  None if base is None else base * cap_scale, weight)
                 for handle, base, weight in plan.runs], (), label)
        return self._start(
            None, [(links, hop_bytes,
                    None if base is None else base * cap_scale, weight)
                   for links, base, weight in plan.specs], label)

    def _slowest_stream_cap_bps(self, hops: t.Sequence[tuple[int, t.Any]],
                                cap_scale: float) -> float:
        """Per-stream cap of the slowest hop in a schedule.

        Exposed per-chunk overhead must be computed against the slowest
        NIC on the ring's path: the pipeline advances at the pace of its
        most constrained hop, so on clusters with heterogeneous NIC caps
        the default node's cap underestimates chunk wire time.  On
        symmetric clusters every cap is the identical float, so the min
        changes nothing (replay digests included).
        """
        return min(self.cluster.stream_cap_bps(src_node)
                   for src_node, _hop in hops) * cap_scale

    def _ring(self, size_bytes: float, cap_scale: float = 1.0) -> Event:
        """Flat topology-aware ring across all ``n`` GPUs."""
        n = self.cluster.world_size
        m = self.cluster.num_nodes
        spec = self.cluster.spec
        if n == 1:
            return self.sim.timeout(0.0)
        hop_bytes = ring_volume_bytes(size_bytes, n)
        steps = 2 * (n - 1)
        plan = self._wire_plan()

        if m > 1:
            # Per-chunk software overhead is pipelined behind chunk
            # transmission: only the part exceeding the chunk's wire time
            # is exposed on the critical path.  Small units at large n
            # (tiny chunks) therefore pay the overhead; big fusion
            # buffers hide it.  The wire time is set by the slowest hop
            # of the ring, not the default node's NIC.
            slowest = plan.slowest_base * cap_scale
            chunk_tx = (size_bytes / n) * 8.0 / slowest
            exposed = max(0.0,
                          spec.transport.per_message_overhead_s - chunk_tx)
            alpha = steps * exposed
            fill = m * spec.inter_node_latency_s + \
                (n - m) * spec.intra_node_latency_s
        else:
            alpha = steps * spec.intra_node_latency_s
            fill = 0.0

        all_flows = self.sim.all_of(
            self._launch_wire(plan, hop_bytes, cap_scale, "ring"))
        return self._after(all_flows, alpha + fill)

    def _hierarchical(self, size_bytes: float,
                      cap_scale: float = 1.0) -> Event:
        """Intra-node RS, g parallel inter-node rings, intra-node AG."""
        m = self.cluster.num_nodes
        g = self.cluster.spec.gpus_per_node
        if m == 1 or g == 1:
            return self._ring(size_bytes, cap_scale)
        spec = self.cluster.spec

        def schedule() -> t.Generator:
            # Phase 1: intra-node reduce-scatter.
            rs_bytes = size_bytes * (g - 1) / g
            yield self.sim.all_of(self._launch([
                ([fabric], rs_bytes, None, 1)
                for fabric in self._nvlink_fabrics()
            ], label="hierarchical"))
            yield self.sim.timeout((g - 1) * spec.intra_node_latency_s
                                   + HIERARCHICAL_PHASE_SYNC_S)

            # Phase 2: g parallel inter-node rings on 1/g shards.  The g
            # rings of one hop are symmetric clones (same links, same
            # cap), so each hop launches as one weighted flow.
            shard_hop = ring_volume_bytes(size_bytes / g, m)
            hops = self._nic_hops()
            yield self.sim.all_of(self._launch(
                [(hop, shard_hop * g,
                  self.cluster.stream_cap_bps(src_node) * cap_scale, g)
                 for src_node, hop in hops], label="hierarchical"))
            # Exposed overhead is paced by the slowest hop of the
            # inter-node rings (see _slowest_stream_cap_bps).
            shard_chunk_tx = (size_bytes / g / m) * 8.0 / \
                self._slowest_stream_cap_bps(hops, cap_scale)
            exposed = max(0.0, spec.transport.per_message_overhead_s
                          - shard_chunk_tx)
            yield self.sim.timeout(
                2 * (m - 1) * (spec.inter_node_latency_s + exposed)
                + HIERARCHICAL_PHASE_SYNC_S)

            # Phase 3: intra-node all-gather.
            ag_bytes = size_bytes * (g - 1) / g
            yield self.sim.all_of(self._launch([
                ([fabric], ag_bytes, None, 1)
                for fabric in self._nvlink_fabrics()
            ], label="hierarchical"))
            yield self.sim.timeout((g - 1) * spec.intra_node_latency_s)

        return self.sim.spawn(schedule(), name="hier.allreduce")

    def _planned(self, algorithm: str, size_bytes: float,
                 cap_scale: float) -> Event:
        """Execute a planner-synthesized schedule phase by phase."""
        planner = self._planner
        if planner is None:
            planner = self._planner = CollectivePlanner(self.cluster)
        schedule = planner.plan(algorithm, size_bytes, cap_scale)
        if not schedule.phases:
            return self.sim.timeout(0.0)
        timeline = self.obs.timeline

        def run() -> t.Generator:
            for phase in schedule.phases:
                phase_start = self.sim.now
                specs = [flow.as_request() for flow in phase.flows
                         if flow.size_bytes > 0]
                if specs:
                    yield self.sim.all_of(
                        self._launch(specs, label=algorithm))
                if phase.latency_s > 0:
                    yield self.sim.timeout(phase.latency_s)
                timeline.span(
                    f"collective.{phase.name}", "collective",
                    NETWORK_RANK, phase_start, self.sim.now,
                    algorithm=algorithm, bytes=size_bytes)

        return self.sim.spawn(run(), name=f"planned.{algorithm}")

    def _after(self, event: Event, delay_s: float) -> Event:
        """An event firing ``delay_s`` after ``event`` triggers."""
        done = self.sim.event(name="after")

        def _chain(_ev: Event) -> None:
            self.sim._schedule_at(self.sim.now + delay_s, done, None)

        event.add_callback(_chain)
        return done
