"""Flow-level (fluid) network model with max-min fair bandwidth sharing.

This module reproduces the mechanism at the heart of the paper: a single
TCP (or RDMA) stream cannot use the full capacity of a physical link, so
concurrent streams are required to saturate it.

Each :class:`Flow` transfers a fixed number of bytes across a set of
:class:`Link` objects.  Rates are assigned by progressive filling (max-min
fairness) subject to an optional **per-flow rate cap** — the per-stream
efficiency limit of the transport protocol.  Whenever a flow starts or
finishes, the allocation is recomputed and every in-flight flow's progress
is advanced.

Scaling to 1024–4096-rank clusters relies on two hot-path properties:

* **Incremental recomputation.**  A flow arrival/departure (or a capacity
  change) only re-solves the *bottleneck component* it touches: the links
  reachable from the changed links by hopping through shared flows.  In a
  non-blocking fabric each NIC pair and each NVLink fabric is its own
  component, so a 32-node cluster re-solves ~1/64th of the flow set per
  event.  Component-local progressive filling performs the *identical*
  floating-point operation sequence a from-scratch global solve would
  (components never interact), so rates — and therefore event times and
  replay digests — are bit-for-bit unchanged.  Water-filling is one
  loop per component, plus a fast path for a flow alone on its links;
  :func:`solve_rates_reference` keeps the from-scratch solver alive as the
  oracle the property-based tests check both against.

* **Flow bundling.**  A symmetric collective fan-out (one identical flow
  per node pair, pairwise-disjoint links) collapses into a single
  :class:`GroupFlow` solver entity: only the *representative* member's
  links enter the solver, the remaining members' links carry claim
  markers, and one completion event stands for the whole fan-out.  Any
  operation that would break the symmetry — a foreign flow or a capacity
  change touching a claimed link — first splits the bundle back into
  per-member flows, so rates stay exact under faults and congestion.
  Bundling thins the *event schedule* (fewer wakeups and completions)
  but never moves a completion time, so the timed collectives bundle
  every fan-out whose structure :meth:`FluidNetwork.bundle` accepts,
  at any scale.

Bundling keeps the solver entity count small (a handful per NIC pair), so
each flow's mutable solver state lives in plain attributes on its
:class:`Flow`, and the progress, completion and wakeup sweeps are loops
over the insertion-ordered flow set.

``start_flow(..., weight=k)`` models ``k`` identical transport streams as
one flow: the flow counts ``k`` toward every traversed link's load,
receives ``k`` fair shares, and its ``rate_cap_bps`` applies per stream.

One fill loop serves every component, over per-flow share weights
(:func:`share_weights`): the stream weight when all flows belong to one
tenant (``Flow.job``), else ``priority(job) * weight / W_job`` with
``W_job`` the tenant's stream weight in the component.  Jobs behind one
bottleneck split it by priority, and the fill stays a weighted max-min:
every flow ends at its cap or on a saturated link.

Capacities and rates are in **bits per second**, sizes in **bits**,
consistent with the rest of :mod:`repro.sim` (time in seconds).
"""

from __future__ import annotations

import itertools
import math
import typing as t

from repro.errors import NetworkError
from repro.sim.events import Event
from repro.sim.kernel import Simulator

#: Relative tolerance used when comparing rates during water-filling.
_EPS = 1e-9

#: A flow with less than half a bit outstanding is complete.  Transfers are
#: at least one byte, so this absorbs floating-point residue from progress
#: accounting without ever completing a fresh flow early.
_COMPLETE_BITS = 0.5

#: A capped flow counts as fabric-throttled only below this fraction of
#: its per-stream rate cap (see ``FluidNetwork._record_flow``).
THROTTLE_DEPTH = 0.5


def _check_transfer(size: float, rate_cap_bps: float | None) -> None:
    """Reject a transfer whose size or per-stream cap is not finite.

    A NaN or infinite size never drains and a NaN cap never binds, so
    either would stall or silently skew the water-fill far from the
    call that introduced it.
    """
    if not math.isfinite(size):
        raise NetworkError(f"flow size must be finite, got {size}")
    if rate_cap_bps is not None and not 0.0 < rate_cap_bps < math.inf:
        raise NetworkError(
            f"flow rate cap must be positive and finite when given, "
            f"got {rate_cap_bps}")


def _check_capacity(name: str, capacity_bps: float) -> None:
    if not 0.0 < capacity_bps < math.inf:
        raise NetworkError(
            f"link {name!r} capacity must be positive and finite, "
            f"got {capacity_bps}")


class Link:
    """A unidirectional network resource with finite capacity.

    A "link" may model a NIC transmit queue, a NIC receive queue, a switch
    uplink or an NVLink lane — anything whose capacity is shared by flows.
    """

    __slots__ = ("name", "capacity_bps", "latency_s", "flows", "load")

    def __init__(self, name: str, capacity_bps: float, latency_s: float = 0.0) -> None:
        _check_capacity(name, capacity_bps)
        if not 0.0 <= latency_s < math.inf:
            raise NetworkError(
                f"link {name!r} latency must be non-negative and finite, "
                f"got {latency_s}")
        self.name = name
        self.capacity_bps = float(capacity_bps)
        self.latency_s = float(latency_s)
        # Insertion-ordered (dict-as-set): flows hash by identity, so a
        # plain set would iterate in an address-dependent order and leak
        # run-to-run nondeterminism into rate assignment and completion
        # scheduling.
        self.flows: dict["Flow", None] = {}
        #: Cached total stream weight of the flows on this link — the
        #: water-filling load seed, maintained on flow add/remove so the
        #: solver never rebuilds it from scratch.  Weights are integers,
        #: so the cache is exact regardless of update order.
        self.load: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gbps = self.capacity_bps / 1e9
        return f"<Link {self.name} {gbps:.1f}Gbps {len(self.flows)} flows>"


class Flow:
    """A single in-flight data transfer across one or more links.

    ``weight`` models a bundle of identical transport streams: the flow
    takes ``weight`` shares of every traversed link and its per-stream
    rate cap scales accordingly (``rate_bps`` is the bundle total).

    Mutable solver state lives in plain attributes: ``remaining_bits``,
    ``rate_bps`` and ``_finish_s``, the cached seconds-to-completion
    (``inf`` while the rate is zero).  ``fanout`` is the number of
    member transfers the entity stands for (1 here), which scales its
    credit to :attr:`FluidNetwork.bits_delivered`.
    """

    __slots__ = ("flow_id", "links", "size_bits", "rate_cap_bps", "done",
                 "public_done", "started_at", "tail_latency_s", "weight",
                 "label", "job", "remaining_bits", "rate_bps", "_finish_s",
                 "fanout")

    _ids = itertools.count()

    def __init__(self, links: t.Sequence[Link],
                 size_bits: float, rate_cap_bps: float | None, done: Event,
                 now: float, tail_latency_s: float = 0.0, weight: int = 1,
                 label: str | None = None, job: str | None = None,
                 public_done: Event | None = None) -> None:
        _check_transfer(size_bits, rate_cap_bps)
        if size_bits < 0:
            raise NetworkError(f"flow size must be non-negative, got {size_bits}")
        if not links:
            raise NetworkError("flow must traverse at least one link")
        if not isinstance(weight, int) or weight < 1:
            raise NetworkError(
                f"flow weight must be a positive integer, got {weight!r}"
            )
        self.flow_id = next(Flow._ids)
        self.links = tuple(links)
        self.size_bits = float(size_bits)
        self.rate_cap_bps = rate_cap_bps
        self.done = done
        #: The event the caller holds: ``done`` itself for a flow started
        #: alone, the group's event for a member of a split bundle or of
        #: an unbundled group launch.  :meth:`FluidNetwork.cancel_flow`
        #: retires every flow behind it.
        self.public_done = done if public_done is None else public_done
        self.started_at = now
        self.tail_latency_s = tail_latency_s
        self.weight = weight
        #: Optional provenance tag (e.g. the collective algorithm that
        #: placed this flow); surfaces in flow telemetry, never in rates.
        self.label = label
        #: Owning tenant (``job_id``) on a shared multi-job fabric.
        #: Unlike ``label`` this *does* shape rate assignment: in a
        #: bottleneck component that mixes flows of two or more jobs,
        #: each flow's share weight becomes its job's priority
        #: (:attr:`FluidNetwork.job_priorities`) times its part of the
        #: job's stream weight there (:func:`share_weights`).  A
        #: component of one job, or of untagged flows only, fills on
        #: stream weights exactly as if no flow were tagged.
        self.job = job
        self.remaining_bits = self.size_bits
        self.rate_bps = 0.0
        self._finish_s = math.inf
        self.fanout = 1

    def member_link_sets(self) -> tuple[tuple[Link, ...], ...]:
        """Link sets of the transfers this entity stands for.

        A plain flow stands for itself; a :class:`GroupFlow` yields one
        link set per bundled member.  Telemetry (completion records, the
        diagnosis link sampler) iterates these so per-link accounting is
        identical whether or not a fan-out was bundled.
        """
        return (self.links,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow#{self.flow_id} {self.remaining_bits / 8e6:.2f}MB left "
                f"@ {self.rate_bps / 1e9:.2f}Gbps x{self.weight}>")


class GroupFlow(Flow):
    """A bundle of identical member transfers on pairwise-disjoint links.

    Only the representative member (``member_links[0]``) participates in
    rate solving; by construction every other member would see exactly
    the same capacities and competitors (competing entities on a bundled
    link are themselves aligned group members), so the representative's
    rate trajectory is exact for all members.  ``size_bits`` and
    ``rate_bps`` are **per member**; ``fanout`` (the member count)
    scales the delivered-bits credit to the full fan-out.

    ``member_links`` passed as a tuple is trusted to already be a tuple
    of link tuples (the canonical form) so that repeated launches off a
    cached :class:`FlowBundle` skip the per-member normalisation.
    """

    __slots__ = ("member_links", "_channel")

    def __init__(self, member_links: t.Sequence[t.Sequence[Link]],
                 size_bits: float, rate_cap_bps: float | None, done: Event,
                 now: float, tail_latency_s: float = 0.0, weight: int = 1,
                 label: str | None = None, job: str | None = None) -> None:
        members = member_links if isinstance(member_links, tuple) \
            else tuple(tuple(links) for links in member_links)
        if len(members) < 2:
            raise NetworkError("a flow group needs at least two members")
        self.member_links = members
        #: The :class:`_BundleChannel` whose claim this group rides
        #: (set by the network right after construction).
        self._channel: "_BundleChannel | None" = None
        super().__init__(members[0], size_bits, rate_cap_bps, done,
                         now, tail_latency_s=tail_latency_s, weight=weight,
                         label=label, job=job)
        self.fanout = len(members)

    def member_link_sets(self) -> tuple[tuple[Link, ...], ...]:
        return self.member_links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<GroupFlow#{self.flow_id} x{len(self.member_links)} members "
                f"{self.remaining_bits / 8e6:.2f}MB left each "
                f"@ {self.rate_bps / 1e9:.2f}Gbps>")


class FlowBundle:
    """Reusable handle for the member structure of one bundled fan-out.

    Created once by :meth:`FluidNetwork.bundle` (which performs the
    *structural* half of bundling validation — member shape and pairwise
    link disjointness, neither of which can change at runtime) and then
    passed to :meth:`FluidNetwork.start_flow_group` on every launch.
    The *dynamic* half — identical capacity profiles and unoccupied
    links — is checked when the handle first registers a claim channel,
    and the claim then persists across launches: a steady-state ring
    unit relaunches in O(representative links) instead of revalidating
    all members each step.
    """

    __slots__ = ("members", "_channel")

    def __init__(self, members: tuple[tuple[Link, ...], ...]) -> None:
        self.members = members
        self._channel: _BundleChannel | None = None


class _BundleChannel:
    """Live claim on one bundle's link set, shared by aligned handles.

    One channel owns each claimed link exclusively (channels are
    link-disjoint by registration), so a foreign touch on any claimed
    link identifies exactly the set of groups whose symmetry it breaks:
    the channel's.  ``claimed`` drops when the channel is deregistered;
    handles pointing at a dead channel re-register on their next launch.
    """

    __slots__ = ("members", "groups", "claimed")

    def __init__(self, members: tuple[tuple[Link, ...], ...]) -> None:
        self.members = members
        #: Live groups riding this claim, in creation order.
        self.groups: dict[GroupFlow, None] = {}
        self.claimed = True


def share_weights(component: t.Sequence[Flow],
                  job_priorities: t.Mapping[str, float]
                  ) -> dict[Flow, float] | None:
    """Per-flow share weights of one bottleneck component, or ``None``.

    A component whose flows all carry one ``job`` tag (untagged counts
    as one tag) returns ``None``: each flow takes ``weight`` shares, the
    classic single-tenant definition.  A component that mixes jobs
    gives flow ``f`` of job ``j`` the share weight
    ``priority(j) * f.weight / W_j``, where ``W_j`` is job ``j``'s total
    stream weight in the component: the jobs' share weights sum to
    their priorities, and each job splits its part by stream weight.
    Untagged flows pool as one pseudo-job; a job absent from
    ``job_priorities`` has priority 1.0.
    """
    job = component[0].job
    for flow in component:
        if flow.job != job:
            break
    else:
        return None
    totals: dict[str | None, int] = {}
    for flow in component:
        totals[flow.job] = totals.get(flow.job, 0) + flow.weight
    return {flow: job_priorities.get(flow.job, 1.0) * flow.weight
            / totals[flow.job] for flow in component}


def solve_rates_reference(flows: t.Iterable[Flow],
                          job_priorities: t.Mapping[str, float] | None = None
                          ) -> dict[Flow, float]:
    """From-scratch global max-min fair allocation (the oracle solver).

    This is the pre-incremental algorithm, kept as the reference the
    property-based tests compare the incremental solver against.  It
    does not mutate any flow; it returns the rate every active flow
    *should* carry given the current link capacities and memberships.

    Without ``job_priorities`` every flow takes ``weight`` shares.  With
    it (the network's :attr:`FluidNetwork.job_priorities`), the oracle
    finds the bottleneck components itself and gives the flows of each
    component that mixes jobs their :func:`share_weights`.
    """
    unassigned: dict[Flow, None] = dict.fromkeys(flows)
    shares: dict[Flow, float] = {flow: flow.weight for flow in unassigned}
    if job_priorities is not None:
        for component in _components(unassigned):
            mixed = share_weights(component, job_priorities)
            if mixed is not None:
                shares.update(mixed)
    residual = {link: link.capacity_bps
                for flow in unassigned for link in flow.links}
    load = {link: 0.0 for link in residual}
    live = {link: 0 for link in residual}
    for flow in unassigned:
        for link in flow.links:
            load[link] += shares[flow]
            live[link] += 1
    caps = {flow: flow.rate_cap_bps * flow.weight / shares[flow]
            for flow in unassigned if flow.rate_cap_bps is not None}
    rates: dict[Flow, float] = {}

    def fix(flow: Flow, per_share_rate: float) -> None:
        rates[flow] = max(0.0, per_share_rate) * shares[flow]
        unassigned.pop(flow, None)
        for link in flow.links:
            residual[link] = max(0.0, residual[link] - rates[flow])
            load[link] -= shares[flow]
            live[link] -= 1

    while unassigned:
        share = math.inf
        for link, cap in residual.items():
            if live[link] > 0:
                share = min(share, cap / load[link])
        if share is math.inf:  # pragma: no cover - defensive
            raise NetworkError("active flows traverse no loaded link")
        capped = [f for f in unassigned
                  if caps.get(f, math.inf) <= share * (1 + _EPS)]
        if capped:
            for flow in capped:
                fix(flow, caps[flow])
            continue
        bottlenecked = [
            f for f in unassigned
            if any(residual[l] / load[l] <= share * (1 + _EPS)
                   for l in f.links)
        ]
        for flow in bottlenecked:
            fix(flow, share)
    return rates


def _components(flows: t.Iterable[Flow]) -> list[list[Flow]]:
    """Group ``flows`` into bottleneck components (flows sharing links)."""
    group_of: dict[Link, list[Flow]] = {}
    for flow in flows:
        group = [flow]
        for link in flow.links:
            other = group_of.get(link, group)
            if other is not group:
                group += other
                for member in other:
                    group_of.update(dict.fromkeys(member.links, group))
        group_of.update(dict.fromkeys(flow.links, group))
    return list({id(group): group for group in group_of.values()}.values())


class FluidNetwork:
    """Tracks active flows and assigns max-min fair rates with caps.

    Parameters
    ----------
    sim:
        Owning simulator.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        # Insertion-ordered for the same reason as Link.flows: every
        # traversal (progress debits, water-filling, completion sweeps)
        # must visit flows in creation order so that identical runs
        # schedule identical event sequences.
        self.flows: dict[Flow, None] = {}
        #: Links whose flow membership or capacity changed since the last
        #: rate assignment; the solver re-solves only the components
        #: reachable from these (insertion-ordered for reproducibility).
        self._dirty_links: dict[Link, None] = {}
        #: ``link -> channel`` claim markers for every link a bundled
        #: fan-out stands on (representative links included).  Each link
        #: is owned by at most one :class:`_BundleChannel`; any foreign
        #: touch on a claimed link splits the channel's groups back into
        #: per-member flows and releases the claim.
        self._claims: dict[Link, _BundleChannel] = {}
        #: Monotonic token used to invalidate stale wakeup events.
        self._wakeup_token = 0
        #: Clock value of the last progress advance.  All flows advance
        #: in lockstep — every public operation advances before mutating
        #: the flow set — so one scalar timestamp replaces the per-flow
        #: ``_last_update`` field the scalar engine carried.
        self._progress_time = -1.0
        #: Raised when some flow may have crossed the completion
        #: threshold; gates the completion sweep in
        #: :meth:`_complete_finished`.
        self._maybe_finished = False
        #: Total bits delivered, for utilisation accounting.
        self.bits_delivered = 0.0
        #: Solver work counters (observability / benchmark forensics):
        #: rate assignments performed, and flows visited doing them.  A
        #: from-scratch solver visits ``len(self.flows)`` per event; the
        #: incremental solver visits only the dirty components.
        self.reallocations = 0
        self.solver_flow_visits = 0
        #: Optional :class:`repro.obs.Observability`; when attached,
        #: every completed flow is recorded as a per-link timeline span
        #: with its achieved rate and bottleneck utilisation (Fig. 3's
        #: per-stream link-utilisation measurement), plus flow metrics.
        self.obs = None
        #: Optional :class:`repro.obs.detectors.DetectorSuite`; when
        #: attached, the fluid model feeds it exact per-link utilisation
        #: intervals (rates are piecewise-constant between advances) and
        #: per-flow throttling verdicts.  Purely observational.
        self.diag = None
        #: Provenance tag stamped on every flow created while set (the
        #: timed collectives set it to the running algorithm's name so
        #: flow telemetry can be sliced per algorithm).  Purely
        #: observational: it never influences rate assignment.
        self.flow_label: str | None = None
        #: Tenant tag stamped on every flow created while set (the
        #: cluster runtime sets it around each job's launches).  It sets
        #: the flow's share weight in components that mix jobs — see
        #: :attr:`Flow.job` and :func:`share_weights`.
        self.flow_job: str | None = None
        #: ``job_id -> priority`` for inter-job fairness: in a component
        #: that mixes jobs, each job's flows take shares summing to its
        #: priority, so jobs behind one bottleneck get rates in that
        #: proportion.  Jobs absent from the map (and untagged flows,
        #: which pool under one pseudo-job) have priority 1.0.
        self.job_priorities: dict[str, float] = {}

    # -- public API -------------------------------------------------------

    def start_flow(self, links: t.Sequence[Link], size_bytes: float,
                   rate_cap_bps: float | None = None,
                   weight: int = 1) -> Event:
        """Begin transferring ``size_bytes`` across ``links``.

        ``weight`` bundles that many identical transport streams into one
        flow (see :class:`Flow`); ``size_bytes`` is the bundle total and
        ``rate_cap_bps`` stays per stream.

        Returns an event that triggers when the last byte has drained plus
        the sum of the link latencies.  The event's value is the flow's
        transfer duration in seconds.
        """
        _check_transfer(size_bytes, rate_cap_bps)
        if size_bytes <= 0:
            # Pure-latency "transfer" (e.g. a control message of negligible
            # size); never enters the rate allocator.
            done = self.sim.event(name="flow.done")
            latency = sum(link.latency_s for link in links)
            self.sim._schedule_at(self.sim.now + latency, done, latency)
            return done
        return self._start_flows(
            [(links, size_bytes, rate_cap_bps, weight)])[0]

    def start_flows(self, requests: t.Sequence[tuple[
            t.Sequence[Link], float, float | None, int]]) -> list[Event]:
        """Begin several transfers arriving at the same instant.

        ``requests`` is a sequence of ``(links, size_bytes, rate_cap_bps,
        weight)`` tuples.  Semantically identical to calling
        :meth:`start_flow` once per request — max-min rates are a pure
        function of the resulting flow set, and no simulated time passes
        between same-instant arrivals — but the allocator runs **once**
        for the whole batch instead of once per flow.  Large collectives
        use this to insert their per-hop flow fan-out (2·nodes flows per
        ring unit at 128 ranks) without quadratic reallocation churn.

        Note the event-schedule difference: per-flow insertion leaves one
        superseded wakeup event per intermediate allocation in the kernel
        heap, batch insertion does not.  Completion times are identical,
        so the timed collectives insert every fan-out they cannot bundle
        through this call.
        """
        return self._start_flows(requests)

    def _start_flows(self, requests: t.Sequence[tuple[
            t.Sequence[Link], float, float | None, int]],
            public_done: Event | None = None) -> list[Event]:
        """:meth:`start_flows`, optionally tying every flow to one event.

        ``public_done`` is the single event a caller of
        :meth:`start_flow_group` holds for the whole fan-out; stamping it
        on the member flows lets :meth:`cancel_flow` find them.
        """
        for _links, size_bytes, rate_cap_bps, _weight in requests:
            _check_transfer(size_bytes, rate_cap_bps)
        if self._claims:
            self._split_claimed(
                link for links, _size, _cap, _weight in requests
                for link in links)
        self._advance_progress()
        events: list[Event] = []
        flows: list[Flow] = []
        now = self.sim.now
        for links, size_bytes, rate_cap_bps, weight in requests:
            done = self.sim.event(name="flow.done")
            events.append(done)
            latency = sum(link.latency_s for link in links)
            if size_bytes <= 0:
                self.sim._schedule_at(now + latency, done, latency)
                continue
            flows.append(Flow(links, size_bytes * 8.0, rate_cap_bps, done,
                              now, tail_latency_s=latency, weight=weight,
                              label=self.flow_label, job=self.flow_job,
                              public_done=public_done))
        if not flows:
            return events
        dirty = self._dirty_links
        for flow in flows:
            self.flows[flow] = None
            if flow.size_bits <= _COMPLETE_BITS:
                self._maybe_finished = True
            weight = flow.weight
            for link in flow.links:
                link.flows[flow] = None
                link.load += weight
                dirty[link] = None
        self._reallocate()
        return events

    def bundle(self, member_links: t.Sequence[t.Sequence[Link]]
               ) -> FlowBundle | None:
        """Precompute a reusable :class:`FlowBundle` handle for a fan-out.

        Performs the structural half of bundling validation — at least
        two members, equal member lengths, pairwise-disjoint links —
        which depends only on the (immutable) topology, so callers that
        relaunch the same fan-out every step (the timed collectives'
        wire plans) pay it once.  Returns ``None`` when the structure
        can never bundle (e.g. every member shares an oversubscribed
        core link); such fan-outs always take the per-member path.
        """
        members = member_links if isinstance(member_links, tuple) \
            else tuple(tuple(links) for links in member_links)
        if len(members) < 2:
            return None
        rep_len = len(members[0])
        seen: set[Link] = set()
        for links in members:
            if len(links) != rep_len:
                return None
            for link in links:
                if link in seen:
                    return None
                seen.add(link)
        return FlowBundle(members)

    def start_flow_group(self,
                         member_links: "FlowBundle | t.Sequence[t.Sequence[Link]]",
                         size_bytes: float,
                         rate_cap_bps: float | None = None,
                         weight: int = 1) -> Event:
        """Begin one identical ``size_bytes`` transfer per member link set.

        The symmetric fan-out of a large collective — one flow per node
        pair, all the same size/cap/weight on pairwise-disjoint,
        capacity-identical paths — enters the solver as a **single**
        :class:`GroupFlow` entity when bundling is exact (structure via
        :meth:`bundle`, capacity profile and link occupancy via the
        claim channel); otherwise this falls back to per-member flows
        through the batched path, so the returned event's timing is
        identical either way.  ``member_links`` may be a
        :class:`FlowBundle` from :meth:`bundle`, in which case the
        steady-state relaunch costs O(representative links) only.
        Returns one event that triggers when every member has drained
        plus the link latencies; its value is the member transfer
        duration plus tail latency.
        """
        _check_transfer(size_bytes, rate_cap_bps)
        if isinstance(member_links, FlowBundle):
            handle: FlowBundle | None = member_links
            members = member_links.members
        else:
            members = tuple(tuple(links) for links in member_links)
            if not members:
                raise NetworkError("a flow group needs at least one member")
            handle = self.bundle(members)
        if len(members) == 1:
            return self.start_flow(members[0], size_bytes,
                                   rate_cap_bps=rate_cap_bps, weight=weight)
        rep = members[0]
        latency = sum(link.latency_s for link in rep)
        if size_bytes <= 0:
            done = self.sim.event(name="flowgroup.done")
            self.sim._schedule_at(self.sim.now + latency, done, latency)
            return done
        channel = handle._channel if handle is not None else None
        if channel is None or not channel.claimed:
            channel = self._register_bundle(handle) \
                if handle is not None else None
            if handle is not None:
                handle._channel = channel
        if channel is None:
            # Fall back to per-member flows (splitting any bundles the
            # members' links belong to happens inside _start_flows); a
            # countdown joins the member completions into the single
            # event this API promises.
            done = self.sim.event(name="flowgroup.done")
            events = self._start_flows(
                [(links, size_bytes, rate_cap_bps, weight)
                 for links in members], public_done=done)
            pending = [len(events)]

            def _member_done(ev: Event) -> None:
                pending[0] -= 1
                if pending[0] == 0:
                    done.succeed(ev.value)

            for event in events:
                event.add_callback(_member_done)
            return done
        self._advance_progress()
        done = self.sim.event(name="flowgroup.done")
        group = GroupFlow(members, size_bytes * 8.0,
                          rate_cap_bps, done, self.sim.now,
                          tail_latency_s=latency, weight=weight,
                          label=self.flow_label, job=self.flow_job)
        group._channel = channel
        channel.groups[group] = None
        if group.size_bits <= _COMPLETE_BITS:
            self._maybe_finished = True
        self.flows[group] = None
        dirty = self._dirty_links
        for link in rep:
            link.flows[group] = None
            link.load += weight
            dirty[link] = None
        self._reallocate()
        return done

    def cancel_flow(self, done: Event) -> bool:
        """Abort the in-flight transfer whose completion event is ``done``.

        The fault-injection hook: an interrupted worker's transfers stop
        consuming bandwidth immediately, and their completion events are
        simply never fired (matching a hung NCCL collective, which is
        detected by timeout, not by an error).  Bandwidth is
        re-allocated to the survivors at once.  A group's event (from
        :meth:`start_flow_group`) retires every member behind it, whether
        the fan-out is still bundled, was split by a foreign flow, or
        never bundled.  Returns ``False`` when no in-flight flow owns
        ``done`` (already completed, zero-byte, or never started) —
        cancelling twice is a harmless no-op.

        Superseded wakeup events left in the kernel heap by the
        cancelled allocation are *not* recycled here: they still hold
        pending heap entries, and :meth:`Simulator.release_event`
        refuses them (see the event-pool regression tests), so they die
        naturally when popped instead of resurrecting into the pool.
        """
        victims = [flow for flow in self.flows if flow.public_done is done]
        if not victims:
            return False
        self._advance_progress()
        for flow in victims:
            self._retire_flow(flow)
        self._reallocate()
        return True

    def utilization_of(self, link: Link) -> float:
        """Instantaneous fraction of ``link`` capacity currently in use."""
        used = sum(f.rate_bps for f in link.flows)
        channel = self._claims.get(link)
        if channel is not None:
            # Non-representative bundled members do not sit in
            # ``link.flows``; credit their per-member rates explicitly.
            for group in channel.groups:
                if link not in group.links:
                    used += group.rate_bps
        return used / link.capacity_bps

    def set_link_capacity(self, link: Link, capacity_bps: float) -> None:
        """Change a link's capacity mid-simulation.

        The paper's auto-tuner exists partly because "the underlying
        network infrastructure ... can vary during runtime" (§I) — this
        is the hook that varies it.  In-flight flows are re-allocated
        immediately at the new capacity.
        """
        _check_capacity(link.name, capacity_bps)
        if self._claims:
            # A capacity change on any bundled member's link breaks the
            # symmetry bundling relies on; split first so the degraded
            # member is solved individually.
            self._split_claimed((link,))
        self._advance_progress()
        link.capacity_bps = float(capacity_bps)
        self._dirty_links[link] = None
        self._reallocate()

    # -- bundling ----------------------------------------------------------

    def _register_bundle(self, handle: FlowBundle) -> _BundleChannel | None:
        """Claim a handle's links, validating the dynamic exactness half.

        Exactness conditions beyond the structural ones :meth:`bundle`
        already pinned: every member traverses the same capacity/latency
        profile as the representative, and every link is otherwise
        unoccupied — except by an **aligned** channel (identical member
        partition), whose representatives share the same links and
        therefore keep the symmetry exact; such a channel is adopted so
        concurrent aligned launches (multi-stream pipelining) share one
        claim.  Stale claims of idle misaligned channels are evicted.
        Runs once per handle lifetime in the steady state; returns
        ``None`` when bundling is not exact right now.
        """
        members = handle.members
        profile = tuple((link.capacity_bps, link.latency_s)
                        for link in members[0])
        for links in members:
            if tuple((link.capacity_bps, link.latency_s)
                     for link in links) != profile:
                return None
        claims = self._claims
        channels: dict[int, _BundleChannel] = {}
        for links in members:
            for link in links:
                existing = claims.get(link)
                if existing is not None:
                    channels[id(existing)] = existing
                elif link.flows:
                    return None
        adopted: _BundleChannel | None = None
        for existing in channels.values():
            if existing.members == members:
                adopted = existing
            elif existing.groups:
                return None
            else:
                self._deregister_channel(existing)
        channel = adopted if adopted is not None else _BundleChannel(members)
        for links in members:
            for link in links:
                claims[link] = channel
        return channel

    def _deregister_channel(self, channel: _BundleChannel) -> None:
        """Release a channel's link claims; its handles re-register later."""
        claims = self._claims
        for links in channel.members:
            for link in links:
                if claims.get(link) is channel:
                    del claims[link]
        channel.claimed = False

    def _split_claimed(self, links: t.Iterable[Link]) -> None:
        """Split every bundle whose symmetry ``links`` would break.

        Channels are link-disjoint and a channel's split flows land only
        on its own links, so the split set is exactly the touched
        channels' groups — no transitive closure across channels is
        possible.  Splits apply in flow-creation order (deterministic
        regardless of discovery order).
        """
        claims = self._claims
        if not claims:
            return
        channels: dict[int, _BundleChannel] = {}
        for link in links:
            channel = claims.get(link)
            if channel is not None:
                channels[id(channel)] = channel
        if not channels:
            return
        groups = [group for channel in channels.values()
                  for group in channel.groups]
        for channel in channels.values():
            self._deregister_channel(channel)
        for group in sorted(groups, key=lambda g: g.flow_id):
            self._split_group(group)

    def _split_group(self, group: GroupFlow) -> None:
        """Replace one bundle with per-member flows, mid-transfer.

        The members inherit the bundle's progress (identical by
        symmetry), its start time and its tail latency; a countdown
        joins their completions into the group's original public event,
        so callers holding it observe nothing.  The caller is expected
        to continue its own operation and re-allocate once.
        """
        self._advance_progress()
        remaining = group.remaining_bits
        self._retire_flow(group)
        pending = [len(group.member_links)]
        public = group.done

        def _member_done(ev: Event) -> None:
            pending[0] -= 1
            if pending[0] == 0:
                public.succeed(ev.value)

        dirty = self._dirty_links
        for links in group.member_links:
            inner = self.sim.event(name="flow.done")
            inner.add_callback(_member_done)
            flow = Flow(links, group.size_bits, group.rate_cap_bps, inner,
                        group.started_at,
                        tail_latency_s=group.tail_latency_s,
                        weight=group.weight, label=group.label,
                        job=group.job, public_done=group.public_done)
            flow.remaining_bits = remaining
            if remaining <= _COMPLETE_BITS:
                self._maybe_finished = True
            self.flows[flow] = None
            for link in links:
                link.flows[flow] = None
                link.load += group.weight
                dirty[link] = None

    # -- engine -----------------------------------------------------------

    def _advance_progress(self) -> None:
        """Debit every active flow for the time elapsed at its current rate.

        One loop over the flow set: every public operation advances
        before mutating the flow set, so all flows share the same
        elapsed interval.  Each moving flow sends ``rate * elapsed``
        (clamped to what it has left) and re-projects its
        seconds-to-completion; a zero-rate flow is left untouched, and
        it cannot be at the completion threshold (the completion sweep
        retired every such flow).  If the clock has not moved since the
        last advance the whole update is skipped — the common case for
        batched same-instant arrivals.
        """
        now = self.sim.now
        if now == self._progress_time:
            return
        elapsed = now - self._progress_time
        if self.diag is not None and self._progress_time >= 0.0 and self.flows:
            # Rates were constant over the elapsed interval, so this
            # samples link utilisation exactly (no polling error).
            self.diag.link_sampler.observe_interval(elapsed, self.flows)
        self._progress_time = now
        delivered = 0.0
        for flow in self.flows:
            rate = flow.rate_bps
            if rate > 0.0:
                sent = rate * elapsed
                remaining = flow.remaining_bits
                if sent > remaining:
                    sent = remaining
                remaining -= sent
                flow.remaining_bits = remaining
                flow._finish_s = remaining / rate
                delivered += sent * flow.fanout
                if remaining <= _COMPLETE_BITS:
                    self._maybe_finished = True
        self.bits_delivered += delivered

    def _reallocate(self) -> None:
        """Re-run water-filling and schedule the next completion wakeup.

        Finished flows are retired *before* rates are assigned so that their
        bandwidth is immediately redistributed to the survivors.
        """
        self._complete_finished()
        self._assign_rates()
        self._schedule_wakeup()

    def _assign_rates(self) -> None:
        """Incremental progressive-filling max-min fair allocation.

        Only the components reachable from the dirty links are re-solved;
        every other flow keeps its cached rate, which equals what a
        from-scratch solve would assign (components are independent, and
        component-local filling performs the identical float operations).
        """
        if not self._dirty_links:
            return
        self.reallocations += 1
        dirty = self._dirty_links
        self._dirty_links = {}
        # Expand each dirty link to its bottleneck component — the links
        # reachable by hopping through shared flows — and solve every
        # component separately.  Components are independent by
        # construction, so per-component filling performs the identical
        # float operations a merged solve would, while each filling
        # round scans only that component's links and flows (a batched
        # ring fan-out dirties dozens of *disjoint* NIC-pair components
        # at once; merging them would make every round quadratic).
        links_seen: dict[Link, None] = {}
        for start in dirty:
            if start in links_seen:
                continue
            links_seen[start] = None
            flows_seen: dict[Flow, None] = {}
            frontier: list[Link] = [start]
            while frontier:
                link = frontier.pop()
                for flow in link.flows:
                    if flow in flows_seen:
                        continue
                    flows_seen[flow] = None
                    for other in flow.links:
                        if other not in links_seen:
                            links_seen[other] = None
                            frontier.append(other)
            if flows_seen:
                self.solver_flow_visits += len(flows_seen)
                self._solve_component(flows_seen)

    def _solve_component(self, flows_seen: dict[Flow, None]) -> None:
        """Water-fill one bottleneck component over :func:`share_weights`."""
        if len(flows_seen) == 1:
            # Fast path: a flow alone on its links (the common case on a
            # non-blocking fabric, where every NIC pair is its own
            # component).  Performs the same divisions/comparisons the
            # general loop would — ``residual/load`` is
            # ``capacity_bps / weight`` here — so rates are bit-equal.
            (flow,) = flows_seen
            weight = flow.weight
            share = math.inf
            for link in flow.links:
                per_stream = link.capacity_bps / weight
                if per_stream < share:
                    share = per_stream
            cap = flow.rate_cap_bps
            if cap is not None and cap <= share * (1 + _EPS):
                share = cap
            rate = share if share > 0.0 else 0.0
            if weight != 1:
                rate *= weight
            flow.rate_bps = rate
            flow._finish_s = (flow.remaining_bits / rate
                              if rate > 0 else math.inf)
            return
        # Global creation order makes the per-link arithmetic match a
        # from-scratch global solve exactly.
        component = sorted(flows_seen, key=lambda f: f.flow_id)
        shares = share_weights(component, self.job_priorities)
        # Unfixed flow -> share weight, unfixed capped flow -> cap per
        # share.  One tenant keeps integer weights and exact caps.
        if shares is None:
            unassigned = {flow: flow.weight for flow in component}
            caps = {flow: flow.rate_cap_bps for flow in component
                    if flow.rate_cap_bps is not None}
        else:
            unassigned = shares
            caps = {flow: flow.rate_cap_bps * flow.weight / shares[flow]
                    for flow in component if flow.rate_cap_bps is not None}
        # Per link with unfixed flows: residual capacity, their share
        # weight and their count.  The integer count retires a link, so
        # a float residue in its share weight never offers a share.
        residual: dict[Link, float] = {}
        load: dict[Link, float] = {}
        live: dict[Link, int] = {}
        for flow in component:
            for link in flow.links:
                if link not in residual:
                    residual[link] = link.capacity_bps
                    live[link] = len(link.flows)
                    load[link] = link.load if shares is None \
                        else sum(shares[f] for f in link.flows)

        while unassigned:
            # Fair share currently offered by the most constrained link.
            share = math.inf
            for link, left in residual.items():
                offer = left / load[link]
                if offer < share:
                    share = offer
            if share is math.inf:  # pragma: no cover - defensive
                raise NetworkError("active flows traverse no loaded link")
            limit = share * (1 + _EPS)
            # Flows whose cap is below the fair share take their cap and
            # release the surplus to everyone else; otherwise every flow
            # crossing a bottleneck link is frozen at the share.
            frozen = [(f, cap) for f, cap in caps.items() if cap <= limit]
            if not frozen:
                frozen = [(f, share) for f in unassigned
                          if any(residual[l] / load[l] <= limit
                                 for l in f.links)]
            for flow, per_share in frozen:
                caps.pop(flow, None)
                weight = unassigned.pop(flow)
                rate = (per_share if per_share > 0.0 else 0.0) * weight
                flow.rate_bps = rate
                flow._finish_s = (flow.remaining_bits / rate
                                  if rate > 0 else math.inf)
                for link in flow.links:
                    count = live[link] - 1
                    if count:
                        live[link] = count
                        left = residual[link] - rate
                        residual[link] = left if left > 0.0 else 0.0
                        load[link] -= weight
                    else:
                        del live[link], residual[link], load[link]

    def _retire_flow(self, flow: Flow) -> None:
        """Remove one entity from the flow set and its links.

        A retiring group leaves its channel's claim in place: the
        steady-state relaunch next step reuses it for O(1) validation,
        and an idle claim is evicted lazily by the first foreign touch.
        """
        self.flows.pop(flow, None)
        dirty = self._dirty_links
        weight = flow.weight
        for link in flow.links:
            link.flows.pop(flow, None)
            link.load -= weight
            dirty[link] = None
        if isinstance(flow, GroupFlow):
            channel = flow._channel
            if channel is not None:
                channel.groups.pop(flow, None)

    def _complete_finished(self) -> None:
        """Fire completion events for flows that have fully drained.

        A flow can only cross the completion threshold inside
        :meth:`_advance_progress` (or arrive already sub-threshold), and
        both paths raise ``_maybe_finished`` — so when the flag is down
        the scan is skipped entirely.  The scan walks the insertion-ordered
        flow set, so same-instant completions fire in flow-creation order.
        """
        if not self._maybe_finished:
            return
        self._maybe_finished = False
        flows_done = [flow for flow in self.flows
                      if flow.remaining_bits <= _COMPLETE_BITS]
        now = self.sim.now
        for flow in flows_done:
            self._retire_flow(flow)
            duration = now - flow.started_at
            tail = flow.tail_latency_s
            if self.obs is not None:
                self._record_flow(flow, duration)
            self.sim._schedule_at(now + tail, flow.done, duration + tail)

    def _record_flow(self, flow: Flow, duration: float) -> None:
        """Record one completed entity's telemetry (obs attached only).

        Bundled groups are unrolled: one record per member, each against
        its own links and bottleneck, so per-link counters, spans and
        diagnosis state are identical whether or not the fan-out was
        bundled (the bundled-diagnosis equivalence tests pin this).
        """
        obs = self.obs
        from repro.obs.timeline import NETWORK_RANK

        for links in flow.member_link_sets():
            bottleneck = min(links, key=lambda link: link.capacity_bps)
            rate = flow.size_bits / duration if duration > 0 \
                else bottleneck.capacity_bps
            utilisation = min(1.0, rate / bottleneck.capacity_bps)
            # A flow is *throttled* when its per-stream achieved rate
            # landed below half its per-stream cap: the fabric, not the
            # endpoint, was the limiter.  The depth threshold separates
            # pathology from healthy multi-stream NIC saturation — N
            # concurrent streams fair-sharing their own NIC sit
            # shallowly below cap by design (that is the multi-stream
            # point), while an oversubscribed shared spine cuts each
            # stream to a fraction of it.
            throttled = (flow.rate_cap_bps is not None and duration > 0
                         and rate / flow.weight
                         < flow.rate_cap_bps * THROTTLE_DEPTH)
            if self.diag is not None:
                self.diag.observe_flow(
                    [link.name for link in links], flow.label,
                    flow.size_bits / 8.0, duration, throttled,
                    job=flow.job)
            span_meta: dict[str, object] = dict(
                lane=bottleneck.name, bytes=flow.size_bits / 8.0,
                rate_bps=rate, utilisation=utilisation,
                capped=flow.rate_cap_bps is not None, throttled=throttled)
            metric_labels: dict[str, str] = {"link": bottleneck.name}
            if flow.label is not None:
                span_meta["algorithm"] = flow.label
                metric_labels["algorithm"] = flow.label
            if flow.job is not None:
                span_meta["job"] = flow.job
                metric_labels["job"] = flow.job
            obs.timeline.span(
                "flow", "net", NETWORK_RANK, flow.started_at, self.sim.now,
                **span_meta)
            registry = obs.registry
            registry.counter(
                "network_flows_total",
                "Completed flows per bottleneck link").inc(**metric_labels)
            registry.counter(
                "network_bytes_total",
                "Bytes delivered per bottleneck link").inc(
                    flow.size_bits / 8.0, **metric_labels)
            registry.histogram(
                "network_flow_utilisation",
                "Per-flow achieved rate over bottleneck link capacity",
                buckets=(0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 0.9, 1.0)).observe(
                    utilisation, link=bottleneck.name)

    def _schedule_wakeup(self) -> None:
        """Schedule a kernel event at the earliest next flow completion.

        The next completion is the smallest cached seconds-to-completion
        over the flow set (``inf`` while a flow's rate is zero).  Wakeup
        events are recycled through the kernel's event pool.
        """
        self._wakeup_token += 1
        token = self._wakeup_token
        next_finish = min((flow._finish_s for flow in self.flows),
                          default=math.inf)
        if next_finish == math.inf:
            if self.flows:
                raise NetworkError(
                    "active flows exist but none can make progress "
                    "(all rates are zero)"
                )
            return
        wakeup = self.sim.pooled_event("network.wakeup")
        wakeup.add_callback(lambda ev: self._on_wakeup(token, ev))
        self.sim._schedule_at(self.sim.now + next_finish, wakeup, None)

    def _on_wakeup(self, token: int, wakeup: Event) -> None:
        self.sim.release_event(wakeup)
        if token != self._wakeup_token:
            return  # a newer allocation superseded this wakeup
        self._advance_progress()
        self._reallocate()
