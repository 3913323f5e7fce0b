"""Property-based tests for the fluid network model.

Invariants checked over randomly generated flow/link configurations:

1. **capacity** — the instantaneous sum of flow rates on any link never
   exceeds its capacity;
2. **caps** — no flow ever exceeds its per-stream rate cap;
3. **completion** — every flow eventually completes, and its measured
   duration is at least ``bytes / min(link capacity, cap)`` (no flow can
   beat physics) and at most ``bytes / (capacity / k)`` for ``k``
   concurrent flows (max-min fairness guarantees a fair share);
4. **work conservation** — a single uncapped flow on an idle link runs
   at full capacity;
5. **incremental = oracle** — at every audited instant the incremental
   (dirty-component) solver's cached rates equal what the from-scratch
   :func:`~repro.sim.network.solve_rates_reference` solver would assign
   to the same flow set, including under weights, caps, arrivals,
   departures and mid-run capacity changes;
6. **batching** — inserting a set of same-instant flows through
   ``start_flows`` yields bit-identical completion times to inserting
   them one ``start_flow`` at a time;
7. **weights** — a ``weight=k`` bundle of total size ``S`` completes at
   the same time as ``k`` parallel identical flows of size ``S/k``;
8. **jobs** — with flows of several tenants sharing links: no link over
   capacity, every flow within its cap, every flow at its cap or on a
   saturated link, jobs behind one common bottleneck sharing it by
   priority, the incremental solver equal to the oracle, and tagging
   every flow with one job changing no rate bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidNetwork, Link, Simulator
from repro.sim.network import GroupFlow, solve_rates_reference


@st.composite
def flow_scenarios(draw):
    num_links = draw(st.integers(1, 3))
    capacities = [draw(st.floats(1e8, 1e10)) for _ in range(num_links)]
    num_flows = draw(st.integers(1, 6))
    flows = []
    for _ in range(num_flows):
        links = sorted(draw(st.sets(st.integers(0, num_links - 1),
                                    min_size=1, max_size=num_links)))
        size = draw(st.floats(1e3, 1e7))
        capped = draw(st.booleans())
        cap = draw(st.floats(1e7, 2e9)) if capped else None
        start = draw(st.floats(0, 0.5))
        flows.append((links, size, cap, start))
    return capacities, flows


class TestNetworkInvariants:
    @settings(max_examples=60, deadline=None)
    @given(scenario=flow_scenarios())
    def test_rates_and_completion(self, scenario):
        capacities, flow_specs = scenario
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", capacity)
                 for i, capacity in enumerate(capacities)]
        events = []

        def starter(spec):
            link_ids, size, cap, start = spec

            def process():
                yield sim.timeout(start)
                done = net.start_flow([links[i] for i in link_ids], size,
                                      rate_cap_bps=cap)
                events.append((done, size, cap, link_ids))
                yield done

            return process()

        processes = [sim.spawn(starter(spec)) for spec in flow_specs]

        # Audit rates whenever the allocation might change.
        violations = []

        def audit():
            while True:
                for link in links:
                    used = sum(f.rate_bps for f in link.flows)
                    if used > link.capacity_bps * (1 + 1e-6):
                        violations.append((link.name, used))
                for link in links:
                    for flow in link.flows:
                        if flow.rate_cap_bps is not None and \
                                flow.rate_bps > flow.rate_cap_bps * (1 + 1e-6):
                            violations.append(("cap", flow.rate_bps))
                yield sim.timeout(0.01)

        auditor = sim.spawn(audit())
        sim.run(until=sim.all_of(processes))
        assert not violations

        # Every flow completed, and durations respect physics.
        for done, size, cap, link_ids in events:
            assert done.triggered
            duration = done.value
            best_rate = min(capacities[i] for i in link_ids)
            if cap is not None:
                best_rate = min(best_rate, cap)
            floor = size * 8.0 / best_rate
            assert duration >= floor * (1 - 1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        capacity=st.floats(1e8, 1e10),
        size=st.floats(1e3, 1e8),
    )
    def test_single_flow_work_conserving(self, capacity, size):
        sim = Simulator()
        net = FluidNetwork(sim)
        link = Link("l", capacity)
        done = net.start_flow([link], size)
        sim.run(until=done)
        assert sim.now == pytest.approx(size * 8.0 / capacity, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(2, 8),
        size=st.floats(1e4, 1e7),
    )
    def test_equal_flows_fair_share(self, k, size):
        # k identical uncapped flows on one link each get capacity/k and
        # all finish simultaneously at k x the solo duration.
        capacity = 1e9
        sim = Simulator()
        net = FluidNetwork(sim)
        link = Link("l", capacity)
        flows = [net.start_flow([link], size) for _ in range(k)]
        sim.run(until=sim.all_of(flows))
        assert sim.now == pytest.approx(k * size * 8.0 / capacity,
                                        rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 6),
        weight=st.integers(1, 8),
        capped=st.booleans(),
    )
    def test_weighted_capacity_invariant(self, k, weight, capped):
        # k weight-`weight` bundles sharing a link: the summed bundle
        # rates never exceed capacity, and a capped bundle never exceeds
        # cap x weight (the cap is per stream).
        capacity = 1e9
        cap = capacity / (k * weight * 2) if capped else None
        sim = Simulator()
        net = FluidNetwork(sim)
        link = Link("l", capacity)
        done = [net.start_flow([link], 1e5, rate_cap_bps=cap, weight=weight)
                for _ in range(k)]
        used = sum(f.rate_bps for f in link.flows)
        assert used <= capacity * (1 + 1e-6)
        for flow in link.flows:
            if cap is not None:
                assert flow.rate_bps <= cap * weight * (1 + 1e-6)
        sim.run(until=sim.all_of(done))
        assert not link.flows

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bytes_conserved(self, seed):
        rng = np.random.default_rng(seed)
        sim = Simulator()
        net = FluidNetwork(sim)
        link = Link("l", 1e9)
        sizes = rng.uniform(1e3, 1e6, size=rng.integers(1, 6))
        flows = [net.start_flow([link], float(s)) for s in sizes]
        sim.run(until=sim.all_of(flows))
        assert net.bits_delivered == pytest.approx(float(sizes.sum()) * 8,
                                                   rel=1e-9)


@st.composite
def weighted_scenarios(draw):
    """Random multi-link workloads with weights, caps and arrival times."""
    num_links = draw(st.integers(1, 4))
    capacities = [draw(st.floats(1e8, 1e10)) for _ in range(num_links)]
    num_flows = draw(st.integers(1, 8))
    flows = []
    for _ in range(num_flows):
        links = sorted(draw(st.sets(st.integers(0, num_links - 1),
                                    min_size=1, max_size=num_links)))
        size = draw(st.floats(1e3, 1e7))
        cap = draw(st.floats(1e7, 2e9)) if draw(st.booleans()) else None
        weight = draw(st.integers(1, 4))
        start = draw(st.floats(0, 0.3))
        flows.append((links, size, cap, weight, start))
    return capacities, flows


class TestIncrementalSolverEquivalence:
    """The dirty-component solver must agree with the from-scratch oracle.

    ``solve_rates_reference`` is the pre-incremental global algorithm,
    kept verbatim as the test oracle.  The incremental solver caches
    rates across events and only re-solves dirtied components, so any
    bug in dirty-link tracking, component expansion or cached state
    shows up here as a stale (wrong) rate.
    """

    #: Near-ties *across* independent components may be resolved within
    #: the solver's 1e-9 water-filling tolerance differently by the two
    #: algorithms; anything beyond that is a genuine divergence.
    REL_TOL = 1e-7

    @settings(max_examples=50, deadline=None)
    @given(scenario=weighted_scenarios())
    def test_rates_match_reference_oracle(self, scenario):
        capacities, flow_specs = scenario
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", capacity)
                 for i, capacity in enumerate(capacities)]

        def starter(spec):
            link_ids, size, cap, weight, start = spec

            def process():
                yield sim.timeout(start)
                yield net.start_flow([links[i] for i in link_ids], size,
                                     rate_cap_bps=cap, weight=weight)

            return process()

        processes = [sim.spawn(starter(spec)) for spec in flow_specs]

        mismatches = []

        def audit():
            while True:
                reference = solve_rates_reference(net.flows)
                for flow, want in reference.items():
                    got = flow.rate_bps
                    if not math.isclose(got, want, rel_tol=self.REL_TOL,
                                        abs_tol=1e-3):
                        mismatches.append((flow.flow_id, got, want))
                yield sim.timeout(0.004)

        sim.spawn(audit())
        sim.run(until=sim.all_of(processes))
        assert not mismatches

    @settings(max_examples=30, deadline=None)
    @given(scenario=weighted_scenarios())
    def test_rates_match_oracle_across_capacity_change(self, scenario):
        capacities, flow_specs = scenario
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", capacity)
                 for i, capacity in enumerate(capacities)]

        def starter(spec):
            link_ids, size, cap, weight, start = spec

            def process():
                yield sim.timeout(start)
                yield net.start_flow([links[i] for i in link_ids], size,
                                     rate_cap_bps=cap, weight=weight)

            return process()

        processes = [sim.spawn(starter(spec)) for spec in flow_specs]

        mismatches = []

        def shrink_then_audit():
            yield sim.timeout(0.01)
            net.set_link_capacity(links[0], links[0].capacity_bps / 3)
            while True:
                reference = solve_rates_reference(net.flows)
                for flow, want in reference.items():
                    if not math.isclose(flow.rate_bps, want,
                                        rel_tol=self.REL_TOL, abs_tol=1e-3):
                        mismatches.append((flow.flow_id, flow.rate_bps, want))
                yield sim.timeout(0.004)

        sim.spawn(shrink_then_audit())
        sim.run(until=sim.all_of(processes))
        assert not mismatches

    @settings(max_examples=40, deadline=None)
    @given(scenario=weighted_scenarios())
    def test_batch_start_matches_sequential(self, scenario):
        # start_flows must be semantically identical to a start_flow
        # loop: same-instant arrivals, rates are a pure function of the
        # final flow set, so completion times are bit-equal.
        capacities, flow_specs = scenario

        def run(batched):
            sim = Simulator()
            net = FluidNetwork(sim)
            links = [Link(f"l{i}", capacity)
                     for i, capacity in enumerate(capacities)]
            requests = [([links[i] for i in link_ids], size, cap, weight)
                        for link_ids, size, cap, weight, _ in flow_specs]
            if batched:
                done = net.start_flows(requests)
            else:
                done = [net.start_flow(l, s, rate_cap_bps=c, weight=w)
                        for l, s, c, w in requests]
            sim.run(until=sim.all_of(done))
            return [event.value for event in done], sim.now

        sequential, end_seq = run(batched=False)
        batched, end_batch = run(batched=True)
        assert sequential == batched
        assert end_seq == end_batch

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(2, 8),
        size=st.floats(1e4, 1e7),
        capped=st.booleans(),
    )
    def test_weighted_flow_equals_parallel_flows(self, k, size, capped):
        # A weight-k bundle of total size S drains like k parallel flows
        # of size S/k each: same aggregate rate, same completion time.
        capacity = 1e9
        cap = capacity / (2 * k) if capped else None

        sim_a = Simulator()
        net_a = FluidNetwork(sim_a)
        link_a = Link("l", capacity)
        done_a = net_a.start_flow([link_a], size, rate_cap_bps=cap,
                                  weight=k)
        sim_a.run(until=done_a)

        sim_b = Simulator()
        net_b = FluidNetwork(sim_b)
        link_b = Link("l", capacity)
        done_b = net_b.start_flows([([link_b], size / k, cap, 1)] * k)
        sim_b.run(until=sim_b.all_of(done_b))

        assert sim_a.now == pytest.approx(sim_b.now, rel=1e-9)


@st.composite
def bundle_scenarios(draw):
    """Symmetric fan-outs with an optional mid-flight foreign arrival."""
    members = draw(st.integers(2, 8))
    capacity = draw(st.floats(1e8, 1e10))
    size = draw(st.floats(1e4, 1e7))
    capped = draw(st.booleans())
    cap = draw(st.floats(1e7, 2e9)) if capped else None
    foreign_member = draw(st.integers(0, members - 1))
    foreign_size = draw(st.floats(1e4, 1e7))
    # As a fraction of the bundle's ideal solo duration, so the arrival
    # reliably lands mid-flight (including right at the start).
    foreign_at_frac = draw(st.floats(0.0, 0.9))
    return members, capacity, size, cap, foreign_member, foreign_size, \
        foreign_at_frac


class TestBundleBoundaries:
    """Bundled fan-outs must be timing-transparent across split/merge.

    A :class:`GroupFlow` is an exactness-preserving compression of its
    per-member flows; these properties drive it through the boundary
    cases — a foreign arrival mid-flight (split), relaunch after the
    split (merge back into a bundle), and the degenerate shapes — and
    compare against the per-member ground truth.
    """

    @settings(max_examples=40, deadline=None)
    @given(scenario=bundle_scenarios())
    def test_split_by_foreign_arrival_matches_unbundled(self, scenario):
        members, capacity, size, cap, foreign_member, foreign_size, \
            frac = scenario
        solo = size * 8.0 / capacity
        foreign_at = solo * frac

        def run(bundled):
            sim = Simulator()
            net = FluidNetwork(sim)
            links = [Link(f"l{i}", capacity) for i in range(members)]
            if bundled:
                done = [net.start_flow_group([[link] for link in links],
                                             size, rate_cap_bps=cap)]
            else:
                done = net.start_flows(
                    [([link], size, cap, 1) for link in links])

            def foreign():
                yield sim.timeout(foreign_at)
                yield net.start_flow([links[foreign_member]], foreign_size)

            intruder = sim.spawn(foreign())
            sim.run(until=sim.all_of(done + [intruder]))
            assert all(event.triggered for event in done)
            return sim.now

        assert run(bundled=True) == pytest.approx(run(bundled=False),
                                                  rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        members=st.integers(2, 6),
        capacity=st.floats(1e8, 1e10),
        size=st.floats(1e4, 1e6),
    )
    def test_relaunch_after_split_bundles_again(self, members, capacity,
                                                size):
        # A capacity change splits the bundle; once it drains, the same
        # fan-out must re-enter the solver as a single bundled entity
        # (the claim channel re-registers against the new capacities).
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", capacity) for i in range(members)]
        fanout = [[link] for link in links]
        first = net.start_flow_group(fanout, size)
        assert sum(isinstance(f, GroupFlow) for f in net.flows) == 1
        net.set_link_capacity(links[0], capacity / 2)
        assert sum(isinstance(f, GroupFlow) for f in net.flows) == 0
        assert len(net.flows) == members  # split into per-member flows
        sim.run(until=first)
        second = net.start_flow_group(fanout, size)
        assert sum(isinstance(f, GroupFlow) for f in net.flows) == 0
        sim.run(until=second)  # degraded member: unbundleable, but exact
        healed = net.start_flow_group(fanout, size)
        net.set_link_capacity(links[0], capacity)  # splits again
        sim.run(until=healed)
        relaunch = net.start_flow_group(fanout, size)
        assert sum(isinstance(f, GroupFlow) for f in net.flows) == 1
        sim.run(until=relaunch)
        assert relaunch.triggered

    def test_zero_byte_group_is_pure_latency(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", 1e9, latency_s=0.25) for i in range(4)]
        done = net.start_flow_group([[link] for link in links], 0.0)
        sim.run(until=done)
        assert sim.now == pytest.approx(0.25)
        assert not net.flows

    def test_single_member_group_is_plain_flow(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        link = Link("l", 8e9)
        done = net.start_flow_group([[link]], 1e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        members=st.integers(2, 8),
        capacity=st.floats(1e8, 1e10),
        size=st.floats(1e4, 1e7),
        capped=st.booleans(),
    )
    def test_undisturbed_bundle_matches_unbundled(self, members, capacity,
                                                  size, capped):
        cap = capacity / 3 if capped else None

        def run(bundled):
            sim = Simulator()
            net = FluidNetwork(sim)
            links = [Link(f"l{i}", capacity) for i in range(members)]
            if bundled:
                done = [net.start_flow_group([[link] for link in links],
                                             size, rate_cap_bps=cap)]
                assert sum(isinstance(f, GroupFlow)
                           for f in net.flows) == 1
            else:
                done = net.start_flows(
                    [([link], size, cap, 1) for link in links])
            sim.run(until=sim.all_of(done))
            delivered = net.bits_delivered
            return sim.now, delivered

        now_b, bits_b = run(bundled=True)
        now_u, bits_u = run(bundled=False)
        assert now_b == pytest.approx(now_u, rel=1e-9)
        assert bits_b == pytest.approx(bits_u, rel=1e-9)

    @pytest.mark.parametrize("shape", ["bundled", "split", "fallback"])
    def test_cancel_group_retires_every_member(self, shape):
        # Whatever form the fan-out took, the one event the caller holds
        # must cancel all of it: the members stop using bandwidth and the
        # foreign flow sharing member 0's link runs alone afterwards.
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", 8e9) for i in range(4)]
        fanout = [[link] for link in links]
        foreign = None
        if shape == "fallback":  # occupied member link: never bundles
            foreign = net.start_flow([links[0]], 1e9)
        done = net.start_flow_group(fanout, 1e9)
        if shape == "split":  # a foreign arrival splits the bundle
            foreign = net.start_flow([links[0]], 1e9)
        bundled = sum(isinstance(f, GroupFlow) for f in net.flows)
        assert bundled == (1 if shape == "bundled" else 0)
        cancelled = []

        def fault():
            yield sim.timeout(0.25)
            cancelled.append(net.cancel_flow(done))
            cancelled.append(net.cancel_flow(done))

        sim.spawn(fault())
        sim.run(until=foreign if foreign is not None else 2.0)
        assert cancelled == [True, False]
        assert not done.triggered
        assert not net.flows
        if foreign is not None:
            # 1 Gbit sent at the 4 Gbps fair share, 7 Gbit alone at 8.
            assert sim.now == pytest.approx(0.25 + 7 / 8)


@st.composite
def job_scenarios(draw):
    """Flows of 2-3 prioritised tenants (and untagged ones) on shared links."""
    num_links = draw(st.integers(1, 4))
    capacities = [draw(st.floats(1e8, 1e10)) for _ in range(num_links)]
    priorities = {f"j{i}": draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
                  for i in range(draw(st.integers(2, 3)))}
    num_flows = draw(st.integers(2, 8))
    flows = []
    for _ in range(num_flows):
        links = sorted(draw(st.sets(st.integers(0, num_links - 1),
                                    min_size=1, max_size=num_links)))
        job = draw(st.sampled_from(sorted(priorities) + [None]))
        size = draw(st.floats(1e3, 1e7))
        cap = draw(st.floats(1e7, 2e9)) if draw(st.booleans()) else None
        weight = draw(st.integers(1, 4))
        start = draw(st.floats(0, 0.3))
        flows.append((links, job, size, cap, weight, start))
    return capacities, priorities, flows


def start_tagged(net, links, job, size, cap, weight):
    net.flow_job = job
    try:
        return net.start_flow(links, size, rate_cap_bps=cap, weight=weight)
    finally:
        net.flow_job = None


def allocation_faults(links, flows):
    """Capacity, cap and work-conservation violations of one allocation."""
    faults = []
    used = {link: sum(f.rate_bps for f in link.flows) for link in links}
    for link in links:
        if used[link] > link.capacity_bps * (1 + 1e-6):
            faults.append(("over capacity", link.name, used[link]))
    for flow in flows:
        at_cap = False
        if flow.rate_cap_bps is not None:
            ceiling = flow.rate_cap_bps * flow.weight
            if flow.rate_bps > ceiling * (1 + 1e-6):
                faults.append(("over cap", flow.flow_id, flow.rate_bps))
            at_cap = flow.rate_bps >= ceiling * (1 - 1e-6)
        saturated = any(used[link] >= link.capacity_bps * (1 - 1e-6)
                        for link in flow.links)
        if not (at_cap or saturated):
            faults.append(("idle bandwidth", flow.flow_id, flow.rate_bps))
    return faults


class TestInterJobFairness:
    """Share weights across tenants keep every max-min guarantee.

    In a component that mixes jobs, each flow takes
    ``priority(job) * weight / W_job`` shares (``W_job``: its job's stream
    weight in the component), so the one fill loop still produces a
    weighted max-min allocation.
    """

    @settings(max_examples=60, deadline=None)
    @given(scenario=job_scenarios())
    def test_capacity_caps_and_work_conservation(self, scenario):
        capacities, priorities, flow_specs = scenario
        sim = Simulator()
        net = FluidNetwork(sim)
        net.job_priorities.update(priorities)
        links = [Link(f"l{i}", capacity)
                 for i, capacity in enumerate(capacities)]
        for link_ids, job, size, cap, weight, _ in flow_specs:
            start_tagged(net, [links[i] for i in link_ids], job, size, cap,
                         weight)
        assert allocation_faults(links, net.flows) == []

    @settings(max_examples=40, deadline=None)
    @given(scenario=job_scenarios())
    def test_rates_match_reference_oracle(self, scenario):
        capacities, priorities, flow_specs = scenario
        sim = Simulator()
        net = FluidNetwork(sim)
        net.job_priorities.update(priorities)
        links = [Link(f"l{i}", capacity)
                 for i, capacity in enumerate(capacities)]

        def starter(spec):
            link_ids, job, size, cap, weight, start = spec

            def process():
                yield sim.timeout(start)
                yield start_tagged(net, [links[i] for i in link_ids], job,
                                   size, cap, weight)

            return process()

        processes = [sim.spawn(starter(spec)) for spec in flow_specs]
        mismatches = []
        faults = []

        def audit():
            while True:
                reference = solve_rates_reference(net.flows,
                                                  net.job_priorities)
                for flow, want in reference.items():
                    if not math.isclose(flow.rate_bps, want, rel_tol=1e-7,
                                        abs_tol=1e-3):
                        mismatches.append((flow.flow_id, flow.rate_bps, want))
                faults.extend(allocation_faults(links, net.flows))
                yield sim.timeout(0.004)

        sim.spawn(audit())
        sim.run(until=sim.all_of(processes))
        assert not mismatches
        assert not faults

    @settings(max_examples=40, deadline=None)
    @given(
        priorities=st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                             st.sampled_from([0.5, 1.0, 2.0, 3.0])),
        core=st.floats(1e8, 1e10),
        extra=st.lists(st.floats(1.0, 4.0), min_size=0, max_size=3),
        flows=st.tuples(*[st.lists(st.tuples(st.integers(1, 4),
                                             st.sets(st.integers(0, 2))),
                                   min_size=1, max_size=4)] * 2),
    )
    def test_common_bottleneck_split_by_priority(self, priorities, core,
                                                 extra, flows):
        # Every flow crosses ``core``; any other link it crosses is at
        # least as fast, so ``core`` is the bottleneck and each job's
        # aggregate rate is its priority's part of it.
        jobs = {"j0": priorities[0], "j1": priorities[1]}
        sim = Simulator()
        net = FluidNetwork(sim)
        net.job_priorities.update(jobs)
        bottleneck = Link("core", core)
        others = [Link(f"x{i}", core * scale)
                  for i, scale in enumerate(extra)]
        for job, job_flows in zip(jobs, flows):
            for weight, hops in job_flows:
                path = [bottleneck] + [others[i] for i in sorted(hops)
                                       if i < len(others)]
                start_tagged(net, path, job, 1e6, None, weight)
        totals = {job: sum(f.rate_bps for f in net.flows if f.job == job)
                  for job in jobs}
        total = sum(jobs.values())
        for job, priority in jobs.items():
            assert totals[job] == pytest.approx(core * priority / total,
                                                rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(scenario=weighted_scenarios(),
           priority=st.sampled_from([0.5, 1.0, 3.0]))
    def test_one_job_tag_changes_no_rate_bit(self, scenario, priority):
        capacities, flow_specs = scenario

        def run(job):
            sim = Simulator()
            net = FluidNetwork(sim)
            net.job_priorities["solo"] = priority
            links = [Link(f"l{i}", capacity)
                     for i, capacity in enumerate(capacities)]
            rates = []

            def starter(spec):
                link_ids, size, cap, weight, start = spec

                def process():
                    yield sim.timeout(start)
                    yield start_tagged(net, [links[i] for i in link_ids],
                                       job, size, cap, weight)

                return process()

            def audit():
                while True:
                    rates.append([f.rate_bps for f in net.flows])
                    yield sim.timeout(0.004)

            processes = [sim.spawn(starter(spec)) for spec in flow_specs]
            sim.spawn(audit())
            sim.run(until=sim.all_of(processes))
            return [p.value for p in processes], sim.now, rates

        assert run("solo") == run(None)

    def test_mixed_component_fills_every_saturable_link(self):
        # Regression: the earlier per-link job split froze the j0 flow
        # at 1/3 Gbps although none of its links was full.
        sim = Simulator()
        net = FluidNetwork(sim)
        l0, l1, l2, l3, l4 = (Link(f"l{i}", gbps * 1e9)
                              for i, gbps in enumerate([2, 5, 10, 1, 2]))
        net.job_priorities.update(j0=1.0, j1=2.0)
        start_tagged(net, [l3, l0, l1], "j0", 1e6, None, 1)
        start_tagged(net, [l4, l2, l0, l1], "j1", 1e6, None, 3)
        start_tagged(net, [l3, l1, l0, l4], "j1", 1e6, 1e9, 1)
        solo, wide, capped = net.flows
        assert solo.rate_bps == pytest.approx(2e9 / 3)
        assert wide.rate_bps == pytest.approx(1e9)
        assert capped.rate_bps == pytest.approx(1e9 / 3)
        for link in (l0, l3):
            used = sum(f.rate_bps for f in link.flows)
            assert used == pytest.approx(link.capacity_bps)
        assert allocation_faults([l0, l1, l2, l3, l4], net.flows) == []
