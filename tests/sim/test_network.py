"""Tests for the fluid network model: fair sharing and per-stream caps."""

import math

import pytest

from repro.errors import NetworkError
from repro.sim import FluidNetwork, Link, Simulator
from repro.sim.network import GroupFlow


def make_net(capacity_bps=1e9, latency_s=0.0):
    sim = Simulator()
    net = FluidNetwork(sim)
    link = Link("l0", capacity_bps, latency_s)
    return sim, net, link


class TestLinkValidation:
    @pytest.mark.parametrize("capacity", [0.0, math.nan, math.inf])
    def test_rejects_invalid_capacity(self, capacity):
        with pytest.raises(NetworkError):
            Link("bad", capacity)

    @pytest.mark.parametrize("latency", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_latency(self, latency):
        with pytest.raises(NetworkError):
            Link("bad", 1e9, latency_s=latency)


#: The three ways to put bytes on the network, each handed a bad size or
#: cap for its last member.  ``start_flows`` also carries a valid request
#: ahead of the bad one, so a rejection must not insert it either.
START_CALLS = {
    "start_flow": lambda net, links, size, cap: net.start_flow(
        links[1:], size, rate_cap_bps=cap),
    "start_flows": lambda net, links, size, cap: net.start_flows(
        [(links[:1], 1e6, None, 1), (links[1:], size, cap, 1)]),
    "start_flow_group": lambda net, links, size, cap: net.start_flow_group(
        [links[:1], links[1:]], size, rate_cap_bps=cap),
}


class TestTransferValidation:
    """Non-finite sizes and caps fail typed at the call that passes them."""

    @staticmethod
    def _reject(call, size, cap):
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link("a", 1e9), Link("b", 1e9)]
        with pytest.raises(NetworkError):
            START_CALLS[call](net, links, size, cap)
        assert not net.flows
        # The network is still usable after the rejected call.
        done = net.start_flow(links, 1e6)
        sim.run(until=done)
        assert sim.now == pytest.approx(8e-3)

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    @pytest.mark.parametrize("call", sorted(START_CALLS))
    def test_rejects_non_finite_size(self, call, size):
        self._reject(call, size, None)

    @pytest.mark.parametrize("cap", [0.0, math.nan, math.inf])
    @pytest.mark.parametrize("call", sorted(START_CALLS))
    def test_rejects_invalid_cap(self, call, cap):
        self._reject(call, 1e6, cap)


class TestSingleFlow:
    def test_uncapped_flow_uses_full_link(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9)  # 8e9 bits
        sim.run(until=done)
        assert sim.now == pytest.approx(1.0)

    def test_capped_flow_limited_to_cap(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9, rate_cap_bps=2e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(4.0)

    def test_latency_added_to_completion(self):
        sim, net, link = make_net(capacity_bps=8e9, latency_s=0.5)
        done = net.start_flow([link], size_bytes=1e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(1.5)

    def test_zero_size_flow_is_pure_latency(self):
        sim, net, link = make_net(latency_s=0.25)
        done = net.start_flow([link], size_bytes=0)
        sim.run(until=done)
        assert sim.now == pytest.approx(0.25)

    def test_flow_requires_links(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        with pytest.raises(NetworkError):
            net.start_flow([], size_bytes=100)


class TestFairSharing:
    def test_two_equal_flows_split_link(self):
        sim, net, link = make_net(capacity_bps=8e9)
        d1 = net.start_flow([link], size_bytes=1e9)
        d2 = net.start_flow([link], size_bytes=1e9)
        sim.run(until=sim.all_of([d1, d2]))
        # Each gets 4 Gbps -> 2 seconds for 8 Gbit.
        assert sim.now == pytest.approx(2.0)

    def test_short_flow_finishes_and_releases_bandwidth(self):
        sim, net, link = make_net(capacity_bps=8e9)
        long = net.start_flow([link], size_bytes=1e9)     # 8 Gbit
        short = net.start_flow([link], size_bytes=0.25e9)  # 2 Gbit
        sim.run(until=short)
        # Short flow at 4 Gbps finishes its 2 Gbit in 0.5 s.
        assert sim.now == pytest.approx(0.5)
        sim.run(until=long)
        # Long flow: 2 Gbit done at 0.5s, remaining 6 Gbit at 8 Gbps = 0.75 s.
        assert sim.now == pytest.approx(1.25)

    def test_late_arrival_reallocates(self):
        sim, net, link = make_net(capacity_bps=8e9)
        first = net.start_flow([link], size_bytes=1e9)

        def late_starter():
            yield sim.timeout(0.5)
            done = net.start_flow([link], size_bytes=1e9)
            yield done
            return sim.now

        proc = sim.spawn(late_starter())
        sim.run()
        # First: 4 Gbit in 0.5 s alone, then shares; both need 4 and 8 Gbit.
        # At 4 Gbps each: first done at 0.5 + 1.0 = 1.5, then second alone:
        # 8 - 4 = 4 Gbit sent by 1.5s, remaining 4 Gbit at 8 Gbps = 0.5s.
        assert first.triggered
        assert proc.value == pytest.approx(2.0)

    def test_caps_leave_bandwidth_unused(self):
        # Two flows capped at 30% each can only reach 60% utilisation:
        # the single-TCP-stream effect from the paper.
        sim, net, link = make_net(capacity_bps=10e9)
        cap = 3e9
        d1 = net.start_flow([link], size_bytes=1e9, rate_cap_bps=cap)
        d2 = net.start_flow([link], size_bytes=1e9, rate_cap_bps=cap)
        assert net.utilization_of(link) == pytest.approx(0.6)
        sim.run(until=sim.all_of([d1, d2]))
        assert sim.now == pytest.approx(8e9 / 3e9)

    def test_many_capped_flows_saturate_link(self):
        sim, net, link = make_net(capacity_bps=10e9)
        flows = [net.start_flow([link], size_bytes=1e9, rate_cap_bps=3e9)
                 for _ in range(5)]
        # 5 * 3 Gbps > 10 Gbps: fair share 2 Gbps each, fully utilised.
        assert net.utilization_of(link) == pytest.approx(1.0)
        sim.run(until=sim.all_of(flows))
        assert sim.now == pytest.approx(8e9 / 2e9)

    def test_multi_link_flow_bottlenecked_by_slowest(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        fast = Link("fast", 10e9)
        slow = Link("slow", 2e9)
        done = net.start_flow([fast, slow], size_bytes=1e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(4.0)

    def test_cross_traffic_on_shared_link(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        a = Link("a", 10e9)
        shared = Link("shared", 10e9)
        b = Link("b", 10e9)
        f1 = net.start_flow([a, shared], size_bytes=1e9)
        f2 = net.start_flow([b, shared], size_bytes=1e9)
        sim.run(until=sim.all_of([f1, f2]))
        # Both share the middle link at 5 Gbps.
        assert sim.now == pytest.approx(8e9 / 5e9)

    def test_heterogeneous_caps(self):
        sim, net, link = make_net(capacity_bps=10e9)
        capped = net.start_flow([link], size_bytes=1e9, rate_cap_bps=1e9)
        free = net.start_flow([link], size_bytes=1e9)
        # Capped flow pinned at 1 Gbps; free flow gets the remaining 9 Gbps.
        assert net.utilization_of(link) == pytest.approx(1.0)
        sim.run(until=free)
        assert sim.now == pytest.approx(8e9 / 9e9)
        sim.run(until=capped)
        assert sim.now == pytest.approx(8.0)


class TestAccounting:
    def test_bits_delivered(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9)
        sim.run(until=done)
        assert net.bits_delivered == pytest.approx(8e9)

    def test_flow_duration_reported(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9)
        sim.run(until=done)
        assert done.value == pytest.approx(1.0)


class TestDynamicCapacity:
    """Mid-run link capacity changes ('network ... can vary during
    runtime', paper §I)."""

    def test_capacity_drop_slows_flow(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9)  # 8 Gbit

        def degrade():
            yield sim.timeout(0.5)  # 4 Gbit sent
            net.set_link_capacity(link, 2e9)

        sim.spawn(degrade())
        sim.run(until=done)
        # Remaining 4 Gbit at 2 Gbps = 2 s after the drop.
        assert sim.now == pytest.approx(2.5)

    def test_capacity_raise_speeds_flow(self):
        sim, net, link = make_net(capacity_bps=2e9)
        done = net.start_flow([link], size_bytes=1e9)

        def upgrade():
            yield sim.timeout(1.0)  # 2 Gbit sent
            net.set_link_capacity(link, 6e9)

        sim.spawn(upgrade())
        sim.run(until=done)
        assert sim.now == pytest.approx(2.0)

    def test_flap_cycle(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=2e9)  # 16 Gbit

        def flapper():
            yield sim.timeout(0.5)   # 4 Gbit
            net.set_link_capacity(link, 1e9)
            yield sim.timeout(1.0)   # +1 Gbit
            net.set_link_capacity(link, 8e9)

        sim.spawn(flapper())
        sim.run(until=done)
        # 16 = 4 + 1 + 11 -> 0.5 + 1.0 + 11/8.
        assert sim.now == pytest.approx(0.5 + 1.0 + 11 / 8)

    @pytest.mark.parametrize("capacity", [0.0, math.nan, math.inf])
    def test_invalid_capacity_rejected(self, capacity):
        sim, net, link = make_net()
        with pytest.raises(NetworkError):
            net.set_link_capacity(link, capacity)
        assert link.capacity_bps == 1e9

    def test_caps_still_respected_after_raise(self):
        sim, net, link = make_net(capacity_bps=2e9)
        done = net.start_flow([link], size_bytes=1e9, rate_cap_bps=1e9)
        net.set_link_capacity(link, 100e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(8.0)


class TestCompletionOrder:
    """Same-instant completions fire in flow-creation order.

    Replay digests depend on it: completion events are scheduled in the
    order the completion sweep visits the flow set.  Every flow below is
    alone on its link and all sizes and times are dyadic, so the
    completions land on exactly the same float instant.
    """

    @staticmethod
    def watch(net):
        """Record (flow_id, time) as each live flow's done event fires."""
        fired = []
        for flow in net.flows:
            flow.done.add_callback(
                lambda _ev, fid=flow.flow_id: fired.append(
                    (fid, net.sim.now)))
        return fired

    def test_order_survives_many_retired_flows(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", 8e9) for i in range(84)]
        # Long flows around a burst of 80 short ones (0.0625 s each)
        # that retire together, leaving live flows on both sides of
        # the retired ones.
        net.start_flows([([links[0]], 1e9, None, 1),
                         ([links[1]], 1e9, None, 1)])
        net.start_flows([([links[2 + i]], 6.25e7, None, 1)
                         for i in range(80)])
        net.start_flow([links[82]], 1e9)
        late = []

        def arrive():
            yield sim.timeout(0.5)
            late.append(net.start_flow([links[83]], 5e8))

        sim.spawn(arrive())
        sim.run(until=0.25)
        assert len(net.flows) == 3  # the 80 short flows are gone
        sim.run(until=0.75)
        assert late and len(net.flows) == 4
        fired = self.watch(net)
        sim.run()
        ids = [fid for fid, _now in fired]
        assert len(ids) == 4
        assert ids == sorted(ids)
        assert {now for _fid, now in fired} == {1.0}

    def test_order_survives_bundle_split_mid_set(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", 8e9) for i in range(9)]
        net.start_flows([([links[0]], 1e9, None, 1),
                         ([links[1]], 1e9, None, 1)])
        group_done = net.start_flow_group(
            [[link] for link in links[2:6]], 1e9)
        net.start_flows([([links[6]], 1e9, None, 1),
                         ([links[7]], 1e9, None, 1)])
        assert sum(isinstance(f, GroupFlow) for f in net.flows) == 1

        def split_then_arrive():
            yield sim.timeout(0.5)
            # Same capacity: only the bundle's symmetry claim breaks.
            net.set_link_capacity(links[2], 8e9)
            net.start_flow([links[8]], 5e8)

        sim.spawn(split_then_arrive())
        sim.run(until=0.75)
        assert not any(isinstance(f, GroupFlow) for f in net.flows)
        assert len(net.flows) == 9  # 4 plain + 4 members + 1 late
        fired = self.watch(net)
        sim.run()
        ids = [fid for fid, _now in fired]
        assert len(ids) == 9
        assert ids == sorted(ids)
        assert {now for _fid, now in fired} == {1.0}
        assert group_done.triggered
