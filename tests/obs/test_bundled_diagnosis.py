"""Bundled fan-outs must diagnose identically to unbundled ones.

Flow bundling lets the fluid network fuse a homogeneous ring fan-out
into one :class:`~repro.sim.network.GroupFlow` solver entity.
That fusion is a performance representation only: the observability
layer unrolls groups member by member (``member_link_sets``), so every
per-link utilisation integral, flow record and therefore every
diagnosis finding — including the ``findings_digest`` the golden
findings file pins — must be bit-identical whether the fan-out ran
bundled or as individual flows.
"""

from repro.collectives import TimedCollectives
from repro.collectives.timed import _WirePlan
from repro.obs import Observability, diagnose
from repro.obs.detectors import DetectorSuite
from repro.obs.metrics import MetricsRegistry
from repro.sim import FluidNetwork, Link, Simulator, alibaba_v100_cluster


def _feed_engine_hooks(suite):
    """Identical engine-side telemetry for both runs.

    Two ranks, two steps each, and a lopsided stream split on rank 0 so
    the stream-imbalance detector has something to say; the network
    feeds the congestion detector itself.
    """
    for rank in (0, 1):
        suite.observe_step(rank, 0, 1.0, 1.0)
        suite.observe_step(rank, 1, 1.0, 2.0)
    suite.observe_stream_span(0, 0, 0.9, 8e6)
    suite.observe_stream_span(0, 1, 0.001, 1e3)
    suite.observe_stream_span(1, 0, 0.45, 4e6)
    suite.observe_stream_span(1, 1, 0.45, 4e6)


def _run_network_scenario(bundled):
    """One saturated 3-member fan-out, bundled or member-by-member.

    Each member crosses two private 1 Gb/s links with a 4 Gb/s rate cap,
    so every member finishes saturated (utilisation 1.0 the whole time)
    and throttled (achieved rate far below cap) — the congestion
    detector fires for all six links.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    obs = Observability()
    net.obs = obs
    net.diag = obs.attach_detectors()
    members = [[Link(f"m{i}a", 1e9), Link(f"m{i}b", 1e9)]
               for i in range(3)]
    net.flow_label = "ring"
    if bundled:
        done = [net.start_flow_group(members, 1e6, rate_cap_bps=4e9)]
    else:
        done = [net.start_flow(member, 1e6, rate_cap_bps=4e9)
                for member in members]
    net.flow_label = None
    sim.run(until=sim.all_of(done))
    sim.run()
    if bundled:  # the fan-out really was fused, not fallen back
        assert net._claims
    else:
        assert not net._claims
    _feed_engine_hooks(net.diag)
    return diagnose(obs)


class TestNetworkLevelEquivalence:
    def test_findings_digest_identical_bundled_or_not(self):
        bundled = _run_network_scenario(bundled=True)
        unbundled = _run_network_scenario(bundled=False)
        assert bundled.findings == unbundled.findings
        assert bundled.events == unbundled.events
        assert bundled.findings_digest == unbundled.findings_digest

    def test_scenario_is_not_vacuous(self):
        report = _run_network_scenario(bundled=True)
        kinds = {finding.kind for finding in report.findings}
        assert "congestion" in kinds
        assert "stream-imbalance" in kinds
        congested = {f.subject for f in report.findings
                     if f.kind == "congestion"}
        assert congested == {f"link m{i}{side}"
                             for i in range(3) for side in "ab"}


class TestCollectiveLevelEquivalence:
    """Same ring allreduce, bundled or launched flow by flow."""

    def _run(self, bundled):
        sim = Simulator()
        net = FluidNetwork(sim)
        obs = Observability()
        net.obs = obs
        net.diag = obs.attach_detectors()
        cluster = alibaba_v100_cluster(sim, 128, gpus_per_node=8)
        timed = TimedCollectives(sim, net, cluster, representative=False)
        if not bundled:
            # The same wire-plan specs, with no bundle handles: the ring
            # launches them in one batched FluidNetwork.start_flows call.
            plan = timed._wire_plan()
            timed._wire_cache = _WirePlan(plan.specs, None,
                                          plan.slowest_base)
        done = timed.allreduce(4e6, algorithm="ring")
        sim.run(until=done)
        sim.run()
        return sim.now, bool(net._claims), diagnose(obs)

    def test_full_ring_diagnoses_identically(self):
        now_b, claimed_b, bundled = self._run(bundled=True)
        now_u, claimed_u, unbundled = self._run(bundled=False)
        assert claimed_b and not claimed_u  # fusion really differed
        assert now_b == now_u  # completion time is representation-free
        assert bundled.findings == unbundled.findings
        assert bundled.events == unbundled.events
        assert bundled.findings_digest == unbundled.findings_digest
        # A healthy, balanced ring must stay finding-free in both
        # representations (the clean-run gate the detector thresholds
        # are calibrated against).
        assert bundled.findings == ()


class TestJobTaggedBundling:
    """Per-tenant byte attribution must survive GroupFlow fusion.

    The shared-fabric runtime bills each tenant's link bytes from
    ``DetectorSuite.job_link_bytes()``; a bundled fan-out must unroll
    (``member_link_sets``) to exactly the per-link, per-job, per-label
    accounting its unbundled twin produces.
    """

    def _run(self, bundled):
        sim = Simulator()
        net = FluidNetwork(sim)
        obs = Observability()
        net.obs = obs
        net.diag = obs.attach_detectors()
        members = [[Link(f"m{i}a", 1e9), Link(f"m{i}b", 1e9)]
                   for i in range(3)]
        net.flow_job = "jobA"
        net.flow_label = "ring"
        if bundled:
            done = [net.start_flow_group(members, 1e6, rate_cap_bps=4e9)]
        else:
            done = [net.start_flow(member, 1e6, rate_cap_bps=4e9)
                    for member in members]
        # A second tenant on its own links, concurrently.
        net.flow_job = "jobB"
        net.flow_label = "halving-doubling"
        done.append(net.start_flow([Link("b0", 1e9), Link("b1", 1e9)], 2e6))
        net.flow_job = None
        net.flow_label = None
        sim.run(until=sim.all_of(done))
        sim.run()
        return net, net.diag

    def test_job_attribution_identical_bundled_or_not(self):
        net_b, diag_b = self._run(bundled=True)
        net_u, diag_u = self._run(bundled=False)
        assert net_b._claims and not net_u._claims  # fusion really differed
        assert diag_b.job_link_bytes() == diag_u.job_link_bytes()

    def test_bytes_attributed_to_the_correct_tenant(self):
        _, diag = self._run(bundled=True)
        per_job = diag.job_link_bytes()
        for i in range(3):
            for side in "ab":
                assert per_job[(f"m{i}{side}", "jobA", "ring")] == 1e6
        for link in ("b0", "b1"):
            assert per_job[(link, "jobB", "halving-doubling")] == 2e6
        # Private links never leak bytes across tenants.
        jobs_per_link: dict[str, set] = {}
        for link, job, _label in per_job:
            jobs_per_link.setdefault(link, set()).add(job)
        assert all(len(jobs) == 1 for jobs in jobs_per_link.values())

    def test_gauge_round_trip_preserves_attribution(self):
        _, diag = self._run(bundled=True)
        registry = MetricsRegistry()
        diag.publish(registry)
        fresh = DetectorSuite()
        fresh.seed_from_registry(registry)
        assert fresh.job_link_bytes() == diag.job_link_bytes()
