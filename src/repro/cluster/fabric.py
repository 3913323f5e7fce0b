"""The shared physical fabric every tenant's traffic traverses.

One :class:`SharedFabric` owns the per-node NIC links and the single
oversubscribed spine (``core``) link of the datacenter, plus the
:class:`~repro.sim.network.FluidNetwork` that assigns max-min fair
rates.  Jobs never talk to the network directly: :meth:`allreduce`
stamps every launched flow with the calling job's identity
(``FluidNetwork.flow_job``), which is what routes contention through
the solver's *inter-job* weighted fairness at shared links.

Chaos hooks (:meth:`scale_node_nic` / :meth:`restore_node_nic`) scale a
node's NIC pair against its *base* capacity, so windows restore exactly
and never compound.
"""

from __future__ import annotations

import typing as t

from repro.errors import ClusterError
from repro.sim.kernel import Simulator
from repro.sim.network import FluidNetwork, Link

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.events import Event

#: Capacity of a flapped (hard-down) NIC — mirrors the fault injector's
#: convention of "nearly dead, never zero" so in-flight flows drain.
DEAD_NIC_FRACTION = 1e-4


class SharedFabric:
    """Per-node NIC pairs plus one shared oversubscribed core link."""

    def __init__(self, sim: Simulator, num_nodes: int,
                 nic_bps: float = 10e9,
                 core_oversubscription: float = 2.0,
                 stream_cap_fraction: float = 0.25) -> None:
        if num_nodes < 2:
            raise ClusterError("a shared fabric needs >= 2 nodes")
        if nic_bps <= 0:
            raise ClusterError("nic_bps must be positive")
        if core_oversubscription < 1.0:
            raise ClusterError("core_oversubscription must be >= 1")
        if not 0 < stream_cap_fraction <= 1:
            raise ClusterError("stream_cap_fraction must be in (0, 1]")
        self.sim = sim
        self.num_nodes = num_nodes
        self.nic_bps = float(nic_bps)
        #: Single-transport-stream ceiling on a NIC (the paper's <=30%
        #: single-stream efficiency is the motivating regime).
        self.stream_cap_bps = float(nic_bps) * stream_cap_fraction
        self.network = FluidNetwork(sim)
        self.nic_out = [Link(f"node{n}.nic.out", nic_bps)
                        for n in range(num_nodes)]
        self.nic_in = [Link(f"node{n}.nic.in", nic_bps)
                       for n in range(num_nodes)]
        self.core_bps = num_nodes * nic_bps / core_oversubscription
        #: The contended spine: every inter-node hop crosses it, so it
        #: is where inter-job fairness and interference play out.
        self.core = Link("core", self.core_bps)

    # -- tenant traffic ------------------------------------------------------

    def allreduce(self, job_id: str, nodes: t.Sequence[int],
                  nbytes: float, streams: int,
                  cap_scale: float = 1.0,
                  label: str = "ring") -> "Event":
        """Launch one ring all-reduce for a job; fires when it completes.

        Ring traffic: each of the ``m`` members forwards
        ``2 (m-1)/m x nbytes`` to its successor, split over ``streams``
        transport streams (one weighted flow per hop; the per-stream cap
        scaled by the overload controller's ``cap_scale``).  The hops
        enter the network in one batched ``start_flows`` call.
        """
        members = list(nodes)
        if len(members) < 2:
            # Single-node jobs reduce over NVLink only; on this fabric
            # that is effectively instantaneous next to NIC transfers.
            return self.sim.timeout(0.0)
        if streams < 1:
            raise ClusterError(f"job {job_id!r}: streams must be >= 1")
        if not 0 < cap_scale <= 1:
            raise ClusterError(
                f"job {job_id!r}: cap_scale must be in (0, 1]")
        hop_bytes = 2.0 * (len(members) - 1) / len(members) * nbytes
        cap = self.stream_cap_bps * cap_scale
        network = self.network
        previous_job = network.flow_job
        previous_label = network.flow_label
        network.flow_job = job_id
        network.flow_label = label
        try:
            events = network.start_flows([
                ([self.nic_out[src], self.core, self.nic_in[dst]],
                 hop_bytes, cap, streams)
                for src, dst in zip(members, members[1:] + members[:1])])
        finally:
            network.flow_job = previous_job
            network.flow_label = previous_label
        return self.sim.all_of(events)

    # -- chaos hooks ---------------------------------------------------------

    def scale_node_nic(self, node: int, fraction: float) -> None:
        """Degrade a node's NIC pair to ``fraction`` of base capacity."""
        self._check_node(node)
        if not 0 < fraction <= 1:
            raise ClusterError("NIC scale fraction must be in (0, 1]")
        for link in (self.nic_out[node], self.nic_in[node]):
            self.network.set_link_capacity(link, self.nic_bps * fraction)

    def flap_node_nic(self, node: int) -> None:
        """Take a node's NIC pair hard down (a link flap)."""
        self.scale_node_nic(node, DEAD_NIC_FRACTION)

    def restore_node_nic(self, node: int) -> None:
        """Restore a node's NIC pair to base capacity."""
        self._check_node(node)
        for link in (self.nic_out[node], self.nic_in[node]):
            self.network.set_link_capacity(link, self.nic_bps)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ClusterError(
                f"node {node} out of range for {self.num_nodes} nodes")
