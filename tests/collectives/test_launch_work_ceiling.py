"""Deterministic host-work ceilings for one full-link training step.

Every symmetric ring fan-out enters the fluid network as one bundled
``GroupFlow`` per uniform run, so the solver work and the kernel events
of a step do not grow with the node count.  These tests pin that with
counters, not wall-clock: reintroducing a scale gate, or falling back
to per-flow launches, multiplies ``solver_flow_visits`` by the node
count (1792 instead of 56 for the 32-node ring) and trips the ceiling
in CI instead of hiding in timing noise.
"""

import pytest

from repro.core.runtime import AIACCConfig
from repro.frameworks import make_backend
from repro.models.zoo import get_model
from repro.sim.kernel import Simulator
from repro.training.trainer import build_train_context

#: algorithm -> (max solver flow visits, max kernel events) per
#: steady-state step at 8 GPUs per node and 4 streams, at any node
#: count.  Set from the bundled counts (ring: 52-56 visits and 327-328
#: events from 16 to 64 nodes; hierarchical at 32 nodes: 33 / 363) with
#: ~15% headroom.
CEILINGS = {
    "ring": (64, 380),
    "hierarchical": (40, 420),
}

CELLS = [("ring", 16), ("ring", 32), ("ring", 64), ("hierarchical", 32)]


def step_work(algorithm: str, nodes: int, streams: int = 4,
              steps: int = 2) -> list[tuple[int, int]]:
    """``(solver flow visits, kernel events)`` of each measured step."""
    spec = get_model("resnet50")
    backend = make_backend("aiacc", config=AIACCConfig(
        num_streams=streams, algorithm=algorithm, check_invariants=False))
    sim = Simulator(check_invariants=True)  # counts popped events
    ctx = build_train_context(spec, backend, nodes * 8,
                              spec.default_batch_size,
                              representative=False, sim=sim)
    sim.run(until=sim.spawn(backend.warmup(ctx), name="warmup"))
    network, checker = ctx.network, sim.invariants
    work = []
    for index in range(steps):
        visits, events = network.solver_flow_visits, checker.events_hashed
        sim.run(until=sim.spawn(backend.iteration(ctx), name=f"it{index}"))
        work.append((network.solver_flow_visits - visits,
                     checker.events_hashed - events))
    return work


@pytest.mark.parametrize("algorithm,nodes", CELLS,
                         ids=[f"{a}-n{n}" for a, n in CELLS])
def test_step_work_within_ceiling(algorithm, nodes):
    max_visits, max_events = CEILINGS[algorithm]
    for visits, events in step_work(algorithm, nodes):
        assert visits <= max_visits, (
            f"{algorithm} at {nodes} nodes: {visits} solver flow visits "
            f"per step (ceiling {max_visits}) — a fan-out is no longer "
            f"bundled")
        assert events <= max_events, (
            f"{algorithm} at {nodes} nodes: {events} kernel events per "
            f"step (ceiling {max_events})")
