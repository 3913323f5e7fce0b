"""Simulator wall-clock benchmarks: cost of simulating one training step.

Unlike the paper-reproduction benchmarks (which assert *simulated-time*
claims), this suite measures how much *host* wall-clock the simulator
burns per simulated training step — the quantity that decides whether
128–256-rank sweeps are interactive or overnight jobs.

Every scenario runs in **full-link mode** (``representative=False``):
representative mode collapses symmetric clusters to one NIC pair and
would hide the O(flows x links) cost this suite exists to guard.  The
stress scenario adds congestion + the hierarchical algorithm, the
worst case for the fair-share solver (32 nodes x 8 streams per unit).

CI exports the results to ``BENCH_simulator.json`` via
``tools/bench_to_json.py``; the committed file keeps the perf
trajectory across PRs.  Regressions show up as the wall-clock budget
assertions below tripping long before a human notices a slow sweep.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.runtime import AIACCConfig
from repro.frameworks import make_backend
from repro.frameworks.base import IterationStats, TrainContext
from repro.models.zoo import get_model
from repro.training.trainer import build_train_context


@dataclasses.dataclass(frozen=True)
class StepScenario:
    """One benchmarked simulator workload."""

    name: str
    ranks: int
    streams: int
    model: str = "resnet50"
    algorithm: str = "ring"
    congested: bool = False
    #: Leaf-spine core oversubscription (> 1 inserts the shared core
    #: link every inter-node flow traverses — the planner's home turf).
    core_oversubscription: float = 1.0
    #: Generous wall-clock ceiling (seconds) per simulated step; trips
    #: on order-of-magnitude regressions, not scheduler noise.
    budget_s: float = 2.0


#: The benchmark axis: 8 -> 256 ranks at the paper's 4-stream setting,
#: plus the solver's worst case.  ``step-128r-4s`` is the acceptance
#: gate of the scaling work (>= 5x over the pre-optimisation baseline).
SCENARIOS = (
    StepScenario("step-8r-4s", ranks=8, streams=4, budget_s=0.5),
    StepScenario("step-32r-4s", ranks=32, streams=4, budget_s=0.5),
    StepScenario("step-128r-4s", ranks=128, streams=4, budget_s=1.0),
    StepScenario("step-256r-4s", ranks=256, streams=4, budget_s=2.0),
    # The 1024/4096-rank tier rides flow bundling, which collapses each
    # ring unit's 2·nodes-flow fan-out into two solver entities at every
    # node count, so per-step cost is nearly scale-flat from 128 ranks up.
    StepScenario("step-1024r-4s", ranks=1024, streams=4, budget_s=2.0),
    StepScenario("step-4096r-4s", ranks=4096, streams=4, budget_s=4.0),
    StepScenario("stress-256r-hier", ranks=256, streams=24,
                 model="vgg16", algorithm="hierarchical", congested=True,
                 budget_s=8.0),
    StepScenario("planner-128r-ina", ranks=128, streams=4,
                 algorithm="ina", core_oversubscription=4.0,
                 budget_s=4.0),
)


def build_step_context(scenario: StepScenario
                       ) -> tuple[TrainContext, object]:
    """Build a warmed-up full-link training context for ``scenario``."""
    config = AIACCConfig(num_streams=scenario.streams,
                         algorithm=scenario.algorithm)
    backend = make_backend("aiacc", config=config)
    spec = get_model(scenario.model)
    congested = {0: 0.9} if scenario.congested else None
    full_link_default = (congested is None
                         and scenario.core_oversubscription == 1.0)
    ctx = build_train_context(
        spec, backend, scenario.ranks, spec.default_batch_size,
        congested_links=congested,
        core_oversubscription=scenario.core_oversubscription,
        representative=False if full_link_default else None)
    warm = ctx.sim.spawn(backend.warmup(ctx), name="warmup")
    ctx.sim.run(until=warm)
    return ctx, backend


def simulate_step(ctx: TrainContext, backend) -> float:
    """Simulate one full training step; returns simulated seconds."""
    proc = ctx.sim.spawn(backend.iteration(ctx), name="bench-iter")
    ctx.sim.run(until=proc)
    stats = proc.value
    assert isinstance(stats, IterationStats)
    return stats.iteration_time_s


@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=[s.name for s in SCENARIOS])
def test_simulated_step_wall_clock(benchmark, scenario):
    ctx, backend = build_step_context(scenario)
    # Warm-up iteration outside the timer: first-step costs (packer
    # setup, metric registration) are not steady-state per-step cost.
    sim_step_s = simulate_step(ctx, backend)
    assert sim_step_s > 0

    result = benchmark.pedantic(
        simulate_step, args=(ctx, backend), rounds=3, iterations=1)
    benchmark.extra_info.update(
        ranks=scenario.ranks, streams=scenario.streams,
        model=scenario.model, algorithm=scenario.algorithm,
        congested=scenario.congested, simulated_step_s=result)
    assert benchmark.stats.stats.min < scenario.budget_s, (
        f"{scenario.name}: simulating one step took "
        f"{benchmark.stats.stats.min:.3f}s wall-clock "
        f"(budget {scenario.budget_s}s) — simulator hot-path regression?"
    )
