"""The benchmark's four workloads and the inputs each seed generates.

Step workloads simulate one AIACC training job (``make_backend("aiacc")``
over a full-link cluster); their unit is one simulated training step
after warm-up.  ``tenants-chaos`` runs a seeded three-tenant mix through
the public ``ClusterRuntime(specs, config, chaos)``; its unit is one
whole cluster scenario.

Every check returns an error message (or ``None``) instead of raising,
so a failed check fails its unit and the run goes on.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing as t

from repro.cluster import ClusterRuntime, JobSpec
from repro.core.runtime import AIACCConfig
from repro.frameworks import make_backend
from repro.frameworks.base import IterationStats, TrainContext
from repro.models.zoo import get_model
from repro.obs import Observability
from repro.sim.faults import (
    BandwidthDegradation,
    FaultPlan,
    NodeCrash,
    Straggler,
)
from repro.training.trainer import build_train_context

#: GPUs per node of every step workload's cluster.
GPUS_PER_NODE = 8
#: Relative tolerance within which steady-state steps must agree.
STEADY_RTOL = 1e-9


# -- step workloads -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StepWorkload:
    """One AIACC training job; the unit is one simulated step."""

    name: str
    model: str
    ranks: int
    streams: int
    algorithm: str
    #: Run with ``Observability(enabled=True)`` and detectors attached.
    observed: bool = False
    #: One node's NIC congested; the seed picks the node and the share.
    congested: bool = False
    #: Timed steps per session; a session rebuilds the context, so the
    #: peak memory of the obs-heavy workload stays bounded.
    session_steps: int = 20
    #: Steps per traced pass.
    traced_steps: int = 8

    def congestion(self, seed: int) -> dict[int, float] | None:
        """``node -> NIC capacity fraction`` drawn from ``seed``."""
        if not self.congested:
            return None
        rng = random.Random(f"{self.name}:{seed}")
        node = rng.randrange(self.ranks // GPUS_PER_NODE)
        return {node: round(rng.uniform(0.93, 0.95), 4)}

    def open(self, seed: int, observed: bool) -> "StepSession":
        """Build the context, run warm-up and the first untimed step."""
        config = AIACCConfig(num_streams=self.streams,
                             algorithm=self.algorithm)
        backend = make_backend("aiacc", config=config)
        spec = get_model(self.model)
        obs = None
        if observed:
            obs = Observability(enabled=True)
            obs.attach_detectors()
        congestion = self.congestion(seed)
        ctx = build_train_context(
            spec, backend, self.ranks, spec.default_batch_size,
            gpus_per_node=GPUS_PER_NODE, congested_links=congestion,
            representative=False if congestion is None else None,
            obs=obs)
        warm = ctx.sim.spawn(backend.warmup(ctx), name="warmup")
        ctx.sim.run(until=warm)
        session = StepSession(ctx, backend)
        session.first = session.step()
        return session

    def samples_per_step(self) -> int:
        return self.ranks * get_model(self.model).default_batch_size


class StepSession:
    """A warmed-up training context that simulates one step per call."""

    def __init__(self, ctx: TrainContext, backend: t.Any) -> None:
        self.ctx = ctx
        self.backend = backend
        self.first: IterationStats | None = None

    def step(self) -> IterationStats:
        ctx = self.ctx
        proc = ctx.sim.spawn(self.backend.iteration(ctx), name="bench-step")
        ctx.sim.run(until=proc)
        return t.cast(IterationStats, proc.value)


def check_step(stats: object, compute_s: float,
               reference_s: float) -> str | None:
    """A step is finite, at least compute, and equal to the steady state."""
    if not isinstance(stats, IterationStats):
        return f"step returned {type(stats).__name__}, not IterationStats"
    step_s = stats.iteration_time_s
    if not math.isfinite(step_s):
        return f"non-finite step time {step_s!r}"
    if step_s < compute_s:
        return f"step time {step_s!r} below compute time {compute_s!r}"
    if abs(step_s - reference_s) > STEADY_RTOL * abs(reference_s):
        return (f"step time {step_s!r} differs from the steady state "
                f"{reference_s!r}")
    return None


# -- tenants-chaos ------------------------------------------------------------

#: Fixed per-tenant step counts (the seed does not draw them).
TENANT_STEPS = (16, 10, 8)
TENANT_MODELS = ("resnet50", "vgg16", "resnet101")


def chaos_plan() -> FaultPlan:
    """Tenant 0's crash, straggler and degradation (``three_job_scenario``)."""
    return FaultPlan([
        Straggler(at_s=0.2, node=0, slowdown=6.0, duration_s=12.0),
        NodeCrash(at_s=1.0, node=1),
        BandwidthDegradation(at_s=2.0, node=0, fraction=0.3,
                             duration_s=4.0),
    ])


@dataclasses.dataclass(frozen=True)
class TenantsWorkload:
    """A seeded three-tenant mix; the unit is one whole cluster scenario."""

    name: str
    #: Scenarios ``1..scenarios`` of a seed: timed runs cycle over them,
    #: a traced pass runs each once.
    scenarios: int = 120

    def specs(self, seed: int, index: int) -> list[JobSpec]:
        """Scenario ``index`` of ``seed``: arrivals, models, streams,
        priorities, compute time and bytes per step are drawn."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        specs = []
        for tenant, steps in enumerate(TENANT_STEPS):
            specs.append(JobSpec(
                job_id=f"t{tenant}", model=rng.choice(TENANT_MODELS),
                num_nodes=2, priority=rng.choice((1.0, 2.0)),
                arrival_s=0.0 if tenant == 0
                else round(rng.uniform(0.05, 0.5), 4),
                steps=steps, num_streams=rng.choice((2, 4, 8)),
                seed=rng.randrange(1 << 16),
                compute_s=round(rng.uniform(0.03, 0.06), 5),
                bytes_per_step=round(rng.uniform(24e6, 64e6))))
        return specs

    def build(self, seed: int, index: int, chaos: bool = True,
              observed: bool = True) -> ClusterRuntime:
        specs = self.specs(seed, index)
        plans = {specs[0].job_id: chaos_plan()} if chaos else None
        obs = None if observed else Observability.disabled()
        return ClusterRuntime(specs, chaos=plans, obs=obs)


def check_scenario(runtime: ClusterRuntime, result: t.Any) -> str | None:
    """Every tenant completed all its steps with finite step times."""
    for spec in runtime.specs:
        record = result.jobs.get(spec.job_id)
        if record is None:
            return f"tenant {spec.job_id} missing from the result"
        if record["status"] != "completed":
            return (f"tenant {spec.job_id} ended {record['status']}: "
                    f"{record['rejection']}")
        times = record["step_times"]
        if record["steps_done"] != spec.steps or len(times) != spec.steps:
            return f"tenant {spec.job_id} ran {len(times)} of {spec.steps}"
        if not all(math.isfinite(x) and x > 0 for x in times):
            return f"tenant {spec.job_id} has a bad step time"
        if record["numeric_digest"] is None:
            return f"tenant {spec.job_id} has no numeric digest"
    return None


def check_isolation(workload: TenantsWorkload, seed: int,
                    chaos_result: t.Any) -> str | None:
    """Tenants without chaos train bit-identically in a chaos-free replay."""
    replay = workload.build(seed, 0, chaos=False).run()
    for spec in workload.specs(seed, 0)[1:]:  # tenant 0 got the chaos
        job_id = spec.job_id
        if replay.job_digest(job_id) != chaos_result.job_digest(job_id):
            return f"isolation broken: tenant {job_id} digest moved"
    return None


def makespan_s(result: t.Any) -> float:
    """Simulated time until the last tenant's last all-reduce ends."""
    return max(span.end for span in result.obs.timeline.spans
               if span.name == "job-allreduce")


def scenario_samples(runtime: ClusterRuntime) -> int:
    """Training samples all tenants process in one scenario."""
    return sum(spec.steps * spec.batch_size for spec in runtime.specs)


WORKLOADS: dict[str, StepWorkload | TenantsWorkload] = {
    workload.name: workload for workload in (
        StepWorkload("ring-256r", model="resnet50", ranks=256, streams=4,
                     algorithm="ring", session_steps=24, traced_steps=40),
        StepWorkload("ring-1024r-observed", model="resnet50", ranks=1024,
                     streams=4, algorithm="ring", observed=True,
                     session_steps=10, traced_steps=6),
        StepWorkload("hier-congested-256r", model="vgg16", ranks=256,
                     streams=24, algorithm="hierarchical", congested=True,
                     session_steps=10, traced_steps=12),
        TenantsWorkload("tenants-chaos"),
    )
}
