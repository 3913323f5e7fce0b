"""Deterministic-replay probes for the seed x config determinism matrix.

The simulator's replay-determinism guarantee (PR 2) is only worth
anything if it survives hot-path rewrites.  This module packages one
training run per matrix cell — ranks x streams x {faults on/off} x
{invariants on/off} — behind a single function so the determinism test
suite, the benchmark harness and ad-hoc debugging all probe the exact
same configurations.

Each probe returns the run's :meth:`~repro.sim.kernel.Simulator.
state_digest` (``None`` when the invariant checker is off — the digest
is the checker's event-sequence fold) plus the measured iteration times,
which stay comparable even without a digest.

Seed semantics
--------------
The training pipeline itself draws no random numbers, so the probe
derives every seed-sensitive input deterministically from ``seed``:

* with faults on, the seed selects the crash victim and the crash time
  of the injected :class:`~repro.sim.faults.NodeCrash`;
* with faults off, the seed adds ``seed * SEED_JITTER_S`` of forward
  time — a deliberately tiny, seed-keyed perturbation whose only job is
  to shift every subsequent event timestamp so that two different seeds
  provably produce two different digests.

Both channels leave ``seed=0`` byte-identical to the unseeded run.

Outcome digests
---------------
The event digest pins the kernel's whole popped ``(time, name)``
sequence, so a change that only thins the event schedule (fewer
superseded wakeups, one bundled completion instead of one per flow)
re-pins it even when no simulated result moves.  What a user observes
is the step's critical path: the iteration times and the numeric
result.  :func:`outcome_digest` folds exactly those, bit-exact, and
:data:`OUTCOME_CELLS` names the full-link configurations whose
outcomes ``tests/sim/golden_outcomes.json`` pins across commits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import typing as t

from repro.core.runtime import AIACCConfig
from repro.errors import TrainingError
from repro.frameworks import make_backend
from repro.frameworks.base import IterationStats
from repro.models.zoo import get_model
from repro.sim.faults import FaultPlan, NodeCrash
from repro.sim.kernel import Simulator
from repro.training.trainer import build_train_context

#: Forward-time jitter per seed unit in the fault-free probe (seconds).
SEED_JITTER_S = 1e-6

#: Model used by every probe: mid-sized, exercises packing + streams.
PROBE_MODEL = "resnet50"

#: NIC capacity fraction of node 0 in a congested outcome cell.
CONGESTED_NIC_SHARE = 0.9

#: GPUs per node of every outcome cell (the paper's 8-GPU V100 nodes).
OUTCOME_GPUS_PER_NODE = 8


@dataclasses.dataclass(frozen=True)
class DeterminismProbe:
    """Outcome of one determinism-matrix cell."""

    ranks: int
    streams: int
    faults: bool
    invariants: bool
    seed: int
    #: Event-sequence digest; ``None`` when invariants are off.
    digest: str | None
    iteration_times_s: tuple[float, ...]
    #: All-reduce algorithm of the probed run.
    algorithm: str = "ring"

    @property
    def key(self) -> str:
        """Stable identifier used by the golden-digest file."""
        return probe_key(self.ranks, self.streams, self.faults,
                         self.invariants, self.seed, self.algorithm)


def probe_key(ranks: int, streams: int, faults: bool, invariants: bool,
              seed: int, algorithm: str = "ring") -> str:
    """Canonical name of one matrix cell (JSON key in the golden file).

    The default ring algorithm keeps the legacy key format so existing
    golden entries stay addressable; planner-backend cells append an
    ``-<algorithm>`` suffix.
    """
    key = (f"r{ranks}-s{streams}"
           f"-{'faults' if faults else 'nofaults'}"
           f"-{'inv' if invariants else 'noinv'}-seed{seed}")
    if algorithm != "ring":
        key += f"-{algorithm}"
    return key


@dataclasses.dataclass(frozen=True)
class DiagnosisProbe:
    """Outcome of one diagnosis-determinism cell."""

    straggler_rank: int | None
    straggler_factor: float
    seed: int
    #: Canonical findings digest (see ``repro.obs.diagnosis``).
    findings_digest: str
    findings: int

    @property
    def key(self) -> str:
        """Stable identifier used by the golden-findings file."""
        return diagnosis_probe_key(self.straggler_rank,
                                   self.straggler_factor, self.seed)


def diagnosis_probe_key(straggler_rank: int | None,
                        straggler_factor: float = 3.0,
                        seed: int = 0) -> str:
    """Canonical name of one diagnosis cell (golden-findings JSON key)."""
    scenario = ("clean" if straggler_rank is None
                else f"straggler-r{straggler_rank}-x{straggler_factor:g}")
    return f"diag-{scenario}-seed{seed}"


def diagnosis_probe(straggler_rank: int | None = None,
                    straggler_factor: float = 3.0,
                    seed: int = 0) -> DiagnosisProbe:
    """Diagnose one message-level iteration; returns the findings digest.

    The workload is a seed-keyed synthetic model on 2 nodes x 2 GPUs
    with streaming detectors attached; ``straggler_rank`` injects a
    compute-skewed straggler.  The digest must be bit-identical across
    runs and commits — it is pinned in ``golden_findings.json`` next to
    the event-sequence golden digests.
    """
    from repro.models.synthetic import random_model_spec
    from repro.obs import Observability, diagnose
    from repro.obs.report import build_step_report

    spec = random_model_spec(seed, num_layers=8, total_parameters=400_000,
                             total_forward_flops=1e9,
                             compute_occupancy=0.5)
    obs = Observability(enabled=True)
    obs.attach_detectors()
    skew = None if straggler_rank is None \
        else {straggler_rank: straggler_factor}
    report = build_step_report(
        model=t.cast(str, spec), num_nodes=2, gpus_per_node=2,
        config=AIACCConfig(num_streams=4), seed=seed, obs=obs,
        compute_skew=skew)
    diagnosis = diagnose(obs, attributions=report.attributions)
    return DiagnosisProbe(
        straggler_rank=straggler_rank, straggler_factor=straggler_factor,
        seed=seed, findings_digest=diagnosis.findings_digest,
        findings=len(diagnosis.findings))


def outcome_digest(iteration_times_s: t.Iterable[float],
                   numeric_digest: str | None = None) -> str:
    """blake2b over the bit-exact iteration times (+ numeric digest).

    Each time enters as its IEEE 754 bytes, so a one-ulp shift changes
    the digest; the event schedule that produced the times does not
    enter it.  ``numeric_digest`` (e.g. a trainer's parameter digest)
    is folded in when the run has one.
    """
    h = hashlib.blake2b(digest_size=16)
    for value in iteration_times_s:
        h.update(struct.pack("<d", value))
    if numeric_digest is not None:
        h.update(b"numeric:")
        h.update(numeric_digest.encode())
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class OutcomeCell:
    """One full-link (``representative=False``) golden-outcome config."""

    algorithm: str
    nodes: int
    streams: int = 4
    #: Node 0's NIC runs at ``CONGESTED_NIC_SHARE`` of its capacity.
    congested: bool = False
    #: Crash one node mid-run (the fault probe's seed-0 schedule).
    faults: bool = False
    #: Leaf-spine core oversubscription (1 = non-blocking fabric).
    core_oversubscription: float = 1.0

    @property
    def key(self) -> str:
        """Stable identifier used by the golden-outcome file."""
        key = (f"{self.algorithm}-n{self.nodes}x{OUTCOME_GPUS_PER_NODE}"
               f"-s{self.streams}")
        if self.congested:
            key += "-congested"
        if self.core_oversubscription != 1.0:
            key += f"-core{self.core_oversubscription:g}"
        if self.faults:
            key += "-faults"
        return key


@dataclasses.dataclass(frozen=True)
class OutcomeProbe:
    """Observable outcome of one golden-outcome cell."""

    cell: OutcomeCell
    iteration_times_s: tuple[float, ...]

    @property
    def digest(self) -> str:
        return outcome_digest(self.iteration_times_s)


#: The golden-outcome matrix: every collective launch shape whose host
#: path once depended on scale — full-link rings from 16 to 64 nodes
#: (1, 4 and 8 concurrent streams at 32), hierarchical at 4 and 32
#: nodes with and without a congested NIC, a planner schedule, a
#: crash-and-recover run, and a ring on a 4:1 oversubscribed core whose
#: shared spine joins the per-hop flows into 32-64-flow components.
OUTCOME_CELLS: tuple[OutcomeCell, ...] = (
    OutcomeCell("ring", 16),
    OutcomeCell("ring", 32, streams=1),
    OutcomeCell("ring", 32),
    OutcomeCell("ring", 32, streams=8),
    OutcomeCell("ring", 64),
    OutcomeCell("hierarchical", 4),
    OutcomeCell("hierarchical", 4, congested=True),
    OutcomeCell("hierarchical", 32),
    OutcomeCell("hierarchical", 32, congested=True),
    OutcomeCell("halving-doubling", 16),
    OutcomeCell("ring", 4, faults=True),
    OutcomeCell("ring", 16, core_oversubscription=4.0),
)


def run_outcome_probe(cell: OutcomeCell, iterations: int = 2,
                      model: str = PROBE_MODEL) -> OutcomeProbe:
    """Run one golden-outcome cell on the full link set."""
    ranks = cell.nodes * OUTCOME_GPUS_PER_NODE
    if cell.faults:
        if (cell.algorithm != "ring" or cell.congested
                or cell.core_oversubscription != 1.0):
            raise TrainingError(
                "fault outcome cells cover the uncongested ring only")
        probe = _run_fault_probe(ranks, cell.streams, False, 0, iterations,
                                 model)
        return OutcomeProbe(cell, probe.iteration_times_s)
    spec = get_model(model)
    config = AIACCConfig(num_streams=cell.streams, check_invariants=False,
                         algorithm=cell.algorithm)
    backend = make_backend("aiacc", config=config)
    sim = Simulator(check_invariants=False)
    congestion = {0: CONGESTED_NIC_SHARE} if cell.congested else None
    ctx = build_train_context(
        spec, backend, ranks, spec.default_batch_size,
        gpus_per_node=OUTCOME_GPUS_PER_NODE, congested_links=congestion,
        representative=False, sim=sim,
        core_oversubscription=cell.core_oversubscription)
    return OutcomeProbe(cell, _timed_iterations(sim, backend, ctx,
                                                iterations))


def _timed_iterations(sim: Simulator, backend: t.Any, ctx: t.Any,
                      iterations: int) -> tuple[float, ...]:
    """Warm ``backend`` up on ``ctx``, then time ``iterations`` steps."""
    warm = sim.spawn(backend.warmup(ctx), name="warmup")
    sim.run(until=warm)
    times: list[float] = []
    for index in range(iterations):
        proc = sim.spawn(backend.iteration(ctx), name=f"iter{index}")
        sim.run(until=proc)
        times.append(t.cast(IterationStats, proc.value).iteration_time_s)
    return tuple(times)


def _fault_layout(ranks: int) -> int:
    """GPUs per node for the fault probe (needs >= 2 whole nodes)."""
    if ranks < 2:
        raise TrainingError("fault probes need at least 2 ranks")
    return min(8, ranks // 2)


def run_probe(ranks: int, streams: int = 4, faults: bool = False,
              invariants: bool = True, seed: int = 0,
              iterations: int = 2, model: str = PROBE_MODEL,
              algorithm: str = "ring") -> DeterminismProbe:
    """Run one matrix cell and return its digest + iteration times."""
    if faults:
        if algorithm != "ring":
            raise TrainingError(
                "fault probes only cover the ring algorithm")
        return _run_fault_probe(ranks, streams, invariants, seed,
                                iterations, model)
    return _run_clean_probe(ranks, streams, invariants, seed,
                            iterations, model, algorithm)


def _run_clean_probe(ranks: int, streams: int, invariants: bool,
                     seed: int, iterations: int, model: str,
                     algorithm: str = "ring") -> DeterminismProbe:
    spec = get_model(model)
    config = AIACCConfig(num_streams=streams, check_invariants=invariants,
                         algorithm=algorithm)
    backend = make_backend("aiacc", config=config)
    sim = Simulator(check_invariants=invariants)
    ctx = build_train_context(
        spec, backend, ranks, spec.default_batch_size, sim=sim,
        extra_forward_time_s=seed * SEED_JITTER_S)
    times = _timed_iterations(sim, backend, ctx, iterations)
    return DeterminismProbe(
        ranks=ranks, streams=streams, faults=False, invariants=invariants,
        seed=seed, digest=sim.state_digest(),
        iteration_times_s=times, algorithm=algorithm)


def _run_fault_probe(ranks: int, streams: int, invariants: bool,
                     seed: int, iterations: int,
                     model: str) -> DeterminismProbe:
    from repro.training.resilience import run_fault_injected_training

    gpus_per_node = _fault_layout(ranks)
    num_nodes = ranks // gpus_per_node
    # Seed-keyed single crash: victim node and crash time both derive
    # from the seed, so different seeds yield different fault timelines.
    victim = seed % num_nodes
    crash_at = 0.4 + 0.01 * (seed % 7)
    plan = FaultPlan([NodeCrash(at_s=crash_at, node=victim)])
    config = AIACCConfig(num_streams=streams, check_invariants=invariants)
    backend = make_backend("aiacc", config=config)
    result = run_fault_injected_training(
        model, plan, backend=backend, num_gpus=ranks,
        gpus_per_node=gpus_per_node, total_iterations=iterations,
        checkpoint_interval=max(1, iterations // 2),
        check_invariants=invariants)
    return DeterminismProbe(
        ranks=ranks, streams=streams, faults=True, invariants=invariants,
        seed=seed, digest=result.state_digest,
        iteration_times_s=tuple(result.iteration_times_s))
