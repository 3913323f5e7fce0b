"""Failure injection for long training runs (paper §IV fault tolerance).

AIACC-Training "provides fault-tolerance to restart the training process
from the last checkpoint upon node failure".  This module quantifies
that: given a measured per-iteration time, a checkpoint cadence and a
failure schedule, it computes the wall-clock cost of failures — lost
work since the last checkpoint, restart overhead, and the parameter
broadcast to the rebuilt worker group — and the resulting *goodput*.

It answers the operational question behind the feature: how often should
a production job checkpoint, given its failure rate?
(:func:`optimal_checkpoint_interval` implements Young's classic
approximation for comparison.)
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
import typing as t

import numpy as np

from repro.errors import FaultInjectionError, PeerDeadError, TrainingError
from repro.core.elastic import EpochTransition
from repro.models.base import ModelSpec
from repro.models.zoo import get_model
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.kernel import Simulator
from repro.sim.tracing import Trace
from repro.sim.transport import TransportModel
from repro.sim.tcp import TCP

#: Sustained write bandwidth of cloud block storage for checkpoints.
CHECKPOINT_WRITE_BPS = 2e9 * 8

#: Process respawn + communicator re-bootstrap after a node failure.
DEFAULT_RESTART_OVERHEAD_S = 30.0


@dataclasses.dataclass(frozen=True)
class ResilienceResult:
    """Outcome of a failure-injected training simulation."""

    total_iterations: int
    completed_iterations: int
    wasted_iterations: int
    ideal_time_s: float
    total_time_s: float
    checkpoint_time_s: float
    recovery_time_s: float
    failures: int

    @property
    def goodput(self) -> float:
        """Useful-work fraction: ideal time / actual time."""
        return self.ideal_time_s / self.total_time_s

    @property
    def overhead_fraction(self) -> float:
        return 1.0 - self.goodput


def checkpoint_write_time_s(model: str | ModelSpec) -> float:
    """Seconds to persist one fp32 copy of the model parameters."""
    spec = get_model(model) if isinstance(model, str) else model
    return spec.gradient_bytes * 8.0 / CHECKPOINT_WRITE_BPS


def broadcast_time_s(model: str | ModelSpec,
                     stream_bps: float = 7.5e9) -> float:
    """Seconds to propagate parameters to a rebuilt/joining worker."""
    spec = get_model(model) if isinstance(model, str) else model
    return spec.gradient_bytes * 8.0 / stream_bps


def simulate_resilient_training(
    model: str | ModelSpec,
    iteration_time_s: float,
    total_iterations: int,
    checkpoint_interval: int,
    failure_at: t.Sequence[int] = (),
    restart_overhead_s: float = DEFAULT_RESTART_OVERHEAD_S,
) -> ResilienceResult:
    """Walk a training run with checkpoints and injected failures.

    Parameters
    ----------
    iteration_time_s:
        Steady-state iteration time (e.g. from
        :func:`repro.training.trainer.run_training`).
    checkpoint_interval:
        Iterations between checkpoints (a checkpoint is written *after*
        every ``checkpoint_interval``-th iteration).
    failure_at:
        Iteration indices (0-based, in completed-work coordinates) at
        which a node fails; work since the last checkpoint is lost.
    """
    spec = get_model(model) if isinstance(model, str) else model
    if iteration_time_s <= 0:
        raise TrainingError("iteration_time_s must be positive")
    if total_iterations < 1 or checkpoint_interval < 1:
        raise TrainingError("iterations/interval must be >= 1")
    failures = sorted(set(failure_at))
    if failures and (failures[0] < 0 or failures[-1] >= total_iterations):
        raise TrainingError("failure indices out of range")

    ckpt_time = checkpoint_write_time_s(spec)
    recovery_unit = restart_overhead_s + broadcast_time_s(spec)

    time = 0.0
    ckpt_total = 0.0
    recovery_total = 0.0
    wasted = 0
    completed = 0
    last_checkpoint = 0
    failure_queue = list(failures)

    while completed < total_iterations:
        time += iteration_time_s
        completed += 1
        if failure_queue and completed - 1 == failure_queue[0]:
            failure_queue.pop(0)
            lost = completed - last_checkpoint
            wasted += lost
            completed = last_checkpoint
            recovery_total += recovery_unit
            time += recovery_unit
            continue
        if completed % checkpoint_interval == 0 and \
                completed != last_checkpoint:
            ckpt_total += ckpt_time
            time += ckpt_time
            last_checkpoint = completed

    return ResilienceResult(
        total_iterations=total_iterations,
        completed_iterations=total_iterations,
        wasted_iterations=wasted,
        ideal_time_s=total_iterations * iteration_time_s,
        total_time_s=time,
        checkpoint_time_s=ckpt_total,
        recovery_time_s=recovery_total,
        failures=len(failures),
    )


def optimal_checkpoint_interval(iteration_time_s: float,
                                mean_iterations_between_failures: float,
                                model: str | ModelSpec) -> int:
    """Young's approximation: sqrt(2 x ckpt_cost x MTBF), in iterations."""
    spec = get_model(model) if isinstance(model, str) else model
    if iteration_time_s <= 0 or mean_iterations_between_failures <= 0:
        raise TrainingError("inputs must be positive")
    ckpt_cost = checkpoint_write_time_s(spec)
    mtbf_s = mean_iterations_between_failures * iteration_time_s
    interval_s = math.sqrt(2.0 * ckpt_cost * mtbf_s)
    return max(1, round(interval_s / iteration_time_s))


@dataclasses.dataclass(frozen=True)
class ElasticPhase:
    """One segment of an elastically scaled training run."""

    num_gpus: int
    iterations: int
    iteration_time_s: float
    samples: float


def simulate_elastic_scaling(
    model: str | ModelSpec,
    backend: str,
    phases: t.Sequence[tuple[int, int]],
    batch_per_gpu: int | None = None,
) -> tuple[list[ElasticPhase], float]:
    """Timed elastic deployment: resize the cluster between phases.

    ``phases`` is ``[(num_gpus, iterations), ...]``; between consecutive
    phases the coordinator pauses training, re-forms the communicators
    and broadcasts the parameters to any joining workers (paper §IV:
    "elastic deployment by propagating training parameters into newly
    added computing nodes").

    Returns the per-phase results and the total wall-clock seconds
    including the resize pauses.
    """
    from repro.training.trainer import run_training

    spec = get_model(model) if isinstance(model, str) else model
    if not phases:
        raise TrainingError("need at least one phase")
    results: list[ElasticPhase] = []
    total_time = 0.0
    previous_gpus: int | None = None
    # One measurement per distinct world size: an up-down-up schedule
    # revisiting a size reuses its measured iteration time (the
    # measurement is a deterministic function of (spec, backend,
    # num_gpus, batch_per_gpu), all fixed across phases).
    measured_cache: dict[int, t.Any] = {}
    for num_gpus, iterations in phases:
        if num_gpus < 1 or iterations < 1:
            raise TrainingError("phases need positive GPUs/iterations")
        measured = measured_cache.get(num_gpus)
        if measured is None:
            measured = run_training(spec, backend, num_gpus,
                                    batch_per_gpu=batch_per_gpu,
                                    measure_iterations=2,
                                    warmup_iterations=1)
            measured_cache[num_gpus] = measured
        if previous_gpus is not None and num_gpus != previous_gpus:
            # Resize pause: communicator rebuild + parameter broadcast
            # to joiners (only needed when growing).
            total_time += DEFAULT_RESTART_OVERHEAD_S / 3.0
            if num_gpus > previous_gpus:
                total_time += broadcast_time_s(spec)
        phase_time = iterations * measured.mean_iteration_s
        total_time += phase_time
        results.append(ElasticPhase(
            num_gpus=num_gpus,
            iterations=iterations,
            iteration_time_s=measured.mean_iteration_s,
            samples=iterations * num_gpus * measured.batch_per_gpu,
        ))
        previous_gpus = num_gpus
    return results, total_time


@dataclasses.dataclass(frozen=True)
class RecoveryRecord:
    """Timeline of one detected failure and the recovery that followed."""

    #: Original node ids that died in this failure batch.
    failed_nodes: tuple[int, ...]
    #: Simulated time the (first) crash was injected.
    injected_at_s: float
    #: Time the engine first suspected a peer (first missed deadline).
    suspected_at_s: float
    #: Time the peer was declared dead (retries exhausted).
    confirmed_at_s: float
    #: Time training resumed on the rebuilt cluster.
    resumed_at_s: float
    #: Iterations completed when the failure was confirmed.
    failed_at_iteration: int
    #: Checkpoint iteration training restarted from.
    resumed_iteration: int

    @property
    def detection_latency_s(self) -> float:
        """Crash injection to confirmed declaration."""
        return self.confirmed_at_s - self.injected_at_s

    @property
    def rebuild_time_s(self) -> float:
        """Confirmation to resumed training."""
        return self.resumed_at_s - self.confirmed_at_s

    @property
    def lost_iterations(self) -> int:
        """Work discarded by restarting from the checkpoint."""
        return self.failed_at_iteration - self.resumed_iteration


@dataclasses.dataclass(frozen=True)
class FaultInjectionResult:
    """Outcome of an event-driven fault-injected training run."""

    model: str
    backend: str
    initial_num_gpus: int
    final_num_gpus: int
    total_iterations: int
    wasted_iterations: int
    total_time_s: float
    checkpoint_time_s: float
    iteration_times_s: tuple[float, ...]
    recoveries: tuple[RecoveryRecord, ...]
    trace: Trace
    #: Event-sequence digest (replay determinism); ``None`` unless the
    #: run executed under the invariant checker.
    state_digest: str | None = None
    #: Membership-epoch transitions (scale-down / scale-up / failure),
    #: in boundary order.  Empty for a purely crash-free, static run.
    epoch_transitions: tuple[EpochTransition, ...] = ()
    #: Membership epoch the run finished in.
    final_epoch: int = 0
    #: Linear-scaling-rule LR multiplier for the final world size.
    final_lr_scale: float = 1.0

    @property
    def ideal_iteration_s(self) -> float:
        """Healthy per-iteration time (first completed iteration)."""
        return self.iteration_times_s[0]

    @property
    def ideal_time_s(self) -> float:
        return self.total_iterations * self.ideal_iteration_s

    @property
    def goodput(self) -> float:
        """Useful-work fraction, comparable to
        :attr:`ResilienceResult.goodput`."""
        return self.ideal_time_s / self.total_time_s


def run_fault_injected_training(
    model: str | ModelSpec,
    plan: FaultPlan,
    backend: str | t.Any = "aiacc",
    num_gpus: int = 16,
    total_iterations: int = 20,
    checkpoint_interval: int = 5,
    checkpoint_dir: str | None = None,
    batch_per_gpu: int | None = None,
    gpus_per_node: int = 8,
    transport: TransportModel = TCP,
    nic_bandwidth_bps: float = 30e9,
    sync_timeout_s: float = 1.0,
    unit_timeout_s: float = 2.0,
    comm_retries: int = 1,
    retry_backoff_s: float = 0.25,
    restart_overhead_s: float = DEFAULT_RESTART_OVERHEAD_S,
    trace: Trace | None = None,
    max_restarts: int = 8,
    check_invariants: bool = False,
    obs: t.Any = None,
    settings_cache: t.Any = None,
) -> FaultInjectionResult:
    """Train under an event-driven fault schedule and self-heal.

    Unlike :func:`simulate_resilient_training` (a closed-form time walk),
    this runs the real AIACC engine inside the discrete-event simulator
    with a :class:`~repro.sim.faults.FaultInjector` armed: a crashed node
    stalls in-flight flows and new collectives, the engine's timeout
    detector suspects and then confirms the death
    (:class:`~repro.errors.PeerDeadError`), in-flight units are aborted,
    the ring is rebuilt over the survivors, state restores from the last
    checkpoint via :class:`~repro.core.fault_tolerance.ElasticCoordinator`,
    and training resumes — all on the simulated clock, so the recovery
    trajectory (detection latency, rebuild time, lost work) is measured,
    not assumed.

    The full (non-representative) link set is simulated so the dead
    node's NIC squash actually stalls traffic; ``sync_timeout_s`` /
    ``unit_timeout_s`` / ``comm_retries`` / ``retry_backoff_s`` drive the
    paper's §IV failure detector.

    The plan may also schedule *membership* events
    (:class:`~repro.sim.faults.NodeLeave` /
    :class:`~repro.sim.faults.NodeJoin`).  These are drained at
    iteration boundaries — where the group is quiescent — and advance
    the membership epoch (:class:`~repro.core.elastic.ElasticRuntime`):
    a clean leave excises the departed nodes and continues from the
    survivors' **live** parameters (no checkpoint restore); a join
    admits the new identities via the coordinator's pipelined
    live-parameter broadcast, verified bit-identical across ranks, and
    re-keys the auto-tuner's best-setting cache (pass
    ``settings_cache``) plus the linear-scaling LR multiplier for the
    new topology.  Crashes keep the abort → rebuild → checkpoint-restore
    path, now also stamped as a ``failure`` epoch transition.
    """
    from repro.core.elastic import ElasticRuntime
    from repro.core.fault_tolerance import CheckpointManager, \
        ElasticCoordinator
    from repro.frameworks import make_backend
    from repro.training.trainer import build_train_context

    spec = get_model(model) if isinstance(model, str) else model
    if total_iterations < 1 or checkpoint_interval < 1:
        raise TrainingError("iterations/interval must be >= 1")
    if num_gpus % gpus_per_node != 0 or num_gpus < 2 * gpus_per_node:
        raise TrainingError(
            "fault injection needs >= 2 whole nodes (num_gpus a multiple "
            "of gpus_per_node)"
        )
    if isinstance(backend, str):
        backend = make_backend(backend)
    config = getattr(backend, "config", None)
    if config is None or not hasattr(backend, "abort"):
        raise TrainingError(
            "fault-injected training requires an abortable backend with "
            "detection timeouts (the aiacc engine)"
        )
    backend.config = config.replace(
        sync_timeout_s=sync_timeout_s, unit_timeout_s=unit_timeout_s,
        comm_retries=comm_retries, retry_backoff_s=retry_backoff_s,
        check_invariants=check_invariants or config.check_invariants)
    num_nodes = num_gpus // gpus_per_node
    try:
        plan.membership_bounds(num_nodes)
    except FaultInjectionError as exc:
        raise TrainingError(f"invalid fault plan: {exc}") from exc
    batch = batch_per_gpu or spec.default_batch_size
    run_trace = trace or Trace(enabled=True, keep_spans=True)

    # The simulator never reads the environment flag itself: the engine
    # attaches the checker at warm-up when ``check_invariants`` (or the
    # config, which defaults to the flag) asks for it, so the flag and
    # the explicit argument yield the same event digest.
    ctx = build_train_context(
        spec, backend, num_gpus, batch, transport=transport,
        nic_bandwidth_bps=nic_bandwidth_bps, gpus_per_node=gpus_per_node,
        trace=run_trace, representative=False,
        sim=Simulator(check_invariants=False), obs=obs)
    sim = ctx.sim
    injector = FaultInjector(sim, ctx.cluster, ctx.network, trace=run_trace)
    injector.arm(plan)

    # Checkpoint payloads are stubs: simulated time uses the analytical
    # write cost, so there is no reason to shovel real gigabytes through
    # the filesystem of the machine running the simulation.
    def _stub_state(iteration: int) -> dict:
        return {"theta": np.asarray([iteration], dtype=np.float32)}

    cleanup: tempfile.TemporaryDirectory | None = None
    if checkpoint_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-faults-")
        checkpoint_dir = cleanup.name
    try:
        checkpoints = CheckpointManager(checkpoint_dir, keep_last=3)
        elastic = ElasticCoordinator(
            checkpoints, initial_workers=num_gpus,
            init_parameters=lambda: _stub_state(0))
        runtime = ElasticRuntime(
            elastic, members=range(num_nodes), gpus_per_node=gpus_per_node,
            settings_cache=settings_cache)
        ckpt_cost = checkpoint_write_time_s(spec)
        rebuild_cost = restart_overhead_s + broadcast_time_s(spec)
        #: Communicator re-formation pause at a clean epoch boundary —
        #: no process respawn, so a third of the full restart overhead
        #: (matching :func:`simulate_elastic_scaling`'s resize pause).
        reconfigure_cost = restart_overhead_s / 3.0

        def _rebuild(world_size: int, label: str):
            """Re-form the group: new context, retargeted injector.

            Built with no intervening simulated time after the caller's
            membership bookkeeping, so no fault can land in between.
            """
            nonlocal ctx
            ctx = build_train_context(
                spec, backend, world_size, batch, transport=transport,
                nic_bandwidth_bps=nic_bandwidth_bps,
                gpus_per_node=gpus_per_node, trace=run_trace,
                representative=False, sim=sim, obs=obs)
            injector.retarget(ctx.cluster, ctx.network)
            backend.advance_epoch(runtime.epoch)
            rewarm = sim.spawn(backend.warmup(ctx), name=label)
            sim.run(until=rewarm)

        warm = sim.spawn(backend.warmup(ctx), name="warmup")
        sim.run(until=warm)
        start = sim.now

        times: list[float] = []
        recoveries: list[RecoveryRecord] = []
        ckpt_total = 0.0
        wasted = 0
        completed = 0
        while completed < total_iterations:
            proc = sim.spawn(backend.iteration(ctx), name=f"iter{completed}")
            proc.add_callback(lambda _ev: None)  # watch: record, don't raise
            sim.run(until=proc)
            if proc.ok:
                times.append(proc.value.iteration_time_s)
                completed += 1
                if completed % checkpoint_interval == 0:
                    checkpoints.save(completed, _stub_state(completed))
                    ckpt_total += ckpt_cost
                    sim.run(until=sim.timeout(ckpt_cost))

                # Epoch boundary: the group is quiescent, so announced
                # clean departures and pending joins take effect here,
                # in announcement order (batching consecutive same-kind
                # events into one transition each, matching the order
                # the plan was validated in).
                leaves = injector.take_pending_leaves()
                joins = injector.take_pending_joins()
                batches: list[tuple[str, list[int]]] = []
                announced = sorted(
                    [(injector.leave_times[n], n, "leave") for n in leaves]
                    + [(injector.join_times[n], n, "join") for n in joins])
                for _at, node, kind in announced:
                    if batches and batches[-1][0] == kind:
                        batches[-1][1].append(node)
                    else:
                        batches.append((kind, [node]))
                while batches:
                    if injector.has_pending_dead:
                        # A crash landed mid-transition: hand the
                        # boundary to the crash-recovery path and keep
                        # the rest of the membership work queued.
                        for kind, nodes in batches:
                            if kind == "leave":
                                injector.requeue_leaves(nodes)
                            else:
                                injector.requeue_joins(nodes)
                        break
                    kind, nodes = batches.pop(0)
                    if kind == "leave":
                        # Scale-down: excise the departed ranks and
                        # continue from the survivors' live parameters —
                        # nothing is lost, nothing restores from
                        # checkpoint.
                        injector.depart(nodes)
                        runtime.scale_down(
                            nodes, at_s=sim.now,
                            resumed_iteration=completed,
                            reconfigure_time_s=reconfigure_cost)
                        _rebuild(runtime.view.world_size,
                                 f"rewarm-epoch{runtime.epoch}")
                        sim.run(until=sim.timeout(reconfigure_cost))
                        run_trace.epoch(runtime.epoch, sim.now,
                                        kind="scale-down",
                                        world=runtime.view.world_size)
                    else:
                        # Scale-up: admit joiners via the pipelined
                        # live-parameter broadcast, re-key the tuner's
                        # best-setting cache for the new topology and
                        # rescale the LR (linear scaling rule).
                        injector.admit(nodes)
                        join_cost = reconfigure_cost + \
                            broadcast_time_s(spec)
                        live = [_stub_state(completed)
                                for _ in range(elastic.live_workers)]
                        new_world = runtime.view.world_size + \
                            len(nodes) * gpus_per_node
                        joined_ctx = build_train_context(
                            spec, backend, new_world, batch,
                            transport=transport,
                            nic_bandwidth_bps=nic_bandwidth_bps,
                            gpus_per_node=gpus_per_node, trace=run_trace,
                            representative=False, sim=sim, obs=obs)
                        backend.config, tuned_label = runtime.retune(
                            spec, joined_ctx.cluster, backend.config)
                        runtime.scale_up(
                            nodes, at_s=sim.now, live_parameters=live,
                            resumed_iteration=completed,
                            reconfigure_time_s=join_cost,
                            retuned=tuned_label)
                        ctx = joined_ctx
                        injector.retarget(ctx.cluster, ctx.network)
                        backend.advance_epoch(runtime.epoch)
                        rewarm = sim.spawn(
                            backend.warmup(ctx),
                            name=f"rewarm-epoch{runtime.epoch}")
                        sim.run(until=rewarm)
                        sim.run(until=sim.timeout(join_cost))
                        run_trace.epoch(runtime.epoch, sim.now,
                                        kind="scale-up", world=new_world)
                continue

            failure = proc.value
            if not isinstance(failure, PeerDeadError):
                raise t.cast(BaseException, failure)
            if len(recoveries) >= max_restarts:
                raise TrainingError(
                    f"exceeded {max_restarts} restarts; aborting"
                )
            backend.abort(failure)
            dead = injector.take_pending_dead()
            if not dead:
                raise TrainingError(
                    "failure detector confirmed a dead peer but no node "
                    "crashed — detection timeouts are too aggressive for "
                    "this configuration"
                )
            # Pay the restart overhead per batch of deaths; more crashes
            # landing during the window extend the outage.
            all_dead: list[int] = []
            while dead:
                all_dead.extend(dead)
                run_trace.fault("rebuild", sim.now, nodes=tuple(dead))
                sim.run(until=sim.timeout(rebuild_cost))
                dead = injector.take_pending_dead()

            resume_iteration, _params = elastic.on_failure(
                failed_workers=len(all_dead) * gpus_per_node)
            run_trace.fault("restore", sim.now,
                            iteration=resume_iteration)
            runtime.failure(
                all_dead, at_s=sim.now, resumed_iteration=resume_iteration,
                reconfigure_time_s=sim.now - failure.confirmed_at_s)
            # Rebuild the communicator over the survivors and retarget
            # the injector with no intervening simulated time, so no
            # fault can land between the two.
            _rebuild(runtime.view.world_size, "rewarmup")
            recoveries.append(RecoveryRecord(
                failed_nodes=tuple(all_dead),
                injected_at_s=min(injector.crash_times[n]
                                  for n in all_dead),
                suspected_at_s=failure.suspected_at_s,
                confirmed_at_s=failure.confirmed_at_s,
                resumed_at_s=sim.now,
                failed_at_iteration=completed,
                resumed_iteration=resume_iteration,
            ))
            run_trace.epoch(runtime.epoch, sim.now, kind="failure",
                            world=runtime.view.world_size)
            wasted += completed - resume_iteration
            completed = resume_iteration
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    return FaultInjectionResult(
        model=spec.name,
        backend=backend.name,
        initial_num_gpus=num_gpus,
        final_num_gpus=ctx.cluster.world_size,
        total_iterations=total_iterations,
        wasted_iterations=wasted,
        total_time_s=sim.now - start,
        checkpoint_time_s=ckpt_total,
        iteration_times_s=tuple(times),
        recoveries=tuple(recoveries),
        trace=run_trace,
        state_digest=sim.state_digest(),
        epoch_transitions=tuple(runtime.transitions),
        final_epoch=runtime.epoch,
        final_lr_scale=runtime.lr_scale(),
    )
