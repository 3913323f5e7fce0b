"""Benchmark runner: host cost per simulated training step.

Run from the repository root::

    python3 perfbench/run.py --workload ring-256r --seed 1 --seconds 28 --trace 0

One process, no threads, closed loop with one caller: the next unit
starts only after the previous one completed.  With ``--trace 0`` the
run measures the end-to-end metrics untraced; with ``--trace 1`` it
measures the per-layer metrics (an untraced obs-on/obs-off interleave,
then two traced passes over the same fixed units whose counts must be
identical).  Every host time is taken right after a calibration kernel
and rescaled to the reference host speed (see ``calib.py``); the raw
host times are printed and kept in the run's JSON file too.
Human-readable lines come first; the last line of standard output is
the JSON result.  The exit code is 1 when any output check failed, and
1 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
import typing as t
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

_clock = time.perf_counter


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {src}")
    sys.path.insert(0, str(src))


_import_program()

import spans  # noqa: E402  (needs the program on sys.path)
import stats  # noqa: E402
from calib import Calibrator  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    StepWorkload,
    TenantsWorkload,
    check_isolation,
    check_scenario,
    check_step,
    makespan_s,
    scenario_samples,
)


class Run:
    """What one run attempted, what failed, and the timed samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed = Calibrator().timed
        #: Reference seconds of every timed unit that passed its checks,
        #: keyed by obs variant (True: obs on).
        self.walls: dict[bool, list[float]] = {True: [], False: []}
        #: Raw host seconds of the workload variant's units.
        self.host_walls: list[float] = []
        #: Set-up times of the workload variant: reference and raw.
        self.setups: list[float] = []
        self.host_setups: list[float] = []
        #: Simulated seconds per timed unit, and simulated samples/s.
        self.sim_unit_s: list[float] = []
        self.sim_rate: list[float] = []
        #: Simulated training steps completed in timed units.
        self.sim_steps = 0

    def check(self, error: str | None) -> bool:
        """Count one attempted unit; ``error`` fails it."""
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(error)
        return False


# -- step workloads -----------------------------------------------------------


def step_sessions(workload: StepWorkload, seed: int, seconds: float,
                  variants: tuple[bool, ...], run: Run) -> float:
    """Alternate sessions of each obs variant for ``seconds``.

    Returns the simulated step time every later step must equal (NaN
    when no session got through its first step).
    """
    samples = workload.samples_per_step()
    reference: float | None = None
    deadline = _clock() + seconds
    turn = 0
    while _clock() < deadline:
        observed = variants[turn % len(variants)]
        main = observed == workload.observed
        turn += 1
        gc.collect()
        try:
            session, host, ref = run.timed(
                lambda: workload.open(seed, observed))
        except Exception as exc:  # a failed set-up fails its unit
            run.check(f"set-up raised {exc!r}")
            continue
        compute = session.ctx.compute_time_s
        first = session.first.iteration_time_s
        if not run.check(check_step(session.first, compute,
                                    reference if reference else first)):
            continue
        reference = reference or first
        if main:
            run.setups.append(ref)
            run.host_setups.append(host)
        for _ in range(workload.session_steps):
            if _clock() >= deadline:
                break
            try:
                result, host, ref = run.timed(session.step)
            except Exception as exc:
                run.check(f"step raised {exc!r}")
                break
            if not run.check(check_step(result, compute, reference)):
                continue
            run.walls[observed].append(ref)
            if main:
                run.host_walls.append(host)
                run.sim_steps += 1
                run.sim_unit_s.append(result.iteration_time_s)
                run.sim_rate.append(samples / result.iteration_time_s)
    return reference if reference is not None else math.nan


def step_pass(workload: StepWorkload, seed: int, reference: float,
              run: Run, tracer: spans.Tracer | None) -> list[float]:
    """The fixed traced steps, under ``tracer`` if given.

    Returns the reference seconds of each step.
    """
    if tracer is not None:
        tracer.install()
    walls = []
    try:
        session = workload.open(seed, workload.observed)
        compute = session.ctx.compute_time_s

        def unit() -> t.Any:
            if tracer is None:
                return session.step()
            tracer.begin_unit(session.ctx.network)
            result = session.step()
            tracer.end_unit()
            return result

        for _ in range(workload.traced_steps):
            result, host, ref = run.timed(unit)
            walls.append(ref)
            if tracer is not None:
                tracer.unit_scale.append(ref / host)
                tracer.exposed_comm_s.append(result.exposed_comm_time_s)
                tracer.counts["obs.label_sets"] += spans.label_sets(
                    session.ctx.obs.registry)
            run.check(check_step(result, compute, reference))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return walls


# -- tenants-chaos ------------------------------------------------------------


def warm_tenants(workload: TenantsWorkload, seed: int, run: Run) -> None:
    """Untimed scenario 0, then its chaos-free isolation replay."""
    try:
        runtime = workload.build(seed, 0)
        result = runtime.run()
        if run.check(check_scenario(runtime, result)):
            run.check(check_isolation(workload, seed, result))
    except Exception as exc:
        run.check(f"scenario 0 or its replay raised {exc!r}")


def tenant_units(workload: TenantsWorkload, seed: int, seconds: float,
                 variants: tuple[bool, ...], run: Run) -> None:
    """Cycle over scenarios 1..N (each once per variant) for ``seconds``.

    The same N scenarios are timed whatever the speed of host and
    program, and the first cycle always completes, so the ``sim_``
    metrics are taken once per scenario and do not depend on speed.  A
    scenario that repeats must simulate the same makespan.
    """
    deadline = _clock() + seconds
    makespans: dict[int, float] = {}
    k = 0
    while k < workload.scenarios or _clock() < deadline:
        index = 1 + k % workload.scenarios
        k += 1
        for observed in variants:
            gc.collect()
            try:
                runtime, host_setup, ref_setup = run.timed(
                    lambda: workload.build(seed, index, observed=observed))
                result, host, ref = run.timed(runtime.run)
            except Exception as exc:
                run.check(f"scenario {index} raised {exc!r}")
                continue
            error = check_scenario(runtime, result)
            if error is None and observed:
                span = makespan_s(result)
                if index not in makespans:
                    makespans[index] = span
                    run.sim_unit_s.append(span)
                    run.sim_rate.append(scenario_samples(runtime) / span)
                elif span != makespans[index]:
                    error = (f"scenario {index} repeated with makespan "
                             f"{span!r}, not {makespans[index]!r}")
            if not run.check(error):
                continue
            run.walls[observed].append(ref)
            if observed:
                run.host_walls.append(host)
                run.setups.append(ref_setup)
                run.host_setups.append(host_setup)
                run.sim_steps += sum(s.steps for s in runtime.specs)


def tenant_pass(workload: TenantsWorkload, seed: int, run: Run,
                tracer: spans.Tracer | None) -> list[float]:
    """The fixed traced scenarios, under ``tracer`` if given.

    Returns the reference seconds of each scenario.
    """
    if tracer is not None:
        tracer.install()
    walls = []
    try:
        for index in range(1, workload.scenarios + 1):
            runtime = workload.build(seed, index)

            def unit() -> t.Any:
                if tracer is None:
                    return runtime.run()
                tracer.begin_unit(runtime.fabric.network)
                result = runtime.run()
                tracer.end_unit()
                return result

            result, host, ref = run.timed(unit)
            walls.append(ref)
            if tracer is not None:
                tracer.unit_scale.append(ref / host)
                for record in result.jobs.values():
                    tracer.counts["cluster.ladder_stages"] += \
                        record["ladder_stage"]
                    tracer.counts["cluster.preemptions"] += sum(
                        tr["kind"] == "preempt"
                        for tr in record["transitions"])
                tracer.counts["obs.label_sets"] += spans.label_sets(
                    result.obs.registry)
            run.check(check_scenario(runtime, result))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return walls


# -- metrics ------------------------------------------------------------------


def end_to_end(run: Run, observed: bool) -> tuple[dict, dict]:
    walls = run.walls[observed]
    walls_ms = [w * 1e3 for w in walls]
    tail_ms, tail_pct, count = stats.tail(walls_ms)
    host_ms = [w * 1e3 for w in run.host_walls]
    metrics = {
        "wall_ms_p50": (stats.median(walls_ms), "ms"),
        "wall_ms_tail": (tail_ms, "ms"),
        "sim_steps_per_host_s": (
            run.sim_steps / sum(walls) if walls else 0.0, "steps/s"),
        "setup_s": (stats.median(run.setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "sim_samples_per_s": (stats.median(run.sim_rate), "samples/sim_s"),
        "sim_makespan_s": (stats.median(run.sim_unit_s), "sim_s"),
    }
    details = {"tail_percentile": tail_pct, "samples": count,
               "setups": len(run.setups),
               "host_ms_p50": stats.median(host_ms),
               "host_ms_tail": stats.tail(host_ms)[0],
               "host_setup_s": stats.median(run.host_setups),
               "failed_frac": run.failed / max(1, run.attempted),
               "samples_ms": walls_ms}
    return metrics, details


#: Counters reported per unit, straight from the traced passes.
COUNTED = (
    "kernel.events_created", "kernel.spawns",
    "network.flows_started", "network.groups_started",
    "network.reallocations", "network.solver_flow_visits",
    "network.capacity_changes", "network.cancels",
    "collectives.calls.ring", "collectives.calls.hierarchical",
    "obs.spans", "obs.metric_updates", "obs.detector_calls",
    "obs.label_sets",
    "cluster.admit_attempts", "cluster.admit_rejects",
    "cluster.nic_changes", "cluster.ladder_stages", "cluster.preemptions",
    "autotune.trials",
)
#: ``metric -> span layer`` whose self time is reported per unit.
SELF_TIMED = {
    "kernel.run_self_ms": "kernel.run",
    "network.start_ms": "network.start",
    "collectives.launch_self_ms": "collectives.launch",
    "obs.record_self_ms": "obs.record",
    "cluster.admit_ms": "cluster.admit",
    "cluster.fabric_allreduce_ms": "cluster.fabric_allreduce",
    "autotune.tune_ms": "autotune.tune",
}


def signature(tracer: spans.Tracer) -> tuple:
    """Everything a traced pass counts; equal across same-seed passes."""
    return (sorted(tracer.counts.items()),
            sorted(tracer.span_counts().items()),
            tuple(tracer.sim_allreduce_s),
            tuple(tracer.unit_peak_flows),
            tuple(tracer.exposed_comm_s))


def per_layer(passes: list[spans.Tracer], walls: dict[bool, list[float]],
              run: Run) -> tuple[dict, dict]:
    """Per-unit layer metrics; ``walls`` maps traced? to reference s."""
    first = passes[0]
    units = max(1, first.units)
    metrics: dict[str, tuple[float, str]] = {}
    self_ms = [p.self_ms() for p in passes]
    for name, layer in SELF_TIMED.items():
        total = sum(s.get(layer, 0.0) for s in self_ms)
        metrics[name] = (total / (units * len(passes)), "ms")
    for name in COUNTED:
        metrics[name] = (first.counts.get(name, 0) / units, "count")
    metrics["collectives.bytes"] = (
        first.counts.get("collectives.bytes", 0) / units, "bytes")
    metrics["network.peak_active_flows"] = (
        sum(first.unit_peak_flows) / units, "count")
    metrics["collectives.sim_allreduce_ms_p50"] = (
        stats.median(first.sim_allreduce_s) * 1e3, "sim_ms")
    exposed = first.exposed_comm_s
    metrics["engine.sim_exposed_comm_ms"] = (
        sum(exposed) / len(exposed) * 1e3 if exposed else 0.0, "sim_ms")
    on = stats.median(run.walls[True])
    off = stats.median(run.walls[False])
    metrics["obs.overhead_x"] = (on / off if off else 0.0, "x")
    untraced = stats.median(walls[False])
    metrics["trace.overhead_x"] = (
        stats.median(walls[True]) / untraced if untraced else 0.0, "x")
    metrics["trace.spans"] = (len(first.spans) / units, "count")
    details = {"traced_units_per_pass": units, "passes": len(passes),
               "untraced_obs_on_samples": len(run.walls[True]),
               "untraced_obs_off_samples": len(run.walls[False]),
               "failed_frac": run.failed / max(1, run.attempted)}
    return dict(sorted(metrics.items())), details


# -- entry point --------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool
            ) -> tuple[Run, dict, dict]:
    workload = WORKLOADS[name]
    run = Run()
    observed = workload.observed if isinstance(workload, StepWorkload) \
        else True
    if not trace:
        if isinstance(workload, StepWorkload):
            step_sessions(workload, seed, seconds, (observed,), run)
        else:
            warm_tenants(workload, seed, run)
            tenant_units(workload, seed, seconds, (True,), run)
        metrics, details = end_to_end(run, observed)
        return run, metrics, details
    # Untraced first: the workload as defined, interleaved with the same
    # inputs under the other obs setting (for ``obs.overhead_x``).  Then
    # two traced passes over the same fixed units, each followed by the
    # same units untraced (for ``trace.overhead_x``).
    variants = (observed, not observed)
    passes: list[spans.Tracer] = []
    walls: dict[bool, list[float]] = {True: [], False: []}
    if isinstance(workload, StepWorkload):
        reference = step_sessions(workload, seed, seconds * 0.6, variants,
                                  run)

        def one_pass(tracer: spans.Tracer | None) -> list[float]:
            return step_pass(workload, seed, reference, run, tracer)
    else:
        warm_tenants(workload, seed, run)
        tenant_units(workload, seed, seconds * 0.6, variants, run)

        def one_pass(tracer: spans.Tracer | None) -> list[float]:
            return tenant_pass(workload, seed, run, tracer)
    try:
        for _ in range(2):
            passes.append(spans.Tracer())
            walls[True] += one_pass(passes[-1])
            walls[False] += one_pass(None)
    except Exception as exc:
        run.check(f"traced pass raised {exc!r}")
    same = all(signature(p) == signature(passes[0]) for p in passes[1:])
    run.check(None if same else
              "traced passes with the same seed counted different work")
    metrics, details = per_layer(passes, walls, run)
    details["counts_identical"] = same
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
    passes[0].write_jsonl(str(spans_path))
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    return run, metrics, details


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run, metrics, details = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    correct = run.failed == 0
    mode = "traced per-layer" if args.trace else "untraced end-to-end"
    print(f"{args.workload} seed={args.seed} {mode}: "
          f"{run.attempted} units attempted, {run.failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:16.6f} {unit}")
    print(f"  {'failed_frac':36s} {details['failed_frac']:16.6f} fraction")
    if not args.trace:
        print(f"  (tail = p{details['tail_percentile']:.2f} of "
              f"{details['samples']} samples; setup median of "
              f"{details['setups']}; raw host: p50 "
              f"{details['host_ms_p50']:.4f} ms, tail "
              f"{details['host_ms_tail']:.4f} ms, setup "
              f"{details['host_setup_s']:.6f} s)")
    for error in run.errors:
        print(f"  check failed: {error}")

    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  errors=run.errors, details=details)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
