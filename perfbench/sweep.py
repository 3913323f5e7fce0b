"""Run the benchmark over many seeds and summarise the spread.

    python3 perfbench/sweep.py --out perfbench/out/sweep [--seeds 1-10]
        [--workloads ring-256r,tenants-chaos] [--trace 0|1]
        [--checkout parent=../parent-copy --checkout change=.]

Runs ``BENCHMARK.json``'s command once per seed, workload and checkout,
one run at a time; with several checkouts the order alternates from seed
to seed, so that slow drift of the host hits both sides alike.  Each
result lands in ``OUT/<label>/<workload>/seed<N>.json``, the layout
``perfbench/compare.py`` reads.  The summary prints, per workload and
metric, the median, the quartiles and the spread (inter-quartile range
over median); an end-to-end metric whose spread reaches a third of its
bound is flagged ``WIDE``, and the exit code is 1 when any is or any
run failed.  The summary is also written to ``OUT/<label>/summary.json``.
Every run lasts ``run_seconds`` of ``BENCHMARK.json``, so every result
set compares with every other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import typing as t
from pathlib import Path

import stats
from compare import failures, load_benchmark, load_results, values

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: int, trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=checkout, capture_output=True,
                          text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_code": proc.returncode,
            "elapsed_s": time.perf_counter() - start,
            "result": result, "stderr": proc.stderr[-2000:]}


def summarise(directory: Path, metrics: list[dict]) -> dict:
    """``workload -> metric -> summary`` over every seed in ``directory``."""
    summary: dict[str, dict] = {}
    for workload, by_seed in load_results(directory).items():
        rows = {}
        for metric in metrics:
            found = list(values(by_seed, metric["name"]).values())
            q1, q2, q3 = stats.quartiles(found)
            rows[metric["name"]] = {
                "unit": metric["unit"], "median": q2, "q1": q1, "q3": q3,
                "spread": stats.spread(found), "runs": len(found)}
        units, runs = failures(by_seed)
        rows["failed"] = {"units": units, "runs": runs}
        summary[workload] = rows
    return summary


def print_summary(label: str, summary: dict, metrics: list[dict]) -> bool:
    """Print one checkout's summary; ``False`` if any spread is wide or
    any run failed."""
    steady = True
    bounds = {m["name"]: m.get("bound") for m in metrics}
    print(f"== {label}")
    for workload, rows in summary.items():
        failed = rows["failed"]
        steady = steady and failed["units"] == failed["runs"] == 0
        print(f"{workload:22s} failed units {failed['units']}, "
              f"failed runs {failed['runs']}")
        for name, row in rows.items():
            if name == "failed":
                continue
            bound = bounds[name]
            flag = ""
            if bound is not None:
                wide = row["spread"] >= bound / 3
                steady = steady and not wide
                flag = "WIDE" if wide else "ok"
            print(f"{workload:22s} {name:36s} {row['median']:14.6g} "
                  f"{row['unit']:14s} [{row['q1']:.6g}, {row['q3']:.6g}] "
                  f"spread {row['spread']:.4f}"
                  + (f" / bound {bound}" if bound is not None else "")
                  + f" {flag} (n={row['runs']})")
    return steady


def main(argv: t.Sequence[str] | None = None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", default=[],
                        metavar="LABEL=PATH")
    args = parser.parse_args(argv)
    checkouts = [(label, Path(path).resolve()) for label, _, path in
                 (c.partition("=") for c in args.checkout)] \
        or [("change", ROOT)]
    workloads = args.workloads.split(",")
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]

    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = checkouts if index % 2 == 0 else checkouts[::-1]
        for workload in workloads:
            for label, path in order:
                record = run_once(benchmark["command"], path, workload,
                                  seed, benchmark["run_seconds"],
                                  args.trace)
                target = args.out / label / workload / f"seed{seed}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(json.dumps(record, indent=2) + "\n")
                result = record["result"] or {}
                print(f"{label} {workload} seed {seed}: exit "
                      f"{record['exit_code']} in {record['elapsed_s']:.1f}s,"
                      f" correct={result.get('correct')}", flush=True)

    steady = True
    for label, _path in checkouts:
        summary = summarise(args.out / label, metrics)
        (args.out / label / "summary.json").write_text(
            json.dumps(summary, indent=2) + "\n")
        steady = print_summary(label, summary, metrics) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
