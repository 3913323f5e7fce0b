"""Compare two result sets (parent and change) workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>/seed<N>.json`` files written by
``perfbench/sweep.py``.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the pairs
(same seed on both sides) the change won, and a verdict:

- ``failed``: a change run failed an output check (``correct`` false or
  no result at all), or the change failed more units than the parent;
  no gain counts then;
- ``improved``: the change wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ, in the change's favour, by
  more than the parent's inter-quartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: the parent's own spread is wider than the bound, and
  not every change run beats every parent run;
- ``unchanged``: none of the above.

Each workload's line also gives both sides' failed units and failed
runs.  Exits 1 when any metric is ``worse`` or ``failed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing as t
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
NO_RESULT = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def load_results(directory: Path) -> dict[str, dict[int, dict]]:
    """``workload -> seed -> result`` of every run in ``directory``.

    A result has ``correct``, ``attempted``, ``failed`` and ``metrics``;
    a run that printed none is kept as an incorrect run without metrics.
    """
    results: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*/seed*.json")):
        record = json.loads(path.read_text())
        result = record.get("result")
        if result is None:
            print(f"warning: {path} holds no result", file=sys.stderr)
            result = NO_RESULT
        results.setdefault(path.parent.name, {})[record["seed"]] = result
    return results


def values(runs: dict[int, dict], metric: str) -> dict[int, float]:
    """``seed -> value`` of ``metric`` over the runs that report it."""
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()
            if metric in r["metrics"]}


def failures(runs: dict[int, dict]) -> tuple[int, int]:
    """``(failed units, incorrect runs)`` over ``runs``."""
    return (sum(r["failed"] for r in runs.values()),
            sum(not r["correct"] for r in runs.values()))


def verdict(parent: dict[int, float], change: dict[int, float],
            better: str, bound: float, change_failed: bool
            ) -> tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for one metric on one workload.

    ``change_failed`` says a change run failed or the change failed more
    units than the parent.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in pairs)
    if change_failed or not change:
        return "failed", wins, len(pairs)
    p_q1, p_med, p_q3 = stats.quartiles(list(parent.values()))
    _c_q1, c_med, _c_q3 = stats.quartiles(list(change.values()))
    gain = sign * (c_med - p_med)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return "improved", wins, len(pairs)
    if -gain > bound * abs(p_med):
        return "worse", wins, len(pairs)
    every_better = all(sign * (c - p) > 0 for c in change.values()
                       for p in parent.values())
    if stats.spread(list(parent.values())) > bound and not every_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(parent_dir: Path, change_dir: Path,
            out: t.TextIO = sys.stdout) -> bool:
    """Print the comparison; ``False`` when anything got worse or failed."""
    benchmark = load_benchmark()
    parent, change = load_results(parent_dir), load_results(change_dir)
    ok = True
    header = (f"{'workload':22s} {'metric':22s} {'parent q1/median/q3':>36s}"
              f" {'change q1/median/q3':>36s} {'wins':>7s}  verdict")
    print(header, file=out)
    for workload in benchmark["workloads"]:
        name = workload["name"]
        if name not in parent or name not in change:
            print(f"{name:22s} (missing on one side)", file=out)
            continue
        p_units, p_runs = failures(parent[name])
        c_units, c_runs = failures(change[name])
        change_failed = c_runs > 0 or c_units > p_units
        print(f"{name:22s} failed units/runs: parent {p_units}/{p_runs}, "
              f"change {c_units}/{c_runs}", file=out)
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            p = values(parent[name], key)
            c = values(change[name], key)
            if not p:
                print(f"{name:22s} {key:22s} (no parent value)", file=out)
                continue
            result, wins, pairs = verdict(p, c, metric["better"],
                                          metric["bound"], change_failed)
            ok = ok and result not in ("worse", "failed")
            cells = ["/".join(f"{v:.5g}" for v in stats.quartiles(
                list(side.values()))) for side in (p, c)]
            print(f"{name:22s} {key:22s} {cells[0]:>36s} {cells[1]:>36s} "
                  f"{wins:>3d}/{pairs:<3d}  {result}", file=out)
    return ok


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return 0 if compare(args.parent, args.change) else 1


if __name__ == "__main__":
    sys.exit(main())
