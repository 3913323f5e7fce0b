"""Regenerate ``tests/sim/golden_digests.json``.

Runs every invariant-checked cell of the determinism matrix through
:func:`repro.harness.determinism.run_probe` and records the resulting
event-sequence digests.  The golden file pins the simulator's observable
event schedule: any hot-path rewrite that shifts an event time or name
by even one ulp fails ``tests/sim/test_determinism_matrix.py``.

Only regenerate after an *intentional*, reviewed behaviour change:

    PYTHONPATH=src python tools/capture_golden_digests.py
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.harness.determinism import probe_key, run_probe

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "tests" / "sim" / "golden_digests.json"

#: The invariant-checked matrix cells that get pinned digests.
GOLDEN_CELLS: tuple[dict, ...] = tuple(
    {"ranks": ranks, "streams": streams, "faults": faults,
     "invariants": True, "seed": 0}
    for ranks in (2, 8, 32)
    for streams in (1, 4)
    for faults in (False, True)
) + (
    # Planner-backend cell (in-network aggregation schedule).
    {"ranks": 8, "streams": 4, "faults": False, "invariants": True,
     "seed": 0, "algorithm": "ina"},
    # Large-scale cell: 1024 ranks pins the bundled-fan-out tier
    # (GroupFlow solver entities, pooled wakeups) at the scale the
    # flow-bundling work targets.  Symmetric, so it runs in
    # representative mode — cheap enough for the test matrix while
    # still covering the 128-node schedule's event stream.
    {"ranks": 1024, "streams": 4, "faults": False, "invariants": True,
     "seed": 0},
)


def capture() -> dict:
    digests = {}
    for cell in GOLDEN_CELLS:
        probe = run_probe(**cell)
        assert probe.digest is not None
        digests[probe_key(**cell)] = {
            "digest": probe.digest,
            "iteration_times_s": list(probe.iteration_times_s),
        }
        print(f"{probe.key}: {probe.digest}", file=sys.stderr)
    return digests


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
