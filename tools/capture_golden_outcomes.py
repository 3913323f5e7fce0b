"""Regenerate ``tests/sim/golden_outcomes.json``.

Runs every cell of :data:`repro.harness.determinism.OUTCOME_CELLS` on
the full link set and records its bit-exact iteration times and
outcome digest.  Unlike the event digests in ``golden_digests.json``,
these pin only what a user observes — the step's critical path — so a
change that thins the kernel's event schedule leaves them untouched.

A change to this file is a change to simulated results; regenerate
only after an intentional, reviewed model change:

    PYTHONPATH=src python tools/capture_golden_outcomes.py
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.harness.determinism import OUTCOME_CELLS, run_outcome_probe

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "tests" / "sim" / "golden_outcomes.json"


def capture() -> dict:
    outcomes = {}
    for cell in OUTCOME_CELLS:
        probe = run_outcome_probe(cell)
        outcomes[cell.key] = {
            "outcome_digest": probe.digest,
            "iteration_times_s": list(probe.iteration_times_s),
        }
        print(f"{cell.key}: {probe.digest}", file=sys.stderr)
    return outcomes


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
