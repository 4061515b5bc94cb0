"""Regenerate reference.json, the sum-SE values the benchmark checks against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change is meant to move results; the ROADMAP allows
round-off drift alone, which the benchmark tolerates at 1e-9 relative.
Values are for the reference seed: per-(scheme, T) mean sum-SE of the desk
sweep and per-(drop, scheme) sum-SE of the first LARGE_DROPS large drops.
"""

import json
from pathlib import Path

import workloads
from run import REFERENCE_SEED

HERE = Path(__file__).resolve().parent

LARGE_DROPS = {"full": 96, "smoke": 4}


def build(smoke: bool, out_root: Path) -> dict:
    outcome = workloads.Outcome()
    desk = workloads.make("desk-sweep", REFERENCE_SEED, smoke, out_root)
    desk.iteration(0, outcome)
    desk.cleanup()
    large = workloads.make("large-drop", REFERENCE_SEED, smoke, out_root)
    for index in range(LARGE_DROPS["smoke" if smoke else "full"]):
        large.iteration(index, outcome)
    if outcome.messages:
        raise SystemExit("\n".join(outcome.messages))
    return {"seed": REFERENCE_SEED, "desk-sweep": desk.reference_values(),
            "large-drop": large.reference_values()}


def main():
    out_root = HERE.parent / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    ref = {"full": build(False, out_root), "smoke": build(True, out_root)}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
