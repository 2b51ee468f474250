"""Record perfbench/golden.json: every case's digest at the golden seed.

    python3 perfbench/record_golden.py

Run from the repository root, only when the program's output is meant to
change; the benchmark compares every pass at that seed against this file.
"""

import json

from run import HERE, spawn
from workloads import GOLDEN_SEED, WORKLOADS


def main() -> None:
    recorded = {}
    for name in WORKLOADS:
        ((_, report),) = spawn(["run"], name, GOLDEN_SEED)
        if report["case_failed"] or any(report["exit_codes"]):
            raise SystemExit(f"{name}: failing cases at seed {GOLDEN_SEED}; not recording")
        recorded[name] = {"stdout_sha256": report["stdout_sha256"], "cases": report["case_digests"]}
    golden = {"seed": GOLDEN_SEED, "workloads": recorded}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0) + "\n")


if __name__ == "__main__":
    main()
