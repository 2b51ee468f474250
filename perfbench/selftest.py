"""Self-test of the benchmark itself, on the sub-second ``smoke`` workload.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that every metric BENCHMARK.json
names is printed with its unit, that two traced runs repeat their call
counts and gcd hit ratio exactly, that a corrupted recorded digest makes
the run fail, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRATCH = Path(".bench_out") / "selftest"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(trace: int, script: Path = HERE / "run.py", cwd: Path = Path.cwd()):
    argv = [sys.executable, str(script.resolve()), "--workload", "smoke",
            "--seed", "1729", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_metrics(result: dict, lines: list[str], specs: list[dict], label: str) -> None:
    check(result is not None and result["correct"], f"{label}: smoke run not correct")
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    for spec in specs:
        entry = result["metrics"].get(spec["name"])
        check(entry is not None, f"{label}: metric {spec['name']} missing")
        check(entry["unit"] == spec["unit"], f"{label}: unit of {spec['name']} is {entry['unit']}")
        check(any(spec["name"] in line and line.endswith(" " + spec["unit"]) for line in lines),
              f"{label}: {spec['name']} not printed with its unit")
    check(any("fail_ratio" in line for line in lines), f"{label}: fail_ratio not printed")


def main() -> None:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())

    code, lines, result = bench(0)
    check(code == 0, "untraced smoke run exited non-zero")
    check_metrics(result, lines, benchmark["end_to_end"], "trace 0")

    traced = []
    for _ in range(2):
        code, lines, result = bench(1)
        check(code == 0, "traced smoke run exited non-zero")
        check_metrics(result, lines, benchmark["per_layer"], "trace 1")
        traced.append(result["metrics"])
    for name, entry in traced[0].items():
        if name.endswith(".calls") or name == "poly.poly_gcd.hit_ratio":
            check(entry["value"] == traced[1][name]["value"], f"{name} differs between traced runs")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    copy = SCRATCH / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    golden = json.loads((copy / "golden.json").read_text())
    digests = golden["workloads"]["smoke"]["cases"]
    digests[0] = "0" * len(digests[0])
    (copy / "golden.json").write_text(json.dumps(golden))
    code, _, result = bench(0, copy / "run.py")
    check(code != 0, "a corrupted digest did not fail the run")
    check(result is not None and not result["correct"] and result["failed"] >= 1,
          "a corrupted digest was not counted as a failed case")

    code, lines, _ = bench(0, copy / "run.py", cwd=SCRATCH)
    check(code != 0 and not any(line.startswith('{"correct"') for line in lines),
          "the benchmark ran without the program's sources")
    shutil.rmtree(SCRATCH)
    print("selftest: ok")


if __name__ == "__main__":
    main()
