"""compident benchmark: time-to-verdict of ``compident verify`` per workload.

    python3 perfbench/run.py --workload catalog --seed 1729 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all                  # every workload, one table

Run it from the repository root.  Every pass is a fresh interpreter
(perfbench/one_pass.py), because every CLI run starts cold; the pass drives
the workload's argvs through ``compident.cli.main`` with ``--jobs 1``.
Passes run two at a time, one per CPU, until ``--seconds`` is used up, and
every metric is the median over passes (``setup_s`` also over SETUP_SPAWNS
extra cold starts).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs an untraced and a traced pass side by side and reports
the per-layer metrics from perfbench/tracer.py plus the tracing overhead.
Per-pass figures go to .bench_out/.

Every pass is checked after its timing stops: suite ids and case counts,
every verdict, the sha256 of stdout, and, at the seed golden.json was
recorded with, the digest of every case's (id, params, lhs, rhs).  Any
mismatch counts as a failed case; the last stdout line is then
``"correct": false`` and the exit code 1.  Lines before the last one give
the environment and every metric with its unit, fail_ratio included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GOLDEN_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK_WORKLOADS = ("catalog", "transform_deep", "poly_in_n")
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "cases_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
}
# Extra cold starts per run that only import the CLI, so setup_s is a
# median over enough samples even when a workload fits few passes.
SETUP_SPAWNS = 9
PASS_TIMEOUT_S = 150
# Passes run side by side, one per CPU (at most two): on a shared VM each
# CPU slows down for seconds at a time, often while the other does not, and
# the two passes were measured not to slow each other.
STREAMS = min(2, len(os.sched_getaffinity(0)))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".cache_entries", ".case_samples", ".k_max")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bits"):
        return "bits"
    return "s"


def environment(seed: int) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg": read("/proc/loadavg").split()[:3],
        "git_commit": git_commit(Path.cwd()),
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(modes: list[str], workload: str, seed: int) -> list[tuple[float, dict]]:
    """Run one pass per mode, side by side, each in a fresh interpreter;
    return every pass's spawn time and report."""
    env = dict(os.environ)
    env.pop("COMPIDENT_BUDGET", None)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every pass
    started = []
    try:
        for mode in modes:
            argv = [sys.executable, str(HERE / "one_pass.py"), mode, workload, str(seed)]
            started.append((mode, _now(), subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)))
        reports = []
        for mode, t_spawn, proc in started:
            out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"{mode} pass of {workload} exited with {proc.returncode}")
            reports.append((t_spawn, json.loads(out)))
        return reports
    finally:
        for _, _, proc in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def count_failures(report: dict, workload: str, seed: int, golden: dict) -> int:
    """Failed checks of one pass: failing or mis-digested cases, missing or
    extra cases per suite, and a stdout digest mismatch."""
    spec = WORKLOADS[workload]
    bad_cases = set(report["case_failed"])
    suites = []
    for line in report["stdout"].splitlines():
        try:
            suites.append(json.loads(line))
        except json.JSONDecodeError:
            suites.append({})
    count_errors = sum(suite.get("cases", 0) for suite in suites[len(spec["suites"]):])
    for i, (suite_id, cases) in enumerate(spec["suites"]):
        got = suites[i] if i < len(suites) else {}
        count_errors += abs(got.get("cases", 0) - cases) if got.get("id") == suite_id else cases
    count_errors = max(count_errors, abs(len(report["case_digests"]) - spec["cases"]))
    recorded = golden[workload]
    if seed == GOLDEN_SEED:
        bad_cases.update(i for i, (got, want) in enumerate(zip(report["case_digests"], recorded["cases"]))
                         if got != want)
    failed = len(bad_cases) + count_errors + (report["stdout_sha256"] != recorded["stdout_sha256"])
    if failed == 0 and any(report["exit_codes"]):
        failed = 1
    return min(failed, spec["cases"])


def pass_metrics(t_spawn: float, report: dict, cases: int) -> dict[str, float]:
    return {
        "wall_s": report["t_end"] - t_spawn,
        "setup_s": report["t_setup"] - t_spawn,
        "cases_per_s": cases / (report["t_end"] - report["t_setup"]),
        "cpu_s": report["cpu_s"],
        "peak_rss_mb": report["max_rss_kb"] / 1024,
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for about ``seconds``; return metrics and raw passes."""
    golden = json.loads((HERE / "golden.json").read_text())["workloads"]
    cases = WORKLOADS[workload]["cases"]
    spawn(["setup"], workload, seed)  # writes __pycache__ before anything is timed
    passes: dict[str, list[dict]] = {"run": [], "trace": []}
    layers: list[dict] = []
    attempted = failed = 0
    modes = ["run", "trace"] if trace else ["run"] * STREAMS
    batches = [modes[i:i + STREAMS] for i in range(0, len(modes), STREAMS)]
    deadline = _now() + seconds
    while True:
        unit_start = _now()
        for batch in batches:
            for mode, (t_spawn, report) in zip(batch, spawn(batch, workload, seed)):
                attempted += cases
                failed += count_failures(report, workload, seed, golden)
                passes[mode].append(pass_metrics(t_spawn, report, cases))
                if mode == "trace":
                    layers.append(report["layers"])
        now = _now()
        if now + (now - unit_start) > deadline:
            break
    setups = [p["setup_s"] for p in passes["run"] + passes["trace"]]
    for _ in range(SETUP_SPAWNS):
        ((t_spawn, report),) = spawn(["setup"], workload, seed)
        setups.append(report["t_setup"] - t_spawn)

    untraced = medians(passes["run"])
    untraced["setup_s"] = statistics.median(setups)
    if trace:
        metrics = medians(layers)
        metrics["trace.overhead_s"] = medians(passes["trace"])["wall_s"] - untraced["wall_s"]
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, units = untraced, END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "passes": passes,
        "setup_s": setups,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (Path.cwd() / "src" / "compident" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/compident is missing", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print(json.dumps({"env": env}))
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}

    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    for name, result in results.items():
        record = {"workload": name, "trace": args.trace, "seconds": args.seconds, "env": env, **result}
        (out_dir / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        fail_ratio = result["failed"] / result["attempted"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<15} {metric:<45} {entry['value']:>14.6f} {entry['unit']}")
        print(f"{name:<15} {'fail_ratio':<45} {fail_ratio:>14.6f} ratio")

    if len(results) == 1:
        (result,) = results.values()
        summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
