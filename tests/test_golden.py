"""Every benchmark workload against the golden record in perfbench/golden.json.

Each workload's argvs run through ``cli.main`` at the recorded seed, with the
benchmark's common arguments, and every case's digest of (id, params, lhs,
rhs) and the sha256 of the whole stdout must match the record; this is the
check perfbench/one_pass.py makes after each timed pass.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import compident.identities as identities
from compident.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def case_digest(report) -> str:
    record = [report.identity_id, report.params, report.lhs, report.rhs]
    return hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN["workloads"]))
def test_workload_matches_golden_record(name, monkeypatch, capsys):
    reports = []
    verify_case = identities.verify_case

    def keep_report(*args, **kwargs):
        report = verify_case(*args, **kwargs)
        reports.append(report)
        return report

    monkeypatch.setattr(identities, "verify_case", keep_report)
    tail = workloads.COMMON_ARGS + ["--seed", str(GOLDEN["seed"])]
    exit_codes = [main(argv + tail) for argv in workloads.WORKLOADS[name]["argvs"]]
    stdout = capsys.readouterr().out
    recorded = GOLDEN["workloads"][name]
    assert exit_codes == [0] * len(exit_codes)
    assert [case_digest(r) for r in reports] == recorded["cases"]
    assert hashlib.sha256(stdout.encode()).hexdigest() == recorded["stdout_sha256"]
