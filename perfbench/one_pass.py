"""One cold pass of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/one_pass.py MODE WORKLOAD SEED

MODE is ``setup`` (import the CLI and build the registry, then stop),
``run`` (drive every argv of the workload through ``compident.cli.main``)
or ``trace`` (the same with perfbench/tracer.py's wrappers installed).
Times are CLOCK_MONOTONIC readings, which run.py compares with the reading
it took just before spawning this process.  After the timed region the
pass digests what it produced and prints one JSON object on stdout.
"""

import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    mode, workload_name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])

    import compident.cli  # importing the CLI builds the identity registry

    t_setup = _now()
    if mode == "setup":
        print(f'{{"t_setup": {t_setup!r}}}')
        return 0

    import contextlib
    import io
    import resource

    import compident.identities
    from workloads import COMMON_ARGS, WORKLOADS

    argvs = [argv + COMMON_ARGS + ["--seed", str(seed)]
             for argv in WORKLOADS[workload_name]["argvs"]]

    reports = []
    verify_case = compident.identities.verify_case

    def keep_report(*args, **kwargs):
        report = verify_case(*args, **kwargs)
        reports.append(report)
        return report

    compident.identities.verify_case = keep_report
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    exit_codes, stdout_parts = [], []
    for argv in argvs:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exit_codes.append(compident.cli.main(argv))
        stdout_parts.append(buffer.getvalue())
    t_end = _now()
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

    import hashlib
    import json
    from pathlib import Path

    stdout = "".join(stdout_parts)
    result = {
        "t_setup": t_setup,
        "t_end": t_end,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
        "max_rss_kb": max(u.ru_maxrss for u in usage),
        "exit_codes": exit_codes,
        "stdout": stdout,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        # first 64 bits of the sha256 of each case's (id, params, lhs, rhs)
        "case_digests": [
            hashlib.sha256(
                json.dumps([r.identity_id, r.params, r.lhs, r.rhs], separators=(",", ":")).encode()
            ).hexdigest()[:16]
            for r in reports
        ],
        "case_failed": [i for i, r in enumerate(reports) if not r.passed],
    }
    if tracer is not None:
        suite_ids = [d.id for d in compident.identities.list_identities()]
        result["layers"] = tracer.metrics(suite_ids)
        out_dir = Path(".bench_out")
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload_name}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
