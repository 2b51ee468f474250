"""compident command-line frontend.

Four subcommands:

    verify        run identity suites exactly (one report line per suite)
    list          print the identity catalog
    table         print the Stirling triangle, Bernoulli numbers, or a
                  q-binomial coefficient vector
    compositions  enumerate every composition of k, one line each

Exit codes: 0 all cases pass, 1 at least one failing case, 2 usage or
domain errors (including enumeration-budget refusals), 3 internal errors
(any other exception, such as an inexact polynomial division or a
ZeroDivisionError inside an evaluator), reported as one line on stderr,
and 141 when the reader closes stdout early (`compident compositions 14 |
head -1`), with nothing on stderr.  A suite streams its cases: it keeps
two counts and the first failures, so its memory is that of the identity's
own tables, not of its grid.  A --a or --b pin that an --id identity does
not draw is noted on stderr and ignored.  JSON output
is the stable machine surface and is byte-identical across reruns with the
same arguments and seed; pass --timings to include each suite's wall-clock
time in it, as elapsed_ms and elapsed_us (off by default, precisely to keep
reruns byte-identical).  Exact
values and span bounds may have any number of digits: main lifts CPython's
int <-> str digit limit while it runs.  The COMPIDENT_BUDGET environment
variable lifts the k <= 20 enumeration cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .compositions import BudgetExceededError, enumerate_all_compositions
from .exact_arith import parse_rational
from .identities import (
    DEFAULT_SAMPLES,
    DomainError,
    SuiteReport,
    UnknownIdentityError,
    default_ranges,
    get_descriptor,
    list_identities,
    pair_rationals,
    verify_range,
)
from .poly import poly_to_json
from .stirling import rows as stirling_rows
from .symfun import DEFAULT_SEED, bernoulli, gaussian_binomial

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer cut off by `| head`

_SPAN_FLAGS = ("k", "n", "t", "x")

_JSON_SEPARATORS = (",", ":")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after.

    main builds it on its first call, not at import, and later main calls
    in the same process parse with the same object.  Nothing changes it
    once built: each parse_args call returns a new Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="compident",
        description="Exact verification of composition-generated combinatorial identities.",
        epilog="Environment: COMPIDENT_BUDGET overrides the k <= 20 enumeration cap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity suites exactly")
    verify.add_argument("--id", dest="identity_id", metavar="ID", help="identity to verify")
    verify.add_argument("--all", action="store_true", help="verify every identity at its default ranges")
    for flag in _SPAN_FLAGS:
        verify.add_argument(f"--{flag}", metavar="LO..HI", help=f"inclusive span for parameter {flag}")
    verify.add_argument("--a", metavar="P/Q", help="bind the pair parameter a explicitly")
    verify.add_argument("--b", metavar="P/Q", help="bind the pair parameter b explicitly")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="UINT",
                        help=f"seed for random rational bindings (default {DEFAULT_SEED})")
    verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, metavar="UINT",
                        help=f"number of random bindings per pair identity (default {DEFAULT_SAMPLES})")
    verify.add_argument("--jobs", type=int, default=1, metavar="UINT",
                        help="accepted for compatibility; cases run in order in one thread")
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.add_argument("--timings", action="store_true",
                        help="include wall-clock elapsed_ms and elapsed_us in JSON output "
                             "(breaks byte-identical reruns)")

    lister = sub.add_parser("list", help="print the identity catalog")
    lister.add_argument("--format", choices=("json", "text"), default="text")

    table = sub.add_parser("table", help="print exact tables")
    table.add_argument("name", choices=("stirling", "bernoulli", "gaussian"))
    table.add_argument("--n", type=int, metavar="N", help="row count (stirling) or top index (gaussian)")
    table.add_argument("--k", type=int, metavar="K", help="lower index (gaussian)")
    table.add_argument("--max", type=int, metavar="M", help="largest index (bernoulli)")
    table.add_argument("--format", choices=("json", "text"), default="text")

    comps = sub.add_parser("compositions", help="list every composition of k, one per line")
    comps.add_argument("k", type=int)
    return parser


def _parse_span(text: str, flag: str) -> tuple[int, int]:
    raw = text.strip()
    if ".." in raw:
        lo_text, hi_text = raw.split("..", 1)
    else:
        lo_text = hi_text = raw
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise DomainError(f"--{flag}: expected LO..HI or a single integer, got {text!r}") from None
    if lo > hi:
        raise DomainError(f"--{flag}: empty span {text!r}")
    return lo, hi


def _ranges_for(identity_id: str, overrides: dict[str, tuple[int, int]], samples: int):
    if not overrides:
        return None  # verify_range falls back to the identity's defaults
    defaults = default_ranges(identity_id, samples=samples)
    template = next(
        (grid for grid in defaults if all(name in grid for name in overrides)), None
    )
    if template is None:
        # e.g. eq29's only default grid is polynomial mode; --n selects its pointwise mode
        names = ", ".join(sorted(set(overrides) - set(get_descriptor(identity_id).params)))
        if names:
            raise DomainError(f"{identity_id}: range flag(s) {names} do not apply to this identity")
        template = defaults[0]
    merged = dict(template)
    merged.update(overrides)
    return (merged,)


def _emit_suite(report: SuiteReport, fmt: str, timings: bool) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json(include_timings=timings), separators=_JSON_SEPARATORS))
        return
    status = "ok" if report.passed else "FAIL"
    print(
        f"{report.identity_id}: {status} cases={report.cases_total} "
        f"failed={report.cases_failed} elapsed={report.elapsed_ms}ms"
    )
    for case in report.first_failures:
        bound = " ".join(f"{k}={v}" for k, v in case.params.items())
        print(f"  FAIL {bound}: lhs={case.lhs} rhs={case.rhs}")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all == bool(args.identity_id):
        raise DomainError("verify needs exactly one of --id or --all")
    overrides = {
        flag: _parse_span(getattr(args, flag), flag)
        for flag in _SPAN_FLAGS
        if getattr(args, flag) is not None
    }
    if args.all and overrides:
        raise DomainError("range flags require --id (defaults are per identity)")
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    if args.samples < 1:
        raise DomainError(f"--samples must be >= 1, got {args.samples}")
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    a = parse_rational(args.a) if args.a is not None else None
    b = parse_rational(args.b) if args.b is not None else None
    pinned = {"a": a, "b": b}
    ids = [args.identity_id] if args.identity_id else [d.id for d in list_identities()]
    exit_code = EXIT_OK
    for identity_id in ids:
        # fails fast on unknown ids.  Once every rational the identity draws is
        # pinned, further samples would repeat the first (no draws: no samples).
        drawn = pair_rationals(identity_id)
        ignored = [f"--{name}" for name, value in pinned.items()
                   if value is not None and name not in drawn]
        if ignored and args.identity_id:  # under --all a pin applies where it is drawn
            print(f"compident: note: {identity_id} does not draw {', '.join(ignored)}; ignored",
                  file=sys.stderr)
        samples = 1 if all(pinned[name] is not None for name in drawn) else args.samples
        ranges = _ranges_for(identity_id, overrides, samples)
        report = verify_range(
            identity_id,
            ranges,
            seed=args.seed,
            samples=samples,
            a=a,
            b=b,
        )
        _emit_suite(report, args.format, args.timings)
        if not report.passed:
            exit_code = EXIT_FAILURES
    return exit_code


def _cmd_list(args: argparse.Namespace) -> int:
    for descriptor in list_identities():
        if args.format == "json":
            print(json.dumps(descriptor._asdict(), separators=_JSON_SEPARATORS))
        else:
            print(
                f"{descriptor.id}: {descriptor.statement} "
                f"[ring={descriptor.ring}; params={','.join(descriptor.params)}; "
                f"modes={','.join(descriptor.modes)}; domain: {descriptor.domain}]"
            )
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    fmt = args.format
    if args.name == "stirling":
        if args.n is None or args.n < 1:
            raise DomainError("table stirling requires --n N with N >= 1")
        # one row at a time: the whole table is 27 MB of text at n = 400
        rows = (list(map(str, row)) for row in stirling_rows(args.n))
        if fmt == "json":
            write = sys.stdout.write
            write(f'{{"table":"stirling","n":{args.n},"rows":[')
            for m, row in enumerate(rows):
                write(("," if m else "") + json.dumps(row, separators=_JSON_SEPARATORS))
            write("]}\n")
        else:
            for row in rows:
                print(" ".join(row))
        return EXIT_OK
    if args.name == "bernoulli":
        if args.max is None or args.max < 0:
            raise DomainError("table bernoulli requires --max M with M >= 0")
        values = [str(bernoulli(m)) for m in range(args.max + 1)]
        if fmt == "json":
            print(json.dumps({"table": "bernoulli", "max": args.max, "values": values},
                             separators=_JSON_SEPARATORS))
        else:
            for m, value in enumerate(values):
                print(f"B_{m} = {value}")
        return EXIT_OK
    if args.name == "gaussian":
        if args.n is None or args.k is None or args.n < 0 or args.k < 0:
            raise DomainError("table gaussian requires --n N and --k K with N, K >= 0")
        coeffs = poly_to_json(gaussian_binomial(args.n, args.k))
        if fmt == "json":
            print(json.dumps({"table": "gaussian", "n": args.n, "k": args.k, "coeffs": coeffs},
                             separators=_JSON_SEPARATORS))
        else:
            print(" ".join(coeffs) if coeffs else "0")
        return EXIT_OK
    raise DomainError(f"unknown table {args.name!r}")


def _cmd_compositions(args: argparse.Namespace) -> int:
    for parts in enumerate_all_compositions(args.k):
        print(",".join(map(str, parts)))
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "list": _cmd_list,
    "table": _cmd_table,
    "compositions": _cmd_compositions,
}


def _discard_stdout() -> None:
    # what stdout still buffers would break the pipe again in the
    # interpreter's exit flush; send it to devnull instead
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; return its exit code.

    The parser is built on the first call and reused by later calls in the
    same process (see build_parser), so an embedder that calls main many
    times pays for it once.
    """
    # Exact values and span bounds can pass the 4300-digit limit that CPython
    # 3.10.7+ puts on int <-> str conversion: lift it for this run only, so an
    # in-process caller gets its own limit back.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe breaks here, not in the exit flush
        return code
    except BrokenPipeError:
        # the reader stopped reading (`| head`): not a fault, and nothing to say
        _discard_stdout()
        return EXIT_CLOSED_PIPE
    except (DomainError, UnknownIdentityError, BudgetExceededError) as exc:
        print(f"compident: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # user input raises the classes above; this is a fault
        print(f"compident: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
