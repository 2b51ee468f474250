"""Span tracer that wraps compident's layers from outside the package.

Each wrapper replaces the name a caller actually looks up (a module global
or a class attribute), so the program itself stays untouched.  A span is
(name, start, end, parent); spans live in flat arrays while the pass runs
and are turned into per-layer metrics only after timing has stopped.

A span belongs to a metric group.  A group's ``calls`` and ``s`` count
only spans with no ancestor in the same group (``Polynomial.__rsub__``
calling ``__sub__`` is one subtraction), while ``self_s`` sums every
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import time
from array import array
from fractions import Fraction
from typing import Any, Callable

import compident.cli
import compident.identities
import compident.poly
import compident.symfun
from compident.poly import Polynomial, RationalFunction

_CHECKS = ("check_eq18", "check_eq19", "check_eq31", "check_eq41", "stirling1")

# (owner, attribute, metric group).  The owner is the namespace the caller
# reads the name from: identities imports most layers by name, RationalFunction
# looks poly_gcd up in compident.poly, pair_terms looks gaussian_binomial up
# in compident.symfun, and the CLI looks verify_range up in compident.cli.
WRAPPED: tuple[tuple[Any, str, str], ...] = (
    (compident.cli, "main", "cli.main"),
    (compident.cli, "verify_range", "identities.suite"),
    (compident.identities, "verify_case", "identities.verify_case"),
    (compident.identities, "composition_transform", "compositions.composition_transform"),
    (compident.identities, "pair_terms", "symfun.pair_terms"),
    (compident.identities, "h_from_e_conv", "symfun.h_from_e_conv"),
    (compident.identities, "h_from_e_det", "symfun.h_from_e_det"),
    (compident.symfun, "gaussian_binomial", "symfun.gaussian_binomial"),
    *((compident.identities, name, "stirling.checks") for name in _CHECKS),
    (compident.identities, "poly_binomial", "poly.poly_binomial"),
    (compident.poly, "poly_gcd", "poly.poly_gcd"),
    *((Polynomial, name, "poly.Polynomial.mul") for name in ("__mul__", "__rmul__")),
    *((Polynomial, name, "poly.Polynomial.addsub")
      for name in ("__add__", "__radd__", "__sub__", "__rsub__")),
    *((Polynomial, name, "poly.Polynomial.divmod")
      for name in ("__divmod__", "__floordiv__", "__mod__")),
    *((RationalFunction, name, "poly.RationalFunction.add")
      for name in ("__add__", "__radd__", "__sub__", "__rsub__")),
    *((RationalFunction, name, "poly.RationalFunction.mul")
      for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__")),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group in WRAPPED))

# Groups reported as {calls, s}; the rest get the fields named below.
_CALLS_AND_S = (
    "poly.RationalFunction.add",
    "poly.RationalFunction.mul",
    "poly.Polynomial.divmod",
    "poly.Polynomial.mul",
    "poly.Polynomial.addsub",
    "poly.poly_binomial",
    "symfun.pair_terms",
    "symfun.gaussian_binomial",
    "stirling.checks",
)


def _owner_name(owner: Any) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def coeff_bits(value: Any) -> int:
    """Largest numerator or denominator bit length inside an exact value."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, Polynomial):
        return max((coeff_bits(c) for c in value.coeffs), default=0)
    if isinstance(value, RationalFunction):
        return max(coeff_bits(value.num), coeff_bits(value.den))
    if isinstance(value, (tuple, list)):
        return max((coeff_bits(v) for v in value), default=0)
    raise TypeError(f"no coefficient size for {type(value).__name__}")


class Tracer:
    """Installs the wrappers and holds the spans of one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.groups: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.suite_ids: list[str] = []
        self.k_max = 0
        self.max_coeff_bits = 0
        self.gcd_trivial = 0
        self._gcd_cache = compident.poly.poly_gcd
        self._gcd_info_before = self._gcd_cache.cache_info()

    def install(self) -> None:
        """Replace every name in WRAPPED; raise if one no longer exists."""
        observers: dict[str, Callable[[tuple, Any], None]] = {
            "verify_range": self._observe_suite,
            "composition_transform": self._observe_transform,
            "poly_binomial": self._observe_bits,
            "poly_gcd": self._observe_gcd,
        }
        for owner, attr, group in WRAPPED:
            namespace = vars(owner)
            if attr not in namespace or not callable(namespace[attr]):
                raise RuntimeError(
                    f"traced name {_owner_name(owner)}.{attr} no longer exists; "
                    "update perfbench/tracer.py"
                )
            name = f"{_owner_name(owner)}.{attr}"
            setattr(owner, attr, self._wrap(namespace[attr], name, group, observers.get(attr)))

    def _wrap(self, fn: Callable, name: str, group: str, observe) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        self.groups.append(GROUPS.index(group))
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_suite(self, args: tuple, result: Any) -> None:
        self.suite_ids.append(args[0])

    def _observe_transform(self, args: tuple, result: Any) -> None:
        self.k_max = max(self.k_max, args[1])
        self._observe_bits(args, result)

    def _observe_bits(self, args: tuple, result: Any) -> None:
        self.max_coeff_bits = max(self.max_coeff_bits, coeff_bits(result))

    def _observe_gcd(self, args: tuple, result: Polynomial) -> None:
        if result.degree <= 0:
            self.gcd_trivial += 1

    def write_spans(self, path) -> None:
        """Write one span per line: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for name_id, start, end, parent in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                out.write(f"{names[name_id]}\t{start}\t{end}\t{parent}\n")

    def metrics(self, suite_ids: list[str]) -> dict[str, float]:
        """Per-layer metrics of the pass.  ``suite_ids`` names every
        registered suite, so each workload reports the same metric names
        (0 for the suites it does not run)."""
        count = len(self.span_name)
        group_of = [self.groups[n] for n in self.span_name]
        parents = self.span_parent
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        covered = [0] * count
        ancestors = [0] * count  # bit g set: some ancestor is in group g
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += duration[i]
                ancestors[i] = ancestors[parent] | (1 << group_of[parent])

        calls = [0] * len(GROUPS)
        inclusive = [0] * len(GROUPS)
        self_ns = [0] * len(GROUPS)
        case_ns: list[int] = []
        suite_ns = dict.fromkeys(suite_ids, 0)
        suites = iter(self.suite_ids)
        suite_group = GROUPS.index("identities.suite")
        case_group = GROUPS.index("identities.verify_case")
        for i in range(count):
            group = group_of[i]
            self_ns[group] += duration[i] - covered[i]
            if ancestors[i] >> group & 1:
                continue
            calls[group] += 1
            inclusive[group] += duration[i]
            if group == case_group:
                case_ns.append(duration[i])
            elif group == suite_group:
                suite_ns[next(suites)] += duration[i]

        def field(group: str, kind: str) -> float:
            g = GROUPS.index(group)
            if kind == "calls":
                return calls[g]
            return (inclusive[g] if kind == "s" else self_ns[g]) / 1e9

        out: dict[str, float] = {
            "cli.main.s": field("cli.main", "s"),
            "cli.self_s": field("cli.main", "self_s"),
            "identities.verify_case.calls": field("identities.verify_case", "calls"),
            "identities.verify_case.self_s": field("identities.verify_case", "self_s"),
        }
        out.update(case_percentiles(case_ns))
        out.update({f"identities.suite_s.{sid}": ns / 1e9 for sid, ns in suite_ns.items()})
        for kind in ("calls", "s", "self_s"):
            out[f"compositions.composition_transform.{kind}"] = field(
                "compositions.composition_transform", kind
            )
        out["compositions.composition_transform.k_max"] = self.k_max
        for group in _CALLS_AND_S:
            out[f"{group}.calls"] = field(group, "calls")
            out[f"{group}.s"] = field(group, "s")
        after = self._gcd_cache.cache_info()
        before = self._gcd_info_before
        hits, misses = after.hits - before.hits, after.misses - before.misses
        gcd_calls = field("poly.poly_gcd", "calls")
        out.update({
            "poly.poly_gcd.calls": gcd_calls,
            "poly.poly_gcd.s": field("poly.poly_gcd", "s"),
            "poly.poly_gcd.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "poly.poly_gcd.trivial_ratio": self.gcd_trivial / gcd_calls if gcd_calls else 0.0,
            "poly.poly_gcd.cache_entries": after.currsize,
            "poly.max_coeff_bits": self.max_coeff_bits,
            "symfun.h_from_e_conv.s": field("symfun.h_from_e_conv", "s"),
            "symfun.h_from_e_det.s": field("symfun.h_from_e_det", "s"),
        })
        return out


def case_percentiles(case_ns: list[int]) -> dict[str, float]:
    """Median and tail case time; the tail is the highest of p99.9, p99 and
    p90 with at least ten cases beyond it (p50 for tiny samples)."""
    ordered = sorted(case_ns)
    n = len(ordered)

    def nearest_rank(pct: float) -> float:
        if not ordered:
            return 0.0
        rank = max(1, -(-int(pct * 10) * n // 1000))  # ceil(pct/100 * n)
        return ordered[rank - 1] / 1e6

    tail = next((p for p in (99.9, 99.0, 90.0) if n * (100 - p) / 100 >= 10), 50.0)
    return {
        "identities.case_p50_ms": nearest_rank(50.0),
        "identities.case_tail_ms": nearest_rank(tail),
        "identities.case_tail_pct": tail,
        "identities.case_samples": n,
    }
