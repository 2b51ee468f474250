"""The lock-free memo caches of symfun and stirling under concurrent callers.

bernoulli, phi, cyclotomic and stirling's shared rows rebind a module
global to a new value that is never mutated; gaussian_binomial is an
lru_cache (maxsize 1024).  Library callers may share them across threads,
so four threads fill them from empty at the same time, with the interpreter
switching threads as often as it can, and each thread's values must equal a
single-threaded recomputation.  poly_binomial, which keeps no state, runs
alongside them.

A suite keeps its falling rows in a table of its own, set in a context
variable for the one verify_range call.  Four threads run polynomial-mode
suites at once the same way, and each must make the same rows, build the
same ones from scratch and report the same as a single-threaded run.
"""

import sys
import threading
from collections import defaultdict
from fractions import Fraction

from compident import poly, stirling, symfun
from compident.identities import verify_range
from compident.poly import Polynomial, poly_binomial
from compident.stirling import stirling1
from compident.symfun import bernoulli, cyclotomic, gaussian_binomial, phi

THREADS = 4


def _reset_caches(monkeypatch):
    monkeypatch.setattr(symfun, "_bernoulli_cache", (Fraction(1),))
    monkeypatch.setattr(symfun, "_phi_cache", (Polynomial((1,)),))
    monkeypatch.setattr(symfun, "_cyclotomic_cache", ())
    monkeypatch.setattr(stirling, "_rows", ((1,),))
    gaussian_binomial.cache_clear()


def _compute():
    return (
        [bernoulli(m) for m in range(121)],
        [phi(k) for k in range(41)],
        [gaussian_binomial(n, k) for n in range(21) for k in range(n + 1)],
        [cyclotomic(d) for d in range(1, 41)],
        # C(i x, k) and C(x + k - 1, k): the (0, 1, k) and (k - 1, 1, k) rows
        [poly_binomial(Polynomial((c, i)), k)
         for k in range(1, 31) for c in (0, k - 1) for i in (1, 2)],
        # eq29's C(i (x - 1), k): the (-i, 1, k) rows
        [poly_binomial(Polynomial((-i, i)), k) for k in range(2, 25) for i in range(1, k + 1)],
        # stirling's rows grow from s(0, .) to s(100, .), one row per new n
        [stirling1(n, t) for n in range(1, 101) for t in range(1, n + 1)],
    )


def test_memo_caches_agree_across_threads(monkeypatch):
    _reset_caches(monkeypatch)
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS
    errors = []

    def work(slot):
        try:
            barrier.wait()
            results[slot] = _compute()
        except BaseException as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(slot,)) for slot in range(THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)

    assert errors == []
    assert len(stirling._rows) > 100  # grown past row 100 by the threads
    _reset_caches(monkeypatch)
    expected = _compute()
    for got in results:
        assert got == expected


ROW_SUITES = [("eq29", {"k": (2, 24)}), ("eq47", {"k": (1, 30)})]


def test_suites_keep_their_rows_apart_across_threads(monkeypatch):
    made = defaultdict(list)  # thread -> each row it made, and "scratch" if built from scratch
    built, expanded = poly._built_row, poly._expanded_row

    def recorded_build(c, d, k):
        row = built(c, d, k)
        made[threading.get_ident()].append((c, d, k, tuple(row)))
        return row

    def recorded_scratch(c, d, k):
        made[threading.get_ident()].append("scratch")
        return expanded(c, d, k)

    monkeypatch.setattr(poly, "_built_row", recorded_build)
    monkeypatch.setattr(poly, "_expanded_row", recorded_scratch)

    def run():
        reports = [verify_range(identity_id, ranges).to_json(include_timings=False)
                   for identity_id, ranges in ROW_SUITES]
        return reports, made[threading.get_ident()]

    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS
    errors = []

    def work(slot):
        try:
            barrier.wait()
            results[slot] = run()
        except BaseException as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(slot,)) for slot in range(THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    made.clear()
    expected = run()
    assert all(report["failed"] == 0 for report in expected[0])
    for got in results:
        assert got == expected
