"""Faults injected into the fast paths: each must fail the suites listed for it.

The golden digests catch a change in output, but not a check whose two
sides read the same value: a fault there changes both sides alike and the
case still passes.  Each test below perturbs one fast path or shared
primitive at one point and runs only the suites named for it.  A later
change that lets both sides of one of these checks read the same fast path
makes its test fail.  The transform suites read every case of a binding
from one list of prefixes T(1..k), so the rows on the transform routes
perturb the 4th entry of that list, and one test has every span hand each
case the lhs of the case before it.  verify_range evaluates every other
suite's cases itself, and one more test has each of their evaluators hand
a case the lhs of its previous call.

A wrong cyclotomic factor Phi_d is the exception: the q-pair verdicts
compare numerators over one phi_m and never read a Phi_d.  Only the
serialized sides of a binding where factors cancel (b = -a) show it, and
the build of a later Phi_n from it fails its exact division.  So is a wrong
passing text: a passing report formats its sides only when they are read,
after every verdict is made, so only the pinned case digests show it.
"""

from fractions import Fraction

import pytest
from test_golden import N, PINS, pinned_digests

from compident import compositions, identities, poly, stirling, symfun
from compident.identities import verify_case, verify_range
from compident.poly import InexactDivisionError, Polynomial, RationalFunction
from compident.symfun import QGraded, cyclotomic, phi

PAIR_SUITES = ["pair4_eh", "pair4_he", "pair5_eh", "pair5_he"]
# b = -a: the factors 1 + q^j of the q_cauchy terms cancel Phi_2, Phi_4 and
# Phi_6 out of phi_m for k = 4..7, where no other Phi is built from Phi_4
CANCELLING = {"a": Fraction(1, 2), "b": Fraction(-1, 2)}
CANCELLING_KS = range(4, 8)
# polynomial-mode grids (no n): every binomial there expands a falling row
ROW_SUITES = {"eq13": {"k": (1, 6)}, "eq17": {"k": (1, 6)},
              "eq29": {"k": (2, 6)}, "eq47": {"k": (1, 6)}}
ROW_KEY = (0, 1, 3)  # y (y - 1) (y - 2): C(i n, 3), (i n)_3 and C(n, 3) read it
SLID_KEY = (-2, 1, 5)  # eq29's C(2 (n - 1), 5), slid from C(n - 1, 5)'s row
# suite -> whether it still passes.  eq41's s(n, t) multiplies a sum that is
# 0 for t >= 2, so no wrong s(n, t) can fail it.
STIRLING_SUITES = {"eq17": False, "eq18": False, "eq19": False, "eq31": False, "eq41": True}
BERNOULLI_SUITES = {"pair2_eh": False, "pair2_he": False, "pair1_eh": True}
X = Polynomial((0, 1))  # q in the q-binomials, x in the polynomial-mode binomials
BOTH_WAYS = [f"pair{j}_{way}" for j in range(1, 6) for way in ("eh", "he")]
TRANSFORM_SUITES = ["eq5", "eq42", "lemma7_roundtrip", *BOTH_WAYS]


def bumped(hit, delta):
    # the perturbation that adds delta to a function's value wherever hit(*args)
    def perturb(function):
        def perturbed(*args):
            value = function(*args)
            return value + delta if hit(*args) else value

        return perturbed

    return perturb


def wrong_three_term_sum(fraction_sum):
    # + 1/den on every 3-term sum, den the first term's denominator
    def perturbed(terms):
        terms = list(terms)
        value = fraction_sum(terms)
        return value + Fraction(1, terms[0][1]) if len(terms) == 3 else value

    return perturbed


def bumped_fourth(delta):
    # the perturbation that adds delta to the 4th entry of a prefix list T(1..k)
    def perturb(function):
        def perturbed(*args):
            prefix = function(*args)
            if len(prefix) >= 4:
                prefix[3] = prefix[3] + delta
            return prefix

        return perturbed

    return perturb


def wrong_transform(transform):
    # + 1 on the transform's 4th prefix T(4), in the ring of its value
    def perturbed(values):
        prefix = transform(values)
        if len(prefix) >= 4:
            value = prefix[3]
            prefix[3] = QGraded(4, value.num + 1) if isinstance(value, QGraded) else value + 1
        return prefix

    return perturbed


def wrong_graded_numerator(graded):
    # b_3 + 1 in transform_prefix's graded ints: v_3 gains 1 / s**3
    def perturbed(values):
        got = graded(values)
        if got is None:
            return None
        ints, scale = got
        return [b + (i == 3) for i, b in enumerate(ints, 1)], scale

    return perturbed


def dropped_top_digit(unpack):
    # the packed transform loses U(k)'s highest nonzero coefficient
    def perturbed(value, size):
        digits = unpack(value, size)
        top = max((j for j, d in enumerate(digits) if d), default=None)
        if top is not None:
            digits[top] = 0
        return digits

    return perturbed


def flipped_e_factor(times_factors):
    # the e-term rows multiply by a + b q instead of a - b q at i = 2
    def perturbed(e_row, h_row, a, b, shift):
        e, h = times_factors(e_row, h_row, a, b, shift)
        if shift == 1:
            e = times_factors(e_row, h_row, a, -b, shift)[0]
        return e, h

    return perturbed


def wrong_bucket(walk):
    # + 1 on the two-part bucket S_(4,2) of the walk's 4th prefix (1/L**2 on Fraction terms)
    def perturbed(values, k, low):
        rows = walk(values, k, low)
        if low <= 4 <= k:
            rows[4 - low][1] += 1
        return rows

    return perturbed


ALL_SUITES = [descriptor.id for descriptor in identities.list_identities()]


def only(*failing):
    # every suite, with only the named ones failing
    return {identity_id: identity_id not in failing for identity_id in ALL_SUITES}


# (namespace the callers read the name from, name, perturbation, {suite:
# whether it still passes}).  eq5 and eq42 read their terms through
# symfun.pair_terms, so identities.binomial does not reach them.
SHARED_PRIMITIVES = [
    (identities, "binomial", bumped(lambda m, k: (m, k) == (5, 2), 1), {
        **dict.fromkeys(["eq6", "eq13", "eq36", "eq37", "eq38", "eq47"], False),
        "eq5": True, "eq42": True,
    }),
    # only the Rothe-Hagen left sides sum int pairs; their right sides do not
    (identities, "fraction_sum", wrong_three_term_sum, only("eq36", "eq37", "eq38")),
    (symfun, "binomial", bumped(lambda m, k: (m, k) == (5, 2), 1),
     {"eq5": False, "eq42": False}),
    (symfun, "multichoose", bumped(lambda n, k: (n, k) == (4, 3), 1),
     {"eq5": False, "eq42": False}),
    (symfun, "gaussian_binomial", bumped(lambda n, k: (n, k) == (5, 2), X),
     dict.fromkeys(BOTH_WAYS[4:], False)),  # pair3, pair4, pair5
    # eq13's and eq47's rhs read poly_binomial; every alternating sum reads falling_sum
    (identities, "poly_binomial", bumped(lambda p, k: k == 3, X),
     {"eq13": False, "eq47": False, "eq29": True, "eq17": True}),
    (identities, "falling_sum", bumped(lambda terms, k, over: k == 3, X),
     dict.fromkeys(["eq13", "eq17", "eq29", "eq47"], False)),
    (identities, "composition_prefix", wrong_transform,
     dict.fromkeys(TRANSFORM_SUITES, False)),
    # only Fraction terms run graded: pair1 and pair2, and lemma7's convolution
    (compositions, "_graded", wrong_graded_numerator, {
        **dict.fromkeys(["lemma7_roundtrip", *BOTH_WAYS[:4]], False),
        **dict.fromkeys(["eq5", "eq42", *BOTH_WAYS[4:]], True),
    }),
    # the enumeration oracle is lemma7's third route, and only pair1 and
    # pair2 build their Fraction terms with factorials
    (compositions, "_walk", wrong_bucket, only("lemma7_roundtrip")),
    # the determinant is lemma7's first route, and no other suite reads it:
    # + 1 on the lcm-scaled determinant of the leading 4 x 4 block
    (symfun, "_hessenberg_det", bumped_fourth(1), only("lemma7_roundtrip")),
    (symfun, "factorial", bumped(lambda i: i == 3, 1), only(*BOTH_WAYS[:4])),
    # pair3, pair4 and pair5 run the packed transform; its unpack reads no target
    (poly, "_unpack", dropped_top_digit, only(*BOTH_WAYS[4:])),
    # only pair3's terms are Polynomials: + q on the packed T(4) of the Polynomial route
    (Polynomial, "transform_prefix", bumped_fourth(X), only("pair3_eh", "pair3_he")),
    (symfun, "_times_factors", flipped_e_factor, only(*PAIR_SUITES)),
]


def cancelling_sides(identity_id):
    return [
        (report.passed, report.lhs, report.rhs)
        for report in (verify_case(identity_id, {"k": k, "sample": 0}, **CANCELLING)
                       for k in CANCELLING_KS)
    ]


def gcd_route(term):
    return RationalFunction(term.num, phi(term.degree))


@pytest.mark.parametrize("identity_id", PAIR_SUITES)
def test_a_wrong_cyclotomic_factor_fails_the_build_self_check(identity_id, monkeypatch):
    # Phi_3 + q = (1 + q)^2.  No verdict reads it; the build of Phi_6 from
    # it is inexact, so the default grid (k up to 8) raises.
    wrong = cyclotomic(3) + Polynomial((0, 1))
    monkeypatch.setattr(symfun, "_cyclotomic_cache", (cyclotomic(1), cyclotomic(2), wrong))
    with pytest.raises(InexactDivisionError):
        verify_range(identity_id, samples=3)


@pytest.mark.parametrize("identity_id", ["pair5_eh", "pair5_he"])
def test_a_wrong_cyclotomic_factor_changes_the_cancelling_sides(identity_id, monkeypatch):
    fast = cancelling_sides(identity_id)
    with monkeypatch.context() as patch:
        patch.setattr(QGraded, "reduced", gcd_route)
        reference = cancelling_sides(identity_id)
    assert fast == reference
    # Phi_4 + 1 = q^2 + 2 divides nothing, so Phi_4 stays in both sides
    wrong = cyclotomic(4) + 1
    monkeypatch.setattr(symfun, "_cyclotomic_cache", (*map(cyclotomic, (1, 2, 3)), wrong))
    faulty = cancelling_sides(identity_id)
    assert all(passed for passed, _, _ in faulty)  # the verdicts do not see it
    assert all(got != want for got, want in zip(faulty, reference))


@pytest.mark.parametrize("identity_id", ["pair5_eh", "pair5_he"])
def test_a_fold_that_finds_no_factor_changes_the_cancelling_sides(identity_id, monkeypatch):
    # QGraded.reduced divides by a Phi_d only where it divides the fold
    with monkeypatch.context() as patch:
        patch.setattr(QGraded, "reduced", gcd_route)
        reference = cancelling_sides(identity_id)
    monkeypatch.setattr(symfun, "_fold_divisible", lambda num, factor, d: False)
    faulty = cancelling_sides(identity_id)
    assert all(passed for passed, _, _ in faulty)  # the verdicts do not see it
    assert all(got != want for got, want in zip(faulty, reference))


def wrong_row(row):
    # twice the (0, 1, 3) row, wherever falling_sum or _linear_falling builds
    # it.  eq29 slides its (-i, 1, 3) rows from it and they keep the factor 2;
    # a + y there would make the next slide raise instead of failing a case
    def perturbed(c, d, k):
        out = row(c, d, k)
        return [2 * v for v in out] if (c, d, k) == ROW_KEY else out

    return perturbed


def wrong_weight(falling_sum):
    # + 1 on the weight of the i = 2 terms, those of slope u = 2, of every
    # alternating sum: C(k+1, 3), and in eq29 both terms of the i = 2 difference
    def perturbed(terms, k, over):
        return falling_sum([(w + (u == 2), u, c) for w, u, c in terms], k, over)

    return perturbed


def wrong_slid_row(slid):
    # twice the slid (-2, 1, 5) row.  The rows slid after it divide it by
    # y - 2, y - 3, ...; a wrong row that lost one of those factors would
    # make the next slide raise InexactDivisionError instead of failing a case
    def perturbed(above, c, k):
        out = slid(above, c, k)
        return [2 * v for v in out] if (c, 1, k) == SLID_KEY else out

    return perturbed


# (namespace, name, perturbation): the polynomial-mode fast paths
POLYNOMIAL_MODE_FAULTS = {
    "falling_row": (poly, "_built_row", wrong_row),
    "falling_sum": (identities, "falling_sum", wrong_weight),
}


@pytest.mark.parametrize("fault", sorted(POLYNOMIAL_MODE_FAULTS))
@pytest.mark.parametrize("identity_id", sorted(ROW_SUITES))
def test_a_wrong_polynomial_mode_path_fails_polynomial_mode(identity_id, fault, monkeypatch):
    owner, name, perturb = POLYNOMIAL_MODE_FAULTS[fault]
    monkeypatch.setattr(owner, name, perturb(getattr(owner, name)))
    report = verify_range(identity_id, ROW_SUITES[identity_id])
    assert report.cases_failed >= 1
    assert all("n" not in failure.params for failure in report.first_failures)
    if identity_id != "eq17":  # pointwise mode binomials are ints: no row, no falling_sum
        pointwise = verify_range(identity_id, {"k": (2, 6), "n": (0, 4)})
        assert pointwise.cases_failed == 0


@pytest.mark.parametrize("identity_id", sorted(ROW_SUITES))
def test_a_wrong_slid_row_fails_only_eq29(identity_id, monkeypatch):
    # only eq29's falling_sum has consecutive c: its C(i (n - 1), k) rows,
    # c = -i, slide from the (c + 1) row before them
    monkeypatch.setattr(poly, "_slid_row", wrong_slid_row(poly._slid_row))
    assert verify_range(identity_id, ROW_SUITES[identity_id]).passed is (identity_id != "eq29")


@pytest.mark.parametrize("identity_id, passes", sorted(STIRLING_SUITES.items()))
def test_a_wrong_stirling_number_fails_its_suites(identity_id, passes, monkeypatch):
    s = stirling._s
    monkeypatch.setattr(stirling, "_s", lambda n, t: s(n, t) + ((n, t) == (6, 3)))
    assert verify_range(identity_id).passed is passes


@pytest.mark.parametrize("identity_id, passes", sorted(BERNOULLI_SUITES.items()))
def test_a_wrong_bernoulli_number_fails_its_suites(identity_id, passes, monkeypatch):
    b = symfun.bernoulli
    monkeypatch.setattr(symfun, "bernoulli", lambda m: b(m) + (m == 4))
    assert verify_range(identity_id).passed is passes


@pytest.mark.parametrize(
    "owner, name, perturb, identity_id, passes",
    [
        pytest.param(owner, name, perturb, identity_id, passes,
                     id=f"{owner.__name__.split('.')[-1]}.{name}-{identity_id}")
        for owner, name, perturb, suites in SHARED_PRIMITIVES
        for identity_id, passes in suites.items()
    ],
)
def test_a_wrong_shared_primitive_fails_its_suites(
    owner, name, perturb, identity_id, passes, monkeypatch
):
    monkeypatch.setattr(owner, name, perturb(getattr(owner, name)))
    assert verify_range(identity_id).passed is passes


def served_late(span):
    # the span serves case k >= 2 the lhs of k - 1 against its own rhs
    def sides(params, rng, low, top):
        run = span.sides(params, rng, 1, top)
        late = [(lhs, rhs) for (lhs, _), (_, rhs) in zip(run[:1] + run, run)]
        return late[low - 1:]

    return span._replace(sides=sides)


@pytest.mark.parametrize("identity_id, passes", sorted(only(*TRANSFORM_SUITES).items()))
def test_a_span_that_serves_a_late_lhs_fails_the_transform_suites(
    identity_id, passes, monkeypatch
):
    for registered, reg in list(identities._REGISTRY.items()):
        if isinstance(reg.evaluate, identities._Span):
            late = reg._replace(evaluate=served_late(reg.evaluate))
            monkeypatch.setitem(identities._REGISTRY, registered, late)
    assert verify_range(identity_id).passed is passes


def served_previous(evaluate):
    # each call after the first gets the lhs of the call before it against its own rhs
    lhs_seen = []

    def late(params, rng):
        lhs, rhs = evaluate(params, rng)
        lhs_seen.append(lhs)
        return lhs_seen[-2] if len(lhs_seen) > 1 else lhs, rhs

    return late


PLAIN_SUITES = [identity_id for identity_id in ALL_SUITES if identity_id not in TRANSFORM_SUITES]


# eq37's lhs is 0 on every case, and so is eq41's for t >= 2: a previous lhs
# is still the right one
@pytest.mark.parametrize(
    "identity_id, passes", sorted({**only(*PLAIN_SUITES), "eq37": True, "eq41": True}.items())
)
def test_an_evaluator_that_serves_a_previous_lhs_fails_the_plain_suites(
    identity_id, passes, monkeypatch
):
    for registered, reg in list(identities._REGISTRY.items()):
        if not isinstance(reg.evaluate, identities._Span):
            late = reg._replace(evaluate=served_previous(reg.evaluate))
            monkeypatch.setitem(identities._REGISTRY, registered, late)
    assert verify_range(identity_id).passed is passes


def wrong_passing_text(passing_text):
    # an int lhs + 1 in a passing report's text, made when the report is first read
    def perturbed(bound, lhs, limit):
        return passing_text(bound, lhs + 1 if isinstance(lhs, int) else lhs, limit)

    return perturbed


def test_a_wrong_passing_text_shows_in_the_case_digests_only(monkeypatch, capsys):
    monkeypatch.setattr(identities, "_passing_text", wrong_passing_text(identities._passing_text))
    assert all(verify_range(identity_id).passed for identity_id in ALL_SUITES)
    # eq13's int sides at n = 10^120, read after main has restored the digit limit
    argv = f"verify --id eq13 --k 40..40 --n {N}..{N} --format json"
    budget, stdout_sha256, cases_sha256 = PINS[argv]
    got_stdout, got_cases = pinned_digests(argv, budget, monkeypatch, capsys)
    assert got_stdout == stdout_sha256  # the verdicts do not see it
    assert got_cases != cases_sha256
