"""Workload definitions and the layer map of the compident benchmark.

Every workload is a list of ``compident`` argvs run in one process, each
followed by COMMON_ARGS and ``--seed <seed>``; the seed reaches the program
only through that flag.  ``suites`` lists the suite ids and case counts the
JSON output must report, in order, for every seed.
"""

COMMON_ARGS = ["--format", "json", "--samples", "5", "--jobs", "1"]

# Seed at which perfbench/golden.json recorded every case's digest.
GOLDEN_SEED = 1729

_CATALOG_SUITES = [
    ("eq5", 110), ("eq6", 225), ("eq13", 176), ("eq17", 12), ("eq18", 325),
    ("eq19", 325), ("eq29", 14), ("eq31", 78), ("eq36", 288), ("eq37", 270),
    ("eq38", 225), ("eq41", 132), ("eq42", 100), ("eq47", 176),
    ("lemma7_roundtrip", 160), ("pair1_eh", 40), ("pair1_he", 40),
    ("pair2_eh", 40), ("pair2_he", 40), ("pair3_eh", 56), ("pair3_he", 56),
    ("pair4_eh", 8), ("pair4_he", 8), ("pair5_eh", 40), ("pair5_he", 40),
]

WORKLOADS = {
    "catalog": {
        "why": "verify --all, the command users run: pair3-5 spend most of it in "
               "RationalFunction add, Polynomial mul and poly_gcd inside the transform",
        "argvs": [["verify", "--all"]],
        "suites": _CATALOG_SUITES,
    },
    "transform_deep": {
        "why": "the 2^(k-1) composition walk at k up to 17 over int and Fraction terms; "
               "no Polynomial is built, so poly changes should not move it",
        "argvs": [
            ["verify", "--id", "eq5", "--k", "1..17", "--n", "0..10"],
            ["verify", "--id", "eq42", "--k", "1..17", "--n", "1..10"],
            ["verify", "--id", "lemma7_roundtrip", "--k", "1..12"],
            ["verify", "--id", "pair1_eh", "--k", "1..14"],
            ["verify", "--id", "pair1_he", "--k", "1..14"],
            ["verify", "--id", "pair2_eh", "--k", "1..14"],
            ["verify", "--id", "pair2_he", "--k", "1..14"],
        ],
        "suites": [
            ("eq5", 187), ("eq42", 170), ("lemma7_roundtrip", 240),
            ("pair1_eh", 70), ("pair1_he", 70), ("pair2_eh", 70), ("pair2_he", 70),
        ],
    },
    "poly_in_n": {
        "why": "polynomial mode at k up to 28: dense Polynomial products with wide "
               "Fraction coefficients, with no transform, gcd or RationalFunction",
        "argvs": [
            ["verify", "--id", "eq13", "--k", "1..28"],
            ["verify", "--id", "eq47", "--k", "1..28"],
            ["verify", "--id", "eq17", "--k", "1..28"],
            ["verify", "--id", "eq29", "--k", "2..28"],
        ],
        "suites": [("eq13", 28), ("eq47", 28), ("eq17", 28), ("eq29", 27)],
    },
    # Not in BENCHMARK.json: a sub-second workload touching every traced
    # layer, for perfbench/selftest.py.
    "smoke": {
        "why": "every traced layer in well under a second, for the self-test",
        "argvs": [
            ["verify", "--id", "eq5", "--k", "1..4", "--n", "0..3"],
            ["verify", "--id", "eq13", "--k", "1..4"],
            ["verify", "--id", "eq18", "--k", "1..3", "--t", "1..3"],
            ["verify", "--id", "lemma7_roundtrip", "--k", "1..3"],
            ["verify", "--id", "pair3_eh", "--k", "1..3", "--n", "0..2"],
            ["verify", "--id", "pair5_he", "--k", "1..3"],
        ],
        "suites": [
            ("eq5", 16), ("eq13", 4), ("eq18", 6), ("lemma7_roundtrip", 60),
            ("pair3_eh", 9), ("pair5_he", 15),
        ],
    },
}

for _spec in WORKLOADS.values():
    _spec["cases"] = sum(count for _, count in _spec["suites"])

# Which end-to-end metric each per-layer metric should move, on which
# workloads, and which it should leave alone.  "item" is the ROADMAP open
# item whose change the layer serves.
LAYER_MAP = {
    "cli": {
        "metrics": ["cli.main.s", "cli.self_s"],
        "moves": ["wall_s"], "on": ["catalog", "transform_deep", "poly_in_n"],
        "not_on": [], "item": None,
    },
    "identities": {
        "metrics": ["identities.verify_case.calls", "identities.verify_case.self_s",
                    "identities.case_p50_ms", "identities.case_tail_ms",
                    "identities.suite_s.*"],
        "moves": ["wall_s", "cases_per_s"], "on": ["catalog", "transform_deep", "poly_in_n"],
        "not_on": [], "item": None,
    },
    "compositions": {
        "metrics": ["compositions.composition_transform.calls",
                    "compositions.composition_transform.s",
                    "compositions.composition_transform.self_s",
                    "compositions.composition_transform.k_max"],
        "moves": ["wall_s", "cases_per_s"], "on": ["transform_deep", "catalog"],
        "not_on": ["poly_in_n"], "item": 2,
    },
    "poly.gcd": {
        "metrics": ["poly.RationalFunction.add.calls", "poly.RationalFunction.add.s",
                    "poly.RationalFunction.mul.calls", "poly.RationalFunction.mul.s",
                    "poly.poly_gcd.calls", "poly.poly_gcd.s", "poly.poly_gcd.hit_ratio",
                    "poly.poly_gcd.trivial_ratio", "poly.poly_gcd.cache_entries",
                    "poly.Polynomial.divmod.calls", "poly.Polynomial.divmod.s"],
        "moves": ["wall_s", "peak_rss_mb"], "on": ["catalog"],
        "not_on": ["transform_deep", "poly_in_n"], "item": 3,
    },
    "poly.mul": {
        "metrics": ["poly.Polynomial.mul.calls", "poly.Polynomial.mul.s",
                    "poly.Polynomial.addsub.calls", "poly.Polynomial.addsub.s",
                    "poly.poly_binomial.calls", "poly.poly_binomial.s",
                    "poly.max_coeff_bits"],
        "moves": ["wall_s"], "on": ["poly_in_n", "catalog"],
        "not_on": ["transform_deep"], "item": 4,
    },
    "symfun": {
        "metrics": ["symfun.pair_terms.calls", "symfun.pair_terms.s",
                    "symfun.gaussian_binomial.calls", "symfun.gaussian_binomial.s",
                    "symfun.h_from_e_conv.s", "symfun.h_from_e_det.s"],
        "moves": ["wall_s"], "on": ["catalog", "transform_deep"],
        "not_on": ["poly_in_n"], "item": None,
    },
    "stirling": {
        "metrics": ["stirling.checks.calls", "stirling.checks.s"],
        "moves": ["wall_s"], "on": ["catalog", "poly_in_n"],
        "not_on": ["transform_deep"], "item": None,
    },
    "trace": {
        "metrics": ["trace.overhead_s"],
        "moves": [], "on": ["catalog", "transform_deep", "poly_in_n"],
        "not_on": [], "item": None,
    },
}
