"""compident: exact verification of composition-generated identities.

An exact-arithmetic library (integers, rationals, univariate polynomials,
rational functions) plus a registry of twenty-five combinatorial identities
tied together by the signed composition transform, each verifiable
pointwise or as a polynomial identity, with a CLI frontend.
"""

__version__ = "0.1.0"

from .compositions import (
    BudgetExceededError,
    composition_transform,
    enumerate_all_compositions,
    enumerate_compositions,
    enumerate_weak_compositions,
    inner_sum_closed_binomial,
    inner_sum_closed_multichoose,
    inner_sum_positive,
    transform_by_enumeration,
)
from .exact_arith import binomial, falling_factorial, multichoose, parse_rational
from .identities import (
    CaseReport,
    DomainError,
    IdentityDescriptor,
    SuiteReport,
    UnknownIdentityError,
    default_ranges,
    get_descriptor,
    list_identities,
    rothe_hagen_A,
    verify_case,
    verify_polynomial_in_n,
    verify_range,
)
from .poly import (
    Polynomial,
    RationalFunction,
    exact_div,
    finite_difference,
    poly_binomial,
    poly_falling_factorial,
    poly_gcd,
    poly_to_json,
)
from .stirling import check_eq18, check_eq19, check_eq31, check_eq41, stirling1
from .symfun import (
    DEFAULT_SEED,
    PAIR_IDS,
    bernoulli,
    gaussian_binomial,
    h_from_e_conv,
    h_from_e_det,
    pair_terms,
    phi,
    random_rational,
    seeded_rng,
)
