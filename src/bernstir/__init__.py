"""Exact-arithmetic Bernoulli numbers, Stirling numbers of the second kind,
and partial Bell polynomials, cross-verified against a truncated
formal-power-series oracle.

Every quantity is an exact Python int or ``fractions.Fraction``; all
comparisons in the verification layer are exact equality.
"""

from .bell import (
    bell_partition_sum,
    bell_recurrence,
    bell_reciprocal_args,
    bell_scaling_identity_lhs_rhs,
    bell_zero_one,
)
from .bernoulli import (
    Method,
    UnsupportedIndexError,
    bernoulli,
    bernoulli_alternating,
    bernoulli_bell,
    bernoulli_double_stirling,
    bernoulli_guo_qi,
    bernoulli_logan,
    bernoulli_oracle,
    bernoulli_theorem,
    supports,
)
from .exact import format_rational, parse_rational
from .series import bell_egf_coeff, bernoulli_series
from .stirling import associated_diagonals, stirling_diagonals, stirling_rows
from .verify import VerificationReport, cross_verify, identity_suite

__all__ = [
    "Method",
    "UnsupportedIndexError",
    "VerificationReport",
    "associated_diagonals",
    "bell_egf_coeff",
    "bell_partition_sum",
    "bell_reciprocal_args",
    "bell_recurrence",
    "bell_scaling_identity_lhs_rhs",
    "bell_zero_one",
    "bernoulli",
    "bernoulli_alternating",
    "bernoulli_bell",
    "bernoulli_double_stirling",
    "bernoulli_guo_qi",
    "bernoulli_logan",
    "bernoulli_oracle",
    "bernoulli_series",
    "bernoulli_theorem",
    "cross_verify",
    "format_rational",
    "identity_suite",
    "parse_rational",
    "stirling_diagonals",
    "stirling_rows",
    "supports",
]
