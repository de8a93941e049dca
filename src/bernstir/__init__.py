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
    PowerSumCoeffs,
    UnsupportedIndexError,
    bernoulli,
    bernoulli_alternating,
    bernoulli_bell,
    bernoulli_double_stirling,
    bernoulli_guo_qi,
    bernoulli_logan,
    bernoulli_oracle,
    bernoulli_theorem,
    power_sum_coeffs,
    supports,
)
from .exact import binomial, factorial, format_rational, parse_rational
from .series import (
    TruncatedSeries,
    bell_egf_coeff,
    bernoulli_series,
    stirling_egf_coeff,
)
from .stirling import (
    StirlingTable,
    associated_diagonals,
    stirling_diagonals,
    stirling_explicit,
    stirling_rows,
)
from .verify import VerificationReport, cross_verify, identity_suite

__all__ = [
    "Method",
    "PowerSumCoeffs",
    "StirlingTable",
    "TruncatedSeries",
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
    "binomial",
    "cross_verify",
    "factorial",
    "format_rational",
    "identity_suite",
    "parse_rational",
    "power_sum_coeffs",
    "stirling_diagonals",
    "stirling_egf_coeff",
    "stirling_explicit",
    "stirling_rows",
    "supports",
]
