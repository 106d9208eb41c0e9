"""Exact-arithmetic irrationality certificates.

Builds explicit integer sequences (p_n, q_n) or coefficient vectors whose
residual against a target constant is provably nonzero and shrinking, and
verifies every claim with rational interval enclosures; no floats anywhere.
"""

from .algebraic import (PowerForm, RootBracket, RootClassification,
                        classify_roots, integer_root_test, isolate_real_roots,
                        monic_certificate, monic_transform, reduce_power_form)
from .certificate import Certificate, CertRow
from .constants import (AlgebraicRoot, ConstantSpec, CosInv, CosOf, E, EPow,
                        ERational, InvE, Root, SinInv, SinOf, Sqrt,
                        canonical_text, enclose, integer_nth_root, parse_constant)
from .enclosure import Enclosure, refinement_budget
from .errors import (AngleNearPiError, AngleOutOfRangeError, BadIndexError,
                     BracketAmbiguousError, CapExceededError,
                     ChainMismatchError, DivisibilityViolationError,
                     IrratCertError, NotMonicError, NotSquarefreeError,
                     PerfectPowerError, PrecisionExhausted, ZeroExponentError,
                     ZeroNumeratorError, ZeroScaleError)
from .intpoly import (IntPolynomial, cauchy_root_bound, count_roots_between,
                      squarefree_part, sturm_chain)
from .niven import (FPair, GaussPair, RationalPolynomial, TrigWitness,
                    exp_functional_int, exp_functional_rational,
                    niven_poly, trig_functional)
from .pigeonhole import (PigeonholeResult, fractional_residual,
                         pigeonhole_approximant)
from .sequences import (Approximant, BoundedBy, compose_chain,
                        cos_inv_m_approximant, e_approximant,
                        e_squared_approximant, inv_e_approximant,
                        mth_root_form, reciprocal, rescale, scaled_compose,
                        sin_inv_m_approximant, sqrt_approximant)
from .verify import (certify, integral_exp_poly, integral_sin_poly, pair_residual,
                     power_form_residual, trig_residual)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicRoot", "AngleNearPiError", "AngleOutOfRangeError",
    "Approximant", "BadIndexError", "BoundedBy", "BracketAmbiguousError",
    "CapExceededError", "CertRow", "Certificate", "ChainMismatchError",
    "ConstantSpec", "CosInv", "CosOf", "DivisibilityViolationError", "E",
    "EPow", "ERational", "Enclosure", "FPair", "GaussPair", "IntPolynomial",
    "InvE", "IrratCertError", "NotMonicError",
    "NotSquarefreeError", "PerfectPowerError", "PigeonholeResult",
    "PowerForm", "PrecisionExhausted", "RationalPolynomial", "Root",
    "RootBracket", "RootClassification", "SinInv", "SinOf", "Sqrt",
    "TrigWitness", "ZeroExponentError", "ZeroNumeratorError",
    "ZeroScaleError", "canonical_text", "cauchy_root_bound", "certify",
    "classify_roots", "compose_chain", "cos_inv_m_approximant",
    "count_roots_between", "e_approximant", "e_squared_approximant",
    "enclose", "exp_functional_int", "exp_functional_rational",
    "fractional_residual", "integer_nth_root", "integer_root_test",
    "integral_exp_poly", "integral_sin_poly", "inv_e_approximant",
    "isolate_real_roots", "monic_certificate", "monic_transform",
    "mth_root_form", "niven_poly", "pair_residual", "parse_constant",
    "pigeonhole_approximant", "power_form_residual", "reciprocal",
    "reduce_power_form", "refinement_budget", "rescale", "scaled_compose",
    "sin_inv_m_approximant", "sqrt_approximant", "squarefree_part",
    "sturm_chain", "trig_functional", "trig_residual",
]
