"""Exact shift-operator calculus.

The operator T mapping f(x) to f(x+1) - equivalently the value of a complex
function after one closed tour around a singular point - generates a
noncommutative algebra of linear difference forms over the rational-function
field.  This package provides exact arithmetic for that algebra together
with the classical machinery built on top of it: determinant criteria for
linear dependence on grids, companion constant-coefficient equations for
local monodromy data, a kernel transform linking differential operators to
shift relations, annihilating ODEs for algebraic functions, and a functional
calculus of operators on truncated polynomial spaces.
"""

from .errors import (CandidateNotARoot, DivisionByZero, EigenfailNumeric,
                     EvalDomainError, ExprSyntaxError, InconsistentMultiplier,
                     InsufficientWindow, NoExactRoots, NotASolution,
                     NotClassifiable, NotSquarefree, OutOfWindow, PoleAtPoint,
                     PreconditionViolated, SampleAtSingularity, ThetaCalcError,
                     TruncationTooSmall, ZeroDivisor, ZeroPolynomial)
from .exact import (BivariatePolynomial, Polynomial, Q, RationalFunction,
                    bezout_in_y, gcd_y, resultant_y)
from .forms import (BasisSolution, DifferenceForm, GridFunction,
                    cauchy_partial_fractions, const_coeff_basis, form_apply,
                    form_divides, form_divrem, form_mul, is_root,
                    partial_fraction_eval, rational_roots, ruffini_divide)
from .dependence import (DependenceReport, RelationResult, casoratian,
                         casoratian_zero_implies_relation_check,
                         christoffel_analyze, christoffel_matrix,
                         windowed_scan)
from .monodromy import (FormalLocalSolution, LocalBlock, LocalStructure,
                        MonodromySpec, canonical_fundamental_system,
                        canonical_system_with_action, charpoly,
                        companion_difference_equation, local_structure,
                        minimal_polynomial, minimal_relation,
                        theta_determinant, theta_on_local)
from .transforms import (DifferentialOperator, ShiftedDifferenceRelation,
                         as_theta_form, diff_to_difference,
                         difference_to_diff, falling_product)
from .algebraic import (DerivativeTable, LinearODE, check_tannery_shape,
                        derivative_table, differentiate_ode, quadratic_phi,
                        tannery_ode, verify_ode_numeric)
from .operators import (MultSpec, NsymbReport, TruncatedOperator,
                        check_multiplication_identity, classify_mult_operator,
                        derivation_like, functional_derivative,
                        grevy_determinant, nsymb_solution_check,
                        solve_A_prime_equals_A, substitution_like)
from .expr import (eval_bivariate, eval_form, eval_operator, eval_ratfunc,
                   eval_sequence_poly, format_form, normalize, parse)

__version__ = "0.1.0"

__all__ = [
    # errors
    "CandidateNotARoot", "DivisionByZero", "EigenfailNumeric",
    "EvalDomainError", "ExprSyntaxError", "InconsistentMultiplier",
    "InsufficientWindow", "NoExactRoots", "NotASolution", "NotClassifiable",
    "NotSquarefree", "OutOfWindow", "PoleAtPoint", "PreconditionViolated",
    "SampleAtSingularity", "ThetaCalcError", "TruncationTooSmall",
    "ZeroDivisor", "ZeroPolynomial",
    # exact
    "BivariatePolynomial", "Polynomial", "Q", "RationalFunction",
    "bezout_in_y", "gcd_y", "resultant_y",
    # forms
    "BasisSolution", "DifferenceForm", "GridFunction",
    "cauchy_partial_fractions", "const_coeff_basis", "form_apply",
    "form_divides", "form_divrem", "form_mul", "is_root",
    "partial_fraction_eval", "rational_roots", "ruffini_divide",
    # dependence
    "DependenceReport", "RelationResult", "casoratian",
    "casoratian_zero_implies_relation_check", "christoffel_analyze",
    "christoffel_matrix", "windowed_scan",
    # monodromy
    "FormalLocalSolution", "LocalBlock", "LocalStructure", "MonodromySpec",
    "canonical_fundamental_system", "canonical_system_with_action", "charpoly",
    "companion_difference_equation", "local_structure", "minimal_polynomial",
    "minimal_relation", "theta_determinant", "theta_on_local",
    # transforms
    "DifferentialOperator", "ShiftedDifferenceRelation", "as_theta_form",
    "diff_to_difference", "difference_to_diff", "falling_product",
    # algebraic
    "DerivativeTable", "LinearODE", "check_tannery_shape", "derivative_table",
    "differentiate_ode", "quadratic_phi", "tannery_ode", "verify_ode_numeric",
    # operators
    "MultSpec", "NsymbReport", "TruncatedOperator",
    "check_multiplication_identity", "classify_mult_operator",
    "derivation_like", "functional_derivative", "grevy_determinant",
    "nsymb_solution_check", "solve_A_prime_equals_A", "substitution_like",
    # expr
    "eval_bivariate", "eval_form", "eval_operator", "eval_ratfunc",
    "eval_sequence_poly", "format_form", "normalize", "parse",
]
