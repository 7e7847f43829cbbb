"""Documented error conditions across modules."""
import re
from fractions import Fraction as Q

import pytest

from thetacalc.dependence import christoffel_analyze
from thetacalc.errors import (EigenfailNumeric, InsufficientWindow,
                              PoleAtPoint, ZeroPolynomial)
from thetacalc.exact import BivariatePolynomial, Polynomial, RationalFunction
from thetacalc.forms import (DifferenceForm, GridFunction,
                             cauchy_partial_fractions, form_apply,
                             ruffini_divide)
from thetacalc.monodromy import (MonodromySpec, companion_difference_equation,
                                 local_structure, minimal_relation)
from thetacalc.operators import (TruncatedOperator,
                                 check_multiplication_identity,
                                 nsymb_solution_check)

x = Polynomial.x()


def test_form_apply_pole():
    F = DifferenceForm([RationalFunction(Polynomial.one(), x - 3)])
    g = GridFunction(0, [Q(1)] * 10)
    with pytest.raises(PoleAtPoint):
        form_apply(F, g, 3)


def test_christoffel_negative_extension():
    seqs = [GridFunction(0, [Q(1)] * 6), GridFunction(0, [Q(i) for i in range(6)])]
    with pytest.raises(InsufficientWindow):
        christoffel_analyze(seqs, 0, -1)


def test_eigenfail_on_ambiguous_cluster():
    M = MonodromySpec([[1.0, 0.0], [0.0, 1.0 + 1e-8]], tolerance=1e-10)
    with pytest.raises(EigenfailNumeric):
        local_structure(M)


def test_numeric_jordan_with_loose_tolerance():
    # a float Jordan block resolves correctly once the tolerance admits the
    # sqrt(eps) eigenvalue splitting of defective matrices
    M = MonodromySpec([[1.0, 1.0], [0.0, 1.0]], tolerance=1e-6)
    st = local_structure(M)
    assert len(st.blocks) == 1
    assert st.blocks[0].jordan_sizes == (2,)


def test_numeric_companion_snaps_to_rationals():
    M = MonodromySpec([[0.5, 0.25], [0.0, 2.0]], tolerance=1e-10)
    F = companion_difference_equation(M)
    assert F == DifferenceForm.from_constant_coeffs([1, Q(-5, 2), 1])
    G = minimal_relation(M)
    assert G == F


def test_cauchy_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        cauchy_partial_fractions(Polynomial.zero())


@pytest.mark.parametrize("call, bad", [
    (lambda v: ruffini_divide(DifferenceForm.theta(), v), 0.5),
    (lambda v: nsymb_solution_check([v, 2], [x]), 1.5),
    (lambda v: check_multiplication_identity(TruncatedOperator.identity(4),
                                              v, 0, []), 0.5),
    (lambda v: BivariatePolynomial.y().scale(v), 0.5),
    (lambda v: BivariatePolynomial.y().eval_y(v), "x"),
    (lambda v: DifferenceForm([1, v]), 0.5),
    (lambda v: BivariatePolynomial([1, v]), "x"),
], ids=["ruffini_divide", "nsymb_solution_check",
        "check_multiplication_identity", "bivariate_scale", "eval_y",
        "DifferenceForm", "BivariatePolynomial"])
def test_inexact_value_raises_type_error_naming_it(call, bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        call(bad)
