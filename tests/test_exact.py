"""Exact arithmetic foundation: shifts, field axioms, Bezout identities."""
import random
from fractions import Fraction as Q

import pytest

from thetacalc.errors import DivisionByZero, NotSquarefree, PoleAtPoint
from thetacalc.exact import (BivariatePolynomial, Polynomial, RationalFunction,
                             bezout_in_y, gcd_y, resultant_y)

from conftest import rand_bivariate, rand_poly, rand_ratfunc

x = Polynomial.x()


class TestPolyShift:
    def test_identity(self):
        assert (x * x).shift(0) == x * x

    def test_binomial(self):
        assert (x * x).shift(1) == Polynomial([1, 2, 1])

    def test_product_form(self):
        p = (x - 1) * (x - 2)
        assert p.shift(2) == Polynomial([0, 1, 1])  # x^2 + x

    def test_rational_step(self):
        p = x ** 2
        assert p.shift(Q(1, 2)) == Polynomial([Q(1, 4), 1, 1])

    def test_shift_composition(self):
        rng = random.Random(11)
        for _ in range(40):
            p = rand_poly(rng, 4)
            j = Q(rng.randint(-4, 4), rng.randint(1, 3))
            k = Q(rng.randint(-4, 4), rng.randint(1, 3))
            assert p.shift(j).shift(k) == p.shift(j + k)
            assert p.shift(0) == p


class TestRatFunc:
    def test_common_denominator(self):
        a = RationalFunction(Polynomial.one(), x - 1)
        b = RationalFunction(Polynomial.one(), x + 1)
        s = a + b
        assert s == RationalFunction(2 * x, x * x - 1)

    def test_gcd_cancellation(self):
        r = RationalFunction(x * x - 1, x - 1)
        assert r == RationalFunction(x + 1)
        assert r.is_polynomial()

    def test_product(self):
        a = RationalFunction(x, Polynomial.constant(2))
        b = RationalFunction(Polynomial.constant(4), x)
        assert a * b == RationalFunction.constant(2)

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            RationalFunction.one() / RationalFunction.zero()

    def test_eval(self):
        a = RationalFunction(Polynomial.one(), x - 1)
        assert a.eval(3) == Q(1, 2)
        assert RationalFunction(x * x).eval(-2) == 4

    def test_eval_pole(self):
        a = RationalFunction(Polynomial.one(), x - 1)
        with pytest.raises(PoleAtPoint):
            a.eval(1)

    def test_field_axioms_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rand_ratfunc(rng, 2, 5)
            b = rand_ratfunc(rng, 2, 5)
            c = rand_ratfunc(rng, 2, 5)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not b.is_zero():
                assert (a / b) * b == a

    def test_eval_multiplicative(self):
        rng = random.Random(8)
        for _ in range(30):
            a = rand_ratfunc(rng, 2, 5)
            b = rand_ratfunc(rng, 2, 5)
            x0 = Q(rng.randint(-6, 6), rng.randint(1, 4))
            try:
                lhs = (a * b).eval(x0)
                va = a.eval(x0)
                vb = b.eval(x0)
            except PoleAtPoint:
                continue
            assert lhs == va * vb


class TestBezout:
    def test_sqrt_case(self):
        f = BivariatePolynomial([RationalFunction(-x), 0, 1])  # y^2 - x
        A, B, phi = bezout_in_y(f)
        assert phi == RationalFunction(x)
        assert (A * f + B * f.d_dy() - BivariatePolynomial.from_x(phi)).is_zero()
        assert A == BivariatePolynomial.from_x(RationalFunction.constant(-1))
        assert B == BivariatePolynomial([0, Q(1, 2)])

    def test_quadratic_discriminant(self):
        # f = a y^2 + 2 b y + c with constant a: phi proportional to a*c - b^2
        rng = random.Random(3)
        for _ in range(10):
            a = Polynomial.constant(rng.randint(1, 4))
            b = rand_poly(rng, 2, 4)
            c = rand_poly(rng, 2, 4, nonzero=True)
            f = BivariatePolynomial([RationalFunction(c),
                                     RationalFunction(2 * b),
                                     RationalFunction(a)])
            if gcd_y(f, f.d_dy()).deg_y > 0:
                continue
            A, B, phi = bezout_in_y(f)
            assert (A * f + B * f.d_dy() - BivariatePolynomial.from_x(phi)).is_zero()
            witness = RationalFunction(a * c - b * b)
            ratio = phi / witness
            assert ratio.is_constant()

    def test_linear(self):
        f = BivariatePolynomial([RationalFunction(-x), RationalFunction.one()])
        A, B, phi = bezout_in_y(f)
        assert A.is_zero()
        assert B == BivariatePolynomial.from_x(RationalFunction.one())
        assert phi == RationalFunction.one()

    def test_not_squarefree(self):
        # (y - x)^2
        f = BivariatePolynomial([RationalFunction(x * x),
                                 RationalFunction(-2 * x),
                                 RationalFunction.one()])
        with pytest.raises(NotSquarefree):
            bezout_in_y(f)

    def test_identity_random(self):
        rng = random.Random(17)
        done = 0
        while done < 25:
            f = rand_bivariate(rng, rng.randint(1, 3), 2, 4)
            if gcd_y(f, f.d_dy()).deg_y > 0:
                continue
            A, B, phi = bezout_in_y(f)
            assert (A * f + B * f.d_dy() - BivariatePolynomial.from_x(phi)).is_zero()
            assert not phi.is_zero()
            done += 1

    def test_resultant_matches_euclid_scale(self):
        f = BivariatePolynomial([RationalFunction(1), RationalFunction(2 * x),
                                 RationalFunction(1)])  # y^2 + 2xy + 1
        res = resultant_y(f, f.d_dy())
        # Res = 4(1 - x^2) for this instance
        assert res == RationalFunction(Polynomial([4, 0, -4]))
