"""Annihilating linear ODEs for roots of f(x, y) = 0.

Starting from the Bezout identity A f + B f_y = phi, repeated implicit
differentiation writes y^(k) = P_k(x, y) / phi^k with P_k of y-degree below
deg_y f; the first linear dependence among those rows over Q(x) is the
minimal-order annihilating ODE.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from . import linalg
from .errors import NotSquarefree, SampleAtSingularity, ZeroPolynomial
from .exact import (BivariatePolynomial, Polynomial, Q, RationalFunction,
                    bezout_in_y, gcd_y)


@dataclass(frozen=True)
class DerivativeTable:
    """Rows k = 0..K of coordinates of y^(k) in the basis 1, y, .., y^(m-1).

    Entries are exact rational functions of x that already carry the phi^k
    denominator; numerators(k) recovers the polynomial row P_k.
    """
    m: int
    phi: RationalFunction
    bezout_B: BivariatePolynomial
    rows: Tuple[Tuple[RationalFunction, ...], ...]

    def numerators(self, k: int) -> Tuple[RationalFunction, ...]:
        scale = self.phi ** k
        return tuple(c * scale for c in self.rows[k])

    def eval_derivative(self, k: int, x0, y0) -> complex:
        acc = 0j
        for j, c in enumerate(self.rows[k]):
            acc += c.eval_complex(x0) * (y0 ** j)
        return acc


def _row_of(p: BivariatePolynomial, m: int) -> Tuple[RationalFunction, ...]:
    return tuple(p.coeff(j) for j in range(m))


def _y_inverse_mod(g: BivariatePolynomial, f: BivariatePolynomial) -> BivariatePolynomial:
    """Inverse of g modulo f over Q(x) via extended Euclid in y."""
    r0, r1 = f, g
    t0 = BivariatePolynomial.zero()
    t1 = BivariatePolynomial((RationalFunction.one(),))
    while r1.coeffs:
        q, r = r0.divmod_y(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r0.deg_y != 0:
        raise NotSquarefree("element not invertible modulo f")
    return t0.scale(r0.coeffs[0].inverse())


def derivative_table(f: BivariatePolynomial, K: int) -> DerivativeTable:
    """Exact table of y^(k) reduced mod f, k = 0..K.

    Requires f squarefree in y with deg_y f >= 1.  Row 1 realizes the
    implicit-function derivative -f_x / f_y through the Bezout pair; higher
    rows follow the recursion P_(k+1) = phi*dP_k/dx + dP_k/dy * P_1 - k*phi'*P_k
    carried out on the already-reduced representatives.
    """
    m = f.deg_y
    if m < 1 or f.is_zero():
        raise NotSquarefree("need deg_y f >= 1")
    if gcd_y(f, f.d_dy()).deg_y > 0:
        raise NotSquarefree("f has a repeated factor in y")
    A, B, phi = bezout_in_y(f)
    phi_rf = phi
    # row 0: y itself reduced mod f
    y_red = BivariatePolynomial.y().mod_y(f)
    # row 1: -f_x * inv(f_y) mod f == -B*f_x/phi mod f
    inv_fy = _y_inverse_mod(f.d_dy(), f)
    d1 = (-f.d_dx() * inv_fy).mod_y(f)
    rows = [_row_of(y_red, m), _row_of(d1, m)]
    exprs = [y_red, d1]
    for _k in range(1, K):
        prev = exprs[-1]
        # d/dx of prev in the quotient ring: x-derivative plus chain rule via d1
        nxt = (prev.d_dx() + prev.d_dy() * d1).mod_y(f)
        exprs.append(nxt)
        rows.append(_row_of(nxt, m))
    return DerivativeTable(m=m, phi=phi_rf, bezout_B=B, rows=tuple(rows[:K + 1]))


@dataclass(frozen=True)
class LinearODE:
    """sum c_k(x) y^(k) = 0 in canonical polynomial normalization."""
    coeffs: Tuple[RationalFunction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def from_raw(cls, raw: Sequence[RationalFunction]) -> "LinearODE":
        """Normalize: clear denominators, strip common polynomial and rational
        content, sign so the leading coefficient has positive leading coeff."""
        cs = list(raw)
        while cs and cs[-1].is_zero():
            cs.pop()
        if not cs:
            raise ZeroPolynomial("zero ODE")
        den_lcm = Polynomial.one()
        for c in cs:
            g = den_lcm.gcd(c.den)
            den_lcm = den_lcm * c.den.divmod(g)[0]
        polys = [(c * RationalFunction(den_lcm)).as_polynomial() for c in cs]
        common = Polynomial.zero()
        for p in polys:
            common = common.gcd(p)
        if common.degree > 0:
            polys = [p.divmod(common)[0] for p in polys]
        content = Q(0)
        for p in polys:
            c = p.content()
            content = c if content == 0 else _q_gcd(content, c)
        if content not in (0, 1):
            polys = [p * (1 / content) for p in polys]
        if polys[-1].leading() < 0:
            polys = [-p for p in polys]
        return cls(coeffs=tuple(RationalFunction(p) for p in polys))

    def __str__(self):
        bits = []
        for k in range(self.order, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            dk = "y" if k == 0 else ("y'" if k == 1 else "y^(%d)" % k)
            bits.append("(%s)*%s" % (c, dk))
        return " + ".join(bits) + " = 0"


def _q_gcd(a, b):
    from math import gcd
    num = gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    return Q(num, den)


def tannery_ode(f: BivariatePolynomial, minimal: bool = True,
                table: DerivativeTable = None) -> LinearODE:
    """Annihilating linear ODE for the roots of f(x, .) = 0.

    With minimal=True (default) the first linear dependence among the
    derivative-table rows is returned, so the order never exceeds deg_y f;
    minimal=False differentiates the minimal relation up to full order m,
    the shape asserted in the source construction.  A precomputed table
    (with at least deg_y f + 1 rows) may be passed to avoid rebuilding it.
    """
    m = f.deg_y
    if table is None or len(table.rows) < m + 1:
        table = derivative_table(f, m)
    rel = None
    for k in range(1, m + 1):
        cols = [table.rows[i] for i in range(k + 1)]
        matrix = [[cols[i][j] for i in range(k + 1)] for j in range(table.m)]
        ns = linalg.nullspace(matrix, k + 1)
        if ns:
            rel = ns[0]
            break
    if rel is None:
        raise AssertionError("m+1 rows over an m-dimensional space must be dependent")
    ode = LinearODE.from_raw(rel)
    if minimal or ode.order == m:
        return ode
    cur = ode
    while cur.order < m:
        cur = differentiate_ode(cur)
    return cur


def differentiate_ode(ode: LinearODE) -> LinearODE:
    """d/dx of the relation: sum (c_k' y^(k) + c_k y^(k+1)) = 0."""
    raw = [RationalFunction.zero()] * (ode.order + 2)
    for k, c in enumerate(ode.coeffs):
        raw[k] = raw[k] + c.derivative()
        raw[k + 1] = raw[k + 1] + c
    return LinearODE.from_raw(raw)


def check_tannery_shape(ode: LinearODE, phi: RationalFunction) -> bool:
    """True iff, after divide-by-leading, coefficient k below the top equals
    a polynomial over phi^k."""
    if ode.is_zero():
        raise ZeroPolynomial("zero ODE has no shape")
    q = ode.order
    lead = ode.coeffs[q]
    for k in range(1, q + 1):
        c = ode.coeffs[q - k] / lead
        if (c * phi ** k).is_polynomial():
            continue
        return False
    return True


def verify_ode_numeric(f: BivariatePolynomial, ode: LinearODE, xs,
                       table: DerivativeTable = None) -> float:
    """Max residual of sum c_k y^(k) over complex samples and roots of f(x, .).

    Derivative values come from the exact table evaluated at (x, root); the
    roots themselves come from an independent complex root finder (numpy
    seeds polished by Newton on f).  The residual is divided by the largest
    term magnitude when that exceeds 1, so it stays meaningful in double
    precision even when cleared-denominator coefficients grow to 1e9 and
    beyond; for O(1) instances it is the plain absolute residual.  Samples
    at zeros of phi or of the leading y-coefficient raise
    SampleAtSingularity.
    """
    import numpy as np

    from .errors import PoleAtPoint
    need = max(ode.order, f.deg_y)
    if table is None or len(table.rows) < need + 1:
        table = derivative_table(f, need)
    worst = 0.0
    for x0 in xs:
        z = complex(x0)
        try:
            if abs(table.phi.eval_complex(z)) < 1e-12:
                raise SampleAtSingularity("phi vanishes at %r" % (z,))
            if abs(f.leading_y().eval_complex(z)) < 1e-12:
                raise SampleAtSingularity("leading y-coefficient vanishes at %r" % (z,))
            ycs = f.y_coeffs_at(z)
            roots = np.roots(list(reversed(ycs)))
            fy = f.d_dy()
            for y0 in roots:
                y0 = complex(y0)
                # Newton polish: np.roots alone is too coarse for the exact
                # table's amplification near moderate phi values
                for _ in range(8):
                    fv = f.eval_complex(z, y0)
                    dv = fy.eval_complex(z, y0)
                    if dv == 0:
                        break
                    step = fv / dv
                    y0 -= step
                    if abs(step) < 1e-15 * max(1.0, abs(y0)):
                        break
                resid = 0j
                scale = 0.0
                for k, c in enumerate(ode.coeffs):
                    term = c.eval_complex(z) * table.eval_derivative(k, z, y0)
                    resid += term
                    scale = max(scale, abs(term))
                worst = max(worst, abs(resid) / max(1.0, scale))
        except PoleAtPoint as exc:
            raise SampleAtSingularity("pole at sample %r" % (z,)) from exc
    return worst


def quadratic_phi(a: Polynomial, b: Polynomial, c: Polynomial) -> Polynomial:
    """phi = a*c - b^2 for f = a y^2 + 2 b y + c (the classical witness
    a*f + (-(a y + b)/2) * f_y = a*c - b^2)."""
    return a * c - b * b
