"""Kernel transform between differential operators and shifted relations.

Under f(x) = integral of phi(y) y^(x-1) dy (boundary terms arranged to
vanish), the term a * y^lam * phi^(r) maps to
(-1)^r * a * (x+lam-1)(x+lam-2)...(x+lam-r) * f(x+lam-r),
so a differential operator with polynomial coefficients becomes a linear
relation among shifted values of f with polynomial-in-x weights.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .exact import Polynomial, Q, RationalFunction, as_q
from .forms import DifferenceForm


class DifferentialOperator:
    """Finite sum of terms a_{lam,r} * y^lam * d^r/dy^r."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: Dict[Tuple[int, int], Fraction] = {}
        if coeffs:
            for (lam, r), a in coeffs.items():
                a = as_q(a)
                if a == 0:
                    continue
                if lam < 0 or r < 0:
                    raise ValueError("powers and derivative orders must be >= 0")
                clean[(int(lam), int(r))] = a
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("DifferentialOperator is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Q(0)) + v
        return DifferentialOperator(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "DifferentialOperator":
        c = as_q(c)
        return DifferentialOperator({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def proportional_to(self, other: "DifferentialOperator") -> bool:
        """Equal up to one nonzero rational scale."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.coeffs) != set(other.coeffs):
            return False
        key = next(iter(self.coeffs))
        ratio = self.coeffs[key] / other.coeffs[key]
        return all(v == ratio * other.coeffs[k] for k, v in self.coeffs.items())

    def __repr__(self):
        return "DifferentialOperator(%r)" % ({k: str(v) for k, v in sorted(self.coeffs.items())},)


class ShiftedDifferenceRelation:
    """sum over shifts s of c_s(x) * f(x+s) = 0, coefficients polynomial in x."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: Dict[int, Polynomial] = {}
        if terms:
            for s, p in terms.items():
                if not isinstance(p, Polynomial):
                    p = Polynomial([as_q(p)]) if not isinstance(p, (list, tuple)) else Polynomial(p)
                if p.is_zero():
                    continue
                clean[int(s)] = p
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("ShiftedDifferenceRelation is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    def is_zero(self) -> bool:
        return not self.terms

    def shifts(self):
        return sorted(self.terms)

    def coeff(self, s: int) -> Polynomial:
        return self.terms.get(s, Polynomial.zero())

    def __add__(self, other):
        if not isinstance(other, ShiftedDifferenceRelation):
            return NotImplemented
        out = dict(self.terms)
        for s, p in other.terms.items():
            out[s] = out.get(s, Polynomial.zero()) + p
        return ShiftedDifferenceRelation(out)

    def scaled(self, c) -> "ShiftedDifferenceRelation":
        return ShiftedDifferenceRelation({s: p * as_q(c) for s, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, ShiftedDifferenceRelation):
            return NotImplemented
        return self.terms == other.terms

    def evaluate(self, f, x) -> Fraction:
        """sum c_s(x) f(x+s) for a callable f on exact points."""
        acc = Q(0)
        for s, p in self.terms.items():
            acc += p.eval(x) * f(x + s)
        return acc

    def __repr__(self):
        return "ShiftedDifferenceRelation(%r)" % ({s: str(p) for s, p in sorted(self.terms.items())},)


def falling_product(lam: int, r: int) -> Polynomial:
    """(x+lam-1)(x+lam-2)...(x+lam-r); empty product 1 for r = 0."""
    out = Polynomial.one()
    x = Polynomial.x()
    for i in range(1, r + 1):
        out = out * (x + Polynomial.constant(lam - i))
    return out


def diff_to_difference(op: DifferentialOperator) -> ShiftedDifferenceRelation:
    """Transform each (lam, r, a) term by the integration-by-parts rule."""
    acc: Dict[int, Polynomial] = {}
    for (lam, r), a in op.coeffs.items():
        sign = -1 if r % 2 else 1
        poly = falling_product(lam, r) * (a * sign)
        s = lam - r
        acc[s] = acc.get(s, Polynomial.zero()) + poly
    return ShiftedDifferenceRelation(acc)


def difference_to_diff(rel: ShiftedDifferenceRelation) -> Optional[DifferentialOperator]:
    """Exact preimage under diff_to_difference, or None.

    At one shift s the candidate images (lam = s + r, r = 0..deg c_s) have
    pairwise distinct degrees r, so matching coefficients from the top degree
    down decides existence and uniqueness per shift independently.
    """
    out: Dict[Tuple[int, int], Fraction] = {}
    for s, poly in rel.terms.items():
        residue = poly
        for r in range(poly.degree, -1, -1):
            lam = s + r
            if lam < 0:
                if residue.degree >= r and residue.coeff(r) != 0:
                    return None
                continue
            if residue.degree < r:
                continue
            basis = falling_product(lam, r)
            if r % 2:
                basis = -basis
            c = residue.coeff(r) / basis.coeff(r)
            if c != 0:
                residue = residue - basis * c
                out[(lam, r)] = c
        if not residue.is_zero():
            return None
    return DifferentialOperator(out)


def as_theta_form(rel: ShiftedDifferenceRelation):
    """Embed the relation as a difference form plus a base offset.

    Returns (form, offset) with offset = max(0, -min shift); the form's
    coefficient of T^(s+offset) is c_s(x + offset), so that
    form_apply(form, f, t = x - offset) reproduces sum c_s(x) f(x+s).
    """
    if rel.is_zero():
        return DifferenceForm.zero(), 0
    smin = min(rel.terms)
    offset = max(0, -smin)
    top = max(rel.terms) + offset
    coeffs = [RationalFunction.zero()] * (top + 1)
    for s, p in rel.terms.items():
        coeffs[s + offset] = RationalFunction(p.shift(offset))
    return DifferenceForm(coeffs), offset
