"""Linear difference forms in the shift operator.

A form F = sum_k a_k(x) * T^k with rational-function coefficients acts on a
grid function f by F(f)(t) = sum_k a_k(t) f(t+k).  Multiplication is
noncommutative: the coefficient of T^(h+k) in A*B accumulates
a_h(x) * b_k(x+h), which encodes T a(x) = a(x+1) T.
"""
from __future__ import annotations

from fractions import Fraction
from .errors import (NoExactRoots, OutOfWindow, ZeroDivisor, ZeroPolynomial)
from .exact import Polynomial, Q, RationalFunction, as_q, as_rf, _as_rf

NEG_INF = float("-inf")


class GridFunction:
    """Finite window of exact samples f(base), f(base+1), ..."""

    __slots__ = ("base", "values")

    def __init__(self, base: int, values):
        vals = tuple(as_q(v) for v in values)
        if not vals:
            raise ValueError("grid function needs at least one sample")
        object.__setattr__(self, "base", int(base))
        object.__setattr__(self, "values", vals)

    def __setattr__(self, *a):
        raise AttributeError("GridFunction is immutable")

    @classmethod
    def sample(cls, fn, base: int, count: int) -> "GridFunction":
        return cls(base, [fn(base + i) for i in range(count)])

    @property
    def last(self) -> int:
        return self.base + len(self.values) - 1

    def __call__(self, t: int) -> Fraction:
        i = t - self.base
        if i < 0 or i >= len(self.values):
            raise OutOfWindow("no sample at t = %d (window %d..%d)"
                              % (t, self.base, self.last))
        return self.values[i]

    def shifted(self, k: int) -> "GridFunction":
        """Samples of t -> f(t+k) on the correspondingly moved base."""
        return GridFunction(self.base - k, self.values)

    def scaled(self, c) -> "GridFunction":
        c = as_q(c)
        return GridFunction(self.base, [c * v for v in self.values])

    def __repr__(self):
        return "GridFunction(%d, %r)" % (self.base, [str(v) for v in self.values])


class DifferenceForm:
    """Operator polynomial sum a_k(x) T^k, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rf(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("DifferenceForm is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((RationalFunction.one(),))

    @classmethod
    def theta(cls, power: int = 1):
        return cls((RationalFunction.zero(),) * power + (RationalFunction.one(),))

    @classmethod
    def from_scalar(cls, r):
        return cls((r,))

    @classmethod
    def from_constant_coeffs(cls, consts):
        """Constant-coefficient form from a low-to-high list of rationals."""
        return cls([RationalFunction.constant(c) for c in consts])

    @property
    def order(self):
        """Highest power with nonzero coefficient; -inf for the zero form."""
        if not self.coeffs:
            return NEG_INF
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, k: int) -> RationalFunction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RationalFunction.zero()

    def leading(self) -> RationalFunction:
        if not self.coeffs:
            raise ZeroDivisor("zero form has no leading coefficient")
        return self.coeffs[-1]

    def constant_coeff_vector(self):
        """Low-to-high Fractions, valid only for constant-coefficient forms."""
        return [c.as_constant() for c in self.coeffs]

    # ----------------------------------------------------------------- ring
    def __add__(self, other):
        other = _as_form(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return DifferenceForm([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return DifferenceForm([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_form(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_form(other) + (-self)

    def __mul__(self, other):
        other = _as_form(other)
        if other is NotImplemented:
            return NotImplemented
        return form_mul(self, other)

    def __rmul__(self, other):
        other = _as_form(other)
        if other is NotImplemented:
            return NotImplemented
        return form_mul(other, self)

    def __pow__(self, n: int):
        result = DifferenceForm.one()
        base = self
        while n:
            if n & 1:
                result = form_mul(result, base)
            base = form_mul(base, base)
            n >>= 1
        return result

    def __eq__(self, other):
        other = _as_form(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("DifferenceForm", self.coeffs))

    def __repr__(self):
        return "DifferenceForm(%r)" % (list(self.coeffs),)

    def __str__(self):
        from .expr import format_form
        return format_form(self)


def _as_form(v):
    if isinstance(v, DifferenceForm):
        return v
    r = _as_rf(v)
    if r is NotImplemented:
        return NotImplemented
    return DifferenceForm((r,))


def form_apply(F: DifferenceForm, f: GridFunction, t: int) -> Fraction:
    """Pointwise action sum_k a_k(t) f(t+k)."""
    acc = Q(0)
    for k, a in enumerate(F.coeffs):
        if a.is_zero():
            continue
        acc += a.eval(t) * f(t + k)
    return acc


def form_mul(A: DifferenceForm, B: DifferenceForm) -> DifferenceForm:
    """Noncommutative product: A*B maps f to A(B(f))."""
    if A.is_zero() or B.is_zero():
        return DifferenceForm.zero()
    out = [RationalFunction.zero()] * (len(A.coeffs) + len(B.coeffs) - 1)
    for h, a in enumerate(A.coeffs):
        if a.is_zero():
            continue
        for k, b in enumerate(B.coeffs):
            if b.is_zero():
                continue
            out[h + k] = out[h + k] + a * b.shift(h)
    return DifferenceForm(out)


def form_divrem(A: DifferenceForm, B: DifferenceForm):
    """Left division A = Gamma*B + R with order(R) < order(B).

    Uniqueness follows because the leading coefficient of B is a nonzero
    rational function, hence so is every shift of it.
    """
    if B.is_zero():
        raise ZeroDivisor("division by the zero form")
    gamma_coeffs = {}
    rem = A
    n = B.order
    lead_b = B.leading()
    while not rem.is_zero() and rem.order >= n:
        i = rem.order - n
        c = rem.leading() / lead_b.shift(i)
        gamma_coeffs[i] = c
        step = DifferenceForm([RationalFunction.zero()] * i + [c])
        rem = rem - form_mul(step, B)
        if not rem.is_zero() and rem.order >= n + i:
            raise AssertionError("division failed to reduce order")
    top = max(gamma_coeffs) if gamma_coeffs else -1
    gamma = DifferenceForm([gamma_coeffs.get(i, RationalFunction.zero())
                            for i in range(top + 1)])
    return gamma, rem


def ruffini_divide(A: DifferenceForm, gamma) -> tuple:
    """Quotient and remainder of A by (T - gamma) via the shortcut cascade.

    beta_{m-1} = alpha_m, then beta_{k-1} = alpha_k + beta_k * gamma(x+k);
    the remainder is alpha_0 + beta_0 * gamma.
    """
    gamma = as_rf(gamma)
    if A.is_zero():
        return DifferenceForm.zero(), RationalFunction.zero()
    m = A.order
    if m == 0:
        return DifferenceForm.zero(), A.coeff(0)
    beta = [RationalFunction.zero()] * m
    beta[m - 1] = A.coeff(m)
    for k in range(m - 1, 0, -1):
        beta[k - 1] = A.coeff(k) + beta[k] * gamma.shift(k)
    remainder = A.coeff(0) + beta[0] * gamma
    return DifferenceForm(beta), remainder


def form_divides(B: DifferenceForm, A: DifferenceForm) -> bool:
    """True iff the left remainder of A by B vanishes."""
    if B.is_zero():
        raise ZeroDivisor("zero form divides nothing")
    _, rem = form_divrem(A, B)
    return rem.is_zero()


def is_root(F: DifferenceForm, omega: GridFunction, window) -> bool:
    """True iff F annihilates omega at every point of the window."""
    for t in window:
        if form_apply(F, omega, t) != 0:
            return False
    return True


# --------------------------------------------------------------------------
# constant-coefficient machinery (symbolic solutions, partial fractions)
# --------------------------------------------------------------------------

class BasisSolution:
    """Symbolic solution t^j * r^t of a constant-coefficient recurrence."""

    __slots__ = ("root", "logpow")

    def __init__(self, root, logpow: int):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "logpow", int(logpow))

    def __setattr__(self, *a):
        raise AttributeError("BasisSolution is immutable")

    def __call__(self, t: int):
        tp = self.root ** t if t >= 0 or self.root != 0 else None
        if tp is None:
            raise ValueError("negative power of zero root")
        return (t ** self.logpow) * tp

    def __eq__(self, other):
        return (isinstance(other, BasisSolution)
                and self.root == other.root and self.logpow == other.logpow)

    def __repr__(self):
        return "BasisSolution(root=%s, logpow=%d)" % (self.root, self.logpow)


def rational_roots(p: Polynomial):
    """All rational roots with multiplicities and the rootless cofactor.

    Returns (roots, rest) where roots is a list of (Fraction, multiplicity)
    sorted by root and rest has no rational roots.
    """
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has no root structure")
    work = p.primitive_part()
    roots = {}
    changed = True
    while work.degree > 0 and changed:
        changed = False
        for cand in _rational_root_candidates(work):
            if work.eval(cand) == 0:
                lin = Polynomial((-cand, 1))
                while True:
                    q, r = work.divmod(lin)
                    if r.is_zero():
                        roots[cand] = roots.get(cand, 0) + 1
                        work = q
                    else:
                        break
                work = work.primitive_part() if work.degree > 0 else work
                changed = True
                break
    out = sorted(roots.items())
    return out, work


def _rational_root_candidates(p: Polynomial):
    c0 = p.coeff(0)
    if c0 == 0:
        yield Q(0)
        return
    a0 = abs(c0.numerator)
    an = abs(p.leading().numerator)
    for pnum in _divisors(a0):
        for pden in _divisors(an):
            yield Q(pnum, pden)
            yield Q(-pnum, pden)


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def const_coeff_basis(charpoly: Polynomial, exact: bool = True, tol: float = 1e-10):
    """Basis {t^j r^t : 0 <= j < mult(r)} for the recurrence with this
    characteristic polynomial.

    Exact mode requires every root rational (NoExactRoots otherwise); numeric
    mode clusters numpy roots at the given tolerance.
    """
    if charpoly.is_zero() or charpoly.degree < 1:
        raise ZeroPolynomial("characteristic polynomial must have degree >= 1")
    if exact:
        roots, rest = rational_roots(charpoly)
        if rest.degree > 0:
            raise NoExactRoots("irrational factor remains: %s" % (rest,))
        return [BasisSolution(r, j) for r, mult in roots for j in range(mult)]
    import numpy as np
    rts = np.roots([complex(c) for c in reversed(charpoly.coeffs)])
    clusters = []
    for z in sorted(rts, key=lambda w: (w.real, w.imag)):
        for c in clusters:
            if abs(c[0] - z) <= tol * max(1.0, abs(z)):
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    return [BasisSolution(z, j) for z, mult in clusters for j in range(mult)]


class PartialFractionBlock:
    """Principal part of 1/F at one root: sum_k residues[k-1]/(z-root)^k."""

    __slots__ = ("root", "multiplicity", "residues")

    def __init__(self, root, multiplicity, residues):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "multiplicity", int(multiplicity))
        object.__setattr__(self, "residues", tuple(residues))

    def __setattr__(self, *a):
        raise AttributeError("PartialFractionBlock is immutable")

    def eval(self, z):
        z = as_q(z)
        acc = Q(0)
        for k, r in enumerate(self.residues, start=1):
            acc += r / (z - self.root) ** k
        return acc

    def __repr__(self):
        return ("PartialFractionBlock(root=%s, m=%d, residues=%r)"
                % (self.root, self.multiplicity, [str(r) for r in self.residues]))


def cauchy_partial_fractions(F: Polynomial):
    """Residue data of 1/F for a polynomial splitting over Q.

    At a root of multiplicity m the coefficient of 1/(z-root)^k is the
    (m-k)-th Taylor coefficient of eps^m / F(root+eps), computed by exact
    power-series inversion; for simple roots this is 1/F'(root).
    """
    if F.is_zero():
        raise ZeroPolynomial("cannot decompose 1/0")
    if F.degree == 0:
        return []
    roots, rest = rational_roots(F)
    if rest.degree > 0:
        raise NoExactRoots("partial fractions need all roots rational; left %s" % (rest,))
    # recover the true leading scale lost by primitive_part bookkeeping
    lc = F.leading()
    blocks = []
    for root, mult in roots:
        shifted = F.shift(root)            # F(root + eps)
        series = list(shifted.coeffs[mult:])  # G with F(root+eps) = eps^m G(eps)
        inv = _series_inverse(series, mult)   # 1/G to order m-1
        residues = [inv[mult - k] for k in range(1, mult + 1)]
        blocks.append(PartialFractionBlock(root, mult, residues))
    # internal consistency: degrees must exhaust F (monic scaling handled by F itself)
    total = sum(b.multiplicity for b in blocks)
    assert total == F.degree, (total, F.degree, lc)
    return blocks


def _series_inverse(g, n):
    """First n coefficients of 1/(g0 + g1 eps + ...), g0 != 0, exact."""
    g0 = g[0]
    if g0 == 0:
        raise ZeroPolynomial("series with zero constant term is not invertible")
    inv = [Q(1) / g0]
    for k in range(1, n):
        acc = Q(0)
        for j in range(1, k + 1):
            gj = g[j] if j < len(g) else Q(0)
            acc += gj * inv[k - j]
        inv.append(-acc / g0)
    return inv


def partial_fraction_eval(blocks, z) -> Fraction:
    """Evaluate the reconstruction sum at a rational sample."""
    z = as_q(z)
    acc = Q(0)
    for b in blocks:
        acc += b.eval(z)
    return acc
