"""Exact arithmetic foundation.

Arbitrary-precision rationals (``fractions.Fraction``), dense univariate
polynomials over Q, reduced rational functions with monic denominator, and
polynomials in an auxiliary variable y whose coefficients are rational
functions of x.  Everything is immutable and every operation is pure.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DivisionByZero, NotSquarefree, PoleAtPoint

Q = Fraction


def as_q(value) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Polynomial:
    """Dense univariate polynomial over Q, coefficients low to high.

    The zero polynomial stores an empty tuple and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def constant(cls, c):
        return cls((as_q(c),))

    @classmethod
    def monomial(cls, c, k):
        return cls((0,) * k + (as_q(c),))

    # -- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Q(0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    # -- ring operations -----------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero()
        # clear denominators once: integer convolution, then one Fraction
        # construction per output coefficient instead of O(d^2) fraction gcds
        d1 = _den_lcm(self.coeffs)
        d2 = _den_lcm(other.coeffs)
        a = [c.numerator * (d1 // c.denominator) for c in self.coeffs]
        b = [c.numerator * (d2 // c.denominator) for c in other.coeffs]
        out = [0] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    out[i + j] += av * bv
        D = d1 * d2
        if D == 1:
            return Polynomial(out)
        return Polynomial([Q(v, D) for v in out])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Polynomial"):
        """Quotient and remainder over Q; raises on zero divisor."""
        if not other.coeffs:
            raise DivisionByZero("polynomial division by zero")
        dq = self.degree - other.degree
        if dq < 0:
            return Polynomial.zero(), self
        rem = list(self.coeffs)
        quot = [Q(0)] * (dq + 1)
        lc = other.coeffs[-1]
        db = other.degree
        for k in range(dq, -1, -1):
            c = rem[k + db] / lc
            if c != 0:
                quot[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        return self.divmod(_as_poly(other))[0]

    def __mod__(self, other):
        return self.divmod(_as_poly(other))[1]

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd over Q.

        Computed by a primitive pseudo-remainder sequence over the integers;
        plain fraction Euclid explodes coefficient sizes on the degree-30+
        inputs the elimination routines produce.
        """
        if not self.coeffs:
            return other.monic() if other.coeffs else other
        if not other.coeffs:
            return self.monic()
        a = _int_coeffs(self.primitive_part())
        b = _int_coeffs(other.primitive_part())
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _int_prem_primitive(a, b)
        g = Polynomial(a)
        return g.monic()

    def monic(self) -> "Polynomial":
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return Polynomial([c / lc for c in self.coeffs])

    # -- calculus-flavoured operations ----------------------------------
    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, k) -> "Polynomial":
        """p(x) -> p(x+k), exact binomial expansion; k may be any rational."""
        k = as_q(k)
        if k == 0 or not self.coeffs:
            return self
        out = [Q(0)] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            kp = Q(1)
            # c*(x+k)^i contributes c*C(i,j)*k^(i-j) to x^j, walking j=i..0
            for j in range(i, -1, -1):
                out[j] += c * comb(i, j) * kp
                kp *= k
        return Polynomial(out)

    def eval(self, x0) -> Fraction:
        x0 = as_q(x0)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def eval_complex(self, z) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        acc = Polynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    def content(self) -> Fraction:
        """Positive rational c with self = c * (primitive integer polynomial)."""
        if not self.coeffs:
            return Q(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = _igcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // _igcd(den_lcm, c.denominator)
        return Q(num_gcd, den_lcm)

    def primitive_part(self) -> "Polynomial":
        """Integer-coefficient primitive polynomial with positive leading coeff."""
        if not self.coeffs:
            return self
        c = self.content()
        p = Polynomial([ci / c for ci in self.coeffs])
        if p.coeffs[-1] < 0:
            p = -p
        return p

    # -- equality / hashing / display -----------------------------------
    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    def __repr__(self):
        return "Polynomial(%r)" % (list(self.coeffs),)

    def __str__(self):
        return format_polynomial(self, "x")


from math import gcd as _igcd  # noqa: E402  (C implementation; signature matches)


def _int_coeffs(p: Polynomial):
    return [c.numerator for c in p.coeffs]


def _den_lcm(coeffs):
    d = 1
    for c in coeffs:
        cd = c.denominator
        if cd != 1:
            d = d * cd // _igcd(d, cd)
    return d


def _int_prem_primitive(a, b):
    """Primitive part of the pseudo-remainder of integer coefficient lists.

    Standard recurrence rem <- lc(b)*rem - top*x^k*b keeps everything in
    integers; the result is content-stripped, which is all the gcd loop
    needs (primitive PRS).
    """
    da, db = len(a) - 1, len(b) - 1
    rem = list(a)
    lc = b[-1]
    for k in range(da - db, -1, -1):
        top = rem[k + db]
        rem = [lc * v for v in rem]
        for j, bv in enumerate(b):
            rem[k + j] -= top * bv
    rem = rem[:db]
    while rem and rem[-1] == 0:
        rem.pop()
    if not rem:
        return rem
    g = 0
    for v in rem:
        g = _igcd(g, v)
    return [v // g for v in rem]


def _as_poly(v):
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial((as_q(v),))
    return NotImplemented


def format_polynomial(p: Polynomial, var: str) -> str:
    """Canonical high-to-low display that the expression grammar re-parses."""
    if not p.coeffs:
        return "0"
    pieces = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        if k == 0:
            body = _fmt_q(abs(c))
        elif abs(c) == 1:
            body = var if k == 1 else "%s^%d" % (var, k)
        else:
            body = "%s*%s" % (_fmt_q(abs(c)), var if k == 1 else "%s^%d" % (var, k))
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


def _fmt_q(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class RationalFunction:
    """Reduced ratio of polynomials over Q with monic denominator.

    Structural equality is valid equality because of the normal form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Polynomial.one() if den is None else _as_poly(den)
        if den is NotImplemented or num is NotImplemented:
            raise TypeError("cannot build RationalFunction from given operands")
        if not den.coeffs:
            raise DivisionByZero("rational function with zero denominator")
        if not num.coeffs:
            den = Polynomial.one()
        elif den.degree == 0:
            lc = den.coeffs[0]
            if lc != 1:
                num = Polynomial([c / lc for c in num.coeffs])
                den = Polynomial.one()
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lc = den.coeffs[-1]
            if lc != 1:
                num = Polynomial([c / lc for c in num.coeffs])
                den = Polynomial([c / lc for c in den.coeffs])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def zero(cls):
        return cls(Polynomial.zero())

    @classmethod
    def one(cls):
        return cls(Polynomial.one())

    @classmethod
    def x(cls):
        return cls(Polynomial.x())

    @classmethod
    def constant(cls, c):
        return cls(Polynomial.constant(c))

    def is_zero(self) -> bool:
        return not self.num.coeffs

    def __bool__(self):
        return bool(self.num.coeffs)

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.degree == 0

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num.coeff(0)

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % (self,))
        return self.num

    # -- field arithmetic -----------------------------------------------
    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_rf(other) + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction.one() / (self ** (-n))
        return RationalFunction(self.num ** n, self.den ** n)

    def inverse(self) -> "RationalFunction":
        return RationalFunction.one() / self

    # -- analysis helpers -------------------------------------------------
    def shift(self, k) -> "RationalFunction":
        return RationalFunction(self.num.shift(k), self.den.shift(k))

    def derivative(self) -> "RationalFunction":
        return RationalFunction(self.num.derivative() * self.den
                                - self.num * self.den.derivative(),
                                self.den * self.den)

    def eval(self, x0) -> Fraction:
        x0 = as_q(x0)
        d = self.den.eval(x0)
        if d == 0:
            raise PoleAtPoint("pole at x = %s" % (x0,))
        return self.num.eval(x0) / d

    def eval_complex(self, z) -> complex:
        d = self.den.eval_complex(z)
        if d == 0:
            raise PoleAtPoint("pole at x = %r" % (z,))
        return self.num.eval_complex(z) / d

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (list(self.num.coeffs), list(self.den.coeffs))

    def __str__(self):
        if self.den.degree == 0:
            return format_polynomial(self.num, "x")
        return "(%s)/(%s)" % (format_polynomial(self.num, "x"),
                              format_polynomial(self.den, "x"))


def _as_rf(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, Polynomial):
        return RationalFunction(v)
    if isinstance(v, (int, Fraction)):
        return RationalFunction(Polynomial((as_q(v),)))
    return NotImplemented


def as_rf(v) -> RationalFunction:
    """_as_rf for non-dunder callers: TypeError naming any other value."""
    r = _as_rf(v)
    if r is NotImplemented:
        raise TypeError("%r is not a rational function of x" % (v,))
    return r


class BivariatePolynomial:
    """Polynomial in y with RationalFunction-in-x coefficients.

    Coefficient list is indexed by the power of y and kept trimmed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rf(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("BivariatePolynomial is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def y(cls):
        return cls((RationalFunction.zero(), RationalFunction.one()))

    @classmethod
    def from_x(cls, r) -> "BivariatePolynomial":
        return cls((r,))

    @property
    def deg_y(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, j: int) -> RationalFunction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return RationalFunction.zero()

    def leading_y(self) -> RationalFunction:
        if not self.coeffs:
            raise DivisionByZero("zero bivariate polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        other = _as_biv(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return BivariatePolynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return BivariatePolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_biv(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_biv(other) + (-self)

    def __mul__(self, other):
        other = _as_biv(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return BivariatePolynomial.zero()
        out = [RationalFunction.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = BivariatePolynomial((RationalFunction.one(),))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, r) -> "BivariatePolynomial":
        r = as_rf(r)
        return BivariatePolynomial([c * r for c in self.coeffs])

    def d_dy(self) -> "BivariatePolynomial":
        return BivariatePolynomial([i * Q(1) * c for i, c in enumerate(self.coeffs)][1:])

    def d_dx(self) -> "BivariatePolynomial":
        return BivariatePolynomial([c.derivative() for c in self.coeffs])

    def divmod_y(self, other: "BivariatePolynomial"):
        """Division in y over the field Q(x)."""
        if not other.coeffs:
            raise DivisionByZero("bivariate division by zero")
        dq = self.deg_y - other.deg_y
        if dq < 0:
            return BivariatePolynomial.zero(), self
        rem = list(self.coeffs)
        quot = [RationalFunction.zero()] * (dq + 1)
        lc = other.coeffs[-1]
        db = other.deg_y
        for k in range(dq, -1, -1):
            c = rem[k + db] / lc
            if not c.is_zero():
                quot[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return BivariatePolynomial(quot), BivariatePolynomial(rem)

    def mod_y(self, other):
        return self.divmod_y(other)[1]

    def eval_y(self, v) -> RationalFunction:
        """Substitute a rational function of x for y."""
        v = as_rf(v)
        acc = RationalFunction.zero()
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def eval_complex(self, x0, y0) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * y0 + c.eval_complex(x0)
        return acc

    def y_coeffs_at(self, x0) -> list:
        """Complex coefficients of y at a complex sample x0 (for root finding)."""
        return [c.eval_complex(x0) for c in self.coeffs]

    def __eq__(self, other):
        other = _as_biv(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("BivariatePolynomial", self.coeffs))

    def __repr__(self):
        return "BivariatePolynomial(%r)" % (list(self.coeffs),)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(self.deg_y, -1, -1):
            c = self.coeff(j)
            if c.is_zero():
                continue
            s = str(c)
            needs_paren = ("+" in s[1:]) or ("-" in s[1:]) or ("/" in s)
            if j == 0:
                parts.append(s)
            else:
                yterm = "y" if j == 1 else "y^%d" % j
                if s == "1":
                    parts.append(yterm)
                elif s == "-1":
                    parts.append("-" + yterm)
                else:
                    parts.append(("(%s)*%s" if needs_paren else "%s*%s") % (s, yterm))
        return " + ".join(parts).replace("+ -", "- ")


def _as_biv(v):
    if isinstance(v, BivariatePolynomial):
        return v
    r = _as_rf(v)
    if r is NotImplemented:
        return NotImplemented
    return BivariatePolynomial((r,))


def resultant_y(f: BivariatePolynomial, g: BivariatePolynomial) -> RationalFunction:
    """Res_y(f, g) over Q(x) via the Euclidean remainder sequence."""
    if f.is_zero() or g.is_zero():
        return RationalFunction.zero()
    if f.deg_y == 0:
        return f.coeffs[0] ** g.deg_y
    if g.deg_y == 0:
        return g.coeffs[0] ** f.deg_y
    r = f.mod_y(g)
    if r.is_zero():
        return RationalFunction.zero()
    sign = -1 if (f.deg_y * g.deg_y) % 2 else 1
    lead = g.leading_y() ** (f.deg_y - r.deg_y)
    return sign * lead * resultant_y(g, r)


def gcd_y(f: BivariatePolynomial, g: BivariatePolynomial) -> BivariatePolynomial:
    """Monic-in-y gcd over the field Q(x)."""
    a, b = f, g
    while b.coeffs:
        a, b = b, a.mod_y(b)
    if a.coeffs:
        a = a.scale(a.leading_y().inverse())
    return a


def bezout_in_y(f: BivariatePolynomial):
    """Bezout pair for f and df/dy with a y-free value.

    Returns (A, B, phi) with A*f + B*f_y = phi, phi the primitive part of
    Res_y(f, f_y) with positive leading coefficient.  Requires f squarefree
    in y (raises NotSquarefree otherwise).
    """
    if f.is_zero() or f.deg_y < 1:
        raise NotSquarefree("need deg_y f >= 1")
    fy = f.d_dy()
    # extended Euclid over Q(x)[y]
    r0, r1 = f, fy
    s0, s1 = _as_biv(RationalFunction.one()), BivariatePolynomial.zero()
    t0, t1 = BivariatePolynomial.zero(), _as_biv(RationalFunction.one())
    while r1.coeffs:
        q, r = r0.divmod_y(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.deg_y > 0:
        raise NotSquarefree("f and f_y share a factor of positive y-degree")
    r_val = r0.coeffs[0]  # s0*f + t0*fy = r_val, y-free
    res = resultant_y(f, fy)
    phi = _primitive_rf(res)
    scale = phi / r_val
    return s0.scale(scale), t0.scale(scale), phi


def _primitive_rf(r: RationalFunction) -> RationalFunction:
    """Primitive-part normalization of a rational function's value.

    For polynomial input this is the primitive integer polynomial with
    positive leading coefficient; a genuine denominator is normalized to
    primitive form as well, with the sign carried by the numerator.
    """
    if r.is_zero():
        return r
    num = r.num.primitive_part()
    if r.den.degree == 0:
        return RationalFunction(num)
    return RationalFunction(num, r.den.primitive_part())
