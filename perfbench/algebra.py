"""Small exact algebra kept apart from the package under test.

The generators use it to build inputs and the oracles use it to check
outputs, so no check goes through thetacalc's own arithmetic, grammar or
printer.  Polynomials are tuples of Fractions, low degree first.
"""
from __future__ import annotations

from fractions import Fraction

Q = Fraction


class Poly:
    """Dense univariate polynomial over Q; immutable, low degree first."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = [v if type(v) is Fraction else Q(v) for v in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.c = tuple(cs)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def deg(self) -> int:
        return len(self.c) - 1

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.c == other.c

    def __repr__(self):
        return "Poly(%s)" % render_poly(self, "x")

    def coeff(self, k: int) -> Fraction:
        return self.c[k] if 0 <= k < len(self.c) else Q(0)

    def __add__(self, other):
        other = as_poly(other)
        n = max(len(self.c), len(other.c))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-v for v in self.c)

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) - self

    def __mul__(self, other):
        other = as_poly(other)
        if not self.c or not other.c:
            return Poly()
        out = [Q(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_poly(other)
        if other.deg != 0:
            raise ValueError("polynomial division by a non-constant")
        return self * (1 / other.c[0])

    def __pow__(self, n: int):
        out = Poly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, v):
        """Horner evaluation; v may be a Fraction, a complex or a Poly."""
        acc = 0
        for a in reversed(self.c):
            acc = acc * v + a
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for a in reversed(self.c):
            acc = acc * inner + a
        return acc

    def shift(self, k) -> "Poly":
        """p(x) -> p(x + k)."""
        return self.compose(Poly((k, 1)))

    def deriv(self) -> "Poly":
        return Poly(i * a for i, a in enumerate(self.c) if i)

    def divmod(self, other: "Poly"):
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        quot = [Q(0)] * max(len(rem) - len(other.c) + 1, 0)
        lc = other.c[-1]
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + other.deg] / lc
            quot[k] = q
            if q:
                for j, b in enumerate(other.c):
                    rem[k + j] -= q * b
        return Poly(quot), Poly(rem)


def as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly((v,))


class Frac:
    """Unreduced quotient num/den of polynomials; enough for identity checks."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = as_poly(num)
        self.den = as_poly(1 if den is None else den)
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    def __add__(self, o):
        o = as_frac(o)
        return Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __sub__(self, o):
        return self + (-as_frac(o))

    def __rsub__(self, o):
        return as_frac(o) - self

    def __mul__(self, o):
        o = as_frac(o)
        return Frac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = as_frac(o)
        return Frac(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int):
        return Frac(self.num ** n, self.den ** n)

    def __eq__(self, o):
        o = as_frac(o)
        return self.num * o.den == o.num * self.den

    def __call__(self, v):
        return self.num(v) / self.den(v)

    def as_poly(self) -> Poly:
        q, r = self.num.divmod(self.den)
        if r:
            raise ValueError("not a polynomial")
        return q


def as_frac(v) -> Frac:
    return v if isinstance(v, Frac) else Frac(v)


# -- expressions -----------------------------------------------------------
#
# expr := term (("+"|"-") term)*     term := unary (("*"|"/") unary)*
# unary := "-" unary | power          power := atom ("^" uint)?
# atom := uint | name | "(" expr ")"

def _tokens(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("n", int(text[i:j])))
            i = j
        elif ch.isalpha():
            out.append(("v", ch))
            i += 1
        elif ch in "+-*/^()":
            out.append((ch, ch))
            i += 1
        else:
            raise ValueError("bad character %r in %r" % (ch, text))
    out.append(("$", None))
    return out


def parse_expr(text: str):
    """Nested-tuple AST of an arithmetic expression in one-letter names."""
    toks = _tokens(text)
    pos = [0]

    def peek():
        return toks[pos[0]][0]

    def take():
        tok = toks[pos[0]]
        pos[0] += 1
        return tok

    def expr():
        node = term()
        while peek() in "+-":
            node = (take()[0], node, term())
        return node

    def term():
        node = unary()
        while peek() in "*/":
            node = (take()[0], node, unary())
        return node

    def unary():
        if peek() == "-":
            take()
            return ("neg", unary())
        node = atom()
        if peek() == "^":
            take()
            kind, val = take()
            if kind != "n":
                raise ValueError("bad exponent in %r" % text)
            node = ("^", node, val)
        return node

    def atom():
        kind, val = take()
        if kind == "n":
            return ("n", val)
        if kind == "v":
            return ("v", val)
        if kind == "(":
            node = expr()
            if take()[0] != ")":
                raise ValueError("unbalanced parentheses in %r" % text)
            return node
        raise ValueError("unexpected %r in %r" % (val, text))

    node = expr()
    if peek() != "$":
        raise ValueError("trailing input in %r" % text)
    return node


def evaluate(node, env, const=Q):
    """Evaluate an AST; env maps names to values, const lifts integers."""
    kind = node[0]
    if kind == "n":
        return const(node[1])
    if kind == "v":
        return env[node[1]]
    if kind == "neg":
        return -evaluate(node[1], env, const)
    if kind == "^":
        return evaluate(node[1], env, const) ** node[2]
    a = evaluate(node[1], env, const)
    b = evaluate(node[2], env, const)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    return a / b


def value_at(text: str, **env) -> Fraction:
    """Exact value of an expression at rational points; ZeroDivisionError at poles."""
    return evaluate(parse_expr(text), {k: Q(v) for k, v in env.items()})


def compile_expr(text: str, var: str = "x"):
    """Function evaluating the expression exactly at one rational point."""
    node = parse_expr(text)
    return lambda v: evaluate(node, {var: Q(v)})


def frac_of(text: str, var: str = "x") -> Frac:
    return evaluate(parse_expr(text), {var: Frac(Poly.x())}, const=Frac)


def poly_of(text: str, var: str = "x") -> Poly:
    node = parse_expr(text)
    try:
        return evaluate(node, {var: Poly.x()}, const=as_poly)
    except ValueError:       # divides by a polynomial: go through quotients
        return evaluate(node, {var: Frac(Poly.x())}, const=Frac).as_poly()


# -- rendering into the package's input grammar ----------------------------------

def render_q(q: Fraction) -> str:
    q = Q(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def render_poly(p: Poly, var: str = "x") -> str:
    if not p.c:
        return "0"
    pieces = []
    for k in range(p.deg, -1, -1):
        a = p.c[k]
        if a == 0:
            continue
        mag = abs(a)
        power = "" if k == 0 else (var if k == 1 else "%s^%d" % (var, k))
        if not power:
            body = render_q(mag)
        elif mag == 1:
            body = power
        else:
            body = "%s*%s" % (render_q(mag), power)
        if not pieces:
            pieces.append(("-" if a < 0 else "") + body)
        else:
            pieces.append((" - " if a < 0 else " + ") + body)
    return "".join(pieces)


# -- linear algebra over Q ---------------------------------------------------------

def det(rows) -> Fraction:
    """Determinant by Gaussian elimination with Fraction pivots."""
    m = [[Q(v) for v in r] for r in rows]
    n = len(m)
    out = Q(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Q(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def rank(rows) -> int:
    m = [[Q(v) for v in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r

