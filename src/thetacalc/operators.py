"""Functional calculus on truncated polynomial spaces.

Operators are exact matrices on the monomial basis x^0..x^N together with a
reliable input degree: inputs of degree <= valid_degree are mapped exactly,
higher columns would overflow the truncation and are excluded from every
claim.  The functional derivative A'(phi) = A(x*phi) - x*A(phi), the shift
operator as its fixed point, substitutions, the generalized multiplication
identity, the operator determinant, and symbolic operator ODEs all live
here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .errors import (CandidateNotARoot, NotASolution, NotClassifiable,
                     TruncationTooSmall)
from .exact import Polynomial, Q, RationalFunction, as_q, as_rf
from .forms import DifferenceForm
from .linalg import ring_det

DEFAULT_TRUNCATION = 16


class TruncatedOperator:
    """Exact matrix of a linear operator on polynomials of degree <= N."""

    __slots__ = ("N", "matrix", "valid_degree", "label")

    def __init__(self, N: int, matrix, valid_degree: int, label: str = ""):
        if valid_degree < 0:
            raise TruncationTooSmall(
                "operator %r leaves no valid input degree at N=%d" % (label, N))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in matrix))
        object.__setattr__(self, "valid_degree", valid_degree)
        object.__setattr__(self, "label", label)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedOperator is immutable")

    # -- construction -----------------------------------------------------
    @classmethod
    def from_monomial_action(cls, N: int, action, label: str = "") -> "TruncatedOperator":
        """Build from an exact map j -> A(x^j) (a Polynomial)."""
        cols = []
        valid = N
        for j in range(N + 1):
            img = action(j)
            if img.degree > N and valid >= j:
                valid = j - 1
            cols.append([img.coeff(i) for i in range(N + 1)])
        matrix = [[cols[j][i] for j in range(N + 1)] for i in range(N + 1)]
        return cls(N, matrix, valid, label)

    @classmethod
    def zero(cls, N: int) -> "TruncatedOperator":
        z = Q(0)
        return cls(N, [[z] * (N + 1) for _ in range(N + 1)], N, "0")

    @classmethod
    def identity(cls, N: int) -> "TruncatedOperator":
        return cls.from_monomial_action(N, lambda j: Polynomial.monomial(1, j), "I")

    @classmethod
    def theta(cls, N: int) -> "TruncatedOperator":
        xp1 = Polynomial([1, 1])
        return cls.from_monomial_action(N, lambda j: xp1 ** j, "T")

    @classmethod
    def derivative_d(cls, N: int) -> "TruncatedOperator":
        return cls.from_monomial_action(
            N, lambda j: Polynomial.monomial(j, j - 1) if j else Polynomial.zero(), "D")

    @classmethod
    def multiplication(cls, g: Polynomial, N: int) -> "TruncatedOperator":
        return cls.from_monomial_action(
            N, lambda j: g * Polynomial.monomial(1, j), "M[%s]" % g)

    @classmethod
    def substitution(cls, mu: Polynomial, N: int) -> "TruncatedOperator":
        return cls.from_monomial_action(N, lambda j: mu ** j, "S[%s]" % mu)

    @classmethod
    def from_difference_form(cls, form: DifferenceForm, N: int) -> "TruncatedOperator":
        coeffs = [c.as_polynomial() for c in form.coeffs]

        def action(j):
            acc = Polynomial.zero()
            for k, a in enumerate(coeffs):
                acc = acc + a * (Polynomial([k, 1]) ** j)
            return acc
        return cls.from_monomial_action(N, action, "form")

    @classmethod
    def from_differential(cls, coeffs: Sequence[Polynomial], N: int) -> "TruncatedOperator":
        """sum_k coeffs[k](x) * D^k."""

        def action(j):
            acc = Polynomial.zero()
            for k, p in enumerate(coeffs):
                if k > j:
                    break
                fall = 1
                for i in range(k):
                    fall *= (j - i)
                acc = acc + p * Polynomial.monomial(fall, j - k)
            return acc
        return cls.from_monomial_action(N, action, "diffop")

    # -- queries ------------------------------------------------------------
    def column_poly(self, j: int) -> Polynomial:
        return Polynomial([self.matrix[i][j] for i in range(self.N + 1)])

    def column_degree(self, j: int) -> int:
        return self.column_poly(j).degree

    def apply(self, p: Polynomial) -> Polynomial:
        if p.degree > self.valid_degree:
            raise TruncationTooSmall(
                "input degree %d exceeds reliable degree %d of %r"
                % (p.degree, self.valid_degree, self.label))
        acc = Polynomial.zero()
        for j, c in enumerate(p.coeffs):
            if c != 0:
                acc = acc + self.column_poly(j) * c
        return acc

    def is_zero_on_reliable(self) -> bool:
        return all(self.column_poly(j).is_zero() for j in range(self.valid_degree + 1))

    def equal_on_reliable(self, other: "TruncatedOperator") -> bool:
        d = min(self.valid_degree, other.valid_degree)
        if d < 0:
            raise TruncationTooSmall("no common reliable block")
        return all(self.column_poly(j) == other.column_poly(j) for j in range(d + 1))

    # -- algebra --------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        if self.N != other.N:
            raise ValueError("mismatched truncations")
        valid = min(self.valid_degree, other.valid_degree)
        m = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)]
        return TruncatedOperator(self.N, m, valid, "(%s + %s)" % (self.label, other.label))

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        return self + (-other)

    def scaled(self, c) -> "TruncatedOperator":
        c = as_q(c)
        m = [[c * v for v in row] for row in self.matrix]
        return TruncatedOperator(self.N, m, self.valid_degree, "%s*%s" % (c, self.label))

    def compose(self, other: "TruncatedOperator") -> "TruncatedOperator":
        """self o other: other acts first."""
        if self.N != other.N:
            raise ValueError("mismatched truncations")
        valid = -1
        for d in range(min(other.valid_degree, self.N) + 1):
            if other.column_degree(d) <= self.valid_degree:
                valid = d
            else:
                break
        n1 = self.N + 1
        m = [[sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n1))
              for j in range(n1)] for i in range(n1)]
        return TruncatedOperator(self.N, m, valid,
                                 "(%s o %s)" % (self.label, other.label))

    def functional_derivative(self) -> "TruncatedOperator":
        """A'(x^j) = A(x^(j+1)) - x * A(x^j), on the shrunk reliable block."""
        valid = -1
        for j in range(self.valid_degree):
            if self.column_degree(j) <= self.N - 1:
                valid = j
            else:
                break
        n1 = self.N + 1
        m = [[Q(0)] * n1 for _ in range(n1)]
        for j in range(self.N):
            col_next = [self.matrix[i][j + 1] for i in range(n1)]
            col_up = [Q(0)] + [self.matrix[i][j] for i in range(n1 - 1)]
            for i in range(n1):
                m[i][j] = col_next[i] - col_up[i]
        return TruncatedOperator(self.N, m, valid, "%s'" % self.label)

    def derivative_iterate(self, k: int) -> "TruncatedOperator":
        op = self
        for _ in range(k):
            op = op.functional_derivative()
        return op

    def __repr__(self):
        return ("TruncatedOperator(N=%d, valid=%d, label=%r)"
                % (self.N, self.valid_degree, self.label))


def functional_derivative(A: TruncatedOperator) -> TruncatedOperator:
    return A.functional_derivative()


def solve_A_prime_equals_A(A: TruncatedOperator) -> Polynomial:
    """If A' = A on the reliable block, return eps with A = M_eps o theta.

    Certifies A(x^n) = (x+1)^n * eps(x) for every reliable n; raises
    NotASolution otherwise.
    """
    Ap = A.functional_derivative()
    if not Ap.equal_on_reliable(A):
        raise NotASolution("A' differs from A on the reliable block")
    eps = A.column_poly(0)
    xp1 = Polynomial([1, 1])
    for n in range(min(A.valid_degree, Ap.valid_degree) + 1):
        if A.column_poly(n) != (xp1 ** n) * eps:
            raise NotASolution("column %d is not (x+1)^n * eps" % n)
    return eps


def check_multiplication_identity(A: TruncatedOperator, alpha, xi, pairs) -> bool:
    """Exact check of
    A(uv) = xi(alpha*xi - 1) uv + (1 - alpha*xi)(u A(v) + v A(u)) + alpha A(u) A(v)
    for each (u, v) pair of polynomials inside the reliable block.
    """
    alpha = as_rf(alpha)
    xi = as_rf(xi)
    for u, v in pairs:
        prod = u * v
        if prod.degree > A.valid_degree or max(u.degree, v.degree) > A.valid_degree:
            raise TruncationTooSmall("test pair leaves the reliable block")
        left = RationalFunction(A.apply(prod))
        Au = RationalFunction(A.apply(u))
        Av = RationalFunction(A.apply(v))
        u_rf = RationalFunction(u)
        v_rf = RationalFunction(v)
        right = (xi * (alpha * xi - 1) * u_rf * v_rf
                 + (1 - alpha * xi) * (u_rf * Av + v_rf * Au)
                 + alpha * Au * Av)
        if left != right:
            return False
    return True


@dataclass(frozen=True)
class MultSpec:
    """Recovered data of an operator obeying the multiplication identity."""
    alpha: RationalFunction
    xi: RationalFunction
    xi1: RationalFunction
    mu: Optional[Polynomial]
    kind: str  # 'derivation-like' or 'substitution-like'


def classify_mult_operator(A: TruncatedOperator) -> MultSpec:
    """Recover (alpha, xi), decide the canonical family, and certify it.

    alpha is solved from the identity on the pair (x, x):
    A(x^2) + xi*x^2 - 2x*xi1 = alpha (xi*x - xi1)^2.
    """
    if A.valid_degree < 2:
        raise TruncationTooSmall("classification probes need degree 2 inputs")
    x_rf = RationalFunction.x()
    xi = RationalFunction(A.column_poly(0))
    xi1 = RationalFunction(A.column_poly(1))
    Ax2 = RationalFunction(A.column_poly(2))
    den = (xi * x_rf - xi1) ** 2
    if den.is_zero():
        alpha = RationalFunction.zero()
    else:
        alpha = (Ax2 + xi * x_rf * x_rf - 2 * x_rf * xi1) / den
    if alpha.is_zero():
        # derivation-like: A = (xi1 - xi*x) D + M_xi
        lead = xi1 - xi * x_rf
        for j in range(A.valid_degree + 1):
            expect = lead * _monomial_rf(j - 1) * j + xi * _monomial_rf(j)
            if RationalFunction(A.column_poly(j)) != expect:
                raise NotClassifiable("alpha = 0 but not of the derivation form")
        return MultSpec(alpha=RationalFunction.zero(), xi=xi, xi1=xi1, mu=None,
                        kind="derivation-like")
    mu_rf = alpha * (xi1 - xi * x_rf) + x_rf
    if not mu_rf.is_polynomial():
        raise NotClassifiable("recovered substitution target is not polynomial")
    mu = mu_rf.as_polynomial()
    inv_alpha = alpha.inverse()
    for j in range(A.valid_degree + 1):
        expect = inv_alpha * RationalFunction(mu ** j) + (xi - inv_alpha) * _monomial_rf(j)
        if RationalFunction(A.column_poly(j)) != expect:
            raise NotClassifiable("alpha != 0 but not of the substitution form")
    return MultSpec(alpha=alpha, xi=xi, xi1=xi1, mu=mu, kind="substitution-like")


def _monomial_rf(k: int) -> RationalFunction:
    if k < 0:
        return RationalFunction.zero()
    return RationalFunction(Polynomial.monomial(1, k))


def derivation_like(xi: Polynomial, xi1: Polynomial, N: int) -> TruncatedOperator:
    """(xi1 - xi*x) D + M_xi, the alpha = 0 canonical family."""
    lead = xi1 - xi * Polynomial.x()
    D = TruncatedOperator.derivative_d(N)
    return (TruncatedOperator.multiplication(lead, N).compose(D)
            + TruncatedOperator.multiplication(xi, N))


def substitution_like(weight: Polynomial, mu: Polynomial, xi: Polynomial,
                      N: int) -> TruncatedOperator:
    """M_weight o S_mu + M_(xi - weight), the alpha != 0 family with
    alpha = 1/weight (weight a nonzero polynomial)."""
    if weight.is_zero():
        raise ValueError("weight must be nonzero")
    return (TruncatedOperator.multiplication(weight, N)
            .compose(TruncatedOperator.substitution(mu, N))
            + TruncatedOperator.multiplication(xi - weight, N))


def grevy_determinant(ops: Sequence[TruncatedOperator]) -> TruncatedOperator:
    """Operator determinant of [ops_j^(i)], i = 0..n-1.

    Each permutation term is ((t_0 o t_1) o ...) o t_(n-1), row 0 outermost:
    ring_det gets the rows reversed, which multiplies the determinant by
    (-1)^(n(n-1)/2).  Vanishing of every reliable column certifies linear
    dependence of the family in the symbolic-ODE sense.
    """
    n = len(ops)
    if n == 0:
        raise ValueError("need at least one operator")
    table = [[op.derivative_iterate(i) for op in ops] for i in range(n)]
    try:
        det = ring_det(table[::-1], lambda entry, minor: minor.compose(entry))
    except TruncationTooSmall:
        raise TruncationTooSmall(
            "operator determinant of %d operators leaves no valid input degree "
            "at N=%d" % (n, ops[0].N)) from None
    return -det if n * (n - 1) // 2 % 2 else det


@dataclass(frozen=True)
class NsymbReport:
    candidate: Polynomial
    characteristic_value: RationalFunction
    operator_is_zero: bool
    checked_degree: int


def nsymb_solution_check(lambdas: Sequence[RationalFunction],
                         a_candidates: Sequence[Polynomial],
                         N: int = DEFAULT_TRUNCATION) -> List[NsymbReport]:
    """Verify candidate substitution targets against a symbolic operator ODE.

    lambdas = (lambda_0 .. lambda_n) defines
    lambda_0 A^(n) + ... + lambda_n A = 0 with characteristic function
    f(z) = sum lambda_k (z - x)^(n-k).  Each candidate a(x) must satisfy
    f(a(x)) = 0 exactly (CandidateNotARoot otherwise); then A = S_a is
    substituted and the operator combination must vanish on the reliable
    block, after clearing the lambda denominators.
    """
    lambdas = [as_rf(v) for v in lambdas]
    n = len(lambdas) - 1
    if n < 1:
        raise ValueError("need order >= 1")
    x_rf = RationalFunction.x()
    reports = []
    den_lcm = Polynomial.one()
    for lam in lambdas:
        g = den_lcm.gcd(lam.den)
        den_lcm = den_lcm * lam.den.divmod(g)[0]
    cleared = [(lam * RationalFunction(den_lcm)).as_polynomial() for lam in lambdas]
    for a in a_candidates:
        shift = RationalFunction(a) - x_rf
        fval = RationalFunction.zero()
        for k, lam in enumerate(lambdas):
            fval = fval + lam * shift ** (n - k)
        if not fval.is_zero():
            raise CandidateNotARoot(
                "f(a) = %s is nonzero for candidate %s" % (fval, a))
        S = TruncatedOperator.substitution(a, N)
        acc = None
        for k, pk in enumerate(cleared):
            term = (TruncatedOperator.multiplication(pk, N)
                    .compose(S.derivative_iterate(n - k)))
            acc = term if acc is None else acc + term
        reports.append(NsymbReport(candidate=a,
                                   characteristic_value=fval,
                                   operator_is_zero=acc.is_zero_on_reliable(),
                                   checked_degree=acc.valid_degree))
    return reports
