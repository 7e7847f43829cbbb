"""Shared randomized-input helpers (all deterministic via explicit seeds)."""
import operator
import random
from fractions import Fraction
from itertools import permutations

import pytest

from thetacalc import linalg
from thetacalc.exact import BivariatePolynomial, Polynomial, RationalFunction


def rand_fraction(rng, height=9, nonzero=False):
    while True:
        num = rng.randint(-height, height)
        den = rng.randint(1, height)
        q = Fraction(num, den)
        if q != 0 or not nonzero:
            return q


def rand_poly(rng, max_deg=3, height=9, nonzero=False):
    deg = rng.randint(0, max_deg)
    while True:
        p = Polynomial([rng.randint(-height, height) for _ in range(deg + 1)])
        if not p.is_zero() or not nonzero:
            return p


def rand_ratfunc(rng, max_deg=3, height=9, nonzero=False):
    num = rand_poly(rng, max_deg, height, nonzero=nonzero)
    den = rand_poly(rng, max_deg, height, nonzero=True)
    r = RationalFunction(num, den)
    if nonzero and r.is_zero():
        return rand_ratfunc(rng, max_deg, height, nonzero=True)
    return r


def rand_form(rng, max_order=5, coeff_deg=3, height=9):
    from thetacalc.forms import DifferenceForm
    order = rng.randint(0, max_order)
    coeffs = [rand_ratfunc(rng, coeff_deg, height) for _ in range(order)]
    coeffs.append(rand_ratfunc(rng, coeff_deg, height, nonzero=True))
    return DifferenceForm(coeffs)


def rand_matrix(rng, n=3, height=5):
    return [[Fraction(rng.randint(-height, height)) for _ in range(n)]
            for _ in range(n)]


def rand_bivariate(rng, deg_y=2, deg_x=2, height=5):
    rows = []
    for j in range(deg_y + 1):
        rows.append(RationalFunction(rand_poly(rng, deg_x, height)))
    if rows[-1].is_zero():
        rows[-1] = RationalFunction.one()
    return BivariatePolynomial(rows)


def leibniz_det(rows, mul=operator.mul):
    """Permutation-sum determinant: the O(n!) oracle for linalg.ring_det.

    Each term folds its factors in row order,
    mul(...mul(rows[0][p0], rows[1][p1])..., rows[n-1][p(n-1)]), so a
    noncommutative mul sees them in the order the determinant defines.
    """
    n = len(rows)
    acc = None
    for perm in permutations(range(n)):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = mul(prod, rows[i][perm[i]])
        term = prod if _perm_sign(perm) > 0 else -prod
        acc = term if acc is None else acc + term
    return acc


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def faddeev_charpoly(rows) -> Polynomial:
    """Faddeev-LeVerrier: det(zI - A) from the traces of n matrix products.

    The O(n^4) oracle for monodromy.charpoly.
    """
    n = len(rows)
    coeffs = [Fraction(1)]  # highest first
    Mk = [list(r) for r in rows]
    for k in range(1, n + 1):
        ck = -sum(Mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            shifted = [[v + ck if i == j else v for j, v in enumerate(r)]
                       for i, r in enumerate(Mk)]
            Mk = linalg.mat_mul(rows, shifted)
    return Polynomial(list(reversed(coeffs)))


def power_stacking_minpoly(rows) -> Polynomial:
    """Least d with A^d in the span of I, A, ..., A^(d-1), one n^2 x d solve
    per d: the O(n^5) oracle for monodromy.minimal_polynomial."""
    n = len(rows)
    powers = [linalg.mat_identity(n)]
    for _ in range(n):
        powers.append(linalg.mat_mul(powers[-1], rows))
    vecs = [[v for r in P for v in r] for P in powers]
    for d in range(1, n + 1):
        system = [[vecs[k][i] for k in range(d)] for i in range(n * n)]
        sol = linalg.solve(system, [-vecs[d][i] for i in range(n * n)])
        if sol is not None:
            return Polynomial(list(sol) + [1])
    raise ValueError("no relation of degree <= n: not a square matrix")


@pytest.fixture
def rng():
    return random.Random(20260808)
