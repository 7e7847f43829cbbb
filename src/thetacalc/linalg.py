"""Field-generic dense linear algebra.

Works over any exact field whose elements support +, -, *, / and truth
testing (Fraction, RationalFunction).  All routines copy their input;
``ring_det`` alone needs no division (formal-solution and operator rings).
"""
from __future__ import annotations

from fractions import Fraction


def _is_zero(v) -> bool:
    return not v


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not _is_zero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows, ncols=None):
    """Canonical right-nullspace basis.

    Each vector has its first nonzero entry equal to 1; free variables are
    taken in increasing column order, so the basis is deterministic.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty matrix")
        ncols = len(rows[0])
    if not rows:
        rows = []
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_zero_like(rows) for _ in range(ncols)]
        vec[fc] = _one_from(rows)
        for ri, pc in enumerate(pivots):
            vec[pc] = -red[ri][fc]
        # normalize first nonzero entry to 1
        lead = next(v for v in vec if not _is_zero(v))
        basis.append([v / lead for v in vec])
    return basis


def _zero_like(rows):
    for r in rows:
        for v in r:
            return v - v
    return Fraction(0)


def _one_from(rows):
    z = _zero_like(rows)
    if isinstance(z, Fraction):
        return Fraction(1)
    # exact types used here expose .one()
    return type(z).one()


def solve(rows, rhs):
    """One solution of A x = b over the field, or None if inconsistent."""
    if not rows:
        return [] if all(_is_zero(b) for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    sol = [_zero_like(rows) for _ in range(ncols)]
    for ri, pc in enumerate(pivots):
        sol[pc] = red[ri][ncols]
    return sol


def det(rows):
    """Determinant by fraction-friendly Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    sign = 1
    result = None
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not _is_zero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            z = m[0][0] - m[0][0]
            return z
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        pv = m[c][c]
        result = pv if result is None else result * pv
        for i in range(c + 1, n):
            if not _is_zero(m[i][c]):
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    if sign < 0:
        result = -result
    return result


def ring_det(rows, mul):
    """sum_j (-1)^j mul(rows[0][j], minor_j) over a ring without division.

    Each minor (on k columns, from the last k rows) is memoised on its column
    tuple, so n x n costs at most n * 2^(n-1) products, not n!.  Entries need
    + and unary -; a noncommutative mul(entry, minor) fixes the factor order.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    memo = {}

    def minor(cols):
        i = n - len(cols)
        if len(cols) == 1:
            return rows[i][cols[0]]
        if cols not in memo:
            acc = None
            for j, c in enumerate(cols):
                term = mul(rows[i][c], minor(cols[:j] + cols[j + 1:]))
                if j % 2:
                    term = -term
                acc = term if acc is None else acc + term
            memo[cols] = acc
        return memo[cols]

    return minor(tuple(range(n)))


def mat_mul(a, b):
    n, k, mcols = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(mcols):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_identity(n, one=Fraction(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]

