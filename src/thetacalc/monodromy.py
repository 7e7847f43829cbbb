"""Local analysis at a singular point through the shift-operator lens.

A formal local solution is a finite sum of terms c * x^rho * m^t * t^k with
t = log(x - x1)/(2*pi*i).  Completing one closed tour multiplies such a term
by lam = e^(2*pi*i*rho) * m and replaces t by t+1, so the pair (rho, m)
carries the monodromy multiplier: rho is the exact rational phase of lam
(Re of the exponent, kept in [0, 1)) and m = |lam|.  Multipliers stay exact
whenever lam is rational (phase 0 or 1/2) or a root of unity of small order,
which covers every exact claim made by the tests; everything else takes the
complex floating path with an explicit tolerance.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Tuple

from . import linalg
from .errors import (EigenfailNumeric, InconsistentMultiplier, NoExactRoots,
                     ZeroDivisor)
from .exact import Polynomial, Q, as_q
from .forms import DifferenceForm, rational_roots

DEFAULT_TOL = 1e-10


def _unit(rho: Fraction):
    """e^(2*pi*i*rho): Fraction for denominator <= 2, else complex."""
    d = rho.denominator
    if d == 1:
        return Q(1)
    if d == 2:
        return Q(-1)
    if d == 4:
        return 1j if rho.numerator % 4 == 1 else -1j
    z = cmath.exp(2j * math.pi * float(rho))
    return z


def _cmul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return complex(a) * complex(b)


def _cadd(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return complex(a) + complex(b)


def _cabs(a) -> float:
    return abs(complex(a)) if not isinstance(a, Fraction) else abs(float(a))


class FormalLocalSolution:
    """Finite sum of terms keyed by (rho, mag, logpow)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                rho, mag, k = key
                rho = as_q(rho)
                if isinstance(mag, int):
                    mag = Q(mag)
                if coeff == 0:
                    continue
                clean[(rho, mag, int(k))] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("FormalLocalSolution is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def monomial(cls, coeff=Q(1), rho=Q(0), mag=Q(1), logpow=0):
        return cls({(as_q(rho), mag if not isinstance(mag, int) else Q(mag),
                     int(logpow)): coeff})

    @classmethod
    def one(cls):
        return cls.monomial()

    @classmethod
    def t_power(cls, k: int):
        return cls.monomial(logpow=k)

    # -- ring structure ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, FormalLocalSolution):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                s = _cadd(out[key], c)
                if s == 0:
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
        return FormalLocalSolution(out)

    def __neg__(self):
        return FormalLocalSolution({k: -c if isinstance(c, Fraction) else -complex(c)
                                    for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, FormalLocalSolution):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            return self.scaled(other)
        if not isinstance(other, FormalLocalSolution):
            return NotImplemented
        out = {}
        for (r1, m1, k1), c1 in self.terms.items():
            for (r2, m2, k2), c2 in other.terms.items():
                key = (r1 + r2, _mag_mul(m1, m2), k1 + k2)
                c = _cmul(c1, c2)
                if key in out:
                    c = _cadd(out[key], c)
                if c == 0:
                    out.pop(key, None)
                else:
                    out[key] = c
        return FormalLocalSolution(out)

    __rmul__ = __mul__

    def scaled(self, c):
        if isinstance(c, int):
            c = Q(c)
        return FormalLocalSolution({k: _cmul(v, c) for k, v in self.terms.items()})

    def divide_by_monomial(self, other: "FormalLocalSolution"):
        """Exact division by a single-term, log-free solution."""
        if len(other.terms) != 1:
            raise ZeroDivisor("can only divide by a single-term solution")
        (r2, m2, k2), c2 = next(iter(other.terms.items()))
        if k2 != 0:
            raise ZeroDivisor("cannot divide by a term carrying a log power")
        out = {}
        for (r1, m1, k1), c1 in self.terms.items():
            coeff = (c1 / c2 if isinstance(c1, Fraction) and isinstance(c2, Fraction)
                     else complex(c1) / complex(c2))
            out[(r1 - r2, _mag_div(m1, m2), k1)] = coeff
        return FormalLocalSolution(out)

    def __truediv__(self, other):
        if isinstance(other, FormalLocalSolution):
            return self.divide_by_monomial(other)
        return NotImplemented

    # -- queries ---------------------------------------------------------
    def is_exact_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        if not self.terms:
            return 0.0
        return max(_cabs(c) for c in self.terms.values())

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    def multiplier(self):
        """The shared monodromy multiplier, or raise if terms disagree."""
        lam = None
        for (rho, mag, _k) in self.terms:
            cur = _term_multiplier(rho, mag)
            if lam is None:
                lam = cur
            elif not _lam_close(lam, cur):
                raise InconsistentMultiplier(
                    "terms carry different multipliers: %s vs %s" % (lam, cur))
        return lam

    def theta(self):
        """One closed tour: term -> lam * x^rho * m^(t+1-ish) * (t+1)^k."""
        out = FormalLocalSolution.zero()
        acc = {}
        for (rho, mag, k), c in self.terms.items():
            lam = _term_multiplier(rho, mag)
            cc = _cmul(c, lam)
            for j in range(k + 1):
                key = (rho, mag, j)
                add = _cmul(cc, Q(comb(k, j)))
                if key in acc:
                    add = _cadd(acc[key], add)
                if add == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = add
        return FormalLocalSolution(acc)

    def theta_pow(self, n: int):
        s = self
        for _ in range(n):
            s = s.theta()
        return s

    def __eq__(self, other):
        if not isinstance(other, FormalLocalSolution):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FormalLocalSolution(0)"
        bits = []
        for (rho, mag, k) in sorted(self.terms, key=lambda key: (float(key[0]),
                                                                 float(key[1]), key[2])):
            c = self.terms[(rho, mag, k)]
            piece = [str(c)]
            if rho != 0:
                piece.append("x^(%s)" % rho)
            if mag != 1:
                piece.append("(%s)^t" % mag)
            if k:
                piece.append("t^%d" % k if k > 1 else "t")
            bits.append("*".join(piece))
        return "FormalLocalSolution(%s)" % " + ".join(bits)


def _mag_mul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _mag_div(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    return float(a) / float(b)


def _term_multiplier(rho: Fraction, mag):
    u = _unit(rho % 1)
    if isinstance(mag, Fraction):
        return _cmul(u, mag)
    return complex(u) * mag


def _lam_close(a, b, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(a)))


def theta_on_local(s: FormalLocalSolution, lam, tol: float = DEFAULT_TOL):
    """theta action on a single-multiplier solution, validated against lam."""
    for (rho, mag, _k) in s.terms:
        cur = _term_multiplier(rho, mag)
        if not _lam_close(cur, lam, tol):
            raise InconsistentMultiplier(
                "term multiplier %s does not match lambda %s" % (cur, lam))
    return s.theta()


# --------------------------------------------------------------------------
# monodromy matrices
# --------------------------------------------------------------------------

class MonodromySpec:
    """Square matrix giving the theta action on a solution space."""

    __slots__ = ("matrix", "mode", "tolerance")

    def __init__(self, matrix, mode: Optional[str] = None, tolerance: float = DEFAULT_TOL):
        rows = []
        exact = True
        for row in matrix:
            r = []
            for v in row:
                if isinstance(v, (int, Fraction)):
                    r.append(as_q(v))
                else:
                    r.append(complex(v))
                    exact = False
            rows.append(tuple(r))
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if mode is None:
            mode = "exact" if exact else "numeric"
        if mode == "exact" and not exact:
            raise ValueError("exact mode requires rational entries")
        if mode == "numeric" and tolerance <= 0:
            raise ValueError("numeric mode needs a positive tolerance")
        object.__setattr__(self, "matrix", tuple(rows))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "tolerance", tolerance)

    def __setattr__(self, *a):
        raise AttributeError("MonodromySpec is immutable")

    @property
    def n(self) -> int:
        return len(self.matrix)

    def rational_rows(self):
        return [list(r) for r in self.matrix]

    def __repr__(self):
        return "MonodromySpec(%r, mode=%r)" % ([list(r) for r in self.matrix], self.mode)


def _as_spec(M) -> MonodromySpec:
    if isinstance(M, MonodromySpec):
        return M
    return MonodromySpec(M)


def charpoly(M) -> Polynomial:
    """Characteristic polynomial det(z I - M), exact (Faddeev-LeVerrier)."""
    spec = _as_spec(M)
    if spec.mode != "exact":
        return _numeric_charpoly(spec)
    A = spec.rational_rows()
    n = spec.n
    coeffs = [Q(1)]  # highest first
    Mk = [row[:] for row in A]
    for k in range(1, n + 1):
        ck = -_trace(Mk) / k
        coeffs.append(ck)
        if k < n:
            Mk = linalg.mat_mul(A, _mat_add_scalar(Mk, ck))
    return Polynomial(list(reversed(coeffs)))


def _numeric_charpoly(spec: MonodromySpec) -> Polynomial:
    import numpy as np
    arr = np.array([[complex(v) for v in row] for row in spec.matrix])
    cs = np.poly(arr)  # highest first
    out = []
    for c in cs:
        if abs(c.imag) > spec.tolerance:
            raise EigenfailNumeric("complex characteristic coefficient %r" % c)
        out.append(Fraction(c.real).limit_denominator(10 ** 9))
    return Polynomial(list(reversed(out)))


def _trace(rows):
    acc = rows[0][0]
    for i in range(1, len(rows)):
        acc = acc + rows[i][i]
    return acc


def _mat_add_scalar(rows, c):
    out = [row[:] for row in rows]
    for i in range(len(out)):
        out[i][i] = out[i][i] + c
    return out


def minimal_polynomial(M) -> Polynomial:
    """Monic minimal polynomial via exact linear algebra on matrix powers."""
    spec = _as_spec(M)
    if spec.mode != "exact":
        return _numeric_minpoly(spec)
    A = spec.rational_rows()
    n = spec.n
    powers = [linalg.mat_identity(n)]
    for _ in range(n):
        powers.append(linalg.mat_mul(powers[-1], A))
    vecs = [_vec(P) for P in powers]
    for d in range(1, n + 1):
        rows = [[vecs[k][i] for k in range(d)] for i in range(n * n)]
        rhs = [-vecs[d][i] for i in range(n * n)]
        sol = linalg.solve(rows, rhs)
        if sol is not None:
            return Polynomial(list(sol) + [Q(1)])
    raise AssertionError("minimal polynomial must exist by Cayley-Hamilton")


def _numeric_minpoly(spec: MonodromySpec) -> Polynomial:
    import numpy as np
    arr = np.array([[complex(v) for v in row] for row in spec.matrix])
    n = spec.n
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ arr)
    vecs = [P.reshape(-1) for P in powers]
    for d in range(1, n + 1):
        Amat = np.stack([vecs[k] for k in range(d)], axis=1)
        b = -vecs[d]
        sol = np.linalg.lstsq(Amat, b, rcond=None)[0]
        resid = np.linalg.norm(Amat @ sol - b)
        if resid <= spec.tolerance * max(1.0, np.linalg.norm(b)):
            out = []
            for c in sol:
                if abs(c.imag) > spec.tolerance:
                    raise EigenfailNumeric("complex minimal-polynomial coefficient")
                out.append(Fraction(c.real).limit_denominator(10 ** 9))
            return Polynomial(out + [Q(1)])
    raise EigenfailNumeric("no minimal polynomial within tolerance %g" % spec.tolerance)


def _vec(rows):
    return [v for row in rows for v in row]


def companion_difference_equation(M) -> DifferenceForm:
    """Constant-coefficient form whose vector is charpoly(M), leading first.

    Cayley-Hamilton makes it annihilate n -> theta^n y for every local
    solution y of the underlying equation.
    """
    cp = charpoly(M)
    return DifferenceForm.from_constant_coeffs(list(cp.coeffs))


def minimal_relation(M) -> DifferenceForm:
    """Form with the minimal polynomial of M as coefficient vector."""
    mp = minimal_polynomial(M)
    return DifferenceForm.from_constant_coeffs(list(mp.coeffs))


# --------------------------------------------------------------------------
# local structure (eigenvalues, exponents, Jordan data)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalBlock:
    """One eigenvalue with its exponent data and Jordan block sizes."""
    eigenvalue: object          # Fraction or complex
    rho: Fraction               # phase part of the exponent, in [0, 1)
    mag: object                 # |eigenvalue|, Fraction when exact
    jordan_sizes: Tuple[int, ...]

    @property
    def exponent(self) -> complex:
        """log(lam)/(2*pi*i) with Re in [0, 1)."""
        return complex(float(self.rho), -math.log(float(self.mag)) / (2 * math.pi))


@dataclass(frozen=True)
class LocalStructure:
    blocks: Tuple[LocalBlock, ...]

    @property
    def dimension(self) -> int:
        return sum(sum(b.jordan_sizes) for b in self.blocks)


_MAX_CYCLOTOMIC_ORDER = 64


def _cyclotomic(d: int) -> Polynomial:
    num = Polynomial([-1] + [0] * (d - 1) + [1])  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = num.divmod(_cyclotomic(e))[0]
    return num


def local_structure(M) -> LocalStructure:
    """Eigenvalues with exponents and Jordan sizes.

    Exact mode handles rational eigenvalues and roots of unity of order up
    to 64 (charpoly must factor into rational-root and cyclotomic parts);
    numeric mode clusters eigenvalues at the spec tolerance.
    """
    spec = _as_spec(M)
    if spec.mode == "exact":
        return _local_structure_exact(spec)
    return _local_structure_numeric(spec)


def _jordan_sizes_from_nullities(nullities) -> Tuple[int, ...]:
    """Block sizes from dim ker N^k, k = 0, 1, ...; standard partition duality."""
    ge_counts = [nullities[k] - nullities[k - 1] for k in range(1, len(nullities))]
    sizes = []
    for k, cnt in enumerate(ge_counts, start=1):
        nxt = ge_counts[k] if k < len(ge_counts) else 0
        sizes.extend([k] * (cnt - nxt))
    return tuple(sorted(sizes, reverse=True))


def _local_structure_exact(spec: MonodromySpec) -> LocalStructure:
    A = spec.rational_rows()
    n = spec.n
    cp = charpoly(spec)
    roots, rest = rational_roots(cp)
    blocks: List[LocalBlock] = []
    for lam, mult in roots:
        if lam == 0:
            raise ZeroDivisor("monodromy matrix must be invertible (eigenvalue 0)")
        N = linalg.mat_sub(A, linalg.mat_scale(linalg.mat_identity(n), lam))
        nullities = [0]
        P = linalg.mat_identity(n)
        while nullities[-1] < mult:
            P = linalg.mat_mul(P, N)
            nullities.append(n - linalg.rank(P))
        sizes = _jordan_sizes_from_nullities(nullities)
        rho = Q(0) if lam > 0 else Q(1, 2)
        blocks.append(LocalBlock(eigenvalue=lam, rho=rho, mag=abs(lam),
                                 jordan_sizes=sizes))
    if rest.degree > 0:
        blocks.extend(_cyclotomic_blocks(spec, rest))
    return LocalStructure(blocks=tuple(blocks))


def _cyclotomic_blocks(spec: MonodromySpec, rest: Polynomial) -> List[LocalBlock]:
    A = spec.rational_rows()
    n = spec.n
    work = rest.monic()
    blocks: List[LocalBlock] = []
    for d in range(3, _MAX_CYCLOTOMIC_ORDER + 1):
        phi_d = _cyclotomic(d)
        power = 0
        while work.degree >= phi_d.degree:
            q, r = work.divmod(phi_d)
            if r.is_zero():
                work = q
                power += 1
            else:
                break
        if power == 0:
            continue
        # evaluate Phi_d at M once, then read Jordan data from its powers
        PhiM = _poly_at_matrix(phi_d, A)
        euler = phi_d.degree
        nullities = [0]
        P = linalg.mat_identity(n)
        while nullities[-1] < power * euler:
            P = linalg.mat_mul(P, PhiM)
            nullities.append(n - linalg.rank(P))
        scaled = [v // euler for v in nullities]
        sizes = _jordan_sizes_from_nullities(scaled)
        for j in range(1, d):
            if math.gcd(j, d) == 1:
                lam = cmath.exp(2j * math.pi * j / d)
                blocks.append(LocalBlock(eigenvalue=lam, rho=Q(j, d), mag=Q(1),
                                         jordan_sizes=sizes))
        if work.degree == 0:
            break
    if work.degree > 0:
        raise NoExactRoots(
            "characteristic factor %s is neither rational nor cyclotomic; "
            "use numeric mode" % (work,))
    return blocks


def _poly_at_matrix(p: Polynomial, A):
    n = len(A)
    acc = linalg.mat_scale(linalg.mat_identity(n), Q(0))
    for c in reversed(p.coeffs):
        acc = _mat_add_scalar(linalg.mat_mul(acc, A), c)
    return acc


def _local_structure_numeric(spec: MonodromySpec) -> LocalStructure:
    import numpy as np
    tol = spec.tolerance
    arr = np.array([[complex(v) for v in row] for row in spec.matrix])
    n = spec.n
    eigvals = np.linalg.eigvals(arr)
    clusters: List[List[complex]] = []
    for z in sorted(eigvals, key=lambda w: (round(w.real, 9), round(w.imag, 9))):
        placed = False
        for c in clusters:
            center = sum(c) / len(c)
            if abs(center - z) <= 10 * tol * max(1.0, abs(center)):
                c.append(z)
                placed = True
                break
        if not placed:
            clusters.append([z])
    centers = [sum(c) / len(c) for c in clusters]
    # gaps inside (merge radius, 1e4*tol) can be either one perturbed repeated
    # eigenvalue or two genuinely distinct ones; refuse to guess
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = abs(centers[i] - centers[j])
            if gap < 1e4 * tol * max(1.0, abs(centers[i])):
                raise EigenfailNumeric(
                    "eigenvalue clusters %s and %s too close for tolerance %g"
                    % (centers[i], centers[j], tol))
    blocks = []
    for center, members in zip(centers, clusters):
        mult = len(members)
        N = arr - center * np.eye(n)
        nullities = [0]
        P = np.eye(n, dtype=complex)
        while nullities[-1] < mult:
            P = P @ N
            nullities.append(n - _numeric_rank(P, tol))
            if len(nullities) > n + 1:
                raise EigenfailNumeric("Jordan analysis failed to converge")
        sizes = _jordan_sizes_from_nullities(nullities)
        rho_raw = (cmath.phase(center) / (2 * math.pi)) % 1.0
        snapped = _snap_fraction(rho_raw)
        # unsnapped phases keep the exact binary value of the double so the
        # reconstructed multiplier matches the eigenvalue to full precision
        rho = snapped if snapped is not None else Fraction(rho_raw)
        mag_raw = abs(center)
        mag_snap = _snap_fraction(mag_raw)
        mag = mag_snap if mag_snap is not None else mag_raw
        blocks.append(LocalBlock(eigenvalue=center, rho=rho, mag=mag,
                                 jordan_sizes=sizes))
    return LocalStructure(blocks=tuple(blocks))


def _numeric_rank(P, tol: float) -> int:
    import numpy as np
    sv = np.linalg.svd(P, compute_uv=False)
    if not len(sv):
        return 0
    cutoff = max(1.0, float(sv[0])) * tol * 100
    return int((sv > cutoff).sum())


def _snap_fraction(value: float):
    """Small-denominator rational hit at double precision, or None."""
    frac = Fraction(value).limit_denominator(1024)
    if abs(float(frac) - value) <= 1e-12 * max(1.0, abs(value)):
        return frac
    return None


# --------------------------------------------------------------------------
# canonical fundamental systems and the theta determinant
# --------------------------------------------------------------------------

def canonical_system_with_action(M):
    """Formal solutions plus the matrix of the theta action on them.

    Per Jordan block of size s with eigenvalue lam the solutions are
    x^rho * m^t * t^j, j = 0..s-1; theta is upper triangular on them with
    lam down the diagonal (entry (i, j) = lam * C(j, i) within the block),
    so the action's characteristic polynomial matches charpoly(M).
    """
    structure = local_structure(M)
    sols: List[FormalLocalSolution] = []
    blocks = []
    for blk in structure.blocks:
        lam_exact = _term_multiplier(blk.rho, blk.mag)
        for size in blk.jordan_sizes:
            for j in range(size):
                sols.append(FormalLocalSolution.monomial(
                    coeff=Q(1), rho=blk.rho, mag=blk.mag, logpow=j))
            blocks.append((lam_exact, size))
    dim = len(sols)
    zero = Q(0)
    action = [[zero] * dim for _ in range(dim)]
    offset = 0
    for lam, size in blocks:
        for j in range(size):
            for i in range(j + 1):
                action[offset + i][offset + j] = _cmul(lam, Q(comb(j, i)))
        offset += size
    return sols, action


def canonical_fundamental_system(M) -> List[FormalLocalSolution]:
    return canonical_system_with_action(M)[0]


def theta_determinant(sols, lambdas=None, tol: float = DEFAULT_TOL) -> FormalLocalSolution:
    """det[theta^i y_j] expanded in the commutative formal-solution ring.

    A zero result (exactly, or all coefficients below tol) certifies a
    linear relation with theta-invariant coefficients among the inputs.
    An empty family raises ValueError.
    """
    if not sols:
        raise ValueError("need at least one solution")
    if lambdas is not None:
        for s, lam in zip(sols, lambdas):
            for (rho, mag, _k) in s.terms:
                if not _lam_close(_term_multiplier(rho, mag), lam, tol):
                    raise InconsistentMultiplier(
                        "solution multiplier disagrees with supplied lambda")
    rows = [list(sols)]
    while len(rows) < len(sols):
        rows.append([s.theta() for s in rows[-1]])
    return linalg.ring_det(rows, FormalLocalSolution.__mul__)
