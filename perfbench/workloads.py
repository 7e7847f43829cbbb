"""Seeded request generators for the four benchmark workloads.

A request is one argv list for ``thetacalc.cli.main`` plus the data the
generator planted in it (``plan``), which only the oracles read.  Round r of
workload w under seed s is drawn from ``random.Random("w:s:r")``, so a seed
always yields a byte-identical request list; the warm-up list comes from a
differently named stream and never repeats a measured request.

Each round is a stratified, shuffled mix with fixed counts per request kind
and size class, so every round costs about the same and any prefix of the
stream has the same mix.  Why each workload exists:

* ``difference`` - many small RationalFunction operations with shifts and
  linear algebra over Q: forms of order 2-8 with Q(x) coefficients of
  degree 1-3, 3-10 polynomial sequences, partial fractions whose constant
  terms reach about 1e11 (the divisor loop of rational_roots).
* ``monodromy`` - exact charpoly, minimal polynomial and Jordan data of
  conjugated block matrices of order 3-11, where every irrational factor
  runs the cyclotomic search to its end and then the numeric fallback; plus
  theta determinants of n = 3-6 formal solutions (factorial expansion).
  It makes no Polynomial.gcd call.
* ``tannery`` - annihilating ODEs of squarefree f(x, y) with deg_y 2-4:
  Polynomial.gcd inside RationalFunction normalisation and rref over Q(x).
  It bypasses monodromy and operators.
* ``operators`` - truncated operator matrices (N = 10-16) through the
  CLI's operator grammar: functional derivatives, classification, the
  multiplication identity, symbolic ODE checks and the operator
  determinant of n = 2-4 families.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from algebra import Frac, Poly, Q, render_poly, render_q

WORKLOADS = ("difference", "monodromy", "tannery", "operators")


@dataclass(frozen=True)
class Request:
    kind: str          # CLI subcommand
    argv: Tuple[str, ...]
    size: str          # size tag, e.g. "n5" or "m3"
    plan: object       # planted data, read only by the oracle
    expect_rc: int = 0


def round_requests(workload: str, seed: int, index: int) -> List[Request]:
    """Round `index` of the workload: the fixed per-kind counts, shuffled."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    out = []
    for count, make in MIXES[workload]:
        for _ in range(count):
            out.extend(make(rng))
    rng.shuffle(out)
    return out


def warmup_requests(workload: str, seed: int) -> List[Request]:
    """Small requests of every kind, so lazy imports happen in set-up."""
    rng = random.Random("%s:warmup:%d" % (workload, seed))
    return [req for make in WARMUPS[workload] for req in make(rng)]


def _cli(kind, *args, flags=()):
    """argv of one request.  Each "--name" in args takes the next element as
    its value, attached with "=" so that a value starting with "-" is not
    read as an option."""
    out, rest = [], iter(args)
    for a in rest:
        out.append(a + "=" + next(rest) if a.startswith("--") else a)
    return ("--json",) + tuple(flags) + (kind,) + tuple(out)


def _rand_poly(rng, deg, lo=-4, hi=4):
    """Integer polynomial of exact degree deg."""
    cs = [rng.randint(lo, hi) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(lo, hi)
    return Poly(cs + [lead])


# -- difference ----------------------------------------------------------------

def _rand_coeff(rng, rational_share=0.2):
    """A Q(x) coefficient of degree 1-3; sometimes over (x + c), c >= 1."""
    num = _rand_poly(rng, rng.randint(1, 3))
    if rng.random() < rational_share:
        return Frac(num, Poly((rng.randint(1, 5), 1)))
    return Frac(num)


def _render_coeff(c: Frac) -> str:
    if c.den.deg == 0:
        return "(%s)" % render_poly(c.num * (1 / c.den.c[0]))
    return "(%s)/(%s)" % (render_poly(c.num), render_poly(c.den))


def _rand_form(rng, order, rational_share=0.2):
    """Coefficients low to high; nonzero leading, some zero middles."""
    coeffs = []
    for k in range(order + 1):
        if 0 < k < order and rng.random() < 0.25:
            coeffs.append(Frac(Poly()))
        else:
            coeffs.append(_rand_coeff(rng, rational_share))
    return coeffs


def render_form(coeffs) -> str:
    pieces = []
    for k, c in enumerate(coeffs):
        if not c.num:
            continue
        body = _render_coeff(c)
        pieces.append(body if k == 0 else
                      "%s*T" % body if k == 1 else "%s*T^%d" % (body, k))
    return " + ".join(pieces)


def _mul(rng):
    o1 = rng.randint(1, 4)
    o2 = rng.randint(1, 4)
    A, B = _rand_form(rng, o1), _rand_form(rng, o2)
    return [Request("mul", _cli("mul", render_form(A), render_form(B)),
                    "o%d" % (o1 + o2), {"A": A, "B": B})]


def _divrem(rng, lo=3, hi=8):
    oa = rng.randint(lo, hi)
    ob = rng.randint(2, oa - 1)
    A, B = _rand_form(rng, oa), _rand_form(rng, ob, rational_share=0.0)
    return [Request("divrem", _cli("divrem", render_form(A), render_form(B)),
                    "o%d" % oa, {"A": A, "B": B})]


def _ruffini(rng):
    oa = rng.randint(2, 8)
    A = _rand_form(rng, oa)
    gamma = _rand_coeff(rng, rational_share=0.3)
    return [Request("ruffini", _cli("ruffini", render_form(A), _render_coeff(gamma)),
                    "o%d" % oa, {"A": A, "gamma": gamma})]


def _apply(rng):
    o = rng.randint(2, 8)
    F = _rand_form(rng, o)
    p = _rand_poly(rng, rng.randint(1, 4))
    at = rng.randint(0, 20)
    return [Request("apply", _cli("apply", render_form(F), "--seq", render_poly(p, "t"),
                                  "--at", str(at)),
                    "o%d" % o, {"F": F, "p": p, "at": at})]


def _planted_sequences(rng, ncols, rank, maxdeg):
    """ncols polynomial sequences of which exactly `rank` are independent.

    The independent ones have distinct degrees <= maxdeg, so they stay
    independent on any maxdeg + 1 consecutive sample points; the rest are
    random rational combinations of them.
    """
    degs = sorted(rng.sample(range(maxdeg + 1), rank))
    base = [_rand_poly(rng, d, -3, 3) for d in degs]
    seqs = list(base)
    for _ in range(ncols - rank):
        combo = Poly()
        for b in base:
            combo = combo + b * Q(rng.randint(-3, 3), rng.randint(1, 2))
        seqs.append(combo if combo else base[0] * 2)
    rng.shuffle(seqs)
    return seqs


def _seq_args(seqs):
    out = []
    for p in seqs:
        out += ["--seq", render_poly(p, "t")]
    return out


def _casoratian(rng):
    n = rng.randint(3, 10)
    dependent = rng.random() < 0.4
    seqs = _planted_sequences(rng, n, n - 1 if dependent else n, n - 1)
    at = rng.randint(-5, 10)
    return [Request("casoratian", _cli("casoratian", *_seq_args(seqs), "--at", str(at)),
                    "n%d" % n, {"seqs": seqs, "at": at, "dependent": dependent})]


def _dependence(rng):
    ncols = rng.randint(3, 10)
    p = rng.randint(0, 4)
    rank = rng.randint(max(1, ncols - 3), ncols)
    seqs = _planted_sequences(rng, ncols, rank, ncols + p - 1)
    m0 = rng.randint(-5, 10)
    return [Request("dependence",
                    _cli("dependence", *_seq_args(seqs), "--m0", str(m0), "--p", str(p)),
                    "n%d" % ncols, {"seqs": seqs, "m0": m0, "p": p, "rank": rank})]


def _scan(rng, lo_n=3, hi_n=8):
    """Sequences plus one 'bump' that vanishes on exactly one window, so the
    scan splits into intervals with different relation spaces."""
    ncols = rng.randint(lo_n, hi_n)
    length = ncols + rng.randint(0, 2)
    lo = rng.randint(-3, 5)
    hi = lo + rng.randint(4, 10)
    seqs = _planted_sequences(rng, ncols - 1, rng.randint(max(1, ncols - 3), ncols - 1),
                              length - 1)
    a = rng.randint(lo, hi)
    bump = Poly((1,))
    for i in range(a, a + length):
        bump = bump * Poly((-i, 1))
    seqs.insert(rng.randint(0, len(seqs)), bump)
    return [Request("scan", _cli("scan", *_seq_args(seqs), "--window", "%d..%d" % (lo, hi),
                                 "--length", str(length)),
                    "n%d" % ncols, {"seqs": seqs, "lo": lo, "hi": hi, "length": length})]


def _falling(lam: int, r: int) -> Poly:
    """(x+lam-1)(x+lam-2)...(x+lam-r)."""
    out = Poly((1,))
    for i in range(1, r + 1):
        out = out * Poly((lam - i, 1))
    return out


def kernel_image(op):
    """Shift -> polynomial weight of the transformed differential operator."""
    out = {}
    for (lam, r), a in op.items():
        s = lam - r
        out[s] = out.get(s, Poly()) + _falling(lam, r) * (a * (-1) ** r)
    return {s: p for s, p in out.items() if p}


def _rand_diffop(rng):
    op = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, 4), rng.randint(0, 3))
        op[key] = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return op


def _transform(rng):
    op = _rand_diffop(rng)
    text = json.dumps({"terms": [[lam, r, render_q(a)] for (lam, r), a in op.items()]})
    return [Request("transform", _cli("transform", "--operator", text),
                    "t%d" % len(op), {"op": op})]


def _transform_inverse(rng):
    op = _rand_diffop(rng)
    rel = kernel_image(op)
    if not rel:
        rel, op = {0: Poly((1,))}, {(0, 0): Q(1)}
    expect = op
    if rng.random() < 0.3:
        # a weight of degree < -s at a negative shift s has no preimage
        s = -rng.randint(1, 2)
        rel[s] = rel.get(s, Poly()) + Poly((rng.choice([-2, -1, 1, 2]),))
        expect = None
    text = json.dumps({"terms": [[s, render_poly(p)] for s, p in sorted(rel.items())]})
    return [Request("transform-inverse", _cli("transform-inverse", "--relation", text),
                    "t%d" % len(rel), {"op": expect})]


def _cauchy(rng, big):
    """F = prod (q x - p)^m with rational roots p/q.  Large requests put
    |F(0)| near 1e9-1e11, where the divisor loop of rational_roots shows."""
    while True:
        nroots = rng.randint(2, 3) if big else rng.randint(1, 4)
        factors = []
        for _ in range(nroots):
            q = rng.choice([1, 1, 2, 3])
            p = rng.randint(1, 30) * rng.choice([-1, 1])
            if big:
                p = rng.randint(1000, 9000) * rng.choice([-1, 1])
            factors.append((p, q, rng.randint(1, 2)))
        roots = {}
        for p, q, m in factors:
            roots[Q(p, q)] = roots.get(Q(p, q), 0) + m
        const = 1
        for p, q, m in factors:
            const *= p ** m
        if len(roots) == nroots and (not big or 1e9 <= abs(const) <= 2e11):
            break
    text = "*".join("(%s)^%d" % (render_poly(Poly((-p, q))), m) for p, q, m in factors)
    return [Request("cauchy-pf", _cli("cauchy-pf", text), "big" if big else "small",
                    {"factors": factors, "roots": roots})]


def _rand_ratfunc_text(rng):
    num = _rand_poly(rng, rng.randint(1, 3))
    den = _rand_poly(rng, rng.randint(1, 2))
    extra = _rand_poly(rng, 1)
    return "((%s)^2 - (%s))/(%s) + %d/(%s)" % (render_poly(num), render_poly(extra),
                                               render_poly(den), rng.randint(1, 5),
                                               render_poly(Poly((rng.randint(1, 4), 1))))


def _parse(rng, context):
    if context == "ratfunc":
        text = _rand_ratfunc_text(rng)
    elif context == "sequence":
        text = "(%s)*(%s) - (%s)^2" % tuple(render_poly(_rand_poly(rng, rng.randint(1, 3)), "t")
                                            for _ in range(3))
    else:
        a, b, c = (render_poly(_rand_poly(rng, rng.randint(0, 2))) for _ in range(3))
        text = "(%s)*y^2 + (%s)*(y - 1)^2 + %s" % (a, b, c)
    return [Request("parse", _cli("parse", text, "--context", context), context,
                    {"text": text, "context": context})]


DIFFERENCE_MIX = [
    (12, _mul), (12, _divrem), (10, _ruffini), (8, _apply), (8, _casoratian),
    (10, _dependence), (6, _scan), (8, _transform), (8, _transform_inverse),
    (6, lambda r: _cauchy(r, False)), (4, lambda r: _cauchy(r, True))] + [
    (4, lambda r, c=context: _parse(r, c)) for context in ("ratfunc", "sequence", "bivariate")]


# -- monodromy -------------------------------------------------------------------

CYCLOTOMIC = {   # Phi_d, low to high; the search in the package runs d = 3..64
    3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1), 6: (1, -1, 1),
    8: (1, 0, 0, 0, 1), 10: (1, -1, 1, -1, 1), 12: (1, 0, -1, 0, 1),
}
IRRATIONAL = [(-2, 0, 1), (-3, 0, 1), (-1, -1, 1), (-1, 1, 1), (-5, 0, 1),
              (2, 0, 1), (-2, 0, 0, 1), (-1, -1, 0, 1)]


def companion(coeffs) -> List[List[Fraction]]:
    """Companion matrix of the monic polynomial with these low-to-high coeffs."""
    n = len(coeffs) - 1
    m = [[Q(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = Q(1)
    for i in range(n):
        m[i][n - 1] = -Q(coeffs[i])
    return m


def _jordan(lam, size):
    return [[lam if i == j else Q(1) if j == i + 1 else Q(0) for j in range(size)]
            for i in range(size)]


def _block_matrix(blocks):
    mats = []
    for b in blocks:
        if b[0] == "jordan":
            mats.append(_jordan(b[1], b[2]))
        elif b[0] == "cyclo":
            mats.append(companion((Poly(CYCLOTOMIC[b[1]]) ** b[2]).c))
        else:
            mats.append(companion(b[1]))
    n = sum(len(m) for m in mats)
    out = [[Q(0)] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(m)
    return out


def _conjugate(rng, B):
    """U B U^-1 for a random unimodular U: a permutation, then n elementary
    operations (row i += c row j together with column j -= c column i)."""
    n = len(B)
    perm = list(range(n))
    rng.shuffle(perm)
    M = [[B[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        for row in M:
            row[j] -= c * row[i]
    return M


def _rand_blocks(rng, n, irrational):
    """Blocks of total order n.  With an irrational factor every block is
    simple and every eigenvalue distinct, so the numeric fallback is well
    posed; otherwise Jordan blocks, often two for one eigenvalue, and
    repeated cyclotomic factors appear."""
    blocks, used, dim = [], [], 0
    if irrational:
        coeffs = rng.choice(IRRATIONAL)
        blocks.append(("irr", coeffs))
        dim += len(coeffs) - 1
    while dim < n:
        room = n - dim
        options = ["jordan"]
        cyclo = [d for d, c in CYCLOTOMIC.items() if len(c) - 1 <= room
                 and not (irrational and ("cyclo", d) in used)]
        if cyclo:
            options += ["cyclo", "cyclo"]
        if rng.choice(options) == "cyclo":
            d = rng.choice(cyclo)
            e = 1 if irrational or 2 * (len(CYCLOTOMIC[d]) - 1) > room else rng.randint(1, 2)
            blocks.append(("cyclo", d, e))
            used.append(("cyclo", d))
            dim += e * (len(CYCLOTOMIC[d]) - 1)
        else:
            earlier = [key[1] for key in used if key[0] == "jordan"]
            if earlier and not irrational and rng.random() < 0.5:
                lam = rng.choice(earlier)     # a second block: partitions like (2, 1)
            else:
                while True:
                    lam = Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
                    if not irrational or ("jordan", lam) not in used:
                        break
            size = 1 if irrational else rng.randint(1, min(3, room))
            blocks.append(("jordan", lam, size))
            used.append(("jordan", lam))
            dim += size
    rng.shuffle(blocks)
    return blocks


def _matrix_group(rng, n, irrational):
    blocks = _rand_blocks(rng, n, irrational)
    M = _conjugate(rng, _block_matrix(blocks))
    text = json.dumps([[render_q(v) if v.denominator != 1 else v.numerator for v in row]
                       for row in M])
    plan = {"blocks": blocks, "n": n}
    size = "n%d" % n
    reqs = [Request("companion", _cli("companion", "--matrix", text), size, plan),
            Request("minimal", _cli("minimal", "--matrix", text), size, plan)]
    if irrational:
        reqs.append(Request("local-structure", _cli("local-structure", "--matrix", text),
                            size, plan, expect_rc=1))
        reqs.append(Request("local-structure",
                            _cli("local-structure", "--matrix", text, flags=("--numeric",)),
                            size, dict(plan, numeric=True)))
    else:
        reqs.append(Request("local-structure", _cli("local-structure", "--matrix", text),
                            size, plan))
        reqs.append(Request("canonical-system", _cli("canonical-system", "--matrix", text),
                            size, plan))
    return reqs


RHOS = [Q(0), Q(1), Q(2), Q(1, 2), Q(3, 2), Q(-1, 2)]
MAGS = [Q(1), Q(2), Q(3), Q(1, 2), Q(2, 3)]


def _theta_det(rng, n, dependent):
    """n formal solutions, planted dependent (one is a rational combination
    of two others) or independent (distinct (multiplier, log power) data,
    mixed by a unit-triangular matrix)."""
    basis, seen = [], []
    while len(basis) < n:
        rho, mag, k = rng.choice(RHOS), rng.choice(MAGS), rng.randint(0, 1)
        key = (rho % 1, mag, k)
        if key not in seen:
            seen.append(key)
            basis.append({(rho, mag, k): Q(rng.choice([-3, -2, -1, 1, 2, 3]))})
    sols = []
    for j, b in enumerate(basis):
        s = dict(b)
        if j + 1 < n and rng.random() < 0.5:
            for key, c in basis[j + 1].items():
                s[key] = s.get(key, 0) + c * rng.choice([-2, -1, 1, 2])
        sols.append(s)
    if dependent:
        a, b, target = rng.sample(range(n), 3)
        ca, cb = Q(rng.randint(1, 3), rng.randint(1, 2)), Q(rng.choice([-2, -1, 1]))
        combo = {}
        for src, c in ((sols[a], ca), (sols[b], cb)):
            for key, v in src.items():
                combo[key] = combo.get(key, 0) + c * v
        sols[target] = {k: v for k, v in combo.items() if v}
    args = []
    for s in sols:
        args += ["--sol", json.dumps([{"rho": render_q(rho), "mag": render_q(mag), "k": k,
                                       "coeff": render_q(c)}
                                      for (rho, mag, k), c in s.items()])]
    return [Request("theta-det", _cli("theta-det", *args), "n%d" % n,
                    {"sols": sols, "dependent": dependent})]


# Matrix orders are fixed per slot: the cost of minimal and local-structure
# grows steeply with the order.  theta-det n = 4 (about 12 ms) is the median
# class; the order 7-11 matrices, n = 6 determinants and the exact calls that
# end in NoExactRoots make the tail around the 90th percentile.
MONODROMY_MIX = [(1, lambda r, n=n, irr=irr: _matrix_group(r, n, irr))
                 for n, irr in ((3, False), (4, False), (5, False), (6, False), (3, False),
                                (4, False), (3, True), (4, True), (5, True), (6, True),
                                (7, False), (9, False), (11, False), (8, True), (10, True))
                 ] + [(count, lambda r, n=n, d=dep: _theta_det(r, n, d))
                      for n, counts in ((3, (5, 5)), (4, (10, 10)), (5, (3, 3)), (6, (2, 2)))
                      for count, dep in zip(counts, (False, True))]
MONODROMY_WARMUP = [lambda r: _matrix_group(r, 3, False),
                    lambda r: _matrix_group(r, 3, True),
                    lambda r: _theta_det(r, 3, False)]


# -- tannery ---------------------------------------------------------------------

def _tannery_poly(rng, m, xdeg, ends_only=False):
    """y-coefficients a_0..a_m of f, integer polynomials in x of degree <=
    xdeg with a_m of exact degree xdeg.  a_0 = (x - x0) g(x), so y = 0 is a
    root of f(x0, y); it is simple (a_1(x0) != 0), and the oracle follows
    that branch as an exact power series.  With ends_only, x appears only
    in a_m and a_0 and every coefficient lies in +-1, +-2, which keeps the
    cost of the deg_y 4 class within about 10% of its mean."""
    def pick():
        return rng.choice([-2, -1, 1, 2])
    while True:
        x0 = rng.choice([-2, -1, 1, 2])
        if ends_only:
            coeffs = [Poly((-x0, 1)) * pick()] + [Poly((pick(),)) for _ in range(m - 1)]
            coeffs.append(Poly((pick(), pick())))
        else:
            g = _rand_poly(rng, rng.randint(0, xdeg - 1), -3, 3)
            coeffs = [Poly((-x0, 1)) * g]
            coeffs += [_rand_poly(rng, rng.randint(0, xdeg), -3, 3) for _ in range(m - 1)]
            coeffs.append(_rand_poly(rng, xdeg, -3, 3))
        if coeffs[1](Q(x0)) and coeffs[m](Q(x0)):
            return coeffs, (Q(x0), Q(0))


def render_bivariate(coeffs) -> str:
    pieces = []
    for j, a in enumerate(coeffs):
        if not a:
            continue
        ytxt = "" if j == 0 else ("*y" if j == 1 else "*y^%d" % j)
        pieces.append("(%s)%s" % (render_poly(a), ytxt))
    return " + ".join(reversed(pieces))


def _tannery(rng, m, xdeg, kind):
    coeffs, point = _tannery_poly(rng, m, xdeg, ends_only=(m == 4))
    f = render_bivariate(coeffs)
    plan = {"coeffs": coeffs, "point": point}
    size = "m%d" % m
    if kind == "verify-numeric":
        samples = ",".join("%.2f%+.2fj" % (rng.uniform(-2, 2), rng.uniform(0.3, 2))
                           for _ in range(3))
        return [Request(kind, _cli(kind, f, "--samples", samples), size, plan)]
    return [Request(kind, _cli(kind, f), size, plan)]


def _tannery_maker(m, xdeg, kind):
    return lambda rng: _tannery(rng, m, xdeg, kind)


TANNERY_KINDS = ("tannery", "tannery-shape", "verify-numeric")
# deg_y 2 holds the median, deg_y 3 the 90th percentile, and four deg_y 4
# requests (tannery only: tannery-shape would double them) make the tail.
# The deg_y 4, x-degree 2 class (25-38 s a request) is left out.
TANNERY_MIX = ([(12, _tannery_maker(2, xdeg, kind)) for xdeg in (1, 2) for kind in TANNERY_KINDS]
               + [(8, _tannery_maker(3, 1, kind)) for kind in TANNERY_KINDS]
               + [(4, _tannery_maker(4, 1, "tannery"))])
TANNERY_WARMUP = [_tannery_maker(2, 1, kind) for kind in TANNERY_KINDS]


# -- operators ---------------------------------------------------------------------

def _rand_small_poly(rng, deg):
    return _rand_poly(rng, deg, -2, 2)


def _op_factor(rng):
    """One factor of an operator chain: (text, semantic tuple)."""
    kind = rng.choice(["T", "D", "S", "M", "M"])
    if kind == "S":
        mu = Poly((rng.randint(-2, 2), rng.choice([1, 1, 2])))
        return "S(%s)" % render_poly(mu), ("S", mu)
    if kind == "M":
        p = _rand_small_poly(rng, rng.randint(0, 2))
        return "M(%s)" % render_poly(p), ("M", p)
    return kind, (kind,)


def _rand_operator(rng, nterms=2):
    """Sum of scaled composition chains: text for the CLI and the terms
    [(scalar, [factors...])] the oracle applies on its own."""
    texts, terms = [], []
    for _ in range(nterms):
        c = rng.choice([1, 1, 2, -1, 3])
        chain = [_op_factor(rng) for _ in range(rng.randint(1, 2))]
        text = " o ".join(t for t, _ in chain)
        texts.append(text if c == 1 else "%d*%s" % (c, text) if c > 0
                     else "-%s" % text if c == -1 else "%d*%s" % (c, text))
        terms.append((Q(c), [sem for _, sem in chain]))
    return " + ".join(texts), terms


def _funcder(rng, N=None):
    N = N or rng.randint(10, 16)
    text, terms = _rand_operator(rng, rng.randint(1, 3))
    return [Request("funcder", _cli("funcder", "--op", text, flags=("--trunc", str(N))),
                    "N%d" % N, {"terms": terms, "N": N})]


def _canonical_operator(rng):
    """(text, terms, alpha, xi, xi1, mu) of a derivation-like or
    substitution-like operator."""
    xi = _rand_small_poly(rng, rng.randint(0, 1))
    if rng.random() < 0.5:
        xi1 = _rand_small_poly(rng, rng.randint(0, 2))
        lead = xi1 - xi * Poly.x()
        text = "M(%s) o D + M(%s)" % (render_poly(lead), render_poly(xi))
        terms = [(Q(1), [("M", lead), ("D",)]), (Q(1), [("M", xi)])]
        return text, terms, Frac(Poly()), Frac(xi), Frac(xi1), None
    w = Poly((rng.choice([1, 2, -1, 3]),)) if rng.random() < 0.6 else \
        Poly((rng.randint(1, 2), 1))
    mu = Poly.x()
    while mu == Poly.x():      # S(x) is the identity: not a substitution
        mu = Poly((rng.randint(-2, 2), rng.choice([1, 1, 2])))
    text = "M(%s) o S(%s) + M(%s)" % (render_poly(w), render_poly(mu), render_poly(xi - w))
    terms = [(Q(1), [("M", w), ("S", mu)]), (Q(1), [("M", xi - w)])]
    xi1 = w * mu + (xi - w) * Poly.x()
    return text, terms, Frac(Poly((1,)), w), Frac(xi), Frac(xi1), mu


def _classify(rng, N=None):
    N = N or rng.randint(10, 16)
    text, terms, alpha, xi, xi1, mu = _canonical_operator(rng)
    return [Request("classify", _cli("classify", "--op", text, flags=("--trunc", str(N))),
                    "N%d" % N, {"terms": terms, "alpha": alpha, "xi": xi, "xi1": xi1,
                                "mu": mu, "N": N})]


def _mult_check(rng, N=None):
    N = N or rng.randint(10, 16)
    text, terms, alpha, xi, _xi1, _mu = _canonical_operator(rng)
    if rng.random() < 0.3:
        alpha = alpha + Q(rng.choice([-1, 1]), 2)
    pairs = [(_rand_small_poly(rng, rng.randint(0, 2)), _rand_small_poly(rng, rng.randint(0, 2)))
             for _ in range(rng.randint(1, 3))]
    pair_text = ";".join("%s:%s" % (render_poly(u), render_poly(v)) for u, v in pairs)
    alpha_text = "(%s)/(%s)" % (render_poly(alpha.num), render_poly(alpha.den))
    return [Request("mult-check",
                    _cli("mult-check", "--op", text, "--alpha", alpha_text, "--xi",
                         render_poly(xi.num * (1 / xi.den.c[0])), "--pairs", pair_text,
                         flags=("--trunc", str(N))),
                    "N%d" % N, {"terms": terms, "alpha": alpha, "xi": xi, "pairs": pairs,
                                "N": N})]


def _grevy(rng, n, N, dependent):
    """Planted dependent (one operator is a rational combination of two
    others, any operator types) or independent (scaled substitutions
    S(x + a) with distinct a, whose determinant is a Vandermonde multiple
    of one substitution)."""
    if dependent:
        ops = [_rand_operator(rng, 1)[0] for _ in range(n - 1)]
        a, b = rng.sample(range(n - 1), 2) if n > 2 else (0, 0)
        combo = "%d*(%s) + %d*(%s)" % (rng.randint(1, 3), ops[a], rng.choice([-2, -1, 1]),
                                       ops[b])
        ops.insert(rng.randint(0, n - 1), combo)
    else:
        shifts = rng.sample(range(-3, 4), n)
        ops = ["%d*S(%s)" % (rng.choice([1, 2, 3]), render_poly(Poly((a, 1)))) for a in shifts]
    args = []
    for text in ops:
        args += ["--op", text]
    return [Request("grevy", _cli("grevy", *args, flags=("--trunc", str(N))), "n%d" % n,
                    {"dependent": dependent, "N": N})]


def _nsymb(rng, N=None):
    """lambda_0 * prod (w - (a_i - x)) expanded in w = z - x; every
    candidate is one of the planted roots a_i."""
    N = N or rng.randint(10, 16)
    order = rng.randint(1, 3)
    roots = []
    while len(roots) < order:
        a = Poly((rng.randint(-3, 3), rng.choice([1, 1, 2, -1])))
        if a not in roots:
            roots.append(a)
    # coefficients of prod (w - w_i) in w, with w_i = a_i - x in Q[x]
    coeffs = [Poly((1,))]
    for a in roots:
        wi = a - Poly.x()
        nxt = [Poly()] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - c * wi
        coeffs = nxt
    lam0 = Poly((rng.choice([1, 2, 3]),)) if rng.random() < 0.5 else Poly((rng.randint(1, 3), 1))
    lams = [lam0 * c for c in reversed(coeffs)]   # lambda_0 first (highest power)
    cands = rng.sample(roots, rng.randint(1, order))
    args = []
    for lam in lams:
        args += ["--lam", render_poly(lam)]
    for a in cands:
        args += ["--candidate", render_poly(a)]
    return [Request("nsymb-check", _cli("nsymb-check", *args, flags=("--trunc", str(N))),
                    "N%d" % N, {"candidates": cands, "N": N})]


# Truncations are spread evenly over 10-16.  The operator determinant is
# the tail: n = 3 at N = 12 fills the 80th-96th percentiles, so the 90th
# falls inside one homogeneous class.
TRUNCS = (10, 12, 14, 16)
OPERATORS_MIX = [(count, lambda r, make=make, N=N: make(r, N))
                 for make, count in ((_funcder, 5), (_classify, 5), (_mult_check, 5),
                                     (_nsymb, 3))
                 for N in TRUNCS] + [
    (count, lambda r, n=n, N=N, d=dep: _grevy(r, n, N, d))
    for n, N, count in ((2, 14, 4), (3, 12, 8), (4, 10, 2)) for dep in (False, True)]

MIXES = {"difference": DIFFERENCE_MIX, "monodromy": MONODROMY_MIX,
         "tannery": TANNERY_MIX, "operators": OPERATORS_MIX}
# warm-up: small requests whose cost varies little from seed to seed; the
# only lazy import in the package is numpy (numeric modes, verify-numeric)
WARMUPS = {"difference": [_transform, _transform_inverse, lambda r: _cauchy(r, False)]
           + [lambda r, c=context: _parse(r, c) for context in ("ratfunc", "sequence",
                                                                "bivariate")],
           "monodromy": MONODROMY_WARMUP, "tannery": TANNERY_WARMUP,
           "operators": [lambda r, make=make: make(r, 10)
                         for make in (_funcder, _classify, _mult_check, _nsymb)]
           + [lambda r: _grevy(r, 2, 10, False)]}
