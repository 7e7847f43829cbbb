"""Correctness oracles: one independent check per request kind.

Every check reads the program's JSON output and compares it with the data
the generator planted, using only ``algebra`` (its own parser, polynomials
and linear algebra).  ``check`` returns None when the response is right and
a one-line reason otherwise.

Tolerances: exact answers are compared exactly.  Roots of unity from the
exact path are compared with their closed forms at 1e-9 relative (cos/sin
in double precision are good to about 1e-15), eigenvalues from the numeric
path at 1e-6 (numpy's eigvals on these small conjugated integer matrices
is good to about 1e-12); planted eigenvalues are at least 1e-1 apart.
The ``verify-numeric`` residual reported by the program must be at most
1e-6: on the seed code it stays below about 1e-8, while an ODE that does not
annihilate the roots leaves a residual of order one.  The ODEs returned by
``tannery`` and ``tannery-shape`` are checked exactly, with no tolerance:
the generator plants a rational simple root y0 of f(x0, y), the oracle
expands that branch as an exact power series at x0 and requires every
checked coefficient of sum c_k(x) y^(k) to vanish.
"""
from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction
from math import comb

from algebra import (Frac, Poly, Q, compile_expr, det, frac_of, poly_of, rank,
                     value_at)
from workloads import CYCLOTOMIC, kernel_image

FLOAT_TOL = 1e-9
RESIDUAL_TOL = 1e-6
SERIES_EXTRA = 6      # checked power-series coefficients beyond the ODE order

# planted domain errors: the request kind and the text its message must carry
EXPECTED_ERRORS = {"local-structure": "neither rational nor cyclotomic"}

_CHECKS = {}


def _check(*kinds):
    def register(fn):
        for kind in kinds:
            _CHECKS[kind] = fn
        return fn
    return register


def check(req, rc: int, out: str, err: str):
    if rc != req.expect_rc:
        return "exit code %d, expected %d: %s" % (rc, req.expect_rc, err.strip()[:200])
    if rc != 0:
        want = EXPECTED_ERRORS[req.kind]
        return None if want in err else "error text lacks %r: %s" % (want, err.strip()[:200])
    try:
        data = json.loads(out)
    except ValueError:
        return "output is not one JSON document"
    try:
        return _CHECKS[req.kind](req, data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError) as exc:
        return "malformed output: %s: %s" % (type(exc).__name__, exc)


def digest_update(h, req, rc: int, out: str, err: str):
    """Fold one request's argv and complete response into a SHA-256 digest."""
    h.update(json.dumps(list(req.argv)).encode())
    h.update(b"\0%d\0" % rc)
    h.update(out.encode())
    h.update(b"\0")
    h.update(err.encode())
    h.update(b"\0")


def _rng(req):
    return random.Random(json.dumps(list(req.argv)))


# -- difference forms ----------------------------------------------------------

def _fracs(texts):
    return [compile_expr(t) for t in texts]


def _apply(form, f, t):
    """sum_k c_k(t) f(t + k) for a form given as callables, low to high."""
    return sum((c(Q(t)) * f[t + k] for k, c in enumerate(form)), Q(0))


def _identity_points(req, identity, span):
    """Check identity(f, t) at four sample points t where no denominator
    vanishes, with f a random integer sequence on 0 .. 60 + span."""
    rng = _rng(req)
    f = {t: Q(rng.randint(-50, 50)) for t in range(0, 61 + span)}
    points = list(range(0, 61))
    rng.shuffle(points)
    good = 0
    for t in points:
        try:
            ok = identity(f, t)
        except ZeroDivisionError:
            continue
        if not ok:
            return "identity fails at t = %d" % t
        good += 1
        if good == 4:
            return None
    return "no pole-free sample point"


@_check("mul")
def _check_mul(req, data):
    A, B, C = req.plan["A"], req.plan["B"], _fracs(data["coeffs"])
    return _identity_points(req, lambda f, t: _apply(C, f, t) == sum(
        (a(Q(t)) * _apply(B, f, t + h) for h, a in enumerate(A)), Q(0)),
        len(A) + len(B))


@_check("divrem")
def _check_divrem(req, data):
    A, B = req.plan["A"], req.plan["B"]
    G, R = _fracs(data["gamma"]), _fracs(data["remainder"])
    if len(R) > len(B) - 1:
        return "remainder order %d not below divisor order %d" % (len(R) - 1, len(B) - 1)
    return _identity_points(req, lambda f, t: _apply(A, f, t) == sum(
        (g(Q(t)) * _apply(B, f, t + h) for h, g in enumerate(G)), Q(0))
        + _apply(R, f, t), len(A) + len(B))


@_check("ruffini")
def _check_ruffini(req, data):
    A, gamma = req.plan["A"], req.plan["gamma"]
    Qf, r = _fracs(data["quotient"]), compile_expr(data["remainder"])

    def step(f, s):     # ((T - gamma) f)(s)
        return f[s + 1] - gamma(Q(s)) * f[s]
    return _identity_points(req, lambda f, t: _apply(A, f, t) == sum(
        (q(Q(t)) * step(f, t + h) for h, q in enumerate(Qf)), Q(0))
        + r(Q(t)) * f[t], len(A) + 1)


@_check("apply")
def _check_apply(req, data):
    F, p, at = req.plan["F"], req.plan["p"], req.plan["at"]
    want = sum((c(Q(at)) * p(Q(at + k)) for k, c in enumerate(F) if c.num), Q(0))
    return None if Q(data["value"]) == want else "value %s, expected %s" % (data["value"], want)


# -- sequences -------------------------------------------------------------------

@_check("casoratian")
def _check_casoratian(req, data):
    seqs, at = req.plan["seqs"], req.plan["at"]
    want = det([[p(Q(at + i)) for p in seqs] for i in range(len(seqs))])
    if req.plan["dependent"] != (want == 0):
        return "generator planted the wrong dependence"
    return None if Q(data["value"]) == want else "value %s, expected %s" % (data["value"], want)


def _relations_ok(seqs, rels, expect_rank, rows):
    ncols = len(seqs)
    corank = ncols - expect_rank
    if len(rels) != corank:
        return "%d relations for corank %d" % (len(rels), corank)
    vecs = [[Q(v) for v in rel] for rel in rels]
    for vec in vecs:
        if len(vec) != ncols or next(v for v in vec if v) != 1:
            return "relation not normalised to a leading 1"
        for row in rows:
            if sum((v * s for v, s in zip(vec, row)), Q(0)) != 0:
                return "relation %s does not hold" % ([str(v) for v in vec],)
    if vecs and rank(vecs) != corank:
        return "relations are not independent"
    return None


@_check("dependence")
def _check_dependence(req, data):
    seqs, m0, p, r = (req.plan[k] for k in ("seqs", "m0", "p", "rank"))
    ncols = len(seqs)
    rows = [[s(Q(m0 + i)) for s in seqs] for i in range(ncols + p)]
    if rank(rows) != r:
        return "generator planted the wrong rank"
    if data["rank"] != r or data["window"] != [m0, m0 + ncols + p]:
        return "rank/window %s %s, expected %d" % (data["rank"], data["window"], r)
    case = "none" if r == ncols else "a" if r == ncols - 1 else "b"
    if data["case"] != case:
        return "case %s, expected %s" % (data["case"], case)
    return _relations_ok(seqs, data["relations"], r, rows)


@_check("scan")
def _check_scan(req, data):
    """Reports must tile lo .. hi + length; on every window inside a report
    the sample rank and the relation space match it, and neighbouring
    reports differ (maximal merging)."""
    seqs, lo, hi, length = (req.plan[k] for k in ("seqs", "lo", "hi", "length"))
    start = lo
    prev = None
    for rep in data:
        w0, w1 = rep["window"]
        if w0 != start or w1 - length < w0 or w1 - length > hi:
            return "window %s does not continue the tiling at %d" % (rep["window"], start)
        for s in range(w0, w1 - length + 1):
            rows = [[p(Q(t)) for p in seqs] for t in range(s, s + length)]
            r = rank(rows)
            if r != rep["rank"]:
                return "rank %d on window at %d, reported %d" % (r, s, rep["rank"])
            why = _relations_ok(seqs, rep["relations"], r, rows)
            if why:
                return "window at %d: %s" % (s, why)
        if prev is not None and (prev["relations"], prev["case"]) == (rep["relations"],
                                                                      rep["case"]):
            return "equal neighbouring reports were not merged"
        prev = rep
        start = w1 - length + 1
    return None if start == hi + 1 else "scan stops at %d, expected %d" % (start, hi + 1)


# -- kernel transform ----------------------------------------------------------------

@_check("transform")
def _check_transform(req, data):
    want = kernel_image(req.plan["op"])
    got = {int(s): poly_of(t) for s, t in data["shifts"].items()}
    if {s: p for s, p in got.items() if p} != want:
        return "shifted relation differs from the kernel rule"
    offset = max(0, -min(want)) if want else 0
    if want and data["offset"] != offset:
        return "offset %s, expected %d" % (data["offset"], offset)
    form = [poly_of(t) for t in data["theta_form"]]
    for s, p in want.items():
        if form[s + offset] != p.shift(offset):
            return "theta form coefficient of T^%d is wrong" % (s + offset)
    if sum(1 for c in form if c) != len(want):
        return "theta form has extra terms"
    return None


@_check("transform-inverse")
def _check_transform_inverse(req, data):
    op = req.plan["op"]
    if op is None:
        return None if data["operator"] is None else "found a preimage where none exists"
    if data["operator"] is None:
        return "no preimage reported"
    got = {(lam, r): Q(a) for lam, r, a in data["operator"]["terms"]}
    return None if got == {k: v for k, v in op.items() if v} else "preimage differs"


# -- partial fractions, parsing ---------------------------------------------------------

@_check("cauchy-pf")
def _check_cauchy(req, data):
    factors, roots = req.plan["factors"], req.plan["roots"]
    got = {Q(b["root"]): b["multiplicity"] for b in data}
    if got != roots:
        return "roots %s, expected %s" % (got, roots)
    points = [z for z in (Q(1, 7), Q(-5, 11), Q(11, 13), Q(-7, 17)) if z not in roots]
    for z in points[:3]:
        F = Q(1)
        for p, q, m in factors:
            F *= (q * z - p) ** m
        total = sum((Q(v) / (z - Q(b["root"])) ** k for b in data
                     for k, v in enumerate(b["residues"], start=1)), Q(0))
        if total != 1 / F:
            return "partial fractions do not sum to 1/F at z = %s" % z
    return None


@_check("parse")
def _check_parse(req, data):
    var = {"ratfunc": "x", "sequence": "t", "bivariate": "x"}[req.plan["context"]]
    good = 0
    for v in range(2, 40):
        env = {var: Q(v, 3)}
        if req.plan["context"] == "bivariate":
            env["y"] = Q(v * v - 7, 5)
        try:
            a = value_at(req.plan["text"], **env)
            b = value_at(data["normalized"], **env)
        except ZeroDivisionError:
            continue
        if a != b:
            return "normal form differs from input at %s" % env
        good += 1
        if good == 5:
            return None
    return "no pole-free sample point"


# -- monodromy ------------------------------------------------------------------------

def _block_factors(blocks):
    """[(irreducible factor, exponent, key)] of the planted charpoly."""
    out = []
    for b in blocks:
        if b[0] == "jordan":
            out.append((Poly((-b[1], 1)), b[2], ("j", b[1])))
        elif b[0] == "cyclo":
            out.append((Poly(CYCLOTOMIC[b[1]]), b[2], ("c", b[1])))
        else:
            out.append((Poly(b[1]), 1, ("i", b[1])))
    return out


@_check("companion")
def _check_companion(req, data):
    want = Poly((1,))
    for p, e, _ in _block_factors(req.plan["blocks"]):
        want = want * p ** e
    return None if [Q(t) for t in data["coeffs"]] == list(want.c) else "not the charpoly"


@_check("minimal")
def _check_minimal(req, data):
    top = {}
    for p, e, key in _block_factors(req.plan["blocks"]):
        top[key] = (p, max(e, top.get(key, (p, 0))[1]))
    want = Poly((1,))
    for p, e in top.values():
        want = want * p ** e
    got = [Q(t) for t in data["coeffs"]]
    return None if got == list(want.c) else "not the minimal polynomial"


def _planted_eigen(blocks):
    """[(eigenvalue, rho, mag, sizes)] with exact rho; rational eigenvalues
    as Fractions, the rest as complex."""
    sizes = {}
    for b in blocks:
        key = ("j", b[1]) if b[0] == "jordan" else ("c", b[1]) if b[0] == "cyclo" \
            else ("i", b[1])
        sizes.setdefault(key, []).append(b[2] if b[0] != "irr" else 1)
    out = []
    for (kind, val), ss in sizes.items():
        ss = sorted(ss, reverse=True)
        if kind == "j":
            out.append((val, Q(0) if val > 0 else Q(1, 2), abs(val), ss))
        elif kind == "c":
            for j in range(1, val):
                if math.gcd(j, val) == 1:
                    out.append((cmath.exp(2j * math.pi * j / val), Q(j, val), Q(1), ss))
        else:
            import numpy as np
            for z in np.roots(list(reversed(val))):
                z = complex(z)
                out.append((z, Q(cmath.phase(z) / (2 * math.pi) % 1), abs(z), ss))
    return out


def _out_eigen(item):
    lam = item["eigenvalue"]
    return Q(lam) if isinstance(lam, str) else complex(lam[0], lam[1])


def _close(a, b) -> bool:
    return abs(complex(a) - complex(b)) <= FLOAT_TOL * max(1.0, abs(complex(b)))


@_check("local-structure")
def _check_local_structure(req, data):
    want = _planted_eigen(req.plan["blocks"])
    numeric = req.plan.get("numeric", False)
    if len(data) != len(want):
        return "%d eigenvalue blocks, expected %d" % (len(data), len(want))
    left = list(want)
    for item in data:
        lam = _out_eigen(item)
        tol = 1e-6 if numeric else FLOAT_TOL
        hit = next((w for w in left if abs(complex(lam) - complex(w[0]))
                    <= tol * max(1.0, abs(complex(w[0])))), None)
        if hit is None or item["jordan_sizes"] != hit[3]:
            return "eigenvalue %s with blocks %s was not planted" % (lam, item["jordan_sizes"])
        left.remove(hit)
        mag = item["mag"]
        mag = Q(mag) if isinstance(mag, str) else mag
        rho = Q(item["rho"])
        if numeric:
            phase_gap = abs((float(rho) - float(hit[1]) + 0.5) % 1 - 0.5)
            if phase_gap > 1e-6 or abs(float(mag) - float(hit[2])) > 1e-6:
                return "rho/mag %s %s do not match %s" % (rho, mag, lam)
        elif isinstance(hit[0], Fraction) and (lam != hit[0] or rho != hit[1] or mag != hit[2]):
            return "rational eigenvalue data %s differ" % item
        elif not isinstance(hit[0], Fraction) and (rho != hit[1] or mag != 1):
            return "root of unity data %s differ" % item
    return None


@_check("canonical-system")
def _check_canonical(req, data):
    """Chains x^rho m^t t^j, j = 0..s-1, one per Jordan block, and the theta
    action lam * C(j, i) inside each chain, zero elsewhere."""
    sols, action = data["solutions"], data["action"]
    n = len(sols)
    want = sorted((str(rho), str(mag), s) for _lam, rho, mag, ss in
                  _planted_eigen(req.plan["blocks"]) for s in ss)
    chains, start = [], 0
    for i, sol in enumerate(sols):
        if len(sol) != 1 or Q(sol[0]["coeff"]) != 1:
            return "solution %d is not a unit monomial" % i
        if sol[0]["k"] != i - start:
            chains.append((start, i - start))
            start = i
            if sol[0]["k"] != 0:
                return "log powers of a chain do not start at 0"
    chains.append((start, n - start))
    got = sorted((str(Q(sols[o][0]["rho"])), str(Q(sols[o][0]["mag"])), s) for o, s in chains)
    if got != want:
        return "chains %s, expected %s" % (got, want)
    expect = [[0] * n for _ in range(n)]
    for o, s in chains:
        rho, mag = Q(sols[o][0]["rho"]), Q(sols[o][0]["mag"])
        unit = {Q(0): 1, Q(1, 2): -1}.get(rho % 1)
        lam = unit * mag if unit is not None else cmath.exp(2j * math.pi * float(rho))
        for j in range(s):
            for i in range(j + 1):
                expect[o + i][o + j] = lam * comb(j, i)
    for i in range(n):
        for j in range(n):
            v = action[i][j]
            got_v = Q(v) if isinstance(v, str) else complex(v[0], v[1])
            if isinstance(expect[i][j], complex) or isinstance(got_v, complex):
                if not _close(got_v, expect[i][j]):
                    return "action entry (%d, %d) = %s" % (i, j, v)
            elif got_v != expect[i][j]:
                return "action entry (%d, %d) = %s" % (i, j, v)
    return None


def _sol_value(terms, x0, t0, shift=0):
    """Exact value of theta^shift of a formal solution at x = x0, t = t0.

    x0 is a perfect square of a perfect square ratio, so x0^rho is
    rational for the half-integer rho the generator uses; one tour
    multiplies a term by e^(2 pi i rho) m and moves t to t + 1."""
    acc = Q(0)
    for (rho, mag, k), c in terms:
        unit = 1 if rho.denominator == 1 else -1
        root = Q(math.isqrt(x0.numerator), math.isqrt(x0.denominator))
        xpow = root ** int(2 * rho)
        acc += c * unit ** shift * xpow * mag ** (t0 + shift) * Q(t0 + shift) ** k
    return acc


@_check("theta-det")
def _check_theta_det(req, data):
    sols, dependent = req.plan["sols"], req.plan["dependent"]
    terms = [((Q(t["rho"]), Q(t["mag"]), t["k"]), Q(t["coeff"])) for t in data["terms"]]
    if dependent:
        return None if not terms else "dependent family has a nonzero determinant"
    n = len(sols)
    nonzero = False
    for x0, t0 in ((Q(4), 1), (Q(9, 4), 2), (Q(1, 16), 3), (Q(25, 9), 5)):
        rows = [[_sol_value(list(s.items()), x0, t0, i) for s in sols] for i in range(n)]
        want = det(rows)
        nonzero = nonzero or want != 0
        if _sol_value(terms, x0, t0) != want:
            return "determinant value at x=%s, t=%d differs" % (x0, t0)
    return None if nonzero else "generator planted a dependent family"


# -- algebraic functions -------------------------------------------------------------------

def _series_mul(a, b, n):
    out = [Q(0)] * n
    for i, u in enumerate(a[:n]):
        if u:
            for j, v in enumerate(b[:n - i]):
                out[i + j] += u * v
    return out


def _branch_series(coeffs, point, n):
    """First n Taylor coefficients at x0 of the root branch through y0."""
    x0, y0 = point
    A = [list(a.shift(x0).c) + [Q(0)] * n for a in coeffs]
    slope = sum(j * a(x0) * y0 ** (j - 1) for j, a in enumerate(coeffs) if j)
    Y = [y0] + [Q(0)] * (n - 1)
    for r in range(1, n):
        val = [Q(0)] * n
        power = [Q(1)] + [Q(0)] * (n - 1)
        for a in A:
            val = [u + v for u, v in zip(val, _series_mul(a, power, n))]
            power = _series_mul(power, Y, n)
        Y[r] = -val[r] / slope
    return Y


def ode_residual_series(coeffs, point, ode):
    """Coefficients of sum c_k(x) y^(k)(x) at x0 along the planted branch."""
    q = len(ode) - 1
    n = q + SERIES_EXTRA + 1
    Y = _branch_series(coeffs, point, n)
    out = [Q(0)] * (n - q)
    for k, c in enumerate(ode):
        deriv = [Y[i + k] * math.perm(i + k, k) for i in range(n - k)]
        term = _series_mul(list(c.shift(point[0]).c) + [Q(0)] * n, deriv, n - q)
        out = [u + v for u, v in zip(out, term)]
    return out


def _check_ode(req, texts):
    ode = [poly_of(t) for t in texts]
    m = len(req.plan["coeffs"]) - 1
    if not 1 <= len(ode) - 1 <= m or not ode[-1]:
        return "ODE order %d outside 1..%d" % (len(ode) - 1, m)
    if any(ode_residual_series(req.plan["coeffs"], req.plan["point"], ode)):
        return "ODE does not annihilate the planted branch"
    return None


@_check("tannery")
def _check_tannery(req, data):
    if data["order"] != len(data["coeffs"]) - 1:
        return "order field disagrees with coefficients"
    return _check_ode(req, data["coeffs"])


@_check("tannery-shape")
def _check_tannery_shape(req, data):
    why = _check_tannery(req, data)
    if why:
        return why
    if data["leading"] != data["coeffs"][-1]:
        return "leading coefficient field differs"
    phi = poly_of(data["phi"])
    ode = [poly_of(t) for t in data["coeffs"]]
    q = len(ode) - 1
    shape = all(not (ode[q - k] * phi ** k).divmod(ode[q])[1] for k in range(1, q + 1))
    return None if shape == data["shape_ok"] else "shape_ok %s, expected %s" % (
        data["shape_ok"], shape)


@_check("verify-numeric")
def _check_verify_numeric(req, data):
    r = data["max_residual"]
    ok = isinstance(r, float) and 0 <= r <= RESIDUAL_TOL
    return None if ok else "residual %r above %g" % (r, RESIDUAL_TOL)


# -- operators -----------------------------------------------------------------------------

def apply_operator(terms, p: Poly):
    """(A(p), largest degree of any intermediate result) for terms
    [(scalar, [factor, ...])], the last factor acting first."""
    total, top = Poly(), p.deg
    for c, chain in terms:
        q = p
        for fac in reversed(chain):
            kind = fac[0]
            if kind == "T":
                q = q.shift(1)
            elif kind == "D":
                q = q.deriv()
            elif kind == "S":
                q = q.compose(fac[1])
            elif kind == "M":
                q = fac[1] * q
            top = max(top, q.deg)
        total = total + q * c
    return total, top


def _monomial(j):
    return Poly([0] * j + [1])


@_check("funcder")
def _check_funcder(req, data):
    terms, N = req.plan["terms"], req.plan["N"]
    if data["valid_degree"] < -1 or len(data["columns"]) != data["valid_degree"] + 1:
        return "column count does not match the valid degree"
    images = [apply_operator(terms, _monomial(j)) for j in range(len(data["columns"]) + 1)]
    for j, text in enumerate(data["columns"]):
        (lo, top_lo), (hi, top_hi) = images[j], images[j + 1]
        if max(top_hi, top_lo, lo.deg + 1) > N:
            return "column %d claimed reliable but overflows N=%d" % (j, N)
        if poly_of(text) != hi - Poly.x() * lo:
            return "column %d of A' is wrong" % j
    return None


@_check("classify")
def _check_classify(req, data):
    plan = req.plan
    kind = "derivation-like" if plan["mu"] is None else "substitution-like"
    if data["kind"] != kind:
        return "kind %s, expected %s" % (data["kind"], kind)
    for key in ("alpha", "xi", "xi1"):
        if not frac_of(data[key]) == plan[key]:
            return "%s = %s differs from the planted value" % (key, data[key])
    if (plan["mu"] is None) != (data["mu"] is None) or (
            plan["mu"] is not None and poly_of(data["mu"]) != plan["mu"]):
        return "mu = %s differs" % data["mu"]
    return None


@_check("mult-check")
def _check_mult(req, data):
    terms, alpha, xi = req.plan["terms"], req.plan["alpha"], req.plan["xi"]

    def A(p):
        return Frac(apply_operator(terms, p)[0])
    holds = True
    for u, v in req.plan["pairs"]:
        U, V = Frac(u), Frac(v)
        right = (xi * (alpha * xi - 1) * U * V + (1 - alpha * xi) * (U * A(v) + V * A(u))
                 + alpha * A(u) * A(v))
        holds = holds and A(u * v) == right
    return None if data["holds"] == holds else "holds = %s, expected %s" % (data["holds"], holds)


@_check("grevy")
def _check_grevy(req, data):
    if not 0 <= data["valid_degree"] <= req.plan["N"]:
        return "valid degree %s outside 0..N" % data["valid_degree"]
    dep = req.plan["dependent"]
    return None if data["zero_on_reliable"] == dep else "zero_on_reliable = %s, planted %s" % (
        data["zero_on_reliable"], "dependent" if dep else "independent")


@_check("nsymb-check")
def _check_nsymb(req, data):
    cands = req.plan["candidates"]
    if [poly_of(r["candidate"]) for r in data] != cands:
        return "candidates reported out of order"
    for r in data:
        if r["operator_is_zero"] is not True or not 0 <= r["checked_degree"] <= req.plan["N"]:
            return "planted root %s not certified" % r["candidate"]
    return None
