"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or -rA to see them all).
"""
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from math import factorial

import pytest

from thetacalc import linalg
from thetacalc.algebraic import (LinearODE, derivative_table, tannery_ode,
                                 verify_ode_numeric)
from thetacalc.cli import main as cli_main
from thetacalc.dependence import casoratian, christoffel_analyze
from thetacalc.errors import EigenfailNumeric, NoExactRoots, ZeroDivisor
from thetacalc.exact import (BivariatePolynomial, Polynomial, RationalFunction,
                             gcd_y)
from thetacalc.expr import eval_form, format_form, parse
from thetacalc.forms import (DifferenceForm, GridFunction,
                             cauchy_partial_fractions, form_apply,
                             form_divides, form_divrem, form_mul,
                             partial_fraction_eval, ruffini_divide)
from thetacalc.monodromy import (FormalLocalSolution, MonodromySpec,
                                 canonical_fundamental_system,
                                 companion_difference_equation,
                                 theta_determinant)
from thetacalc.operators import (TruncatedOperator, check_multiplication_identity,
                                 classify_mult_operator, derivation_like,
                                 grevy_determinant, substitution_like)
from thetacalc.transforms import DifferentialOperator, diff_to_difference, \
    difference_to_diff

from conftest import (leibniz_det, rand_bivariate, rand_form, rand_matrix,
                      rand_poly, rand_ratfunc)

x = Polynomial.x()
rf = RationalFunction


def report(number, name, ok):
    print("ACCEPTANCE %02d %-28s %s" % (number, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (number, name)


def test_01_casoratian_values():
    ok = True
    seqs3 = [GridFunction.sample(fn, -10, 30) for fn in
             (lambda t: Q(1), lambda t: Q(t), lambda t: Q(t * t))]
    seqs4 = [GridFunction.sample(fn, -10, 30) for fn in
             (lambda t: Q(1), lambda t: Q(t), lambda t: Q(t * t),
              lambda t: Q(t ** 3))]
    for m in range(-5, 6):
        rows3 = [[f(m + i) for f in seqs3] for i in range(3)]
        rows4 = [[f(m + i) for f in seqs4] for i in range(4)]
        ok &= casoratian(seqs3, m) == 2 == leibniz_det(rows3)
        ok &= casoratian(seqs4, m) == 12 == leibniz_det(rows4)
    report(1, "casoratian-values", ok)


def _oracle_nullspace(rows, ncols):
    m = [list(r) for r in rows]
    pivots = {}
    used = set()
    for c in range(ncols - 1, -1, -1):
        pivot = None
        for i in range(len(m) - 1, -1, -1):
            if i not in used and m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        used.add(pivot)
        pivots[c] = pivot
        for i in range(len(m)):
            if i != pivot and m[i][c] != 0:
                f = m[i][c] / m[pivot][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[pivot])]
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Q(0)] * ncols
        vec[fc] = Q(1)
        for c, ri in pivots.items():
            vec[c] = -m[ri][fc] / m[ri][c]
        basis.append(vec)
    return basis


def _span_rank(vectors, ncols):
    m = [list(v) for v in vectors]
    r = 0
    for c in range(ncols):
        p = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - fb * f for a, fb in zip(m[i], m[r])]
        r += 1
    return r


def test_02_christoffel_oracle_equivalence():
    rng = random.Random(1002)
    mismatches = 0
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        window = rng.randint(n + 1, 12)
        ncols = n + 1
        cols = [[Q(rng.randint(-9, 9)) for _ in range(window)]
                for _ in range(ncols - 1)]
        if rng.random() < 0.5:
            mix = [Q(rng.randint(-3, 3)) for _ in range(ncols - 1)]
            cols.append([sum(mv * c[i] for mv, c in zip(mix, cols))
                         for i in range(window)])
        else:
            cols.append([Q(rng.randint(-9, 9)) for _ in range(window)])
        seqs = [GridFunction(0, col) for col in cols]
        rep = christoffel_analyze(seqs, 0, window - 1 - n)
        rows = [[c[i] for c in cols] for i in range(window)]
        oracle = _oracle_nullspace(rows, ncols)
        a = [list(r) for r in rep.relations]
        equal = (len(a) == len(oracle)
                 and (not a or _span_rank(a, ncols) == _span_rank(oracle, ncols)
                      == _span_rank(a + oracle, ncols)))
        if not equal:
            mismatches += 1
        done += 1
    report(2, "christoffel-oracle", mismatches == 0)


def test_03_division_roundtrips():
    rng = random.Random(1003)
    ok = True
    for _ in range(200):
        A = rand_form(rng, 5, 3, 3)
        B = rand_form(rng, rng.randint(0, max(0, int(A.order))), 3, 3)
        G, R = form_divrem(A, B)
        ok &= form_mul(G, B) + R == A
        ok &= R.is_zero() or R.order < B.order
    for _ in range(100):
        A = rand_form(rng, 4, 2, 4)
        gamma = rand_ratfunc(rng, 2, 4)
        quot, rem = ruffini_divide(A, gamma)
        G, R = form_divrem(A, DifferenceForm.theta() - DifferenceForm.from_scalar(gamma))
        ok &= quot == G
        ok &= (R.is_zero() and rem.is_zero()) or R.coeff(0) == rem
    report(3, "division-roundtrips", ok)


def test_04_operational_homomorphism():
    rng = random.Random(1004)
    ok = True
    done = 0
    while done < 200:
        A = rand_form(rng, 2, 1, 4)
        B = rand_form(rng, 2, 1, 4)
        f = GridFunction(-2, [Q(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(14)])
        t0 = rng.randint(-2, 3)
        try:
            inner = [form_apply(B, f, t0 + h) for h in range(int(A.order) + 1)]
            lhs = form_apply(form_mul(A, B), f, t0)
            rhs = form_apply(A, GridFunction(t0, inner), t0)
        except Exception:
            continue
        ok &= lhs == rhs
        done += 1
    report(4, "operational-homomorphism", ok)


def _conjugate(M, P):
    n = len(P)
    ident = linalg.mat_identity(n)
    inv_cols = []
    for col in range(n):
        rhs = [ident[i][col] for i in range(n)]
        sol = linalg.solve([list(r) for r in P], rhs)
        if sol is None:
            return None
        inv_cols.append(sol)
    Pinv = [[inv_cols[j][i] for j in range(n)] for i in range(n)]
    return linalg.mat_mul(linalg.mat_mul(P, M), Pinv)


def test_05_companion_equation():
    import numpy as np
    rng = random.Random(1005)
    ok = True
    done = 0
    while done < 50:
        M = rand_matrix(rng, 3, 5)
        eigs = np.linalg.eigvals(np.array([[float(v) for v in row] for row in M]))
        gaps = [abs(a - b) for i, a in enumerate(eigs)
                for b in eigs[i + 1:]]
        if min(gaps) < 1e-3 or min(abs(e) for e in eigs) < 1e-3:
            continue  # keep numeric Jordan analysis well conditioned
        spec = MonodromySpec(M)
        F = companion_difference_equation(spec)
        coeffs = F.constant_coeff_vector()
        try:
            sols = canonical_fundamental_system(spec)
            numeric = False
        except NoExactRoots:
            try:
                sols = canonical_fundamental_system(
                    MonodromySpec([[complex(v) for v in row] for row in M],
                                  tolerance=1e-9))
            except EigenfailNumeric:
                continue
            numeric = True
        except ZeroDivisor:
            continue
        for y in sols:
            powers = [y]
            for _ in range(len(coeffs) + 8):
                powers.append(powers[-1].theta())
            for n in range(8):
                acc = FormalLocalSolution.zero()
                scale = 1.0
                for k, c in enumerate(coeffs):
                    term = powers[n + k].scaled(c)
                    scale = max(scale, term.max_abs())
                    acc = acc + term
                if numeric:
                    ok &= acc.max_abs() <= 1e-9 * scale
                else:
                    ok &= acc.is_exact_zero()
        done += 1
    conj_done = 0
    while conj_done < 20:
        M = rand_matrix(rng, 3, 4)
        P = rand_matrix(rng, 3, 3)
        conj = _conjugate(M, P)
        if conj is None:
            continue
        ok &= (companion_difference_equation(MonodromySpec(M))
               == companion_difference_equation(MonodromySpec(conj)))
        conj_done += 1
    report(5, "companion-equation", ok)


def test_06_theta_determinant_theorem():
    rng = random.Random(1006)
    ok = True
    mono = FormalLocalSolution.monomial
    for i in range(50):
        # half the instances use a floating modulus so the numeric
        # below-tolerance branch is genuinely exercised
        mag1 = Q(rng.randint(1, 3)) if i % 2 == 0 else rng.uniform(0.5, 2.5)
        y1 = (mono(coeff=Q(rng.randint(1, 5)), rho=Q(rng.randint(0, 3), 2),
                   mag=mag1)
              + mono(coeff=Q(rng.randint(1, 5)), rho=Q(rng.randint(0, 1)),
                     logpow=rng.randint(0, 1)))
        y2 = mono(coeff=Q(rng.randint(1, 5)), rho=Q(rng.randint(0, 2), 3))
        phi1 = mono(coeff=Q(rng.randint(1, 4)), rho=Q(rng.randint(0, 2)))
        phi2 = mono(coeff=Q(-rng.randint(1, 4)), rho=Q(rng.randint(0, 2)))
        y3 = phi1 * y1 + phi2 * y2
        det = theta_determinant([y1, y2, y3])
        ok &= det.is_exact_zero() or det.is_zero(1e-10)
    for _ in range(50):
        # pairwise distinct multipliers guarantee independence
        mags = rng.sample([2, 3, 5, 7, 11], 3)
        fams = [mono(coeff=Q(rng.randint(1, 5)), mag=Q(m)) for m in mags]
        det = theta_determinant(fams)
        ok &= det.max_abs() > 1e-3
    report(6, "theta-determinant", ok)


def test_07_transform_recurrences():
    ok = True
    gamma_rel = diff_to_difference(DifferentialOperator({(0, 1): 1, (0, 0): 1}))
    for n in range(2, 21):
        ok &= gamma_rel.evaluate(lambda m: Q(factorial(m - 1)), n) == 0
    for a in (1, 2, 3):
        beta_rel = diff_to_difference(
            DifferentialOperator({(0, 1): 1, (1, 1): -1, (0, 0): a}))
        B = lambda n: Q(factorial(n - 1) * factorial(a)) / factorial(n + a)
        for n in range(2, 16):
            ok &= beta_rel.evaluate(B, n) == 0
    rng = random.Random(1007)
    for _ in range(100):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            coeffs[(rng.randint(0, 4), rng.randint(0, 4))] = \
                Q(rng.randint(-9, 9), rng.randint(1, 3))
        op = DifferentialOperator(coeffs)
        back = difference_to_diff(diff_to_difference(op))
        ok &= back is not None and back.proportional_to(op)
    report(7, "transform-recurrences", ok)


def test_08_tannery():
    ok = True
    ode = tannery_ode(BivariatePolynomial([rf(-x), rf(0), rf(1)]))
    ok &= ode.coeffs == (rf(-1), rf(2 * x))
    rng = random.Random(1008)
    done = 0
    while done < 50:
        f = rand_bivariate(rng, rng.randint(1, 3), 2, 5)
        if gcd_y(f, f.d_dy()).deg_y > 0:
            continue
        tab = derivative_table(f, f.deg_y)
        o = tannery_ode(f, table=tab)
        samples = []
        tries = 0
        while len(samples) < 5 and tries < 400:
            tries += 1
            z = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.5))
            if abs(tab.phi.eval_complex(z)) < 0.5:
                continue
            if abs(f.leading_y().eval_complex(z)) < 0.5:
                continue
            samples.append(z)
        if len(samples) < 5:
            continue
        resid = verify_ode_numeric(f, o, samples, table=tab)
        ok &= resid < 1e-9
        done += 1
    f0 = BivariatePolynomial([rf(-x), rf(0), rf(1)])
    good = tannery_ode(f0)
    bad = LinearODE(coeffs=(good.coeffs[0] + rf(Polynomial([0, 0, 1])),
                            good.coeffs[1]))
    ok &= verify_ode_numeric(f0, bad, [1, 2 + 1j, -3]) > 1e-3
    report(8, "tannery-construction", ok)


def test_09_quadratic_shape_obstruction():
    # independent quadratic-branch oracle: rationalization (y+x)^2 = x^2-1 mod f
    f = BivariatePolynomial([rf(1), rf(2 * x), rf(1)])
    phi = rf(Polynomial([1, 0, -1]))          # 1 - x^2 = ac - b^2
    alpha, beta = rf(-x), rf(Polynomial([-1]))    # y' = (alpha*y + beta)/phi
    gamma, delta = rf(Polynomial([-1])), rf(-x)   # y'' = (gamma*y + delta)/phi^2
    tab = derivative_table(f, 2)
    ok = tab.rows[1] == (beta / phi, alpha / phi)
    ok &= tab.rows[2] == (delta / (phi * phi), gamma / (phi * phi))
    ode = tannery_ode(f)
    oracle = LinearODE.from_raw([(alpha * delta - beta * gamma) / (phi * phi),
                                 -delta / phi, beta])
    ok &= oracle == ode
    from thetacalc.algebraic import check_tannery_shape
    verdict = check_tannery_shape(ode, tab.phi)
    ok &= verdict is True  # frozen from the oracle computation above
    lead = ode.coeffs[-1]
    ok &= lead.is_polynomial() and lead.as_polynomial().degree > 0
    report(9, "quadratic-shape-check", ok)


def test_10_functional_calculus():
    rng = random.Random(1010)
    N = 10
    ok = True
    T = TruncatedOperator.theta(N)
    D = TruncatedOperator.derivative_d(N)
    I = TruncatedOperator.identity(N)
    ok &= T.functional_derivative().equal_on_reliable(T)
    ok &= D.functional_derivative().equal_on_reliable(I)
    for _ in range(10):
        a = rand_poly(rng, 2, 4)
        Sa = TruncatedOperator.substitution(a, N)
        ok &= Sa.functional_derivative().equal_on_reliable(
            TruncatedOperator.multiplication(a - x, N).compose(Sa))
    builders = [
        lambda: TruncatedOperator.theta(N),
        lambda: TruncatedOperator.derivative_d(N),
        lambda: TruncatedOperator.multiplication(rand_poly(rng, 2, 3), N),
        lambda: TruncatedOperator.substitution(rand_poly(rng, 1, 3), N),
    ]
    done = 0
    while done < 100:
        A = rng.choice(builders)()
        B = rng.choice(builders)()
        try:
            lhs = A.compose(B).functional_derivative()
            rhs = (A.functional_derivative().compose(B)
                   + A.compose(B.functional_derivative()))
        except Exception:
            continue
        ok &= lhs.equal_on_reliable(rhs)
        done += 1
    # multiplication theorem for both canonical families
    pair_pool = [(rand_poly(rng, 2, 4), rand_poly(rng, 2, 4)) for _ in range(100)]
    for _ in range(50):
        xi = rand_poly(rng, 1, 3)
        xi1 = rand_poly(rng, 1, 3)
        A = derivation_like(xi, xi1, N)
        ok &= check_multiplication_identity(A, 0, rf(xi), pair_pool)
    for _ in range(50):
        w = rand_poly(rng, 0, 3, nonzero=True)
        mu = rand_poly(rng, 1, 3)
        xi = rand_poly(rng, 1, 3)
        A = substitution_like(w, mu, xi, N)
        ok &= check_multiplication_identity(A, rf(Polynomial.one(), w), rf(xi),
                                            pair_pool)
    # classify round-trips on constructed specs
    for _ in range(10):
        xi = rand_poly(rng, 1, 3)
        xi1 = rand_poly(rng, 1, 3)
        spec = classify_mult_operator(derivation_like(xi, xi1, N))
        ok &= spec.kind == "derivation-like" and spec.xi == rf(xi) \
            and spec.xi1 == rf(xi1)
    for _ in range(10):
        w = rand_poly(rng, 0, 3, nonzero=True)
        mu = rand_poly(rng, 1, 3)
        if mu == x:
            continue
        xi = rand_poly(rng, 1, 3)
        spec = classify_mult_operator(substitution_like(w, mu, xi, N))
        ok &= spec.kind == "substitution-like" and spec.mu == mu
    # grevy determinant vanishes for duplicated operators
    ok &= grevy_determinant([T, T]).is_zero_on_reliable()
    ok &= grevy_determinant([D, T, D]).is_zero_on_reliable()
    report(10, "functional-calculus", ok)


def test_11_cauchy_partial_fractions():
    rng = random.Random(1011)
    ok = True
    done = 0
    while done < 50:
        roots = {}
        for _ in range(rng.randint(1, 3)):
            roots[Q(rng.randint(-6, 6))] = rng.randint(1, 3)
        F = Polynomial.constant(Q(rng.randint(1, 5)))
        for r, m in roots.items():
            F = F * Polynomial([-r, 1]) ** m
        if F.degree < 1:
            continue
        blocks = cauchy_partial_fractions(F)
        dF = F.derivative()
        for b in blocks:
            if b.multiplicity == 1:
                ok &= b.residues[0] == Q(1) / dF.eval(b.root)
        samples = 0
        zval = Q(17, 2)
        while samples < 5:
            if F.eval(zval) != 0:
                ok &= partial_fraction_eval(blocks, zval) == Q(1) / F.eval(zval)
                samples += 1
            zval += Q(3, 7)
        done += 1
    report(11, "cauchy-partial-fractions", ok)


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_12_parser_contract():
    rng = random.Random(1012)
    ok = True
    for _ in range(200):
        F = rand_form(rng, 4, 2, 7)
        ok &= eval_form(parse(format_form(F))) == F
    for argv in (("--json", "mul", "T - x", "T + x/(x-1)"),
                 ("--json", "tannery", "y^2 - x"),
                 ("--json", "cauchy-pf", "(x-1)*(x-2)")):
        outs = {_run_cli(*argv) for _ in range(3)}
        ok &= len(outs) == 1
        code, _, _ = next(iter(outs))
        ok &= code == 0
    code_ok, _, _ = _run_cli("parse", "T^2 - 1")
    code_dom, _, _ = _run_cli("parse", "x +* 2")
    code_use, _, _ = _run_cli("definitely-not-a-subcommand")
    ok &= code_ok == 0 and code_dom == 1 and code_use == 2
    report(12, "parser-contract", ok)
