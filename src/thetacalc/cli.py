"""Command-line front-end.

Every computation is exposed as a subcommand with deterministic text or
JSON output (--json).  Exit codes: 0 success, 1 domain error, 2 usage
error.  Rationals are always printed decimal-free as "p/q".
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from . import dependence as dep
from . import monodromy as mono
from . import operators as ops
from . import transforms as tra
from .algebraic import (check_tannery_shape, derivative_table, tannery_ode,
                        verify_ode_numeric)
from .errors import ExprSyntaxError, ThetaCalcError
from .exact import Q, RationalFunction, _fmt_q, format_polynomial
from .expr import (eval_bivariate, eval_form, eval_operator, eval_ratfunc,
                   eval_sequence_poly, format_form, parse)
from .forms import (DifferenceForm, GridFunction, cauchy_partial_fractions,
                    form_apply, form_divrem, form_mul, ruffini_divide)


def _form_json(F: DifferenceForm):
    return [str(c) for c in F.coeffs]


def _emit(args, payload, text_lines):
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _parse_matrix(text: str):
    data = json.loads(text)
    rows = []
    for row in data:
        r = []
        for v in row:
            if isinstance(v, bool):
                raise ThetaCalcError("boolean matrix entry")
            if isinstance(v, int):
                r.append(Q(v))
            elif isinstance(v, str):
                if "j" in v or "J" in v:
                    r.append(complex(v))
                else:
                    r.append(Fraction(v))
            elif isinstance(v, float):
                r.append(v)
            elif isinstance(v, list) and len(v) == 2:
                r.append(complex(v[0], v[1]))
            else:
                raise ThetaCalcError("bad matrix entry %r" % (v,))
        rows.append(r)
    return rows


def _matrix_spec(args) -> mono.MonodromySpec:
    if args.exact and args.numeric:
        raise ThetaCalcError("--exact and --numeric are mutually exclusive")
    rows = _parse_matrix(args.matrix)
    mode = None
    if args.numeric:
        rows = [[complex(v) if not isinstance(v, complex) else v for v in row]
                for row in rows]
        mode = "numeric"
    if args.exact:
        mode = "exact"
    return mono.MonodromySpec(rows, mode=mode, tolerance=args.tolerance)


def _sequences(args) -> List[GridFunction]:
    seqs = []
    lo, hi = args._window_lo, args._window_hi
    for text in args.seq:
        p = eval_sequence_poly(parse(text))
        seqs.append(GridFunction.sample(lambda t, p=p: p.eval(t), lo, hi - lo + 1))
    return seqs


def _parse_window(text: str):
    if ".." not in text:
        raise ThetaCalcError("window must look like a..b")
    a, b = text.split("..", 1)
    return int(a), int(b)


def _parse_samples(text: str):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(complex(piece))
        except ValueError:
            out.append(float(Fraction(piece)))
    return out


def _op_dump(A: ops.TruncatedOperator):
    return {
        "label": A.label,
        "truncation": A.N,
        "valid_degree": A.valid_degree,
        "columns": [format_polynomial(A.column_poly(j), "x")
                    for j in range(max(A.valid_degree + 1, 0))],
    }


def _parse_solution(text: str) -> mono.FormalLocalSolution:
    data = json.loads(text)
    terms = {}
    for item in data:
        rho = Fraction(str(item.get("rho", "0")))
        mag_raw = item.get("mag", "1")
        if isinstance(mag_raw, str):
            mag = Fraction(mag_raw)
        elif isinstance(mag_raw, int):
            mag = Fraction(mag_raw)
        else:
            mag = float(mag_raw)
        k = int(item.get("k", 0))
        c_raw = item.get("coeff", "1")
        if isinstance(c_raw, str):
            coeff = Fraction(c_raw)
        elif isinstance(c_raw, list):
            coeff = complex(c_raw[0], c_raw[1])
        elif isinstance(c_raw, int):
            coeff = Fraction(c_raw)
        else:
            coeff = complex(c_raw)
        terms[(rho, mag, k)] = coeff
    return mono.FormalLocalSolution(terms)


def _solution_json(s: mono.FormalLocalSolution):
    out = []
    for (rho, mag, k) in sorted(s.terms, key=lambda key: (float(key[0]),
                                                          float(key[1]), key[2])):
        c = s.terms[(rho, mag, k)]
        item = {"rho": _fmt_q(rho), "k": k}
        item["mag"] = _fmt_q(mag) if isinstance(mag, Fraction) else float(mag)
        if isinstance(c, Fraction):
            item["coeff"] = _fmt_q(c)
        else:
            item["coeff"] = [c.real, c.imag]
        out.append(item)
    return out


def _report_json(rep: dep.DependenceReport):
    return {
        "window": list(rep.window),
        "rank": rep.rank,
        "case": rep.case,
        "relations": [[_fmt_q(v) for v in rel] for rel in rep.relations],
    }


# -- subcommand bodies -----------------------------------------------------------

def _cmd_mul(args):
    A = eval_form(parse(args.a))
    B = eval_form(parse(args.b))
    C = form_mul(A, B)
    _emit(args, {"coeffs": _form_json(C), "text": format_form(C)}, [format_form(C)])
    return 0


def _cmd_divrem(args):
    A = eval_form(parse(args.a))
    B = eval_form(parse(args.b))
    G, R = form_divrem(A, B)
    _emit(args,
          {"gamma": _form_json(G), "remainder": _form_json(R)},
          ["Gamma: %s" % format_form(G), "R: %s" % format_form(R)])
    return 0


def _cmd_ruffini(args):
    A = eval_form(parse(args.a))
    g = eval_ratfunc(parse(args.gamma))
    Qf, r = ruffini_divide(A, g)
    _emit(args,
          {"quotient": _form_json(Qf), "remainder": str(r)},
          ["quotient: %s" % format_form(Qf), "remainder: %s" % r])
    return 0


def _cmd_apply(args):
    if len(args.seq) != 1:
        raise ThetaCalcError("apply takes exactly one --seq")
    F = eval_form(parse(args.form))
    p = eval_sequence_poly(parse(args.seq[0]))
    order = int(F.order) if not F.is_zero() else 0
    g = GridFunction.sample(lambda t: p.eval(t), args.at, order + 1)
    v = form_apply(F, g, args.at)
    _emit(args, {"value": _fmt_q(v)}, [_fmt_q(v)])
    return 0


def _cmd_casoratian(args):
    n = len(args.seq)
    args._window_lo = args.at
    args._window_hi = args.at + n - 1
    seqs = _sequences(args)
    v = dep.casoratian(seqs, args.at)
    _emit(args, {"value": _fmt_q(v)}, [_fmt_q(v)])
    return 0


def _cmd_dependence(args):
    n = len(args.seq) - 1
    args._window_lo = args.m0
    args._window_hi = args.m0 + n + args.p
    seqs = _sequences(args)
    rep = dep.christoffel_analyze(seqs, args.m0, args.p)
    payload = _report_json(rep)
    lines = ["case: %s  rank: %d  window: [%d, %d)" % (rep.case, rep.rank,
                                                       rep.window[0], rep.window[1])]
    for rel in rep.relations:
        lines.append("relation: " + " ".join(_fmt_q(v) for v in rel))
    _emit(args, payload, lines)
    return 0


def _cmd_scan(args):
    lo, hi = _parse_window(args.window)
    args._window_lo = lo
    args._window_hi = hi + args.length
    seqs = _sequences(args)
    reports = dep.windowed_scan(seqs, range(lo, hi + 1), args.length)
    payload = [_report_json(r) for r in reports]
    lines = []
    for r in reports:
        lines.append("window [%d, %d): case %s rank %d" % (r.window[0], r.window[1],
                                                           r.case, r.rank))
    _emit(args, payload, lines)
    return 0


def _cmd_companion(args):
    spec = _matrix_spec(args)
    F = mono.companion_difference_equation(spec)
    _emit(args, {"coeffs": _form_json(F), "text": format_form(F)}, [format_form(F)])
    return 0


def _cmd_minimal(args):
    spec = _matrix_spec(args)
    F = mono.minimal_relation(spec)
    _emit(args, {"coeffs": _form_json(F), "text": format_form(F)}, [format_form(F)])
    return 0


def _cmd_local_structure(args):
    spec = _matrix_spec(args)
    st = mono.local_structure(spec)
    payload = []
    lines = []
    for b in st.blocks:
        lam = b.eigenvalue
        lam_out = _fmt_q(lam) if isinstance(lam, Fraction) else [lam.real, lam.imag]
        mag_out = _fmt_q(b.mag) if isinstance(b.mag, Fraction) else float(b.mag)
        payload.append({"eigenvalue": lam_out, "rho": _fmt_q(b.rho),
                        "mag": mag_out, "jordan_sizes": list(b.jordan_sizes)})
        lines.append("lambda=%s rho=%s blocks=%s"
                     % (lam_out, _fmt_q(b.rho), list(b.jordan_sizes)))
    _emit(args, payload, lines)
    return 0


def _cmd_canonical_system(args):
    spec = _matrix_spec(args)
    sols, action = mono.canonical_system_with_action(spec)
    payload = {
        "solutions": [_solution_json(s) for s in sols],
        "action": [[_fmt_q(v) if isinstance(v, Fraction) else [complex(v).real,
                                                               complex(v).imag]
                    for v in row] for row in action],
    }
    lines = [repr(s) for s in sols]
    _emit(args, payload, lines)
    return 0


def _cmd_theta_det(args):
    sols = [_parse_solution(t) for t in args.sol]
    det = mono.theta_determinant(sols, tol=args.tolerance)
    payload = {"terms": _solution_json(det), "max_abs": det.max_abs(),
               "zero_at_tolerance": det.is_zero(args.tolerance)}
    _emit(args, payload, [repr(det), "max_abs: %g" % det.max_abs()])
    return 0


def _cmd_transform(args):
    data = json.loads(args.operator)
    coeffs = {}
    for lam, r, a in data["terms"]:
        coeffs[(int(lam), int(r))] = coeffs.get((int(lam), int(r)), Q(0)) + Fraction(str(a))
    op = tra.DifferentialOperator(coeffs)
    rel = tra.diff_to_difference(op)
    payload = {"shifts": {str(s): format_polynomial(p, "x")
                          for s, p in sorted(rel.terms.items())}}
    lines = ["shift %d: %s" % (s, format_polynomial(p, "x"))
             for s, p in sorted(rel.terms.items())]
    form, offset = tra.as_theta_form(rel)
    payload["theta_form"] = _form_json(form)
    payload["offset"] = offset
    lines.append("as form (offset %d): %s" % (offset, format_form(form)))
    _emit(args, payload, lines)
    return 0


def _cmd_transform_inverse(args):
    data = json.loads(args.relation)
    terms = {}
    for s, poly_text in data["terms"]:
        r = eval_ratfunc(parse(poly_text))
        if not r.is_polynomial():
            raise ThetaCalcError("relation coefficients must be polynomial")
        terms[int(s)] = r.as_polynomial()
    rel = tra.ShiftedDifferenceRelation(terms)
    op = tra.difference_to_diff(rel)
    if op is None:
        _emit(args, {"operator": None}, ["no preimage"])
        return 0
    entries = [[lam, r, _fmt_q(a)] for (lam, r), a in sorted(op.coeffs.items())]
    _emit(args, {"operator": {"terms": entries}},
          ["term y^%d phi^(%d): %s" % (lam, r, c) for lam, r, c in entries])
    return 0


def _cmd_tannery(args):
    f = eval_bivariate(parse(args.f))
    ode = tannery_ode(f, minimal=not args.full_order)
    payload = {"order": ode.order, "coeffs": [str(c) for c in ode.coeffs]}
    _emit(args, payload, [json.dumps(payload, sort_keys=True)])
    return 0


def _cmd_tannery_shape(args):
    f = eval_bivariate(parse(args.f))
    table = derivative_table(f, f.deg_y)
    ode = tannery_ode(f)
    ok = check_tannery_shape(ode, table.phi)
    payload = {"phi": str(table.phi), "order": ode.order,
               "coeffs": [str(c) for c in ode.coeffs],
               "shape_ok": ok,
               "leading": str(ode.coeffs[-1])}
    _emit(args, payload,
          ["phi: %s" % table.phi, "ode coeffs: %s" % payload["coeffs"],
           "shape_ok: %s" % ok])
    return 0


def _cmd_verify_numeric(args):
    f = eval_bivariate(parse(args.f))
    ode = tannery_ode(f)
    samples = _parse_samples(args.samples)
    resid = verify_ode_numeric(f, ode, samples)
    payload = {"max_residual": resid}
    _emit(args, payload, ["max residual: %g" % resid])
    return 0


def _cmd_funcder(args):
    A = eval_operator(parse(args.op), args.trunc)
    Ap = A.functional_derivative()
    _emit(args, _op_dump(Ap),
          ["valid_degree: %d" % Ap.valid_degree]
          + ["A'(x^%d) = %s" % (j, format_polynomial(Ap.column_poly(j), "x"))
             for j in range(Ap.valid_degree + 1)])
    return 0


def _cmd_mult_check(args):
    A = eval_operator(parse(args.op), args.trunc)
    alpha = eval_ratfunc(parse(args.alpha))
    xi = eval_ratfunc(parse(args.xi))
    pairs = []
    for chunk in args.pairs.split(";"):
        u_text, v_text = chunk.split(":")
        u = eval_ratfunc(parse(u_text))
        v = eval_ratfunc(parse(v_text))
        if not (u.is_polynomial() and v.is_polynomial()):
            raise ThetaCalcError("test pairs must be polynomials")
        pairs.append((u.as_polynomial(), v.as_polynomial()))
    ok = ops.check_multiplication_identity(A, alpha, xi, pairs)
    _emit(args, {"holds": ok}, ["holds: %s" % ok])
    return 0


def _cmd_classify(args):
    A = eval_operator(parse(args.op), args.trunc)
    spec = ops.classify_mult_operator(A)
    payload = {"kind": spec.kind, "alpha": str(spec.alpha),
               "xi": str(spec.xi), "xi1": str(spec.xi1),
               "mu": format_polynomial(spec.mu, "x") if spec.mu is not None else None}
    _emit(args, payload, ["%s: alpha=%s xi=%s mu=%s"
                          % (spec.kind, spec.alpha, spec.xi, payload["mu"])])
    return 0


def _cmd_grevy(args):
    operators = [eval_operator(parse(t), args.trunc) for t in args.op]
    G = ops.grevy_determinant(operators)
    payload = {"zero_on_reliable": G.is_zero_on_reliable(),
               "valid_degree": G.valid_degree}
    _emit(args, payload,
          ["zero_on_reliable: %s (valid degree %d)"
           % (payload["zero_on_reliable"], G.valid_degree)])
    return 0


def _cmd_nsymb_check(args):
    lams = [eval_ratfunc(parse(t)) for t in getattr(args, "lam")]
    cands = []
    for t in args.candidate:
        r = eval_ratfunc(parse(t))
        if not r.is_polynomial():
            raise ThetaCalcError("candidates must be polynomial")
        cands.append(r.as_polynomial())
    reports = ops.nsymb_solution_check(lams, cands, N=args.trunc)
    payload = [{"candidate": format_polynomial(r.candidate, "x"),
                "operator_is_zero": r.operator_is_zero,
                "checked_degree": r.checked_degree} for r in reports]
    _emit(args, payload,
          ["%s: zero=%s (degree %d)" % (p["candidate"], p["operator_is_zero"],
                                        p["checked_degree"]) for p in payload])
    return 0


def _cmd_cauchy_pf(args):
    r = eval_ratfunc(parse(args.f))
    if not r.is_polynomial():
        raise ThetaCalcError("need a polynomial")
    blocks = cauchy_partial_fractions(r.as_polynomial())
    payload = [{"root": _fmt_q(b.root), "multiplicity": b.multiplicity,
                "residues": [_fmt_q(v) for v in b.residues]} for b in blocks]
    _emit(args, payload,
          ["root %s (m=%d): %s" % (p["root"], p["multiplicity"],
                                   " ".join(p["residues"])) for p in payload])
    return 0


def _cmd_parse(args):
    context = args.context
    if context == "form":
        obj = eval_form(parse(args.expr))
        out = format_form(obj)
        payload = {"normalized": out, "coeffs": _form_json(obj)}
    elif context == "ratfunc":
        obj = eval_ratfunc(parse(args.expr))
        out = str(obj)
        payload = {"normalized": out}
    elif context == "bivariate":
        obj = eval_bivariate(parse(args.expr))
        out = str(obj)
        payload = {"normalized": out}
    else:
        obj = eval_sequence_poly(parse(args.expr))
        out = format_polynomial(obj, "t")
        payload = {"normalized": out}
    _emit(args, payload, [out])
    return 0


def _cmd_selftest(args):
    import random
    rng = random.Random(args.seed)
    from .exact import Polynomial as P

    def rand_rf(deg=2, height=5):
        num = P([rng.randint(-height, height) for _ in range(deg + 1)])
        den = P.zero()
        while den.is_zero():
            den = P([rng.randint(-height, height) for _ in range(deg)] + [1])
        return RationalFunction(num, den)

    def rand_form(order=3):
        coeffs = [rand_rf(1, 3) for _ in range(order)]
        lead = RationalFunction.zero()
        while lead.is_zero():
            lead = rand_rf(1, 3)
        return DifferenceForm(coeffs + [lead])

    checks = 0
    for _ in range(args.rounds):
        A = rand_form(rng.randint(1, 3))
        B = rand_form(rng.randint(1, 3))
        C = rand_form(rng.randint(0, 2))
        if form_mul(form_mul(A, B), C) != form_mul(A, form_mul(B, C)):
            raise ThetaCalcError("selftest: form_mul is not associative (seed %d)"
                                 % args.seed)
        G, R = form_divrem(form_mul(A, B), B)
        if form_mul(G, B) + R != form_mul(A, B):
            raise ThetaCalcError("selftest: form_divrem does not reconstruct (seed %d)"
                                 % args.seed)
        checks += 2
    _emit(args, {"ok": True, "checks": checks, "seed": args.seed},
          ["selftest ok (%d checks, seed %d)" % (checks, args.seed)])
    return 0


# -- argument wiring ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thetacalc",
        description="Exact shift-operator calculus: difference forms, "
                    "dependence tests, local monodromy analysis, kernel "
                    "transforms, algebraic-function ODEs, operator calculus.")
    ap.add_argument("--json", action="store_true", help="emit one JSON document")
    ap.add_argument("--exact", action="store_true", help="force exact mode")
    ap.add_argument("--numeric", action="store_true", help="force numeric mode")
    ap.add_argument("--tolerance", type=float, default=1e-10,
                    help="numeric zero tolerance (default 1e-10)")
    ap.add_argument("--trunc", type=int, default=16,
                    help="operator truncation degree (default 16)")
    ap.add_argument("--seed", type=int, default=0, help="seed for selftest")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="noncommutative product of two forms")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("divrem", help="left division A = Gamma*B + R")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_divrem)

    p = sub.add_parser("ruffini", help="divide a form by T - gamma")
    p.add_argument("a")
    p.add_argument("gamma")
    p.set_defaults(fn=_cmd_ruffini)

    p = sub.add_parser("apply", help="apply a form to a sequence at a point")
    p.add_argument("form")
    p.add_argument("--seq", action="append", required=True,
                   help="polynomial in t")
    p.add_argument("--at", type=int, required=True)
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("casoratian", help="Casoratian determinant at a base point")
    p.add_argument("--seq", action="append", required=True)
    p.add_argument("--at", type=int, required=True)
    p.set_defaults(fn=_cmd_casoratian)

    p = sub.add_parser("dependence", help="windowed rank/relation analysis")
    p.add_argument("--seq", action="append", required=True)
    p.add_argument("--m0", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_dependence)

    p = sub.add_parser("scan", help="sliding-window dependence scan")
    p.add_argument("--seq", action="append", required=True)
    p.add_argument("--window", required=True, help="a..b window start range")
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(fn=_cmd_scan)

    for name, fn, hlp in [
            ("companion", _cmd_companion,
             "constant-coefficient equation from a monodromy matrix"),
            ("minimal", _cmd_minimal, "minimal relation of a monodromy matrix"),
            ("local-structure", _cmd_local_structure,
             "eigenvalues, exponents and Jordan data"),
            ("canonical-system", _cmd_canonical_system,
             "canonical fundamental system and theta action")]:
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--matrix", required=True, help="JSON rows")
        p.set_defaults(fn=fn)

    p = sub.add_parser("theta-det", help="determinant det[theta^i y_j]")
    p.add_argument("--sol", action="append", required=True,
                   help="JSON list of terms {rho, mag, k, coeff}")
    p.set_defaults(fn=_cmd_theta_det)

    p = sub.add_parser("transform", help="differential operator -> shifted relation")
    p.add_argument("--operator", required=True,
                   help='JSON {"terms": [[lam, r, coeff], ...]}')
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("transform-inverse", help="shifted relation -> operator")
    p.add_argument("--relation", required=True,
                   help='JSON {"terms": [[shift, "poly"], ...]}')
    p.set_defaults(fn=_cmd_transform_inverse)

    p = sub.add_parser("tannery", help="annihilating ODE of f(x, y) = 0")
    p.add_argument("f")
    p.add_argument("--full-order", action="store_true",
                   help="differentiate up to order deg_y f")
    p.set_defaults(fn=_cmd_tannery)

    p = sub.add_parser("tannery-shape", help="test the claimed Q_k/phi^k shape")
    p.add_argument("f")
    p.set_defaults(fn=_cmd_tannery_shape)

    p = sub.add_parser("verify-numeric", help="numeric residual of the ODE")
    p.add_argument("f")
    p.add_argument("--samples", required=True, help="comma-separated complex samples")
    p.set_defaults(fn=_cmd_verify_numeric)

    p = sub.add_parser("funcder", help="functional derivative of an operator")
    p.add_argument("--op", required=True)
    p.set_defaults(fn=_cmd_funcder)

    p = sub.add_parser("mult-check", help="verify the multiplication identity")
    p.add_argument("--op", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--pairs", required=True, help="u:v;u2:v2 ...")
    p.set_defaults(fn=_cmd_mult_check)

    p = sub.add_parser("classify", help="recover (alpha, xi) and canonical family")
    p.add_argument("--op", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("grevy", help="operator determinant of a family")
    p.add_argument("--op", action="append", required=True)
    p.set_defaults(fn=_cmd_grevy)

    p = sub.add_parser("nsymb-check", help="verify candidates for a symbolic ODE")
    p.add_argument("--lam", action="append", required=True, dest="lam",
                   help="lambda_k coefficients, highest derivative first")
    p.add_argument("--candidate", action="append", required=True)
    p.set_defaults(fn=_cmd_nsymb_check)

    p = sub.add_parser("cauchy-pf", help="exact partial fractions of 1/F")
    p.add_argument("f")
    p.set_defaults(fn=_cmd_cauchy_pf)

    p = sub.add_parser("parse", help="parse and reprint in normal form")
    p.add_argument("expr")
    p.add_argument("--context", choices=["form", "ratfunc", "bivariate", "sequence"],
                   default="form")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("selftest", help="randomized identity battery")
    p.add_argument("--rounds", type=int, default=25)
    p.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ExprSyntaxError as exc:
        sys.stderr.write("syntax error: %s\n" % exc)
        return 1
    except ThetaCalcError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
