"""Expression grammar, canonical printing, CLI contract."""
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q

import pytest

from thetacalc.cli import main
from thetacalc.errors import EvalDomainError, ExprSyntaxError, ThetaCalcError
from thetacalc.exact import Polynomial, RationalFunction
from thetacalc.expr import (eval_bivariate, eval_form, eval_operator,
                            eval_ratfunc, eval_sequence_poly, format_form,
                            parse)
from thetacalc.forms import DifferenceForm
from thetacalc.operators import TruncatedOperator

from conftest import rand_form, rand_ratfunc

x = Polynomial.x()


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestParser:
    def test_form_coefficients(self):
        F = eval_form(parse("(x+1)*T^2 - 3*T + x/(x-1)"))
        assert F.coeff(2) == RationalFunction(x + 1)
        assert F.coeff(1) == RationalFunction(Polynomial([-3]))
        assert F.coeff(0) == RationalFunction(x, x - 1)

    def test_commutation_normalized(self):
        F = eval_form(parse("T*x"))
        assert F == DifferenceForm([0, RationalFunction(x + 1)])

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x +* 2")
        assert exc.value.offset == 3
        assert exc.value.expected

    def test_power_requires_uint(self):
        with pytest.raises(ExprSyntaxError):
            parse("T^x")

    def test_unary_minus(self):
        r = eval_ratfunc(parse("-x^2 + 1"))
        assert r == RationalFunction(Polynomial([1, 0, -1]))

    def test_precedence(self):
        r = eval_ratfunc(parse("1 + 2*3^2"))
        assert r == RationalFunction.constant(19)

    def test_bivariate(self):
        f = eval_bivariate(parse("y^2 + 2*x*y + 1"))
        assert f.deg_y == 2
        assert f.coeff(1) == RationalFunction(2 * x)

    def test_sequence_polynomial(self):
        p = eval_sequence_poly(parse("t^2 - 3*t + 1"))
        assert p == Polynomial([1, -3, 1])


class TestOperatorGrammar:
    N = 6

    def same(self, A, B):
        assert (A.label, A.valid_degree, A.matrix) == (B.label, B.valid_degree, B.matrix)

    def test_atoms(self):
        Op = TruncatedOperator
        self.same(eval_operator(parse("T"), self.N), Op.theta(self.N))
        self.same(eval_operator(parse("D"), self.N), Op.derivative_d(self.N))
        self.same(eval_operator(parse("I"), self.N), Op.identity(self.N))
        self.same(eval_operator(parse("S (x + 1)"), self.N),
                  Op.substitution(x + 1, self.N))
        self.same(eval_operator(parse("M(x^2)"), self.N),
                  Op.multiplication(x * x, self.N))

    def test_composition_order_and_labels(self):
        Op = TruncatedOperator
        T, D = Op.theta(self.N), Op.derivative_d(self.N)
        two = Op.identity(self.N).scaled(2)
        self.same(eval_operator(parse("-T o D"), self.N), (-T).compose(D))
        self.same(eval_operator(parse("2*D + T"), self.N), two.compose(D) + T)
        self.same(eval_operator(parse("T - D"), self.N), T - D)

    @pytest.mark.parametrize("text, negate, label", [
        ("T o 2/3", False, "(T o 2/3*I)"),
        ("T * 4/6", False, "(T o 2/3*I)"),
        ("T o -2/3", True, "(T o -1*2/3*I)")])
    def test_rational_literal_after_composition(self, text, negate, label):
        lit = TruncatedOperator.identity(self.N).scaled(Q(2, 3))
        A = eval_operator(parse(text), self.N)
        self.same(A, TruncatedOperator.theta(self.N).compose(-lit if negate else lit))
        assert A.label == label

    @pytest.mark.parametrize("text", ["x", "1/0", "T/3", "2/T", "T^2", "M(1/x)", "S(T)"])
    def test_domain_errors(self, text):
        with pytest.raises(EvalDomainError):
            eval_operator(parse(text), self.N)

    def test_argument_offsets_are_absolute(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("T o M(x +* 2)")
        assert exc.value.offset == 9

    @pytest.mark.parametrize("evaluate", [eval_form, eval_ratfunc, eval_bivariate,
                                          eval_sequence_poly])
    @pytest.mark.parametrize("text", ["S(x)", "M(1)", "T o T", "D", "I"])
    def test_operator_names_are_domain_errors_elsewhere(self, evaluate, text):
        with pytest.raises(EvalDomainError):
            evaluate(parse(text))

    @pytest.mark.parametrize("op, message", [
        ("1/0", "error: division by zero"),
        ("x", "error: variable 'x' not allowed in an operator"),
        ("S x", "syntax error: unexpected 'x' at offset 2"),
        ("M(x", "syntax error: unexpected 'end of input' at offset 3"),
        ("T +", "syntax error: unexpected 'end of input' at offset 3"),
        ("T S(x)", "syntax error: trailing input 'S' at offset 2"),
    ])
    def test_cli_operator_errors_exit_1(self, op, message):
        code, out, err = run_cli("funcder", "--op", op)
        assert (code, out) == (1, "")
        assert err.startswith(message), err
        assert "Traceback" not in err

    def test_cli_parse_rejects_operator_in_form(self):
        code, _, err = run_cli("parse", "--context", "form", "S(x)")
        assert code == 1
        assert err == "error: operator 'S' not allowed in a form\n"


class TestParserFuzz:
    def test_garbage_never_escapes_syntax_errors(self):
        rng = random.Random(73)
        alphabet = "xytT0123456789+-*/^() .@#"
        for _ in range(300):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 24)))
            try:
                parse(text)
            except ExprSyntaxError:
                pass  # the only acceptable failure mode

    def test_operator_garbage_raises_only_library_errors(self):
        rng = random.Random(74)
        pieces = ["T", "D", "I", "S(x+1)", "M(x^2)", "x", "0", "2", "3", "+", "-",
                  "*", " o ", "/", "^", "(", ")"]
        for _ in range(300):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 9)))
            try:
                eval_operator(parse(text), 4)
            except ThetaCalcError:
                pass


class TestPrintParseRoundTrip:
    def test_corpus(self):
        rng = random.Random(71)
        for i in range(200):
            F = rand_form(rng, max_order=4, coeff_deg=2, height=7)
            text = format_form(F)
            back = eval_form(parse(text))
            assert back == F, text

    def test_ratfunc_roundtrip(self):
        rng = random.Random(72)
        for _ in range(100):
            r = rand_ratfunc(rng, 3, 9)
            assert eval_ratfunc(parse(str(r))) == r


class TestCliContract:
    def test_mul_example(self):
        code, out, _ = run_cli("mul", "T - x", "T - x")
        assert code == 0
        assert out.strip() == "T^2 - (2*x + 1)*T + x^2"

    def test_casoratian_example(self):
        code, out, _ = run_cli("casoratian", "--seq", "1", "--seq", "t",
                               "--seq", "t^2", "--at", "0")
        assert code == 0
        assert out.strip() == "2"

    def test_tannery_json(self):
        code, out, _ = run_cli("--json", "tannery", "y^2 - x")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"coeffs": ["-1", "2*x"], "order": 1}

    def test_rational_strings_decimal_free(self):
        code, out, _ = run_cli("--json", "ruffini", "T^2", "x")
        assert code == 0
        doc = json.loads(out)
        for c in doc["quotient"]:
            assert "." not in c
        assert "." not in doc["remainder"]

    def test_exit_code_domain_error(self):
        code, out, err = run_cli("parse", "x +* 2")
        assert code == 1
        assert "offset 3" in err

    def test_exit_code_usage_error(self):
        code, _, _ = run_cli("not-a-command")
        assert code == 2

    def test_exit_code_division_domain(self):
        code, _, err = run_cli("divrem", "T", "0")
        assert code == 1

    def test_mode_flags_mutually_exclusive(self):
        code, _, err = run_cli("--exact", "--numeric", "companion",
                               "--matrix", "[[1]]")
        assert code == 1 and "mutually exclusive" in err

    def test_exact_mode_rejects_floats(self):
        code, _, err = run_cli("--exact", "companion", "--matrix", "[[0.5]]")
        assert code == 1

    def test_byte_determinism(self):
        argvs = [
            ("--json", "mul", "(x+1)*T^2 - 3*T + x/(x-1)", "T + 2"),
            ("--json", "dependence", "--seq", "t^2", "--seq", "2*t^2",
             "--m0", "-3", "--p", "4"),
            ("--json", "companion", "--matrix", "[[1,1],[0,1]]"),
            ("--json", "cauchy-pf", "(x-1)*(x-2)"),
        ]
        for argv in argvs:
            runs = {run_cli(*argv) for _ in range(3)}
            assert len(runs) == 1
            code, out, err = next(iter(runs))
            assert code == 0

    def test_parse_roundtrip_through_cli(self):
        code, out, _ = run_cli("parse", "T*x + T*T - 1/2")
        assert code == 0
        code2, out2, _ = run_cli("parse", out.strip())
        assert code2 == 0
        assert out2 == out

    def test_apply(self):
        code, out, _ = run_cli("apply", "T^2 - 3*T + 2", "--seq", "t", "--at", "4")
        assert code == 0
        # y(t)=t: (t+2) - 3(t+1) + 2t = -1
        assert out.strip() == "-1"

    def test_scan(self):
        code, out, _ = run_cli("--json", "scan", "--seq", "t", "--seq", "2*t",
                               "--window", "0..5", "--length", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 1 and doc[0]["case"] == "a"

    def test_minimal(self):
        code, out, _ = run_cli("minimal", "--matrix", "[[1,0],[0,1]]")
        assert code == 0
        assert out.strip() == "T - 1"

    def test_minimal_numeric_without_a_fit_is_an_error(self):
        code, out, err = run_cli("--tolerance", "1e-30", "minimal", "--matrix",
                                 "[[0.5,0.1],[0.2,0.3]]")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_local_structure_numeric(self):
        import math
        c5 = math.cos(2 * math.pi / 5)
        s5 = math.sin(2 * math.pi / 5)
        code, out, _ = run_cli("--json", "local-structure", "--matrix",
                               json.dumps([[c5, -s5], [s5, c5]]))
        assert code == 0
        doc = json.loads(out)
        assert sorted(b["rho"] for b in doc) == ["1/5", "4/5"]

    def test_canonical_system(self):
        code, out, _ = run_cli("--json", "canonical-system", "--matrix",
                               "[[1,1],[0,1]]")
        assert code == 0
        doc = json.loads(out)
        assert doc["action"] == [["1", "1"], ["0", "1"]]

    def test_theta_det(self):
        sol1 = json.dumps([{"rho": "1/2", "coeff": "1"}])
        sol2 = json.dumps([{"rho": "1/2", "coeff": "3"}])
        code, out, _ = run_cli("--json", "theta-det", "--sol", sol1, "--sol", sol2)
        assert code == 0
        doc = json.loads(out)
        assert doc["zero_at_tolerance"] is True

    def test_transform_and_inverse(self):
        op = json.dumps({"terms": [[0, 1, "1"], [0, 0, "1"]]})
        code, out, _ = run_cli("--json", "transform", "--operator", op)
        assert code == 0
        doc = json.loads(out)
        assert doc["shifts"] == {"-1": "-x + 1", "0": "1"}
        rel = json.dumps({"terms": [[-1, "-x + 1"], [0, "1"]]})
        code2, out2, _ = run_cli("--json", "transform-inverse", "--relation", rel)
        doc2 = json.loads(out2)
        assert doc2["operator"] == {"terms": [[0, 0, "1"], [0, 1, "1"]]}

    def test_funcder(self):
        code, out, _ = run_cli("--json", "funcder", "--op", "T")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"][1] == "x + 1"

    def test_classify(self):
        code, out, _ = run_cli("--json", "classify", "--op", "2*D + M(x)")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "derivation-like"

    def test_grevy(self):
        code, out, _ = run_cli("--json", "grevy", "--op", "T", "--op", "2*T")
        assert code == 0
        assert json.loads(out)["zero_on_reliable"] is True

    def test_mult_check(self):
        code, out, _ = run_cli("--json", "mult-check", "--op", "D",
                               "--alpha", "0", "--xi", "0",
                               "--pairs", "x:x^2;x+1:x-1")
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_nsymb(self):
        code, out, _ = run_cli("--json", "nsymb-check", "--lam", "1",
                               "--lam", "-3", "--lam", "2",
                               "--candidate", "x+1", "--candidate", "x+2")
        assert code == 0
        assert all(r["operator_is_zero"] for r in json.loads(out))

    def test_cauchy_pf(self):
        code, out, _ = run_cli("--json", "cauchy-pf", "(x-1)*(x-2)")
        assert code == 0
        doc = json.loads(out)
        assert doc == [{"multiplicity": 1, "residues": ["-1"], "root": "1"},
                       {"multiplicity": 1, "residues": ["1"], "root": "2"}]

    def test_tannery_shape(self):
        code, out, _ = run_cli("--json", "tannery-shape", "y^2 + 2*x*y + 1")
        assert code == 0
        doc = json.loads(out)
        assert doc["leading"] == "x^2 - 1"
        assert doc["shape_ok"] is True

    def test_verify_numeric(self):
        code, out, _ = run_cli("--json", "verify-numeric", "y^2 - x",
                               "--samples", "1,2+1j,-3")
        assert code == 0
        assert json.loads(out)["max_residual"] < 1e-10

    def test_selftest(self):
        code, out, _ = run_cli("--json", "--seed", "7", "selftest", "--rounds", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True and doc["seed"] == 7
