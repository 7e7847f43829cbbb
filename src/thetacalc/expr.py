"""Expression front-end: parsing and canonical printing.

Grammar (byte offsets reported on error):
    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/"|"o") factor)*
    factor := atom ("^" uint)? | "-" factor
    atom   := number | "x" | "y" | "t" | "T" | "D" | "I"
            | ("S"|"M") "(" expr ")" | "(" expr ")"

The same AST evaluates into a rational function (variable x), a difference
form (x and the operator symbol T, normalized through the noncommutative
product), a bivariate polynomial (x and y), a polynomial in t for grid
sequences, or a truncated operator: T (shift), D (derivative), I
(identity), S(mu) (substitution phi(x) -> phi(mu(x))) and M(g)
(multiplication) for polynomial arguments, numbers and p/q literals as
multiples of I, with "*" and "o" both composing.  Names outside a context
(D in a form, o in a rational function) are domain errors, not syntax
errors.
"""
from __future__ import annotations

from typing import List, Tuple

from .errors import EvalDomainError, ExprSyntaxError
from .exact import (BivariatePolynomial, Polynomial, Q, RationalFunction,
                    format_polynomial, _fmt_q)
from .forms import DifferenceForm
from .operators import TruncatedOperator


# -- tokenizer ---------------------------------------------------------------

_SYMBOLS = "+-*/^()o"


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("num", text[i:j], i))
            i = j
            continue
        if ch in "xytTDI":
            out.append(("var", ch, i))
            i += 1
            continue
        if ch in "SM":
            out.append(("func", ch, i))
            i += 1
            continue
        if ch in _SYMBOLS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i,
                              expected=("number", "variable", "operator"))
    out.append(("end", "", n))
    return out


_TERM_OPS = {"*": "mul", "/": "div", "o": "compose"}


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError("unexpected %r" % (tok[1] or "end of input"),
                                  tok[2], expected=(kind,))
        return self.advance()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input %r" % tok[1], tok[2],
                                  expected=("end of input",))
        return e

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in _TERM_OPS:
            op = self.advance()[0]
            rhs = self.factor()
            node = (_TERM_OPS[op], node, rhs)
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return ("neg", self.factor())
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            etok = self.peek()
            if etok[0] != "num":
                raise ExprSyntaxError("exponent must be a nonnegative integer",
                                      etok[2], expected=("uint",))
            self.advance()
            node = ("pow", node, int(etok[1]))
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return ("num", Q(int(tok[1])))
        if tok[0] == "var":
            self.advance()
            return ("var", tok[1])
        if tok[0] == "func":
            self.advance()
            self.expect("(")
            node = ("call", tok[1], self.expr())
            self.expect(")")
            return node
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError("unexpected %r" % (tok[1] or "end of input"), tok[2],
                              expected=("number", "x", "y", "t", "T", "D", "I",
                                        "S", "M", "("))


def parse(text: str):
    """Parse to an AST of nested tuples."""
    return Parser(text).parse()


# -- evaluators ---------------------------------------------------------------

def _not_allowed(ast, where: str) -> EvalDomainError:
    """Domain error for an operator-only node (o, S(...), M(...))."""
    name = ast[1] if ast[0] == "call" else "o"
    return EvalDomainError("operator %r not allowed %s" % (name, where))


def eval_ratfunc(ast, var: str = "x") -> RationalFunction:
    """Evaluate with a single scalar variable; other symbols are rejected."""
    kind = ast[0]
    if kind == "num":
        return RationalFunction.constant(ast[1])
    if kind == "var":
        if ast[1] != var:
            raise EvalDomainError("variable %r not allowed here (expected %s)"
                                  % (ast[1], var))
        return RationalFunction.x()
    if kind == "neg":
        return -eval_ratfunc(ast[1], var)
    if kind == "add":
        return eval_ratfunc(ast[1], var) + eval_ratfunc(ast[2], var)
    if kind == "sub":
        return eval_ratfunc(ast[1], var) - eval_ratfunc(ast[2], var)
    if kind == "mul":
        return eval_ratfunc(ast[1], var) * eval_ratfunc(ast[2], var)
    if kind == "div":
        return eval_ratfunc(ast[1], var) / eval_ratfunc(ast[2], var)
    if kind == "pow":
        return eval_ratfunc(ast[1], var) ** ast[2]
    raise _not_allowed(ast, "here")


def eval_form(ast) -> DifferenceForm:
    """Evaluate in the noncommutative form algebra (variables x and T)."""
    kind = ast[0]
    if kind == "num":
        return DifferenceForm.from_scalar(ast[1])
    if kind == "var":
        if ast[1] == "T":
            return DifferenceForm.theta()
        if ast[1] == "x":
            return DifferenceForm.from_scalar(RationalFunction.x())
        raise EvalDomainError("variable %r not allowed in a form" % ast[1])
    if kind == "neg":
        return -eval_form(ast[1])
    if kind == "add":
        return eval_form(ast[1]) + eval_form(ast[2])
    if kind == "sub":
        return eval_form(ast[1]) - eval_form(ast[2])
    if kind == "mul":
        return eval_form(ast[1]) * eval_form(ast[2])
    if kind == "div":
        denom = eval_form(ast[2])
        if denom.is_zero():
            raise EvalDomainError("division by zero form")
        if denom.order != 0:
            raise EvalDomainError("can only divide by an order-0 form")
        inv = DifferenceForm.from_scalar(denom.coeff(0).inverse())
        return eval_form(ast[1]) * inv
    if kind == "pow":
        return eval_form(ast[1]) ** ast[2]
    raise _not_allowed(ast, "in a form")


def eval_bivariate(ast) -> BivariatePolynomial:
    """Evaluate with variables x and y; division restricted to y-free values."""
    kind = ast[0]
    if kind == "num":
        return BivariatePolynomial.from_x(RationalFunction.constant(ast[1]))
    if kind == "var":
        if ast[1] == "y":
            return BivariatePolynomial.y()
        if ast[1] == "x":
            return BivariatePolynomial.from_x(RationalFunction.x())
        raise EvalDomainError("variable %r not allowed in a bivariate polynomial"
                              % ast[1])
    if kind == "neg":
        return -eval_bivariate(ast[1])
    if kind == "add":
        return eval_bivariate(ast[1]) + eval_bivariate(ast[2])
    if kind == "sub":
        return eval_bivariate(ast[1]) - eval_bivariate(ast[2])
    if kind == "mul":
        return eval_bivariate(ast[1]) * eval_bivariate(ast[2])
    if kind == "div":
        d = eval_bivariate(ast[2])
        if d.deg_y > 0:
            raise EvalDomainError("cannot divide by a value involving y")
        if d.is_zero():
            raise EvalDomainError("division by zero")
        return eval_bivariate(ast[1]).scale(d.coeff(0).inverse())
    if kind == "pow":
        return eval_bivariate(ast[1]) ** ast[2]
    raise _not_allowed(ast, "in a bivariate polynomial")


def eval_sequence_poly(ast) -> Polynomial:
    """Evaluate an expression in t to a polynomial (for grid sequences)."""
    r = eval_ratfunc(ast, var="t")
    if not r.is_polynomial():
        raise EvalDomainError("sequence expressions must be polynomial in t")
    return r.as_polynomial()


_OPERATOR_ATOMS = {"T": "theta", "D": "derivative_d", "I": "identity"}


def eval_operator(ast, N: int) -> TruncatedOperator:
    """Evaluate to an operator on polynomials of degree <= N; in "A o B" and
    "A * B" the right operand acts first."""
    kind = ast[0]
    if kind == "num":
        return TruncatedOperator.identity(N).scaled(ast[1])
    if kind == "var":
        if ast[1] not in _OPERATOR_ATOMS:
            raise EvalDomainError("variable %r not allowed in an operator" % ast[1])
        return getattr(TruncatedOperator, _OPERATOR_ATOMS[ast[1]])(N)
    if kind == "call":
        r = eval_ratfunc(ast[2])
        if not r.is_polynomial():
            raise EvalDomainError("operator argument must be polynomial: %s" % r)
        if ast[1] == "S":
            return TruncatedOperator.substitution(r.as_polynomial(), N)
        return TruncatedOperator.multiplication(r.as_polynomial(), N)
    if kind == "neg":
        return -eval_operator(ast[1], N)
    if kind == "add":
        return eval_operator(ast[1], N) + eval_operator(ast[2], N)
    if kind == "sub":
        return eval_operator(ast[1], N) - eval_operator(ast[2], N)
    if kind in ("mul", "compose"):
        return eval_operator(ast[1], N).compose(eval_operator(ast[2], N))
    if kind == "div":
        return eval_operator(_scalar_literal(ast[1], ast[2]), N)
    raise EvalDomainError("powers are not allowed in an operator")


def _scalar_literal(node, den):
    """Fold a division into the p/q literal it ends: "T o 2/3" parses as
    div(compose(T, 2), 3) and means compose(T, 2/3)."""
    if den[0] == "num":
        if node[0] == "num":
            if den[1] == 0:
                raise EvalDomainError("division by zero")
            return ("num", node[1] / den[1])
        if node[0] in ("mul", "compose"):
            return (node[0], node[1], _scalar_literal(node[2], den))
        if node[0] == "neg":
            return ("neg", _scalar_literal(node[1], den))
    raise EvalDomainError("an operator can only be divided as a p/q literal")


# -- canonical printing ---------------------------------------------------------

def _coeff_pieces(c: RationalFunction):
    """(sign, body) for embedding a coefficient before *T^k."""
    if c.den.degree == 0:
        nonzero = [v for v in c.num.coeffs if v != 0]
        if len(nonzero) == 1:
            k = c.num.degree
            v = c.num.coeffs[-1]
            sign = "-" if v < 0 else "+"
            av = abs(v)
            if k == 0:
                body = _fmt_q(av)
            elif av == 1:
                body = "x" if k == 1 else "x^%d" % k
            else:
                body = "%s*%s" % (_fmt_q(av), "x" if k == 1 else "x^%d" % k)
            return sign, body
        if c.num.coeffs[-1] < 0:
            return "-", "(%s)" % format_polynomial(-c.num, "x")
        return "+", "(%s)" % format_polynomial(c.num, "x")
    return "+", str(c)


def format_form(F: DifferenceForm) -> str:
    """Deterministic display that re-parses to the same normal form."""
    if F.is_zero():
        return "0"
    pieces = []
    for k in range(int(F.order), -1, -1):
        c = F.coeff(k)
        if c.is_zero():
            continue
        if k == 0:
            sign, body = _coeff_pieces(c)
        else:
            tpart = "T" if k == 1 else "T^%d" % k
            if c == RationalFunction.one():
                sign, body = "+", tpart
            elif c == -RationalFunction.one():
                sign, body = "-", tpart
            else:
                sign, body = _coeff_pieces(c)
                body = "%s*%s" % (body, tpart)
        if not pieces:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append((" + " if sign == "+" else " - ") + body)
    return "".join(pieces)


def normalize(text: str) -> DifferenceForm:
    """Parse and evaluate to the canonical form object."""
    return eval_form(parse(text))
