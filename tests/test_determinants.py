"""The ring determinant engine against the permutation-sum oracle."""
import operator
import random
from fractions import Fraction as Q

import pytest

from thetacalc.errors import TruncationTooSmall
from thetacalc.exact import Polynomial
from thetacalc.linalg import det, ring_det
from thetacalc.operators import TruncatedOperator, grevy_determinant

from conftest import leibniz_det, rand_fraction, rand_poly


class TestRingDet:
    def test_fraction_matrices_match_permutation_sum(self):
        rng = random.Random(71)
        for n in range(1, 7):
            for trial in range(6):
                rows = [[rand_fraction(rng, 5) for _ in range(n)] for _ in range(n)]
                if n > 1 and trial % 2:
                    # singular: one row a multiple of another
                    a, b = rng.sample(range(n), 2)
                    c = rand_fraction(rng, 4)
                    rows[b] = [c * u for u in rows[a]]
                value = ring_det(rows, operator.mul)
                assert value == leibniz_det(rows)
                if n > 1 and trial % 2:
                    assert value == 0

    def test_at_most_n_two_to_the_n_minus_one_products(self):
        rng = random.Random(72)
        n = 8
        rows = [[Q(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        count = 0

        def counting_mul(a, b):
            nonlocal count
            count += 1
            return a * b
        assert ring_det(rows, counting_mul) == det(rows)
        assert count <= n * 2 ** (n - 1)  # 1,024; the permutation sum has 8! = 40,320 terms

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError):
            ring_det([], operator.mul)


N = 6


def _rand_operator(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return TruncatedOperator.theta(N)
    if kind == 1:
        return TruncatedOperator.derivative_d(N)
    if kind == 2:
        return TruncatedOperator.identity(N).scaled(rng.randint(-3, 3))
    if kind == 3:
        return TruncatedOperator.multiplication(rand_poly(rng, 2, 3, nonzero=True), N)
    if kind == 4:
        return TruncatedOperator.substitution(rand_poly(rng, 1, 3, nonzero=True), N)
    return _rand_operator(rng).compose(_rand_operator(rng)) + _rand_operator(rng)


def _oracle_grevy(ops):
    table = [[op.derivative_iterate(i) for op in ops] for i in range(len(ops))]
    return leibniz_det(table, lambda a, b: a.compose(b))


class TestGrevyEngine:
    def test_random_families_match_permutation_sum(self):
        rng = random.Random(73)
        compared = 0
        for n in range(2, 5):
            for _ in range(6):
                ops = [_rand_operator(rng) for _ in range(n)]
                if rng.random() < 0.25:
                    ops[-1] = ops[0].scaled(rng.randint(1, 3))
                try:
                    expect = _oracle_grevy(ops)
                except TruncationTooSmall:
                    with pytest.raises(TruncationTooSmall):
                        grevy_determinant(ops)
                    continue
                G = grevy_determinant(ops)
                assert G.matrix == expect.matrix
                assert G.valid_degree == expect.valid_degree
                compared += 1
        assert compared >= 12

    def test_no_valid_degree_gives_a_short_message(self):
        T = TruncatedOperator.theta(8)
        D = TruncatedOperator.derivative_d(8)
        x = Polynomial.x()
        ops = [TruncatedOperator.substitution(2 * x, 8), T, D,
               TruncatedOperator.multiplication(x * x, 8), T.compose(D)]
        with pytest.raises(TruncationTooSmall):
            _oracle_grevy(ops)
        with pytest.raises(TruncationTooSmall) as info:
            grevy_determinant(ops)
        message = str(info.value)
        assert len(message) < 120 and "\n" not in message
        assert message == ("operator determinant of 5 operators leaves no "
                           "valid input degree at N=8")
