"""Casoratian and windowed dependence analysis against brute-force oracles."""
import random
from fractions import Fraction as Q

import pytest

from thetacalc.dependence import (casoratian, casoratian_zero_implies_relation_check,
                                  christoffel_analyze, christoffel_matrix,
                                  windowed_scan)
from thetacalc.errors import PreconditionViolated
from thetacalc.forms import GridFunction

from conftest import leibniz_det


def seq(fn, base=-10, count=40):
    return GridFunction.sample(fn, base, count)


def oracle_nullspace(rows, ncols):
    """Independent elimination: eliminate from the last row upward."""
    m = [list(r) for r in rows]
    pivots = {}
    used_rows = set()
    for c in range(ncols - 1, -1, -1):
        pivot = None
        for i in range(len(m) - 1, -1, -1):
            if i in used_rows:
                continue
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        used_rows.add(pivot)
        pivots[c] = pivot
        pv = m[pivot][c]
        for i in range(len(m)):
            if i != pivot and m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[pivot])]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Q(0)] * ncols
        vec[fc] = Q(1)
        for c, ri in pivots.items():
            vec[c] = -m[ri][fc] / m[ri][c]
        basis.append(vec)
    return basis


def span_rank(vectors, ncols):
    m = [list(v) for v in vectors]
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def same_span(a, b, ncols):
    if len(a) != len(b):
        return False
    if not a:
        return True
    ra = span_rank(a, ncols)
    return ra == span_rank(b, ncols) == span_rank(list(a) + list(b), ncols)


class TestCasoratian:
    def test_vandermonde_three(self):
        seqs = [seq(lambda t: Q(1)), seq(lambda t: Q(t)), seq(lambda t: Q(t * t))]
        for m in range(-5, 6):
            assert casoratian(seqs, m) == 2
            assert leibniz_det(christoffel_matrix(seqs, m)) == 2

    def test_proportional(self):
        seqs = [seq(lambda t: Q(2) ** t, base=0),
                seq(lambda t: 3 * Q(2) ** t, base=0)]
        for m in range(0, 8):
            assert casoratian(seqs, m) == 0

    def test_vandermonde_four(self):
        seqs = [seq(lambda t: Q(1)), seq(lambda t: Q(t)),
                seq(lambda t: Q(t * t)), seq(lambda t: Q(t ** 3))]
        for m in range(-5, 6):
            assert casoratian(seqs, m) == 12

    def test_direct_theorem_planted_relation(self):
        # any constant-coefficient relation forces a vanishing Casoratian
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(2, 4)
            base_seqs = [[Q(rng.randint(-9, 9)) for _ in range(16)]
                         for _ in range(n - 1)]
            coeffs = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 1)]
            last = [sum(c * s[i] for c, s in zip(coeffs, base_seqs))
                    for i in range(16)]
            seqs = [GridFunction(0, v) for v in base_seqs + [last]]
            for m in range(0, 16 - n):
                assert casoratian(seqs, m) == 0

    def test_scale_equivariance(self):
        rng = random.Random(22)
        seqs = [seq(lambda t: Q(t * t + 1)), seq(lambda t: Q(t ** 3 - t)),
                seq(lambda t: Q(2) ** t if t >= 0 else Q(1, 2) ** (-t))]
        c = Q(rng.randint(1, 9), rng.randint(1, 5))
        scaled = [seqs[0].scaled(c)] + seqs[1:]
        for m in range(-3, 4):
            assert casoratian(scaled, m) == c * casoratian(seqs, m)

    def test_shift_consistency(self):
        seqs = [seq(lambda t: Q(t * t + 1)), seq(lambda t: Q(3 * t - 5))]
        shifted = [s.shifted(1) for s in seqs]
        for m in range(-4, 4):
            assert casoratian(seqs, m) == casoratian(shifted, m - 1)


class TestChristoffel:
    def test_planted_single_relation(self):
        f = seq(lambda t: Q(t * t))
        g = seq(lambda t: 2 * Q(t * t))
        rep = christoffel_analyze([f, g], -3, 4)
        assert rep.case == "a"
        assert len(rep.relations) == 1
        rel = rep.relations[0]
        # (2, -1) up to scale, normalized first nonzero = 1
        assert rel[0] * Q(-1, 2) == rel[1] * Q(1)

    def test_corank_two(self):
        f = seq(lambda t: Q(t * t))
        rep = christoffel_analyze([f, f.scaled(2), f.scaled(5)], -3, 5)
        assert rep.case == "b"
        assert len(rep.relations) == 2

    def test_full_rank(self):
        seqs = [seq(lambda t: Q(1)), seq(lambda t: Q(t)), seq(lambda t: Q(t * t))]
        rep = christoffel_analyze(seqs, -2, 3)
        assert rep.case == "none"
        assert rep.relations == ()

    def test_oracle_equivalence_random(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            n = rng.randint(1, 4)
            window = rng.randint(n + 1, 12)
            ncols = n + 1
            dependent = rng.random() < 0.5
            cols = [[Q(rng.randint(-9, 9)) for _ in range(window)]
                    for _ in range(ncols - 1)]
            if dependent and ncols >= 2:
                mix = [Q(rng.randint(-3, 3)) for _ in range(ncols - 1)]
                cols.append([sum(m * c[i] for m, c in zip(mix, cols))
                             for i in range(window)])
            else:
                cols.append([Q(rng.randint(-9, 9)) for _ in range(window)])
            seqs = [GridFunction(0, col) for col in cols]
            rep = christoffel_analyze(seqs, 0, window - 1 - n)
            rows = [[c[i] for c in cols] for i in range(window)]
            oracle = oracle_nullspace(rows, ncols)
            assert same_span([list(r) for r in rep.relations], oracle, ncols)
            done += 1


class TestWindowedScan:
    def test_piecewise(self):
        # equal for t < 0, independent for t >= 5
        vals_f = [Q(t) for t in range(-8, 12)]
        vals_g = [Q(t) if t < 5 else Q(t + 7) for t in range(-8, 12)]
        f = GridFunction(-8, vals_f)
        g = GridFunction(-8, vals_g)
        reports = windowed_scan([f, g], range(-8, 9), 3)
        cases = [r.case for r in reports]
        assert cases[0] == "a"
        assert cases[-1] == "none"
        assert len(reports) >= 2

    def test_globally_dependent(self):
        f = seq(lambda t: Q(t * t - 1))
        reports = windowed_scan([f, f.scaled(3)], range(-5, 5), 2)
        assert len(reports) == 1
        assert reports[0].case == "a"

    def test_globally_independent(self):
        seqs = [seq(lambda t: Q(1)), seq(lambda t: Q(t)), seq(lambda t: Q(t * t))]
        reports = windowed_scan(seqs, range(-5, 5), 3)
        assert len(reports) == 1
        assert reports[0].case == "none"


class TestRelationCheck:
    def test_proportional_geometric(self):
        f = seq(lambda t: Q(2) ** t, base=0, count=12)
        g = seq(lambda t: 3 * Q(2) ** t, base=0, count=12)
        res = casoratian_zero_implies_relation_check([f, g], range(0, 10))
        assert res is not None
        rel = res.coeffs
        # relation (3, -1) up to scale
        assert 3 * rel[1] == -rel[0] * 1

    def test_window_limited(self):
        f = seq(lambda t: Q(1))
        g = seq(lambda t: Q(t))
        res = casoratian_zero_implies_relation_check([f, g], range(3, 4))
        assert res is not None
        assert res.window_limited
        # the relation matches the single sample point
        assert res.coeffs[0] * 1 + res.coeffs[1] * 3 == 0

    def test_precondition_violated(self):
        f = seq(lambda t: Q(1))
        g = seq(lambda t: Q(t))
        with pytest.raises(PreconditionViolated):
            casoratian_zero_implies_relation_check([f, g], range(0, 5))

    def test_planted_constant_relation_recovered(self):
        rng = random.Random(24)
        for _ in range(10):
            a = [Q(rng.randint(-9, 9)) for _ in range(14)]
            b = [Q(rng.randint(-9, 9)) for _ in range(14)]
            c1, c2 = Q(rng.randint(1, 5)), Q(rng.randint(-5, -1))
            third = [c1 * a[i] + c2 * b[i] for i in range(14)]
            seqs = [GridFunction(0, a), GridFunction(0, b), GridFunction(0, third)]
            res = casoratian_zero_implies_relation_check(seqs, range(0, 12))
            assert res is not None
            r = res.coeffs
            assert all(r[0] * a[i] + r[1] * b[i] + r[2] * third[i] == 0
                       for i in range(12))
