"""Local monodromy machinery: companions, structures, theta determinants."""
import cmath
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q

import pytest

from thetacalc.cli import main
from thetacalc.errors import (EigenfailNumeric, InconsistentMultiplier,
                              NoExactRoots)
from thetacalc.exact import Polynomial
from thetacalc.forms import DifferenceForm
from thetacalc.monodromy import (FormalLocalSolution, MonodromySpec,
                                 _cyclotomic,
                                 canonical_fundamental_system,
                                 canonical_system_with_action, charpoly,
                                 companion_difference_equation,
                                 local_structure, minimal_polynomial,
                                 minimal_relation, theta_determinant,
                                 theta_on_local)

from conftest import (faddeev_charpoly, leibniz_det, power_stacking_minpoly,
                      rand_matrix)

mono = FormalLocalSolution.monomial


class TestThetaOnLocal:
    def test_half_exponent_flips_sign(self):
        s = mono(rho=Q(1, 2))
        assert theta_on_local(s, Q(-1)) == mono(coeff=Q(-1), rho=Q(1, 2))

    def test_log_increments(self):
        t = FormalLocalSolution.t_power(1)
        assert theta_on_local(t, Q(1)) == FormalLocalSolution.one() + t

    def test_third_root_with_log(self):
        lam = cmath.exp(2j * math.pi / 3)
        s = mono(rho=Q(1, 3), logpow=1)
        out = theta_on_local(s, lam)
        expect = {(Q(1, 3), Q(1), 1), (Q(1, 3), Q(1), 0)}
        assert set(out.terms) == expect
        for v in out.terms.values():
            assert abs(complex(v) - lam) < 1e-12

    def test_inconsistent_multiplier(self):
        s = mono(rho=Q(1, 2))
        with pytest.raises(InconsistentMultiplier):
            theta_on_local(s, Q(1))

    def test_multiplicativity_on_products(self):
        rng = random.Random(31)
        for _ in range(25):
            u = mono(coeff=Q(rng.randint(1, 5)), rho=Q(rng.randint(0, 3), 2),
                     mag=Q(rng.randint(1, 4)), logpow=rng.randint(0, 2))
            v = mono(coeff=Q(rng.randint(1, 5)), rho=Q(rng.randint(0, 3), 2),
                     mag=Q(rng.randint(1, 4)), logpow=rng.randint(0, 2))
            assert (u * v).theta() == u.theta() * v.theta()

    def test_multiplicativity_under_division(self):
        u = mono(coeff=Q(3), rho=Q(5, 2), mag=Q(2), logpow=2) + mono(rho=Q(1, 2))
        v = mono(coeff=Q(2), rho=Q(1, 2), mag=Q(2))
        lhs = (u / v).theta()
        rhs = u.theta() / v.theta()
        assert (lhs - rhs).is_exact_zero()


class TestCompanion:
    def test_identity_two(self):
        F = companion_difference_equation(MonodromySpec([[1, 0], [0, 1]]))
        assert F == DifferenceForm.from_constant_coeffs([1, -2, 1])

    def test_jordan_block(self):
        F = companion_difference_equation(MonodromySpec([[1, 1], [0, 1]]))
        assert F == DifferenceForm.from_constant_coeffs([1, -2, 1])

    def test_cyclic_three(self):
        M = MonodromySpec([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        F = companion_difference_equation(M)
        assert F == DifferenceForm.from_constant_coeffs([-1, 0, 0, 1])

    def test_annihilates_theta_powers(self):
        rng = random.Random(36)
        for rows in ([[1, 1], [0, 1]], [[2, 0], [0, 3]], [[1, 2], [0, -1]]):
            M = MonodromySpec(rows)
            F = companion_difference_equation(M)
            coeffs = F.constant_coeff_vector()
            basis = canonical_fundamental_system(M)
            # random span elements, not just basis members
            span = list(basis)
            for _ in range(3):
                y = FormalLocalSolution.zero()
                for b in basis:
                    y = y + b.scaled(Q(rng.randint(-5, 5)))
                span.append(y)
            for y in span:
                powers = [y]
                for _ in range(len(coeffs) + 8):
                    powers.append(powers[-1].theta())
                for n in range(8):
                    acc = FormalLocalSolution.zero()
                    for k, c in enumerate(coeffs):
                        acc = acc + powers[n + k].scaled(c)
                    assert acc.is_exact_zero()

    def test_similarity_invariance(self):
        rng = random.Random(32)
        done = 0
        while done < 10:
            M = rand_matrix(rng, 3, 4)
            P = rand_matrix(rng, 3, 3)
            from thetacalc import linalg
            try:
                d = linalg.det(P)
            except Exception:
                continue
            if d == 0:
                continue
            # P M P^-1 via solving: conj = P*M*inv(P)
            PM = linalg.mat_mul(P, M)
            n = 3
            inv = []
            ident = linalg.mat_identity(n)
            for col in range(n):
                rhs = [ident[i][col] for i in range(n)]
                sol = linalg.solve([list(r) for r in P], rhs)
                inv.append(sol)
            Pinv = [[inv[j][i] for j in range(n)] for i in range(n)]
            conj = linalg.mat_mul(PM, Pinv)
            F1 = companion_difference_equation(MonodromySpec(M))
            F2 = companion_difference_equation(MonodromySpec(conj))
            assert F1 == F2
            done += 1


class TestMinimalRelation:
    def test_identity(self):
        F = minimal_relation(MonodromySpec([[1, 0], [0, 1]]))
        assert F == DifferenceForm.from_constant_coeffs([-1, 1])

    def test_diagonal(self):
        F = minimal_relation(MonodromySpec([[1, 0], [0, 2]]))
        assert F == DifferenceForm.from_constant_coeffs([2, -3, 1])

    def test_jordan(self):
        F = minimal_relation(MonodromySpec([[1, 1], [0, 1]]))
        assert F == DifferenceForm.from_constant_coeffs([1, -2, 1])

    def test_divides_companion(self):
        rng = random.Random(33)
        for _ in range(15):
            M = rand_matrix(rng, 3, 3)
            mp = minimal_polynomial(MonodromySpec(M))
            cp = charpoly(MonodromySpec(M))
            _, rem = cp.divmod(mp)
            assert rem.is_zero()


class TestLocalStructure:
    def test_jordan_block(self):
        st = local_structure(MonodromySpec([[1, 1], [0, 1]]))
        assert len(st.blocks) == 1
        b = st.blocks[0]
        assert b.eigenvalue == 1 and b.rho == 0 and b.jordan_sizes == (2,)

    def test_minus_identity(self):
        st = local_structure(MonodromySpec([[-1, 0], [0, -1]]))
        b = st.blocks[0]
        assert b.rho == Q(1, 2) and b.mag == 1 and b.jordan_sizes == (1, 1)

    def test_numeric_rotation_fifth(self):
        c, s = math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5)
        st = local_structure(MonodromySpec([[c, -s], [s, c]], tolerance=1e-10))
        rhos = sorted(b.rho for b in st.blocks)
        assert rhos == [Q(1, 5), Q(4, 5)]

    def test_negative_rational_eigenvalue(self):
        st = local_structure(MonodromySpec([[-2, 0], [0, 3]]))
        by_eig = {b.eigenvalue: b for b in st.blocks}
        assert by_eig[Q(-2)].rho == Q(1, 2) and by_eig[Q(-2)].mag == 2
        assert by_eig[Q(3)].rho == 0 and by_eig[Q(3)].mag == 3


class TestPlantedJordanRecovery:
    def test_conjugated_blocks_recovered(self):
        from thetacalc import linalg
        rng = random.Random(37)
        plans = [
            {Q(2): [2, 1], Q(-1): [1]},
            {Q(1): [3]},
            {Q(1, 2): [2], Q(3): [1, 1]},
        ]
        for plan in plans:
            n = sum(s for sizes in plan.values() for s in sizes)
            J = [[Q(0)] * n for _ in range(n)]
            pos = 0
            for lam, sizes in sorted(plan.items()):
                for s in sizes:
                    for i in range(s):
                        J[pos + i][pos + i] = lam
                        if i + 1 < s:
                            J[pos + i][pos + i + 1] = Q(1)
                    pos += s
            # random exact conjugation
            while True:
                P = [[Q(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
                try:
                    if linalg.det(P) != 0:
                        break
                except Exception:
                    continue
            ident = linalg.mat_identity(n)
            inv_cols = [linalg.solve([list(r) for r in P],
                                     [ident[i][c] for i in range(n)])
                        for c in range(n)]
            Pinv = [[inv_cols[j][i] for j in range(n)] for i in range(n)]
            M = linalg.mat_mul(linalg.mat_mul(P, J), Pinv)
            st = local_structure(MonodromySpec(M))
            got = {b.eigenvalue: sorted(b.jordan_sizes, reverse=True)
                   for b in st.blocks}
            want = {lam: sorted(sizes, reverse=True) for lam, sizes in plan.items()}
            assert got == want


class TestCanonicalSystem:
    def test_jordan_gives_log(self):
        sols, act = canonical_system_with_action(MonodromySpec([[1, 1], [0, 1]]))
        assert sols == [FormalLocalSolution.one(), FormalLocalSolution.t_power(1)]
        assert act == [[1, 1], [0, 1]]

    def test_identity_duplicates(self):
        sols, act = canonical_system_with_action(MonodromySpec([[1, 0], [0, 1]]))
        assert sols == [FormalLocalSolution.one(), FormalLocalSolution.one()]
        assert act == [[1, 0], [0, 1]]

    def test_cyclic_exponents(self):
        M = MonodromySpec([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        sols = canonical_fundamental_system(M)
        rhos = sorted(next(iter(s.terms))[0] for s in sols)
        assert rhos == [Q(0), Q(1, 3), Q(2, 3)]

    def test_action_charpoly_matches(self):
        rng = random.Random(34)
        for rows in ([[1, 1], [0, 1]], [[2, 0], [0, 3]], [[0, 1], [1, 0]]):
            M = MonodromySpec(rows)
            sols, act = canonical_system_with_action(M)
            # action is upper triangular per block; char poly = product of diags
            prod = Polynomial.one()
            for i in range(len(act)):
                prod = prod * Polynomial([-act[i][i], 1])
            assert prod == charpoly(M)


class TestThetaDeterminant:
    def test_proportional_constant_coeffs(self):
        a = mono(rho=Q(1, 2))
        b = mono(coeff=Q(3), rho=Q(1, 2))
        assert theta_determinant([a, b]).is_exact_zero()

    def test_one_and_log(self):
        one = FormalLocalSolution.one()
        t = FormalLocalSolution.t_power(1)
        det = theta_determinant([one, t])
        assert det == FormalLocalSolution.one()

    def test_distinct_fractional_exponents(self):
        a = mono(rho=Q(1, 2))
        b = mono(rho=Q(1, 3))
        det = theta_determinant([a, b])
        assert len(det.terms) == 1
        (rho, mag, k), coeff = next(iter(det.terms.items()))
        assert rho == Q(5, 6) and k == 0
        lam2 = cmath.exp(2j * math.pi / 3)
        assert abs(complex(coeff) - (lam2 - (-1))) < 1e-12

    def test_direct_theorem_planted(self):
        # theta-invariant coefficients force a vanishing determinant
        rng = random.Random(35)
        for _ in range(20):
            y1 = (mono(coeff=Q(rng.randint(1, 4)), rho=Q(1, 2), mag=Q(2))
                  + mono(coeff=Q(rng.randint(1, 4)), rho=Q(1, 2)))
            y2 = mono(coeff=Q(rng.randint(1, 4)), rho=Q(0), logpow=1)
            # phi_i theta-invariant: integer exponents, no logs, mag 1
            phi1 = mono(coeff=Q(rng.randint(1, 3)), rho=Q(rng.randint(0, 2)))
            phi2 = mono(coeff=Q(-rng.randint(1, 3)), rho=Q(rng.randint(0, 2)))
            y3 = phi1 * y1 + phi2 * y2
            det = theta_determinant([y1, y2, y3])
            assert det.is_zero(1e-10), det.max_abs()

    def test_generic_independent(self):
        y1 = mono(rho=Q(1, 2))
        y2 = mono(rho=Q(0), logpow=1)
        y3 = mono(rho=Q(0), mag=Q(2))
        det = theta_determinant([y1, y2, y3])
        assert det.max_abs() > 1e-3


def _mixed_canonical_system(M, mix):
    sols = canonical_fundamental_system(M)
    out = []
    for row in mix:
        acc = FormalLocalSolution.zero()
        for c, s in zip(row, sols):
            acc = acc + s.scaled(c)
        out.append(acc)
    return out


# blockdiag(companion of Phi_5, [-1]) and blockdiag(companion of Phi_3,
# rotation by i), each canonical system mixed by a fixed integer matrix
_PHI5_AND_MINUS_ONE = [[0, 0, 0, -1, 0], [1, 0, 0, -1, 0], [0, 1, 0, -1, 0],
                       [0, 0, 1, -1, 0], [0, 0, 0, 0, -1]]
_MIX5 = [[-2, -2, 2, 0, -2], [-1, 0, -2, 2, 2], [-2, -2, -1, -1, 2],
         [1, -2, 2, 0, 1], [0, -1, -1, 2, 1]]
_ROOTS_3_AND_4 = [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
_MIX4 = [[1, 1, 0, 1], [0, 1, 2, 0], [1, 0, 1, -1], [2, 0, 0, 1]]
# recorded from a cofactor expansion along row 0 without memo; the engine
# must reproduce every float bit, and the first holds both +0j and -0j
_GOLDEN_PHI5 = (
    'FormalLocalSolution(3.944304526105059e-31j*x^(7/5) + '
    '-3.552713678800501e-15j*x^(3/2) + '
    '(2.1956978057953865e-15+1.4285924713075355e-15j)*x^(8/5) + '
    '(-1.401123525337224e-14+1.14702317445334e-14j)*x^(17/10) + '
    '(-1.936821118200869e-14+6.4635864554753e-14j)*x^(9/5) + '
    '(1.0928832770465765e-13+5.684341886080802e-14j)*x^(19/10) + '
    '(2.693490351684999e-14-1.5648077436485135e-13j)*x^(2) + '
    '(-1.0664751703563182e-13+7.815970093361102e-14j)*x^(21/10) + '
    '(-1.1368683772161603e-13-2.4158453015843406e-13j)*x^(11/5) + '
    '(4.440892098500626e-14-1.1368683772161603e-13j)*x^(23/10) + '
    '(-2.2737367544323206e-13+1.9184653865522705e-13j)*x^(12/5) + '
    '(1073.3126291998985-1.3642420526593924e-12j)*x^(5/2) + '
    '(-2.2737367544323206e-13+3.979039320256561e-13j)*x^(13/5) + '
    '(-1.9184653865522705e-13+1.1368683772161603e-13j)*x^(27/10) + '
    '(1.1368683772161603e-13-2.1005419625907962e-13j)*x^(14/5) + '
    '(1.382882651018821e-13+0j)*x^(29/10) + '
    '(2.5198715666632986e-14+6.778027732285465e-14j)*x^(3) + '
    '(8.075255059579752e-14-8.526512829121202e-14j)*x^(31/10) + '
    '(-3.006580282540807e-14-4.440892098500626e-14j)*x^(16/5) + '
    '(1.5012920195860006e-14-8.007244726956014e-15j)*x^(33/10) + '
    '(2.816268093650412e-15+5.093823638567199e-15j)*x^(17/5) + '
    '(-1.986027322597817e-15+1.689415747377072e-15j)*x^(7/2) + '
    '-3.944304526105059e-31j*x^(18/5) + '
    '(1.9721522630525295e-31-0j)*x^(19/5))')
_GOLDEN_ROOTS_3_AND_4 = (
    'FormalLocalSolution((3.9968028886505635e-15-3.552713678800501e-15j)*x^(19/12) + '
    '-8.881784197001252e-16j*x^(5/3) + '
    '(4.440892098500626e-16-2.220446049250313e-16j)*x^(23/12) + '
    '(-17.320508075688775+1.5987211554602254e-14j)*x^(2) + '
    '-8.881784197001252e-16j*x^(25/12) + '
    '(8.881784197001252e-16+4.440892098500626e-16j)*x^(29/12) + '
    '(-2.220446049250313e-16-1.7763568394002505e-15j)*x^(5/2))')

class TestThetaDeterminantEngine:
    @pytest.mark.parametrize("M, mix, golden", [
        (_PHI5_AND_MINUS_ONE, _MIX5, _GOLDEN_PHI5),
        (_ROOTS_3_AND_4, _MIX4, _GOLDEN_ROOTS_3_AND_4),
    ], ids=["phi5-and-minus-one", "roots-3-and-4"])
    def test_complex_coefficients_bit_identical(self, M, mix, golden):
        det = theta_determinant(_mixed_canonical_system(M, mix))
        assert repr(det) == golden

    def test_golden_holds_signed_zeros(self):
        assert "+0j" in _GOLDEN_PHI5 and "-0j" in _GOLDEN_PHI5

    def test_empty_family_raises(self):
        with pytest.raises(ValueError):
            theta_determinant([])

    def test_exact_families_match_permutation_sum(self):
        rng = random.Random(36)
        for n in range(1, 6):
            for _ in range(3):
                sols = []
                for _ in range(n):
                    s = FormalLocalSolution.zero()
                    for _ in range(rng.randint(1, 2)):
                        s = s + mono(coeff=Q(rng.randint(-3, 3)),
                                     rho=rng.choice([Q(0), Q(1, 2)]),
                                     mag=rng.choice([Q(1), Q(2), Q(1, 3)]),
                                     logpow=rng.randint(0, 2))
                    sols.append(s)
                if n > 1 and rng.random() < 0.5:
                    # theta-invariant coefficients: a planted dependence
                    sols[-1] = sols[0].scaled(Q(2)) - sols[1] * mono(rho=Q(1))
                rows = [[s.theta_pow(i) for s in sols] for i in range(n)]
                det = theta_determinant(sols)
                assert all(isinstance(c, Q) for c in det.terms.values())
                assert det == leibniz_det(rows)


def _companion(p):
    """Companion matrix of the monic polynomial p."""
    n = p.degree
    return [[Q(1) if i == j + 1 else Q(0) for j in range(n - 1)] + [-p.coeff(i)]
            for i in range(n)]


def _conjugate(rng, B):
    """U B U^-1 for a random unimodular U (row op with its inverse column op)."""
    M = [list(r) for r in B]
    n = len(M)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = Q(rng.choice([-2, -1, 1, 2]))
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        for row in M:
            row[j] -= c * row[i]
    return M


def _derogatory(rng, n):
    """A conjugated block-diagonal matrix with a repeated block, so that its
    minimal polynomial is a proper divisor of its charpoly."""
    k = rng.randint(1, min(3, n // 2))
    block = [[Q(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(k)]
             for _ in range(k)]
    blocks = [block] * (n // k)
    if n % k:
        blocks.append([[Q(rng.randint(-3, 3))] * (n % k) for _ in range(n % k)])
    B, off = [[Q(0)] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            B[off + i][off:off + len(row)] = row
        off += len(b)
    return _conjugate(rng, B)


class TestMatrixInvariantsEngine:
    """The Krylov charpoly and minimal polynomial against the O(n^4)/O(n^5)
    oracles in conftest, and the cyclotomic search without an order cap."""

    def test_charpoly_matches_faddeev(self):
        rng = random.Random(41)
        for n in range(1, 13):
            M = [[Q(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(n)]
                 for _ in range(n)]
            assert charpoly(MonodromySpec(M)) == faddeev_charpoly(M)

    def test_derogatory_charpoly_and_minpoly(self):
        rng = random.Random(42)
        for n in range(2, 13):
            M = _derogatory(rng, n)
            mp = minimal_polynomial(MonodromySpec(M))
            assert mp.degree < n
            assert mp == power_stacking_minpoly(M)
            assert charpoly(MonodromySpec(M)) == faddeev_charpoly(M)

    def test_random_minpoly_matches_power_stacking(self):
        rng = random.Random(43)
        for n in range(1, 10):
            M = rand_matrix(rng, n, 2)
            if n > 2 and rng.random() < 0.5:
                M[-1] = list(M[0])  # singular, often with a repeated zero root
            assert minimal_polynomial(MonodromySpec(M)) == power_stacking_minpoly(M)

    def test_scalar_and_empty_matrices(self):
        two = [[Q(2) if i == j else Q(0) for j in range(4)] for i in range(4)]
        assert minimal_polynomial(MonodromySpec(two)) == Polynomial([-2, 1])
        assert charpoly(MonodromySpec(two)) == Polynomial([-2, 1]) ** 4
        assert charpoly(MonodromySpec([])) == Polynomial.one()
        assert minimal_polynomial(MonodromySpec([])) == Polynomial.one()

    @pytest.mark.parametrize("d", [66, 70])
    def test_cyclotomic_order_above_64_gives_exact_blocks(self, d):
        st = local_structure(MonodromySpec(_companion(_cyclotomic(d))))
        units = [j for j in range(1, d) if math.gcd(j, d) == 1]
        assert [b.rho for b in st.blocks] == [Q(j, d) for j in units]
        assert all(b.jordan_sizes == (1,) and b.mag == 1 for b in st.blocks)
        for b in st.blocks:
            assert abs(b.eigenvalue - cmath.exp(2j * math.pi * b.rho)) < 1e-12

    def test_cyclotomic_order_above_64_through_the_cli(self):
        rows = [[str(v) for v in r] for r in _companion(_cyclotomic(66))]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--json", "local-structure", "--matrix", json.dumps(rows)])
        assert (code, err.getvalue()) == (0, "")
        blocks = json.loads(out.getvalue())
        assert [b["rho"] for b in blocks][:3] == ["1/66", "5/66", "7/66"]
        assert len(blocks) == 20 and all(b["jordan_sizes"] == [1] for b in blocks)

    def test_repeated_cyclotomic_factor_gives_jordan_blocks(self):
        rng = random.Random(44)
        M = _conjugate(rng, _companion(_cyclotomic(9) ** 2))
        st = local_structure(MonodromySpec(M))
        assert [b.rho for b in st.blocks] == [Q(j, 9) for j in (1, 2, 4, 5, 7, 8)]
        assert all(b.jordan_sizes == (2,) for b in st.blocks)

    def test_non_cyclotomic_factor_message_unchanged(self):
        with pytest.raises(NoExactRoots) as info:
            local_structure(MonodromySpec(_companion(Polynomial([-2, 0, 1]))))
        assert str(info.value) == ("characteristic factor x^2 - 2 is neither "
                                   "rational nor cyclotomic; use numeric mode")

    def test_complex_numeric_coefficient_names_its_value(self):
        spec = MonodromySpec([[1j, 0], [0, 1j]])
        for fn, what in ((charpoly, "characteristic"),
                         (minimal_polynomial, "minimal-polynomial")):
            with pytest.raises(EigenfailNumeric) as info:
                fn(spec)
            text = str(info.value)
            assert text.startswith("complex %s coefficient " % what)
            assert abs(complex(text.rsplit(" ", 1)[1]).imag) > 0.99

    def test_charpoly_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(45)
        for n in range(1, 9):
            M = [[Q(rng.randint(-9, 9), rng.choice([1, 2, 5])) for _ in range(n)]
                 for _ in range(n)]
            want = sympy.Matrix(n, n, [sympy.Rational(v.numerator, v.denominator)
                                       for r in M for v in r]).charpoly().all_coeffs()
            got = charpoly(MonodromySpec(M)).coeffs
            assert [Q(int(c.p), int(c.q)) for c in reversed(want)] == list(got)

    def test_cyclotomic_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for d in range(1, 201):
            want = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
            assert [int(c) for c in reversed(want)] == list(_cyclotomic(d).coeffs)
