import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodet import (
    GF,
    QQ,
    Matrix,
    Poly,
    ZeroConstantTermError,
    det,
    det_poly,
    direct_sum,
    frobenius,
    gamma,
    inverse,
    jordan,
    kronecker_pair_blocks,
    power_rank_sequence,
    reciprocal,
    skew_sum,
    symplectic_unit,
)

from helpers import FIELDS, cosquare_root, mat


def assert_entries(M, rows):
    """M reads back these integer entries as canonical field elements: a
    Fraction over Q, x mod p over F_p (so -1 as p - 1)."""
    p = M.field.p
    assert M.rows == tuple(tuple(Fraction(x) if p is None else x % p for x in r) for r in rows)


class TestJordan:
    def test_size_one(self):
        for f in FIELDS:
            assert_entries(jordan(1, 0, f), [[0]])

    def test_subdiagonal_convention(self):
        for f in FIELDS:
            assert_entries(jordan(2, 1, f), [[1, 0], [1, 1]])

    def test_negative_eigenvalue(self):
        for f in FIELDS:
            assert_entries(jordan(3, -1, f), [[-1, 0, 0], [1, -1, 0], [0, 1, -1]])

    def test_fraction_eigenvalue(self):
        assert jordan(2, "1/2") == mat([["1/2", 0], [1, "1/2"]])


class TestGamma:
    def test_small(self):
        for f in FIELDS:
            assert_entries(gamma(1, f), [[1]])
            assert_entries(gamma(2, f), [[0, 1], [-1, -1]])
            assert_entries(gamma(3, f), [[0, 0, 1], [0, -1, -1], [1, 1, 0]])
            assert_entries(gamma(4, f),
                           [[0, 0, 0, 1], [0, 0, -1, -1], [0, 1, 1, 0], [-1, -1, 0, 0]])

    def test_gamma2_cosquare(self):
        G = gamma(2)
        assert inverse(G.transpose()) * G == mat([[-1, -2], [0, -1]])

    @staticmethod
    def check_cosquare(r, field):
        """The cosquare of gamma(r) is mu (I + 2N + ... + 2N^(r-1)) for
        mu = (-1)^(r+1): an integer upper triangular matrix with mu on the
        diagonal and 2 mu above it, so minus mu I it is one nilpotent
        Jordan block."""
        G = gamma(r, field)
        mu = (-1) ** (r + 1)
        cosq = inverse(G.transpose()) * G
        assert cosq == Matrix(field, [[mu if j == i else 2 * mu if j > i else 0
                                       for j in range(r)] for i in range(r)])
        shifted = cosq - Matrix.identity(field, r).scale(mu)
        assert power_rank_sequence(shifted) == [*range(r, -1, -1), 0]

    def test_unimodular_and_cosquare_chain(self):
        for r in range(1, 25):
            assert det(gamma(r)) in (QQ.one(), QQ.neg(QQ.one()))
            self.check_cosquare(r, QQ)

    def test_over_odd_prime_fields(self):
        for p in (3, 5, 7, 10007):
            for r in range(1, 25):
                self.check_cosquare(r, GF(p))


class TestFrobenius:
    def test_linear(self):
        for f in FIELDS:
            assert_entries(frobenius(Poly(f, [-1, 1])), [[1]])

    def test_square_of_linear(self):
        for f in FIELDS:
            assert_entries(frobenius(Poly(f, [-1, 1]), 2), [[0, -1], [1, 2]])

    def test_quadratic(self):
        for f in FIELDS:
            assert_entries(frobenius(Poly(f, [1, 0, 1])), [[0, -1], [1, 0]])
        Phi = frobenius(Poly(QQ, ["1/2", "-2/3", 1]))
        assert Phi == mat([[0, "-1/2"], [1, "2/3"]])

    def test_characteristic_polynomial(self):
        rng = random.Random(5)
        for _ in range(15):
            s = rng.randint(1, 3)
            coeffs = [rng.randint(-2, 2) for _ in range(s)] + [1]
            p = Poly(QQ, coeffs)
            l = rng.randint(1, 2)
            Phi = frobenius(p, l)
            m = Phi.nrows
            lhs = det_poly(Phi, Matrix.identity(QQ, m).scale(-1))
            rhs = (p ** l).scale((-1) ** m)
            assert lhs == rhs

    @pytest.mark.parametrize("coeffs, power", [([1, 2], 1), ([1], 1), ([1, 1], 0), ([], 1)],
                             ids=["not-monic", "degree-0", "power-0", "zero"])
    def test_rejects_bad_specs(self, coeffs, power):
        for f in FIELDS:
            with pytest.raises(ValueError, match="frobenius"):
                frobenius(Poly(f, coeffs), power)


class TestReciprocal:
    def test_self_reciprocal(self):
        p = Poly(QQ, [-1, 1])
        assert reciprocal(p) == p

    def test_quadratic(self):
        assert reciprocal(Poly(QQ, [2, 3, 1])) == Poly(QQ, ["1/2", "3/2", 1])

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTermError):
            reciprocal(Poly(QQ, [0, 1]))

    def test_zero_polynomial(self):
        # refused as not monic, not as ZeroConstantTermError (a ValueError too)
        for f in FIELDS:
            with pytest.raises(ValueError, match="monic"):
                reciprocal(Poly.zero(f))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=3))
    def test_power_law(self, lower, l):
        if lower[0] == 0:
            lower[0] = 1
        p = Poly(QQ, lower + [1])
        assert reciprocal(p ** l) == reciprocal(p) ** l


def _monic_polys(f, degree):
    """Every monic polynomial of this degree over the prime field f."""
    return [Poly(f, [*low, 1]) for low in itertools.product(range(f.p), repeat=degree)]


def _irreducible(p):
    """Irreducibility for degree <= 3: no root in the field."""
    return p.degree == 1 or all(p.eval(x) != 0 for x in range(p.field.p))


class TestIsCosquareBlock:
    """Whether the companion block of p^l is a cosquare A^{-T} A, decided by
    helpers.cosquare_root: a checked root, or an enumeration that proves
    there is none."""

    def test_x_minus_one_cubed(self):
        for field in (QQ, GF(5)):
            Phi = frobenius(Poly(field, [-1, 1]), 3)
            A = cosquare_root(Phi)
            assert A is not None and inverse(A.transpose()) * A == Phi

    def test_x_squared_plus_one_over_f3(self):
        Phi = frobenius(Poly(GF(3), [1, 0, 1]))
        A = cosquare_root(Phi)
        assert A is not None and inverse(A.transpose()) * A == Phi

    def test_x_minus_one_squared(self):
        for field in (QQ, GF(5)):
            assert cosquare_root(frobenius(Poly(field, [-1, 1]), 2)) is None

    def test_x_itself(self):
        assert cosquare_root(frobenius(Poly(QQ, [0, 1]))) is None

    @pytest.mark.parametrize("p, coeffs", [(5, [-1, 0, 1]), (3, [1, 1, 1]), (5, [1, -2, 1])],
                             ids=["x2-1-F5", "x2+x+1-F3", "(x-1)2-F5"])
    def test_no_root_for_reducible_specs(self, p, coeffs):
        # (x - 1)(x + 1) over F_5, (x - 1)^2 over F_3 and (x - 1)^2 over F_5
        # meet the criterion below, which holds only for irreducible p: no A
        # in the whole nullspace over F_p is nonsingular
        assert cosquare_root(frobenius(Poly(GF(p), coeffs))) is None

    def test_agrees_with_the_criterion_on_irreducible_specs(self):
        # for p irreducible, the companion block of p^l (size m) is a
        # cosquare iff p != x, p != x + (-1)^(m+1) and p is self-reciprocal
        # (Horn & Sergeichuk, LAA 416 (2006))
        checked = 0
        for q in (3, 5, 7):
            f = GF(q)
            for p in [*_monic_polys(f, 1), *_monic_polys(f, 2)]:
                if not _irreducible(p):
                    continue
                for l in range(1, 6 // p.degree + 1):
                    m = p.degree * l
                    expected = (p.constant() != 0 and p != Poly(f, [(-1) ** (m + 1), 1])
                                and reciprocal(p) == p)
                    assert (cosquare_root(frobenius(p, l)) is not None) == expected, (q, p, l)
                    checked += 1
        assert checked == 3 * 6 + 3 * 3 + 5 * 6 + 10 * 3 + 7 * 6 + 21 * 3

    def test_odd_cosquares_over_f5_force_x_minus_one(self):
        f = GF(5)
        irreducibles = [p for d in (1, 2) for p in _monic_polys(f, d) if _irreducible(p)]
        assert len(irreducibles) == 15
        x_minus_one = Poly(f, [f.convert(-1), 1])
        for p in irreducibles:
            for l in (1, 2):
                m = p.degree * l
                if m % 2 == 0:
                    continue
                if cosquare_root(frobenius(p, l)) is not None:
                    assert p == x_minus_one


class TestSums:
    def test_skew_sum_identity(self):
        assert skew_sum(Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)) == mat([[0, 1], [1, 0]])

    def test_skew_sum_jordan(self):
        assert skew_sum(jordan(1, 0), Matrix.identity(QQ, 1)) == mat([[0, 1], [0, 0]])

    def test_skew_sum_frobenius(self):
        A = frobenius(Poly(QQ, [-1, 1]), 2)
        expected = mat([[0, 0, 1, 0], [0, 0, 0, 1], [0, -1, 0, 0], [1, 2, 0, 0]])
        assert skew_sum(A, Matrix.identity(QQ, 2)) == expected

    def test_direct_sum_empty(self):
        E = direct_sum([])
        assert E.nrows == 0 and E.ncols == 0

    def test_direct_sum_diag(self):
        assert direct_sum([mat([[1]]), mat([[-1]])]) == mat([[1, 0], [0, -1]])

    def test_direct_sum_blocks(self):
        got = direct_sum([jordan(1, 0), symplectic_unit(1)])
        assert got == mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]])

    def test_skew_sum_j1_congruent_j2_over_f3(self):
        f = GF(3)
        A = skew_sum(jordan(1, 0, f), Matrix.identity(f, 1))
        B = jordan(2, 0, f)
        witness = None
        for bits in itertools.product(range(3), repeat=4):
            S = Matrix(f, [bits[0:2], bits[2:4]])
            from isodet import rank
            if rank(S) == 2 and S.transpose() * A * S == B:
                witness = S
                break
        assert witness is not None


class TestSymplecticUnit:
    def test_z2(self):
        for f in FIELDS:
            assert_entries(symplectic_unit(1, f), [[0, 1], [-1, 0]])

    def test_z4(self):
        for f in FIELDS:
            assert_entries(symplectic_unit(2, f),
                           [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])

    def test_skew_symmetry(self):
        Z2 = symplectic_unit(1)
        assert Z2.transpose() == -Z2


class TestKroneckerPair:
    def test_degenerate(self):
        for f in FIELDS:
            F, G = kronecker_pair_blocks(1, f)
            assert (F.nrows, F.ncols) == (0, 1) and (G.nrows, G.ncols) == (0, 1)
            assert F.field == G.field == f

    def test_t2(self):
        for f in FIELDS:
            F, G = kronecker_pair_blocks(2, f)
            assert_entries(F, [[1, 0]])
            assert_entries(G, [[0, 1]])

    def test_t3(self):
        for f in FIELDS:
            F, G = kronecker_pair_blocks(3, f)
            assert_entries(F, [[1, 0, 0], [0, 1, 0]])
            assert_entries(G, [[0, 1, 0], [0, 0, 1]])
