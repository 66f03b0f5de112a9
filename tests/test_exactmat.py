import importlib
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isodet import (
    GF,
    QQ,
    Field,
    FieldError,
    Matrix,
    Poly,
    SingularMatrixError,
    decide,
    decide_gamma_shift,
    det,
    det_poly,
    exactmat,
    inverse,
    odd_unipotent_counts,
    power_rank_sequence,
    random_congruence,
    rank,
    regularize,
)
from isodet.blocks import direct_sum, frobenius, gamma, jordan
from isodet.cli import parse_field
from isodet.exactmat import (
    _PACK_MIN,
    MAX_MODULUS,
    _pack,
    _pack_rows,
    _slot_bits,
    _unpack,
    full_rank,
    hstack,
    inverse_times,
    kron,
    nullspace,
    pencil_rank_sequence,
    pivots,
    rref,
    solve,
    vstack,
)

from helpers import (FIELDS, mat, random_nonsingular, ref_det, ref_det_poly, ref_matmul,
                     ref_power_rank_sequence, ref_rref)


def small_entries():
    return st.integers(min_value=-4, max_value=4)


def square_matrices(n_max=4, field=QQ):
    def build(data):
        n, flat = data
        return Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])

    return st.integers(min_value=0, max_value=n_max).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(small_entries(), min_size=n * n, max_size=n * n))
    ).map(build)


class TestField:
    def test_char_two_rejected(self):
        with pytest.raises(FieldError):
            Field(2)
        with pytest.raises(FieldError):
            Field(9)

    def test_canonical_residues(self):
        f = GF(5)
        assert f.convert(-1) == 4
        assert f.convert("7") == 2

    def test_rationals_lowest_terms(self):
        x = QQ.convert("2/4")
        assert x == Fraction(1, 2) and x.denominator == 2

    def test_repr_is_the_field_tag(self):
        # documents name their field by repr(field)
        for f in (QQ, GF(3), GF(10007), GF(2 ** 64 - 59)):
            assert parse_field(repr(f)) == f


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        from math import isqrt

        from isodet.exactmat import _is_prime

        for n in range(10 ** 5):
            assert _is_prime(n) == (n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))), n

    def test_rejects_carmichael_and_strong_pseudoprimes(self):
        # Carmichael numbers, then strong pseudoprimes to every prime base
        # up to 7, and up to 23
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  3215031751, 3825123056546413051):
            with pytest.raises(FieldError):
                Field(n)

    def test_large_primes_at_once(self):
        # trial division would need about 10^9 steps for 10^18 + 3
        start = time.perf_counter()
        for p in (2 ** 61 - 1, 10 ** 18 + 3, 2 ** 64 - 59):
            assert Field(p).p == p
        assert time.perf_counter() - start < 1.0

    def test_modulus_limit(self):
        # the limit is the least strong pseudoprime to all thirteen bases
        for n in (MAX_MODULUS, 2 ** 89 - 1):
            with pytest.raises(FieldError):
                Field(n)


class TestRank:
    def test_empty(self):
        assert rank(Matrix(QQ, [], ncols=0)) == 0

    def test_jordan_nilpotent(self):
        assert rank(mat([[0, 0], [1, 0]])) == 1

    def test_gamma3_full(self):
        assert rank(gamma(3)) == 3

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_rank_transpose(self, A):
        assert rank(A) == rank(A.transpose())


class TestInverse:
    def test_identity(self):
        I3 = Matrix.identity(QQ, 3)
        assert inverse(I3) == I3

    def test_symplectic_unit(self):
        Z2 = mat([[0, 1], [-1, 0]])
        assert inverse(Z2) == mat([[0, -1], [1, 0]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(mat([[0, 0], [1, 0]]))

    @settings(max_examples=40, deadline=None)
    @given(square_matrices(n_max=3))
    def test_two_sided(self, A):
        if A.nrows and rank(A) == A.nrows:
            Ainv = inverse(A)
            I = Matrix.identity(QQ, A.nrows)
            assert A * Ainv == I and Ainv * A == I

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            inverse(mat([[1, 2]]))
        with pytest.raises(ValueError):
            inverse_times(mat([[1], [2]]), mat([[1], [2]]), "stage")
        with pytest.raises(ValueError):
            inverse_times(mat([[1]]), mat([[1], [2]]), "stage")


class TestDet:
    def test_identity(self):
        assert det(Matrix.identity(QQ, 4)) == 1

    def test_reflection(self):
        assert det(direct_sum([mat([[-1]]), Matrix.identity(QQ, 2)])) == -1

    def test_gamma2(self):
        assert det(mat([[0, 1], [-1, -1]])) == 1

    def test_empty(self):
        assert det(Matrix(QQ, [], ncols=0)) == 1

    def test_multiplicative(self):
        rng = random.Random(11)
        for field, n in [(QQ, 4), *((f, 12) for f in FIELDS)]:
            for _ in range(25):
                A = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], field)
                B = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], field)
                assert det(A * B) == field.mul(det(A), det(B))

    @pytest.mark.parametrize("n", [10, 11, 12])
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_against_reference(self, field, n):
        # long logs of row updates: mixed row denominators over Q, and a zero
        # leading entry, so the first pivot comes from a row swap
        rng = random.Random(n)
        while True:
            if field.p is None:
                rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 6]))
                         for _ in range(n)] for _ in range(n)]
            else:
                rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
            rows[0][0] = 0
            A = Matrix(field, rows)
            if rank(A) == n:
                break
        assert det(A) == ref_det(A) != 0


class TestDetPoly:
    def test_zero_pencil(self):
        assert det_poly(mat([[0]]), mat([[0]])).is_zero()

    def test_jordan_pencil(self):
        J = mat([[0, 0], [1, 0]])
        p = det_poly(J.transpose(), J)
        assert p == Poly(QQ, [0, -1])

    def test_scalar_pencil(self):
        I2 = Matrix.identity(QQ, 2)
        assert det_poly(I2, I2) == Poly(QQ, [1, 2, 1])

    def test_works_over_f3(self):
        f = GF(3)
        A = Matrix(f, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
        B = Matrix(f, [[0, 1, 1], [1, 1, 0], [2, 2, 2]])
        p = det_poly(A, B)
        for c in range(3):
            assert p.eval(c) == det(A + B.scale(c))

    @settings(max_examples=30, deadline=None)
    @given(square_matrices(n_max=3))
    def test_matches_evaluation(self, A):
        rng = random.Random(rank(A) + A.nrows)
        B = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(A.nrows)] for _ in range(A.nrows)])
        p = det_poly(A, B)
        for _ in range(5):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert p.eval(c) == det(A + B.scale(c))


def _pencils(rng: random.Random, field, n: int):
    """A random pencil (A, B), a pencil (M^T, M), and a pencil (X P, Y P)
    of rank < n, singular once n > 0; fractional entries over Q."""
    def rand(m, k):
        if field.p is None:
            return Matrix(field, [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 6]))
                                   for _ in range(k)] for _ in range(m)], ncols=k)
        return Matrix(field, [[rng.randrange(field.p) for _ in range(k)] for _ in range(m)],
                      ncols=k)

    M = rand(n, n)
    r = rng.randrange(n) if n else 0
    P = rand(r, n)
    return [(rand(n, n), rand(n, n)), (M.transpose(), M), (rand(n, r) * P, rand(n, r) * P)]


class TestDetPolyAgainstBareiss:
    # F_3 from n = 4 on: the points 0, 1, ..., n of det_poly collide mod 3
    @pytest.mark.parametrize("field, sizes", [(QQ, range(9)), (GF(3), range(4, 9)),
                                              (GF(5), range(9)), (GF(10007), range(9))],
                             ids=["Q", "F3", "F5", "F10007"])
    def test_against_reference(self, field, sizes):
        rng = random.Random(field.p or 0)
        for n in sizes:
            for _ in range(2):
                pencils = _pencils(rng, field, n)
                for A, B in pencils:
                    assert det_poly(A, B) == ref_det_poly(A, B), (A, B)
                X, Y = pencils[2]
                assert n == 0 or det_poly(X, Y).is_zero(), (X, Y)


class TestPolyDivmod:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_against_definition(self, data):
        f = data.draw(st.sampled_from(FIELDS))
        coeffs = st.lists(entries(f), min_size=1, max_size=5)
        h = Poly(f, data.draw(coeffs))
        assume(not h.is_zero())
        g = Poly(f, data.draw(coeffs))
        if data.draw(st.booleans()):
            g = g * h  # an exact division
        q, r = divmod(g, h)
        assert q * h + r == g and r.degree < h.degree

    def test_zero_divisor(self):
        for f in FIELDS:
            with pytest.raises(ZeroDivisionError):
                divmod(Poly(f, [1, 1]), Poly.zero(f))


def reference_pencil_ranks(A: Matrix, C: Matrix) -> list[int]:
    return ref_power_rank_sequence(inverse_times(A, C, "reference"))


PENCIL_FIELDS = [QQ, GF(3), GF(5), GF(7), GF(10007)]


class TestPencilRankSequence:
    @pytest.mark.parametrize("field", PENCIL_FIELDS, ids=repr)
    def test_jordan_pencils(self, field):
        # A^{-1}(A J) = J: sums of J_s(lambda) with lambda in {0, 1, 2}
        rng = random.Random(11)
        for _ in range(40):
            J = direct_sum([jordan(rng.randint(1, 4), rng.choice([0, 1, 2]), field)
                            for _ in range(rng.randint(1, 4))], field=field)
            A = random_nonsingular(random.Random(rng.getrandbits(32)), J.nrows, field)
            assert pencil_rank_sequence(A, A * J) == reference_pencil_ranks(A, A * J)

    @pytest.mark.parametrize("field", PENCIL_FIELDS, ids=repr)
    @pytest.mark.parametrize("sizes", [(11,), (13,), (21, 15, 11)], ids=str)
    def test_scrambled_long_chains(self, field, sizes):
        # the count step's pencil (B^T, B - B^T): odd Gamma_r chains fall by
        # one rank per step
        B = random_congruence(direct_sum([gamma(r, field) for r in sizes], field=field), 5)
        BT = B.transpose()
        assert pencil_rank_sequence(BT, B - BT) == reference_pencil_ranks(BT, B - BT)

    def test_extension_point_pencils_over_f3(self, monkeypatch):
        # the nk x nk pencils the gamma route builds at x mod g, deg g > 1
        d = importlib.import_module("isodet.decide")
        seen = []

        def record(A, C):
            seen.append((A, C))
            return pencil_rank_sequence(A, C)

        monkeypatch.setattr(d, "pencil_rank_sequence", record)
        f = GF(3)
        rng = random.Random(3)
        for _ in range(300):
            n = rng.choice([3, 4])
            decide_gamma_shift(Matrix(f, [[rng.randrange(3) for _ in range(n)] for _ in range(n)]))
        wide = [(A, C) for A, C in seen if A.nrows > 4]
        assert len(wide) >= 20
        for A, C in wide:
            assert pencil_rank_sequence(A, C) == reference_pencil_ranks(A, C)

    @pytest.mark.parametrize("field", PENCIL_FIELDS, ids=repr)
    def test_zero_and_nonsingular_c(self, field):
        for n in range(5):
            A = random_nonsingular(random.Random(n), n, field)
            assert pencil_rank_sequence(A, Matrix.zeros(field, n, n)) == [n] + [0] * (n + 1)
            C = random_nonsingular(random.Random(n + 7), n, field)
            assert pencil_rank_sequence(A, C) == [n] * (n + 2) == reference_pencil_ranks(A, C)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
    def test_odd_skew_c_takes_no_rank_of_c(self, field, monkeypatch):
        # a skew C of odd order is singular: no image and no rank of C alone
        B = random_congruence(direct_sum([gamma(5, field), gamma(6, field)], field=field), 3)
        BT = B.transpose()
        expected = reference_pencil_ranks(BT, B - BT)
        monkeypatch.setattr(exactmat, "_image_rank", lambda A: pytest.fail("image of C"))
        monkeypatch.setattr(exactmat, "rank", lambda A: pytest.fail("rank of C"))
        assert pencil_rank_sequence(BT, B - BT) == expected

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pencil_rank_sequence(mat([[1]]), mat([[1, 0], [0, 1]]))


class TestPowerRankSequence:
    def test_jordan_chain(self):
        assert power_rank_sequence(jordan(3, 0)) == [3, 2, 1, 0, 0]

    def test_identity_shift(self):
        I = Matrix.identity(QQ, 2)
        assert power_rank_sequence(I - I) == [2, 0, 0, 0]

    def test_nilpotent_sum(self):
        A = direct_sum([jordan(2, 0), jordan(1, 0)])
        assert power_rank_sequence(A) == [3, 1, 0, 0, 0]

    @settings(max_examples=40, deadline=None)
    @given(square_matrices(n_max=4))
    def test_weyr_monotonicity(self, A):
        seq = power_rank_sequence(A - Matrix.identity(A.field, A.nrows))
        assert len(seq) == A.nrows + 2
        diffs = [seq[k - 1] - seq[k] for k in range(1, len(seq))]
        assert all(d >= 0 for d in diffs)
        assert all(diffs[k] >= diffs[k + 1] for k in range(len(diffs) - 1))


# --- differential tests of the elimination kernel and the dot products -----


def entries(field):
    if field.p is not None:
        return st.integers(min_value=0, max_value=field.p - 1)
    nums = st.one_of(st.integers(-4, 4), st.integers(-(2 ** 64), 2 ** 64))
    # plain ints go straight to the stored form, so draw them as well as Fractions
    ints = st.one_of(st.integers(-4, 4), st.integers(2 ** 64 - 4, 2 ** 64 + 4),
                     st.integers(-(2 ** 64) - 4, -(2 ** 64) + 4))
    return st.one_of(st.just(0), ints, st.builds(Fraction, nums, st.integers(1, 97)))


@st.composite
def matrices(draw, field, m=None, n=None, max_dim=5):
    """Dense, sparse or low-rank (a product through a thin middle) matrices."""
    m = draw(st.integers(0, max_dim)) if m is None else m
    n = draw(st.integers(0, max_dim)) if n is None else n
    if draw(st.booleans()) and m and n:
        k = draw(st.integers(0, min(m, n) - 1))
        B = draw(matrices(field, m, k))
        C = draw(matrices(field, k, n))
        return Matrix(field, ref_matmul(B, C), ncols=n)
    flat = draw(st.lists(entries(field), min_size=m * n, max_size=m * n))
    return Matrix(field, [flat[i * n:(i + 1) * n] for i in range(m)], ncols=n)


def fields_and(build):
    return st.sampled_from(FIELDS).flatmap(build)


class TestKernelAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(fields_and(matrices))
    def test_rank_and_rref(self, A):
        rows, piv = ref_rref(A)
        R, piv2 = rref(A)
        assert piv2 == piv and rank(A) == len(piv)
        assert R == Matrix(A.field, rows, ncols=A.ncols)
        assert all(type(x) is type(A.field.zero()) for r in R.rows for x in r)

    @settings(max_examples=100, deadline=None)
    @given(fields_and(matrices))
    def test_nullspace(self, A):
        N = nullspace(A)
        _, piv = ref_rref(A)
        assert (N.nrows, N.ncols) == (A.ncols, A.ncols - len(piv))
        assert all(x == 0 for r in ref_matmul(A, N) for x in r)
        assert len(ref_rref(N)[1]) == N.ncols

    @staticmethod
    def _ref_nullspace(A):
        """The basis read off the reduced form: a 1 on each free column and
        minus the reduced entries of that column on the pivots."""
        f, n = A.field, A.ncols
        rows, piv = ref_rref(A)
        free = [j for j in range(n) if j not in piv]
        basis = [[f.one() if j == fv else f.zero() for fv in free] for j in range(n)]
        for row, pc in zip(rows, piv):
            basis[pc] = [f.neg(row[fv]) for fv in free]
        return Matrix(f, basis, ncols=len(free))

    @settings(max_examples=100, deadline=None)
    @given(fields_and(matrices))
    def test_nullspace_basis(self, A):
        assert nullspace(A) == self._ref_nullspace(A)

    @settings(max_examples=60, deadline=None)
    @given(fields_and(lambda f: st.integers(0, 4).flatmap(
        lambda n: st.integers(n, n + 2).flatmap(lambda m: matrices(f, m, n)))))
    def test_nullspace_full_column_rank(self, A):
        assume(rank(A) == A.ncols)
        N = nullspace(A)
        assert (N.nrows, N.ncols) == (A.ncols, 0) and N == self._ref_nullspace(A)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_nullspace_basis_examples(self, field):
        for A in (Matrix(field, [], ncols=3), Matrix.identity(field, 3),
                  Matrix(field, [[1, 2], [3, 4], [5, 7]]), Matrix(field, [[0, 1, 2], [0, 2, 4]])):
            assert nullspace(A) == self._ref_nullspace(A)
        assert nullspace(Matrix(field, [], ncols=3)) == Matrix.identity(field, 3)
        assert nullspace(Matrix.identity(field, 3)) == Matrix(field, [[]] * 3)

    @settings(max_examples=100, deadline=None)
    @given(fields_and(lambda f: st.tuples(matrices(f, max_dim=4), st.integers(0, 2), st.data())))
    def test_solve(self, args):
        A, k, data = args
        b = data.draw(matrices(A.field, A.nrows, k))
        X = solve(A, b)
        _, piv = ref_rref(Matrix(A.field, [ra + rb for ra, rb in zip(A.rows, b.rows)],
                                 ncols=A.ncols + k))
        consistent = all(c < A.ncols for c in piv)
        assert (X is not None) == consistent
        if X is not None:
            assert (X.nrows, X.ncols) == (A.ncols, k)
            assert Matrix(A.field, ref_matmul(A, X), ncols=k) == b

    @settings(max_examples=100, deadline=None)
    @given(fields_and(lambda f: st.integers(0, 5).flatmap(lambda n: matrices(f, n, n))))
    def test_inverse_and_det(self, A):
        f, n = A.field, A.nrows
        assert det(A) == ref_det(A)
        _, piv = ref_rref(A)
        if len(piv) < n:
            assert det(A) == 0
            with pytest.raises(SingularMatrixError):
                inverse(A)
            return
        aug = Matrix(f, [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A.rows)])
        rows, _ = ref_rref(aug)
        assert inverse(A) == Matrix(f, [r[n:] for r in rows], ncols=n)

    @settings(max_examples=100, deadline=None)
    @given(fields_and(lambda f: st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
            lambda mkn: st.tuples(matrices(f, mkn[0], mkn[1]), matrices(f, mkn[1], mkn[2])))))
    def test_matmul_and_apply_to_vec(self, AB):
        A, B = AB
        P = A * B
        assert (P.nrows, P.ncols) == (A.nrows, B.ncols)
        assert P == Matrix(A.field, ref_matmul(A, B), ncols=B.ncols)
        for j in range(B.ncols):
            assert A.apply_to_vec(B.col(j)) == P.col(j)

    @settings(max_examples=100, deadline=None)
    @given(fields_and(lambda f: st.integers(0, 5).flatmap(lambda n: matrices(f, n, n))))
    def test_power_rank_sequence(self, N):
        f, n = N.field, N.nrows
        expected, power = [n], N
        for _ in range(n + 1):
            expected.append(len(ref_rref(power)[1]))
            power = Matrix(f, ref_matmul(power, N), ncols=n)
        assert power_rank_sequence(N) == expected

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_empty_shapes(self, field):
        for m, n in ((0, 0), (0, 3), (3, 0)):
            Z = Matrix(field, [[]] * m, ncols=n) if m else Matrix(field, [], ncols=n)
            assert (Z.nrows, Z.ncols) == (m, n)
            assert rank(Z) == 0
            R, piv = rref(Z)
            assert piv == [] and R == Matrix.zeros(field, m, n)
            N = nullspace(Z)
            assert (N.nrows, N.ncols) == (n, n)
            assert (Z * Matrix.zeros(field, n, 2)) == Matrix.zeros(field, m, 2)
            assert Z.apply_to_vec([0] * n) == (0,) * m
        E = Matrix(field, [], ncols=0)
        assert det(E) == 1 and inverse(E) == E
        # two equations in no unknowns: consistent exactly when b = 0
        A = Matrix(field, [[]] * 2, ncols=0)
        assert solve(A, Matrix.zeros(field, 2, 1)) == Matrix(field, [], ncols=1)
        assert solve(A, Matrix(field, [[1], [0]])) is None

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=str)
    def test_empty_transpose_roundtrip(self, field, shape):
        m, n = shape
        Z = Matrix.zeros(field, m, n)
        T = Z.transpose()
        assert (T.nrows, T.ncols) == (n, m)
        assert T == Matrix.zeros(field, n, m) and T.transpose() == Z


# --- packed F_p rows on both sides of the packing cutoffs ------------------

# the largest prime below MAX_MODULUS: the widest residues and slots
LARGE_PRIME = MAX_MODULUS - 168
PACKED_FIELDS = [GF(3), GF(10007), GF(LARGE_PRIME)]
MAX_WIDTH = 17


def near_cutoffs(f):
    """The row and column counts at which a product, the forward pass or
    the backward pass over f starts to pack, and those beside them."""
    cuts = [c for c in (_PACK_MIN, *_pack_rows(f.p)) if c <= MAX_WIDTH]
    return sorted({c + d for c in cuts for d in (-1, 0, 1)})


def widths(f):
    """Row or column counts 0..MAX_WIDTH, those near a packing cutoff of f
    drawn as often as all the others."""
    return st.one_of(st.sampled_from(near_cutoffs(f)), st.integers(0, MAX_WIDTH))


def packed_fields_and(build):
    return st.sampled_from(PACKED_FIELDS).flatmap(build)


def augmented(A, C):
    return Matrix(A.field, [ra + rc for ra, rc in zip(A.rows, C.rows)], ncols=A.ncols + C.ncols)


def lu_product(f, m, n, above):
    """L·U for L unit lower triangular m x m with -1 below the diagonal and
    U m x n with 1 on the diagonal, `above` right of it and 0 left of it.
    Elimination takes no row swap; every row below a pivot takes the update
    from it with factor p - 1, and each pivot row it subtracts is U's row:
    with above = 1 every entry right of the pivot is 1, the forward pass's
    worst case; with above = -1 back substitution clears each entry above
    a pivot with factor p - 1.  det is 1 when m = n."""
    L = Matrix(f, [[1 if i == j else -1 if j < i else 0 for j in range(m)] for i in range(m)])
    U = Matrix(f, [[1 if i == j else above if j > i else 0 for j in range(n)] for i in range(m)])
    return Matrix(f, ref_matmul(L, U), ncols=n)


def assert_kernel_matches_reference(A):
    rows, piv = ref_rref(A)
    assert pivots(A) == piv and rank(A) == len(piv)
    assert rref(A) == (Matrix(A.field, rows, ncols=A.ncols), piv)
    assert nullspace(A) == TestKernelAgainstReference._ref_nullspace(A)
    if A.is_square:
        assert det(A) == ref_det(A)


class TestPackedRows:
    @settings(max_examples=80, deadline=None)
    @given(packed_fields_and(lambda f: st.tuples(widths(f), widths(f)).flatmap(
        lambda mn: matrices(f, *mn))))
    def test_rank_pivots_rref_nullspace(self, A):
        assert_kernel_matches_reference(A)

    @settings(max_examples=60, deadline=None)
    @given(packed_fields_and(lambda f: st.tuples(widths(f), widths(f)).flatmap(
        lambda nk: st.tuples(matrices(f, nk[0], nk[0]), matrices(f, nk[0], nk[1])))))
    def test_det_and_inverse_times(self, args):
        A, C = args
        n = A.nrows
        assert det(A) == ref_det(A)
        rows, piv = ref_rref(augmented(A, C))
        if piv[:n] != list(range(n)):
            assert det(A) == 0
            with pytest.raises(SingularMatrixError):
                inverse_times(A, C, "test")
            return
        assert inverse_times(A, C, "test") == Matrix(A.field, [r[n:] for r in rows], ncols=C.ncols)

    @settings(max_examples=60, deadline=None)
    @given(packed_fields_and(lambda f: st.tuples(widths(f), widths(f), widths(f)).flatmap(
        lambda mnk: st.tuples(matrices(f, mnk[0], mnk[1]), matrices(f, mnk[0], mnk[2])))))
    def test_solve(self, args):
        A, b = args
        X = solve(A, b)
        consistent = all(c < A.ncols for c in ref_rref(augmented(A, b))[1])
        assert (X is not None) == consistent
        if X is not None:
            assert Matrix(A.field, ref_matmul(A, X), ncols=b.ncols) == b

    @settings(max_examples=60, deadline=None)
    @given(packed_fields_and(lambda f: st.tuples(
        st.integers(0, MAX_WIDTH), st.integers(0, MAX_WIDTH), widths(f)).flatmap(
        lambda mkn: st.tuples(matrices(f, mkn[0], mkn[1]), matrices(f, mkn[1], mkn[2])))))
    def test_products(self, AB):
        A, B = AB
        assert A * B == Matrix(A.field, ref_matmul(A, B), ncols=B.ncols)

    @pytest.mark.parametrize("field, n", [(f, n) for f in PACKED_FIELDS for n in near_cutoffs(f)],
                             ids=lambda x: repr(x) if isinstance(x, Field) else str(x))
    def test_at_the_cutoff(self, field, n):
        rng = random.Random(n)
        p = field.p
        for m in (n - 1, n, n + 1):
            A = Matrix(field, [[rng.randrange(p) for _ in range(n)] for _ in range(m)])
            assert_kernel_matches_reference(A)
            B = Matrix(field, [[rng.randrange(p) for _ in range(m)] for _ in range(n)])
            assert A * B == Matrix(field, ref_matmul(A, B), ncols=m)
        S = A.submatrix(range(n), range(n))
        C = Matrix(field, [[rng.randrange(p) for _ in range(2)] for _ in range(n)])
        rows, piv = ref_rref(augmented(S, C))
        if piv[:n] == list(range(n)):
            assert inverse_times(S, C, "test") == Matrix(field, [r[n:] for r in rows], ncols=2)
        else:
            with pytest.raises(SingularMatrixError):
                inverse_times(S, C, "test")

    # 2^61 - 1 and 2^24 - 3 nearly fill their bit length, so they leave the
    # least room in a slot; the backward pass packs over the latter, not the
    # former.  k = 15 updates come nearest to 2^bitlen(k).
    @pytest.mark.parametrize("field", [GF(3), GF(2 ** 24 - 3), GF(2 ** 61 - 1), GF(LARGE_PRIME)],
                             ids=repr)
    @pytest.mark.parametrize("above", [1, -1], ids=["forward", "backward"])
    def test_worst_case_slot_growth(self, field, above):
        p = field.p
        for m, n in ((15, 15), (16, 16), (16, 20), (20, 16)):
            A = lu_product(field, m, n, above)
            assert_kernel_matches_reference(A)
            assert A * A.transpose() == Matrix(field, ref_matmul(A, A.transpose()), ncols=m)
        for n in (15, 16):
            A = lu_product(field, n, n, above)
            assert det(A) == 1
            # A^{-1}(A·J) = J for J all ones: each solution row subtracted in
            # back substitution is 1 in every slot of the right-hand side
            J = Matrix(field, [[1] * n] * n)
            assert inverse_times(A, A * J, "test") == J
            # every product slot sums n products of two entries p - 1
            full = J.scale(-1)
            assert full * full == Matrix(field, [[n % p] * n] * n)
            assert inverse_times(A, full, "test") == Matrix(
                field, [r[n:] for r in ref_rref(augmented(A, full))[0]], ncols=n)

    # (p, k, w) on both sides of each slot width change: 16 -> 32 bits,
    # 32 -> 64 bits and 64 bits -> the shift loop, w = _slot_bits(p, k) for
    # k updates or product terms per row.  The product packs at every k
    # here, the forward pass from k = 8 and the backward pass over 67 and
    # 10007, so p = 67 takes the 16 -> 32 change in both passes too.
    @pytest.mark.parametrize("p, k, w", [(131, 3, 16), (131, 4, 32), (67, 15, 16), (67, 16, 32),
                                         (10007, 42, 32), (10007, 43, 64),
                                         (1073741789, 16, 64), (1073741789, 17, 65)])
    @pytest.mark.parametrize("above", [1, -1], ids=["forward", "backward"])
    def test_slot_width_boundaries(self, p, k, w, above):
        assert _slot_bits(p, k) == w
        f = GF(p)
        # k columns: each row below the k-th takes k updates, one per pivot,
        # and back substitution runs over k pivots
        A = lu_product(f, k + 1, k, above)
        assert_kernel_matches_reference(A)
        S = lu_product(f, k, k, above)
        assert det(S) == 1 == ref_det(S)
        J = Matrix(f, [[1] * k] * k)
        assert inverse_times(S, S * J, "test") == J
        # every slot of these products sums k terms, each (p - 1)^2 in F's
        full = Matrix(f, [[p - 1] * k] * (k + 8))
        for X, Y in ((A, A.transpose()), (full, full.transpose()), (full, A.transpose())):
            assert X * Y == Matrix(f, ref_matmul(X, Y), ncols=Y.ncols)
        C = full.submatrix(range(k), range(k))
        assert inverse_times(S, C, "test") == Matrix(
            f, [r[k:] for r in ref_rref(augmented(S, C))[0]], ncols=k)

    def test_unpack_masks_the_slots_above(self):
        # a pivot row in _clear_packed holds nonzero multiples of p left of
        # its pivot; the row's tail is read off its low slots alone
        for p, k in ((131, 3), (131, 4), (10007, 43), (1073741789, 17)):
            w = _slot_bits(p, k)
            low = [p - 1, 0, 1, 2, p - 2]
            P = _pack([3 * p, p, 7 * p] + low, w)
            assert P >> (5 * w) and _unpack(P, 8, w, p) == [0, 0, 0] + low
            assert _unpack(P, 5, w, p) == low
            assert _unpack(P, 5, w, p, p - 1) == [-x % p for x in low]

    @pytest.mark.parametrize("field", [GF(3), GF(LARGE_PRIME)], ids=repr)
    def test_row_swaps_and_scaled_pivots(self, field):
        # row i of S is 2^i times row i + 1 (mod 16) of X; the cyclic shift
        # is an odd permutation, so det S = -2^120 det X with det X = 1.  For
        # X upper triangular every column takes a row swap.
        U = Matrix(field, [[1 if i == j else -1 if j > i else 0 for j in range(16)]
                           for i in range(16)])
        expected = field.neg(field.convert(2 ** 120))
        for X in (U, lu_product(field, 16, 16, 1)):
            S = Matrix(field, [[2 ** i * x for x in X.row((i + 1) % 16)] for i in range(16)])
            assert det(S) == expected == ref_det(S)
            assert_kernel_matches_reference(S)

    @pytest.mark.parametrize("field", [GF(3), GF(LARGE_PRIME)], ids=repr)
    def test_rank_deficient(self, field):
        # a zero first row forces a swap at column 0; two rows are sums of
        # others, so the rank is 13 of 16 and three columns are free
        A = lu_product(field, 16, 16, 1)
        rows = [list(r) for r in A.rows]
        rows[0] = [0] * 16
        rows[5] = [field.add(x, y) for x, y in zip(rows[1], rows[2])]
        rows[9] = [field.sub(x, y) for x, y in zip(rows[3], rows[12])]
        D = Matrix(field, rows)
        assert rank(D) == 13 and det(D) == 0 == ref_det(D)
        assert_kernel_matches_reference(D)
        assert_kernel_matches_reference(D.transpose())
        X = Matrix(field, [[x] for x in range(16)])
        assert solve(D, D * X) is not None
        assert solve(D, Matrix(field, [[1]] + [[0]] * 15)) is None
        with pytest.raises(SingularMatrixError):
            inverse_times(D, Matrix.identity(field, 16), "test")

    @pytest.mark.parametrize("field", [GF(3), GF(LARGE_PRIME)], ids=repr)
    def test_empty_shapes(self, field):
        for m, n in ((0, 9), (9, 0)):
            Z = Matrix(field, [[]] * m, ncols=n) if m else Matrix(field, [], ncols=n)
            assert rank(Z) == 0 and pivots(Z) == []
            assert rref(Z) == (Matrix.zeros(field, m, n), [])
            assert nullspace(Z) == Matrix.identity(field, n)
            assert Z * Matrix.zeros(field, n, 9) == Matrix.zeros(field, m, 9)
        # a sum of no terms in every slot
        assert Matrix.zeros(field, 9, 0) * Matrix.zeros(field, 0, 9) == Matrix.zeros(field, 9, 9)
        # nine equations in no unknowns: consistent exactly when b = 0
        A = Matrix(field, [[]] * 9, ncols=0)
        assert solve(A, Matrix.zeros(field, 9, 9)) == Matrix(field, [], ncols=9)
        assert solve(A, Matrix.identity(field, 9)) is None


# --- entrywise and structural ops against per-entry arithmetic -------------


@st.composite
def ref_matrices(draw, field, m=None, n=None, max_dim=4):
    """(A, rows of A as field elements): each row plain (over Q with mixed
    denominators and ints), a plain row times a common factor, or zero.  A
    is built from the entries as drawn, so int entries take their own path."""
    m = draw(st.integers(0, max_dim)) if m is None else m
    n = draw(st.integers(0, max_dim)) if n is None else n
    drawn = []
    for _ in range(m):
        row = draw(st.lists(entries(field), min_size=n, max_size=n))
        kind = draw(st.sampled_from(["plain", "factor", "zero"]))
        if kind == "factor":
            k = draw(st.integers(2, 6))
            row = [k * x for x in row]
        elif kind == "zero":
            row = [0] * n
        drawn.append(row)
    rows = [[field.convert(x) for x in row] for row in drawn]
    return Matrix(field, drawn, ncols=n), rows


def is_canonical(f, x):
    if f.p is not None:
        return type(x) is int and 0 <= x < f.p
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def assert_matrix(M, rows, ncols):
    """M has exactly these entries, reads them back as canonical field
    elements through every accessor, keeps its stored rows in lowest terms,
    and equals the matrix built from the entries."""
    f = M.field
    rows = tuple(map(tuple, rows))
    assert (M.nrows, M.ncols) == (len(rows), ncols)
    assert M.rows == rows and M.to_lists() == [list(r) for r in rows]
    assert [M.col(j) for j in range(ncols)] == [tuple(r[j] for r in rows) for j in range(ncols)]
    assert [[M[i, j] for j in range(ncols)] for i in range(len(rows))] == [list(r) for r in rows]
    reads = [*(x for r in M.rows for x in r), *(x for r in M.to_lists() for x in r),
             *(x for j in range(ncols) for x in M.col(j)),
             *(M[i, j] for i in range(len(rows)) for j in range(ncols))]
    assert all(is_canonical(f, x) for x in reads)
    if f.p is None:
        assert all(d > 0 and gcd(d, *r) == 1 for r, d in zip(M._rows, M._dens))
    assert M == Matrix(f, rows, ncols=ncols)


def same_shape_pairs(f):
    return st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda mn: st.tuples(ref_matrices(f, *mn), ref_matrices(f, *mn), entries(f)))


def square_and_right_side(f):
    return st.tuples(st.integers(0, 4), st.integers(0, 3)).flatmap(
        lambda nk: st.tuples(matrices(f, nk[0], nk[0]), matrices(f, nk[0], nk[1])))


class TestInverseTimes:
    @settings(max_examples=150, deadline=None)
    @given(fields_and(square_and_right_side))
    def test_matches_inverse_product(self, args):
        A, C = args
        n = A.nrows
        if rank(A) < n:
            with pytest.raises(SingularMatrixError, match=f"^some stage: singular {n}x{n} matrix$"):
                inverse_times(A, C, "some stage")
            return
        X = inverse_times(A, C, "some stage")
        assert X == inverse(A) * C
        assert A * X == C

    def test_inverse_names_itself(self):
        with pytest.raises(SingularMatrixError, match="^inverse: singular 2x2 matrix$"):
            inverse(mat([[1, 2], [2, 4]]))


class TestFieldMismatch:
    def test_product_raises(self):
        # the numerators of one side must not be read as residues of the other
        with pytest.raises(ValueError, match="field mismatch"):
            Matrix(GF(3), [[1]]) * Matrix(QQ, [["1/2"]])
        with pytest.raises(ValueError, match="field mismatch"):
            Matrix(QQ, [["1/2"]]) * Matrix(GF(3), [[1]])
        with pytest.raises(ValueError, match="field mismatch"):
            Matrix(GF(3), [[1]]) * Matrix(GF(5), [[1]])

    def test_kron_raises(self):
        with pytest.raises(ValueError, match="mixed fields"):
            kron(Matrix(GF(3), [[1]]), Matrix(QQ, [["1/2"]]))


class TestEntrywiseAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(fields_and(same_shape_pairs))
    def test_add_sub_neg_scale(self, args):
        (A, a), (B, b), c = args
        f, n = A.field, A.ncols
        c = f.convert(c)
        assert_matrix(A, a, n)
        assert_matrix(A + B, [[f.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], n)
        assert_matrix(A - B, [[f.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], n)
        assert_matrix(-A, [[f.neg(x) for x in r] for r in a], n)
        assert_matrix(A.scale(c), [[f.mul(c, x) for x in r] for r in a], n)
        # equal matrices built by different routes
        assert (A == B) == (a == b)
        assert (A + B) - B == A == -(-A)
        assert A - A == Matrix.zeros(f, A.nrows, n) == A.scale(0)

    @settings(max_examples=150, deadline=None)
    @given(fields_and(lambda f: st.tuples(ref_matrices(f), st.data())))
    def test_transpose_submatrix_stacks(self, args):
        (A, a), data = args
        f, m, n = A.field, A.nrows, A.ncols
        assert_matrix(A.transpose(), [[r[j] for r in a] for j in range(n)], m)
        assert A.transpose().transpose() == A
        ri = data.draw(st.lists(st.integers(0, m - 1), max_size=4)) if m else []
        ci = data.draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
        assert_matrix(A.submatrix(ri, ci), [[a[i][j] for j in ci] for i in ri], len(ci))
        R, r = data.draw(ref_matrices(f, m=m))
        assert_matrix(hstack(A, R), [x + y for x, y in zip(a, r)], n + R.ncols)
        V, v = data.draw(ref_matrices(f, n=n))
        assert_matrix(vstack(A, V), a + v, n)
        assert hstack(A, R).submatrix(range(m), range(n)) == A
        assert vstack(A, V).submatrix(range(m), range(n)) == A

    @settings(max_examples=150, deadline=None)
    @given(fields_and(lambda f: st.tuples(ref_matrices(f), ref_matrices(f))))
    def test_kron(self, args):
        (A, a), (B, b) = args
        f = A.field
        assert_matrix(kron(A, B), [[f.mul(x, y) for x in ra for y in rb] for ra in a for rb in b],
                      A.ncols * B.ncols)

    @pytest.mark.parametrize("field, coeffs", [
        *((f, c) for f in FIELDS for c in [(1, 0, 1), (2, 1, 0, 1)]),
        (QQ, ("1/3", "-1/2", 1)), (QQ, ("5/4", 0, "2/9", 1))], ids=str)
    def test_kron_companion_pencil(self, field, coeffs):
        # the gamma route's point M^T ⊗ I_k + M ⊗ C_g, against its entries
        # m_ji [a = b] + m_ij c_ab written out one by one
        C = frobenius(Poly(field, coeffs))
        k = C.nrows
        M = Matrix(field, [["1/2", 3, "-2/7"], [0, "5/6", 4], ["9/4", -1, 0]]
                   if field.p is None else [[1, 3, 2], [0, 5, 4], [9, -1, 0]])
        f, n = field, M.nrows
        expected = [[f.add(M[j, i] if a == b else f.zero(), f.mul(M[i, j], C[a, b]))
                     for j in range(n) for b in range(k)]
                    for i in range(n) for a in range(k)]
        pencil = kron(M.transpose(), Matrix.identity(f, k)) + kron(M, C)
        assert_matrix(pencil, expected, n * k)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_empty_shapes(self, field):
        for m, n in ((0, 0), (0, 3), (3, 0)):
            Z = Matrix.zeros(field, m, n)
            for A in (Z, Matrix.identity(field, 2)):
                assert_matrix(kron(Z, A), [[]] * (m * A.nrows), n * A.ncols)
                assert_matrix(kron(A, Z), [[]] * (A.nrows * m), A.ncols * n)
            assert_matrix(Z + Z, [[]] * m if m else [], n)
            assert_matrix(-Z.scale(2), [[]] * m if m else [], n)
            assert_matrix(Z.transpose(), [[]] * n if n else [], m)
            assert_matrix(hstack(Z, Z), [[]] * m if m else [], 2 * n)
            assert_matrix(vstack(Z, Z), [[]] * (2 * m) if m else [], n)
            assert Z == Matrix(field, [[]] * m if m else [], ncols=n)

    def test_int_entries_match_converted_ones(self):
        # an int goes straight to the stored form, a Fraction, string or
        # bool through Field.convert; all read back as canonical Fractions,
        # and the matrix equals the one built from Fractions
        M = Matrix(QQ, [[3, Fraction(1, 2), "3/4", True]])
        assert_matrix(M, [[Fraction(3), Fraction(1, 2), Fraction(3, 4), Fraction(1)]], 4)

    def test_lowest_terms_across_routes(self):
        assert Matrix(QQ, [[2, 4]]).scale(Fraction(1, 4)) == Matrix(QQ, [["1/2", 1]])
        half = Matrix(QQ, [["1/2", "1/2"]])
        assert half + half == Matrix(QQ, [[1, 1]])
        assert Matrix(QQ, [["1/2", "1/3"]]).submatrix([0], [0, 0]) == half.scale(2).scale("1/2")
        assert hstack(half, Matrix(QQ, [["1/3"]])) == Matrix(QQ, [["3/6", "1/2", "2/6"]])
        assert Matrix(QQ, [[2, "1/2"]]).transpose() == Matrix(QQ, [[2], ["1/2"]])
        assert Matrix(QQ, [[1, 2], [3, 4]]) != Matrix(QQ, [[1, 2], [3, 5]])


# --- full rank over Q from the image mod _IMAGE_P --------------------------

P = exactmat._IMAGE_P


def image_deficient_full_rank():
    """Q matrices of full rank, at least _IMAGE_MIN on each side, whose
    image mod P is rank-deficient: P divides every maximal minor."""
    D = Matrix(QQ, [[P if i == j == 0 else int(i == j) for j in range(10)] for i in range(10)])
    # B - B^T is unimodular, so only B's own image is singular
    B = direct_sum([Matrix(QQ, [[1, 1], [0, P]])] * 5)
    return {"diag": D, "diag-mixed": random_congruence(D, 3), "skew-unimodular": B,
            "skew-unimodular-mixed": random_congruence(B, 4),
            "wide": hstack(D, Matrix(QQ, [[P]] * 10)), "tall": vstack(D, D.scale(P))}


def big_deficient():
    """Rank-deficient Q matrices with entries of 2^200 and more."""
    big = 2 ** 200 + 1
    J3G8 = random_congruence(direct_sum([jordan(3, 0), gamma(8)]), 5).scale(big)
    rng = random.Random(6)
    L = Matrix(QQ, [[rng.randint(-3, 3) * big for _ in range(5)] for _ in range(12)])
    R = Matrix(QQ, [[Fraction(rng.randint(-3, 3) * big, rng.randint(1, 5)) for _ in range(12)]
                    for _ in range(5)])
    return {"J3+G8": J3G8, "rank-5": L * R, "rank-5-wide": (L * R).submatrix(range(10), range(12))}


FULL_RANK_CASES = image_deficient_full_rank()
IMAGE_CASES = {**FULL_RANK_CASES, **big_deficient()}


class TestImageModP:
    @staticmethod
    def outcomes(A):
        out = [full_rank(A), nullspace(A)]
        if A.is_square:
            reg = regularize(A)
            out += [reg, odd_unipotent_counts(reg.regular_part), decide(A),
                    decide_gamma_shift(A)]
        return out

    @pytest.mark.parametrize("name", IMAGE_CASES)
    def test_matches_the_exact_path(self, name, monkeypatch):
        A = IMAGE_CASES[name]
        k = min(A.nrows, A.ncols)
        assert exactmat._image_rank(A) < k
        assert (rank(A) == k) == (name in FULL_RANK_CASES)
        got = self.outcomes(A)
        # an image that never has full rank leaves every answer to the exact path
        monkeypatch.setattr(exactmat, "_image_rank", lambda A: -1)
        assert got == self.outcomes(A)

    def test_image_decides_full_rank(self, monkeypatch):
        # a full-rank image is the whole proof: no exact elimination runs
        A = random_congruence(gamma(12), 1)
        real = exactmat._eliminate
        monkeypatch.setattr(exactmat, "_eliminate", lambda rows, ncols, p: real(rows, ncols, p)
                            if p == P else pytest.fail("exact elimination"))
        assert full_rank(A) and nullspace(A).ncols == 0

    def test_no_image_below_the_cutoff_or_over_fp(self):
        # diag(P, 1, ...): full rank over Q below _IMAGE_MIN, deficient over F_P
        D = IMAGE_CASES["diag"]
        for A, expected in ((D.submatrix(range(9), range(9)), True),
                            (Matrix(GF(P), D.to_lists()), False)):
            assert exactmat._image_rank(A) is None
            assert full_rank(A) == expected == (rank(A) == min(A.nrows, A.ncols))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_full_rank_is_exact(self, data):
        m, n = data.draw(st.integers(9, 12)), data.draw(st.integers(9, 12))
        if data.draw(st.booleans()):  # deficient over Q: a product through a thin middle
            k = data.draw(st.integers(0, min(m, n) - 1))
            A = data.draw(matrices(QQ, m, k)) * data.draw(matrices(QQ, k, n))
        else:  # a row times P vanishes in the image but not over Q
            scale = data.draw(st.lists(st.sampled_from([1, 1, 1, P]), min_size=m, max_size=m))
            A = Matrix(QQ, [[x * s for x in r] for r, s in zip(data.draw(matrices(QQ, m, n)).rows,
                                                                scale)], ncols=n)
        assert full_rank(A) == (rank(A) == min(m, n))
