import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodet import (
    GF,
    QQ,
    Matrix,
    direct_sum,
    gamma,
    jordan,
    rank,
    regularize,
    symplectic_unit,
    verify_congruence,
)
from isodet import exactmat
from isodet.decide import odd_unipotent_counts

from helpers import all_matrices, filtration_sizes, mat, random_nonsingular


def check_output(M, res):
    assert verify_congruence(res.transform, M, res.canonical())
    assert rank(res.regular_part) == res.regular_part.nrows
    assert list(res.singular_sizes) == sorted(res.singular_sizes)
    assert res.regular_part.nrows + sum(res.singular_sizes) == M.nrows


class TestExamples:
    def test_nonsingular_passthrough(self):
        Z2 = symplectic_unit(1)
        res = regularize(Z2)
        assert res.singular_sizes == () and res.regular_part == Z2
        check_output(Z2, res)

    def test_block_sum(self):
        M = direct_sum([jordan(1, 0), symplectic_unit(1)])
        res = regularize(M)
        assert res.singular_sizes == (1,) and res.regular_part.nrows == 2
        check_output(M, res)

    def test_whole_matrix_singular(self):
        M = jordan(2, 0)
        res = regularize(M)
        assert res.singular_sizes == (2,) and res.regular_part.nrows == 0
        check_output(M, res)

    def test_empty(self):
        M = Matrix(QQ, [], ncols=0)
        res = regularize(M)
        assert res.singular_sizes == () and res.regular_part.nrows == 0

    def test_zero_matrix(self):
        res = regularize(Matrix.zeros(QQ, 3, 3))
        assert res.singular_sizes == (1, 1, 1)

    @pytest.mark.parametrize("s", range(1, 7))
    def test_pure_jordan(self, s):
        res = regularize(jordan(s, 0))
        assert res.singular_sizes == (s,) and res.regular_part.nrows == 0

    def test_canonical_form(self):
        f = GF(5)
        Z2 = symplectic_unit(1, f)
        res = regularize(Z2)
        assert res.canonical() == Z2
        assert regularize(jordan(3, 0, f)).canonical() == jordan(3, 0, f)
        empty = regularize(Matrix(f, [], ncols=0)).canonical()
        assert empty.field == f and empty.nrows == empty.ncols == 0
        # B (+) J_1(0) (+) J_2(0), block for block
        res = regularize(direct_sum([jordan(2, 0, f), Z2, jordan(1, 0, f)]))
        C = res.canonical()
        assert res.singular_sizes == (1, 2) and C.nrows == 5
        assert C.submatrix(range(2), range(2)) == res.regular_part
        assert C.submatrix(range(2, 5), range(5)) == Matrix(
            f, [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 0]])
        assert C.submatrix(range(2), range(2, 5)).is_zero()


class TestVerifyCongruence:
    def test_identity(self):
        M = mat([[1, 2], [3, 4]])
        assert verify_congruence(Matrix.identity(QQ, 2), M, M)

    def test_scaling(self):
        S = mat([[2, 0], [0, 1]])
        assert verify_congruence(S, Matrix.identity(QQ, 2), mat([[4, 0], [0, 1]]))

    def test_singular_transform_rejected(self):
        S = mat([[0, 0], [1, 0]])
        M = symplectic_unit(1)
        assert not verify_congruence(S, M, M)

    @pytest.mark.parametrize("S, M, N", [
        (mat([[1, 0]]), mat([[1]]), mat([[1]])),
        (Matrix.identity(QQ, 2), Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)),
        (Matrix.identity(GF(3), 2), Matrix.identity(QQ, 2), Matrix.identity(QQ, 2)),
    ], ids=["nonsquare", "size", "field"])
    def test_mismatch_rejected(self, S, M, N):
        assert not verify_congruence(S, M, N)


# the module, not the function of the same name that isodet exports
REG = importlib.import_module("isodet.regularize")


class TestPostcondition:
    """The general postcondition catches a wrong decomposition of a singular M."""

    @pytest.mark.parametrize("rows, W, spans", [
        # e_1 pairs with e_0, so it is no 1x1 singular block
        ([[1, 0], [1, 0]], [[1, 0], [0, 1]], [range(1, 2)]),
        # the right blocks on a singular basis
        ([[1, 0], [0, 0]], [[1, 0], [0, 0]], [range(1, 2)]),
        # no chain: B = M is singular
        ([[1, 0], [0, 0]], [[1, 0], [0, 1]], []),
    ], ids=["not-chains", "singular-basis", "no-chain"])
    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
    def test_a_wrong_decomposition_raises(self, monkeypatch, rows, W, spans, field):
        monkeypatch.setattr(REG, "_decompose", lambda G, K: (Matrix(field, W), list(spans)))
        with pytest.raises(REG.RegularizationError, match="postcondition"):
            regularize(Matrix(field, rows))


class TestOneKernel:
    """regularize proves M nonsingular by its kernel alone, taken once."""

    @staticmethod
    def calls(monkeypatch, name, M):
        real, seen = getattr(exactmat, name), []
        monkeypatch.setattr(exactmat, name, lambda *a: seen.append(a) or real(*a))
        res = regularize(M)
        assert res.singular_sizes == () and res.regular_part == M
        return len(seen)

    def test_one_image_over_q(self, monkeypatch):
        M = random_nonsingular(random.Random(5), 12)
        assert self.calls(monkeypatch, "_image_rank", M) == 1

    def test_one_elimination_over_fp(self, monkeypatch):
        M = random_nonsingular(random.Random(5), 12, GF(7))
        assert self.calls(monkeypatch, "_eliminate", M) == 1

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("parts", [[gamma(4)], [jordan(3, 0), gamma(4)],
                                       [jordan(2, 0), jordan(1, 0), symplectic_unit(2)]],
                             ids=["nonsingular", "J3+G4", "J2+J1+Z4"])
    def test_no_second_look_at_m(self, monkeypatch, field, parts):
        # M's own kernel is the only elimination of M, whatever its blocks
        T = random_nonsingular(random.Random(9), sum(p.nrows for p in parts), field)
        M = T.transpose() * Matrix(field, direct_sum(parts).to_lists()) * T
        seen = []
        for name in ("nullspace", "full_rank", "pivots", "solve"):
            real = getattr(REG, name)
            monkeypatch.setattr(REG, name, lambda A, *rest, real=real, name=name:
                                (seen.append(name) if A == M else None) or real(A, *rest))
        check_output(M, regularize(M))
        assert seen == ["nullspace"]


class TestExhaustiveSmallFields:
    def test_all_2x2_f3(self):
        for M in all_matrices(2, 3):
            res = regularize(M)
            check_output(M, res)
            assert res.singular_sizes == filtration_sizes(M)

    def test_sampled_3x3_f3(self):
        f = GF(3)
        for idx in range(0, 3 ** 9, 7):
            bits = []
            v = idx
            for _ in range(9):
                bits.append(v % 3)
                v //= 3
            M = Matrix(f, [bits[0:3], bits[3:6], bits[6:9]])
            res = regularize(M)
            check_output(M, res)
            assert res.singular_sizes == filtration_sizes(M)

    def test_sizes_congruence_invariant_2x2_f3(self):
        # exhaustive over all congruences of all 2x2 matrices
        f = GF(3)
        gl2 = [S for S in all_matrices(2, 3) if rank(S) == 2]
        for M in all_matrices(2, 3):
            sizes = regularize(M).singular_sizes
            for S in gl2:
                assert regularize(S.transpose() * M * S).singular_sizes == sizes

    def test_sizes_congruence_invariant_3x3_f3_sampled(self):
        f = GF(3)
        rng = random.Random(17)
        for _ in range(120):
            M = Matrix(f, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
            sizes = regularize(M).singular_sizes
            for k in range(6):
                S = random_nonsingular(rng, 3, f)
                assert regularize(S.transpose() * M * S).singular_sizes == sizes


class TestRationalInvariance:
    def test_congruence_invariance_4x4(self):
        rng = random.Random(23)
        for _ in range(40):
            M = mat([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
            r1 = regularize(M)
            T = random_nonsingular(rng, 4)
            r2 = regularize(T.transpose() * M * T)
            assert r1.singular_sizes == r2.singular_sizes
            assert r1.regular_part.nrows == r2.regular_part.nrows
            # regular parts have matching cosquare rank data
            assert odd_unipotent_counts(r1.regular_part) == odd_unipotent_counts(r2.regular_part)

    def test_known_block_shapes(self):
        rng = random.Random(31)
        shapes = [
            [jordan(3, 0)],
            [jordan(2, 0), jordan(2, 0)],
            [jordan(4, 0), jordan(1, 0)],
            [jordan(5, 0)],
            [jordan(3, 0), jordan(2, 0), mat([[2]])],
            [jordan(3, 0), gamma(2)],
            [jordan(2, 0), symplectic_unit(1)],
        ]
        for parts in shapes:
            M0 = direct_sum(parts)
            expected = tuple(sorted(p.nrows for p in parts if rank(p) < p.nrows))
            for trial in range(6):
                T = random_nonsingular(rng, M0.nrows)
                M = T.transpose() * M0 * T
                res = regularize(M)
                check_output(M, res)
                assert res.singular_sizes == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=n * n, max_size=n * n)))
    def test_postcondition_random(self, flat):
        n = int(len(flat) ** 0.5)
        M = Matrix(QQ, [flat[i * n:(i + 1) * n] for i in range(n)])
        res = regularize(M)
        check_output(M, res)
        assert res.singular_sizes == filtration_sizes(M)
