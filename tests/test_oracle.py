import hashlib
import json
import random
import tracemalloc

import pytest

from isodet import (
    GF,
    QQ,
    Matrix,
    BudgetExceededError,
    IsometrySummary,
    enumerate_isometries,
    gamma,
    jordan,
    random_congruence,
    rank,
    symplectic_unit,
    verify_congruence,
)
from helpers import (FIELDS, all_matrices, mat, random_nonsingular, ref_isometry_dets,
                     scan_isometry_dets)


def order_gl(n, q):
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order


class TestEnumerate:
    def test_symplectic_f3(self):
        s = enumerate_isometries(symplectic_unit(1, GF(3)))
        assert s.group_order == 24
        assert s.all_det_one
        assert s.det_counts == {1: 24}

    def test_identity_f3(self):
        s = enumerate_isometries(Matrix.identity(GF(3), 2))
        assert not s.all_det_one
        assert s.det_counts[2] > 0

    def test_zero_form(self):
        s = enumerate_isometries(Matrix(GF(3), [[0]]))
        assert s.group_order == 2
        assert s.det_counts == {1: 1, 2: 1}
        assert not s.all_det_one

    def test_budget(self):
        # the budget is checked before a level's partial matrices pile up
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                enumerate_isometries(Matrix.zeros(GF(3), 5, 5))
            assert tracemalloc.get_traced_memory()[1] < 16 * 2 ** 20
        finally:
            tracemalloc.stop()

    def test_limit_counts_pairs(self):
        # the root pairs the empty partial matrix with the 9 vectors of
        # F_3^2; every nonzero one is a first column of an isometry of the
        # symplectic form, so the second level pairs 8 partial matrices
        # with 9 vectors
        M = symplectic_unit(1, GF(3))
        for limit in (8, 9 + 8 * 9 - 1):
            with pytest.raises(BudgetExceededError):
                enumerate_isometries(M, limit=limit)
        assert enumerate_isometries(M, limit=9 + 8 * 9).group_order == 24

    def test_lagrange(self):
        rng = random.Random(2)
        f = GF(3)
        for _ in range(10):
            M = Matrix(f, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
            s = enumerate_isometries(M)
            assert order_gl(2, 3) % s.group_order == 0

    def test_group_closure_sample(self):
        # isometries compose to isometries; spot-check via a small group
        f = GF(3)
        M = symplectic_unit(1, f)
        found = []
        for S in all_matrices(2, 3):
            if rank(S) == 2 and S.transpose() * M * S == M:
                found.append(S)
        rng = random.Random(8)
        for _ in range(100):
            A = rng.choice(found)
            B = rng.choice(found)
            C = A * B
            assert C.transpose() * M * C == M


class TestVerdict:
    def test_even_nilpotent(self):
        assert enumerate_isometries(jordan(2, 0, GF(3))).all_det_one

    def test_zero(self):
        assert not enumerate_isometries(Matrix(GF(3), [[0]])).all_det_one

    def test_odd_nilpotent(self):
        assert not enumerate_isometries(jordan(3, 0, GF(3))).all_det_one


class TestAgainstReference:
    """The search against the numpy scan and, where it is fast enough,
    against ref_isometry_dets."""

    def check(self, M, by_matrices=False):
        tally = ref_isometry_dets(M) if by_matrices else scan_isometry_dets(M)
        order = sum(tally.values())
        all_one = tally.get(1, 0) == order
        assert enumerate_isometries(M) == IsometrySummary(order, tally, all_one), M.to_lists()

    def test_all_m2_f3(self):
        for M in all_matrices(2, 3):
            self.check(M)
            self.check(M, by_matrices=True)

    def test_all_m2_f5(self):
        for M in all_matrices(2, 5):
            self.check(M)

    def test_sampled_m2_f5(self):
        f = GF(5)
        rng = random.Random(11)
        for _ in range(60):
            M = Matrix(f, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
            self.check(M, by_matrices=True)

    @pytest.mark.parametrize("p, count", [(3, 40), (5, 2)])
    def test_sampled_3x3(self, p, count):
        f = GF(p)
        rng = random.Random(p)
        for _ in range(count):
            self.check(Matrix(f, [[rng.randrange(p) for _ in range(3)] for _ in range(3)]))

    @pytest.mark.parametrize("p", [32771, 65539])
    def test_residues_above_int16(self, p):
        # residues up to p - 1 must survive the partial matrices' storage type
        for v in (1, 2):
            self.check(Matrix(GF(p), [[v]]))

    def test_empty_form(self):
        assert enumerate_isometries(Matrix.zeros(GF(3), 0, 0)) == IsometrySummary(1, {1: 1}, True)


class TestRandomCongruence:
    def test_always_congruent(self):
        f = GF(5)
        M = Matrix(f, [[1, 2], [3, 4]])
        for seed in range(10):
            N = random_congruence(M, seed)
            T = random_nonsingular(random.Random(seed), 2, f)
            assert verify_congruence(T, M, N)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_transform_is_the_helpers_draw(self, field):
        # T follows random.Random(seed) as random_nonsingular draws it,
        # rejected singular draws included: the corpora rest on this stream
        rng = random.Random(2)
        for n in range(9):
            M = Matrix(field, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)], ncols=n)
            for seed in (0, 1, 7, 123):
                T = random_nonsingular(random.Random(seed), n, field)
                assert random_congruence(M, seed) == T.transpose() * M * T

    def test_deterministic(self):
        M = Matrix(GF(3), [[1, 0], [1, 2]])
        assert random_congruence(M, 123) == random_congruence(M, 123)

    @pytest.mark.parametrize("field, n, seed, expected", [
        (QQ, 2, 0, [["-1", "1"], ["-1", "0"]]),  # one transform rejected
        (GF(7), 2, 7, [["5", "6"], ["1", "0"]]),  # two rejected
        (GF(7), 3, 1, [["1", "5", "3"], ["6", "5", "3"], ["0", "0", "3"]]),  # one rejected
        (QQ, 12, 4, "2f004e4f8c01ccfb17d352829a1cd7c52ead5b8a5b4e496d96730cc3b7eec0dd"),
        (GF(7), 12, 5, "6ce247016645a07e13ad59a620cab3522e6f760feacd37eae272c6a6b8793b12"),
    ], ids=["Q-2", "F7-2", "F7-3", "Q-12", "F7-12"])
    def test_pinned_outputs(self, field, n, seed, expected):
        # the corpora of the tests and the benchmark are built from these
        # draws: rejecting a singular transform must follow the seed stream
        # exactly, whichever proof of full rank the check uses
        rows = [[str(x) for x in r] for r in random_congruence(gamma(n, field), seed).rows]
        assert (rows if n < 5 else hashlib.sha256(json.dumps(rows).encode()).hexdigest()) == expected

    def test_known_transform(self):
        from isodet import QQ
        M = Matrix.identity(QQ, 2)
        T = mat([[1, 1], [0, 1]])
        assert T.transpose() * M * T == mat([[1, 1], [1, 2]])
