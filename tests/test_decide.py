import importlib
import random

import pytest

from isodet import (
    GF,
    QQ,
    Matrix,
    Method,
    NoOddBlockError,
    Poly,
    RegularizationResult,
    SingularMatrixError,
    certificate_singular,
    decide,
    decide_gamma_shift,
    det_poly,
    direct_sum,
    frobenius,
    gamma,
    inverse,
    jordan,
    odd_unipotent_counts,
    regularize,
    skew_fast_path,
    skew_sum,
    symplectic_unit,
    verify_certificate,
)

from helpers import (
    known_sum,
    mat,
    random_nonsingular,
    random_rational,
    ref_gamma_shift,
    ref_odd_unipotent_counts,
)


class TestDecideExamples:
    def test_symplectic_unit(self):
        rep = decide(symplectic_unit(1))
        assert rep.all_det_one and rep.method is Method.REGULARIZE

    def test_identity(self):
        rep = decide(Matrix.identity(QQ, 2))
        assert not rep.all_det_one
        assert rep.rank_sequence[:2] == (2, 0)
        assert rep.odd_block_counts == (2,)

    def test_one_by_one_zero(self):
        rep = decide(mat([[0]]))
        assert not rep.all_det_one
        assert rep.singular_sizes == (1,)
        assert rep.certificate == mat([[-1]])
        assert verify_certificate(mat([[0]]), rep.certificate)

    def test_even_nilpotent_block(self):
        rep = decide(jordan(2, 0))
        assert rep.all_det_one
        assert rep.singular_sizes == (2,)
        assert all(c == 0 for c in rep.odd_block_counts)

    def test_gamma3(self):
        rep = decide(gamma(3))
        assert not rep.all_det_one
        assert rep.odd_block_counts == (0, 1)

    def test_empty_matrix(self):
        assert decide(Matrix(QQ, [], ncols=0)).all_det_one

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_empty_regular_part(self, field, s):
        # J_s(0) regularizes to an empty B: the count step's n = 0 case,
        # padded to one count per odd size up to s
        rep = decide(jordan(s, 0, field))
        assert rep.singular_sizes == (s,)
        assert rep.rank_sequence == (0,)
        assert rep.odd_block_counts == (0,) * ((s + 1) // 2)

    def test_theorem_check_fires(self, monkeypatch):
        # an accepted input never runs the skew test; a refusal of an input
        # with nonsingular M - M^T contradicts the theorem and raises
        d = importlib.import_module("isodet.decide")
        skew = d.skew_fast_path
        monkeypatch.setattr(d, "skew_fast_path", lambda M: pytest.fail("skew test on an accept"))
        assert decide(symplectic_unit(1)).all_det_one
        monkeypatch.setattr(d, "skew_fast_path", skew)
        monkeypatch.setattr(d, "_count_step", lambda A, C, k: ((2, 1, 1, 1), (1,)))
        with pytest.raises(AssertionError):
            decide(symplectic_unit(1))


class TestSkewFastPath:
    def test_z4(self):
        assert skew_fast_path(symplectic_unit(2))

    def test_symmetric_no_decision(self):
        assert not skew_fast_path(Matrix.identity(QQ, 2))

    def test_skew_part_nonsingular(self):
        assert skew_fast_path(mat([[1, 1], [-1, 1]]))

    def test_consistency_with_full_run(self):
        # whenever the fast path fires, the block data is clean anyway, and
        # the regular part keeps a nonsingular skew part too
        from isodet import rank, regularize

        rng = random.Random(3)
        hits = 0
        for _ in range(150):
            n = rng.choice([2, 3, 4])
            M = random_rational(rng, n, 3)
            if skew_fast_path(M):
                hits += 1
                rep = decide(M)
                assert rep.all_det_one
                assert all(s % 2 == 0 for s in rep.singular_sizes)
                assert all(c == 0 for c in rep.odd_block_counts)
                B = regularize(M).regular_part
                assert rank(B - B.transpose()) == B.nrows
        assert hits > 10


class TestOddUnipotentCounts:
    def test_gamma3(self):
        r, c = odd_unipotent_counts(gamma(3))
        assert r[:4] == (3, 2, 1, 0) and c == (0, 1)

    def test_identity(self):
        r, c = odd_unipotent_counts(Matrix.identity(QQ, 2))
        assert r[:2] == (2, 0) and c == (2,)

    def test_empty(self):
        r, c = odd_unipotent_counts(Matrix(QQ, [], ncols=0))
        assert r == (0,) and c == ()

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(10007)], ids=repr)
    def test_matches_cosquare_formula(self, field):
        rng = random.Random(11)
        cases = [random_nonsingular(rng, n, field) for n in range(1, 7) for _ in range(8)]
        cases += [gamma(r, field) for r in range(1, 6)]
        cases += [direct_sum([jordan(3, 1, field), jordan(2, 2, field), gamma(2, field)]),
                  direct_sum([jordan(1, -1, field), jordan(4, 1, field)])]
        for B in cases:
            assert odd_unipotent_counts(B) == ref_odd_unipotent_counts(B)

    @pytest.mark.parametrize("rows", [[[0]], [[1, 1], [1, 1]], [[0, 0], [1, 0]]])
    def test_singular_raises(self, rows):
        # the public entry point proves B nonsingular itself, by full_rank
        n = len(rows)
        with pytest.raises(SingularMatrixError, match=f"^odd_unipotent_counts: singular {n}x{n}"):
            odd_unipotent_counts(mat(rows))


class TestGammaShift:
    def test_identity(self):
        rep = decide_gamma_shift(Matrix.identity(QQ, 2))
        assert not rep.all_det_one
        assert rep.gamma_used == 0
        assert rep.rank_sequence[:2] == (2, 0)
        assert rep.odd_block_counts == (2,)

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
    def test_empty_form(self, field):
        rep = decide_gamma_shift(Matrix(field, [], ncols=0))
        assert rep.all_det_one is True
        assert rep.rank_sequence == () and rep.odd_block_counts == ()
        assert rep.singular_sizes is None

    def test_zero_pencil(self):
        rep = decide_gamma_shift(mat([[0]]))
        assert not rep.all_det_one

    def test_symplectic(self):
        rep = decide_gamma_shift(symplectic_unit(1))
        assert rep.all_det_one
        assert rep.gamma_used == 0
        assert rep.rank_sequence == (2, 2, 2, 2)

    def test_agrees_with_decide_on_random(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.choice([1, 2, 3, 4])
            M = random_rational(rng, n, 3)
            assert decide(M).all_det_one == decide_gamma_shift(M).all_det_one

    def test_each_route_proves_its_pencil_nonsingular_once(self, monkeypatch):
        # regularize's postcondition proves B nonsingular and the gamma
        # route's point test proves M^T + gamma*M: the count step re-proves
        # neither, and only the public odd_unipotent_counts checks its B
        d = importlib.import_module("isodet.decide")
        real_full_rank, calls = d.full_rank, []

        def counted(A):
            calls.append((A.nrows, A.ncols))
            return real_full_rank(A)

        monkeypatch.setattr(d, "full_rank", counted)
        for M in (gamma(3), direct_sum([jordan(2, 0, QQ), gamma(4)])):
            n = M.nrows
            calls.clear()
            decide(M)
            assert calls == []
            # one point test per point: t = 0 proves gamma(3)^T nonsingular;
            # for the second M it is a zero, and later points take rank
            decide_gamma_shift(M)
            assert calls == [(n, n)]
        B = gamma(3)
        calls.clear()
        assert odd_unipotent_counts(B) == d._count_step(B.transpose(), B - B.transpose(), 1)
        assert calls == [(3, 3)]

    def test_routes_reach_the_wong_sequence_through_one_count_step(self, monkeypatch):
        d = importlib.import_module("isodet.decide")
        real_step, real_sequence, steps, inside = d._count_step, d.pencil_rank_sequence, [], []

        def step(A, C, k):
            steps.append(k)
            inside.append(True)
            try:
                return real_step(A, C, k)
            finally:
                inside.pop()

        def sequence(A, C):
            assert inside, "pencil_rank_sequence outside _count_step"
            return real_sequence(A, C)

        monkeypatch.setattr(d, "_count_step", step)
        monkeypatch.setattr(d, "pencil_rank_sequence", sequence)
        # one count step per input; the gamma route stops before it on D = 0
        for M, gamma_steps in ((gamma(3), 1), (direct_sum([jordan(2, 0, QQ), gamma(4)]), 1),
                               (jordan(3, 0), 0)):
            for route, expected in ((decide, 1), (decide_gamma_shift, gamma_steps)):
                steps.clear()
                route(M)
                assert steps == [1] * expected

    def test_extension_shift_over_f3(self):
        # the pencil vanishes at 0, 1 and -1, every point of F_3, yet is not
        # identically zero: the shift comes from F_9 = F_3[x]/(x^2 + 1)
        f = GF(3)
        M = direct_sum([jordan(2, 0, f), Matrix(f, [[0, 1], [2, 0]])])
        rep = decide_gamma_shift(M)
        assert rep.gamma_used is None and rep.gamma_modulus == (1, 0, 1)
        assert rep.all_det_one == decide(M).all_det_one is True


def _random_fp(rng, n, p):
    return Matrix(GF(p), [[rng.randrange(p) for _ in range(n)] for _ in range(n)])


def _low_rank(rng, n, f, bound=2):
    k = rng.randrange(1, n)
    entry = (lambda: rng.randrange(f.p)) if f.p else (lambda: rng.randint(-bound, bound))
    A = Matrix(f, [[entry() for _ in range(k)] for _ in range(n)])
    B = Matrix(f, [[entry() for _ in range(n)] for _ in range(k)])
    return A * B


class TestGammaRoute:
    """The gamma route by point evaluation against the symbolic pencil
    determinant (`helpers.ref_gamma_shift`) and against `decide`."""

    def test_reports_match_symbolic_route(self):
        rng = random.Random(61)
        cases = []
        for _ in range(150):
            n = rng.randint(1, 5)
            cases.append(random_rational(rng, n, 3) if rng.random() < 0.6
                         else _low_rank(rng, max(n, 2), QQ))
        for p, sizes in ((7, (2, 3, 4, 6, 8)), (10007, (3, 5, 8, 12))):
            for _ in range(60):
                n = rng.choice(sizes)
                cases.append(_random_fp(rng, n, p) if rng.random() < 0.6
                             else _low_rank(rng, n, GF(p)))
        compared = zero = 0
        for M in cases:
            ref = ref_gamma_shift(M)
            if ref is None:
                continue
            assert decide_gamma_shift(M) == ref, M
            compared += 1
            zero += ref.rank_sequence == ()
        assert compared > 250 and zero > 30

    def test_total_over_f3(self):
        # with a regular pencil the counts match decide's, whatever the shift
        rng = random.Random(67)
        extended = 0
        for n, trials in ((2, 200), (3, 500), (4, 2000), (5, 500)):
            for _ in range(trials):
                M = _random_fp(rng, n, 3)
                rep, ref = decide_gamma_shift(M), decide(M)
                assert rep.all_det_one == ref.all_det_one, M
                if rep.rank_sequence:
                    assert rep.rank_sequence[0] == n
                    assert rep.odd_block_counts == ref.odd_block_counts, M
                if n == 4:
                    extended += rep.gamma_modulus is not None
        assert extended >= 150

    @pytest.mark.parametrize("p,n", [(3, 6), (3, 8), (7, 10)])
    def test_no_shift_iff_zero_pencil(self, p, n):
        rng = random.Random(71 + n)
        f = GF(p)
        zero = 0
        for _ in range(40):
            M = _low_rank(rng, n, f)
            rep = decide_gamma_shift(M)
            no_shift = rep.gamma_used is None and rep.gamma_modulus is None
            assert no_shift == det_poly(M.transpose(), M).is_zero(), M
            assert rep.all_det_one == decide(M).all_det_one
            zero += no_shift
        assert 0 < zero < 40

    def test_pencil_determinant_is_palindromic(self):
        # D(t) = t^n D(1/t): the reason a zero at x mod g also counts one at
        # the reciprocal of g, and a zero at 0 one at infinity
        rng = random.Random(73)
        for f in (QQ, GF(3), GF(7)):
            for _ in range(40):
                n = rng.randint(2, 6)
                if rng.random() < 0.3:
                    M = _low_rank(rng, n, f)
                else:
                    M = random_rational(rng, n, 3) if f.p is None else _random_fp(rng, n, f.p)
                d = list(det_poly(M.transpose(), M).coeffs)
                d += [0] * (n + 1 - len(d))
                assert d == d[::-1], M

    @pytest.mark.parametrize("p,expected", [
        (3, [((0, 1), 2, True), ((2, 1), 1, True), ((1, 1), 1, False), ((1, 0, 1), 2, True),
             ((2, 1, 1), 4, True), ((1, 2, 0, 1), 6, True)]),
        (7, [((0, 1), 2, True), ((6, 1), 1, True), ((5, 1), 2, True), ((4, 1), 2, True),
             ((1, 1), 1, False), ((1, 0, 1), 2, True)]),
    ])
    def test_point_schedule(self, p, expected):
        # F_3: x^2 + 2x + 2, the reciprocal of x^2 + x + 2, is skipped; the
        # first cubic is x^3 + 2x + 1.  F_7: 1/2 = 4 and 1/3 = 5 are skipped
        from isodet.decide import _pencil_points

        points = _pencil_points(GF(p))
        got = [(g.coeffs, w, usable) for (g, w, usable), _ in zip(points, expected)]
        assert got == expected

    def test_extension_degrees_add_up(self):
        # a zero pencil at n = 8 over F_3: the zeros at 0, 1 and -1 weigh 4,
        # so the proof needs x^2 + 1 (2) and x^2 + x + 2 with its reciprocal (4)
        f = GF(3)
        M = direct_sum([jordan(1, 0, f), Matrix.identity(f, 7)])
        rep = decide_gamma_shift(M)
        assert not rep.all_det_one and rep.rank_sequence == ()


class TestCertificates:
    def test_diag_certificate(self):
        M = direct_sum([jordan(1, 0), symplectic_unit(1)])
        reg = regularize(M)
        cert = certificate_singular(M, reg)
        assert verify_certificate(M, cert)

    def test_no_odd_block(self):
        M = jordan(2, 0)
        with pytest.raises(NoOddBlockError):
            certificate_singular(M, regularize(M))

    def test_singular_transform_names_stage(self):
        M = direct_sum([jordan(1, 0), symplectic_unit(1)])
        reg = regularize(M)
        bad = RegularizationResult(Matrix.zeros(QQ, 3, 3), reg.regular_part, reg.singular_sizes)
        with pytest.raises(SingularMatrixError, match="^certificate_singular: singular 3x3 matrix$"):
            certificate_singular(M, bad)

    def test_verify_field_mismatch(self):
        # -1 over F_3 and over Q: each is a certificate only over its own field
        assert verify_certificate(Matrix(GF(3), [[0]]), Matrix(GF(3), [[2]]))
        assert not verify_certificate(Matrix(GF(3), [[0]]), mat([[-1]]))
        assert not verify_certificate(mat([[0]]), Matrix(GF(3), [[2]]))

    def test_verify_examples(self):
        assert verify_certificate(mat([[0]]), mat([[-1]]))
        Z2 = symplectic_unit(1)
        assert not verify_certificate(Z2, mat([[1, 0], [0, -1]]))
        assert verify_certificate(Matrix.identity(QQ, 2), mat([[1, 0], [0, -1]]))

    def test_verify_involutions_and_others_over_q(self):
        # over Q an involution's determinant is read off its trace, any
        # other isometry's from det
        I3 = Matrix.identity(QQ, 3)
        quarter_turn = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        S = mat(quarter_turn) * mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        assert S * S != I3 and verify_certificate(I3, S)
        assert not verify_certificate(I3, mat(quarter_turn))
        # an involutory isometry with determinant 1: -1 on a plane
        assert not verify_certificate(I3, mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]))
        # an involution with determinant -1 that is no isometry
        assert not verify_certificate(mat([[0, 1], [0, 0]]), mat([[-1, 0], [0, 1]]))

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=repr)
    @pytest.mark.parametrize("spec", ["J2+J3+G2", "J4+J2+J5+G1", "J2+J3+J1+G2", "J3+J3+J1+Z1"])
    def test_matches_conjugated_sign_flip(self, field, spec):
        # the certificate is S D S^{-1}, D = -1 on the first odd singular
        # block of S^T M S and 1 elsewhere; the reference uses inverse(S)
        M = known_sum(spec, field, seed=spec)[0]
        reg = regularize(M)
        sizes = reg.singular_sizes
        first = next(i for i, s in enumerate(sizes) if s % 2)
        start = reg.regular_part.nrows + sum(sizes[:first])
        block = range(start, start + sizes[first])
        n = M.nrows
        D = Matrix(field, [[(-1 if i in block else 1) if i == j else 0 for j in range(n)]
                           for i in range(n)])
        S = reg.transform
        cert = certificate_singular(M, reg)
        assert cert == S * D * inverse(S)
        assert verify_certificate(M, cert)

    def test_certificates_on_random_odd_singular(self):
        rng = random.Random(13)
        for _ in range(30):
            parts = rng.choice([
                [jordan(1, 0), symplectic_unit(1)],
                [jordan(3, 0), mat([[1]])],
                [jordan(3, 0), jordan(1, 0)],
                [jordan(1, 0), gamma(2)],
            ])
            M0 = direct_sum(parts)
            T = random_nonsingular(rng, M0.nrows)
            M = T.transpose() * M0 * T
            rep = decide(M)
            assert not rep.all_det_one
            assert rep.certificate is not None
            assert verify_certificate(M, rep.certificate)


class TestStructuralProperties:
    def test_odd_dimension_never_member(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.choice([1, 3, 5])
            M = random_rational(rng, n, 4)
            assert not decide(M).all_det_one

    def test_two_by_two_iff_nonsymmetric(self):
        rng = random.Random(19)
        for _ in range(120):
            M = random_rational(rng, 2, 2)
            assert decide(M).all_det_one == (M != M.transpose())

    def test_congruence_invariance(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.choice([2, 3, 4, 5])
            M = random_rational(rng, n, 3)
            T = random_nonsingular(rng, n)
            assert decide(M).all_det_one == decide(T.transpose() * M * T).all_det_one

    @pytest.mark.parametrize("r", range(1, 7))
    def test_gamma_blocks(self, r):
        assert decide(gamma(r)).all_det_one == (r % 2 == 0)

    @pytest.mark.parametrize("s", range(1, 7))
    def test_nilpotent_blocks(self, s):
        assert decide(jordan(s, 0)).all_det_one == (s % 2 == 0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_symplectic_units(self, m):
        assert decide(symplectic_unit(m)).all_det_one

    def test_skew_sum_blocks(self):
        # [Phi (skew) I] is a member unless its cosquare Phi + Phi^{-T} has
        # odd unipotent blocks, which happens exactly for x - 1 at odd powers
        # (skew_sum(companion(x-1), I_1) is symmetric 2x2, hence refused).
        polys = [Poly(QQ, [-1, 1]), Poly(QQ, [1, 1]), Poly(QQ, [1, 0, 1])]
        for p in polys:
            for l in (1, 2, 3, 4):
                m = p.degree * l
                if 2 * m > 8:
                    continue
                Phi = frobenius(p, l)
                M = skew_sum(Phi, Matrix.identity(QQ, m))
                expected = not (p == Poly(QQ, [-1, 1]) and l % 2 == 1)
                assert decide(M).all_det_one == expected

    def test_pencil_singular_iff_odd_block(self):
        # det(M^T + t M) vanishes identically exactly when the singular part
        # carries an odd block; ties the two decision routes structurally
        from isodet import det_poly

        rng = random.Random(53)
        for _ in range(120):
            n = rng.choice([2, 3, 4])
            M = random_rational(rng, n, 3)
            if rng.random() < 0.5:
                k = rng.randrange(1, n)
                A = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)])
                B = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)])
                M = A * B
            zero = det_poly(M.transpose(), M).is_zero()
            odd = any(s % 2 == 1 for s in regularize(M).singular_sizes)
            assert zero == odd

    def test_verdict_matches_block_data(self):
        rng = random.Random(37)
        for _ in range(80):
            n = rng.choice([2, 3, 4])
            M = random_rational(rng, n, 3)
            rep = decide(M)
            bad = any(s % 2 == 1 for s in rep.singular_sizes) or any(
                c > 0 for c in rep.odd_block_counts
            )
            assert rep.all_det_one == (not bad)
            assert all(c >= 0 for c in rep.odd_block_counts)
            assert all(rep.rank_sequence[k] >= rep.rank_sequence[k + 1]
                       for k in range(len(rep.rank_sequence) - 1))
