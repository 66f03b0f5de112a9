"""Acceptance suite.  Each criterion prints one PASS line when it holds;
run with `pytest tests/test_acceptance.py -s` to see them.

The exhaustive sets (all of M_2(F_3), M_3(F_3), M_2(F_5), with their decide
reports and oracle verdicts) are computed once per module and shared across
criteria.
"""

import random

import pytest

from isodet import (
    GF,
    QQ,
    Matrix,
    Poly,
    decide,
    decide_gamma_shift,
    enumerate_isometries,
    frobenius,
    gamma,
    inverse,
    jordan,
    power_rank_sequence,
    rank,
    regularize,
    symplectic_unit,
    verify_certificate,
    verify_congruence,
)
from helpers import all_matrices, cosquare_root, random_nonsingular, random_rational


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def exhaustive_sets():
    """decide reports and oracle verdicts for every matrix of the three
    exhaustive families."""
    return {(n, p): [(M, decide(M), enumerate_isometries(M).all_det_one) for M in all_matrices(n, p)]
            for n, p in ((2, 3), (3, 3), (2, 5))}


def test_criterion_1_oracle_equivalence(exhaustive_sets):
    total = 0
    for (n, p), entries in exhaustive_sets.items():
        for M, rep, oracle in entries:
            assert rep.all_det_one == oracle, (n, p, M.to_lists())
            total += 1
    assert total == 81 + 19683 + 625
    _ok(1, f"decide agrees with the brute-force oracle on all {total} matrices "
           "of M_2(F_3), M_3(F_3), M_2(F_5)")


def test_criterion_2_method_equivalence(exhaustive_sets):
    checked = 0
    for (n, p), entries in exhaustive_sets.items():
        for M, rep, _ in entries:
            assert decide_gamma_shift(M).all_det_one == rep.all_det_one
            checked += 1
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 5)
        M = random_rational(rng, n, 5)
        assert decide(M).all_det_one == decide_gamma_shift(M).all_det_one
        checked += 1
    _ok(2, f"regularization and gamma-shift verdicts agree on {checked} inputs "
           "(exhaustive finite-field sets plus 500 random rational matrices)")


def test_criterion_3_congruence_invariance():
    rng = random.Random(515)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = random_rational(rng, n, 5)
        T = random_nonsingular(rng, n)
        assert decide(M).all_det_one == decide(T.transpose() * M * T).all_det_one
    _ok(3, "verdicts invariant under 200 random rational congruences, n <= 5")


def test_criterion_4_canonical_blocks():
    for r in range(1, 7):
        assert decide(gamma(r)).all_det_one == (r % 2 == 0)
        assert decide(jordan(r, 0)).all_det_one == (r % 2 == 0)
    for m in (1, 2, 3):
        assert decide(symplectic_unit(m)).all_det_one
    _ok(4, "anti-triangular and nilpotent blocks refuted exactly at odd sizes "
           "(r, s = 1..6); symplectic units accepted (m = 1..3)")


def test_criterion_5_small_dimension_laws(exhaustive_sets):
    for M, rep, _ in exhaustive_sets[(3, 3)]:
        assert not rep.all_det_one
    for key in ((2, 3), (2, 5)):
        for M, rep, _ in exhaustive_sets[key]:
            assert rep.all_det_one == (M != M.transpose())
    _ok(5, "every odd-dimensional form refused (all of M_3(F_3)); in dimension "
           "2 membership is exactly non-symmetry (M_2(F_3) and M_2(F_5))")


def test_criterion_6_regularization_soundness(exhaustive_sets):
    rng = random.Random(66)
    count = 0

    def check(M):
        nonlocal count
        res = regularize(M)
        assert verify_congruence(res.transform, M, res.canonical())
        assert rank(res.regular_part) == res.regular_part.nrows
        assert res.regular_part.nrows + sum(res.singular_sizes) == M.nrows
        assert list(res.singular_sizes) == sorted(res.singular_sizes)
        count += 1

    for key in ((2, 3), (2, 5)):
        for M, _, _ in exhaustive_sets[key]:
            check(M)
    for idx, (M, _, _) in enumerate(exhaustive_sets[(3, 3)]):
        if idx % 11 == 0:
            check(M)
    for _ in range(150):
        check(random_rational(rng, rng.randint(1, 5), 4))
    _ok(6, f"S^T M S = B + nilpotent blocks holds exactly with B nonsingular and "
           f"matching size accounting on {count} inputs (also asserted inside "
           "regularize on every call in this suite)")


def test_criterion_7_certificate_soundness(exhaustive_sets):
    emitted = 0
    for entries in exhaustive_sets.values():
        for M, rep, _ in entries:
            odd_singular = any(s % 2 == 1 for s in rep.singular_sizes)
            if odd_singular:
                assert rep.certificate is not None
                assert verify_certificate(M, rep.certificate)
                emitted += 1
            if rep.certificate is not None:
                assert verify_certificate(M, rep.certificate)
    assert emitted > 0
    _ok(7, f"every refusal caused by an odd singular block carries a verified "
           f"determinant -1 isometry ({emitted} certificates on the exhaustive sets)")


def test_criterion_8_gamma_cosquare_chains():
    for r in range(1, 9):
        G = gamma(r)
        eig = 1 if r % 2 == 1 else -1
        cosq = inverse(G.transpose()) * G
        shifted = cosq - Matrix.identity(QQ, r).scale(eig)
        assert power_rank_sequence(shifted) == [*range(r, -1, -1), 0]
    _ok(8, "gamma(r) cosquares have rank sequence [r, r-1, ..., 0] at "
           "eigenvalue (-1)^(r+1) for r = 1..8")


def test_criterion_9_symplectic_determinants():
    s2 = enumerate_isometries(symplectic_unit(1, GF(3)))
    assert s2.group_order == 24 and s2.all_det_one
    s4 = enumerate_isometries(symplectic_unit(2, GF(3)))
    assert s4.group_order == 51840 and s4.all_det_one
    _ok(9, "exhaustive enumeration over F_3: isometry groups of the symplectic "
           "units have orders 24 and 51840 with every determinant equal to 1")


def test_criterion_10_odd_cosquare_blocks_over_f5():
    f = GF(5)
    irreducibles = [Poly(f, [c, 1]) for c in range(5)]
    for b in range(5):
        for c in range(5):
            p = Poly(f, [c, b, 1])
            if all(p.eval(x) != 0 for x in range(5)):
                irreducibles.append(p)
    assert len(irreducibles) == 15
    x_minus_one = Poly(f, [f.convert(-1), 1])
    hits = []
    for p in irreducibles:
        for l in (1, 2):
            if (p.degree * l) % 2 == 0:
                continue
            if cosquare_root(frobenius(p, l)) is not None:
                hits.append(p)
                assert p == x_minus_one
    assert hits == [x_minus_one]
    _ok(10, "over F_5, among all 15 monic irreducibles of degree <= 2 with "
            "l <= 2 and odd block size, only x - 1 yields a cosquare block")
