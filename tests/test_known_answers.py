"""Known answers beyond the exhaustive sizes: scrambled direct sums of
J_s(0), Gamma_r and Z_m (`helpers.known_sum`) at n = 12..48 over Q, F_3,
F_7 and F_10007.  The singular sizes, the odd-block counts, the verdict and
whether a certificate exists all follow from the summands, so both routes
are checked against answers computed without them.  At n = 5..6 over F_3
the oracle's search still finishes, and its isometry group is a third
check of the verdict."""

import pytest

from isodet import (GF, QQ, decide, decide_gamma_shift, enumerate_isometries, exactmat,
                    verify_certificate)

from helpers import known_sum

CASES = [
    (QQ, "J3+J2+G5+Z1"),                  # n = 12
    (QQ, "J4+J2+G6+G2+Z2"),               # n = 18, accepted
    (QQ, "J5+J2+J2+G6+G3+Z3"),            # n = 24
    (QQ, "J5+J2+G9+G7+Z4"),               # n = 31
    (QQ, "J4+J2+G10+G6+Z5"),              # n = 32, accepted
    (QQ, "J5+J2+G11+G9+G7+Z7"),           # n = 48
    (QQ, "J4+J2+G12+G8+Z11"),             # n = 48, accepted
    (GF(10007), "J2+J2+G3+G3+Z1"),        # n = 12
    (GF(10007), "J6+J3+G9+Z3"),           # n = 24
    (GF(10007), "J4+J4+J1+G11+G5+G3+Z4"),  # n = 36
    (GF(10007), "J7+J2+G13+G9+G1+Z8"),    # n = 48
    (GF(3), "J3+J2+G5+Z1"),               # n = 12
    (GF(3), "J4+J2+G7+G7+Z2"),            # n = 24
    (GF(3), "J5+J2+G11+G9+Z4"),           # n = 35
    (GF(3), "J4+J2+G13+G9+G6+Z7"),        # n = 48
    (GF(7), "J4+G3+G1+Z2"),               # n = 12
    (GF(7), "J5+J2+G7+G6+Z2"),            # n = 24
    (GF(7), "J4+J2+G10+G6+Z7"),           # n = 36, accepted
    (GF(7), "J6+J2+G11+G10+G5+Z7"),       # n = 48
    (GF(7), "J5+J2+J1+G11+G10+G5+Z7"),    # n = 48
]


@pytest.mark.parametrize("field, spec", CASES, ids=[f"{f!r}:{s}" for f, s in CASES])
def test_known_answers(field, spec):
    M, sizes, counts, verdict = known_sum(spec, field, seed=spec)
    odd = any(s % 2 for s in sizes)
    rep = decide(M)
    assert rep.singular_sizes == sizes
    assert rep.odd_block_counts == counts
    assert rep.all_det_one is verdict
    assert (rep.certificate is not None) is odd
    assert not odd or verify_certificate(M, rep.certificate)
    gam = decide_gamma_shift(M)
    assert gam.all_det_one is verdict
    # an odd singular block makes the pencil singular, and the route stops
    # before it counts
    assert gam.odd_block_counts == (() if odd else counts)


# (spec, order of the isometry group over F_3)
ORACLE_CASES = [("G5", 18), ("J5", 18), ("J2+G3", 12), ("G4+G1", 36),  # n = 5
                ("J6", 18), ("J3+G3", 972)]                             # n = 6


@pytest.mark.parametrize("spec, order", ORACLE_CASES, ids=[s for s, _ in ORACLE_CASES])
def test_oracle_known_answers(spec, order):
    M, _, _, verdict = known_sum(spec, GF(3), seed=spec)
    summary = enumerate_isometries(M)
    # det maps the group onto {1} or onto F_3* = {1, 2}, halving it in the second case
    assert summary.det_counts == ({1: order} if verdict else {1: order // 2, 2: order // 2})
    assert summary.all_det_one is verdict
    assert decide(M).all_det_one is verdict
    assert decide_gamma_shift(M).all_det_one is verdict


@pytest.mark.parametrize("spec", ["J3+J2+G9", "G8+Z4"])  # n = 14, refused; n = 16, accepted
def test_wide_slot_routes(spec, monkeypatch):
    # over GF(2^61 - 1) a slot needs over 64 bits, so the packed kernel
    # packs and unpacks by shifts, a path the byte-aligned slots of smaller
    # p never take
    widths = set()

    def pack(row, w):
        widths.add(w)
        return real_pack(row, w)

    real_pack = exactmat._pack
    monkeypatch.setattr(exactmat, "_pack", pack)
    M, sizes, counts, verdict = known_sum(spec, GF(2 ** 61 - 1), seed=spec)
    rep = decide(M)
    assert (rep.all_det_one, rep.singular_sizes, rep.odd_block_counts) == (verdict, sizes, counts)
    assert (rep.certificate is None) is verdict
    assert verdict or verify_certificate(M, rep.certificate)
    gam = decide_gamma_shift(M)
    assert gam.all_det_one is verdict
    assert gam.odd_block_counts == (counts if verdict else ())
    assert widths and min(widths) > 64
