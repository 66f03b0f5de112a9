"""Decide whether every isometry of the bilinear form given by M has
determinant one.

Two independent decision paths are provided:

* `decide` follows the regularization route: a fast accept when M - M^T is
  nonsingular, otherwise split off the singular Jordan blocks (odd sizes
  refute membership and yield a determinant -1 isometry as a certificate)
  and count odd unipotent blocks of the cosquare of the regular part via
  rank sequences.
* `decide_gamma_shift` is the cross-check: it tests the pencil (M^T, M) for
  singularity and otherwise reads the same block counts off a shifted
  inverse, picking gamma with det(M^T + gamma*M) != 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .exactmat import Matrix, det, det_poly, inverse, power_rank_sequence, rank
from .regularize import RegularizationResult, regularize


class Method(Enum):
    SKEW_FAST_PATH = "skew-fast-path"
    REGULARIZE = "regularize"
    GAMMA_SHIFT = "gamma-shift"


class GammaExhaustedError(RuntimeError):
    """No usable shift parameter exists in a small finite field."""


class NoOddBlockError(ValueError):
    """Certificate requested but every singular block has even size."""


@dataclass(frozen=True)
class DecisionReport:
    """Verdict plus every invariant the decision touched.

    `all_det_one` is True exactly when every isometry of the form has
    determinant one.  `odd_block_counts[k]` counts Jordan blocks of size
    2k+1 and eigenvalue 1 in the cosquare of the regular part; a nonzero
    entry or an odd singular size refutes membership.
    """

    all_det_one: bool
    method: Method
    singular_sizes: tuple[int, ...]
    rank_sequence: tuple[int, ...]
    odd_block_counts: tuple[int, ...]
    gamma_used: object | None = None
    certificate: Matrix | None = None


def skew_fast_path(M: Matrix) -> bool:
    """True when M - M^T is nonsingular, which already forces membership."""
    if not M.is_square:
        raise ValueError("square matrix required")
    return rank(M - M.transpose()) == M.nrows


def odd_unipotent_counts(B: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rank sequence r_k = rank((B^{-T}B - I)^k) and the counts
    c_k = r_{2k} - 2 r_{2k+1} + r_{2k+2} of size-(2k+1) unipotent Jordan
    blocks of the cosquare.  B must be nonsingular (0x0 allowed)."""
    if not B.is_square:
        raise ValueError("square matrix required")
    f = B.field
    b = B.nrows
    if b == 0:
        return (0,), ()
    cosquare = inverse(B.transpose()) * B
    r = power_rank_sequence(cosquare, f.one(), b + 1)
    return tuple(r), _block_counts(r, (b - 1) // 2)


def _block_counts(r: list[int], kmax: int) -> tuple[int, ...]:
    """c_k = r_{2k} - 2 r_{2k+1} + r_{2k+2} for k = 0..kmax, with r padded
    by its last (stable) value."""
    padded = list(r) + [r[-1]] * (2 * kmax + 3 - len(r))
    return tuple(padded[2 * k] - 2 * padded[2 * k + 1] + padded[2 * k + 2] for k in range(kmax + 1))


def certificate_singular(M: Matrix, reg: RegularizationResult) -> Matrix:
    """An isometry of M with determinant -1, built from the first odd
    singular block: flip signs on that block's coordinates and conjugate
    back through the regularizing transform."""
    f = M.field
    n = M.nrows
    sizes = reg.singular_sizes
    b = reg.regular_part.nrows
    offset = b
    start = None
    for s in sizes:
        if s % 2 == 1:
            start, width = offset, s
            break
        offset += s
    else:
        raise NoOddBlockError("no odd singular block to build a certificate from")
    diag = []
    for i in range(n):
        one = f.one()
        diag.append(f.neg(one) if start <= i < start + width else one)
    D = Matrix(f, [[diag[i] if i == j else f.zero() for j in range(n)] for i in range(n)])
    S = reg.transform
    return S * D * inverse(S)


def verify_certificate(M: Matrix, S: Matrix) -> bool:
    """True iff S is an isometry of M with determinant -1 (so nonsingular)."""
    if not (M.is_square and S.is_square) or M.nrows != S.nrows:
        return False
    if S.transpose() * M * S != M:
        return False
    return det(S) == M.field.convert(-1)


def decide(M: Matrix, use_fast_path: bool = True) -> DecisionReport:
    """Full decision via the regularization route.

    The skew fast path only selects the reported method; the report always
    carries the regularization invariants, which are cheap at this scale
    and let callers see the singular sizes and block counts in every case.
    """
    if not M.is_square:
        raise ValueError("square matrix required")
    n = M.nrows
    fast = n == 0 or (use_fast_path and skew_fast_path(M))

    reg = regularize(M)
    sizes = reg.singular_sizes
    odd_singular = any(s % 2 == 1 for s in sizes)
    # padding is exact: c_k = 0 once 2k+1 exceeds the regular part's size
    r_seq, _ = odd_unipotent_counts(reg.regular_part)
    counts = _block_counts(r_seq, (n - 1) // 2)
    ok = not odd_singular and all(c == 0 for c in counts)

    if fast and not ok:
        raise AssertionError("skew fast path contradicts the block counts")

    certificate = None
    if odd_singular:
        certificate = certificate_singular(M, reg)

    return DecisionReport(
        all_det_one=ok,
        method=Method.SKEW_FAST_PATH if fast else Method.REGULARIZE,
        singular_sizes=sizes,
        rank_sequence=r_seq,
        odd_block_counts=counts,
        certificate=certificate,
    )


def _gamma_candidates(f, n: int):
    if f.is_rational:
        # at most n values can make det(M^T + gamma*M) vanish
        for k in range(n + 2):
            yield f.convert(k)
    else:
        minus_one = f.neg(f.one())
        for k in range(f.p):
            g = f.convert(k)
            if g != minus_one:
                yield g


def decide_gamma_shift(M: Matrix) -> DecisionReport:
    """Independent decision via the pencil (M^T, M).

    A vanishing pencil determinant means an odd singular block exists and
    membership fails outright.  Otherwise pick gamma != -1 making
    N := (M^T + gamma*M)^{-1} M well defined; odd unipotent blocks of the
    cosquare of the regular part reappear as odd Jordan blocks of N at
    eigenvalue (1+gamma)^{-1}, so the same rank-sequence count applies.
    """
    if not M.is_square:
        raise ValueError("square matrix required")
    f = M.field
    n = M.nrows
    if n == 0:
        return DecisionReport(True, Method.GAMMA_SHIFT, (), (), ())
    MT = M.transpose()
    pencil = det_poly(MT, M)
    if pencil.is_zero():
        return DecisionReport(False, Method.GAMMA_SHIFT, (), (), ())
    gamma = None
    for g in _gamma_candidates(f, n):
        if not f.is_zero(pencil.eval(g)):
            gamma = g
            break
    if gamma is None:
        raise GammaExhaustedError(
            f"every usable shift in {f!r} makes the pencil singular"
        )
    N = inverse(MT + M.scale(gamma)) * M
    mu = f.inv(f.add(f.one(), gamma))
    r = power_rank_sequence(N, mu, n + 1)
    counts = _block_counts(r, (n - 1) // 2)
    ok = all(c == 0 for c in counts)
    return DecisionReport(
        all_det_one=ok,
        method=Method.GAMMA_SHIFT,
        singular_sizes=(),
        rank_sequence=tuple(r),
        odd_block_counts=counts,
        gamma_used=gamma,
    )
