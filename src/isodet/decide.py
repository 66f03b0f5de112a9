"""Decide whether every isometry of the bilinear form given by M has
determinant one.

Two independent decision paths are provided:

* `decide` follows the regularization route: split off the singular Jordan
  blocks (odd sizes refute membership and yield a determinant -1 isometry
  as a certificate) and count odd unipotent blocks of the cosquare of the
  regular part via rank sequences.
* `decide_gamma_shift` is the cross-check: it evaluates the pencil
  determinant D(t) = det(M^T + t*M) at points, one elimination each, until
  a nonzero value gives the shift gamma or enough zeros prove D = 0;
  it then reads the same block counts off the shifted pencil.  Over a small
  F_p the points run on into F_{p^k}, realised as F_p matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count, product

from .blocks import PolySpec, frobenius, reciprocal
from .exactmat import (
    Field,
    Matrix,
    Poly,
    SingularMatrixError,
    det,
    full_rank,
    inverse_times,
    kron,
    power_rank_sequence,
    rank,
)
from .regularize import RegularizationResult, regularize


class Method(Enum):
    REGULARIZE = "regularize"
    GAMMA_SHIFT = "gamma-shift"


class NoOddBlockError(ValueError):
    """Certificate requested but every singular block has even size."""


@dataclass(frozen=True)
class DecisionReport:
    """Verdict plus every invariant the decision touched.

    `all_det_one` is True exactly when every isometry of the form has
    determinant one.  `odd_block_counts[k]` counts Jordan blocks of size
    2k+1 and eigenvalue 1 in the cosquare of the regular part; a nonzero
    entry or an odd singular size refutes membership.  The gamma route does
    not compute the singular sizes and reports None for them.

    The gamma route shifts by `gamma_used` when it is a field element, and
    otherwise by x mod g in F_p[x]/(g), with `gamma_modulus` the ascending
    coefficients of the monic irreducible g.  `regularization` is the
    regularization route's own result, kept for callers and left out of
    comparisons.
    """

    all_det_one: bool
    method: Method
    singular_sizes: tuple[int, ...] | None
    rank_sequence: tuple[int, ...]
    odd_block_counts: tuple[int, ...]
    gamma_used: object | None = None
    gamma_modulus: tuple | None = None
    certificate: Matrix | None = None
    regularization: RegularizationResult | None = field(default=None, compare=False, repr=False)


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
    if B.nrows == 0:
        return (0,), ()
    BT = B.transpose()
    # B^{-T}(B - B^T) = B^{-T}B - I: no inverse, no cosquare product
    return _count_step(BT, B - BT, 1, "odd_unipotent_counts")


def _count_step(A: Matrix, C: Matrix, k: int, stage: str):
    """The rank sequence of P = A^{-1} C, each rank divided by k, and its
    counts c_0 .. c_{(n-1)//2} for n = size/k; A must be nonsingular.

    rank P = rank C, so a nonsingular C gives the constant sequence and no
    counts, after a full-rank check of A.  Otherwise P is read off one
    reduced elimination of [A | C], which also shows whether A is
    nonsingular."""
    m = A.nrows
    n = m // k
    if full_rank(C):
        if not full_rank(A):
            raise SingularMatrixError(f"{stage}: singular {m}x{m} matrix")
        r = [n] * (n + 2)
    else:
        P = inverse_times(A, C, stage)
        r = [x // k for x in power_rank_sequence(P)[: n + 2]]
    # r holds r_0 .. r_{n+1}, enough for every count
    return tuple(r), tuple(r[2 * j] - 2 * r[2 * j + 1] + r[2 * j + 2] for j in range((n + 1) // 2))


def certificate_singular(M: Matrix, reg: RegularizationResult) -> Matrix:
    """An isometry of M with determinant -1, built from the first odd
    singular block: flip signs on that block's coordinates and conjugate
    back through the regularizing transform."""
    f = M.field
    n = M.nrows
    offset = reg.regular_part.nrows
    for s in reg.singular_sizes:
        if s % 2 == 1:
            start, width = offset, s
            break
        offset += s
    else:
        raise NoOddBlockError("no odd singular block to build a certificate from")
    # S D S^{-1} with D = I - 2 E E^T, E the block's columns of I, is
    # I + (S E)(-2 E^T S^{-1}), and -2 E^T S^{-1} = W^T for the solution W
    # of S^T W = -2 E: one solve with a column per coordinate of the block
    S = reg.transform
    block = range(start, start + width)
    identity = Matrix.identity(f, n)
    W = inverse_times(S.transpose(), identity.submatrix(range(n), block).scale(-2),
                      "certificate_singular")
    return S.submatrix(range(n), block) * W.transpose() + identity


def verify_certificate(M: Matrix, S: Matrix) -> bool:
    """True iff S is an isometry of M with determinant -1 (so nonsingular).

    Over Q an involution S (S·S = I, as every certificate of
    `certificate_singular` is) has eigenvalues ±1, with -1 of multiplicity
    (n - tr S)/2, so det S = -1 iff that is odd; other S take `det`.  Over
    F_p the trace is known only mod p, so `det` decides there."""
    if not (M.is_square and S.is_square) or M.nrows != S.nrows or M.field != S.field:
        return False
    if S.transpose() * M * S != M:
        return False
    n = S.nrows
    if M.field.is_rational and S * S == Matrix.identity(M.field, n):
        return (n - sum(S[i, i] for i in range(n))) % 4 == 2
    return det(S) == M.field.convert(-1)


def decide(M: Matrix) -> DecisionReport:
    """Full decision via the regularization route.  The report carries the
    singular sizes, the rank sequence and the odd-block counts; a refusal is
    checked against the theorem that a nonsingular M - M^T forces membership.
    """
    if not M.is_square:
        raise ValueError("square matrix required")
    n = M.nrows
    reg = regularize(M)
    sizes = reg.singular_sizes
    odd_singular = any(s % 2 == 1 for s in sizes)
    # padding is exact: c_k = 0 once 2k+1 exceeds the regular part's size
    r_seq, counts = odd_unipotent_counts(reg.regular_part)
    counts += (0,) * ((n + 1) // 2 - len(counts))
    ok = not odd_singular and all(c == 0 for c in counts)

    if not ok and skew_fast_path(M):
        raise AssertionError("nonsingular M - M^T forces membership; the block counts refute it")

    return DecisionReport(
        all_det_one=ok,
        method=Method.REGULARIZE,
        singular_sizes=sizes,
        rank_sequence=r_seq,
        odd_block_counts=counts,
        certificate=certificate_singular(M, reg) if odd_singular else None,
        regularization=reg,
    )


def _irreducibles(f: Field):
    """Monic irreducible polynomials: x - 0, x - 1, x - 2, ... over Q; over
    F_p the p linear ones by constant, then degree 2, 3, ..., each degree in
    lexicographic order of its coefficients from the top."""
    if f.is_rational:
        for a in count():
            yield Poly(f, [-a, 1])
    p = f.p
    found = []
    for a in range(p):  # built as they are asked for: p may be large
        found.append(Poly(f, [-a, 1]))
        yield found[-1]
    for k in count(2):
        for top in product(range(p), repeat=k):
            g = Poly(f, top[::-1] + (1,))
            if not any(divmod(g, h)[1].is_zero() for h in found if 2 * h.degree <= k):
                found.append(g)
                yield g


def _pencil_points(f: Field):
    """The g of `_irreducibles` at whose x mod g the gamma route evaluates
    D(t) = det(M^T + t*M), each with the degree of the factor of D that a
    zero there proves, and whether the point may serve as the shift (not
    -1, since 1 + gamma must be invertible).

    D(t) = t^n D(1/t), so a zero at alpha != 0 brings one at 1/alpha: g | D
    implies g* | D for the reciprocal g*, and t | D forces deg D < n (a zero
    at infinity).  A point whose reciprocal came earlier is skipped: D
    vanishes there too, and that factor is counted already.
    """
    minus_one = Poly(f, [1, 1])
    seen = set()
    for g in _irreducibles(f):
        if f.is_zero(g.constant()):
            weight = 2
        else:
            r = reciprocal(g)
            if r.coeffs in seen:
                continue
            weight = g.degree if r == g else 2 * g.degree
        seen.add(g.coeffs)
        yield g, weight, g != minus_one


def decide_gamma_shift(M: Matrix) -> DecisionReport:
    """Independent decision via the pencil (M^T, M).

    D(t) = det(M^T + t*M) has degree at most n, and it vanishes identically
    exactly when an odd singular block exists, which refutes membership.
    The route evaluates D at x mod g for the monic irreducible g of
    `_pencil_points`: over F_{p^k} = F_p[x]/(g) the matrix M^T + alpha*M is
    realised as the nk x nk F_p matrix M^T ⊗ I_k + M ⊗ C_g (C_g the
    companion matrix of g), whose F_p-rank is k times its rank over
    F_{p^k}.  A singular value means g divides D; the factors so found are
    coprime, so once their degrees (the weights of `_pencil_points`) add up
    to more than n, D = 0.  The first usable nonsingular point is the shift
    gamma: N := (M^T + gamma*M)^{-1} M is then well defined, and odd
    unipotent blocks of the cosquare of the regular part reappear as odd
    Jordan blocks of N at eigenvalue mu = (1+gamma)^{-1}, so the rank
    sequence of N - mu*I (divided by k) gives the same counts.  It is read
    off (M^T + gamma*M)^{-1} (M - M^T) = (1+gamma)(N - mu*I), which has the
    same ranks, by `_count_step`.
    """
    if not M.is_square:
        raise ValueError("square matrix required")
    f = M.field
    n = M.nrows
    if n == 0:
        return DecisionReport(True, Method.GAMMA_SHIFT, None, (), ())
    MT = M.transpose()
    lifted = None  # M^T ⊗ I_k, built once per degree: points come in increasing degree
    roots = 0  # weights of the zeros found; D = 0 once they exceed n
    for g, weight, usable in _pencil_points(f):
        k = g.degree
        if lifted is None or lifted.nrows != n * k:
            lifted = kron(MT, Matrix.identity(f, k))
        C = frobenius(PolySpec(g, 1))
        shifted = lifted + kron(M, C)  # M^T + alpha*M
        # after a zero D may vanish identically, and then an image mod p
        # would come out deficient at every later point: those take rank
        if (rank(shifted) < n * k) if roots else not full_rank(shifted):
            roots += weight
            if roots > n:
                return DecisionReport(False, Method.GAMMA_SHIFT, None, (), ())
        elif usable:
            break
    rhs = kron(M - MT, Matrix.identity(f, k))
    r, counts = _count_step(shifted, rhs, k, "decide_gamma_shift")
    return DecisionReport(
        all_det_one=all(c == 0 for c in counts),
        method=Method.GAMMA_SHIFT,
        singular_sizes=None,
        rank_sequence=r,
        odd_block_counts=counts,
        gamma_used=C[0, 0] if k == 1 else None,
        gamma_modulus=g.coeffs if k > 1 else None,
    )
