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

from .blocks import frobenius, reciprocal
from .exactmat import (
    Field,
    Matrix,
    Poly,
    SingularMatrixError,
    det,
    full_rank,
    kron,
    pencil_rank_sequence,
    rank,
    vstack,
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
    blocks of the cosquare, by `_count_step` on the pencil (B^T, B - B^T).
    B must be nonsingular (0x0 allowed); `full_rank` proves it."""
    if not B.is_square:
        raise ValueError("square matrix required")
    if not full_rank(B):
        raise SingularMatrixError(f"odd_unipotent_counts: singular {B.nrows}x{B.nrows} matrix")
    BT = B.transpose()
    return _count_step(BT, B - BT, 1)


def _count_step(A: Matrix, C: Matrix, k: int):
    """The rank sequence of P = A^{-1} C, each rank divided by k, and its
    counts c_0 .. c_{(n-1)//2} for n = size/k; ((0,), ()) for n = 0.  A
    must be proven nonsingular by the caller; `pencil_rank_sequence` reads
    the ranks off the Wong sequence of the pencil (A, C), with no inverse
    and no power of P.  With A = B^T and C = B - B^T, P = B^{-T}B - I."""
    n = A.nrows // k
    if n == 0:
        return (0,), ()
    r = [x // k for x in pencil_rank_sequence(A, C)[: n + 2]]
    # r holds r_0 .. r_{n+1}, enough for every count
    return tuple(r), tuple(r[2 * j] - 2 * r[2 * j + 1] + r[2 * j + 2] for j in range((n + 1) // 2))


def certificate_singular(M: Matrix, reg: RegularizationResult) -> Matrix:
    """An isometry of M with determinant -1, built from the first odd
    singular block: flip signs on that block's coordinates and conjugate
    back through the regularizing transform, by products alone.

    With S the transform, U its s columns u_0 .. u_{s-1} for the block and
    Phi the matching s rows of S^{-1}, the certificate is S D S^{-1} for D
    the sign flip on the block, that is R = I - 2 U Phi.  D is an isometry
    of N = S^T M S with det D = (-1)^s = -1, so R is one of M with
    determinant -1.  Phi needs no elimination: M S = S^{-T} N and
    M^T S = S^{-T} N^T, and the block of N is J_s(0), ones on the
    subdiagonal, so for s >= 3 row t of Phi is u_{t+1}^T M for t < s - 1
    and the last row is (M u_{s-2})^T.  For s = 1, M u = M^T u = 0, so
    R = I - 2 u Phi is an isometry with det R = 1 - 2 Phi u = -1 for every
    row Phi with Phi u = 1.  e_j^T / u_j, j the last nonzero coordinate of
    u, is one; for `regularize`'s transforms it is the row of S^{-1}, as
    their other columns vanish on j.  A transform with Phi U != I, which no
    verified congruence gives, is refused as singular.
    """
    f = M.field
    n = M.nrows
    offset = reg.regular_part.nrows
    for s in reg.singular_sizes:
        if s % 2 == 1:
            break
        offset += s
    else:
        raise NoOddBlockError("no odd singular block to build a certificate from")
    U = reg.transform.submatrix(range(n), range(offset, offset + s))
    if s == 1:
        u = U.col(0)
        last = max((i for i in range(n) if u[i]), default=0)  # u = 0 leaves Phi = 0
        Phi = Matrix.identity(f, n).submatrix([last], range(n)).scale(
            f.inv(u[last]) if u[last] else 0)
    else:
        Phi = vstack(U.submatrix(range(n), range(1, s)).transpose() * M,
                     (M * U.submatrix(range(n), [s - 2])).transpose())
    if Phi * U != Matrix.identity(f, s):
        raise SingularMatrixError(f"certificate_singular: singular {n}x{n} matrix")
    return U * Phi.scale(-2) + Matrix.identity(f, n)


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
    # regularize has proven B nonsingular; padding is exact: c_k = 0 once
    # 2k+1 exceeds the regular part's size
    B = reg.regular_part
    BT = B.transpose()
    r_seq, counts = _count_step(BT, B - BT, 1)
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
    same ranks, by `_count_step`, which takes the point test's proof that
    M^T + gamma*M is nonsingular.
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
        C = frobenius(g)
        shifted = lifted + kron(M, C)  # M^T + alpha*M
        # after a zero D may vanish identically, and then an image mod p
        # would come out deficient at every later point: those take rank
        if (rank(shifted) < n * k) if roots else not full_rank(shifted):
            roots += weight
            if roots > n:
                return DecisionReport(False, Method.GAMMA_SHIFT, None, (), ())
        elif usable:
            break
    # the point test has proven shifted nonsingular
    r, counts = _count_step(shifted, kron(M - MT, Matrix.identity(f, k)), k)
    return DecisionReport(
        all_det_one=all(c == 0 for c in counts),
        method=Method.GAMMA_SHIFT,
        singular_sizes=None,
        rank_sequence=r,
        odd_block_counts=counts,
        gamma_used=C[0, 0] if k == 1 else None,
        gamma_modulus=g.coeffs if k > 1 else None,
    )
