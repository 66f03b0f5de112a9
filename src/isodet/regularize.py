"""Congruence regularization: split a square matrix M into B + singular
Jordan blocks under an explicit congruence.

`regularize` returns S, B and the singular block sizes n_1 <= ... <= n_p with

    S^T M S = B (+) J_{n_1}(0) (+) ... (+) J_{n_p}(0),   B nonsingular,

verified before returning: S^T M S equals the right-hand side, the
canonical form of M given by `RegularizationResult.canonical()`, entry for
entry, and `full_rank` proves S and B nonsingular (over Q by one image mod
a prime when that has full rank).  When M's kernel, taken once, is empty,
that proves M nonsingular, and S = I, B = M.  The construction works over Q
and over any F_p with p odd, uses no field extensions and no randomness.

Algorithm sketch.  Vectors of the two-sided kernel of M span exactly the
1x1 singular blocks and split off against any complement.  Once those are
gone, restrict M to Y = {x : ker(M) pairs to zero with x}; this deletes the
next-to-last vector of every singular chain, so each chain reappears in the
restriction shortened by two (its last vector survives as a 1x1 block of
the restriction).  Recurse on the restriction, then rebuild: the true last
vector of each chain is the unique z with M^T z = M d and M z = 0 (d the
deepest recovered chain vector), and the missing next-to-last vector is the
solution of an explicit linear pairing system.  Finally a correction pass
absorbs the kernel components that the restricted problem cannot see.

Each step treats a set of vectors as the columns of one matrix: a lift or a
set of pairings is one product, and the last vectors of all chains come
from one solve in the coordinates of a basis K of ker M: z = K y with
M^T K y = M d, a system in q = dim ker M unknowns.  K is the only
elimination of M itself at each level: M is nonsingular iff K is empty,
and the two-sided kernel is K times the kernel of M^T K.  A chain of
length 3 starts with a head, one of the 1x1 blocks of the restriction.
The pairing systems of those chains share one coefficient matrix and
those of all other chains another, so the next-to-last vectors take two
solves, with one right-hand side per chain.
Each correction pass is one product update of all the vectors it fixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise

from .blocks import jordan
from .exactmat import Matrix, direct_sum, full_rank, hstack, nullspace, pivots, solve, vstack


class RegularizationError(AssertionError):
    """Internal consistency failure; indicates a bug, never expected inputs."""


@dataclass(frozen=True)
class RegularizationResult:
    """Explicit congruence to a nonsingular part plus singular Jordan blocks."""

    transform: Matrix
    regular_part: Matrix
    singular_sizes: tuple[int, ...]

    def canonical(self) -> Matrix:
        """B (+) J_{n_1}(0) (+) ... (+) J_{n_p}(0), which S^T M S equals."""
        f = self.transform.field
        return direct_sum([self.regular_part] + [jordan(s, 0, f) for s in self.singular_sizes],
                          field=f)


def verify_congruence(S: Matrix, M: Matrix, N: Matrix) -> bool:
    """True iff S is nonsingular and S^T M S equals N exactly."""
    if not (S.is_square and M.is_square and N.is_square):
        return False
    if S.nrows != M.nrows or M.nrows != N.nrows or S.field != M.field:
        return False
    if not full_rank(S):
        return False
    return S.transpose() * M * S == N


def regularize(M: Matrix) -> RegularizationResult:
    if not M.is_square:
        raise ValueError("regularize needs a square matrix")
    n = M.nrows
    K = nullspace(M)
    if not K.ncols:  # an empty kernel proves M nonsingular: S = I, B = M
        return RegularizationResult(Matrix.identity(M.field, n), M, ())
    W, spans = _decompose(M, K)
    if W.ncols != n:
        raise RegularizationError("basis size mismatch")
    spans.sort(key=len)
    b = n - sum(map(len, spans))
    S = _cols(W, [*range(b), *(c for span in spans for c in span)])
    N = S.transpose() * M * S
    B = N.submatrix(range(b), range(b))
    res = RegularizationResult(S, B, tuple(map(len, spans)))
    if not (full_rank(S) and full_rank(B)) or N != res.canonical():
        raise RegularizationError("regularization postcondition failed")
    return res


def _cols(A: Matrix, idx) -> Matrix:
    """The columns idx of A, in that order."""
    return A.submatrix(range(A.nrows), idx)


def _indicator(f, nrows: int, hits: list) -> Matrix:
    """The nrows x len(hits) matrix with ones in the rows hits[j] of column j."""
    return Matrix(f, [[int(i in hit) for hit in hits] for i in range(nrows)], ncols=len(hits))


def _solve(A: Matrix, rhs: Matrix, what: str) -> Matrix:
    """The solution of A X = rhs with the free variables zero, column by column."""
    if not rhs.ncols:
        return Matrix.zeros(A.field, A.ncols, 0)
    X = solve(A, rhs)
    if X is None:
        raise RegularizationError(f"{what} inconsistent")
    return X


def _greedy_extend(base: Matrix, pool: Matrix) -> list[int]:
    """Indices of the pool columns that extend the base columns to a larger
    independent set, in order.

    Column j of [base | pool] is a pivot of its echelon form exactly when
    it is independent of columns 0..j-1: the greedy choice.
    """
    return [j - base.ncols for j in pivots(hstack(base, pool)) if j >= base.ncols]


def _decompose(G: Matrix, K: Matrix) -> tuple[Matrix, list[range]]:
    """A basis of F^n as the columns of W, and the column ranges of the
    singular chains of G in W; the columns before all ranges span the
    regular part.  K is nullspace(G), whose column structure the
    two-sided kernel step relies on.

    A chain's columns u_1, ..., u_s pair as u_{i+1}^T G u_i = 1, and all
    other pairings (within a chain, across chains, and against the regular
    part) are zero.
    """
    f = G.field
    n = G.nrows
    q = K.ncols
    if not q:
        return Matrix.identity(f, n), []
    GT = G.transpose()
    GTK = GT * K

    # 1x1 singular blocks: the two-sided kernel splits off against the unit
    # vectors that extend it to a basis.  K is the nullspace basis whose
    # last nonzero entries are 1s on the free columns of G, so K times the
    # nullspace basis of G^T K is the one of [G; G^T], column for column.
    K0 = K * nullspace(GTK)
    if K0.ncols:
        k = n - K0.ncols
        ones = [range(c, c + 1) for c in range(k, n)]
        if not k:  # G = 0
            return K0, ones
        I = Matrix.identity(f, n)
        idx = _greedy_extend(K0, I)
        G2 = G.submatrix(idx, idx)
        W2, spans = _decompose(G2, nullspace(G2))
        return hstack(_cols(I, idx) * W2, K0), spans + ones

    # Restrict to Y = {x : k^T G x = 0 for all k in ker G}.
    Ymat = nullspace(GTK.transpose())
    if Ymat.ncols != n - q:
        raise RegularizationError("unexpected restriction dimension")
    GY = Ymat.transpose() * G * Ymat
    WY, spansY = _decompose(GY, nullspace(GY))
    L = Ymat * WY
    b = n - q - sum(map(len, spansY))

    # The 1x1 blocks of the restriction span (chain ends) + (chain heads of
    # length-3 chains); separate them invariantly, discarding any mixing the
    # recursion introduced.
    O = _cols(L, [span.start for span in spansY if len(span) == 1])
    H = O * nullspace(GT * O)
    h = H.ncols
    if O.ncols - h != q:
        raise RegularizationError("chain end count mismatch")

    # The vectors fixed so far, U = [H | V]: the heads, then the known vectors
    # V, that is the regular part and the stub of each longer chain, stub t
    # in columns bounds[t]..bounds[t+1]-1 of V.
    longs = [span for span in spansY if len(span) > 1]
    V = _cols(L, [*range(b), *(c for span in longs for c in span)])
    m = V.ncols
    bounds = list(accumulate(map(len, longs), initial=b))
    deepest = [t - 1 for t in bounds[1:]]
    GU = G * hstack(H, V)

    # Chains from here on: h with a head, then the longer ones, then those
    # of length 2.  The true final vector of each stubbed chain is the
    # unique z with G^T z = G d and G z = 0, d its head or its deepest stub
    # vector (unique because the two-sided kernel is 0).  With z = K y that
    # is G^T K y = G d, a system in q unknowns.
    GD = _cols(GU, [*range(h), *(h + d for d in deepest)])
    Z = K * _solve(GTK, GD, "chain end equation")

    # Remaining kernel directions are the ends of length-2 chains.
    rest = _greedy_extend(Z, K)
    if Z.ncols + len(rest) != q:
        raise RegularizationError("kernel accounting mismatch")
    E = hstack(Z, _cols(K, rest))

    # The next-to-last vector x_j of chain j pairs e_k^T G x_j = 1 if k = j
    # else 0 with the ends, and x_j^T G u = 1 if u is chain j's head else 0
    # with the heads: the first q + h rows of A.  A chain without a head
    # also pairs x_j^T G v = 1 with its deepest stub vector and 0 with the
    # other known vectors: all rows of A.  So it takes one solve per kind of
    # chain, with one right-hand side per chain.
    A = vstack(E.transpose() * G, GU.transpose())
    hits = ([(j, q + h + d) for j, d in enumerate(deepest, h)]
            + [(j,) for j in range(h + len(longs), q)])
    X = _solve(A, _indicator(f, q + h + m, hits), "pairing system")

    # Correction passes, each one product update from the starting
    # coefficients.  A sweep that fixes one direction at a time gives the
    # same vectors: taking beta*u off v, u the head of chain i, leaves
    # x_j^T G v alone for j != i as x_j^T G u = 0, and taking alpha*e_k off
    # v leaves v^T G x_j alone for j != k as e_k^T G x_j = 0.
    if h:
        # kept for small entries, not correctness: these x_j pair with the
        # ends and heads only, and the known vectors lose their head parts
        Xh = _solve(A.submatrix(range(q + h), range(n)),
                    _indicator(f, q + h, [(i, q + i) for i in range(h)]), "pairing system")
        X = hstack(Xh, X)
        V = V - H * (Xh.transpose() * _cols(GU, range(h, h + m)))
    # then the known vectors and the x_j lose their end components
    VX = hstack(V, X)
    VX = VX - E * (X.transpose() * GT * VX)

    # Chain j is its stub, x_j and e_j, taken from the columns of [V | X | H | E].
    stubs = ([[m + q + i] for i in range(h)] + [range(s, t) for s, t in pairwise(bounds)]
             + [[]] * (q - h - len(longs)))
    cols, spans = [*range(b)], []
    for j, stub in enumerate(stubs):
        spans.append(range(len(cols), len(cols) + len(stub) + 2))
        cols += [*stub, m + j, m + q + h + j]
    return _cols(hstack(VX, hstack(H, E)), cols), spans
