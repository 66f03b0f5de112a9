"""Shared builders and the independent singular-size oracle used by tests."""

from __future__ import annotations

import itertools
import random

import numpy as np

from isodet import (GF, QQ, DecisionReport, Matrix, Method, Poly, SingularMatrixError, det,
                    direct_sum, gamma, inverse, jordan, symplectic_unit)
from isodet.exactmat import hstack, nullspace, rank, rref

# Q, a small and a large prime field
FIELDS = [QQ, GF(3), GF(10007)]


def mat(rows, field=QQ):
    return Matrix(field, rows)


def all_matrices(n, p):
    """Every n x n matrix over F_p, row-major digit order."""
    f = GF(p)
    for bits in itertools.product(range(p), repeat=n * n):
        yield Matrix(f, [bits[i * n:(i + 1) * n] for i in range(n)])


def ref_isometry_dets(M: Matrix) -> dict[int, int]:
    """Determinant tally of the isometries of M over F_p: every matrix from
    all_matrices, kept when det is nonzero and S^T M S = M by Matrix products.
    Shares no code with isodet.oracle."""
    tally: dict[int, int] = {}
    for S in all_matrices(M.nrows, M.field.p):
        d = det(S)
        if d != 0 and S.transpose() * M * S == M:
            tally[d] = tally.get(d, 0) + 1
    return tally


def scan_isometry_dets(M: Matrix) -> dict[int, int]:
    """The same tally by a numpy scan of all p^(n^2) matrices in int64
    batches, S^T M S = M tested mod p and det S rounded from the float LU
    determinant (exact for the n <= 3 and small p it serves).  Much faster
    than ref_isometry_dets, and shares no search with isodet.oracle."""
    p, n = M.field.p, M.nrows
    A = np.array(M.to_lists(), dtype=np.int64).reshape(n, n)
    powers = p ** np.arange(n * n, dtype=np.int64)
    tally: dict[int, int] = {}
    batch = 1 << 17
    for lo in range(0, p ** (n * n), batch):
        ids = np.arange(lo, min(lo + batch, p ** (n * n)), dtype=np.int64)
        S = (ids[:, None] // powers % p).reshape(-1, n, n)
        d = np.rint(np.linalg.det(S)).astype(np.int64) % p
        hit = (d != 0) & (S.transpose(0, 2, 1) @ (A @ S % p) % p == A).all(axis=(1, 2))
        vals, cnts = np.unique(d[hit], return_counts=True)
        for v, c in zip(vals.tolist(), cnts.tolist()):
            tally[v] = tally.get(v, 0) + c
    return tally


def random_rational(rng: random.Random, n: int, bound: int = 5) -> Matrix:
    return Matrix(QQ, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def random_nonsingular(rng: random.Random, n: int, field=QQ, bound: int = 3) -> Matrix:
    while True:
        if field.p is None:
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        T = Matrix(field, rows)
        if rank(T) == n:
            return T


def known_sum(spec: str, field=QQ, seed=0):
    """A scrambled direct sum of canonical blocks and its known answers.

    spec joins summands with "+": J<s> is jordan(s, 0), G<r> is gamma(r) and
    Z<m> is symplectic_unit(m), of size 2m.  The sum is mixed by T^T (.) T
    for a random nonsingular T.  The singular sizes and the odd-block
    counts of a direct sum are those of its summands (Horn & Sergeichuk,
    LAA 416 (2006)): the sizes are the s of the J<s>, c_k counts the G<r>
    with r = 2k+1 (the cosquare of Z<m> is -I), and every isometry has
    determinant one iff no s and no r is odd.

    Returns (M, sorted singular sizes, (c_0, ..., c_{(n-1)//2}), verdict).
    """
    build = {"J": lambda k: jordan(k, 0, field), "G": lambda k: gamma(k, field),
             "Z": lambda k: symplectic_unit(k, field)}
    parts = [(code[0], int(code[1:])) for code in spec.split("+")]
    C = direct_sum([build[kind](k) for kind, k in parts], field=field)
    n = C.nrows
    T = random_nonsingular(random.Random(seed), n, field)
    sizes = tuple(sorted(k for kind, k in parts if kind == "J"))
    odd_r = [k for kind, k in parts if kind == "G" and k % 2]
    counts = tuple(odd_r.count(2 * k + 1) for k in range((n - 1) // 2 + 1))
    verdict = not odd_r and all(s % 2 == 0 for s in sizes)
    return T.transpose() * C * T, sizes, counts, verdict


def cosquare_root(Phi: Matrix) -> Matrix | None:
    """A nonsingular A with A^{-T} A = Phi, checked by inverse, or
    None when no such A exists over the field of Phi.

    A^{-T} A = Phi says A = A^T Phi, so every root lies in the nullspace of
    the linear map X -> X - X^T Phi on m x m matrices (m^2 unknowns, one
    nullspace call).  The candidates are the combinations sum c_i X_i of its
    basis with every c_i in range(s).  Over F_p, s = p: the whole nullspace
    is enumerated.  Over Q, s = m + 1: det(sum c_i X_i) is a polynomial of
    degree <= m in each c_i, and one that is not zero does not vanish on the
    whole grid, so None proves that det vanishes on the nullspace.
    """
    f, m = Phi.field, Phi.nrows
    # row (i, j) of X - X^T Phi: x_ij - sum_k x_ki Phi_kj, unknown (a, b) at a*m + b
    L = [[0] * (m * m) for _ in range(m * m)]
    for i in range(m):
        for j in range(m):
            row = L[i * m + j]
            row[i * m + j] += 1
            for k in range(m):
                row[k * m + i] -= Phi[k, j]
    N = nullspace(Matrix(f, L))
    s = m + 1 if f.p is None else f.p
    for c in itertools.product(range(s), repeat=N.ncols):
        A = Matrix(f, [[sum(ci * N[a * m + b, i] for i, ci in enumerate(c)) for b in range(m)]
                       for a in range(m)])
        try:
            cosquare = inverse(A.transpose()) * A
        except SingularMatrixError:
            continue
        assert cosquare == Phi, (Phi.to_lists(), A.to_lists())
        return A
    return None


def _column_space_basis(f, cols_matrix, n):
    R, piv = rref(cols_matrix.transpose())
    return Matrix(f, [R.row(i) for i in range(len(piv))], ncols=n).transpose()


def filtration_sizes(M: Matrix) -> tuple[int, ...]:
    """Singular block sizes from subspace dimensions alone.

    Completely independent of the regularize implementation: walk the
    filtration K_1 = ker M, K_{2j+1} = {x : M x in M^T K_{2j-1}}.  Then
    dim K_{2j-1} jumps count chains of size >= 2j-1, and the dimension of
    K_{2j-1} meet ker(M^T) counts odd chains of size <= 2j-1.
    """
    f = M.field
    n = M.nrows
    if n == 0:
        return ()
    MT = M.transpose()
    cur = nullspace(M)
    ds: list[int] = []
    es: list[int] = []
    for _ in range(n + 1):
        ds.append(cur.ncols)
        es.append(nullspace(MT * cur).ncols if cur.ncols else 0)
        if cur.ncols:
            block = hstack(M, (MT * cur).scale(-1))
        else:
            block = M
        NS = nullspace(block)
        xs = NS.submatrix(range(n), range(NS.ncols))
        cur = _column_space_basis(f, xs, n)
    d = [0] + ds
    e = [0] + es
    sizes: list[int] = []
    for j in range(1, len(ds)):
        ge_this = d[j] - d[j - 1]
        ge_next = d[j + 1] - d[j] if j + 1 < len(d) else 0
        odd_exact = e[j] - e[j - 1]
        even_exact = (ge_this - ge_next) - odd_exact
        sizes += [2 * j - 1] * odd_exact + [2 * j] * even_exact
    return tuple(sorted(sizes))


# --- naive reference for the elimination kernel ------------------------------
#
# Textbook Gauss-Jordan elimination on field elements through the Field
# methods, one scalar operation at a time: slow, but shares no code with the
# integer kernel in exactmat, so the differential tests compare two routes.


def ref_rref(A: Matrix):
    """(rows of the reduced row echelon form, pivot columns)."""
    f = A.field
    rows = [list(r) for r in A.rows]
    m, n = A.nrows, A.ncols
    piv = []
    for c in range(n):
        r = len(piv)
        src = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                fac = rows[i][c]
                rows[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(rows[i], rows[r])]
        piv.append(c)
    return rows, piv


def ref_det(A: Matrix):
    """Determinant as the signed product of Gaussian pivots."""
    f = A.field
    rows = [list(r) for r in A.rows]
    n = A.nrows
    d = f.one()
    for c in range(n):
        src = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if src is None:
            return f.zero()
        if src != c:
            rows[c], rows[src] = rows[src], rows[c]
            d = f.neg(d)
        d = f.mul(d, rows[c][c])
        for i in range(c + 1, n):
            ratio = f.mul(rows[i][c], f.inv(rows[c][c]))
            rows[i] = [f.sub(x, f.mul(ratio, y)) for x, y in zip(rows[i], rows[c])]
    return d


def ref_matmul(A: Matrix, B: Matrix):
    """Rows of A·B by the triple loop."""
    f = A.field
    out = []
    for i in range(A.nrows):
        line = []
        for j in range(B.ncols):
            s = f.zero()
            for k in range(A.ncols):
                s = f.add(s, f.mul(A[i, k], B[k, j]))
            line.append(s)
        out.append(line)
    return out


def ref_det_poly(A: Matrix, B: Matrix) -> Poly:
    """det(A + t·B) by fraction-free (Bareiss) elimination over F[t], each
    step an exact Poly division: the symbolic route, sharing no elimination
    with the kernel's det at n + 1 points."""
    f = A.field
    n = A.nrows
    if n == 0:
        return Poly.one(f)
    rows = [[Poly(f, [A[i, j], B[i, j]]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = Poly.one(f)
    for k in range(n - 1):
        src = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if src is None:
            return Poly.zero(f)
        if src != k:
            rows[k], rows[src] = rows[src], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j], prev)
                assert r.is_zero(), "inexact Bareiss step"
                rows[i][j] = q
            rows[i][k] = Poly.zero(f)
        prev = rows[k][k]
    d = rows[n - 1][n - 1]
    return -d if sign < 0 else d


# --- reference for the rank sequences ----------------------------------------


def ref_power_rank_sequence(P: Matrix) -> list[int]:
    """[r_0, ..., r_{m+1}] with r_k = rank(P^k) for an m x m P, by matrix
    powers: no Wong sequence, so it checks pencil_rank_sequence.

    Stops multiplying once the rank stabilizes and pads with the stable value.
    """
    m = P.nrows
    seq = [m]
    cur = P
    while True:
        r = rank(cur)
        seq.append(r)
        if r == seq[-2] or r == 0:
            # every earlier step lowered the rank: at most m + 2 entries
            return seq + [r] * (m + 2 - len(seq))
        cur = cur * P


# --- reference for the gamma route's shift choice -----------------------------


def ref_gamma_shift(M: Matrix):
    """The gamma route as it stood with the symbolic pencil determinant: D(t)
    by ref_det_poly, gamma the first of 0, 1, ..., n+1 (Q) or 0 .. p-2 (F_p)
    with D(gamma) != 0.  None when D is nonzero but has no such base-field
    root."""
    f = M.field
    n = M.nrows
    if n == 0:
        return DecisionReport(True, Method.GAMMA_SHIFT, None, (), ())
    MT = M.transpose()
    pencil = ref_det_poly(MT, M)
    if pencil.is_zero():
        return DecisionReport(False, Method.GAMMA_SHIFT, None, (), ())
    candidates = range(n + 2) if f.is_rational else range(f.p - 1)
    gamma = next((f.convert(g) for g in candidates if pencil.eval(g) != 0), None)
    if gamma is None:
        return None
    N = inverse(MT + M.scale(gamma)) * M
    mu = f.inv(f.add(f.one(), gamma))
    r = ref_power_rank_sequence(N - Matrix.identity(f, n).scale(mu))
    counts = tuple(r[2 * k] - 2 * r[2 * k + 1] + r[2 * k + 2] for k in range((n + 1) // 2))
    return DecisionReport(all(c == 0 for c in counts), Method.GAMMA_SHIFT, None, tuple(r), counts,
                          gamma_used=gamma)


# --- reference for the odd-block count step -------------------------------------


def ref_odd_unipotent_counts(B: Matrix):
    """The cosquare formula: the rank sequence of B^{-T}B - I, built with
    inverse and a product, and c_k = r_{2k} - 2 r_{2k+1} + r_{2k+2}."""
    b = B.nrows
    if b == 0:
        return (0,), ()
    r = ref_power_rank_sequence(inverse(B.transpose()) * B - Matrix.identity(B.field, b))
    return tuple(r), tuple(r[2 * k] - 2 * r[2 * k + 1] + r[2 * k + 2] for k in range((b + 1) // 2))
