"""Congruence regularization: split a square matrix M into B + singular
Jordan blocks under an explicit congruence.

`regularize` returns S, B and the singular block sizes n_1 <= ... <= n_p with

    S^T M S = B (+) J_{n_1}(0) (+) ... (+) J_{n_p}(0),   B nonsingular,

verified exactly before returning.  The construction works over Q and over
any F_p with p odd, uses no field extensions and no randomness.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import direct_sum, jordan
from .exactmat import Matrix, dot_rows, nullspace, rank, rref, solve, vstack


class RegularizationError(AssertionError):
    """Internal consistency failure; indicates a bug, never expected inputs."""


@dataclass(frozen=True)
class RegularizationResult:
    """Explicit congruence to a nonsingular part plus singular Jordan blocks."""

    transform: Matrix
    regular_part: Matrix
    singular_sizes: tuple[int, ...]


def verify_congruence(S: Matrix, M: Matrix, N: Matrix) -> bool:
    """True iff S is nonsingular and S^T M S equals N exactly."""
    if not (S.is_square and M.is_square and N.is_square):
        return False
    if S.nrows != M.nrows or M.nrows != N.nrows or S.field != M.field:
        return False
    if rank(S) != S.nrows:
        return False
    return S.transpose() * M * S == N


def regularize(M: Matrix) -> RegularizationResult:
    if not M.is_square:
        raise ValueError("regularize needs a square matrix")
    f = M.field
    n = M.nrows
    b_vecs, chains = _decompose(M)
    chains.sort(key=len)
    cols = list(b_vecs)
    for ch in chains:
        cols.extend(ch)
    if len(cols) != n:
        raise RegularizationError("basis size mismatch")
    S = Matrix.from_cols(f, cols, nrows=n)
    N = S.transpose() * M * S
    b = len(b_vecs)
    B = N.submatrix(range(b), range(b))
    sizes = tuple(len(ch) for ch in chains)
    expected = direct_sum([B] + [jordan(s, 0, f) for s in sizes], field=f)
    if rank(S) != n or rank(B) != b or N != expected:
        raise RegularizationError("regularization postcondition failed")
    return RegularizationResult(S, B, sizes)


def _unit(f, n, i):
    z = f.zero()
    v = [z] * n
    v[i] = f.one()
    return tuple(v)


def _add_scaled(f, u, v, c):
    """u + c*v componentwise."""
    return dot_rows(f, zip(u, v), (f.one(), c))


def _pair(G: Matrix, u, v):
    """The form value u^T G v."""
    return dot_rows(G.field, (u,), G.apply_to_vec(v))[0]


def _kernel_members(A: Matrix, Vmat: Matrix) -> list[tuple]:
    """Basis of {v in col-span(Vmat) : A v = 0}."""
    if Vmat.ncols == 0:
        return []
    C = nullspace(A * Vmat)
    return [Vmat.apply_to_vec(C.col(j)) for j in range(C.ncols)]


def _greedy_extend(f, base: list[tuple], pool: list[tuple], n: int) -> list[tuple]:
    """Pool vectors that extend base to a larger independent set, in order.

    Column j of [base | pool] is a pivot of its reduced row echelon form
    exactly when it is independent of columns 0..j-1: the greedy choice.
    """
    if not pool:
        return []
    _, piv = rref(Matrix.from_cols(f, base + pool, nrows=n))
    return [pool[j - len(base)] for j in piv if j >= len(base)]


def _decompose(G: Matrix) -> tuple[list[tuple], list[list[tuple]]]:
    """Basis vectors of the regular part and the singular chains of G.

    Chains come back as [u_1, ..., u_s] with pairings u_{i+1}^T G u_i = 1 and
    all other pairings (within a chain, across chains, and against the
    regular part) equal to zero.
    """
    f = G.field
    n = G.nrows
    if n == 0:
        return [], []
    if rank(G) == n:
        return [_unit(f, n, i) for i in range(n)], []
    GT = G.transpose()

    # 1x1 singular blocks: the two-sided kernel splits off against anything.
    K0 = nullspace(vstack(G, GT))
    if K0.ncols > 0:
        k0cols = [K0.col(j) for j in range(K0.ncols)]
        units = [_unit(f, n, i) for i in range(n)]
        comp = _greedy_extend(f, k0cols, units, n)
        idx = [u.index(f.one()) for u in comp]
        G2 = G.submatrix(idx, idx)
        bv2, ch2 = _decompose(G2)

        def embed(v2):
            z = f.zero()
            v = [z] * n
            for pos, c in zip(idx, v2):
                v[pos] = c
            return tuple(v)

        b_vecs = [embed(v) for v in bv2]
        chains = [[embed(v) for v in ch] for ch in ch2]
        chains.extend([[c] for c in k0cols])
        return b_vecs, chains

    # Restrict to Y = {x : k^T G x = 0 for all k in ker G}.
    K = nullspace(G)
    q = K.ncols
    Ymat = nullspace(K.transpose() * G)
    if Ymat.ncols != n - q:
        raise RegularizationError("unexpected restriction dimension")
    G_Y = Ymat.transpose() * G * Ymat
    bvY, chY = _decompose(G_Y)

    b_vecs = [Ymat.apply_to_vec(v) for v in bvY]
    lifted = [[Ymat.apply_to_vec(v) for v in ch] for ch in chY]

    # The 1x1 blocks of the restriction span (chain ends) + (chain heads of
    # length-3 chains); separate them invariantly, discarding any mixing the
    # recursion introduced.
    ones = [ch[0] for ch in lifted if len(ch) == 1]
    longs = [list(ch) for ch in lifted if len(ch) >= 2]
    K0Ymat = Matrix.from_cols(f, ones, nrows=n)
    heads = _kernel_members(GT, K0Ymat)
    ends_dim = len(ones) - len(heads)
    if ends_dim != q:
        raise RegularizationError("chain end count mismatch")

    stubs = longs + [[h] for h in heads]
    n_longs = len(longs)

    # The true final vector of each stubbed chain: the unique z with
    # G^T z = G d and G z = 0 (uniqueness because the two-sided kernel is 0).
    z_vecs: list[tuple] = []
    if stubs:
        zero_vec = (f.zero(),) * n
        rhs = Matrix.from_cols(f, [G.apply_to_vec(ch[-1]) + zero_vec for ch in stubs])
        Z = solve(vstack(GT, G), rhs)
        if Z is None:
            raise RegularizationError("chain end equation inconsistent")
        z_vecs = [Z.col(j) for j in range(Z.ncols)]

    # Remaining kernel directions are the ends of length-2 chains.
    kernel_pool = [K.col(j) for j in range(q)]
    leftovers = _greedy_extend(f, z_vecs, kernel_pool, n)
    if len(z_vecs) + len(leftovers) != q:
        raise RegularizationError("kernel accounting mismatch")

    # Chain records: (stub vectors, end vector, is_head_chain)
    records = [(ch, z, i >= n_longs) for i, (ch, z) in enumerate(zip(stubs, z_vecs))]
    records += [([], e, False) for e in leftovers]
    ends_all = [rec[1] for rec in records]
    r = len(records)
    head_chain_idx = [j for j, rec in enumerate(records) if rec[2]]

    # Solve for the next-to-last vector of each chain.  Every system pairs
    # with the ends and the head stubs; the others also with the known vectors.
    one, zero = f.one(), f.zero()
    shared = ([GT.apply_to_vec(e) for e in ends_all]
              + [G.apply_to_vec(records[m][0][0]) for m in head_chain_idx])
    known_rows = b_vecs + [v for ch, _, is_head in records if ch and not is_head for v in ch]
    known_G = [G.apply_to_vec(v) for v in known_rows]
    xs: list[tuple] = []
    for j, (stub, _end, is_head) in enumerate(records):
        rows = list(shared)
        rhs = [one if k == j else zero for k in range(r)]
        rhs += [one if m == j else zero for m in head_chain_idx]
        if not is_head:
            d = stub[-1] if stub else None
            if stub:
                rows.append(G.apply_to_vec(d))
                rhs.append(one)
            for v, Gv in zip(known_rows, known_G):
                if v is not d:
                    rows.append(Gv)
                    rhs.append(zero)
        xsol = solve(Matrix(f, rows, ncols=n), Matrix.from_cols(f, [rhs], nrows=len(rhs)))
        if xsol is None:
            raise RegularizationError("pairing system inconsistent")
        xs.append(xsol.col(0))

    # Correction passes.  All three use only directions that pair to zero
    # with everything already fixed, so they commute and need one sweep each.
    def fix_vector(v):
        # head components first: invisible to the restriction, detected by x_j
        for j in head_chain_idx:
            beta = _pair(G, xs[j], v)
            if not f.is_zero(beta):
                v = _add_scaled(f, v, records[j][0][0], f.neg(beta))
        # then end components, detected the other way around
        for j in range(r):
            alpha = _pair(G, v, xs[j])
            if not f.is_zero(alpha):
                v = _add_scaled(f, v, ends_all[j], f.neg(alpha))
        return v

    b_vecs = [fix_vector(v) for v in b_vecs]
    records = [(stub if is_head else [fix_vector(v) for v in stub], end, is_head)
               for stub, end, is_head in records]

    # Cross terms among the solved vectors, absorbed by the chain ends.
    D = [[_pair(G, xs[j], xs[k]) for k in range(r)] for j in range(r)]
    for j in range(r):
        v = xs[j]
        for k in range(r):
            if not f.is_zero(D[j][k]):
                v = _add_scaled(f, v, ends_all[k], f.neg(D[j][k]))
        xs[j] = v

    chains = [[*stub, xs[j], end] for j, (stub, end, _h) in enumerate(records)]
    return b_vecs, chains
