"""Brute-force ground truth over small prime fields: find every isometry
S^T M S = M column by column and tally the determinants.

Once the columns s_i, i < j, of S are fixed, column j is a vector v of
F_p^n with v^T M v = M_jj, and the 2j conditions s_i^T M v = M_ij and
v^T M s_i = M_ji are linear in v.  The search goes level by level: every
partial matrix S[:, :j] is paired with every nonzero v that meets the first
condition, and the pairs that meet the linear ones are the partial matrices
of the next level.  Pairs are tested in numpy blocks of at most `_BLOCK`, and
the leaves are tallied by determinant as they come (`_det_mod`, one batched
elimination mod p).  Entries stay reduced mod p, so int64 stays exact.

`limit` bounds the (partial matrix, vector) pairs: a level of P partial
matrices costs P·p^n, charged before it is built, and a level stops with
BudgetExceededError as soon as its partial matrices would price the next
level out.  So the search never holds more than limit / p^n of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .exactmat import Matrix, full_rank

#: testing more (partial matrix, vector) pairs than this raises
#: BudgetExceededError.
DEFAULT_LIMIT = 50_000_000

_BLOCK = 1 << 16


class BudgetExceededError(RuntimeError):
    """The requested search is larger than the allowed budget."""


@dataclass(frozen=True)
class IsometrySummary:
    """Isometry group of a form over F_p, by exhaustive search."""

    group_order: int
    det_counts: dict[int, int]
    all_det_one: bool


def _form(M: Matrix) -> tuple[np.ndarray, int]:
    """(M mod p as an n x n int64 array, p) for a square M over F_p."""
    if not M.is_square:
        raise ValueError("square matrix required")
    p = M.field.p
    if p is None:
        raise ValueError("the enumeration oracle needs a prime field, not Q")
    return np.array(M.to_lists(), dtype=np.int64).reshape(M.nrows, M.nrows) % p, p


def _det_mod(S: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a batch of n x n residue matrices, any n:
    Gaussian elimination in int64, each pivot inverted as pivot^(p-2)."""
    A = S.astype(np.int64)
    at = np.arange(len(A))
    d = np.ones(len(A), np.int64)
    for c in range(A.shape[1]):
        r = c + (A[:, c:, c] != 0).argmax(axis=1)  # c itself when the column is zero
        A[at, c], A[at, r] = A[at, r], A[at, c]
        piv = A[:, c, c]
        d = np.where(r == c, d, -d) * piv % p
        inv = np.ones_like(piv)
        for bit in bin(p - 2)[2:]:  # square and multiply
            inv = inv * inv % p * (piv if bit == "1" else 1) % p
        A[:, c + 1:] -= (A[:, c + 1:, c] * inv[:, None] % p)[:, :, None] * A[:, None, c]
        A %= p
    return d


def _charge(pairs: int, limit: int) -> int:
    """pairs, or BudgetExceededError if they exceed the limit."""
    if pairs > limit:
        raise BudgetExceededError(f"the search needs at least {pairs} (partial matrix, vector) "
                                  f"pairs, more than the limit {limit}")
    return pairs


def _extend(partials: np.ndarray, A: np.ndarray, p: int):
    """Blocks of the pairs (S[:, :j], v) that meet column j's conditions,
    as partial matrices S[:, :j+1]."""
    n, j = partials.shape[1:]
    rhs = np.concatenate([A[:j, j], A[j, :j]])[:, None]
    for lo in range(0, p ** n, _BLOCK):
        ids = np.arange(lo, min(lo + _BLOCK, p ** n), dtype=np.int64)
        V = ids[:, None] // p ** np.arange(n, dtype=np.int64) % p
        V = V[((V @ A % p * V).sum(axis=1) % p == A[j, j]) & V.any(axis=1)]
        step = max(1, _BLOCK // max(len(V), 1))
        for a in range(0, len(partials), step):
            S = partials[a:a + step].transpose(0, 2, 1).astype(np.int64)
            lhs = np.concatenate([S @ A, S @ A.T], axis=1) % p
            b, v = np.nonzero((lhs @ V.T % p == rhs).all(axis=1))
            yield np.concatenate([partials[a + b], V[v, :, None].astype(partials.dtype)], axis=2)


def _leaves(A: np.ndarray, p: int, limit: int):
    """Blocks of every S, singular ones included, with S^T A S = A mod p."""
    n = len(A)
    blocks, spent = [np.zeros((1, n, 0), np.min_scalar_type(p - 1))], 0
    for j in range(n):
        partials, blocks, kept = np.concatenate(blocks), [], 0
        spent = _charge(spent + len(partials) * p ** n, limit)
        for block in _extend(partials, A, p):
            if j == n - 1:
                yield block
            else:
                blocks.append(block)
                kept += len(block)
                _charge(spent + kept * p ** n, limit)
    if n == 0:
        yield blocks[0]


def enumerate_isometries(M: Matrix, limit: int = DEFAULT_LIMIT) -> IsometrySummary:
    """Find every nonsingular S with S^T M S = M, column by column, and
    tally the determinants."""
    A, p = _form(M)
    det_counts: dict[int, int] = {}
    for S in _leaves(A, p, limit):
        d = _det_mod(S, p)
        vals, cnts = np.unique(d[d != 0], return_counts=True)
        for v, c in zip(vals.tolist(), cnts.tolist()):
            det_counts[v] = det_counts.get(v, 0) + c
    order = sum(det_counts.values())
    return IsometrySummary(order, det_counts, det_counts.get(1, 0) == order)


def random_congruence(M: Matrix, seed: int) -> Matrix:
    """T^T M T for a deterministic pseudo-random nonsingular T with small
    entries: rows drawn from random.Random(seed), in [-3, 3] over Q and
    in range(p) over F_p, until a draw has full rank."""
    if not M.is_square:
        raise ValueError("square matrix required")
    f, n = M.field, M.nrows
    rng = random.Random(seed)
    while True:
        if f.is_rational:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randrange(f.p) for _ in range(n)] for _ in range(n)]
        T = Matrix(f, rows)
        if full_rank(T):
            return T.transpose() * M * T
