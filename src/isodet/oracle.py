"""Brute-force ground truth over small prime fields: enumerate all matrices,
keep the isometries S^T M S = M, and tally their determinants.

Candidates are visited in a fixed order: index i in [0, p^(n*n)) is written
base p and filled into the matrix row-major, entry (r, c) taking digit
r*n + c (least significant first).  Ranges of indices can be processed
independently and the partial summaries added, so the scan shards cleanly.

Every entry point reads one candidate stream, `_nonsingular`, which holds the
budget check and yields batches of nonsingular candidates with their
determinants, and applies one congruence test, `_congruence_hits`.  Batches
store residues in the smallest unsigned type that holds p - 1 and widen to
int64 for arithmetic, which stays exact because every value is reduced mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .exactmat import Field, Matrix, rank

#: visiting more candidates than this raises BudgetExceededError; the default
#: admits p=3 up to n=4 (3^16 ~ 4.3e7) and p=5 up to n=3 (5^9 ~ 2.0e6).
DEFAULT_LIMIT = 50_000_000

_BATCH = 1 << 17


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the allowed budget."""


@dataclass(frozen=True)
class IsometrySummary:
    """Isometry group of a form over F_p, by exhaustive enumeration."""

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


def _candidates(lo: int, hi: int, n: int, p: int) -> np.ndarray:
    """Candidate matrices for indices [lo, hi), shape (hi-lo, n, n)."""
    ids = np.arange(lo, hi, dtype=np.int64)
    powers = p ** np.arange(n * n, dtype=np.int64)
    digits = (ids[:, None] // powers[None, :]) % p
    return digits.reshape(hi - lo, n, n).astype(np.min_scalar_type(p - 1))


def _det_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a batch of n x n integer matrices, n <= 4."""
    n = mats.shape[1]
    m = mats.astype(np.int64)
    if n < 2:  # the diagonal's product, which is 1 when n = 0
        return m.diagonal(axis1=1, axis2=2).prod(axis=1) % p
    if n == 2:
        return (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % p
    if n == 3:
        d = (
            m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
        )
        return d % p
    d = np.zeros(mats.shape[0], dtype=np.int64)
    sign = 1
    for j in range(4):
        cols = [c for c in range(4) if c != j]
        minor = m[:, 1:, :][:, :, cols]
        d += sign * m[:, 0, j] * _det_mod(minor, p) % p
        sign = -sign
    return d % p


def _nonsingular(n: int, p: int, limit: int):
    """Batches (S, det S mod p) of the nonsingular S in M_n(F_p), in index
    order; BudgetExceededError before the first batch if the scan is too big."""
    total = p ** (n * n)
    if total > limit:
        raise BudgetExceededError(f"{total} candidates exceed the limit {limit}")
    if n > 4:
        raise BudgetExceededError(f"the scan's determinant covers n <= 4, not n = {n}")
    for lo in range(0, total, _BATCH):
        S = _candidates(lo, min(lo + _BATCH, total), n, p)
        d = _det_mod(S, p)
        keep = d != 0
        # rebind before yielding, so the unfiltered batch is freed meanwhile
        S, d = S[keep], d[keep]
        yield S, d


def _congruence_hits(S: np.ndarray, A: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of batch entries with S^T A S = A (mod p)."""
    AS = np.matmul(A[None, :, :], S.astype(np.int64)) % p
    T = np.matmul(S.transpose(0, 2, 1).astype(np.int64), AS) % p
    return (T == A[None, :, :]).all(axis=(1, 2))


def enumerate_isometries(M: Matrix, limit: int = DEFAULT_LIMIT) -> IsometrySummary:
    """Visit every S in M_n(F_p), keep nonsingular solutions of S^T M S = M,
    and tally their determinants."""
    A, p = _form(M)
    det_counts: dict[int, int] = {}
    for S, d in _nonsingular(M.nrows, p, limit):
        vals, cnts = np.unique(d[_congruence_hits(S, A, p)], return_counts=True)
        for v, c in zip(vals.tolist(), cnts.tolist()):
            det_counts[v] = det_counts.get(v, 0) + c
    order = sum(det_counts.values())
    return IsometrySummary(order, det_counts, det_counts.get(1, 0) == order)


def oracle_verdict(M: Matrix) -> bool:
    """Membership by definition: True iff no isometry with det != 1 exists.

    Tests only determinant != 1 candidates and stops at the first batch that
    holds a witness.
    """
    A, p = _form(M)
    return not any(_congruence_hits(S[d != 1], A, p).any()
                   for S, d in _nonsingular(M.nrows, p, DEFAULT_LIMIT))


class BulkOracle:
    """Verdicts for every matrix in M_n(F_p) against one precomputed scan set.

    The determinant != 1 part of GL_n(F_p) is materialized once; each query
    then needs a single vectorized congruence pass.  Matrices are addressed
    by their enumeration index (same digit order as the candidate scan).
    """

    def __init__(self, n: int, p: int):
        Field(p)  # validates the modulus
        self.n = n
        self.p = p
        self._scan = np.concatenate([S[d != 1] for S, d in _nonsingular(n, p, DEFAULT_LIMIT)])

    def matrix_from_index(self, idx: int, field: Field) -> Matrix:
        rows = _candidates(idx, idx + 1, self.n, self.p)[0].tolist()
        return Matrix(field, rows)

    def verdict(self, M: Matrix) -> bool:
        A, _ = _form(M)
        return not _congruence_hits(self._scan, A % self.p, self.p).any()


def random_transform(field: Field, n: int, seed: int) -> Matrix:
    """Deterministic pseudo-random nonsingular n x n matrix with small
    entries (rejection sampling on the seed stream)."""
    rng = random.Random(seed)
    while True:
        if field.is_rational:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        T = Matrix(field, rows)
        if rank(T) == n:
            return T


def random_congruence(M: Matrix, seed: int) -> Matrix:
    """T^T M T for the transform produced by random_transform(seed)."""
    if not M.is_square:
        raise ValueError("square matrix required")
    T = random_transform(M.field, M.nrows, seed)
    return T.transpose() * M * T
