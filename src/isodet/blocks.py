"""Canonical building blocks: Jordan blocks, anti-triangular blocks, companion
matrices of prime-power polynomials, skew and direct sums, symplectic units,
and the rectangular pencil blocks.  These power the decision paths, the test
generators and the CLI `blocks` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmat import (
    QQ,
    Field,
    Matrix,
    Poly,
    direct_sum,  # defined next to hstack/vstack, also served as blocks.direct_sum
    hstack,
    inverse_times,
    power_rank_sequence,
    vstack,
)


class ZeroConstantTermError(ValueError):
    """Reciprocal polynomial requested for a polynomial with p(0) = 0."""


@dataclass(frozen=True)
class PolySpec:
    """A monic polynomial together with the exponent of its companion block."""

    poly: Poly
    power: int

    def __post_init__(self):
        if self.poly.degree < 1 or not self.poly.is_monic():
            raise ValueError("PolySpec needs a monic polynomial of degree >= 1")
        if self.power < 1:
            raise ValueError("PolySpec power must be >= 1")

    @property
    def block_size(self) -> int:
        return self.poly.degree * self.power


def jordan(r: int, lam, field: Field = QQ) -> Matrix:
    """r x r block with lam on the diagonal and 1 on the first subdiagonal."""
    if r < 1:
        raise ValueError("jordan block size must be >= 1")
    return Matrix(field, [[lam if j == i else int(j == i - 1) for j in range(r)]
                          for i in range(r)])


def gamma(r: int, field: Field = QQ) -> Matrix:
    """The r x r anti-triangular block with (-1)^(i+1) on the two central
    anti-diagonals (1-based i+j in {r+1, r+2}), zero elsewhere.

    The constructor checks the defining property of the block: the rank
    sequence of its cosquare at eigenvalue (-1)^(r+1) is [r, r-1, ..., 1, 0],
    i.e. the cosquare is similar to a single Jordan block of that eigenvalue.
    """
    if r < 1:
        raise ValueError("gamma block size must be >= 1")
    G = Matrix(field, [[(-1) ** (i + 1) if i + j in (r + 1, r + 2) else 0
                        for j in range(1, r + 1)] for i in range(1, r + 1)])
    cosq = inverse_times(G.transpose(), G, "gamma")
    seq = power_rank_sequence(cosq, (-1) ** (r + 1), r)
    if seq != list(range(r, -1, -1)):
        raise AssertionError(f"gamma({r}) failed its cosquare self-check: {seq}")
    return G


def frobenius(spec: PolySpec) -> Matrix:
    """Companion matrix of p(x)^l: subdiagonal ones, last column the negated
    coefficients of p^l (constant term at the top)."""
    field = spec.poly.field
    q = spec.poly ** spec.power
    m = spec.block_size
    return Matrix(field, [[int(j == i - 1) for j in range(m - 1)] + [-q.coeffs[i]]
                          for i in range(m)])


def reciprocal(p: Poly) -> Poly:
    """The monic reversed polynomial p(0)^{-1} x^s p(1/x) of the same degree."""
    if not p.is_monic():
        raise ValueError("reciprocal needs a monic polynomial")
    f = p.field
    if f.is_zero(p.constant()):
        raise ZeroConstantTermError("p(0) = 0 has no reciprocal of equal degree")
    rev = list(reversed(p.coeffs))
    return Poly(f, rev).scale(f.inv(p.constant()))


def is_cosquare_block(spec: PolySpec) -> bool:
    """Whether the companion block of p^l is a cosquare: p != x,
    p != x + (-1)^(m+1) with m the block size, and p self-reciprocal."""
    p = spec.poly
    f = p.field
    m = spec.block_size
    if f.is_zero(p.constant()):
        # x divides p, so p is x itself or not irreducible; never a cosquare
        return False
    if p == Poly(f, [(-1) ** (m + 1), 1]):
        return False
    return reciprocal(p) == p


def skew_sum(A: Matrix, B: Matrix) -> Matrix:
    """[[0, B], [A, 0]] with zero blocks sized to fit."""
    if A.field != B.field:
        raise ValueError("skew_sum over mixed fields")
    f = A.field
    return vstack(hstack(Matrix.zeros(f, B.nrows, A.ncols), B),
                  hstack(A, Matrix.zeros(f, A.nrows, B.ncols)))


def symplectic_unit(m: int, field: Field = QQ) -> Matrix:
    """The 2m x 2m matrix [[0, I_m], [-I_m, 0]]."""
    if m < 1:
        raise ValueError("symplectic unit needs m >= 1")
    n = 2 * m
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][m + i] = 1
        rows[m + i][i] = -1
    return Matrix(field, rows)


def kronecker_pair_blocks(t: int, field: Field = QQ) -> tuple[Matrix, Matrix]:
    """The (t-1) x t blocks with ones on the diagonal and on the
    superdiagonal respectively; t = 1 yields a pair of 0 x 1 matrices."""
    if t < 1:
        raise ValueError("kronecker pair needs t >= 1")
    F_rows = [[int(j == i) for j in range(t)] for i in range(t - 1)]
    G_rows = [[int(j == i + 1) for j in range(t)] for i in range(t - 1)]
    return Matrix(field, F_rows, ncols=t), Matrix(field, G_rows, ncols=t)
