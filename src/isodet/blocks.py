"""Canonical building blocks: Jordan blocks, anti-triangular blocks, companion
matrices of prime-power polynomials, skew and direct sums, symplectic units,
and the rectangular pencil blocks.  These power the decision paths, the test
generators and the CLI `blocks` subcommand.  Each block is built from its
formula; none runs an elimination.
"""

from __future__ import annotations

from .exactmat import (
    QQ,
    Field,
    Matrix,
    Poly,
    direct_sum,  # defined next to hstack/vstack, also served as blocks.direct_sum
    hstack,
    vstack,
)


class ZeroConstantTermError(ValueError):
    """Reciprocal polynomial requested for a polynomial with p(0) = 0."""


def jordan(r: int, lam, field: Field = QQ) -> Matrix:
    """r x r block with lam on the diagonal and 1 on the first subdiagonal."""
    if r < 1:
        raise ValueError("jordan block size must be >= 1")
    return Matrix(field, [[lam if j == i else int(j == i - 1) for j in range(r)]
                          for i in range(r)])


def gamma(r: int, field: Field = QQ) -> Matrix:
    """The r x r anti-triangular block with (-1)^(i+1) on the two central
    anti-diagonals (1-based i+j in {r+1, r+2}), zero elsewhere.

    Its cosquare G^{-T} G is one Jordan block of eigenvalue mu = (-1)^(r+1)
    over Q and over every F_p with p odd (Horn & Sergeichuk, LAA 416
    (2006)), so nothing is checked at run time.  Reversing the rows gives
    G = J D (I + N): J the exchange matrix, D = diag((-1)^(r-i)), N the
    nilpotent shift with ones on the superdiagonal.  As J N^T J = N,
    J D J = mu D and D N D = -N,

        G^{-T} G = J D (I + N^T)^{-1} J D (I + N) = mu (I - N)^{-1} (I + N)
                 = mu (I + 2N + 2N^2 + ... + 2N^(r-1)),

    an integer upper triangular matrix with mu on the diagonal and 2 mu
    everywhere above it.  So (G^{-T} G - mu I)^k = (2 mu)^k N^k (I - N)^{-k}
    has rank r - k whenever 2 != 0.
    """
    if r < 1:
        raise ValueError("gamma block size must be >= 1")
    return Matrix(field, [[(-1) ** (i + 1) if i + j in (r + 1, r + 2) else 0
                           for j in range(1, r + 1)] for i in range(1, r + 1)])


def frobenius(poly: Poly, power: int = 1) -> Matrix:
    """Companion matrix of poly^power for a monic poly of degree >= 1:
    subdiagonal ones, last column the negated coefficients of poly^power
    (constant term at the top)."""
    if poly.degree < 1 or not poly.is_monic():
        raise ValueError("frobenius needs a monic polynomial of degree >= 1")
    if power < 1:
        raise ValueError("frobenius power must be >= 1")
    q = poly ** power
    m = q.degree
    return Matrix(poly.field, [[int(j == i - 1) for j in range(m - 1)] + [-q.coeffs[i]]
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
    I = Matrix.identity(field, m)
    return skew_sum(-I, I)


def kronecker_pair_blocks(t: int, field: Field = QQ) -> tuple[Matrix, Matrix]:
    """The (t-1) x t blocks with ones on the diagonal and on the
    superdiagonal respectively: the first and the last t - 1 rows of I_t,
    so t = 1 yields a pair of 0 x 1 matrices."""
    if t < 1:
        raise ValueError("kronecker pair needs t >= 1")
    I = Matrix.identity(field, t)
    return I.submatrix(range(t - 1), range(t)), I.submatrix(range(1, t), range(t))
