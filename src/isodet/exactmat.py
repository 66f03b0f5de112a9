"""Exact dense linear algebra over Q and over prime fields F_p with p odd.

Scalars are plain values: `fractions.Fraction` over Q (always in lowest terms
with positive denominator) and canonical ints in [0, p) over F_p.  Every
matrix and polynomial carries the `Field` that owns its entries; there is no
floating point anywhere.

Arithmetic runs on Python ints.  A `Matrix` over Q stores integer rows,
each with one positive row denominator d and in lowest terms:
gcd(d, *row) = 1, so a zero row has d = 1.  The form is unique, so `==`
compares it as is.  A product brings the right factor to one common
denominator L and takes integer dot products; a product, sum, scaling,
transpose or column slice ends with one gcd per output row.  A `Fraction`
is built only at the boundary: by `Matrix(field, rows)` from a given entry
that is not an int (an int goes straight to the stored form), and by
`rows`, `row`, `col`, `[i, j]` and `to_lists`, which build the entries anew
at each read (nothing is cached).  Over F_p the stored rows are the
canonical residues themselves.  This module is the only one that reads or
builds the stored form; the others use the public operations, among them
`hstack`, `vstack`, `direct_sum` and `kron`.

`rank`, `pivots`, `rref`, `solve`, `inverse`, `nullspace`, `det` and
`pencil_rank_sequence` (the ranks of (A^{-1} C)^k) share one
fraction-free elimination kernel that takes the stored rows as they are:
a forward pass, `_eliminate`, and a back substitution, `_back_substitute`,
that runs only when a reduced form is asked for (`rref`, `solve`,
`inverse`, and `nullspace` and `pencil_rank_sequence` when some column is
free).  Their outputs are read off the kernel's rows in the stored form, a
row over its pivot entry.  Over F_p the forward pass scales every pivot to
1, so that reading holds there as it stands: each reduced form is read one
way over both fields.  The forward pass also keeps a log of its row
updates over Q; only `det` reads it.  `det_poly`, the pencil determinant
det(A + t·B), has no elimination of its own: it calls `det` at n + 1
points and `solve` once.

Over Q, `full_rank`, `nullspace` (of a matrix with at least as many
rows as columns) and `pencil_rank_sequence` (of C) first run the forward
pass on the image of the stored integer rows mod one prime, `_IMAGE_P`, once min(m, n)
reaches `_IMAGE_MIN`.  Row i of A is its stored row over d_i != 0, so A
has the rank of its integer rows, and a minor of those that is nonzero mod
p is a nonzero integer: a full-rank image proves that A has full rank (the
modular method; von zur Gathen & Gerhard, Modern Computer Algebra, CUP,
ch. 5).  A deficient image, which an A of full rank gives when p divides
all its maximal minors, proves nothing: `full_rank` and `nullspace` then
run the exact elimination.  `rank`, `pivots` and
the others never read the image: their callers mostly meet deficient
matrices, where it would only add its cost.

Over F_p the kernel and the product pack rows into ints of w-bit slots,
one slot per entry, the first entry in the top slot.  A row takes at most k
updates (or a product row k terms), each adding at most (p - 1)^2 to a
slot: an update adds f times the pivot row negated, (-y) mod p in each slot,
so no slot borrows.  A slot starts below p, so it never exceeds
(p - 1) + k·(p - 1)^2, and w is the least of 16, 32 and 64 (else the least
width at all) with that bound below 2^w: no slot carries into the next.
A 16-, 32- or 64-bit slot is one machine word of an `array`, so a row packs
by one `int.from_bytes` of the reversed row's words and unpacks by one
`to_bytes` of its low n slots, masked (a pivot row holds multiples of p
above them), into an array.  Other widths go by shifts.  A row update is
one multiply-add, a product row one sum of the right factor's packed rows,
and a row is unpacked and reduced mod p only when it becomes a pivot row
or a product row (Dumas, Fousse & Salvy, J. Symbolic Comput. 46 (2011)).
Packing costs a pack and an unpack per pivot and a shift per row and
pivot, so it pays only when rows take enough updates: a product packs
rows at least `_PACK_MIN` (8) entries wide, an elimination pass when a row
can take `_pack_rows(p)` updates.  Both were re-measured with word slots:
one size below them packing was no faster, but for products over p of 31
bits and more.  Smaller calls keep the per-entry loop.  Packed rows never
leave the call that packs them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from fractions import Fraction
from math import gcd, inf, lcm, prod
from operator import add, mul, sub
from sys import byteorder
from typing import Iterable, Sequence


class FieldError(ValueError):
    """Unsupported coefficient field (characteristic 2, modulus not prime,
    or modulus beyond the exact primality test)."""


class SingularMatrixError(ArithmeticError):
    """An operation required an invertible matrix but received a singular one."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < MAX_MODULUS; FieldError above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= MAX_MODULUS:
        raise FieldError(f"modulus {n} is not below the supported limit {MAX_MODULUS}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (``p is None``) or the prime field F_p for an odd prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and (p == 2 or not _is_prime(p)):
            raise FieldError(f"modulus must be an odd prime, got {p!r}")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def convert(self, x):
        """Coerce an int, Fraction or string to a canonical field element."""
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, (int, str)):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, str):
            x = int(x, 10)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer residue mod {self.p}")
            x = x.numerator
        if not isinstance(x, int):
            raise TypeError(f"cannot coerce {x!r} into F_{self.p}")
        return x % self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero field element")
        return 1 / a if self.p is None else pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


class Matrix:
    """Immutable dense matrix over a fixed field.  0x0 matrices are legal.

    `_rows` holds one tuple of ints per row and `_dens` the row
    denominators over Q (None over F_p), in the stored form of the module
    docstring: row i is `_rows[i] / _dens[i]` in lowest terms.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_dens")

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: int | None = None):
        conv = field.convert
        if field.p is None:
            # an int is already an integer over 1; other entries become Fractions
            rows = tuple(tuple(x if type(x) is int else conv(x) for x in row) for row in rows)
        else:
            rows = tuple(tuple(conv(x) for x in row) for row in rows)
        self.field = field
        self.nrows = len(rows)
        if self.nrows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        if field.p is not None:
            self._rows, self._dens = rows, None
            return
        # ints and Fractions both carry numerator and denominator; the lcm of
        # a row's denominators leaves the row in lowest terms
        self._dens = tuple(lcm(*(x.denominator for x in r)) for r in rows)
        self._rows = tuple(tuple(x.numerator * (d // x.denominator) for x in r)
                           for r, d in zip(rows, self._dens))

    @classmethod
    def _of(cls, field: Field, rows: Iterable[Sequence[int]], ncols: int,
            dens: Sequence[int] | None = None) -> "Matrix":
        """A matrix from rows already in the stored form; over Q, dens None
        means every row denominator is 1."""
        M = object.__new__(cls)
        M.field = field
        M._rows = tuple(map(tuple, rows))
        M.nrows = len(M._rows)
        M.ncols = ncols
        if field.p is not None:
            M._dens = None
        else:
            M._dens = (1,) * M.nrows if dens is None else tuple(dens)
        return M

    @classmethod
    def _over(cls, field: Field, rows: Iterable[Sequence[int]], dens: Iterable[int],
              ncols: int) -> "Matrix":
        """The matrix over Q whose row i is rows[i] / dens[i] (a nonzero
        denominator of either sign), brought to the stored form by one gcd
        per row.  It serves F_p too, where the kernel's reduced rows, read
        over their pivot entries, come with unit denominators (every pivot
        is scaled to 1): there each denominator must be 1 and the rows
        canonical residues, taken as they are."""
        out, outd = [], []
        for r, d in zip(rows, dens):
            if d != 1:
                g = gcd(d, *r)
                if d < 0:
                    g = -g
                if g != 1:
                    r = [x // g for x in r]
                    d //= g
            out.append(r)
            outd.append(d)
        return cls._of(field, out, ncols, outd)

    @staticmethod
    def zeros(field: Field, m: int, n: int) -> "Matrix":
        return Matrix._of(field, [(0,) * n] * m, n)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix._of(field, [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)], n)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(map(any, self._rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
            and self._dens == other._dens
        )

    __hash__ = None

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The entries as field elements, row by row; over Q built anew at
        each read."""
        if self._dens is None:
            return self._rows
        return tuple(map(self.row, range(self.nrows)))

    def row(self, i):
        r = self._rows[i]
        if self._dens is None:
            return r
        d = self._dens[i]
        return tuple(map(Fraction, r)) if d == 1 else tuple(Fraction(x, d) for x in r)

    def __getitem__(self, ij):
        i, j = ij
        x = self._rows[i][j]
        return x if self._dens is None else Fraction(x, self._dens[i])

    def col(self, j):
        return tuple(self[i, j] for i in range(self.nrows))

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        p = f.p
        if p is not None:
            return Matrix._of(f, [[x % p for x in map(op, ra, rb)]
                                  for ra, rb in zip(self._rows, other._rows)], self.ncols)
        rows, dens = [], []
        for ra, rb, da, db in zip(self._rows, other._rows, self._dens, other._dens):
            if da == db:
                rows.append(list(map(op, ra, rb)))
            else:
                d = lcm(da, db)
                sa, sb = d // da, d // db
                rows.append([op(x * sa, y * sb) for x, y in zip(ra, rb)])
                da = d
            dens.append(da)
        return Matrix._over(f, rows, dens, self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def __neg__(self) -> "Matrix":
        p = self.field.p
        if p is None:  # negation keeps every row in lowest terms
            return Matrix._of(self.field, [[-x for x in r] for r in self._rows], self.ncols,
                              self._dens)
        return Matrix._of(self.field, [[-x % p for x in r] for r in self._rows], self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        f = self.field
        if self.ncols != other.nrows or f != other.field:
            raise ValueError(f"shape or field mismatch {f!r} {self.nrows}x{self.ncols}"
                             f" * {other.field!r} {other.nrows}x{other.ncols}")
        p = f.p
        n = other.ncols
        if p is not None and n >= _PACK_MIN:
            # a product row is one sum of the right factor's packed rows,
            # other.nrows terms per slot
            w = _slot_bits(p, other.nrows)
            packed = [_pack(r, w) for r in other._rows]
            return Matrix._of(f, [_unpack(sum(map(mul, r, packed)), n, w, p) for r in self._rows],
                              n)
        right, den = (other._rows, 1) if p is not None else _common(other)
        cols = list(zip(*right)) if other.nrows else [()] * other.ncols
        if p is not None:
            return Matrix._of(f, [[sum(map(mul, r, c)) % p for c in cols] for r in self._rows],
                              other.ncols)
        return Matrix._over(f, [[sum(map(mul, r, c)) for c in cols] for r in self._rows],
                            [d * den for d in self._dens], other.ncols)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.convert(c)
        p = f.p
        if p is not None:
            return Matrix._of(f, [[c * x % p for x in r] for r in self._rows], self.ncols)
        a, b = c.numerator, c.denominator
        return Matrix._over(f, [[a * x for x in r] for r in self._rows],
                            [d * b for d in self._dens], self.ncols)

    def transpose(self) -> "Matrix":
        f = self.field
        if f.p is not None:
            return Matrix._of(f, zip(*self._rows) if self._rows else [()] * self.ncols, self.nrows)
        rows, den = _common(self)
        return Matrix._over(f, zip(*rows) if rows else [()] * self.ncols, [den] * self.ncols,
                            self.nrows)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        ri, ci = list(row_idx), list(col_idx)
        rows = [[r[j] for j in ci] for r in map(self._rows.__getitem__, ri)]
        if self._dens is None:
            return Matrix._of(self.field, rows, len(ci))
        # dropping columns can leave a common factor in a row
        return Matrix._over(self.field, rows, [self._dens[i] for i in ri], len(ci))

    def apply_to_vec(self, v: Sequence):
        """Matrix-vector product A·v with v a plain coefficient sequence."""
        return (self * Matrix(self.field, [(x,) for x in v], ncols=1)).col(0)

    def to_lists(self):
        return [list(r) for r in self.rows]

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols or self.field != other.field:
            raise ValueError("shape or field mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(self.field.to_str(x) for x in r) for r in self.rows)
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols}: [{body}])"


def _common(A: Matrix) -> tuple[Sequence[Sequence[int]], int]:
    """The rows of A over Q as integers over one denominator, the lcm of its
    row denominators, and that denominator."""
    den = lcm(*A._dens)
    if den == 1:
        return A._rows, 1
    rows = []
    for r, d in zip(A._rows, A._dens):
        s = den // d
        rows.append(r if s == 1 else [x * s for x in r])
    return rows, den


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.ncols != bottom.ncols or top.field != bottom.field:
        raise ValueError("vstack mismatch")
    dens = None if top._dens is None else top._dens + bottom._dens
    return Matrix._of(top.field, top._rows + bottom._rows, top.ncols, dens)


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if left.nrows != right.nrows or left.field != right.field:
        raise ValueError("hstack mismatch")
    ncols = left.ncols + right.ncols
    if left._dens is None:
        return Matrix._of(left.field, [a + b for a, b in zip(left._rows, right._rows)], ncols)
    # over the lcm of the two denominators the joined row stays in lowest terms
    rows, dens = [], []
    for a, b, da, db in zip(left._rows, right._rows, left._dens, right._dens):
        if da != db:
            d = lcm(da, db)
            sa, sb = d // da, d // db
            a, b, da = [x * sa for x in a], [x * sb for x in b], d
        rows.append([*a, *b])
        dens.append(da)
    return Matrix._of(left.field, rows, ncols, dens)


def direct_sum(parts: list[Matrix], field: Field | None = None) -> Matrix:
    """Block diagonal sum; the empty list gives the 0x0 matrix."""
    if not parts:
        return Matrix(field if field is not None else QQ, [], ncols=0)
    f = parts[0].field
    if any(p.field != f for p in parts):
        raise ValueError("direct_sum over mixed fields")
    if any(not p.is_square for p in parts):
        raise ValueError("direct_sum needs square parts")
    n = sum(p.nrows for p in parts)
    # zero padding keeps each stored row in lowest terms over its denominator
    rows, dens = [], []
    off = 0
    for p in parts:
        rows += [(0,) * off + r + (0,) * (n - off - p.ncols) for r in p._rows]
        dens += p._dens or ()
        off += p.nrows
    return Matrix._of(f, rows, n, dens)


def kron(A: Matrix, B: Matrix) -> Matrix:
    """The Kronecker product A ⊗ B: row (r, i) holds a·row i of B for each
    entry a of row r of A."""
    f = A.field
    if f != B.field:
        raise ValueError("kron over mixed fields")
    ncols = A.ncols * B.ncols
    p = f.p
    if p is not None:
        return Matrix._of(f, [[a * b % p for a in ra for b in rb]
                              for ra in A._rows for rb in B._rows], ncols)
    # two rows in lowest terms can give one that is not: (2)/3 ⊗ (3)/2 = (6)/6
    return Matrix._over(f, [[a * b for a in ra for b in rb] for ra in A._rows for rb in B._rows],
                        [da * db for da in A._dens for db in B._dens], ncols)


# Over F_p a product packs the right factor's rows when they are at least
# this wide: on a 2-vCPU x86 host with Python 3.11 a packed product took
# 0.84-1.1x the per-entry loop's time at width 4, 0.56-0.79x at width 8 and
# 0.43-0.63x at width 12, square and random over F_3 to F_(2^61 - 1).
_PACK_MIN = 8

# the array typecodes of the byte-aligned slot widths, 16, 32 and 64 bits,
# which pack and unpack through bytes; other widths go by shifts
_SLOT_CODES = {array(c).itemsize * 8: c for c in "HIQ"}


def _pack_rows(p: int) -> tuple[int, float]:
    """The fewest updates a row must be able to take (rows and columns of
    the forward pass, pivots of the backward pass) for the forward and for
    the backward elimination pass over F_p to pack.

    The loop skips a row whose multiplier is 0, a 1/p share of them, while
    the packed pass shifts every row to read its multiplier.  In the
    backward pass the pivots with the most rows to clear sit furthest
    right, where the loop's updates are shortest.  So packing pays later
    for small p and in the backward pass.  Measured on square random
    matrices (host as above), packed over loop time falls below 1 for the
    forward pass at 14 rows over F_3, 10 over F_5 and F_7 and 6-8 over
    larger p; for the backward pass at 14-16 pivots over F_3 and F_5 and
    at 12 over F_7 to F_(2^24 - 3).  Over wider p the backward pass needs
    more pivots (14 at 30 bits, 16-20 at 31, 20-24 at 61, over 28 at 82),
    so there it does not pack.
    """
    b = p.bit_length()
    if b == 2:
        return 14, 16
    if b == 3:
        return 10, 14
    return 8, 12 if b <= 24 else inf


def _slot_bits(p: int, k: int) -> int:
    """The slot width w for residues mod p and k updates or product terms
    per row: the least of 16, 32 and 64, else the least width at all, with
    (p - 1) + k·(p - 1)^2 < 2^w (see the module docstring)."""
    need = ((p - 1) + k * (p - 1) ** 2).bit_length()
    return next((w for w in _SLOT_CODES if w >= need), need)


def _pack(row: Sequence[int], w: int) -> int:
    """The row's entries as one int of w-bit slots, the first entry in the
    top slot, so that entry j of a row of width n sits at bit w·(n-1-j)."""
    code = _SLOT_CODES.get(w)
    if code:
        return int.from_bytes(array(code, row[::-1]).tobytes(), byteorder)
    P = 0
    for x in row:
        P = (P << w) | x
    return P


def _unpack(P: int, n: int, w: int, p: int, c: int = 1) -> list[int]:
    """The low n slots of P, each times c and reduced mod p.  The slots
    above them need not be 0: a pivot row holds multiples of p there."""
    code = _SLOT_CODES.get(w)
    if code:
        slots = array(code, (P & ((1 << w * n) - 1)).to_bytes(w * n >> 3, byteorder))
        slots.reverse()
        return [x * c % p for x in slots]
    mask = (1 << w) - 1
    return [(P >> s & mask) * c % p for s in range(w * (n - 1), -1, -w)]


def _eliminate(rows: list[list[int]], ncols: int, p: int | None) -> tuple[list[int], int, list]:
    """Forward pass: bring integer rows to echelon form in place; return
    (pivot columns, num, log).

    Over F_p each pivot row is scaled to a leading 1.  When a row can take
    at least the forward `_pack_rows`(p) updates (min(m, ncols) of them),
    the pass runs on packed rows (see the module docstring); otherwise each
    row update is reduced mod p entry by entry.

    Over Q a row update is fraction-free: row ←
    (a·row − b·pivot_row) / h with a/b the pivot over the row's entry in
    lowest terms and h the content of the result.  The row then stays the
    primitive integer vector along the corresponding row of Gaussian
    elimination, so entries never outgrow Bareiss's minors (Math. Comp. 22
    (1968)) and shrink wherever the rational entries cancel.

    Row i < rank then holds a multiple of row i of an echelon form; the rows
    below are zero.  num is the sign of the row swaps, times the pivots
    scaled away over F_p.  log holds (h, a) for each row update over Q, which
    multiplied the determinant by a/h.  Only `det` reads num and log: it
    undoes the logged updates in batches of n, each in lowest terms.
    """
    if p is not None and min(len(rows), ncols) >= _pack_rows(p)[0]:
        return _eliminate_packed(rows, ncols, p)
    m = len(rows)
    piv: list[int] = []
    num, log = 1, []
    for c in range(ncols):
        r = len(piv)
        if r == m:
            break
        src = next((i for i in range(r, m) if rows[i][c]), None)
        if src is None:
            continue
        if src != r:
            rows[r], rows[src] = rows[src], rows[r]
            num = -num
        prow = rows[r]
        pv = prow[c]
        if p is not None and pv != 1:
            num = num * pv % p
            inv = pow(pv, -1, p)
            prow = rows[r] = [x * inv % p for x in prow]
        tail = prow[c:]
        for i in range(r + 1, m):
            row = rows[i]
            f = row[c]
            if not f:
                continue
            if p is not None:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            # entries left of c are zero in the pivot row and in row i
            new = [a * x - b * y for x, y in zip(row[c:], tail)]
            h = gcd(*new)
            row[c:] = [x // h for x in new] if h > 1 else new
            log.append((h, a))
        piv.append(c)
    return piv, num, log


def _eliminate_packed(rows: list[list[int]], ncols: int, p: int) -> tuple[list[int], int, list]:
    """The forward pass of `_eliminate` over F_p on packed rows."""
    m = len(rows)
    w = _slot_bits(p, min(m, ncols))
    mask = (1 << w) - 1
    packed = [_pack(r, w) for r in rows]
    piv: list[int] = []
    num = 1
    for c in range(ncols):
        r = len(piv)
        if r == m:
            break
        s = w * (ncols - 1 - c)
        src = next((i for i in range(r, m) if (packed[i] >> s & mask) % p), None)
        if src is None:
            continue
        if src != r:
            packed[r], packed[src] = packed[src], packed[r]
            num = -num
        pv = (packed[r] >> s & mask) % p
        if pv != 1:
            num = num * pv % p
        _clear_packed(packed, rows, r, c, range(r + 1, m), w, p, pow(pv, -1, p))
        piv.append(c)
    rows[len(piv):] = [[0] * ncols for _ in range(m - len(piv))]
    return piv, num, []


def _clear_packed(packed: list[int], rows: list[list[int]], r: int, c: int,
                  targets: range, w: int, p: int, inv: int) -> None:
    """Unpack row r, pivot at column c, times inv into rows[r] and clear
    column c from the packed rows in targets.  Row r's slots left of c are
    0 mod p, as are those of the targets left of c."""
    n = len(rows[r])
    negs = _unpack(packed[r], n - c, w, p, -inv)
    rows[r] = [0] * c + [-x % p for x in negs]
    neg = _pack(negs, w)
    s = w * (n - 1 - c)
    mask = (1 << w) - 1
    for i in targets:
        f = (packed[i] >> s & mask) % p
        if f:
            packed[i] += f * neg


def _back_substitute(rows: list[list[int]], piv: list[int], p: int | None) -> None:
    """Backward pass after `_eliminate`: clear the entries above each pivot,
    last pivot first, with the same row updates.  Row i < rank then holds a
    multiple of row i of the reduced echelon form (exactly that row over
    F_p): the row space vector with these pivot coordinates is unique up to
    scale.  Over F_p the pass runs on packed rows when there are at least
    the backward `_pack_rows`(p) pivots."""
    if p is not None and len(piv) >= _pack_rows(p)[1]:
        _back_substitute_packed(rows, piv, p)
        return
    for r in range(len(piv) - 1, 0, -1):
        c = piv[r]
        prow = rows[r]
        pv = prow[c]
        tail = prow[c:]
        for i in range(r):
            row = rows[i]
            f = row[c]
            if not f:
                continue
            if p is not None:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            # row i is zero left of its own pivot, the pivot row left of c
            lo = piv[i]
            new = [a * x for x in row[lo:c]] + [a * x - b * y for x, y in zip(row[c:], tail)]
            h = gcd(*new)
            if h > 1:
                new = [x // h for x in new]
            row[lo:] = new


def _back_substitute_packed(rows: list[list[int]], piv: list[int], p: int) -> None:
    """The backward pass of `_back_substitute` over F_p on packed rows."""
    w = _slot_bits(p, len(piv))
    packed = [_pack(rows[i], w) for i in range(len(piv))]
    # row r is final when its turn comes: no update touches a slot left of
    # a row's pivot
    for r in range(len(piv) - 1, -1, -1):
        _clear_packed(packed, rows, r, piv[r], range(r), w, p, 1)


def pivots(A: Matrix) -> list[int]:
    """The pivot columns of A's echelon form, from the forward pass alone."""
    return _eliminate(list(map(list, A._rows)), A.ncols, A.field.p)[0]


def _reduced(A: Matrix) -> tuple[list[list[int]], list[int]]:
    """A's rows after the forward and the backward pass, and the pivot
    columns: row i < rank is a multiple of row i of the reduced form."""
    rows = list(map(list, A._rows))
    piv = _eliminate(rows, A.ncols, A.field.p)[0]
    _back_substitute(rows, piv, A.field.p)
    return rows, piv


def rank(A: Matrix) -> int:
    """Rank over the matrix's field, by exact fraction-free elimination."""
    return len(pivots(A))


# The image over Q: the prime, the largest below 2^16, and the least
# min(m, n) at which it is taken.  On a 2-vCPU x86 host with Python 3.11 and
# square integer matrices with 11-bit entries, the image took 0.7-1.0x the
# time of the exact forward pass at 6x6 to 8x8, 0.5-0.6x at 9x9 and 10x10,
# 0.4x at 12x12 and 0.14x at 24x24 (0.4 against 3.0 ms).  Mod 2^31 - 1, with
# wider slots, it took 1.3-1.6x as long as mod 65521.  An image that comes
# out deficient adds its whole cost to the exact pass that follows, so it is
# taken only where it costs about half that pass or less.
_IMAGE_P = 65521
_IMAGE_MIN = 10


def _image_rank(A: Matrix) -> int | None:
    """The rank of A's stored integer rows mod _IMAGE_P; None over F_p and
    for an A smaller than _IMAGE_MIN, where no image is taken."""
    if A._dens is None or min(A.nrows, A.ncols) < _IMAGE_MIN:
        return None
    rows = [[x % _IMAGE_P for x in r] for r in A._rows]
    return len(_eliminate(rows, A.ncols, _IMAGE_P)[0])


def full_rank(A: Matrix) -> bool:
    """Whether rank(A) == min(A.nrows, A.ncols).  Over Q from _IMAGE_MIN
    on, a full-rank image mod _IMAGE_P proves it (see the module docstring)
    and only a deficient one leaves it to the exact elimination, which
    decides everywhere else."""
    k = min(A.nrows, A.ncols)
    return _image_rank(A) == k or rank(A) == k


def rref(A: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows, piv = _reduced(A)
    # each row over its pivot entry; the rows below the rank are zero
    dens = [row[c] for row, c in zip(rows, piv)] + [1] * (A.nrows - len(piv))
    return Matrix._over(A.field, rows, dens, A.ncols), piv


def nullspace(A: Matrix) -> Matrix:
    """Right null space basis, returned as the columns of an n x k matrix:
    the basis vector of free column j has a 1 at j, zeros on the other free
    columns and minus column j of the reduced echelon form on the pivots.
    A full column rank input takes the forward pass only, over Q on the
    image mod _IMAGE_P when that has full column rank."""
    f = A.field
    n = A.ncols
    if A.nrows >= n and _image_rank(A) == n:
        return Matrix._of(f, [()] * n, 0)
    rows = list(map(list, A._rows))
    piv = _eliminate(rows, n, f.p)[0]
    if len(piv) == n:
        return Matrix._of(f, [()] * n, 0)
    _back_substitute(rows, piv, f.p)
    on_pivot = set(piv)
    free = [j for j in range(n) if j not in on_pivot]
    basis = [[int(j == fv) for fv in free] for j in range(n)]
    p = f.p
    if p is not None:
        for row, pc in zip(rows, piv):
            basis[pc] = [-row[fv] % p for fv in free]
        return Matrix._of(f, basis, len(free))
    dens = [1] * n
    for row, pc in zip(rows, piv):
        basis[pc] = [-row[fv] for fv in free]
        dens[pc] = row[pc]
    return Matrix._over(f, basis, dens, len(free))


def solve(A: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of A·X = b (free variables set to zero), or None.
    It is read off the reduced rows of [A | b]: row piv[i] of X is the part
    of row i right of A's columns, over its pivot entry."""
    if A.nrows != b.nrows:
        raise ValueError("solve shape mismatch")
    n, k = A.ncols, b.ncols
    rows, piv = _reduced(hstack(A, b))
    # a pivot in the augmented part means the system is inconsistent
    if piv and piv[-1] >= n:
        return None
    out = [[0] * k for _ in range(n)]
    dens = [1] * n
    for row, c in zip(rows, piv):
        out[c] = row[n:]
        dens[c] = row[c]
    return Matrix._over(A.field, out, dens, k)


def inverse(A: Matrix) -> Matrix:
    """Exact two-sided inverse, the solution of A X = I, read off one
    reduced elimination of [A | I]; raises SingularMatrixError."""
    n = A.nrows
    if not A.is_square:
        raise ValueError("inverse: A^-1 C needs a square A and C with its rows")
    X = solve(A, Matrix.identity(A.field, n))
    if X is None:  # A X = I is consistent exactly when A is nonsingular
        raise SingularMatrixError(f"inverse: singular {n}x{n} matrix")
    return X


def det(A: Matrix):
    """Exact determinant by fraction-free elimination; det(0x0) = 1."""
    if not A.is_square:
        raise ValueError("determinant of a non-square matrix")
    f = A.field
    rows = list(map(list, A._rows))
    piv, num, log = _eliminate(rows, A.ncols, f.p)
    if len(piv) < A.nrows:
        return f.zero()
    d = prod(row[c] for row, c in zip(rows, piv)) * num
    if f.p is not None:
        return d % f.p
    n = max(A.nrows, 1)  # undo the logged updates n at a time, in lowest terms
    parts = [zip(*log[i:i + n]) for i in range(0, len(log), n)]
    return prod((Fraction(prod(h), prod(a)) for h, a in parts),
                start=Fraction(d, prod(A._dens)))


class Poly:
    """Dense univariate polynomial, coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence):
        conv = field.convert
        cs = [conv(c) for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly(field, [])

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly(field, [field.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self):
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(f)
        out = [f.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly(f, out)

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.convert(c)
        return Poly(f, [f.mul(c, a) for a in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        # repeated multiplication is plenty at the sizes we build
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one(self.field)
        for _ in range(k):
            out = out * self
        return out

    def eval(self, c):
        f = self.field
        c = f.convert(c)
        acc = f.zero()
        for a in reversed(self.coeffs):
            acc = f.add(f.mul(acc, c), a)
        return acc

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """(q, r) with self = q·other + r and deg r < deg other."""
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [f.zero()] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        inv_lead = f.inv(other.leading())
        while len(rem) >= len(d) and rem:
            coef = f.mul(rem[-1], inv_lead)
            pos = len(rem) - len(d)
            q[pos] = coef
            for i, c in enumerate(d):
                rem[pos + i] = f.sub(rem[pos + i], f.mul(coef, c))
            while rem and f.is_zero(rem[-1]):
                rem.pop()
        return Poly(f, q), Poly(f, rem)

    def to_str(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        f = self.field
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if f.is_zero(c):
                continue
            if i == 0:
                parts.append(f.to_str(c))
            else:
                xs = var if i == 1 else f"{var}^{i}"
                parts.append(xs if c == f.one() else f"{f.to_str(c)}*{xs}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.field!r}, {self.to_str()})"


def det_poly(A: Matrix, B: Matrix) -> Poly:
    """det(A + t·B) as an exact polynomial in t, read off `det` at the n + 1
    points t = 0, 1, ..., n by one solve against their Vandermonde matrix
    over Q.  An F_p pencil is lifted to its residues as integers first: det
    is an integer polynomial in the entries, so the coefficients reduce mod
    p at the end, and the points stay distinct when p <= n.  The zero
    polynomial signals a singular pencil."""
    if not A.is_square or not B.is_square:
        raise ValueError("det_poly needs square matrices")
    A._same_shape(B)
    f = A.field
    n = A.nrows
    if f.p is not None:
        A, B = Matrix._of(QQ, A._rows, n), Matrix._of(QQ, B._rows, n)
    V = Matrix(QQ, [[t ** k for k in range(n + 1)] for t in range(n + 1)])
    D = Matrix(QQ, [[det(A + B.scale(t))] for t in range(n + 1)])
    return Poly(f, solve(V, D).col(0))


def pencil_rank_sequence(A: Matrix, C: Matrix) -> list[int]:
    """[r_0, ..., r_{n+1}] with r_k = rank((A^{-1} C)^k) for n x n A and C,
    A nonsingular (not checked here), with no matrix power and no rank of
    an n x n matrix.

    ker (A^{-1} C)^k is W_k of the pencil's Wong sequence W_0 = 0,
    W_{k+1} = C^{-1}(A W_k) (Berger, Ilchmann & Trenn, SIAM J. Matrix Anal.
    Appl. 33 (2012)), so r_k = n - dim W_k.  One reduced elimination of
    [C | A] leaves rows E[C | A]: the first rho = rank C rows hold the
    reduced form of C and T A, the rows below 0 and L A with L C = 0.  Then
    C x = A w is solvable exactly when L A w = 0, and its solution with the
    free coordinates 0 has x_j = (T A w)_i over the pivot entry on pivot j
    of row i.  W_1 = ker C, and W_{k+1} adds to W_k that solution for
    w = W_k c, c a null space vector of L A W_k whose free column lies in
    W_k's newest block: one of an older block solves for a w in W_{k-1},
    whose solution lies in W_k already.  So r_{k+1} = r_k minus the number
    of new vectors, and the sequence is constant once there are none.  W
    itself is never stored, only the columns E A x of its vectors x, each
    made primitive over Q (scaling x keeps W).

    C = 0 and a nonsingular C take no elimination of [C | A]: C's forward
    pass (over Q from _IMAGE_MIN on, that of its image mod _IMAGE_P) finds
    the latter.  A skew C of odd order skips that pass: det C = det(-C^T)
    = -det C, so C is singular in odd characteristic.
    """
    n = A.nrows
    if not (A.is_square and C.is_square) or C.nrows != n or A.field != C.field:
        raise ValueError("pencil_rank_sequence needs square A and C of one size and field")
    if C.is_zero():
        return [n] + [0] * (n + 1)
    # a nonsingular C is found by C's own forward pass (or image), not by
    # one over the twice as wide [C | A]; a skew C of odd order needs none
    if not (n % 2 and C == -C.transpose()):
        r = _image_rank(C)
        if (rank(C) if r is None else r) == n:
            return [n] * (n + 2)
    p = A.field.p
    rows = list(map(list, hstack(C, A)._rows))
    piv = _eliminate(rows, 2 * n, p)[0]
    rho = bisect_left(piv, n)
    top = piv[:rho]
    _back_substitute(rows, top, p)
    # E A x for x zero off C's pivots, x_{top[i]} = t_i / pv_i, is ea·t / m,
    # with m the lcm of the pivot entries pv_i (1 over F_p)
    pv = [row[c] for row, c in zip(rows, top)]
    m = lcm(*pv)
    ea = [[r[n + c] * (m // d) for c, d in zip(top, pv)] for r in rows]

    def image(t, j=None):
        """E A x for that x, plus m times E A's column j; primitive over Q."""
        y = [sum(map(mul, r, t)) for r in ea]
        if j is not None:
            y = [m * r[n + j] - x for r, x in zip(rows, y)]
        if p is not None:
            return [x % p for x in y]
        g = gcd(*y)
        return [x // g for x in y] if g > 1 else y

    # W_1 = ker C: free column j of C's reduced form, minus that column on the pivots
    on_pivot = set(top)
    cols = [image([rows[i][j] for i in range(rho)], j) for j in range(n) if j not in on_pivot]
    seq = [n, rho]
    old = 0
    while seq[-1]:
        width = len(cols)
        law = [[y[i] for y in cols] for i in range(rho, n)]
        q = _eliminate(law, width, p)[0]
        on_pivot = set(q)
        new = [j for j in range(old, width) if j not in on_pivot]
        if not new:
            break
        _back_substitute(law, q, p)
        for j in new:
            # the null space vector of free column j, as (coefficient, column)
            terms = [(law[i][j], i) for i in range(len(q)) if law[i][j]]
            e = lcm(*(law[i][q[i]] for _, i in terms))
            c = [(e, j)] + [(-a * (e // law[i][q[i]]), q[i]) for a, i in terms]
            cols.append(image([sum(a * cols[l][i] for a, l in c) for i in range(rho)]))
        seq.append(seq[-1] - len(new))
        old = width
    return seq + [seq[-1]] * (n + 2 - len(seq))


def power_rank_sequence(P: Matrix) -> list[int]:
    """[r_0, ..., r_{m+1}] with r_k = rank(P^k) for an m x m P; r_0 = m.

    The Wong sequence of the pencil (I, P): `pencil_rank_sequence`, with no
    matrix power.
    """
    if not P.is_square:
        raise ValueError("power_rank_sequence needs a square matrix")
    return pencil_rank_sequence(Matrix.identity(P.field, P.nrows), P)
