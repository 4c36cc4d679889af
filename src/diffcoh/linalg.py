"""Exact linear algebra over the scalar rings.

Matrices are immutable and generic over a ring object from ``scalars``;
``Matrix`` keeps one ``{column: value}`` dict of nonzeros per row, and
a vector is such a row (k of them stack as a k x n ``Matrix``).
Elimination (rank, kernel, solve, column space, inverse, ``rref``) is
restricted to fields and runs one sparse echelon on those rows; its
results are those of the reduced row echelon form, which is unique, so
they do not depend on the pivot rows it picks.  A matrix keeps that
form once computed, and its rank, kernel and pivot columns read it;
``is_invertible`` only counts the pivots of an unreduced echelon.  Over
F_2 and F_3 the echelon and the products run on vectors packed into
int bitsets, and ``triangular_ranks`` eliminates the packed columns of
its matrix, not its rows.  Over Q the echelon and the products run on
rows scaled to integers, and an entry becomes a rational again by one
exact division: an int where it divides, one ``Fraction`` where it
must; over other F_p a product entry is a raw int sum reduced mod p
once.  Determinant and adjugate share one cofactor expansion and work
over any commutative ring, including jet rings; jet matrices are
inverted by eliminating the base part and summing the finite geometric
series of the nilpotent remainder.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Any, Callable, Sequence

from .scalars import JetRing, PrimeField, Rationals, rational


class LinAlgError(ValueError):
    """Raised for shape mismatches and operations outside a ring's domain."""


class Matrix:
    """An immutable exact matrix over a ring object, stored by rows: each
    row is a ``{column: value}`` dict of its nonzero entries.

    The operator matrices of the difference complexes have a handful of
    nonzeros per row, and products of jets vanish (e_i e_i = 0), so every
    operation visits stored entries only and drops any entry that becomes
    zero.  No row stores a zero, so ``==`` compares rows.  ``entries`` is
    every entry, zeros included, row by row.
    """

    __slots__ = ("ring", "nrows", "ncols", "rows", "_rref")

    def __init__(self, ring: Any, nrows: int, ncols: int, rows: Sequence[dict]) -> None:
        """``rows`` are ``{column: value}`` dicts that store no zero."""
        if nrows < 0 or ncols < 0 or len(rows) != nrows:
            raise LinAlgError(f"row count {len(rows)} != {nrows}")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)
        self._rref: tuple[list[dict], list[int]] | None = None

    @classmethod
    def from_rows(cls, ring: Any, rows: Sequence[Sequence[Any]]) -> "Matrix":
        """The matrix of dense ``rows``, over Q in canonical form."""
        ncols = len(rows[0]) if rows else 0
        zero = ring.zero
        canonical = isinstance(ring, Rationals)
        out = []
        for row in rows:
            if len(row) != ncols:
                raise LinAlgError("ragged rows")
            out.append({j: rational(x) if canonical else x for j, x in enumerate(row) if x != zero})
        return cls(ring, len(rows), ncols, out)

    @classmethod
    def identity(cls, ring: Any, n: int) -> "Matrix":
        return cls(ring, n, n, [{i: ring.one} for i in range(n)])

    @classmethod
    def zeros(cls, ring: Any, nrows: int, ncols: int) -> "Matrix":
        return cls(ring, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def block(cls, ring: Any, blocks: list[list["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a grid of blocks with consistent shapes."""
        col_widths = [b.ncols for b in blocks[0]]
        offsets = [sum(col_widths[:j]) for j in range(len(col_widths))]
        rows: list[dict] = []
        for band in blocks:
            height = band[0].nrows
            if [b.ncols for b in band] != col_widths or any(b.nrows != height for b in band):
                raise LinAlgError("inconsistent block shapes")
            for i in range(height):
                row: dict = {}
                for b, off in zip(band, offsets):
                    row.update((off + j, x) for j, x in b.rows[i].items())
                rows.append(row)
        return cls(ring, len(rows), sum(col_widths), rows)

    def at(self, i: int, j: int) -> Any:
        return self.rows[i].get(j, self.ring.zero)

    @property
    def entries(self) -> tuple:
        zero = self.ring.zero
        return tuple(row.get(j, zero) for row in self.rows for j in range(self.ncols))

    def to_lists(self) -> list[list[Any]]:
        zero = self.ring.zero
        return [[row.get(j, zero) for j in range(self.ncols)] for row in self.rows]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and other.nrows == self.nrows
            and other.ncols == self.ncols
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols}, {self.to_lists()!r})"

    def _nonzero(self, rows: list[dict], ncols: int, ring: Any = None) -> "Matrix":
        """The matrix of ``rows``, less the entries that are zero."""
        ring = self.ring if ring is None else ring
        zero = ring.zero
        return Matrix(
            ring, len(rows), ncols, [{j: x for j, x in row.items() if x != zero} for row in rows]
        )

    def _merge(self, other: "Matrix", both: Callable, alone: Callable) -> "Matrix":
        """Entrywise ``both(a, b)``, or ``alone(b)`` where self stores no a."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise LinAlgError(
                f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )
        out = []
        for mine, theirs in zip(self.rows, other.rows):
            row = dict(mine)
            for j, y in theirs.items():
                row[j] = both(row[j], y) if j in row else alone(y)
            out.append(row)
        return self._nonzero(out, self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, self.ring.add, lambda y: y)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, self.ring.sub, self.ring.neg)

    def __neg__(self) -> "Matrix":
        return self.map_entries(self.ring.neg)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise LinAlgError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        ring = self.ring
        if isinstance(ring, PrimeField):
            if ring.p <= 3:
                return Matrix(ring, self.nrows, other.ncols, _matmul_packed(ring.p, self, other))
            return Matrix(ring, self.nrows, other.ncols, _matmul_mod(ring.p, self.rows, other.rows))
        if isinstance(ring, Rationals):
            return Matrix(ring, self.nrows, other.ncols, _matmul_q(self.rows, other.rows))
        add, mul = ring.add, ring.mul
        out = []
        for left in self.rows:
            row: dict = {}
            for k, x in left.items():
                for j, y in other.rows[k].items():
                    row[j] = add(row[j], mul(x, y)) if j in row else mul(x, y)
            out.append(row)
        return self._nonzero(out, other.ncols)

    def scale(self, c: Any) -> "Matrix":
        return self.map_entries(functools.partial(self.ring.mul, c))

    def transpose(self) -> "Matrix":
        rows: list[dict] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                rows[j][i] = x
        return Matrix(self.ring, self.ncols, self.nrows, rows)

    def matvec(self, v: dict) -> dict:
        """m v, for v and m v ``{coordinate: value}`` rows."""
        _check_coordinates(v, self.ncols)
        zero, add, mul = self.ring.zero, self.ring.add, self.ring.mul
        out = {}
        for i, row in enumerate(self.rows):
            acc = zero
            for j, x in row.items():
                if j in v:
                    acc = add(acc, mul(x, v[j]))
            if acc != zero:
                out[i] = acc
        return out

    def is_zero(self) -> bool:
        return not any(self.rows)

    def trace(self) -> Any:
        if self.nrows != self.ncols:
            raise LinAlgError("trace of a non-square matrix")
        r = self.ring
        acc = r.zero
        for i, row in enumerate(self.rows):
            if i in row:
                acc = r.add(acc, row[i])
        return acc

    def map_entries(self, fn: Callable[[Any], Any], ring: Any = None) -> "Matrix":
        """fn applied to every stored entry, into ``ring`` (default: this
        one); fn must send zero to zero, as the entries it skips are."""
        return self._nonzero(
            [{j: fn(x) for j, x in row.items()} for row in self.rows], self.ncols, ring
        )


# ------------------------------------------------- packed F_2 and F_3 vectors
#
# Over F_2 and F_3 a vector is packed into int bitsets, bit j for
# coordinate j.  Over F_2 it is one int, its set bits the nonzero
# coordinates, and a sum is ``^``.  Over F_3 it is a pair (P, N) of ints,
# the coordinates that hold 1 and those that hold 2 = -1; negation swaps
# them, and a sum is a few operations on the whole ints
# (``_add_trits``).  A row update is then a handful of machine-word loops
# instead of one Python step per entry.


def _pack(p: int, row: dict) -> Any:
    """The ``{column: value}`` row over F_2 or F_3, packed."""
    pos = neg = 0
    for j, x in row.items():
        if x == 1:
            pos |= 1 << j
        else:
            neg |= 1 << j
    return pos if p == 2 else (pos, neg)


def _unpack(p: int, v: Any) -> dict:
    """The packed vector v over F_2 or F_3 as a ``{column: value}`` row,
    columns in increasing order."""
    if p == 2:
        return dict.fromkeys(_bit_columns(v), 1)
    pos, neg = v
    return {j: 1 if pos >> j & 1 else 2 for j in _bit_columns(pos | neg)}


def _packed_columns(p: int, m: Matrix) -> list:
    """The columns of m over F_2 or F_3, packed: bit i of column j holds
    entry (i, j)."""
    pos, neg = [0] * m.ncols, [0] * m.ncols
    for i, row in enumerate(m.rows):
        bit = 1 << i
        for j, x in row.items():
            if x == 1:
                pos[j] |= bit
            else:
                neg[j] |= bit
    return pos if p == 2 else list(zip(pos, neg))


def _bit_columns(r: int) -> list[int]:
    """The set bits of r, lowest first."""
    out = []
    while r:
        low = r & -r
        out.append(low.bit_length() - 1)
        r ^= low
    return out


def _add_trits(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """u + v over F_3: a coordinate is 1 where one of them is 1 and the
    other 0, or both are 2; it is 2 where the same holds with 1 and 2
    swapped."""
    (p1, n1), (p2, n2) = u, v
    return (p1 ^ p2) & ~(n1 | n2) | n1 & n2, (n1 ^ n2) & ~(p1 | p2) | p1 & p2


def _trit_weight(v: tuple[int, int]) -> int:
    return (v[0] | v[1]).bit_count()


def _reduce_bits(r: int, pivots: dict) -> tuple[int, int]:
    """(c, r) for the F_2 vector r reduced against ``pivots`` until its
    leftmost column c has no pivot row; c = -1 when r reduces to zero."""
    while r:
        c = (r & -r).bit_length() - 1
        prow = pivots.get(c)
        if prow is None:
            return c, r
        r ^= prow
    return -1, r


def _reduce_trits(v: tuple[int, int], pivots: dict) -> tuple[int, tuple[int, int]]:
    """``_reduce_bits`` over F_3; the vector returned has a leading one."""
    pos, neg = v
    s = pos | neg
    while s:
        low = s & -s
        c = low.bit_length() - 1
        prow = pivots.get(c)
        if prow is None:
            return c, ((pos, neg) if pos & low else (neg, pos))
        # subtract the entry at c times prow: add prow for a 2, -prow for
        # a 1; the sum of ``_add_trits``, inlined in this hot loop
        p2, n2 = prow if neg & low else prow[::-1]
        pos, neg = (pos ^ p2) & ~(neg | n2) | neg & n2, (neg ^ n2) & ~(pos | p2) | pos & p2
        s = pos | neg
    return -1, v


# ---------------------------------------------------------------- products
#
# Over F_2 and F_3 column j of a @ b is summed from the packed columns
# of a, b[k][j] times column k for each entry of b, and only the nonzero
# entries of the sums are unpacked, so a product that vanishes, such as
# d_B d_B, stores nothing.  Over other F_p and over Q a product entry is
# summed in plain ints and brought to its canonical form once.  Over F_p
# the raw products are added and the sum is reduced mod p.  Over Q each row of the left factor is scaled to
# integers by the lcm s of its denominators, and the right factor by the
# lcm t of all of its denominators; an entry is then an integer sum v
# over s t, which is the int v // (s t) where the division is exact and
# one ``Fraction`` otherwise.  A row or factor of ints has scale 1 and is
# not rewritten.  Other rings run the generic loop over ring operations.


def _int_sums(row: dict, right: Sequence[dict]) -> dict:
    """The entries of row @ right as raw int sums, zeros included."""
    acc: dict = {}
    for k, x in row.items():
        for j, y in right[k].items():
            acc[j] = acc[j] + x * y if j in acc else x * y
    return acc


def _matmul_mod(p: int, left: Sequence[dict], right: Sequence[dict]) -> list[dict]:
    out = []
    for lrow in left:
        row = {}
        for j, v in _int_sums(lrow, right).items():
            v %= p
            if v:
                row[j] = v
        out.append(row)
    return out


def _matmul_packed(p: int, a: Matrix, b: Matrix) -> list[dict]:
    """The rows of a @ b over F_2 or F_3: column j is the sum over k of
    b[k][j] times column k of a, on packed columns."""
    cols = _packed_columns(p, a)
    add = operator.xor if p == 2 else _add_trits
    acc: dict = {}
    for k, row in enumerate(b.rows):
        col = cols[k]
        for j, x in row.items():
            term = col if x == 1 else col[::-1]
            acc[j] = add(acc[j], term) if j in acc else term
    out: list[dict] = [{} for _ in range(a.nrows)]
    for j in sorted(acc):
        for i, x in _unpack(p, acc[j]).items():
            out[i][j] = x
    return out


def _scaled_row(row: dict) -> tuple[dict, int]:
    """(r, s) with r = s * row an integer row, s the lcm of the
    denominators of a rational row; a row of ints is r itself, s = 1."""
    for x in row.values():
        if x.__class__ is not int:
            break
    else:
        return row, 1
    s = math.lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (s // x.denominator) for j, x in row.items()}, s


def _quotient(v: int, d: int) -> int | Fraction:
    """v / d in canonical form: the int quotient where d divides v."""
    return v // d if v % d == 0 else Fraction(v, d)


def _matmul_q(left: Sequence[dict], right: Sequence[dict]) -> list[dict]:
    scaled = [_scaled_row(row) for row in right]
    t = math.lcm(*(s for _, s in scaled))
    right = [r if s == t else {j: v * (t // s) for j, v in r.items()} for r, s in scaled]
    out = []
    for lrow in left:
        lrow, s = _scaled_row(lrow)
        d = s * t
        sums = _int_sums(lrow, right)
        out.append({j: v if d == 1 else _quotient(v, d) for j, v in sums.items() if v})
    return out


def _check_coordinates(v: dict, n: int) -> None:
    if any(not 0 <= j < n for j in v):
        raise LinAlgError(f"vector has a coordinate outside 0..{n - 1}")


def _require_field(ring: Any, what: str) -> None:
    if not getattr(ring, "is_field", False):
        raise LinAlgError(f"{what} requires a field, got {ring!r}")


# ------------------------------------------------------------ elimination
#
# One sparse echelon serves every elimination; it reads the
# ``{column: value}`` rows of a ``Matrix`` as they are stored.  Rows are
# inserted one at a time, band by band and fewest nonzeros first within
# a band (a plain matrix is one band), and each is reduced against the
# pivot rows found so far, leftmost column ``min(row)`` first; a row
# whose leftmost surviving column has no pivot yet becomes the pivot row
# there.  A pivot row has no column left of its pivot, so a reduction
# only changes columns right of the one it clears.  The pivot rows are an
# echelon basis of the rows inserted so far, and the leading columns of
# any echelon basis of a row space are those of its reduced row echelon
# form; back substitution yields that form itself, which is unique: it
# does not depend on which rows were chosen as pivots, so kernels,
# solutions and column-space bases are the same as with any other pivot
# rule.  ``rref`` keeps that form on the matrix for rank, kernel and
# pivot columns; only ``triangular_ranks`` runs its own banded echelon.
#
# A band may carry an upper bound on the rank of the rows through it,
# such as rank d_n <= dim C^n - rank d_{n-1} for a differential with
# d_n d_{n-1} = 0.  The pivots never outnumber that rank, so once they
# reach the bound they span every row through the band: its remaining
# rows are dependent and are not inserted, and the pivot columns, with
# every count read off them, are those of the full echelon.  A bound
# that is not reached stops nothing.
#
# A row reduction ``combine(row, c, prow)`` removes column c from row
# using the pivot row prow, in place.
# Over a field the pivot rows are scaled to a leading one; over F_p the
# entries are ints in [0, p) and the update is inlined modular integer
# arithmetic.  Over Q the rows are integers after clearing denominators
# and are combined fraction-free, a * row - b * prow divided by its
# content; the entries become rationals again, in canonical form, only in
# the reduced form.  Over F_2 and F_3 the rows are packed
# (``_echelon_packed``): a row's leftmost column is the lowest set bit of
# its support, a reduction is one packed sum with the pivot row or its
# negation, and rows become ``{column: value}`` dicts again only in the
# reduced form.
#
# ``triangular_ranks`` over F_2 and F_3 eliminates the packed columns of
# m = [[X, 0], [K, Y]], the rows of its transpose, whose bits are the
# rows of m.  The columns of Y are those of [0; Y], so the pivots they
# make number rank Y.  Every echelon basis of the column space of m has
# the same pivot bits, and those among the rows of X number the rank of
# its projection onto those rows, which is the column space of X.  Over
# other fields the rows of m are eliminated: a dict-row reduction costs
# one Python step per entry, and eliminating the columns of d_B, five to
# eleven times longer than its rows, measured slower; packed, a long
# column costs little more than a short one.


def _combine_field(f: Any, row: dict, c: int, prow: dict) -> None:
    x = row.pop(c)
    zero, sub, mul = f.zero, f.sub, f.mul
    for j, y in prow.items():
        if j == c:
            continue
        v = row.get(j)
        if v is None:
            row[j] = f.neg(mul(x, y))
        else:
            v = sub(v, mul(x, y))
            if v == zero:
                del row[j]
            else:
                row[j] = v


def _combine_mod(p: int, row: dict, c: int, prow: dict) -> None:
    x = p - row.pop(c)
    for j, y in prow.items():
        if j == c:
            continue
        v = row.get(j)
        if v is None:
            row[j] = x * y % p
        else:
            v = (v + x * y) % p
            if v:
                row[j] = v
            else:
                del row[j]


def _combine_int(row: dict, c: int, prow: dict) -> None:
    b = row.pop(c)
    a = prow[c]
    g = math.gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, y in prow.items():
        if j == c:
            continue
        v = row.get(j)
        if v is None:
            row[j] = -b * y
        else:
            v -= b * y
            if v:
                row[j] = v
            else:
                del row[j]
    if a != 1 and row:
        g = math.gcd(*row.values())
        if g != 1:
            for j in row:
                row[j] //= g


def _integer_row(row: dict) -> dict:
    """A rational row scaled to coprime integers, as a new dict."""
    ints, _ = _scaled_row(row)
    g = math.gcd(*ints.values())
    return {j: v // g for j, v in ints.items()}


def _echelon_rows(
    f: Any,
    bands: Sequence[Sequence[dict]],
    reduced: bool,
    bounds: Sequence[float] | None = None,
) -> tuple[dict[int, Any], list[int]]:
    """Pivot column -> pivot row of an echelon form of the matrix over f
    whose ``{column: value}`` rows are those of ``bands``, inserted band
    by band, and the number of pivot rows each band made.

    With ``reduced``, the pivot rows are those of the reduced row echelon
    form, ``{column: value}`` dicts with a leading one.  Without it they
    stay in the echelon's working form (integer rows over Q, int bitsets
    over F_2), and only the pivot columns are meant to be read.
    ``bounds``, one per band, are upper bounds on the rank of the rows
    through each band: a band stops inserting its rows once the pivots
    number its bound, which leaves out only dependent rows.  The given
    rows are not modified."""
    _require_field(f, "elimination")
    if bounds is None:
        bounds = [math.inf] * len(bands)
    if isinstance(f, PrimeField) and f.p <= 3:
        packed = [[_pack(f.p, row) for row in band] for band in bands]
        return _echelon_packed(f.p, packed, reduced, bounds)
    if isinstance(f, Rationals):
        fresh = _integer_row
        combine = _combine_int
    else:
        fresh = dict
        if isinstance(f, PrimeField):
            combine = functools.partial(_combine_mod, f.p)
        else:
            combine = functools.partial(_combine_field, f)
    scaled = not isinstance(f, Rationals)

    pivots: dict[int, dict] = {}
    made = []
    for band, bound in zip(bands, bounds):
        before = len(pivots)
        for row in sorted((row for row in band if row), key=len):
            if len(pivots) >= bound:
                break
            row = fresh(row)
            while row:
                c = min(row)
                prow = pivots.get(c)
                if prow is None:
                    if scaled and row[c] != f.one:
                        s = f.inv(row[c])
                        row = {j: f.mul(s, x) for j, x in row.items()}
                    pivots[c] = row
                    break
                combine(row, c, prow)
        made.append(len(pivots) - before)
    if not reduced:
        return pivots, made
    # back substitution, rightmost pivot first: a pivot row that is
    # already reduced has no entry in any other pivot column
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            combine(row, j, pivots[j])
    if not scaled:
        for c, row in pivots.items():
            lead = row[c]
            if lead != 1:
                pivots[c] = {j: _quotient(x, lead) for j, x in row.items()}
    return pivots, made


def _echelon_packed(
    p: int, bands: Sequence[Sequence[Any]], reduced: bool, bounds: Sequence[float]
) -> tuple[dict[int, Any], list[int]]:
    """``_echelon_rows`` over F_2 or F_3, on packed vectors; with
    ``reduced`` the pivot rows are unpacked into ``{column: value}``
    dicts."""
    if p == 2:
        weight, reduce, add = int.bit_count, _reduce_bits, operator.xor
    else:
        weight, reduce, add = _trit_weight, _reduce_trits, _add_trits
    pivots: dict[int, Any] = {}
    made = []
    for band, bound in zip(bands, bounds):
        before = len(pivots)
        for v in sorted(band, key=weight):
            if len(pivots) >= bound:
                break
            c, v = reduce(v, pivots)
            if c >= 0:
                pivots[c] = v
        made.append(len(pivots) - before)
    if not reduced:
        return pivots, made
    # back substitution, rightmost pivot first: the pivot rows to the
    # right are reduced, so clearing one pivot column sets no other; an
    # entry 1 at column j subtracts pivot row j, an entry 2 adds it
    done = 0
    for c in sorted(pivots, reverse=True):
        v = pivots[c]
        for j in _bit_columns((v if p == 2 else v[0] | v[1]) & done):
            prow = pivots[j]
            v = add(v, prow if p == 2 or v[1] >> j & 1 else prow[::-1])
        pivots[c] = v
        done |= 1 << c
    return {c: _unpack(p, v) for c, v in pivots.items()}, made


def rref(m: Matrix) -> tuple[list[dict[int, Any]], list[int]]:
    """Reduced row echelon form of m: its nonzero rows as ``{column:
    value}`` dicts in pivot order, and the pivot columns; kept on m
    once computed, so callers share it and must not modify it."""
    if m._rref is None:
        pivots, _ = _echelon_rows(m.ring, [m.rows], reduced=True)
        order = sorted(pivots)
        m._rref = ([pivots[c] for c in order], order)
    return m._rref


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def triangular_ranks(
    m: Matrix, top: int, left: int, bounds: tuple[int, int] | None = None
) -> tuple[int, int, int]:
    """(rank X, rank Y, rank m) of a block lower-triangular matrix
    m = [[X, 0], [K, Y]], X its first ``top`` rows and ``left`` columns,
    from one echelon.

    The rows of X go in as the first band, and they reduce only against
    each other, so the pivots they make number rank X.  The columns are
    rotated by ``left``, so those of Y come first; the pivot columns are
    those of the reduced row echelon form, so the pivots among them
    number rank Y.  ``bounds``, when given, are upper bounds on rank X
    and on rank m: the rows of X stop going in once their pivots reach
    the first, and the rest once all pivots reach the second.  At a
    bound the pivots span the row space of the band so far, so the rows
    left out are dependent and all three ranks are exact; a bound below
    the true rank gives wrong ranks.  A nonzero entry of the top-right
    block raises ``LinAlgError``.

    Over F_2 and F_3 the packed columns are eliminated instead: those
    of Y first, whose pivots number rank Y, then those of X, under the
    bound on rank m only; the pivots at the rows of X number rank X.
    """
    if not (0 <= top <= m.nrows and 0 <= left <= m.ncols):
        raise LinAlgError(f"block corner ({top}, {left}) outside {m.nrows}x{m.ncols}")
    rows = m.rows
    for i in range(top):
        if rows[i] and max(rows[i]) >= left:
            raise LinAlgError(f"entry ({i}, {max(rows[i])}) of the top-right block is not zero")
    ring = m.ring
    if isinstance(ring, PrimeField) and ring.p <= 3:
        cols = _packed_columns(ring.p, m)
        bound = math.inf if bounds is None else bounds[1]
        pivots, made = _echelon_packed(
            ring.p, (cols[left:], cols[:left]), reduced=False, bounds=(math.inf, bound)
        )
        return sum(1 for c in pivots if c < top), made[0], len(pivots)
    width = m.ncols - left
    bands = (
        [{j + width: x for j, x in row.items()} for row in rows[:top]],
        [
            {j - left if j >= left else j + width: x for j, x in row.items()}
            for row in rows[top:]
        ],
    )
    pivots, made = _echelon_rows(ring, bands, reduced=False, bounds=bounds)
    return made[0], sum(1 for c in pivots if c < width), len(pivots)


def kernel_basis(m: Matrix) -> list[dict]:
    """Basis of the right kernel, one row per free column, in increasing
    free-column order; the free coordinate is set to one."""
    f = m.ring
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    basis = {free: {free: f.one} for free in range(m.ncols) if free not in pivot_set}
    for row, p_col in zip(rows, pivots):
        for j, x in row.items():
            if j != p_col:
                basis[j][p_col] = f.neg(x)
    return list(basis.values())


def solve(m: Matrix, b: dict) -> dict | None:
    """One solution of m x = b (rows), or None when the system is inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    _check_coordinates(b, m.nrows)
    f, n = m.ring, m.ncols
    _require_field(f, "solve")
    aug = Matrix(
        f, m.nrows, n + 1, [{**row, n: b[i]} if i in b else row for i, row in enumerate(m.rows)]
    )
    rows, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return None
    return {p_col: row[n] for row, p_col in zip(rows, pivots) if n in row}


def column_space_basis(m: Matrix) -> list[int]:
    """The indices of the pivot columns of m, in increasing order: those
    columns are a deterministic basis of the column space."""
    return list(rref(m)[1])


def field_matrix_inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise LinAlgError("inverse of a non-square matrix")
    f = m.ring
    _require_field(f, "matrix inverse")
    n = m.nrows
    # [m | I] has rank n, and m is invertible iff every pivot is a column of m
    pivots, _ = _echelon_rows(
        f, [[{**row, n + i: f.one} for i, row in enumerate(m.rows)]], reduced=True
    )
    if any(c >= n for c in pivots):
        raise LinAlgError("matrix is singular")
    return Matrix(f, n, n, [{j - n: x for j, x in pivots[c].items() if j >= n} for c in range(n)])


def is_invertible(m: Matrix) -> bool:
    """Whether m, over a field, is square and invertible: an echelon of
    its rows has a pivot in every column.  Only the pivots are counted,
    and no reduced form is built or kept on m."""
    pivots, _ = _echelon_rows(m.ring, [m.rows], reduced=False)
    return m.nrows == m.ncols == len(pivots)


def _minor(m: Matrix, rows: list[int], cols: list[int]) -> Any:
    """The determinant of m restricted to ``rows`` and ``cols``, by
    cofactor expansion along the first row, skipping its stored zeros."""
    r = m.ring
    if len(rows) <= 1:
        return m.rows[rows[0]].get(cols[0], r.zero) if rows else r.one
    top = m.rows[rows[0]]
    rest = rows[1:]
    acc = r.zero
    for k, c in enumerate(cols):
        if c in top:
            term = r.mul(top[c], _minor(m, rest, cols[:k] + cols[k + 1 :]))
            acc = r.add(acc, term) if k % 2 == 0 else r.sub(acc, term)
    return acc


def det(m: Matrix) -> Any:
    """Determinant by cofactor expansion; valid over any commutative ring."""
    if m.nrows != m.ncols:
        raise LinAlgError("determinant of a non-square matrix")
    indices = list(range(m.nrows))
    return _minor(m, indices, indices)


def adjugate(m: Matrix) -> Matrix:
    """Adjugate (transposed cofactor matrix): m @ adjugate(m) = det(m) * I."""
    if m.nrows != m.ncols:
        raise LinAlgError("adjugate of a non-square matrix")
    r, n = m.ring, m.nrows
    indices = list(range(n))
    out: list[dict] = [{} for _ in range(n)]
    for i in indices:
        rows = indices[:i] + indices[i + 1 :]
        for j in indices:
            minor = _minor(m, rows, indices[:j] + indices[j + 1 :])
            # adjugate is the transpose of the cofactor matrix
            out[j][i] = minor if (i + j) % 2 == 0 else r.neg(minor)
    return m._nonzero(out, n)


def jet_matrix_inverse(m: Matrix) -> Matrix:
    """Inverse of a jet matrix whose base part is invertible.

    Writes m = M0 + N with M0 the base part and N nilpotent (entries
    have zero base coefficient), inverts M0 over the base field, and
    sums the geometric series of -M0^{-1} N, which terminates after
    ``nslots`` steps because every product of generators from more than
    ``nslots`` slots dies.
    """
    ring = m.ring
    if not isinstance(ring, JetRing):
        raise LinAlgError("jet_matrix_inverse expects a matrix over a jet ring")
    if m.nrows != m.ncols:
        raise LinAlgError("inverse of a non-square matrix")
    base_inv = embed_matrix(field_matrix_inverse(jet_part(m, ())), ring)
    n = Matrix.identity(ring, m.nrows) - (base_inv @ m)  # nilpotent
    acc = Matrix.identity(ring, m.nrows)
    term = Matrix.identity(ring, m.nrows)
    for _ in range(ring.nslots):
        term = term @ n
        if term.is_zero():
            break
        acc = acc + term
    return acc @ base_inv


def matrix_inverse(m: Matrix) -> Matrix:
    """Inverse over a field or a jet ring, dispatching on the ring."""
    if isinstance(m.ring, JetRing):
        return jet_matrix_inverse(m)
    return field_matrix_inverse(m)


def embed_matrix(m: Matrix, ring: JetRing) -> Matrix:
    """Lift a base-field matrix into a jet ring."""
    if m.ring != ring.base:
        raise LinAlgError("matrix base field does not match jet ring base")
    return m.map_entries(ring.embed, ring)


def jet_part(m: Matrix, subset: Sequence[int]) -> Matrix:
    """Extract the base-field matrix of coefficients of one monomial."""
    ring = m.ring
    if not isinstance(ring, JetRing):
        raise LinAlgError("jet_part expects a matrix over a jet ring")
    key = frozenset(subset)
    return m.map_entries(lambda x: x.coefficient(key), ring.base)
