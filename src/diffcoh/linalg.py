"""Exact linear algebra over the scalar rings.

Matrices are immutable and generic over a ring object from ``scalars``;
``Matrix`` keeps one ``{column: value}`` dict of nonzeros per row, and
a vector is such a row (k of them stack as a k x n ``Matrix``).
Elimination (rank, kernel, solve, column space, inverse, ``rref``) is
restricted to fields and runs one sparse echelon on those rows; its
results are those of the reduced row echelon form, which is unique, so
they do not depend on the pivot rows it picks.  A matrix keeps that
form once computed, and its rank, kernel and pivot columns read it.
Determinant and adjugate are cofactor expansions and work over any
commutative ring, including jet rings; jet matrices are inverted by
eliminating the base part and summing the finite geometric series of
the nilpotent remainder.
"""

from __future__ import annotations

import functools
import heapq
import math
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
        ncols = len(rows[0]) if rows else 0
        zero = ring.zero
        out = []
        for row in rows:
            if len(row) != ncols:
                raise LinAlgError("ragged rows")
            out.append({j: x for j, x in enumerate(row) if x != zero})
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

    def col(self, j: int) -> tuple:
        zero = self.ring.zero
        return tuple(row.get(j, zero) for row in self.rows)

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
        add, mul = self.ring.add, self.ring.mul
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
# pivot rows found so far, leftmost column first; a row whose leftmost
# surviving column has no pivot yet becomes the pivot row there.  The pivot rows are an
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
# using the pivot row prow, in place, and returns the columns it added.
# Over a field the pivot rows are scaled to a leading one; over F_p the
# entries are ints in [0, p) and the update is inlined modular integer
# arithmetic.  Over Q the rows are integers after clearing denominators
# and are combined fraction-free, a * row - b * prow divided by its
# content; the entries become rationals again, in canonical form, only in
# the reduced form.  Over F_2 a row is a Python int with bit j set for
# each nonzero column j: its leftmost column is the lowest set bit, a
# reduction is ``row ^ prow``, and rows become ``{column: 1}`` dicts
# again only in the reduced form.


def _combine_field(f: Any, row: dict, c: int, prow: dict) -> list[int]:
    x = row.pop(c)
    zero, sub, mul = f.zero, f.sub, f.mul
    added = []
    for j, y in prow.items():
        if j == c:
            continue
        v = row.get(j)
        if v is None:
            row[j] = f.neg(mul(x, y))
            added.append(j)
        else:
            v = sub(v, mul(x, y))
            if v == zero:
                del row[j]
            else:
                row[j] = v
    return added


def _combine_mod(p: int, row: dict, c: int, prow: dict) -> list[int]:
    x = p - row.pop(c)
    added = []
    for j, y in prow.items():
        if j == c:
            continue
        v = row.get(j)
        if v is None:
            row[j] = x * y % p
            added.append(j)
        else:
            v = (v + x * y) % p
            if v:
                row[j] = v
            else:
                del row[j]
    return added


def _combine_int(row: dict, c: int, prow: dict) -> list[int]:
    b = row.pop(c)
    a = prow[c]
    g = math.gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for j in row:
            row[j] *= a
    added = []
    for j, y in prow.items():
        if j == c:
            continue
        v = row.get(j)
        if v is None:
            row[j] = -b * y
            added.append(j)
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
    return added


def _integer_row(row: dict) -> dict:
    """A rational row scaled to coprime integers."""
    scale = math.lcm(*(x.denominator for x in row.values()))
    ints = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
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
    if isinstance(f, PrimeField) and f.p == 2:
        return _echelon_bits(bands, reduced, bounds)
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
            heap = list(row)
            heapq.heapify(heap)
            while heap:
                c = heapq.heappop(heap)
                if c not in row:
                    continue
                prow = pivots.get(c)
                if prow is None:
                    if scaled and row[c] != f.one:
                        s = f.inv(row[c])
                        row = {j: f.mul(s, x) for j, x in row.items()}
                    pivots[c] = row
                    break
                for j in combine(row, c, prow):
                    heapq.heappush(heap, j)
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
            pivots[c] = {j: rational(Fraction(x, lead)) for j, x in row.items()}
    return pivots, made


def _echelon_bits(
    bands: Sequence[Sequence[dict]], reduced: bool, bounds: Sequence[float]
) -> tuple[dict[int, Any], list[int]]:
    """``_echelon_rows`` over F_2, on rows packed as int bitsets."""
    pivots: dict[int, int] = {}
    made = []
    for band, bound in zip(bands, bounds):
        before = len(pivots)
        for row in sorted((row for row in band if row), key=len):
            if len(pivots) >= bound:
                break
            r = sum(1 << j for j in row)
            while r:
                c = (r & -r).bit_length() - 1
                prow = pivots.get(c)
                if prow is None:
                    pivots[c] = r
                    break
                r ^= prow
        made.append(len(pivots) - before)
    if not reduced:
        return pivots, made
    # back substitution, rightmost pivot first: the pivot rows to the
    # right are reduced, so clearing one pivot column sets no other
    done = 0
    for c in sorted(pivots, reverse=True):
        for j in _bit_columns(pivots[c] & done):
            pivots[c] ^= pivots[j]
        done |= 1 << c
    return {c: dict.fromkeys(_bit_columns(r), 1) for c, r in pivots.items()}, made


def _bit_columns(r: int) -> list[int]:
    """The set bits of r, lowest first."""
    out = []
    while r:
        low = r & -r
        out.append(low.bit_length() - 1)
        r ^= low
    return out


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
    """
    if not (0 <= top <= m.nrows and 0 <= left <= m.ncols):
        raise LinAlgError(f"block corner ({top}, {left}) outside {m.nrows}x{m.ncols}")
    width = m.ncols - left
    rows = m.rows
    for i in range(top):
        if rows[i] and max(rows[i]) >= left:
            raise LinAlgError(f"entry ({i}, {max(rows[i])}) of the top-right block is not zero")
    bands = (
        [{j + width: x for j, x in row.items()} for row in rows[:top]],
        [
            {j - left if j >= left else j + width: x for j, x in row.items()}
            for row in rows[top:]
        ],
    )
    pivots, made = _echelon_rows(m.ring, bands, reduced=False, bounds=bounds)
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
    rows, pivots = rref(Matrix.block(f, [[m, Matrix.identity(f, n)]]))
    if pivots != list(range(n)):
        raise LinAlgError("matrix is singular")
    return Matrix(f, n, n, [{j - n: x for j, x in row.items() if j >= n} for row in rows])


def det(m: Matrix) -> Any:
    """Determinant by cofactor expansion; valid over any commutative ring."""
    if m.nrows != m.ncols:
        raise LinAlgError("determinant of a non-square matrix")
    r = m.ring
    n = m.nrows
    if n == 0:
        return r.one

    def expand(rows: list[int], cols: list[int]) -> Any:
        if len(rows) == 1:
            return m.at(rows[0], cols[0])
        acc = r.zero
        top = rows[0]
        rest = rows[1:]
        for k, c in enumerate(cols):
            minor = expand(rest, cols[:k] + cols[k + 1 :])
            term = r.mul(m.at(top, c), minor)
            acc = r.add(acc, term) if k % 2 == 0 else r.sub(acc, term)
        return acc

    return expand(list(range(n)), list(range(n)))


def adjugate(m: Matrix) -> Matrix:
    """Adjugate (transposed cofactor matrix): m @ adjugate(m) = det(m) * I."""
    if m.nrows != m.ncols:
        raise LinAlgError("adjugate of a non-square matrix")
    r = m.ring
    n = m.nrows
    if n == 0:
        return m
    if n == 1:
        return Matrix.identity(r, 1)
    out = [[r.zero] * n for _ in range(n)]
    indices = list(range(n))
    for i in range(n):
        rows = indices[:i] + indices[i + 1 :]
        for j in range(n):
            cols = indices[:j] + indices[j + 1 :]
            sub = Matrix.from_rows(r, [[m.at(a, b) for b in cols] for a in rows])
            minor = det(sub)
            # adjugate is the transpose of the cofactor matrix
            out[j][i] = minor if (i + j) % 2 == 0 else r.neg(minor)
    return Matrix.from_rows(r, out)


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
    base = ring.base
    base_part = m.map_entries(lambda x: x.coefficient(()), base)
    base_inv = field_matrix_inverse(base_part).map_entries(ring.embed, ring)
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
