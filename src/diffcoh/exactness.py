"""Cohomology of finite cochain complexes and long-exact-sequence checks.

Both the group and the Lie theory produce the same shape of data: a
subcomplex A (cochains of the difference operator), a quotient complex C
(ordinary cochains), and a total complex B_n = C_n + A_n whose
differential is the block map

    (c, a)  ->  (dC c, K c + dA a),

where K anticommutes with the differentials.  The short exact sequence
0 -> A -> B -> C -> 0 then yields a long exact sequence in cohomology
whose connecting map is induced by K.  This module computes cohomology
dimensions from ranks alone, computes explicit bases for cohomology
spaces (``cohomology_space``, on ``span_modulo``, the one rule for
cosets modulo boundaries, which the extension census reads too, with the
pivot columns of d_in that form its boundary basis), and verifies
exactness at every node by two criteria: consecutive maps compose to
zero, and ranks add up to the dimension of the middle space.  It builds
each cohomology space once per pair of differentials, so where d_D is d,
H^{n+1}(A) is H^n(C), and stops at im d_B(m) for the top node (see
``verify_les``); each matrix is eliminated once (``linalg.rref``).  The
total differential is block lower-triangular, so one echelon of it per
degree gives the ranks of d_C, d_A and d_B
(``linalg.triangular_ranks``).  Once d_B d_B = 0 has been checked, the
ranks of the previous degree bound those of this one, and the echelon
stops inserting rows when its pivots reach those bounds; over F_p it
reduces its rows with inlined integer arithmetic modulo p, and over F_2
as int bitsets.

``DifferenceComplexBase``, an ``LESData``, is the complex engine of
both theories; a theory subclass supplies its cochain spaces and the
faces of d, d_D, K.  The faces, one form per operator, are the only
definition of each operator: ``operator_matrix`` scatters them into its
matrix, which the complex caches (d_D is the matrix of d where the two
twists are equal) and applies to single cochains too
(``coboundary``, ``connecting``, and ``delta``, which reads the pair
differential off d_B).  It owns the coordinates of the pair complex:
``pair`` is the one split of a vector of B_n into (alpha, beta).  The
cochain values of both
theories are written once here too: ``Cochain`` (storage, validation,
arithmetic), ``CochainPair`` (an element of the pair complex) and
``CochainSpaceBase`` (coordinates); a theory subclass supplies its tuple
rule, its error type and evaluation.

Degrees are 1-based; every complex here starts in degree 1 (there are
no degree-0 cochains in the normalized theory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .linalg import (
    Matrix,
    column_space_basis,
    kernel_basis,
    rank,
    rref,
    triangular_ranks,
)
from .scalars import PrimeField


class InternalCheckError(RuntimeError):
    """A structural identity the theory guarantees failed to hold.

    Raised when, for example, an induced map produces a vector outside
    the cocycle space.  Indicates corrupt inputs or an implementation
    bug, never bad user data.
    """


DEFAULT_BUDGET = 60000


class BudgetExceededError(RuntimeError):
    """``what`` needs ``required`` ``counted``, more than ``budget``.
    ``degree`` is set only when a cochain space was counted."""

    def __init__(
        self,
        what: str,
        required: int,
        budget: int,
        counted: str = "basis elements",
        degree: int | None = None,
    ) -> None:
        super().__init__(f"{what} needs {required} {counted}, budget is {budget}")
        self.degree = degree
        self.required = required
        self.budget = budget


_NOT_A_COMPLEX = (
    "boundary space is not contained in the cocycle space; "
    "the differentials do not compose to zero"
)


@dataclass(frozen=True)
class LESNode:
    degree: int
    node: str
    ok: bool
    detail: str


@dataclass
class CohomologySpace:
    """Explicit basis data for one cohomology space H^n = Z / B: the
    boundary basis is the columns ``pivots`` of d_in."""

    dim_total: int
    reps: list[list[Any]]
    boundaries: list[list[Any]]
    pivots: list[int]

    @property
    def dim(self) -> int:
        return len(self.reps)


def cohomology_space(field: Any, d_out: Matrix, d_in: Matrix | None) -> CohomologySpace:
    """H = ker(d_out) / im(d_in): the span of the kernel basis modulo
    im(d_in) (``span_modulo``), which must hold every boundary."""
    cocycles = kernel_basis(d_out)
    space = span_modulo(field, cocycles, d_in, d_out.ncols)
    if space.dim != len(cocycles) - len(space.boundaries):
        raise InternalCheckError(_NOT_A_COMPLEX)
    return space


def span_modulo(field: Any, vectors: list, d_in: Matrix | None, n: int) -> CohomologySpace:
    """span(vectors) + im(d_in) modulo im(d_in), vectors of length n:
    the reps are the vectors independent modulo the boundaries and the
    earlier vectors, the vector columns among the pivot columns of
    [B | V], B the pivot columns of d_in, read off its transpose."""
    pivots = column_space_basis(d_in) if d_in is not None else []
    columns = d_in.transpose() if pivots else None
    boundaries = [list(columns.row(j)) for j in pivots]
    reps: list[list[Any]] = []
    if vectors:
        stacked = Matrix.from_columns(field, boundaries + vectors, n)
        reps = [vectors[j - len(pivots)] for j in column_space_basis(stacked)[len(pivots) :]]
    return CohomologySpace(dim_total=n, reps=reps, boundaries=boundaries, pivots=pivots)


def induced_map(field: Any, images: list[list[Any]], cod: CohomologySpace) -> Matrix:
    """Matrix of the map induced on cohomology by a cocycle-preserving
    map, given the ``images`` of the domain's representatives.

    The images are written in the basis reps + boundaries of the target
    cocycles by one elimination of [reps | boundaries | images]; the
    coordinates on reps are the matrix columns, read off the first
    ``cod.dim`` rows of its reduced form.
    """
    basis = cod.reps + cod.boundaries
    rows, pivots = rref(Matrix.from_columns(field, basis + images, cod.dim_total))
    if len(pivots) != len(basis):
        raise InternalCheckError("vector is not a cocycle of the target complex")
    width = len(basis)
    return Matrix(
        field,
        cod.dim,
        len(images),
        [{j - width: x for j, x in row.items() if j >= width} for row in rows[: cod.dim]],
    )


class LESData:
    """The three complexes of a difference theory, as matrix providers.

    A subclass supplies ``field``, ``dim_a(n)`` / ``dim_c(n)`` (space
    dimensions), ``d_a(n)`` / ``d_c(n)`` (the differentials X_n ->
    X_{n+1}), ``k(n)`` (the anticommuting map C_n -> A_{n+1}) and an
    empty dict ``_d_b``, where the total differential ``d_b(n)`` is kept
    once assembled.  B_n = C_n + A_n in coordinates, C first, so the
    inclusion of A and the projection onto C are slices.
    """

    def d_b(self, n: int) -> Matrix:
        if n not in self._d_b:
            f = self.field
            zero = Matrix.zeros(f, self.dim_c(n + 1), self.dim_a(n))
            self._d_b[n] = Matrix.block(f, [[self.d_c(n), zero], [self.k(n), self.d_a(n)]])
        return self._d_b[n]


def cohomology_dims(data: LESData, max_degree: int) -> dict[int, tuple[int, int, int]]:
    """dim H^n of the quotient, sub and total complexes, n = 1..max_degree.

    Uses ranks only: dim H^n = (dim X_n - rank d_n) - rank d_{n-1}.  The
    total differential d_B = [[d_C, 0], [K, d_A]] is block
    lower-triangular, so one echelon of it per degree gives all three
    ranks (``triangular_ranks``): the rows of d_C go in first, the
    columns of d_A come first, and the pivots they make number rank d_C
    and rank d_A.  The count is valid for complexes only, so the total
    differential is checked to square to zero with a sparse product; the
    diagonal blocks of d_B d_B are d_C d_C and d_A d_A and its
    off-diagonal block is K d_C + d_A K, so this checks all three
    complexes and that K anticommutes with the differentials.

    Only after that check do the ranks of degree n - 1 bound those of
    degree n: the image of d_{n-1} lies in the kernel of d_n, so
    rank d_n <= dim X_n - rank d_{n-1}, for X = C and for X = B.  The
    echelon stops inserting the rows of d_C, and then those of d_B,
    once its pivots reach these bounds, which leaves out only dependent
    rows, so the ranks stay exact.  A bound exceeds its rank by dim H^n,
    so the stop fires exactly where H^n = 0.
    """
    dims = {}
    prev = None
    prev_ranks = (0, 0, 0)
    for n in range(1, max_degree + 1):
        d_b = data.d_b(n)
        if prev is not None and not (d_b @ prev).is_zero():
            raise InternalCheckError(_NOT_A_COMPLEX)
        sizes = (data.dim_c(n), data.dim_a(n), d_b.ncols)
        bounds = (sizes[0] - prev_ranks[0], sizes[2] - prev_ranks[2])
        ranks = triangular_ranks(d_b, data.dim_c(n + 1), data.dim_c(n), bounds)
        dims[n] = tuple(size - r - pr for size, r, pr in zip(sizes, ranks, prev_ranks))
        prev, prev_ranks = d_b, ranks
    return dims


def verify_les(data: LESData, max_degree: int) -> list[LESNode]:
    """Verify exactness of the long exact sequence through ``max_degree``.

    Checks the three node types for each degree n <= max_degree:
    at H^n(B) (image of inclusion = kernel of projection), at H^n(C)
    (image of projection = kernel of connecting map), and at H^{n+1}(A)
    (image of connecting map = kernel of inclusion).  Each cohomology
    space checks that its boundaries are cocycles, for d_B too, whose
    square has K d_C + d_A K as its off-diagonal block.

    The last node reads H^{m+1}(B), m = ``max_degree``, only as the
    target of i_*, and i sends a cocycle a of A to (0, a), a cocycle of
    B.  So the span of the images of H^{m+1}(A)'s reps modulo im d_B(m)
    is target enough (``span_modulo``): a class vanishes there iff it
    does in H^{m+1}(B).  So d_B(m+1) and C^{m+2} are never built.

    Each space is built once per pair (d_out, d_in) of matrix objects,
    a d_in without columns counting as none: where d_D is d, A_{n+1} =
    C_n has the same differentials, so H^{n+1}(A) is H^n(C).  Each
    induced map is eliminated once, though it enters two nodes.
    """
    f = data.field
    top = max_degree + 1
    d_a = {n: data.d_a(n) for n in range(1, top + 1)}
    d_b = {n: data.d_b(n) for n in range(1, top)}
    d_c = {n: data.d_c(n) for n in range(1, top)}
    spaces: dict[tuple[int, int | None], CohomologySpace] = {}

    def h(d: dict, n: int) -> CohomologySpace:
        d_in = d.get(n - 1)
        key = (id(d[n]), id(d_in) if d_in is not None and d_in.ncols else None)
        if key not in spaces:
            spaces[key] = cohomology_space(f, d[n], d_in)
        return spaces[key]

    ha = {n: h(d_a, n) for n in range(1, top + 1)}
    hb = {n: h(d_b, n) for n in range(1, top)}
    hc = {n: h(d_c, n) for n in range(1, top)}

    # B_n = C_n + A_n, so i pads a cochain of A with dim C_n zeros in
    # front and p keeps the first dim C_n coordinates
    i_images = {n: [[f.zero] * data.dim_c(n) + r for r in ha[n].reps] for n in ha}
    hb[top] = span_modulo(f, i_images[top], d_b[max_degree], d_b[max_degree].nrows)
    i_star = {n: induced_map(f, i_images[n], hb[n]) for n in ha}
    p_star = {n: induced_map(f, [r[: data.dim_c(n)] for r in hb[n].reps], hc[n]) for n in hc}
    k_star = {n: induced_map(f, list(map(data.k(n).matvec, hc[n].reps)), ha[n + 1]) for n in hc}

    nodes = []

    def check(degree: int, node: str, first: Matrix, second: Matrix, middle_dim: int) -> None:
        composes = (second @ first).is_zero()
        r1, r2 = rank(first), rank(second)
        ok = composes and r1 + r2 == middle_dim
        if ok:
            detail = "exact"
        elif not composes:
            detail = "consecutive maps do not compose to zero"
        else:
            detail = f"rank {r1} + rank {r2} != dim {middle_dim}"
        nodes.append(LESNode(degree=degree, node=node, ok=ok, detail=detail))

    for n in range(1, max_degree + 1):
        check(n, f"H^{n}(total)", i_star[n], p_star[n], hb[n].dim)
        check(n, f"H^{n}(quotient)", p_star[n], k_star[n], hc[n].dim)
        check(n + 1, f"H^{n + 1}(sub)", k_star[n], i_star[n + 1], ha[n + 1].dim)
    return nodes


class Cochain:
    """A cochain of either theory with values in field^dim.

    ``values`` maps argument tuples (indices below ``points``, the order
    of the group or the dimension of the Lie algebra) to value vectors;
    a missing tuple means zero and zero values are not stored; over F_p
    an entry must be an int in [0, p).  Every cochain, arithmetic
    results included, is validated on construction.
    Cochains in one space share ``over`` (the group or Lie algebra),
    the field, the value dimension and the degree.

    A subclass sets ``error`` (the exception for malformed cochains) and
    supplies ``_check_args(args)``, the theory's rule for a stored
    tuple, and ``_like(values)``, a cochain in the same space.
    """

    error: type[Exception] = ValueError

    def __init__(
        self,
        over: Any,
        points: int,
        field: Any,
        dim: int,
        degree: int,
        values: Mapping[tuple, Sequence[Any]] | Iterable[tuple],
    ) -> None:
        error = self.error
        if degree < 1:
            raise error(f"cochain degree must be >= 1, got {degree}")
        self.over = over
        self.field = field
        self.dim = dim
        self.degree = degree
        self._zero = zero = (field.zero,) * dim
        p = field.p if isinstance(field, PrimeField) else None
        check = self._check_args
        store: dict[tuple, tuple] = {}
        items = values.items() if isinstance(values, Mapping) else values
        for args, vec in items:
            args = tuple(args)
            if len(args) != degree:
                raise error(f"argument tuple {args} has length != {degree}")
            if any(not 0 <= i < points for i in args):
                raise error(f"argument tuple {args} out of range")
            check(args)
            vec = tuple(vec)
            if len(vec) != dim:
                raise error(f"value at {args} has length {len(vec)} != {dim}")
            if args in store:
                raise error(f"duplicate argument tuple {args}")
            if vec != zero:
                if p is not None:
                    for x in vec:
                        if type(x) is not int or not 0 <= x < p:
                            raise error(f"value {vec} at {args} is not in F_{p}^{dim}")
                store[args] = vec
        self.values = store

    def items(self) -> list[tuple[tuple, tuple]]:
        return sorted(self.values.items())

    def is_zero(self) -> bool:
        return not self.values

    def _same_space(self, other: "Cochain") -> bool:
        return (
            other.over is self.over
            and other.field == self.field
            and other.dim == self.dim
            and other.degree == self.degree
        )

    def __add__(self, other: "Cochain") -> "Cochain":
        if not self._same_space(other):
            raise self.error("cochains live in different spaces")
        add, zero = self.field.add, self._zero
        mine, theirs = self.values, other.values
        return self._like(
            {
                k: tuple(map(add, mine.get(k, zero), theirs.get(k, zero)))
                for k in mine.keys() | theirs.keys()
            }
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def __neg__(self) -> "Cochain":
        neg = self.field.neg
        return self._like({k: tuple(map(neg, v)) for k, v in self.values.items()})

    def scale(self, c: Any) -> "Cochain":
        mul = self.field.mul
        return self._like(
            {k: tuple(mul(c, x) for x in v) for k, v in self.values.items()}
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cochain)
            and self._same_space(other)
            and other.values == self.values
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree}, support={len(self.values)})"


@dataclass(frozen=True)
class CochainPair:
    """An element (alpha, beta) of the pair complex C^n + C^{n-1} of
    either theory; beta is absent in degree 1, where the complex is just
    C^1.  A malformed pair raises the error of its cochains' theory."""

    alpha: Cochain
    beta: Cochain | None

    def __post_init__(self) -> None:
        alpha, beta, error = self.alpha, self.beta, self.alpha.error
        if alpha.degree == 1:
            if beta is not None:
                raise error("degree-1 pairs have no second component")
        else:
            if beta is None:
                raise error(f"degree-{alpha.degree} pairs need a second component")
            if beta.degree != alpha.degree - 1:
                raise error(
                    f"second component has degree {beta.degree}, "
                    f"expected {alpha.degree - 1}"
                )
            if beta.over is not alpha.over or beta.field != alpha.field or beta.dim != alpha.dim:
                raise error("pair components live over different data")

    @property
    def degree(self) -> int:
        return self.alpha.degree


class CochainSpaceBase:
    """Coordinates on the space of the cochain ``zero``, whose cochains
    are stored on ``tuples``: the basis is indexed by (tuple,
    coordinate), tuples in the given order, coordinates innermost.  A
    mismatched cochain or vector raises the theory's error."""

    def __init__(self, zero: Cochain, tuples: list[tuple]) -> None:
        self.zero = zero
        self.error = zero.error
        self.field = zero.field
        self.dim = zero.dim
        self.degree = zero.degree
        self.tuples = tuples
        self.index = {t: i for i, t in enumerate(tuples)}
        self.size = len(tuples) * zero.dim

    def to_vector(self, a: Any) -> list[Any]:
        if not self.zero._same_space(a):
            raise self.error("cochain lives in another space")
        vec = [self.field.zero] * self.size
        for args, value in a.values.items():
            base = self.index[args] * self.dim
            vec[base : base + self.dim] = value
        return vec

    def from_vector(self, vec: Sequence[Any]) -> Any:
        """The cochain with coordinates ``vec``; only the tuples with a
        nonzero value reach the cochain's validation, since zero values
        are not stored."""
        if len(vec) != self.size:
            raise self.error(f"vector length {len(vec)} != {self.size}")
        dim, zero, tuples = self.dim, self.field.zero, self.tuples
        support = dict.fromkeys(j // dim for j, x in enumerate(vec) if x != zero)
        return self.zero._like({tuples[i]: tuple(vec[i * dim : (i + 1) * dim]) for i in support})

    def basis_cochain(self, k: int) -> Any:
        vec = [self.field.zero] * self.size
        vec[k] = self.field.one
        return self.from_vector(vec)


def operator_matrix(dom: CochainSpaceBase, cod: CochainSpaceBase, faces) -> Matrix:
    """The matrix from ``dom`` to ``cod`` of the operator whose value at
    each tuple of ``cod`` is a sum of faces of the argument cochain.

    ``faces(args)`` yields (face, coefficient) pairs standing for the
    term coefficient * a(face); the coefficient is a scalar or a
    dim x dim matrix.  A face outside ``dom.index`` vanishes.  Row
    (args, r) maps basis vector (face, c) of ``dom`` to its coefficient,
    as ``dom`` orders coordinates.  The faces are the one definition of
    each operator of both theories, and the complex caches these
    matrices.
    """
    dim, index, zero, add = dom.dim, dom.index, dom.field.zero, dom.field.add
    rows: list[dict] = []
    for args in cod.tuples:
        block: list[dict] = [{} for _ in range(dim)]
        for face, coeff in faces(args):
            k = index.get(face)
            if k is None:
                continue
            base = k * dim
            if isinstance(coeff, Matrix):
                terms = [
                    (r, base + c, x) for r, crow in enumerate(coeff.rows) for c, x in crow.items()
                ]
            else:
                terms = [(r, base + r, coeff) for r in range(dim)]
            for r, col, x in terms:
                row = block[r]
                row[col] = add(row[col], x) if col in row else x
        rows.extend({j: x for j, x in row.items() if x != zero} for row in block)
    return Matrix(dom.field, cod.size, dom.size, rows)


@dataclass
class DegreeDims:
    h_ordinary: int
    h_difference: int
    h_pair: int


@dataclass
class CohomologyReport:
    degrees: dict[int, DegreeDims]
    notes: list[str]


class DifferenceComplexBase(LESData):
    """Matrix-level view of the ordinary, difference and pair complexes
    of a difference theory with coefficients of dimension ``dim``.

    A subclass supplies ``_space_size(n)`` and ``_new_space(n)`` (a
    ``CochainSpaceBase``), and ``d_ordinary``, ``d_difference`` and
    ``k_matrix`` through ``_operator_matrix`` from the theory's faces,
    under the keys "d", "dD" and "K".  ``theta`` and ``theta_d`` are the
    twists of d and d_D, compared once here: when they are equal, d_D is
    d, and "dD" reads the matrix cached under "d".
    """

    def __init__(
        self, field: Any, dim: int, budget: int, theta: tuple, theta_d: tuple
    ) -> None:
        self.field = field
        self.dim = dim
        self.budget = budget
        self.theta_d = theta_d
        self._keys = {"dD": "d"} if theta_d == theta else {}
        self._spaces: dict[int, Any] = {}
        self._matrices: dict[tuple[str, int], Matrix] = {}
        self._d_b: dict[int, Matrix] = {}

    def space(self, degree: int) -> Any:
        if degree not in self._spaces:
            required = self._space_size(degree)
            if required > self.budget:
                raise BudgetExceededError(
                    f"cochain space in degree {degree}", required, self.budget, degree=degree
                )
            self._spaces[degree] = self._new_space(degree)
        return self._spaces[degree]

    def _operator_matrix(self, key: str, n: int, out_degree: int, build, *args) -> Matrix:
        """``operator_matrix`` from degree n to ``out_degree`` of the
        faces ``build(*args)``, cached under ``key`` (under "d" for a d_D
        that is d); the faces are built only for a matrix not cached
        yet."""
        key = (self._keys.get(key, key), n)
        if key not in self._matrices:
            self._matrices[key] = operator_matrix(
                self.space(n), self.space(out_degree), build(*args)
            )
        return self._matrices[key]

    def dim_a(self, n: int) -> int:
        return 0 if n <= 1 else self.space(n - 1).size

    def dim_c(self, n: int) -> int:
        return self.space(n).size

    def d_a(self, n: int) -> Matrix:
        if n <= 1:
            return Matrix.zeros(self.field, self.dim_a(n + 1), 0)
        return self.d_difference(n - 1)

    def d_c(self, n: int) -> Matrix:
        return self.d_ordinary(n)

    def k(self, n: int) -> Matrix:
        return self.k_matrix(n)

    def cohomology_dims(self, max_degree: int) -> CohomologyReport:
        dims = cohomology_dims(self, max_degree)
        degrees = {n: DegreeDims(*d) for n, d in dims.items()}
        notes = []
        if getattr(self.field, "kind", "") == "prime-field":
            notes.append(
                f"dimensions are over F_{self.field.p}; they need not agree "
                "with characteristic-zero coefficients"
            )
        return CohomologyReport(degrees=degrees, notes=notes)

    def verify_les(self, max_degree: int) -> list[LESNode]:
        return verify_les(self, max_degree)

    def _apply(self, operator, a: Cochain, out_degree: int) -> Cochain:
        vec = self.space(a.degree).to_vector(a)
        return self.space(out_degree).from_vector(operator(a.degree).matvec(vec))

    def coboundary(self, a: Cochain) -> Cochain:
        """The ordinary coboundary d applied to the cochain a."""
        return self._apply(self.d_ordinary, a, a.degree + 1)

    def connecting(self, a: Cochain) -> Cochain:
        """The connecting cochain map K applied to the cochain a."""
        return self._apply(self.k_matrix, a, a.degree)

    def pair(self, n: int, vec: Sequence[Any]) -> CochainPair:
        """The element of B_n with coordinates ``vec``: B_n = C_n + A_n,
        C first and A_n = C_{n-1}, so the first dim C_n are alpha's and
        the rest beta's, which degree 1 has none of."""
        cut = self.dim_c(n)
        beta = self.space(n - 1).from_vector(vec[cut:]) if n > 1 else None
        return CochainPair(self.space(n).from_vector(vec[:cut]), beta)

    def delta(self, pair: CochainPair) -> CochainPair:
        """delta(a, b) = (d a, d_D b + K a) off d_B(n)."""
        n = pair.degree
        vec = self.space(n).to_vector(pair.alpha)
        if pair.beta is not None:
            vec += self.space(n - 1).to_vector(pair.beta)
        return self.pair(n + 1, self.d_b(n).matvec(vec))
