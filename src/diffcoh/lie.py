"""Difference Lie algebras and their cohomology.

A difference operator on a Lie algebra is a linear map D with

    D[x, y] = [Dx, y] + [x, Dy] + [Dx, Dy],

equivalently: D_+ = id + D is a Lie algebra endomorphism.  A
representation of (g, D) is (V, T, theta) with theta an ordinary
representation and

    T(theta(x) u) = theta(Dx) u + theta(x) T(u) + theta(Dx) T(u).

The complexes mirror the group side: ordinary Chevalley-Eilenberg
cochains Hom(wedge^n g, V) twisted by theta, the same spaces shifted by
one twisted by theta_D(x) = theta(x) + theta(Dx), and the pair complex
coupling them through the connecting cochain map

    K(z)(x_1..x_n) = (-1)^n ( sum over nonempty subsets S of
                              z(.. D at positions in S ..)
                              - T z(x_1..x_n) ),

which by multilinearity equals the closed form
(-1)^n ( z(D_+ x_1, .., D_+ x_n) - z(x) - T z(x) ).  ``LieCochain``
adds to ``exactness.Cochain`` only increasing tuples, ``LieError`` and
evaluation by permutation sign; pairs are ``exactness.CochainPair``,
with alpha = zeta and beta = xi.  Vectors of g are ``{m: c}`` rows
that store no zero, as everywhere in the package: brackets,
coordinates, theta combinations and the columns of D (rows of its
transpose), so loops visit nonzero constants only.

The faces define each operator once: ``_ce_faces`` and
``_connecting_faces`` (the closed form of K) return a function yielding
the faces of an increasing tuple sorted with their permutation signs (a
repeated index vanishes).  ``LieDifferenceComplex`` scatters them into
its matrices (``exactness.operator_matrix``), building them only for a
matrix it has not cached; ``ce_coboundary`` and ``k_map`` take the
complex and apply its cached matrices to a single cochain.  Where
theta_D = theta, that is theta(Dx) = 0 for all x (as for D = 0 or
theta = 0), d_D is d: the complex compares the two once and then
returns the matrix of d for d_D.  K stays checked at run time by the
square of the total differential, whose off-diagonal block is
K d + d_D K (``exactness.cohomology_dims`` and ``exactness.verify_les``).
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterable, Mapping, Sequence

from .exactness import (
    DEFAULT_BUDGET,
    Cochain,
    CochainSpaceBase,
    DifferenceComplexBase,
    InternalCheckError,
)
from .groups import ValidationError, ValidationReport
from .linalg import Matrix, rref


class LieError(ValueError):
    """Raised for malformed Lie data (shape errors, non-closed brackets)."""


class LieAlgebra:
    """A finite-dimensional Lie algebra over a field, given by structure
    constants; antisymmetry is built in, the Jacobi identity is checked
    on all basis triples at construction.  ``MatrixLieAlgebra`` skips
    that check: its bracket is the commutator, which satisfies Jacobi
    because the matrix product is associative, and its basis is
    independent, so the structure constants are those of that bracket.
    ``brackets`` gives [e_i, e_j], i < j, as dense coordinate vectors,
    kept as ``{m: c}`` rows with no zero; a zero bracket is no row."""

    def __init__(
        self, field: Any, dim: int, brackets: Mapping[tuple[int, int], Sequence[Any]]
    ) -> None:
        table = {}
        for (i, j), vec in brackets.items():
            if not 0 <= i < j < dim:
                raise LieError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            if len(vec) != dim:
                raise LieError(f"bracket [e{i},e{j}] has {len(vec)} coordinates != {dim}")
            row = {m: c for m, c in enumerate(vec) if c != field.zero}
            if row:
                table[(i, j)] = row
        self.field, self.dim, self._table = field, dim, table
        report = self._check_jacobi()
        if not report.ok:
            raise ValidationError(report)

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a row; callers must not modify it."""
        if i <= j:
            return self._table.get((i, j), {})
        return {m: self.field.neg(c) for m, c in self._table.get((j, i), {}).items()}

    def bracket(self, x: dict, y: dict) -> dict:
        """[x, y] of two rows."""
        f = self.field
        return _combination(
            f, ((f.mul(a, b), self.bracket_basis(i, j)) for i, a in x.items() for j, b in y.items())
        )

    def _check_jacobi(self) -> ValidationReport:
        """Jacobi on every basis triple, from the structure constants:
        [[e_a, e_b], e_c] is the sum of x * [e_m, e_c] over the entries
        x = c_ab^m of [e_a, e_b]."""
        report = ValidationReport("Lie algebra")
        f = self.field
        for i, j, k in itertools.combinations(range(self.dim), 3):
            terms = (
                (x, self.bracket_basis(m, c))
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                for m, x in self.bracket_basis(a, b).items()
            )
            if _combination(f, terms):
                report.add(
                    "jacobi",
                    (i, j, k),
                    f"[[e{i},e{j}],e{k}] + [[e{j},e{k}],e{i}] + [[e{k},e{i}],e{j}] != 0",
                )
        return report

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, field={self.field!r})"


def _combination(f: Any, terms: Iterable[tuple[Any, dict]]) -> dict:
    """The row sum of c * row over the pairs (c, row) of ``terms``."""
    acc: dict = {}
    for c, row in terms:
        for m, x in row.items():
            v = f.mul(c, x)
            acc[m] = f.add(acc[m], v) if m in acc else v
    return {m: v for m, v in acc.items() if v != f.zero}


def check_lie_difference(lie: LieAlgebra, d: Matrix) -> ValidationReport:
    """Check that D_+ = id + D is a Lie homomorphism on all basis pairs,
    D_+[e_i, e_j] = [D_+ e_i, D_+ e_j].  Expanding both sides, a pair
    fails it exactly when it fails D[x,y] = [Dx,y] + [x,Dy] + [Dx,Dy],
    so the witnesses are those of the difference identity, at one
    bracket per pair instead of three; bilinearity carries the basis
    pairs to all pairs."""
    report = ValidationReport("Lie difference operator")
    f = lie.field
    if d.nrows != lie.dim or d.ncols != lie.dim or d.ring != f:
        report.add("shape", (d.nrows, d.ncols), f"expected {lie.dim}x{lie.dim} over {f!r}")
        return report
    images = (Matrix.identity(f, lie.dim) + d).transpose().rows
    for i, j in itertools.combinations(range(lie.dim), 2):
        lhs = _combination(f, ((c, images[m]) for m, c in lie.bracket_basis(i, j).items()))
        if lhs != lie.bracket(images[i], images[j]):
            report.add(
                "difference-identity",
                (i, j),
                f"D[e{i},e{j}] != [De{i},e{j}] + [e{i},De{j}] + [De{i},De{j}]",
            )
    return report


class LieDifferenceOp:
    """A validated difference operator on a Lie algebra; ``d_plus`` is
    the endomorphism id + D."""

    def __init__(self, lie: LieAlgebra, d: Matrix) -> None:
        report = check_lie_difference(lie, d)
        if not report.ok:
            raise ValidationError(report)
        self.lie = lie
        self.d = d
        self.d_plus = Matrix.identity(lie.field, lie.dim) + d

    def __repr__(self) -> str:
        return f"LieDifferenceOp(dim={self.lie.dim})"


def theta_of(theta: Sequence[Matrix], vec: dict) -> Matrix:
    """The linear extension sum_i vec[i] theta[i] of matrices given on
    basis elements, for a row ``vec``."""
    m = theta[0]
    acc = Matrix.zeros(m.ring, m.nrows, m.ncols)
    for i, c in vec.items():
        acc = acc + theta[i].scale(c)
    return acc


def check_lie_rep(
    lie: LieAlgebra, d: Matrix, theta: Sequence[Matrix], t: Matrix
) -> ValidationReport:
    """Check theta is a Lie homomorphism and (T, theta) satisfies the
    difference-representation law against D, both on basis elements."""
    report = ValidationReport("Lie difference representation")
    f = lie.field
    if len(theta) != lie.dim:
        report.add("shape", (len(theta),), f"expected {lie.dim} matrices")
        return report
    dimv = t.nrows
    if t.ncols != dimv or t.ring != f:
        report.add("T-square", (t.nrows, t.ncols), "T must be square over the base field")
        return report
    for i, m in enumerate(theta):
        if m.nrows != dimv or m.ncols != dimv or m.ring != f:
            report.add("theta-shape", (i,), "theta(e_i) has wrong shape or ring")
            return report

    for i, j in itertools.combinations(range(lie.dim), 2):
        lhs = theta_of(theta, lie.bracket_basis(i, j))
        rhs = (theta[i] @ theta[j]) - (theta[j] @ theta[i])
        if lhs != rhs:
            report.add(
                "theta-homomorphism",
                (i, j),
                f"theta[e{i},e{j}] != theta(e{i}) theta(e{j}) - theta(e{j}) theta(e{i})",
            )
    if not report.ok:
        return report
    for i, th_dei in enumerate(theta_of(theta, col) for col in d.transpose().rows):
        lhs = t @ theta[i]
        rhs = th_dei + (theta[i] @ t) + (th_dei @ t)
        if lhs != rhs:
            report.add(
                "difference-compatibility",
                (i,),
                f"T theta(e{i}) != theta(De{i}) + theta(e{i}) T + theta(De{i}) T",
            )
    return report


class LieRep:
    """A validated representation (V, T, theta) of a difference Lie
    algebra; bundles the algebra and the operator it was checked against."""

    def __init__(self, dop: LieDifferenceOp, theta: Sequence[Matrix], t: Matrix) -> None:
        report = check_lie_rep(dop.lie, dop.d, theta, t)
        if not report.ok:
            raise ValidationError(report)
        self.dop = dop
        self.lie = dop.lie
        self.field = dop.lie.field
        self.theta = tuple(theta)
        self.t = t
        self.dimv = t.nrows

    def __repr__(self) -> str:
        return f"LieRep(dim={self.lie.dim}, dimv={self.dimv})"


def theta_d_matrices(rep: LieRep) -> tuple[Matrix, ...]:
    """theta_D(x) = theta(x) + theta(Dx) on basis elements, re-verified
    to be a Lie algebra homomorphism."""
    lie = rep.lie
    out = tuple(
        th + theta_of(rep.theta, de_i)
        for th, de_i in zip(rep.theta, rep.dop.d.transpose().rows)
    )
    for i, j in itertools.combinations(range(lie.dim), 2):
        lhs = theta_of(out, lie.bracket_basis(i, j))
        rhs = (out[i] @ out[j]) - (out[j] @ out[i])
        if lhs != rhs:
            raise InternalCheckError(
                "theta + theta D fails to be a homomorphism although the "
                "representation validated; inputs are corrupt"
            )
    return out


class LieCochain(Cochain):
    """An alternating V-valued n-cochain, stored on increasing basis
    tuples and evaluated elsewhere by permutation sign."""

    error = LieError

    def __init__(
        self,
        lie: LieAlgebra,
        dim: int,
        degree: int,
        values: Mapping[tuple, Sequence[Any]] | Iterable[tuple] = (),
    ) -> None:
        self.lie = lie
        super().__init__(lie, lie.dim, lie.field, dim, degree, values)

    def _check_args(self, args: tuple) -> None:
        if list(args) != sorted(set(args)):
            raise LieError(f"coefficients are stored on increasing tuples: {args}")

    def _like(self, values: Mapping[tuple, tuple]) -> "LieCochain":
        return LieCochain(self.lie, self.dim, self.degree, values)

    def value_at_basis(self, args: Sequence[int]) -> tuple:
        args = tuple(args)
        if len(set(args)) != len(args):
            return self._zero
        face, odd = _sorted_with_sign(args)
        value = self.values.get(face, self._zero)
        return tuple(map(self.field.neg, value)) if odd else value


class LieCochainSpace(CochainSpaceBase):
    """Coordinates on Hom(wedge^n g, V): increasing tuples ordered
    lexicographically."""

    def __init__(self, lie: LieAlgebra, dim: int, degree: int) -> None:
        tuples = list(itertools.combinations(range(lie.dim), degree))
        super().__init__(LieCochain(lie, dim, degree), tuples)


def _sorted_with_sign(args: tuple) -> tuple[tuple, bool]:
    """The increasing rearrangement of distinct indices and whether it
    is an odd permutation of them."""
    inversions = sum(1 for a, b in itertools.combinations(args, 2) if a > b)
    return tuple(sorted(args)), inversions % 2 == 1


def _ce_faces(lie: LieAlgebra, theta: Sequence[Matrix]):
    """Faces of the Chevalley-Eilenberg coboundary at an increasing
    tuple: (-1)^k theta(x_k) z(.. no x_k ..) and
    (-1)^(a+b) z([x_a, x_b], .. no x_a, x_b ..)."""
    f = lie.field
    minus_theta = [-m for m in theta]

    def faces(args: tuple):
        for k, i in enumerate(args):
            yield args[:k] + args[k + 1 :], minus_theta[i] if k % 2 else theta[i]
        for a, b in itertools.combinations(range(len(args)), 2):
            rest = args[:a] + args[a + 1 : b] + args[b + 1 :]
            for m, c in lie.bracket_basis(args[a], args[b]).items():
                face, odd = _sorted_with_sign((m,) + rest)
                yield face, f.neg(c) if odd != (a + b) % 2 else c

    return faces


def _connecting_faces(rep: LieRep, n: int):
    """Faces of K at an increasing n-tuple in the closed form
    (-1)^n ( z(D_+ x_1, .., D_+ x_n) - z - T z )."""
    f = rep.field
    sign = f.neg(f.one) if n % 2 else f.one
    minus_t = rep.t.scale(f.neg(sign))
    plus_cols = [list(col.items()) for col in rep.dop.d_plus.transpose().rows]

    def faces(args: tuple):
        yield args, minus_t
        yield args, f.neg(sign)
        for combo in itertools.product(*(plus_cols[i] for i in args)):
            c = sign
            for _, x in combo:
                c = f.mul(c, x)
            face, odd = _sorted_with_sign(tuple(r for r, _ in combo))
            yield face, f.neg(c) if odd else c

    return faces


class LieDifferenceComplex(DifferenceComplexBase):
    """Matrix-level view of the three complexes attached to (g, D, V, T),
    scattered from the faces of d, d_D and K.
    """

    def __init__(self, rep: LieRep, budget: int = DEFAULT_BUDGET) -> None:
        super().__init__(rep.field, rep.dimv, budget, rep.theta, theta_d_matrices(rep))
        self.rep = rep
        self.lie = rep.lie

    def _space_size(self, degree: int) -> int:
        return math.comb(self.lie.dim, degree) * self.dim

    def _new_space(self, degree: int) -> LieCochainSpace:
        return LieCochainSpace(self.lie, self.dim, degree)

    def d_ordinary(self, n: int) -> Matrix:
        return self._operator_matrix("d", n, n + 1, _ce_faces, self.lie, self.rep.theta)

    def d_difference(self, n: int) -> Matrix:
        return self._operator_matrix("dD", n, n + 1, _ce_faces, self.lie, self.theta_d)

    def k_matrix(self, n: int) -> Matrix:
        return self._operator_matrix("K", n, n, _connecting_faces, self.rep, n)


def ce_coboundary(cx: LieDifferenceComplex, z: LieCochain) -> LieCochain:
    """The Chevalley-Eilenberg coboundary of ``cx``; zero above dim g."""
    return cx.coboundary(z)


def k_map(cx: LieDifferenceComplex, z: LieCochain) -> LieCochain:
    """The connecting cochain map K of ``cx`` on the Lie side."""
    return cx.connecting(z)


class MatrixLieAlgebra(LieAlgebra):
    """The Lie algebra spanned by linearly independent square matrices,
    with the commutator bracket in coordinates of the given basis.

    The flattened basis is eliminated once: with B its rows, the reduced
    echelon form of [B | I] is [R | E] with E B = R, and R has its pivots
    at dim entry positions P, where R is the identity.  So a matrix m in
    the span has coordinates m[P] E; whether m is in the span is checked
    by recombining the basis with them.  Raises ``LieError`` when the
    basis is dependent or a commutator leaves the span."""

    def __init__(self, field: Any, basis: Sequence[Matrix]) -> None:
        if not basis:
            raise LieError("empty basis")
        k = basis[0].nrows
        for b in basis:
            if b.nrows != k or b.ncols != k or b.ring != field:
                raise LieError("basis matrices must be square, equal-size, same field")
        self.field = field
        self.basis = tuple(basis)
        dim, size = len(basis), k * k
        augmented = [
            {r * k + c: x for r, row in enumerate(b.rows) for c, x in row.items()}
            | {size + i: field.one}
            for i, b in enumerate(basis)
        ]
        rows, pivots = rref(Matrix(field, dim, size + dim, augmented))
        if pivots[-1] >= size:
            raise LieError("basis matrices are linearly dependent")
        self._pivot_rows = {
            divmod(p, k): {j - size: x for j, x in row.items() if j >= size}
            for p, row in zip(pivots, rows)
        }
        table = {}
        for i, j in itertools.combinations(range(dim), 2):
            coords = self._solve((basis[i] @ basis[j]) - (basis[j] @ basis[i]))
            if coords is None:
                raise LieError(f"[b{i},b{j}] is outside the span of the basis")
            if coords:
                table[(i, j)] = coords
        self.dim, self._table = dim, table

    def _solve(self, m: Matrix) -> dict | None:
        """The coordinates m[P] E of m as a row, or None when they do not
        recombine to m."""
        e = self._pivot_rows
        terms = (
            (x, e[r, c]) for r, row in enumerate(m.rows) for c, x in row.items() if (r, c) in e
        )
        coords = _combination(self.field, terms)
        return coords if theta_of(self.basis, coords) == m else None

    def coords(self, m: Matrix) -> dict:
        """Coordinates of a matrix in the basis, as a row; raises
        ``LieError`` for a matrix outside the span."""
        if (m.nrows, m.ncols, m.ring) != (self.basis[0].nrows, self.basis[0].ncols, self.field):
            raise LieError("matrix has another shape or field than the basis")
        coords = self._solve(m)
        if coords is None:
            raise LieError("matrix is outside the span of the basis")
        return coords
