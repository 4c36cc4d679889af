"""Differentiation of matrix-group programs and the van Est map.

Group-level structures are given as programs (see ``programs``): a
difference operator as a one-input program g -> D(g), a representation
as a two-input action program (g, u) -> Theta(g) u, and n-cochains as
n-input programs with matrix values of a fixed shape.

Differentiation is exact jet arithmetic over a slot-graded jet ring
(see ``scalars.JetRing``): an argument I + sum_k e_{j,k} x_k, with the
generators e_{j,k} of slot j multiplying to zero, carries every basis
direction x_k at once, and the value at I + e_j x_k is read off the
monomials holding e_{j,k}.  A derivative is one evaluation in one slot.
The van Est map reads c(x_{k_0}, ..., x_{k_{n-1}}) off the monomial
e_{0,k_0} ... e_{n-1,k_{n-1}} and sums it with signs over the
permutations of each increasing tuple, so its output is alternating by
construction and is stored on increasing tuples only.  At most two
slots are graded, which bounds the monomials of a jet by twice
(1 + dim g)^2: an image of degree 1 or 2 is one evaluation, and one of
degree 3 is one evaluation per basis element in the first argument.
The cochain-map verification computes each VE image once, takes every
Lie-side image from one ``LieDifferenceComplex`` and assembles the
pair-differential check by linearity of VE.

Program preconditions (the group-level identities) hold on invertible
matrices sampled with a fixed seed, drawn once per differentiated
operator and read by every sampled check; everything after sampling is
an exact identity of jets.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field as dc_field
from typing import Any, Sequence

from .lie import (
    LieCochain,
    LieDifferenceComplex,
    LieDifferenceOp,
    LieRep,
    MatrixLieAlgebra,
    ce_coboundary,
    k_map,
)
from .exactness import CochainPair
from .linalg import Matrix, jet_part, rank
from .programs import (
    Node,
    add,
    apply_linmap as apply_t,
    evaluate,
    inp,
    linmap,
    mul,
    neg,
    sub,
    substitute,
)
from .scalars import Jet, JetRing, QuadraticField

VE_DEGREE_CAP = 3
DEFAULT_SAMPLES = 20


class SampledPreconditionError(ValueError):
    """A program failed a group-level law on a sampled concrete matrix."""


@dataclass
class MatrixGroupSpec:
    """Invertible k x k matrices over an exact field, with a seeded
    small-entry sampler for precondition checks."""

    field: Any
    size: int

    def _sample_scalar(self, rng: random.Random) -> Any:
        if isinstance(self.field, QuadraticField):
            return self.field.from_parts(rng.randint(-3, 3), rng.randint(-3, 3))
        return self.field.from_int(rng.randint(-3, 3))

    def sample_invertible(self, rng: random.Random) -> Matrix:
        while True:
            m = Matrix.from_rows(
                self.field,
                [
                    [self._sample_scalar(rng) for _ in range(self.size)]
                    for _ in range(self.size)
                ],
            )
            if rank(m) == self.size:
                return m

    def identity(self) -> Matrix:
        return Matrix.identity(self.field, self.size)

    def standard_basis(self) -> list[Matrix]:
        """The full matrix algebra basis E_ij in row-major order."""
        return VSpace(self.size, self.size).basis(self.field)


@dataclass
class DifferentiatedOperator:
    """A difference operator program together with its derivative: the
    Lie algebra spanned by the chosen basis and the validated operator
    matrix on it, and the sampled matrices g, with D(g), in the order
    drawn."""

    spec: MatrixGroupSpec
    basis: list[Matrix]
    lie: MatrixLieAlgebra
    dop: LieDifferenceOp
    dprog: Node
    samples: list[tuple[Matrix, Matrix]]


def _tangent_arg(
    ring: JetRing, basis: Sequence[Matrix], slot: int, indices: Sequence[int]
) -> Matrix:
    """I + sum_k e_{slot, k} x_k over the k in ``indices``, where x_k is
    ``basis[k]`` and e_{slot, k} the generator slot * width + k."""
    base, width = ring.base, ring.width
    size = basis[0].nrows
    grid = [[{frozenset(): base.one} if a == b else {} for b in range(size)] for a in range(size)]
    for k in indices:
        gen = frozenset([slot * width + k])
        for a, row in enumerate(basis[k].rows):
            for b, c in row.items():
                grid[a][b][gen] = c
    return Matrix.from_rows(ring, [[Jet(base, ring.ngens, d, width) for d in row] for row in grid])


def differentiate_difference_operator(
    spec: MatrixGroupSpec,
    dprog: Node,
    basis: Sequence[Matrix],
    seed: int = 0,
) -> DifferentiatedOperator:
    """Differentiate a difference-operator program at the identity.

    First the twisted cocycle rule D(gh) = D(g) g D(h) g^{-1} is checked
    on sampled pairs and on the identity pair, which gives D(I), in the
    form D(gh) g = D(g) g D(h), which needs no inverse; then
    D(x) is read off as the e-coefficient of dprog(I + e x) and the
    result is validated as a Lie-algebra difference operator.  One
    evaluation at I + sum_k e_k x_k, in one slot of width dim g, gives
    every column.
    """
    f = spec.field
    rng = random.Random(seed)
    ident = spec.identity()
    drawn = [spec.sample_invertible(rng) for _ in range(2 * DEFAULT_SAMPLES)]
    samples = []
    for g, h in [(ident, ident), *zip(drawn[::2], drawn[1::2])]:
        lhs = evaluate(dprog, [g @ h], f)
        dg = evaluate(dprog, [g], f)
        dh = evaluate(dprog, [h], f)
        if lhs @ g != dg @ g @ dh:
            raise SampledPreconditionError(
                "difference-operator program violates D(gh) = D(g) g D(h) g^-1 "
                "on a sampled pair"
            )
        samples += [(g, dg), (h, dh)]
    if samples[0][1] != ident:
        raise SampledPreconditionError("difference-operator program has D(I) != I")

    lie = MatrixLieAlgebra(f, list(basis))
    ring = JetRing(f, lie.dim, lie.dim)
    value = evaluate(dprog, [_tangent_arg(ring, basis, 0, range(lie.dim))], ring)
    if jet_part(value, ()) != ident:
        raise SampledPreconditionError(
            "difference-operator program is not I + O(e) at I + e x"
        )
    cols = [lie.coords(jet_part(value, (k,))) for k in range(lie.dim)]
    dmat = Matrix.from_rows(f, cols).transpose()
    return DifferentiatedOperator(
        spec=spec, basis=list(basis), lie=lie, dop=LieDifferenceOp(lie, dmat),
        dprog=dprog, samples=samples[2:],
    )


@dataclass
class VSpace:
    """Matrix-shaped value space for cochain programs: values are
    (rows x cols) matrices, coordinates are row-major entries."""

    rows: int
    cols: int

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def basis(self, f: Any) -> list[Matrix]:
        out = []
        for i in range(self.rows):
            for j in range(self.cols):
                grid = [
                    [f.one if (a, b) == (i, j) else f.zero for b in range(self.cols)]
                    for a in range(self.rows)
                ]
                out.append(Matrix.from_rows(f, grid))
        return out

    def flatten(self, m: Matrix) -> tuple:
        if (m.nrows, m.ncols) != (self.rows, self.cols):
            raise ValueError(
                f"value has shape {m.nrows}x{m.ncols}, expected {self.rows}x{self.cols}"
            )
        return m.entries


def differentiate_representation(
    diff: DifferentiatedOperator,
    theta_prog: Node,
    t: Matrix,
    vshape: VSpace,
) -> LieRep:
    """Differentiate a representation action program.

    Sampled preconditions, on the pairs (g, h) of ``diff.samples``:
    Theta(I) = id, multiplicativity, and the difference-representation
    law T(Theta(g) u) + Theta(g) u = Theta(D(g) g)(T(u) + u).  Then
    theta(x_k) is the e_k-coefficient of Theta(I + sum_k e_k x_k), one
    evaluation per value-basis vector, validated as a Lie representation
    of (g, D).
    """
    f = diff.spec.field
    ident = diff.spec.identity()
    vbasis = vshape.basis(f)
    if t.nrows != vshape.dim or t.ncols != vshape.dim or t.ring != f:
        raise ValueError(f"T must be {vshape.dim}x{vshape.dim} over the base field")

    def act(g: Matrix, u: Matrix, ring: Any) -> Matrix:
        out = evaluate(theta_prog, [g, u], ring)
        if (out.nrows, out.ncols) != (u.nrows, u.ncols):
            raise SampledPreconditionError(
                "representation program changes the value shape"
            )
        return out

    for u in vbasis:
        if act(ident, u, f) != u:
            raise SampledPreconditionError("representation program has Theta(I) != id")
    for (g, d_g), (h, _) in zip(diff.samples[::2], diff.samples[1::2]):
        for u in vbasis:
            if act(g, act(h, u, f), f) != act(g @ h, u, f):
                raise SampledPreconditionError(
                    "representation program is not multiplicative on a sampled pair"
                )
            gu = act(g, u, f)
            lhs = apply_t(t, gu) + gu
            tu_u = apply_t(t, u) + u
            rhs = act(d_g @ g, tu_u, f)
            if lhs != rhs:
                raise SampledPreconditionError(
                    "representation program violates the difference-"
                    "representation law on a sampled element"
                )

    dim = diff.lie.dim
    ring = JetRing(f, dim, dim)
    gx = _tangent_arg(ring, diff.basis, 0, range(dim))
    images = []
    for u in vbasis:
        w = act(gx, u.map_entries(ring.embed, ring), ring)
        if jet_part(w, ()) != u:
            raise SampledPreconditionError(
                "representation program is not id + O(e) at I + e x"
            )
        images.append(w)
    theta = [
        Matrix.from_rows(f, [jet_part(w, (k,)).entries for w in images]).transpose()
        for k in range(dim)
    ]
    return LieRep(diff.dop, theta, t)


def _require_degree(degree: int) -> None:
    if not 1 <= degree <= VE_DEGREE_CAP:
        raise ValueError(f"van Est degree must be in 1..{VE_DEGREE_CAP}, got {degree}")


def check_normalized(
    diff: DifferentiatedOperator, prog: Node, degree: int, vshape: VSpace
) -> None:
    """Check on samples that an n-cochain program is normalized: it
    vanishes when any argument is the identity.  Tuple s puts I in slot
    s mod n and the next matrices of ``diff.samples`` in the others;
    at degree 1 the one tuple is (I)."""
    _require_degree(degree)
    f = diff.spec.field
    ident = diff.spec.identity()
    zero = Matrix.zeros(f, vshape.rows, vshape.cols)
    drawn = (g for g, _ in diff.samples)
    for s in range(DEFAULT_SAMPLES if degree > 1 else 1):
        args = [ident if j == s % degree else next(drawn) for j in range(degree)]
        if evaluate(prog, args, f) != zero:
            raise SampledPreconditionError(
                "cochain program is not normalized: nonzero on a tuple "
                "containing the identity"
            )


def van_est(diff: DifferentiatedOperator, prog: Node, degree: int, vshape: VSpace) -> LieCochain:
    """The van Est map: differentiate an n-cochain program to an
    alternating Lie n-cochain.

    The program is taken to be normalized (``check_normalized``).  The
    jet ring has ``degree`` slots of width dim g.  The last two
    arguments are graded, I + sum_k e_{j,k} x_k, and an argument before
    them (degree 3 only) is I + e_{0,k} x_k for one k per evaluation, so
    ``evaluate`` runs once per image of degree 1 or 2 and dim g times
    per image of degree 3.  Each increasing tuple then sums, with signs,
    the coefficients of e_{0,k_0} ... e_{n-1,k_{n-1}} over its
    permutations (k_0, ..., k_{n-1}), so the output is alternating by
    construction.
    """
    _require_degree(degree)
    f = diff.spec.field
    dim = diff.lie.dim
    tuples = list(itertools.combinations(range(dim), degree))
    ring = JetRing(f, degree * dim, dim)
    lead = max(degree - 2, 0)
    graded = [_tangent_arg(ring, diff.basis, j, range(dim)) for j in range(lead, degree)]
    images = {}
    for head in itertools.product(range(dim), repeat=lead) if tuples else ():
        args = [_tangent_arg(ring, diff.basis, j, [k]) for j, k in enumerate(head)]
        images[head] = vshape.flatten(evaluate(prog, args + graded, ring))
    values = {}
    for tup in tuples:
        total = [f.zero] * vshape.dim
        for ks in itertools.permutations(tup):
            monomial = frozenset(j * dim + k for j, k in enumerate(ks))
            coeff = [x.coefficient(monomial) for x in images[ks[:lead]]]
            odd = sum(a > b for a, b in itertools.combinations(ks, 2)) % 2
            step = f.sub if odd else f.add
            total = [step(x, y) for x, y in zip(total, coeff)]
        values[tup] = tuple(total)
    return LieCochain(diff.lie, vshape.dim, degree, values)


def coboundary_program(theta_prog: Node, alpha_prog: Node, degree: int) -> Node:
    """The twisted coboundary as a program combinator: (degree+1)-input
    program computing d^Theta applied to an n-cochain program."""
    n = degree
    acc = substitute(
        theta_prog,
        [inp(0), substitute(alpha_prog, [inp(i) for i in range(1, n + 1)])],
    )
    for i in range(1, n + 1):
        args = (
            [inp(j) for j in range(i - 1)]
            + [mul(inp(i - 1), inp(i))]
            + [inp(j) for j in range(i + 1, n + 1)]
        )
        term = substitute(alpha_prog, args)
        acc = sub(acc, term) if i % 2 == 1 else add(acc, term)
    last = substitute(alpha_prog, [inp(j) for j in range(n)])
    return sub(acc, last) if (n + 1) % 2 == 1 else add(acc, last)


def pk_program(dprog: Node, theta_prog: Node, alpha_prog: Node, degree: int) -> Node | None:
    """The degree-sensitive connecting term as a program; None above
    degree 2, where it vanishes identically."""
    if degree == 1:
        g = inp(0)
        d_g = substitute(dprog, [g])
        first = substitute(theta_prog, [d_g, substitute(alpha_prog, [g])])
        second = substitute(alpha_prog, [mul(d_g, g)])
        third = substitute(alpha_prog, [d_g])
        return sub(sub(second, first), third)
    if degree == 2:
        g1, g2 = inp(0), inp(1)
        d_g1 = substitute(dprog, [g1])
        d_g2 = substitute(dprog, [g2])
        g12 = mul(g1, g2)
        d_g12 = substitute(dprog, [g12])
        first = substitute(alpha_prog, [d_g1, g1])
        second = substitute(alpha_prog, [d_g12, g12])
        third = substitute(
            theta_prog, [mul(d_g1, g1), substitute(alpha_prog, [d_g2, g2])]
        )
        return add(sub(first, second), third)
    return None


def hk_program(dprog: Node, t: Matrix, alpha_prog: Node, degree: int) -> Node:
    """The homomorphism part of the connecting map as a program."""
    n = degree
    plus_args = [mul(substitute(dprog, [inp(j)]), inp(j)) for j in range(n)]
    straight = substitute(alpha_prog, [inp(j) for j in range(n)])
    term = sub(sub(substitute(alpha_prog, plus_args), linmap(t, straight)), straight)
    return neg(term) if n % 2 == 1 else term


def theta_d_action(dprog: Node, theta_prog: Node) -> Node:
    """The action program of the induced representation
    Theta_D(g) = Theta(D(g) g)."""
    g, u = inp(0), inp(1)
    return substitute(theta_prog, [mul(substitute(dprog, [g]), g), u])


@dataclass
class VanEstCheck:
    name: str
    ok: bool
    detail: str


@dataclass
class VanEstReport:
    degree: int
    checks: list[VanEstCheck] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(VanEstCheck(name, ok, detail))


def _mismatch_witness(lhs: LieCochain, rhs: LieCochain) -> str:
    """The first basis tuple where lhs and rhs differ, with both values
    in the field's fixture format, e.g. ``["1"] vs ["0"]``."""
    fmt = lhs.field.format
    keys = sorted(set(lhs.values) | set(rhs.values))
    for k in keys:
        a, b = lhs.value_at_basis(k), rhs.value_at_basis(k)
        if a != b:
            return (
                f"first mismatch at {k}: {json.dumps([fmt(x) for x in a])} vs "
                f"{json.dumps([fmt(x) for x in b])}"
            )
    return "equal"


def verify_van_est_cochain_map(
    diff: DifferentiatedOperator,
    lierep: LieRep,
    theta_prog: Node,
    vshape: VSpace,
    alpha_prog: Node,
    degree: int,
    beta_prog: Node | None = None,
) -> VanEstReport:
    """Verify that differentiation intertwines the group-level and
    Lie-level structure maps on an n-cochain program:

    (a) VE(d^Theta a) = d^theta VE(a)          [needs degree+1 <= cap]
    (b) VE(hk a) = K(VE a)
    (c) VE(pk a) = 0                           [degrees 1 and 2]
    (d) VE(delta(a, b)) = delta_theta(VE a, VE b), componentwise.

    a and b are checked to be normalized first.  Each VE image is
    computed once, and every Lie-side image comes from one
    ``LieDifferenceComplex``.  (d) is assembled from them: its first
    component is (a), and by linearity of VE its second compares
    VE(hk a) + VE(pk a) + VE(d_D b) with the second component of
    delta_theta(VE a, VE b), read off the complex's d_B.
    """
    report = VanEstReport(degree=degree)
    cx = LieDifferenceComplex(lierep)
    dprog = diff.dprog

    def ve(prog: Node, n: int) -> LieCochain:
        return van_est(diff, prog, n, vshape)

    check_normalized(diff, alpha_prog, degree, vshape)
    ve_alpha = ve(alpha_prog, degree)

    ok_first = True
    detail_first = f"first component skipped above the jet cap {VE_DEGREE_CAP}; "
    if degree + 1 <= VE_DEGREE_CAP:
        ve_d_alpha = ve(coboundary_program(theta_prog, alpha_prog, degree), degree + 1)
        lie_d_alpha = ce_coboundary(cx, ve_alpha)
        ok_first = ve_d_alpha == lie_d_alpha
        detail_first = "" if ok_first else _mismatch_witness(ve_d_alpha, lie_d_alpha)
        report.add(
            "coboundary-intertwines",
            ok_first,
            "VE(d a) = d VE(a)" if ok_first else detail_first,
        )
    else:
        report.add(
            "coboundary-intertwines",
            True,
            f"skipped: degree {degree + 1} exceeds the jet cap {VE_DEGREE_CAP}",
        )

    group_second = ve(hk_program(dprog, lierep.t, alpha_prog, degree), degree)
    lie_k = k_map(cx, ve_alpha)
    ok = group_second == lie_k
    report.add(
        "hk-differentiates-to-K",
        ok,
        "VE(hk a) = K(VE a)" if ok else _mismatch_witness(group_second, lie_k),
    )

    if degree <= 2:
        ve_pk = ve(pk_program(dprog, theta_prog, alpha_prog, degree), degree)
        ok = ve_pk.is_zero()
        report.add(
            "pk-differentiates-to-zero",
            ok,
            "VE(pk a) = 0" if ok else f"nonzero at {sorted(ve_pk.values)[0]}",
        )
        group_second = group_second + ve_pk

    ve_beta = None
    if beta_prog is not None:
        if degree < 2:
            raise ValueError("a second component needs degree >= 2")
        check_normalized(diff, beta_prog, degree - 1, vshape)
        ve_beta = ve(beta_prog, degree - 1)
        dd_beta = coboundary_program(theta_d_action(dprog, theta_prog), beta_prog, degree - 1)
        group_second = group_second + ve(dd_beta, degree)
    # the pair checks its shape: from degree 2 on it needs a second component
    lie_second = cx.delta(CochainPair(ve_alpha, ve_beta)).beta
    ok_second = group_second == lie_second
    ok = ok_first and ok_second
    report.add(
        "pair-differential-intertwines",
        ok,
        ("VE(delta(a,b)) = delta_theta(VE a, VE b)" if ok else detail_first +
         ("" if ok_second else _mismatch_witness(group_second, lie_second))),
    )
    return report
