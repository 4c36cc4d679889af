"""Differentiation of matrix-group programs and the van Est map.

Group-level structures are given as programs (see ``programs``): a
difference operator as a one-input program g -> D(g), a representation
as a two-input action program (g, u) -> Theta(g) u, and n-cochains as
n-input programs with matrix values of a fixed shape.

Differentiation is exact jet arithmetic: evaluating a program at
I + e*x over a one-generator jet ring and extracting the e-coefficient.
The van Est map evaluates an n-cochain program at I + e_j * x_{s(j)}
over an n-generator jet ring for every permutation s, extracts the
coefficient of e_1...e_n, and sums with signs, so its output is
alternating by construction and is stored on increasing tuples only.
Each call builds the jet ring and the table of arguments I + e_j * x_i
once, and one ``ValueStore`` that its jet evaluations share for the
duration of the call: a subtree reading fewer inputs than the program
(inverse(x_j), tr(x_j) - k, a constant, in degree 3 a two-input term)
is evaluated once per assignment of the arguments it reads, not once
per tuple and permutation.  The cochain-map verification computes each
VE image and each Lie-side image once and assembles the
pair-differential check from them by linearity of VE.

Program preconditions (the group-level identities) hold on sampled
invertible matrices with a fixed seed; everything after sampling is an
exact identity of jets.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field as dc_field
from typing import Any, Sequence

from .lie import (
    LieCochain,
    LieDifferenceOp,
    LieRep,
    MatrixLieAlgebra,
    ce_coboundary,
    k_map,
    theta_d_matrices,
)
from .exactness import CochainPair
from .linalg import Matrix, det, jet_part
from .programs import (
    Node,
    ValueStore,
    add,
    evaluate,
    inp,
    linmap,
    mul,
    neg,
    sub,
    substitute,
)
from .scalars import JetRing, QuadraticField

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
            if det(m) != self.field.zero:
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
    matrix on it."""

    spec: MatrixGroupSpec
    basis: list[Matrix]
    lie: MatrixLieAlgebra
    dop: LieDifferenceOp


def _jet_arg(ring: JetRing, spec: MatrixGroupSpec, x: Matrix, gen: int) -> Matrix:
    """I + e_gen * x over the jet ring."""
    ident = Matrix.identity(ring, spec.size)
    lifted = x.map_entries(
        lambda c: ring.mul(ring.generator(gen), ring.embed(c)), ring
    )
    return ident + lifted


def differentiate_difference_operator(
    spec: MatrixGroupSpec,
    dprog: Node,
    basis: Sequence[Matrix],
    seed: int = 0,
) -> DifferentiatedOperator:
    """Differentiate a difference-operator program at the identity.

    First the twisted cocycle rule D(gh) = D(g) g D(h) g^{-1} is checked
    on sampled invertible matrices (including the identity pair); then
    D(x) is read off as the e-coefficient of dprog(I + e x) and the
    result is validated as a Lie-algebra difference operator.
    """
    f = spec.field
    rng = random.Random(seed)
    ident = spec.identity()
    pairs = [(ident, ident)]
    pairs += [
        (spec.sample_invertible(rng), spec.sample_invertible(rng))
        for _ in range(DEFAULT_SAMPLES)
    ]
    from .linalg import matrix_inverse

    for g, h in pairs:
        lhs = evaluate(dprog, [g @ h], f)
        dg = evaluate(dprog, [g], f)
        dh = evaluate(dprog, [h], f)
        rhs = dg @ g @ dh @ matrix_inverse(g)
        if lhs != rhs:
            raise SampledPreconditionError(
                "difference-operator program violates D(gh) = D(g) g D(h) g^-1 "
                "on a sampled pair"
            )
    if evaluate(dprog, [ident], f) != ident:
        raise SampledPreconditionError("difference-operator program has D(I) != I")

    lie = MatrixLieAlgebra(f, list(basis))
    ring = JetRing(f, 1)
    cols = []
    for x in basis:
        value = evaluate(dprog, [_jet_arg(ring, spec, x, 0)], ring)
        if jet_part(value, ()) != ident:
            raise SampledPreconditionError(
                "difference-operator program is not I + O(e) at I + e x"
            )
        cols.append(lie.coords(jet_part(value, (0,))))
    dmat = Matrix.from_columns(f, cols, lie.dim)
    return DifferentiatedOperator(
        spec=spec, basis=list(basis), lie=lie, dop=LieDifferenceOp(lie, dmat)
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


def apply_t(t: Matrix, value: Matrix) -> Matrix:
    """Apply a coordinate linear map to a matrix-shaped value."""
    coords = t.matvec(list(value.entries))
    return Matrix(value.ring, value.nrows, value.ncols, tuple(coords))


def differentiate_representation(
    spec: MatrixGroupSpec,
    diff: DifferentiatedOperator,
    dprog: Node,
    theta_prog: Node,
    t: Matrix,
    vshape: VSpace,
    seed: int = 0,
) -> LieRep:
    """Differentiate a representation action program.

    Sampled preconditions: Theta(I) = id, multiplicativity, and the
    difference-representation law
    T(Theta(g) u) + Theta(g) u = Theta(D(g) g)(T(u) + u).  Then
    theta(x) is the e-coefficient of Theta(I + e x) acting on the value
    basis, validated as a Lie representation of (g, D).
    """
    f = spec.field
    rng = random.Random(seed)
    ident = spec.identity()
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
    for _ in range(DEFAULT_SAMPLES):
        g = spec.sample_invertible(rng)
        h = spec.sample_invertible(rng)
        d_g = evaluate(dprog, [g], f)
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

    ring = JetRing(f, 1)
    theta = []
    for x in diff.basis:
        gx = _jet_arg(ring, spec, x, 0)
        cols = []
        for u in vbasis:
            w = act(gx, u.map_entries(ring.embed, ring), ring)
            if jet_part(w, ()) != u:
                raise SampledPreconditionError(
                    "representation program is not id + O(e) at I + e x"
                )
            cols.append(list(jet_part(w, (0,)).entries))
        theta.append(Matrix.from_columns(f, cols, vshape.dim))
    return LieRep(diff.dop, theta, t)


def _signed_jet_value(
    ring: JetRing,
    jet_args: Sequence[Sequence[Matrix]],
    prog: Node,
    indices: Sequence[int],
    vshape: VSpace,
    store: ValueStore | None = None,
) -> tuple:
    """The alternating-sum jet evaluation of a cochain program on basis
    elements x_{indices}; ``jet_args[j][i]`` is I + e_j * x_i over
    ``ring``.  Each permutation is one ``evaluate`` on ``store``, if
    given."""
    f = ring.base
    n = len(indices)
    total = [f.zero] * vshape.dim
    for sigma in itertools.permutations(range(n)):
        args = [jet_args[j][indices[sigma[j]]] for j in range(n)]
        value = evaluate(prog, args, ring, store)
        coeff = vshape.flatten(jet_part(value, range(n)))
        if sum(a > b for a, b in itertools.combinations(sigma, 2)) % 2:
            total = [f.sub(x, y) for x, y in zip(total, coeff)]
        else:
            total = [f.add(x, y) for x, y in zip(total, coeff)]
    return tuple(total)


def van_est(
    diff: DifferentiatedOperator,
    prog: Node,
    degree: int,
    vshape: VSpace,
    seed: int = 0,
    check_normalized: bool = True,
) -> LieCochain:
    """The van Est map: differentiate an n-cochain program to an
    alternating Lie n-cochain.

    Normalization (the program vanishes when any argument is the
    identity) is checked on sampled invertible matrices; the output is
    alternating by construction, a signed sum over permutations stored on
    increasing tuples.  One n-generator jet ring and one table of jet
    arguments I + e_j * x_i serve every evaluation of the call, and the
    evaluations share one ``ValueStore`` that lives as long as the call:
    each value of a subtree reading fewer than n inputs is computed once
    per assignment of the arguments it reads.  ``evaluate`` runs once
    per (tuple, permutation).
    """
    if not 1 <= degree <= VE_DEGREE_CAP:
        raise ValueError(f"van Est degree must be in 1..{VE_DEGREE_CAP}, got {degree}")
    f = diff.spec.field
    if check_normalized:
        rng = random.Random(seed)
        ident = diff.spec.identity()
        zero = Matrix.zeros(f, vshape.rows, vshape.cols)
        for s in range(DEFAULT_SAMPLES):
            slot = s % degree
            args = [
                ident if j == slot else diff.spec.sample_invertible(rng)
                for j in range(degree)
            ]
            if evaluate(prog, args, f) != zero:
                raise SampledPreconditionError(
                    "cochain program is not normalized: nonzero on a tuple "
                    "containing the identity"
                )

    ring = JetRing(f, degree)
    jet_args = [
        [_jet_arg(ring, diff.spec, x, j) for x in diff.basis] for j in range(degree)
    ]
    store = ValueStore(prog)
    values = {}
    for tup in itertools.combinations(range(diff.lie.dim), degree):
        values[tup] = _signed_jet_value(ring, jet_args, prog, tup, vshape, store)
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
    dprog: Node,
    theta_prog: Node,
    t: Matrix,
    vshape: VSpace,
    alpha_prog: Node,
    degree: int,
    beta_prog: Node | None = None,
    seed: int = 0,
) -> VanEstReport:
    """Verify that differentiation intertwines the group-level and
    Lie-level structure maps on an n-cochain program:

    (a) VE(d^Theta a) = d^theta VE(a)          [needs degree+1 <= cap]
    (b) VE(hk a) = K(VE a)
    (c) VE(pk a) = 0                           [degrees 1 and 2]
    (d) VE(delta(a, b)) = delta_theta(VE a, VE b), componentwise.

    Each VE image and each Lie-side image is computed once.  (d) is
    assembled from them: its first component is (a), and by linearity of
    VE its second compares VE(hk a) + VE(pk a) + VE(d_D b) with
    K(VE a) + d^{theta_D} VE(b).
    """
    report = VanEstReport(degree=degree)

    def ve(prog: Node, n: int, check_normalized: bool = False) -> LieCochain:
        return van_est(diff, prog, n, vshape, seed=seed, check_normalized=check_normalized)

    ve_alpha = ve(alpha_prog, degree, check_normalized=True)

    ok_first = True
    detail_first = f"first component skipped above the jet cap {VE_DEGREE_CAP}; "
    if degree + 1 <= VE_DEGREE_CAP:
        ve_d_alpha = ve(coboundary_program(theta_prog, alpha_prog, degree), degree + 1)
        lie_d_alpha = ce_coboundary(lierep.theta, ve_alpha)
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

    group_second = ve(hk_program(dprog, t, alpha_prog, degree), degree)
    lie_second = k_map(lierep, ve_alpha)
    ok = group_second == lie_second
    report.add(
        "hk-differentiates-to-K",
        ok,
        "VE(hk a) = K(VE a)" if ok else _mismatch_witness(group_second, lie_second),
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
        ve_beta = ve(beta_prog, degree - 1, check_normalized=True)
    # the pair checks its shape: from degree 2 on it needs a second component
    pair = CochainPair(ve_alpha, ve_beta)
    if pair.beta is not None:
        lie_second = lie_second + ce_coboundary(theta_d_matrices(lierep), pair.beta)
        dd_beta = coboundary_program(
            theta_d_action(dprog, theta_prog), beta_prog, degree - 1
        )
        group_second = group_second + ve(dd_beta, degree)
    ok_second = group_second == lie_second
    ok = ok_first and ok_second
    report.add(
        "pair-differential-intertwines",
        ok,
        ("VE(delta(a,b)) = delta_theta(VE a, VE b)" if ok else detail_first +
         ("" if ok_second else _mismatch_witness(group_second, lie_second))),
    )
    return report
