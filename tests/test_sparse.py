"""The ``Matrix`` arithmetic, the sparse elimination and the one-pass
operator assembly against the dense routes they replaced
(``oracles.py``), and the rank route for cohomology dimensions against
explicit cohomology spaces."""

import gc
import inspect
import json
import pathlib
import time
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffcoh import exactness, extensions, group_cohomology, lie as lie_module, linalg

from diffcoh.catalog import (
    alternating4,
    cyclic,
    dihedral,
    inverse_map,
    klein_four,
    quaternion8,
    symmetric,
)
from diffcoh.cli import main
from diffcoh.exactness import (
    BudgetExceededError,
    InternalCheckError,
    LESData,
    cohomology_space,
)
from diffcoh.fixtures import GroupFixture, LieFixture, load_fixture
from diffcoh.group_cohomology import CochainPair, DifferenceComplex
from diffcoh.groups import DifferenceGroup, DifferenceRep
from diffcoh.lie import (
    LieAlgebra,
    LieCochain,
    LieDifferenceComplex,
    LieDifferenceOp,
    LieRep,
)
from diffcoh.linalg import (
    LinAlgError,
    Matrix,
    column_space_basis,
    kernel_basis,
    rank,
    rref,
    solve,
    triangular_ranks,
)
from diffcoh.scalars import JetRing, PrimeField, QuadraticField, Rationals

from oracles import (
    ce_coboundary,
    coboundary,
    delta,
    delta_theta,
    dense_add,
    dense_column_space_basis,
    dense_echelon,
    dense_kernel_basis,
    dense_matmul,
    dense_matvec,
    dense_neg,
    dense_rank,
    dense_scale,
    dense_solve,
    dense_sub,
    dense_trace,
    dense_transpose,
    dense,
    k_map,
    kk,
    modular_rank,
    per_basis_matrix,
    sparse,
    three_rank_dims,
)

from helpers import trivial_fixture

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
# a Mersenne prime whose products overflow 64 bits
F_BIG = PrimeField(2**61 - 1)
Q2 = QuadraticField(2)
JET = JetRing(Q, 2)

# ------------------------------------------------------------ elimination

# small integers, mostly zero, so that the matrices are sparse and rank
# deficient often enough to exercise free columns and inconsistent systems
small = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


def _scalar(field, a, b):
    """a / (1 + |b|) over Q, a + b sqrt(2) over Q(sqrt 2), a mod p over F_p,
    and the nilpotent a e_0 + b e_1 over the jet ring, so that products
    of nonzero jets vanish (e_0 e_0 = 0)."""
    if field is Q:
        return Fraction(a, 1 + abs(b))
    if field is Q2:
        return Q2.from_parts(a, b)
    if field is JET:
        e0, e1 = JET.generator(0), JET.generator(1)
        return JET.add(JET.mul(JET.from_int(a), e0), JET.mul(JET.from_int(b), e1))
    return field.from_int(a)


@st.composite
def matrices(draw, field, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(1, 6)) if ncols is None else ncols
    rows = [
        [_scalar(field, draw(small), draw(small)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return Matrix(field, nrows, ncols, [sparse(row, field.zero) for row in rows])


FIELDS = [F2, F3, F_BIG, Q, Q2]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@given(data=st.data())
def test_sparse_echelon_matches_dense_oracle(field, data):
    m = data.draw(matrices(field))
    f = m.ring
    assert rank(m) == dense_rank(m)
    assert [dense(v, m.ncols, f.zero) for v in kernel_basis(m)] == dense_kernel_basis(m)
    assert [list(m.col(j)) for j in column_space_basis(m)] == dense_column_space_basis(m)
    rows, pivots = rref(m)
    dense_rows, dense_pivots = dense_echelon(m)
    assert pivots == dense_pivots
    assert [[row.get(j, f.zero) for j in range(m.ncols)] for row in rows] == dense_rows[
        : len(pivots)
    ]
    b = [_scalar(field, data.draw(small), data.draw(small)) for _ in range(m.nrows)]
    x = [_scalar(field, data.draw(small), data.draw(small)) for _ in range(m.ncols)]
    for rhs in (b, dense(m.matvec(sparse(x, f.zero)), m.nrows, f.zero)):
        assert _dense_solution(m, rhs) == dense_solve(m, rhs)


def _dense_solution(m, rhs):
    """``solve`` on the dense right-hand side rhs, as a dense list."""
    zero = m.ring.zero
    x = solve(m, sparse(rhs, zero))
    return None if x is None else dense(x, m.ncols, zero)


@pytest.mark.parametrize("field", [*FIELDS, JET], ids=repr)
@given(data=st.data())
def test_sparse_matrix_arithmetic_matches_dense(field, data):
    """Every ``Matrix`` operation equals the dense loop over its entries,
    and no result stores a zero."""
    a = data.draw(matrices(field))
    b = data.draw(matrices(field, a.nrows, a.ncols))
    c = data.draw(matrices(field, a.ncols))
    square = data.draw(matrices(field, a.nrows, a.nrows))
    s = _scalar(field, data.draw(small), data.draw(small))
    v = [_scalar(field, data.draw(small), data.draw(small)) for _ in range(a.ncols)]
    results = [
        (a + b, dense_add(a, b), a.ncols),
        (a - b, dense_sub(a, b), a.ncols),
        (-a, dense_neg(a), a.ncols),
        (a @ c, dense_matmul(a, c), c.ncols),
        (a.scale(s), dense_scale(s, a), a.ncols),
        (a.transpose(), dense_transpose(a), a.nrows),
        (a, a.to_lists(), a.ncols),
    ]
    for m, dense, ncols in results:
        assert m.to_lists() == dense and (m.nrows, m.ncols) == (len(dense), ncols)
        assert all(x != field.zero for row in m.rows for x in row.values())
    if a.nrows:
        assert Matrix.from_rows(field, a.to_lists()) == a
    assert a.entries == tuple(x for row in a.to_lists() for x in row)
    assert a.is_zero() == all(x == field.zero for x in a.entries)
    # matvec takes and returns {coordinate: value} rows that store no zero
    assert a.matvec(sparse(v, field.zero)) == sparse(dense_matvec(a, v), field.zero)
    with pytest.raises(LinAlgError):
        a.matvec({a.ncols: field.one})
    assert square.trace() == dense_trace(square)


@st.composite
def lower_triangular(draw, field):
    """(m, top, left): m = [[X, 0], [K, Y]] with X of size top x left;
    any block may be empty."""
    top, bottom = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    left, right = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = []
    for i in range(top + bottom):
        row = {}
        for j in range(left if i < top else left + right):
            x = _scalar(field, draw(small), draw(small))
            if x != field.zero:
                row[j] = x
        rows.append(row)
    return Matrix(field, top + bottom, left + right, rows), top, left


def _block(m, rows, cols):
    return Matrix.from_rows(m.ring, [[m.rows[i].get(j, m.ring.zero) for j in cols] for i in rows])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@given(data=st.data())
def test_triangular_ranks_are_the_ranks_of_the_blocks(field, data):
    m, top, left = data.draw(lower_triangular(field))
    x = _block(m, range(top), range(left))
    y = _block(m, range(top, m.nrows), range(left, m.ncols))
    ranks = (dense_rank(x), dense_rank(y), dense_rank(m))
    assert triangular_ranks(m, top, left) == ranks


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@given(data=st.data())
def test_triangular_ranks_with_bounds_at_or_above_the_ranks(field, data):
    # a band stops once its pivots reach its bound, which is exact for
    # any bound at or above the rank of the rows through that band
    m, top, left = data.draw(lower_triangular(field))
    ranks = triangular_ranks(m, top, left)
    x_rank, _, m_rank = ranks
    assert triangular_ranks(m, top, left, (x_rank, m_rank)) == ranks
    slack = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    assert triangular_ranks(m, top, left, (x_rank + slack[0], m_rank + slack[1])) == ranks


def test_triangular_ranks_of_a_degree_one_shape():
    # d_B(1) = [[d_C], [K]]: the sub complex has no degree-1 cochains
    m = Matrix.from_rows(F3, [[1, 2], [2, 1], [0, 1]])
    assert triangular_ranks(m, 2, 2) == (1, 0, 2)
    assert triangular_ranks(m, 0, 2) == (0, 0, 2)
    assert triangular_ranks(m, 3, 2) == (2, 0, 2)


def test_triangular_ranks_reject_a_nonzero_top_right_entry():
    m = Matrix.from_rows(F3, [[1, 0, 0], [0, 0, 2], [1, 1, 1]])
    assert triangular_ranks(m, 1, 2) == (1, 1, 3)
    with pytest.raises(LinAlgError, match=r"entry \(1, 2\) of the top-right block"):
        triangular_ranks(m, 2, 2)
    with pytest.raises(LinAlgError, match="block corner"):
        triangular_ranks(m, 4, 0)


@st.composite
def wide_f2_matrices(draw):
    """Sparse F_2 matrices of 65 to 160 columns, so that a packed row
    spans several 64-bit words; the rows draw their nonzeros from a few
    shared columns, so that they reduce against each other."""
    ncols = draw(st.integers(65, 160))
    shared = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=8, unique=True))
    nrows = draw(st.integers(0, 8))
    rows = [
        dict.fromkeys(draw(st.lists(st.sampled_from(shared), max_size=5, unique=True)), 1)
        for _ in range(nrows)
    ]
    return Matrix(F2, nrows, ncols, rows)


@given(data=st.data())
def test_f2_bitset_rows_match_dense_oracle_across_words(data):
    m = data.draw(wide_f2_matrices())
    assert rank(m) == dense_rank(m) == modular_rank(m)
    assert [dense(v, m.ncols) for v in kernel_basis(m)] == dense_kernel_basis(m)
    assert [list(m.col(j)) for j in column_space_basis(m)] == dense_column_space_basis(m)
    rows, pivots = rref(m)
    dense_rows, dense_pivots = dense_echelon(m)
    assert pivots == dense_pivots
    assert [[row.get(j, 0) for j in range(m.ncols)] for row in rows] == dense_rows[: len(pivots)]
    assert all(set(row.values()) == {1} for row in rows)
    x_bits = data.draw(st.integers(0, 2**m.ncols - 1))
    x = [x_bits >> j & 1 for j in range(m.ncols)]
    b = [data.draw(st.integers(0, 1)) for _ in range(m.nrows)]
    for rhs in (b, dense(m.matvec(sparse(x)), m.nrows)):
        assert _dense_solution(m, rhs) == dense_solve(m, rhs)


def test_entries_are_the_stored_nonzeros():
    # rows holds the nonzeros; entries is every entry, zeros included
    m = Matrix.from_rows(F3, [[0, 1, 0], [2, 0, 0]])
    assert m.rows == ({1: 1}, {0: 2})
    assert m.entries == (0, 1, 0, 2, 0, 0)
    assert (m - m).rows == ({}, {})


def test_integer_rows_keep_rational_rank_exact():
    # rows that differ by a rational multiple, with large denominators
    big = Fraction(1, 2**70 + 1)
    m = Matrix.from_rows(Q, [[big, 3 * big, 0], [Fraction(1), Fraction(3), Fraction(0)]])
    assert rank(m) == 1
    assert rref(m) == ([{0: Fraction(1), 1: Fraction(3)}], [0])


# --------------------------------------------------------------- assembly


def _rep(group, field, d, theta_rows, t_rows):
    dg = DifferenceGroup(group, d)
    theta = [Matrix.from_rows(field, rows) for rows in theta_rows]
    return DifferenceRep(dg, theta, Matrix.from_rows(field, t_rows))


def _trivial(group, field, t=0):
    one = [[field.one]]
    return _rep(group, field, inverse_map(group), [one] * group.order, [[field.from_int(t)]])


def _swap_rep():
    # C2 swapping the coordinates of F_3^2; D = inversion, T = swap
    c2 = cyclic(2)
    ident = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    return _rep(c2, F3, inverse_map(c2), [ident, swap], swap)


def _sign_rep(field=Q):
    # S3 acting on the field by the sign; D = inversion forces T = -1
    # the squares of S3 form its alternating subgroup, where the sign is +1;
    # D(g) g = e, so Theta_D is trivial, not the sign
    s3 = symmetric(3)
    squares = {s3.mul(h, h) for h in s3.elements}
    minus = field.neg(field.one)
    theta = [[[field.one if g in squares else minus]] for g in s3.elements]
    return _rep(s3, field, inverse_map(s3), theta, [[minus]])


def _constant_d_rep():
    # C3 with D = e, so D(g) g = g; theta trivial on F_2, T = 1
    c3 = cyclic(3)
    return _rep(c3, F2, [c3.identity] * 3, [[[1]]] * 3, [[1]])


def _shipped_group_reps():
    out = []
    for path in sorted(FIXDIR.glob("*.json")):
        fx = load_fixture(str(path))
        if isinstance(fx, GroupFixture) and fx.rep is not None:
            out.append(pytest.param(fx.rep, 3, id=path.stem))
    return out


ASSEMBLY_CASES = _shipped_group_reps() + [
    pytest.param(_trivial(symmetric(3), F3), 2, id="S3/F3"),
    pytest.param(_trivial(cyclic(4), F2), 3, id="C4/F2"),
    pytest.param(_trivial(cyclic(5), Q), 2, id="C5/Q"),
    pytest.param(_trivial(cyclic(6), F2), 2, id="C6/F2"),
    pytest.param(_trivial(klein_four(), F2, t=1), 3, id="V4/F2,T=1"),
    pytest.param(_swap_rep(), 3, id="C2/F3^2,swap"),
    pytest.param(_sign_rep(), 2, id="S3/Q,sign"),
    pytest.param(_constant_d_rep(), 3, id="C3/F2,D=e"),
]


@pytest.mark.parametrize("rep,max_degree", ASSEMBLY_CASES)
def test_scatter_assembly_matches_per_basis_cochain_assembly(rep, max_degree):
    cx = DifferenceComplex(rep)
    for n in range(1, max_degree + 1):
        d = per_basis_matrix(cx, lambda a: coboundary(rep.theta, a), n, n + 1)
        d_d = per_basis_matrix(cx, lambda a: coboundary(cx.theta_d, a), n, n + 1)
        k = per_basis_matrix(cx, lambda a: kk(rep, a), n, n)
        assert cx.d_ordinary(n) == d, n
        assert cx.d_difference(n) == d_d, n
        assert cx.k_matrix(n) == k, n


# ------------------------------------------------------ Lie face scatter


def _lie(field, dim, brackets):
    return LieAlgebra(
        field, dim, {k: tuple(field.from_int(x) for x in v) for k, v in brackets.items()}
    )


def _sl2(field):
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return _lie(field, 3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})


def _h3_plus(field, dim):
    """h3 + F^(dim-3) with [e0,e1] = e_(dim-1)."""
    return _lie(field, dim, {(0, 1): tuple(int(m == dim - 1) for m in range(dim))})


def _diagonal(field, values):
    n = len(values)
    return Matrix.from_rows(
        field, [[values[i] if i == j else field.zero for j in range(n)] for i in range(n)]
    )


def _trivial_lie_rep(lie, d):
    f = lie.field
    zero = Matrix.zeros(f, 1, 1)
    return LieRep(LieDifferenceOp(lie, d), [zero] * lie.dim, zero)


def _adjoint_rep(lie, d_plus_diagonal):
    """theta = ad and T = D, a representation whenever D is a difference
    operator; D is given by the diagonal of D_+ = id + D."""
    f = lie.field
    d = _diagonal(f, [f.sub(x, f.one) for x in d_plus_diagonal])
    ad = [
        Matrix.from_rows(f, [lie.bracket_basis(i, j) for j in range(lie.dim)]).transpose()
        for i in range(lie.dim)
    ]
    return LieRep(LieDifferenceOp(lie, d), ad, d)


def _adjoint_cases():
    """sl2 and h3 + F over Q, F_3 and F_5 with D = 0, D = -I and a
    diagonal D_+ other than the identity: diag(1, 2, 1/2) on (h, e, f)
    and diag(2, 1, 2, 2) on h3 + F are Lie algebra endomorphisms."""
    out = []
    for field, name in ((Q, "Q"), (F3, "F3"), (F5, "F5")):
        two, one, zero = field.from_int(2), field.one, field.zero
        for lie, label, diagonal in (
            (_sl2(field), "sl2", [one, two, field.inv(two)]),
            (_h3_plus(field, 4), "h3+F", [two, one, two, two]),
        ):
            for d_name, d_plus in (
                ("D=0", [one] * lie.dim),
                ("D=-I", [zero] * lie.dim),
                ("D+diag", diagonal),
            ):
                out.append(pytest.param(_adjoint_rep(lie, d_plus), id=f"{label}/{name},{d_name}"))
    return out


def _shipped_lie_reps():
    out = []
    for path in sorted(FIXDIR.glob("*.json")):
        fx = load_fixture(str(path))
        if isinstance(fx, LieFixture) and fx.rep is not None:
            out.append(pytest.param(fx.rep, id=path.stem))
    return out


LIE_ASSEMBLY_CASES = (
    _shipped_lie_reps()
    + [
        pytest.param(_trivial_lie_rep(_h3_plus(Q, 5), Matrix.zeros(Q, 5, 5)), id="h3+Q^2,D=0"),
        pytest.param(_trivial_lie_rep(_h3_plus(Q, 5), -Matrix.identity(Q, 5)), id="h3+Q^2,D=-I"),
    ]
    + _adjoint_cases()
)


@pytest.mark.parametrize("rep", LIE_ASSEMBLY_CASES)
def test_lie_scatter_assembly_matches_per_basis_cochain_assembly(rep):
    cx = LieDifferenceComplex(rep)
    for n in range(1, rep.lie.dim + 1):
        d = per_basis_matrix(cx, lambda z: ce_coboundary(rep.theta, z), n, n + 1)
        d_d = per_basis_matrix(cx, lambda z: ce_coboundary(cx.theta_d, z), n, n + 1)
        k = per_basis_matrix(cx, lambda z: k_map(rep, z), n, n)
        assert cx.d_ordinary(n) == d, n
        assert cx.d_difference(n) == d_d, n
        assert cx.k_matrix(n) == k, n


def _corrupted_k_rep():
    rep = _adjoint_rep(_sl2(Q), [Q.one, Q.from_int(2), Fraction(1, 2)])
    rep.dop.d_plus = Matrix.identity(Q, 3)  # D_+ no longer equals id + D
    return rep


def test_k_oracle_flags_a_corrupted_k():
    # the session-wide hook in conftest compares every matrix of the Lie
    # K with the subset expansion kept in oracles
    rep = _corrupted_k_rep()
    with pytest.raises(AssertionError, match=r"K in degree 1 differs from its subset expansion"):
        LieDifferenceComplex(rep).k_matrix(1)
    z = LieCochain(rep.lie, rep.dimv, 1, {(0,): (Q.one,) * rep.dimv})
    with pytest.raises(AssertionError, match=r"K in degree 1 differs from its subset expansion"):
        lie_module.k_map(LieDifferenceComplex(rep), z)


def test_a_corrupted_k_breaks_the_square_of_the_total_differential(monkeypatch):
    # without the oracle, K is guarded at run time by d_B d_B = 0, whose
    # off-diagonal block is K d_C + d_A K
    monkeypatch.setattr(exactness, "operator_matrix", inspect.unwrap(exactness.operator_matrix))
    for check, max_degree in (("cohomology_dims", 3), ("verify_les", 2)):
        cx = LieDifferenceComplex(_corrupted_k_rep())
        with pytest.raises(InternalCheckError, match="do not compose to zero"):
            getattr(cx, check)(max_degree)


# ------------------------------------------ per-cochain entry points


def _random_cochain(data, space):
    """A cochain of ``space`` with small, mostly zero coordinates."""
    f = space.field
    return space.from_vector(
        sparse([_scalar(f, data.draw(small), data.draw(small)) for _ in range(space.size)], f.zero)
    )


def _random_nonzero_cochain(data, space):
    """A cochain of ``space`` like ``_random_cochain``, with a one at a
    drawn coordinate unless the space is zero (the trivial group's)."""
    vec = space.to_vector(_random_cochain(data, space))
    if space.size:
        vec[data.draw(st.integers(0, space.size - 1))] = space.field.one
    return space.from_vector(vec)


@pytest.mark.parametrize("rep,max_degree", ASSEMBLY_CASES)
@settings(max_examples=6)
@given(data=st.data())
def test_group_entry_points_match_their_oracles(rep, max_degree, data):
    """coboundary(cx, a), kk(cx, a) and delta(cx, pair) against the
    per-cochain loops on random cochains; d_D is reached through delta
    with a nonzero second component, beside alpha and alone.  Every
    case has tuples (g, g^-1) whose merged face is the identity, and
    with D = inversion every D_+ face is the identity."""
    cx = DifferenceComplex(rep)
    n = data.draw(st.integers(1, max_degree))
    a = _random_cochain(data, cx.space(n))
    assert group_cohomology.coboundary(cx, a) == coboundary(rep.theta, a)
    assert group_cohomology.kk(cx, a) == kk(rep, a)
    b = _random_nonzero_cochain(data, cx.space(n - 1)) if n > 1 else None
    pair = CochainPair(a, b)
    assert group_cohomology.delta(cx, pair) == delta(rep, pair)
    if b is not None:
        alone = group_cohomology.delta(cx, CochainPair(cx.space(n).zero, b))
        assert alone.alpha.is_zero()
        assert alone.beta == coboundary(cx.theta_d, b)


@pytest.mark.parametrize("rep", LIE_ASSEMBLY_CASES)
@settings(max_examples=6)
@given(data=st.data())
def test_lie_entry_points_match_their_oracles(rep, data):
    """ce_coboundary(cx, z), k_map(cx, z) and cx.delta(pair) against
    the per-cochain loops on random cochains, in every degree up to one
    above dim g, whose space and image are zero; d_D is reached through
    delta with a nonzero second component, beside zeta and alone."""
    cx = LieDifferenceComplex(rep)
    n = data.draw(st.integers(1, rep.lie.dim + 1))
    z = _random_cochain(data, cx.space(n))
    assert lie_module.ce_coboundary(cx, z) == ce_coboundary(rep.theta, z)
    assert lie_module.k_map(cx, z) == k_map(rep, z)
    xi = _random_nonzero_cochain(data, cx.space(n - 1)) if n > 1 else None
    pair = CochainPair(z, xi)
    assert cx.delta(pair) == delta_theta(rep, pair)
    if xi is not None:
        alone = cx.delta(CochainPair(cx.space(n).zero, xi))
        assert alone.alpha.is_zero()
        assert alone.beta == ce_coboundary(cx.theta_d, xi)


def test_lie_space_respects_the_budget():
    cx = LieDifferenceComplex(_trivial_lie_rep(_h3_plus(Q, 5), Matrix.zeros(Q, 5, 5)), budget=9)
    assert cx.space(1).size == 5
    with pytest.raises(BudgetExceededError) as exc:
        cx.space(2)
    assert (exc.value.degree, exc.value.required, exc.value.budget) == (2, 10, 9)


def test_prime_field_note_on_both_theories():
    lie_report = LieDifferenceComplex(_adjoint_rep(_sl2(F3), [F3.one] * 3)).cohomology_dims(1)
    group_report = DifferenceComplex(_trivial(cyclic(3), F3)).cohomology_dims(1)
    assert lie_report.notes == group_report.notes
    assert lie_report.notes[0].startswith("dimensions are over F_3")


# ------------------------------------------------------------- rank route


def _shipped_complexes():
    out = []
    for path in sorted(FIXDIR.glob("*.json")):
        fx = load_fixture(str(path))
        if isinstance(fx, GroupFixture) and fx.rep is not None:
            out.append(pytest.param(DifferenceComplex(fx.rep), id=path.stem))
        elif isinstance(fx, LieFixture) and fx.rep is not None:
            out.append(pytest.param(LieDifferenceComplex(fx.rep), id=path.stem))
    return out


@pytest.mark.parametrize("cx", _shipped_complexes())
def test_rank_route_equals_cohomology_spaces(cx):
    dims = exactness.cohomology_dims(cx, 3)
    for n in range(1, 4):
        by_space = tuple(
            cohomology_space(cx.field, d(n), d(n - 1) if n > 1 else None).dim
            for d in (cx.d_c, cx.d_a, cx.d_b)
        )
        assert dims[n] == by_space, n


class _NotAComplex(LESData):
    """C_n = F_2 in every degree with d_C = 1, A = 0."""

    field = F2

    def __init__(self):
        self._d_b = {}

    def dim_a(self, n):
        return 0

    def dim_c(self, n):
        return 1

    def d_a(self, n):
        return Matrix.zeros(F2, 0, 0)

    def d_c(self, n):
        return Matrix.identity(F2, 1)

    def k(self, n):
        return Matrix.zeros(F2, 0, 1)


def test_rank_route_rejects_a_non_complex():
    data = _NotAComplex()
    assert exactness.cohomology_dims(data, 1) == {1: (0, 0, 0)}
    with pytest.raises(InternalCheckError):
        exactness.cohomology_dims(data, 2)


def test_cohomology_dims_make_one_echelon_per_degree(monkeypatch):
    data = DifferenceComplex(_trivial(symmetric(3), F3))
    calls = []
    echelon = linalg._echelon_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return echelon(*args, **kwargs)

    expected = three_rank_dims(data, 3)
    monkeypatch.setattr(linalg, "_echelon_rows", counted)
    # the routine itself, without the comparison with its oracle
    assert inspect.unwrap(exactness.cohomology_dims)(data, 3) == expected
    assert len(calls) == 3


def test_the_echelon_stops_at_the_rank_bound(monkeypatch):
    # over Q every row that enters the echelon is first scaled to
    # integers; C5/Q has H^n = 0 in every degree, where each band's bound
    # is its rank, so the rows after the last pivot never enter
    data = DifferenceComplex(_trivial(cyclic(5), Q))
    entered = []
    integer_row = linalg._integer_row

    def counted(row):
        entered.append(row)
        return integer_row(row)

    monkeypatch.setattr(linalg, "_integer_row", counted)
    dims = inspect.unwrap(exactness.cohomology_dims)(data, 3)
    assert dims == {n: (0, 0, 0) for n in (1, 2, 3)}
    rows = sum(1 for n in (1, 2, 3) for row in data.d_b(n).rows if row)
    assert len(entered) < rows


@pytest.mark.parametrize(
    "group, field, ordinary",
    [
        # H^n(D8; F_2) has dimension n + 1, and F_3 sees nothing of Q8
        pytest.param(dihedral(4), {"kind": "Fp", "p": 2}, [2, 3, 4, 5], id="D8/F2"),
        pytest.param(quaternion8(), {"kind": "Fp", "p": 3}, [0, 0, 0, 0], id="Q8/F3"),
    ],
)
def test_degree_four_on_order_eight_within_six_seconds(
    group, field, ordinary, tmp_path, capsys, monkeypatch
):
    """``cohomology --max-degree 4`` on D8/F2 (d_B(4) is 19208 x 2744)
    and Q8/F3.  A full echelon of every row took 11 to 14 s on each; the
    rank bounds, and F_2 rows as bitsets, bring both under 3 s on a
    2-vCPU machine.  The routine runs unwrapped, as the session-wide
    oracle would run the full eliminations; the oracle is compared
    through degree 3."""
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(trivial_fixture(group, field)))
    monkeypatch.setattr(exactness, "cohomology_dims", inspect.unwrap(exactness.cohomology_dims))
    started = time.perf_counter()
    code = main(["cohomology", str(path), "--max-degree", "4", "--format", "json"])
    elapsed = time.perf_counter() - started
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["tables"]["cohomology"]
    assert [row["ordinary"] for row in rows] == ordinary
    expected = three_rank_dims(DifferenceComplex(load_fixture(str(path)).rep), 3)
    by_degree = {row["degree"]: (row["ordinary"], row["difference"], row["pair"]) for row in rows}
    assert {n: by_degree[n] for n in (1, 2, 3)} == expected
    assert elapsed < 6, f"degree 4 took {elapsed:.1f} s"


def _c3_complex():
    return DifferenceComplex(_trivial(cyclic(3), F3))


def _h3_complex():
    return LieDifferenceComplex(_trivial_lie_rep(_h3_plus(Q, 4), Matrix.zeros(Q, 4, 4)))


def _s3_sign_f3_complex():
    return DifferenceComplex(_sign_rep(F3))


def _sl2_adjoint_minus_i_complex():
    # D = -I, so D_+ = 0 and theta_D = theta + theta D = 0, not ad
    return LieDifferenceComplex(_adjoint_rep(_sl2(Q), [Q.zero] * 3))


def test_d_b_is_assembled_once_per_degree():
    cx = _c3_complex()
    assert cx.d_b(2) is cx.d_b(2)


@pytest.mark.parametrize(
    "make, shared",
    [
        (_c3_complex, True),
        (lambda: DifferenceComplex(_constant_d_rep()), True),
        (lambda: DifferenceComplex(_trivial(klein_four(), F2, t=1)), True),
        (_s3_sign_f3_complex, False),
        (lambda: DifferenceComplex(_sign_rep()), False),
        (lambda: DifferenceComplex(_swap_rep()), False),
        (_h3_complex, True),
        (lambda: LieDifferenceComplex(_adjoint_rep(_sl2(F5), [F5.one] * 3)), True),
        (lambda: LieDifferenceComplex(_trivial_lie_rep(_h3_plus(Q, 5), -Matrix.identity(Q, 5))),
         True),
        (_sl2_adjoint_minus_i_complex, False),
        (lambda: LieDifferenceComplex(
            _adjoint_rep(_h3_plus(F3, 4), [F3.from_int(x) for x in (2, 1, 2, 2)])
        ), False),
    ],
    ids=[
        "C3/F3", "C3/F2,D=e", "V4/F2,T=1", "S3/F3,sign", "S3/Q,sign", "C2/F3^2,swap",
        "h3+Q/trivial,D=0", "sl2/F5,ad,D=0", "h3+Q^2/trivial,D=-I", "sl2/Q,ad,D=-I",
        "h3+F3/ad,D+diag",
    ],
)
def test_d_difference_is_d_exactly_when_the_twists_agree(make, shared):
    """Where Theta_D = Theta, d_D is the very matrix of d; either way it
    equals the scatter of the faces twisted by theta_D."""
    cx = make()
    assert (cx.theta_d == cx.rep.theta) is shared
    faces = (
        group_cohomology._coboundary_faces
        if isinstance(cx, DifferenceComplex)
        else lie_module._ce_faces
    )
    over = cx.group if isinstance(cx, DifferenceComplex) else cx.lie
    for n in (1, 2):
        oracle = exactness.operator_matrix(cx.space(n), cx.space(n + 1), faces(over, cx.theta_d))
        assert (cx.d_difference(n) is cx.d_ordinary(n)) is shared
        assert cx.d_difference(n) == oracle


@pytest.mark.parametrize(
    "make, shared",
    [
        (_c3_complex, True),
        (_s3_sign_f3_complex, False),
        (_h3_complex, True),
        (_sl2_adjoint_minus_i_complex, False),
    ],
    ids=["group", "group,Theta_D!=Theta", "lie", "lie,theta_D!=theta"],
)
def test_les_builds_each_space_and_ranks_each_induced_map_once(monkeypatch, make, shared):
    # to degree m the LES has m + 1 spaces of A and of B and m of C;
    # where d_D is d, H^{n+1}(A) is H^n(C) for n = 1..m.  Each space is
    # a span modulo the boundaries; all but the top space of B, the
    # images of i modulo im d_B(m), are cohomology spaces.  Of the m + 1
    # maps i, m maps p and m maps K, each enters two nodes and is
    # eliminated once
    built, spans, induced = [], [], []
    space, span, induce = (
        exactness.cohomology_space,
        exactness.span_modulo,
        exactness.induced_map,
    )

    def counted_space(field, d_out, d_in):
        built.append(d_out)
        return space(field, d_out, d_in)

    def counted_span(field, vectors, d_in, n):
        spans.append(d_in)
        return span(field, vectors, d_in, n)

    def recorded(field, images, cod):
        induced.append(induce(field, images, cod))
        return induced[-1]

    monkeypatch.setattr(exactness, "cohomology_space", counted_space)
    monkeypatch.setattr(exactness, "span_modulo", counted_span)
    monkeypatch.setattr(exactness, "induced_map", recorded)
    eliminated = _eliminations(monkeypatch)
    m = 2
    cx = make()
    assert all(node.ok for node in cx.verify_les(m))
    assert len(spans) == (2 * m + 2 if shared else 3 * m + 2)
    assert len(built) == len(spans) - 1
    assert spans[-1] is cx.d_b(m)
    assert len(induced) == 3 * m + 1
    # a matrix without rows has the empty tuple, which all such share
    for f in induced:
        assert not f.rows or sum(rows is f.rows for rows in eliminated) == 1


@pytest.mark.parametrize(
    "make",
    [_c3_complex, _s3_sign_f3_complex, _h3_complex, _sl2_adjoint_minus_i_complex],
    ids=["group", "group,Theta_D!=Theta", "lie", "lie,theta_D!=theta"],
)
def test_span_boundaries_are_the_nonzeros_of_the_pivot_columns(monkeypatch, make):
    # a boundary is the row of d_in's transpose at a pivot column, the
    # column's nonzeros and nothing else
    seen = []
    span = exactness.span_modulo

    def recorded(field, vectors, d_in, n):
        space = span(field, vectors, d_in, n)
        seen.append((d_in, space))
        return space

    monkeypatch.setattr(exactness, "span_modulo", recorded)
    cx = make()
    assert all(node.ok for node in cx.verify_les(2))
    assert any(space.boundaries for _, space in seen)
    zero = cx.field.zero
    for d_in, space in seen:
        assert space.pivots == (column_space_basis(d_in) if d_in is not None else [])
        assert space.boundaries == [sparse(d_in.col(j), zero) for j in space.pivots]
        assert all(0 <= j < space.dim_total for v in space.reps for j in v)


def test_les_peak_memory_on_d8_f2_is_bounded():
    # D8 over F_2 with D = inversion and T = 0: vectors of B_n are rows
    # that hold their nonzeros only, so verify_les(3) peaks at about 4 MiB
    # of Python allocations; with dense vectors of dim B_n and stacks
    # scanned entry by entry it peaked at about 11 MiB
    cx = DifferenceComplex(_trivial(dihedral(4), F2))
    tracemalloc.start()
    try:
        nodes = cx.verify_les(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(node.ok for node in nodes)
    assert peak < 6 * 2**20, f"verify_les(3) peaked at {peak / 2**20:.1f} MiB"


def _eliminations(monkeypatch):
    """The rows of every matrix that ``linalg._echelon_rows`` eliminates
    whole, one entry per call, kept alive so that no two rows tuples
    share an id.  The banded calls of ``triangular_ranks`` pass rewritten
    rows and are not recorded."""
    eliminated = []
    echelon = linalg._echelon_rows

    def counted(f, bands, *args, **kwargs):
        if len(bands) == 1:
            eliminated.append(bands[0])
        return echelon(f, bands, *args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon_rows", counted)
    return eliminated


@pytest.mark.parametrize(
    "group, p, t, argv",
    [
        (alternating4, 3, 2, ["les", "--max-degree", "2"]),
        (lambda: symmetric(4), 2, 0, ["classify"]),
    ],
    ids=["A4/F3 les", "S4/F2 classify"],
)
def test_no_matrix_is_eliminated_twice_in_one_command(
    monkeypatch, tmp_path, capsys, group, p, t, argv
):
    # rank, kernel and pivot columns read the one reduced echelon a
    # matrix keeps; F_p, because the dims oracle ranks matrices over Q
    # through linalg.rank, which would fill that echelon first.  Every
    # matrix without rows shares the empty tuple, and costs nothing
    data = trivial_fixture(group(), {"kind": "Fp", "p": p})
    data["rep"]["T"] = [[t]]
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(data))
    eliminated = _eliminations(monkeypatch)
    assert main([argv[0], str(path), *argv[1:]]) == 0
    assert "ok: true" in capsys.readouterr().out
    again = Counter(id(rows) for rows in eliminated if rows)
    assert sum(n - 1 for n in again.values()) == 0


@pytest.mark.parametrize("make", [_c3_complex, _h3_complex], ids=["group", "lie"])
def test_les_builds_nothing_above_degree_m_plus_one(make):
    # the top node H^{m+1}(sub) needs im d_B(m), not d_B(m + 1)
    for m in (1, 2, 3):
        cx = make()
        cx.verify_les(m)
        assert max(cx._spaces) == m + 1
        assert max(cx._d_b) == m


@pytest.mark.parametrize(
    "module, coboundary_faces, make, coboundary_builds",
    [
        (group_cohomology, "_coboundary_faces", _c3_complex, 1),
        (group_cohomology, "_coboundary_faces", _s3_sign_f3_complex, 2),
        (lie_module, "_ce_faces", _h3_complex, 1),
        (lie_module, "_ce_faces", _sl2_adjoint_minus_i_complex, 2),
    ],
    ids=["group", "group,Theta_D!=Theta", "lie", "lie,theta_D!=theta"],
)
def test_faces_are_built_only_for_an_uncached_matrix(
    monkeypatch, module, coboundary_faces, make, coboundary_builds
):
    builds = Counter()
    for name in (coboundary_faces, "_connecting_faces"):
        def counted(*args, _name=name, _build=getattr(module, name)):
            builds[_name] += 1
            return _build(*args)

        monkeypatch.setattr(module, name, counted)
    cx = make()
    for _ in range(3):
        cx.d_ordinary(1)
        cx.d_difference(1)
        cx.k_matrix(1)
    # d and d_D share a face builder, which d_D calls only where its
    # twist differs from that of d; K has its own
    assert builds == {coboundary_faces: coboundary_builds, "_connecting_faces": 1}


def test_no_reference_cycle_keeps_a_complex_alive(monkeypatch):
    """Reference counting alone frees a complex, with its cached
    matrices, once its last caller drops it: a reference cycle would
    keep them all until a full garbage collection."""
    refs = []

    def recorded(rep, budget):
        cx = DifferenceComplex(rep, budget)
        refs.append(weakref.ref(cx))
        return cx

    monkeypatch.setattr(extensions, "DifferenceComplex", recorded)
    gc.disable()
    try:
        for make in (_c3_complex, _h3_complex):
            cx = make()
            cx.cohomology_dims(3)
            assert all(node.ok for node in cx.verify_les(2))
            refs.append(weakref.ref(cx))
            del cx
        assert extensions.classify_extensions(_trivial(cyclic(3), F3)).consistent
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_s3_ordinary_cohomology_through_degree_four(tmp_path, capsys):
    # H^n(S3, F_3) with trivial action is F_3 in degrees 3 and 4 and zero
    # in degrees 1 and 2 (the 3-part of S3 is C3 with inversion acting)
    path = tmp_path / "s3_f3.json"
    path.write_text(json.dumps(trivial_fixture(symmetric(3), {"kind": "Fp", "p": 3})))
    started = time.perf_counter()
    code = main(["cohomology", str(path), "--max-degree", "4", "--format", "json"])
    elapsed = time.perf_counter() - started
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["ordinary"] for row in report["tables"]["cohomology"]] == [0, 0, 1, 1]
    assert elapsed < 15, f"S3/F3 degree 4 took {elapsed:.1f} s"
