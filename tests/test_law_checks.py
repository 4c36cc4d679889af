"""The law checks on generators against the full scans of ``oracles``.

A group table, a difference operator, a representation, a bracket or a
matrix basis is corrupted in one entry; the package check and the full
scan must then give the same issues in the same order: the same
verdict, the same first witness and the same violation count.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from diffcoh.catalog import (
    cyclic,
    dihedral,
    direct_product,
    inverse_map,
    klein_four,
    quaternion8,
    symmetric,
)
from diffcoh.groups import (
    DifferenceGroup,
    FiniteGroup,
    ValidationError,
    ValidationReport,
    check_difference_operator,
    check_representation,
)
from diffcoh.lie import LieAlgebra, LieError, MatrixLieAlgebra, check_lie_difference
from diffcoh.linalg import Matrix
from diffcoh.scalars import PrimeField, Rationals

from conftest import issues
from oracles import (
    dense_rank,
    group_table_report,
    jacobi_failures,
    lie_difference_report,
    representation_report,
    solved_brackets,
    sparse,
    twisted_rule_report,
)

Q = Rationals()
F7 = PrimeField(7)

GROUPS = [
    cyclic(5),
    cyclic(6),
    klein_four(),
    symmetric(3),
    dihedral(4),
    quaternion8(),
    direct_product(cyclic(2), cyclic(4)),
]


def table_report(table, labels):
    """The report of constructing a group from ``table`` (ok if it builds)."""
    try:
        FiniteGroup(table, labels=labels)
    except ValidationError as exc:
        return exc.report
    return ValidationReport("group table")


@given(
    st.sampled_from(GROUPS),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_one_corrupted_table_entry(group, g, h, value):
    n = group.order
    table = [list(row) for row in group.table]
    table[g % n][h % n] = value % n
    raw = SimpleNamespace(
        table=tuple(map(tuple, table)), order=n, identity=0, labels=group.labels
    )
    assert issues(table_report(table, group.labels)) == issues(group_table_report(raw))


def test_light_test_failures_fall_back_to_the_first_triple():
    # identity and inverses hold, so only Light's test can reject the table
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]]
    labels = tuple(f"g{i}" for i in range(4))
    raw = SimpleNamespace(table=tuple(map(tuple, table)), order=4, identity=0, labels=labels)
    expected = issues(group_table_report(raw))
    assert [check for check, _, _ in expected] == ["associativity"]
    assert issues(table_report(table, labels)) == expected


# a loop of order five: a Latin square with identity 0 that is not
# associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_a_table_associative_at_its_first_generator_only():
    # LOOP5 x C2 with (l, c) at index 2 l + c: the first generator (0, 1)
    # passes Light's test, a later one fails it
    table = [
        [2 * LOOP5[l1][l2] + (c1 + c2) % 2 for l2 in range(5) for c2 in range(2)]
        for l1 in range(5)
        for c1 in range(2)
    ]
    labels = tuple(f"g{i}" for i in range(10))
    raw = SimpleNamespace(table=tuple(map(tuple, table)), order=10, identity=0, labels=labels)
    expected = issues(group_table_report(raw))
    assert [check for check, _, _ in expected] == ["associativity"]
    assert issues(table_report(table, labels)) == expected


def c3_squared_twist():
    """C3 x C3 with generators (e, a) and (a, e), and f(x, y) = (e, y c(x))
    with c(a) = a, c(e) = c(a2) = e: f(g s) = f(g) f(s) holds for the
    generator s = (e, a) and fails for s = (a, e)."""
    group = direct_product(cyclic(3), cyclic(3))
    assert group.generators == [1, 3]
    return group, [(y + (x == 1)) % 3 for x in range(3) for y in range(3)]


def test_an_operator_multiplicative_at_its_first_generator_only():
    group, f = c3_squared_twist()
    d = [group.mul(f[g], group.inv(g)) for g in group.elements]  # D_+ = f
    report = check_difference_operator(group, d)
    assert not report.ok
    assert issues(report) == issues(twisted_rule_report(group, d))


def test_a_representation_multiplicative_at_its_first_generator_only():
    # Theta(x, y) = 2^(y + c(x)) on F_7, where 2 has order three
    group, f = c3_squared_twist()
    theta = [Matrix.from_rows(F7, [[pow(2, f[g], 7)]]) for g in group.elements]
    dg = DifferenceGroup(group, inverse_map(group))
    t = Matrix.from_rows(F7, [[6]])
    report = check_representation(dg, theta, t)
    assert [i.check for i in report.issues][:1] == ["theta-homomorphism"]
    assert issues(report) == issues(representation_report(dg, theta, t))


def conjugation_operator(group, x):
    """D(g) = x g x^-1 g^-1, so that D_+ is conjugation by x."""
    mul, inv = group.mul, group.inv
    return [mul(mul(mul(x, g), inv(x)), inv(g)) for g in group.elements]


@given(
    st.sampled_from(GROUPS),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_one_corrupted_operator_value(group, x, g, value):
    n = group.order
    d = conjugation_operator(group, x % n)
    assert check_difference_operator(group, d).ok
    d[g % n] = value % n
    assert issues(check_difference_operator(group, d)) == issues(twisted_rule_report(group, d))


def cyclic_character_rep():
    """C6 acting on F_7 through 3, which has order six; D = inversion, so
    D_+ is trivial and T = -1 satisfies the law."""
    group = cyclic(6)
    theta = [Matrix.from_rows(F7, [[pow(3, k, 7)]]) for k in range(6)]
    return DifferenceGroup(group, inverse_map(group)), theta, Matrix.from_rows(F7, [[6]])


def klein_swap_rep():
    """V4 acting on F_7^2, its element 1 by negation and its element 2
    by swapping the coordinates; D = identity map, so D_+(g) = g^2 = e
    and T = -1 works."""
    group = klein_four()
    swap = Matrix.from_rows(F7, [[0, 1], [1, 0]])
    neg = Matrix.from_rows(F7, [[6, 0], [0, 6]])
    theta = [Matrix.identity(F7, 2), neg, swap, swap @ neg]
    return DifferenceGroup(group, list(group.elements)), theta, Matrix.from_rows(F7, [[6, 0], [0, 6]])


@pytest.mark.parametrize("make", [cyclic_character_rep, klein_swap_rep])
@given(data=st.data())
def test_one_corrupted_representation_entry(make, data):
    dg, theta, t = make()
    assert check_representation(dg, theta, t).ok
    g = data.draw(st.integers(0, dg.group.order - 1))
    k = data.draw(st.integers(0, t.nrows * t.nrows - 1))
    value = data.draw(st.integers(0, 6))
    rows = theta[g].to_lists()
    rows[k // t.nrows][k % t.nrows] = F7.from_int(value)
    theta = list(theta)
    theta[g] = Matrix.from_rows(F7, rows)
    assert issues(check_representation(dg, theta, t)) == issues(
        representation_report(dg, theta, t)
    )


def q(*xs):
    return tuple(Fraction(x) for x in xs)


# (structure constants, a difference operator D = D_+ - id on them)
ALGEBRAS = [
    ({(0, 1): q(0, 2, 0), (0, 2): q(0, 0, -2), (1, 2): q(1, 0, 0)}, [[0, 0, 0], [0, 1, 0], [0, 0, "-1/2"]]),
    ({(0, 1): q(0, 0, 1)}, [[1, 0, 0], [0, 2, 0], [0, 0, 5]]),
    ({(0, 1): q(0, 1, 0), (1, 2): q(0, 0, 0)}, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    ({(0, 1): q(0, 1, 0), (0, 2): q(0, 0, 1)}, [[0, 0, 0], [0, 1, 0], [0, 0, 2]]),
]


@given(
    st.sampled_from(ALGEBRAS),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(-2, 2),
)
def test_one_corrupted_bracket_coordinate(algebra, pair, coord, value):
    brackets, d_rows = algebra
    brackets = {key: list(vec) for key, vec in brackets.items()}
    key = [(0, 1), (0, 2), (1, 2)][pair]
    vec = brackets.setdefault(key, [Fraction(0)] * 3)
    vec[coord] = Fraction(value)
    unchecked = object.__new__(LieAlgebra)
    unchecked.field, unchecked.dim = Q, 3
    unchecked._table = {key: sparse(vec) for key, vec in brackets.items() if any(vec)}
    expected = jacobi_failures(unchecked)
    try:
        lie = LieAlgebra(Q, 3, brackets)
    except ValidationError as exc:
        assert expected and [i.witness for i in exc.report.issues] == expected
        return
    assert expected == []
    d = Matrix.from_rows(Q, [[Fraction(x) for x in row] for row in d_rows])
    assert issues(check_lie_difference(lie, d)) == issues(lie_difference_report(lie, d))


@given(
    st.sampled_from(ALGEBRAS),
    st.integers(0, 8),
    st.integers(-2, 2),
)
def test_one_corrupted_operator_coordinate(algebra, k, value):
    brackets, d_rows = algebra
    lie = LieAlgebra(Q, 3, brackets)
    rows = [[Fraction(x) for x in row] for row in d_rows]
    assert check_lie_difference(lie, Matrix.from_rows(Q, rows)).ok
    rows[k // 3][k % 3] = Fraction(value)
    d = Matrix.from_rows(Q, rows)
    assert issues(check_lie_difference(lie, d)) == issues(lie_difference_report(lie, d))


def qmat(rows):
    return Matrix.from_rows(Q, [[Fraction(x) for x in row] for row in rows])


MATRIX_BASES = [
    # gl2
    [qmat([[1, 0], [0, 0]]), qmat([[0, 1], [0, 0]]), qmat([[0, 0], [1, 0]]), qmat([[0, 0], [0, 1]])],
    # sl2 as (h, e, f)
    [qmat([[1, 0], [0, -1]]), qmat([[0, 1], [0, 0]]), qmat([[0, 0], [1, 0]])],
    # the upper triangular 2x2 matrices
    [qmat([[1, 0], [0, 0]]), qmat([[0, 1], [0, 0]]), qmat([[0, 0], [0, 1]])],
]


@given(
    st.sampled_from(MATRIX_BASES),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-2, 2),
)
def test_one_corrupted_matrix_basis_entry(basis, b, k, value):
    basis = list(basis)
    b %= len(basis)
    rows = basis[b].to_lists()
    rows[k // 2][k % 2] = Fraction(value)
    basis[b] = Matrix.from_rows(Q, rows)
    flat = Matrix.from_rows(Q, [m.entries for m in basis]).transpose()
    try:
        lie = MatrixLieAlgebra(Q, basis)
    except LieError as exc:
        if dense_rank(flat) < len(basis):
            assert "linearly dependent" in str(exc)
        else:
            assert None in solved_brackets(Q, basis).values()
        return
    assert dense_rank(flat) == len(basis)
    assert jacobi_failures(lie) == []
    solved = {key: sparse(v) for key, v in solved_brackets(Q, basis).items()}
    assert lie._table == {key: row for key, row in solved.items() if row}
