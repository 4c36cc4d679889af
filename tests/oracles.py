"""Reference implementations kept as test oracles.

The dense elimination (first nonzero row as pivot, full-row updates)
and the per-basis-cochain operator assembly, for the group and the Lie
complex alike, are the routes the library used before its sparse
echelon and one-pass scatter assembly; the shear search over every
normalized 1-cochain is the one it used before searching on generators;
the van Est loop with one plain evaluation per tuple and permutation is
the one it used before its evaluations shared a value store.  Tests
compare the two routes exactly.
"""

import itertools

from diffcoh.lie import LieCochain
from diffcoh.linalg import Matrix, LinAlgError, jet_part
from diffcoh.programs import evaluate
from diffcoh.scalars import JetRing
from diffcoh.vanest import _jet_arg


def dense_echelon(m):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivot rule: for each column in order, use the first remaining row
    with a nonzero entry.
    """
    if not getattr(m.ring, "is_field", False):
        raise LinAlgError(f"elimination requires a field, got {m.ring!r}")
    f = m.ring
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = []
    lead = 0
    for col in range(m.ncols):
        pivot_row = None
        for i in range(lead, m.nrows):
            if rows[i][col] != f.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = f.inv(rows[lead][col])
        rows[lead] = [f.mul(inv, x) for x in rows[lead]]
        for i in range(m.nrows):
            if i != lead and rows[i][col] != f.zero:
                c = rows[i][col]
                rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.nrows:
            break
    return rows, pivots


def dense_rank(m):
    return len(dense_echelon(m)[1])


def dense_kernel_basis(m):
    f = m.ring
    rows, pivots = dense_echelon(m)
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [f.zero] * m.ncols
        v[free] = f.one
        for r_idx, p_col in enumerate(pivots):
            v[p_col] = f.neg(rows[r_idx][free])
        basis.append(v)
    return basis


def dense_solve(m, b):
    f = m.ring
    aug = Matrix.from_rows(f, [[*m.row(i), b[i]] for i in range(m.nrows)])
    rows, pivots = dense_echelon(aug)
    if m.ncols in pivots:
        return None
    x = [f.zero] * m.ncols
    for r_idx, p_col in enumerate(pivots):
        x[p_col] = rows[r_idx][m.ncols]
    return x


def dense_column_space_basis(m):
    _, pivots = dense_echelon(m)
    return [list(m.col(j)) for j in pivots]


def to_dense(s):
    """The dense ``Matrix`` equal to the ``SparseMatrix`` s."""
    zero = s.ring.zero
    return Matrix(
        s.ring,
        s.nrows,
        s.ncols,
        tuple(row.get(j, zero) for row in s.rows for j in range(s.ncols)),
    )


def per_basis_matrix(cx, fn, n, out_degree):
    """The matrix of a cochain map, one column per basis cochain of
    degree n: column k is ``fn`` applied to basis cochain k."""
    dom = cx.space(n)
    cod = cx.space(out_degree)
    cols = [cod.to_vector(fn(dom.basis_cochain(k))) for k in range(dom.size)]
    return Matrix.from_columns(cx.field, cols, cod.size)


def is_shear_isomorphism(e1, e2, eta):
    """Whether (g, u) -> (g, u + eta[g]) is an isomorphism e1 -> e2 of
    difference groups; ``eta`` maps every base element to a vector."""
    f = e1.rep.field
    sigma = {}
    for x in e1.total.group.elements:
        g, u = e1.split(x)
        sigma[x] = e2.index(g, tuple(f.add(a, b) for a, b in zip(u, eta[g])))
    t1, t2 = e1.total, e2.total
    return all(sigma[t1.d_of(x)] == t2.d_of(sigma[x]) for x in sigma) and all(
        sigma[t1.group.mul(x, y)] == t2.group.mul(sigma[x], sigma[y])
        for x in sigma
        for y in sigma
    )


def all_cochains_isomorphic(e1, e2):
    """Whether some shear carries e1 to e2, searched over every
    normalized 1-cochain eta."""
    group = e1.base.group
    nonid = [g for g in group.elements if g != group.identity]
    for combo in itertools.product(e1.vectors, repeat=len(nonid)):
        eta = dict(zip(nonid, combo))
        eta[group.identity] = e1.vectors[0]
        if is_shear_isomorphism(e1, e2, eta):
            return True
    return False


def per_evaluation_van_est(diff, prog, degree, vshape):
    """The van Est map of a cochain program, without the normalization
    check: one plain ``evaluate`` per increasing tuple and permutation, so
    no value is shared between two evaluations."""
    f = diff.spec.field
    ring = JetRing(f, degree)
    jet_args = [[_jet_arg(ring, diff.spec, x, j) for x in diff.basis] for j in range(degree)]
    values = {}
    for tup in itertools.combinations(range(diff.lie.dim), degree):
        total = [f.zero] * vshape.dim
        for sigma in itertools.permutations(range(degree)):
            args = [jet_args[j][tup[sigma[j]]] for j in range(degree)]
            value = evaluate(prog, args, ring)
            coeff = vshape.flatten(jet_part(value, range(degree)))
            odd = sum(a > b for a, b in itertools.combinations(sigma, 2)) % 2
            step = f.sub if odd else f.add
            total = [step(x, y) for x, y in zip(total, coeff)]
        values[tup] = tuple(total)
    return LieCochain(diff.lie, vshape.dim, degree, values)
