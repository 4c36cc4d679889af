import contextlib
import functools
import itertools
import warnings

import pytest
from hypothesis import HealthCheck, settings

from diffcoh import exactness, groups, lie
from diffcoh.groups import FiniteGroup, ValidationError
from diffcoh.lie import LieAlgebra, LieError, MatrixLieAlgebra

import oracles

pytest_plugins = ["pytester"]

# hypothesis imports its failing-example patch writer, and with it libcst,
# only when a test fails, inside pytest's report hook; under warnings as
# errors, libcst's import of mypy_extensions.TypedDict raises there and
# buries the falsifying example under an INTERNALERROR.  Importing it
# once here, with only that third-party deprecation ignored, keeps every
# other warning an error.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings(
        "ignore",
        message=r"mypy_extensions\.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def issues(report):
    return [(i.check, i.witness, i.detail) for i in report.issues]


def _compared(check, oracle):
    @functools.wraps(check)
    def compared(*args):
        report = check(*args)
        assert issues(report) == issues(oracle(*args)), args
        return report

    return compared


def _induced_compared(induced):
    @functools.wraps(induced)
    def compared(rep):
        group = rep.dg.group
        theta_d = [rep.theta[rep.dg.d_plus_of(g)] for g in group.elements]
        failures = oracles.homomorphism_failures(group, theta_d)
        try:
            out = induced(rep)
        except ValidationError as exc:
            assert failures and exc.report.issues[0].witness == failures[0]
            raise
        assert not failures
        return out

    return compared


def _jacobi_compared(check_jacobi):
    @functools.wraps(check_jacobi)
    def compared(self):
        report = check_jacobi(self)
        assert [i.witness for i in report.issues] == oracles.jacobi_failures(self)
        return report

    return compared


def _matrix_algebra_compared(init):
    @functools.wraps(init)
    def compared(self, field, basis):
        init(self, field, basis)
        # Jacobi is not checked at construction; the structure constants
        # are those of one solve per commutator
        assert oracles.jacobi_failures(self) == []
        solved = oracles.solved_brackets(field, basis)
        assert self._table == {key: tuple(v) for key, v in solved.items()}

    return compared


def _coords_compared(coords):
    @functools.wraps(coords)
    def compared(self, m):
        solved = oracles.solved_coords(self.field, self.basis, m)
        try:
            out = coords(self, m)
        except LieError:
            assert solved is None
            raise
        assert out == solved
        return out

    return compared


def _carrier_compared(carrier_tables):
    @functools.wraps(carrier_tables)
    def compared(rep, alpha, beta):
        out = carrier_tables(rep, alpha, beta)
        vectors = list(itertools.product(range(rep.field.p), repeat=rep.dim))
        expected = oracles.carrier_tables(
            rep, lambda g, h: vectors[alpha[g][h]], lambda g: vectors[beta[g]]
        )
        assert out == expected, (rep, alpha, beta)
        return out

    return compared


def _dims_compared(cohomology_dims):
    @functools.wraps(cohomology_dims)
    def compared(data, max_degree):
        try:
            dims = cohomology_dims(data, max_degree)
        except exactness.InternalCheckError:
            with pytest.raises(exactness.InternalCheckError):
                oracles.three_rank_dims(data, max_degree)
            raise
        assert dims == oracles.three_rank_dims(data, max_degree)
        return dims

    return compared


def _lie_k_tagged(connecting_faces):
    @functools.wraps(connecting_faces)
    def tagged(rep, n):
        faces = connecting_faces(rep, n)
        faces.subset_form = oracles.lie_k_subset_faces(rep, n)
        return faces

    return tagged


def _k_compared(operator_matrix):
    @functools.wraps(operator_matrix)
    def compared(dom, cod, faces):
        out = operator_matrix(dom, cod, faces)
        subset_form = getattr(faces, "subset_form", None)
        if subset_form is not None:
            expected = operator_matrix(dom, cod, subset_form)
            for i, (row, want) in enumerate(zip(out.rows, expected.rows)):
                assert row == want, (
                    f"K in degree {dom.degree} differs from its subset expansion "
                    f"at {cod.tuples[i // cod.dim]}"
                )
        return out

    return compared


@pytest.fixture(autouse=True, scope="session")
def law_checks_match_their_oracles():
    """Every law check the suite runs on generators is compared with the
    full scan kept in ``oracles``: the same issues in the same order, so
    the same verdict, witnesses and violation count.  Every carrier the
    suite builds on vector indices, valid or not, is compared entry by
    entry with the tuple loop kept there, and every count of cohomology
    dimensions from one echelon per degree with the three ranks kept
    there.  Every matrix of the Lie K, in a complex or applied by
    ``lie.k_map``, is compared row by row with the one scattered from
    the subset expansion kept there."""
    patches = [
        (FiniteGroup, "check", _compared(FiniteGroup.check, oracles.group_table_report)),
        (groups, "check_difference_operator",
         _compared(groups.check_difference_operator, oracles.twisted_rule_report)),
        (groups, "check_representation",
         _compared(groups.check_representation, oracles.representation_report)),
        (groups, "induced_rep_theta_d", _induced_compared(groups.induced_rep_theta_d)),
        (groups, "carrier_tables", _carrier_compared(groups.carrier_tables)),
        (exactness, "cohomology_dims", _dims_compared(exactness.cohomology_dims)),
        (exactness, "operator_matrix", _k_compared(exactness.operator_matrix)),
        (lie, "_connecting_faces", _lie_k_tagged(lie._connecting_faces)),
        (lie, "check_lie_difference",
         _compared(lie.check_lie_difference, oracles.lie_difference_report)),
        (LieAlgebra, "_check_jacobi", _jacobi_compared(LieAlgebra._check_jacobi)),
        (MatrixLieAlgebra, "__init__", _matrix_algebra_compared(MatrixLieAlgebra.__init__)),
        (MatrixLieAlgebra, "coords", _coords_compared(MatrixLieAlgebra.coords)),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    yield
    for owner, name, original in originals:
        setattr(owner, name, original)
