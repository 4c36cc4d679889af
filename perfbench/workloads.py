"""Seeded fixture generation and the job list of each workload.

Every workload builds the same mathematical inputs on every seed; the
seed only relabels them.  Groups get a seeded automorphism, a
permutation of their non-identity elements (fixture files need the
identity at index 0); Lie algebras a seeded signed permutation of their
basis; jet fixtures receive the seed through ``--seed``.  Relabelling is
an isomorphism, so every dimension, count and verdict is the same on
every seed while the fixture bytes change.

A job is a ``Job``: the CLI arguments (the fixture path is filled in
when the fixture is written) and a name, which also keys the reference
its parsed JSON report is compared with (see ``reference.py``).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIPPED = os.path.join(ROOT, "fixtures")
SHIPPED_FIXTURES = (
    "gl2_adjugate_det.json",
    "gl2_inverse_det_deg2.json",
    "lie_abelian.json",
    "lie_solvable.json",
    "trivial_group.json",
    "z2_endo.json",
    "z3_carry_extension.json",
    "z3_inverse.json",
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` with ``{fixture}`` standing for the
    generated fixture path.  ``name`` also keys its reference entry."""

    name: str
    fixture: str
    argv: tuple[str, ...]


def job(label: str, fixture: str, command: str, *flags: str) -> Job:
    return Job(f"{label} {fixture}", fixture, (command, "{fixture}", *flags))


# ---------------------------------------------------------------- groups


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_table() -> list[list[int]]:
    return [[i ^ j for j in range(4)] for i in range(4)]


def s3_table() -> list[list[int]]:
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ]


def inverses(table: list[list[int]]) -> list[int]:
    n = len(table)
    return [next(h for h in range(n) if table[g][h] == 0) for g in range(n)]


def group_fixture(table: list[list[int]], field: dict, t: int, dim: int = 1) -> dict:
    """A trivial-action fixture with D = inversion and T = t * identity."""

    def diagonal(x: int) -> list[list]:
        rows = [[x if i == j else 0 for j in range(dim)] for i in range(dim)]
        return [[str(v) for v in row] for row in rows] if field["kind"] == "rationals" else rows

    n = len(table)
    return {
        "group": {
            "order": n,
            "identity": 0,
            "table": table,
            "labels": ["e"] + [f"g{i}" for i in range(1, n)],
        },
        "difference": inverses(table),
        "rep": {
            "field": field,
            "dim": dim,
            "theta": {str(g): diagonal(1) for g in range(n)},
            "T": diagonal(t),
        },
    }


def automorphisms(table: list[list[int]]) -> list[list[int]]:
    """Every automorphism of the group, as a list mapping g to its image;
    the identity map comes first."""
    n = len(table)
    out = []
    for rest in itertools.permutations(range(1, n)):
        new = [0, *rest]
        if all(new[table[a][b]] == table[new[a]][new[b]] for a in range(n) for b in range(n)):
            out.append(new)
    return out


def relabel_group(data: dict, rng: random.Random) -> dict:
    """Relabel a group fixture by a seeded automorphism: table, labels,
    operator, theta and cocycle arguments.

    Only automorphisms are drawn because a general permutation of the
    elements changes the pivot order of every elimination, and with it
    the cost of a job by up to 4x (C5 over Q, degree 3: 1.4 s to 5.6 s
    over the 24 relabellings).  An automorphism keeps the table, so the
    work is the same on every seed while labels, digests and cocycle
    arguments change.
    """
    group = data["group"]
    n = len(group["table"])
    new = rng.choice(automorphisms(group["table"]))  # element g becomes new[g]
    old = [0] * n
    for g, h in enumerate(new):
        old[h] = g
    out = dict(data)
    table = group["table"]
    out["group"] = dict(group)
    out["group"]["table"] = [
        [new[table[old[a]][old[b]]] for b in range(n)] for a in range(n)
    ]
    if "labels" in group:
        out["group"]["labels"] = [group["labels"][old[a]] for a in range(n)]
    out["difference"] = [new[data["difference"][old[a]]] for a in range(n)]
    if "rep" in data:
        rep = dict(data["rep"])
        rep["theta"] = {str(a): data["rep"]["theta"][str(old[a])] for a in range(n)}
        out["rep"] = rep
    if "cocycle" in data:
        out["cocycle"] = {
            key: {
                "degree": block["degree"],
                "values": sorted(
                    (
                        {"args": [new[g] for g in entry["args"]], "value": entry["value"]}
                        for entry in block["values"]
                    ),
                    key=lambda entry: entry["args"],
                ),
            }
            for key, block in data["cocycle"].items()
        }
    return out


# ------------------------------------------------------------ Lie algebras


def heisenberg_plus_abelian(dim: int, d: str) -> dict:
    """h3 + Q^(dim-3) with [e0,e1] = e_(dim-1), D = d * identity and the
    trivial 1-dim module (theta = 0, T = 0)."""
    top = ["0"] * dim
    top[dim - 1] = "1"
    return {
        "field": {"kind": "rationals"},
        "dim": dim,
        "brackets": {"0,1": top},
        "D": [[d if i == j else "0" for j in range(dim)] for i in range(dim)],
        "rep": {
            "dim": 1,
            "theta": {str(i): [["0"]] for i in range(dim)},
            "T": [["0"]],
        },
    }


def _negate(x: str) -> str:
    return x[1:] if x.startswith("-") else ("0" if x == "0" else "-" + x)


def _signed(x: str, sign: int) -> str:
    return x if sign > 0 else _negate(x)


def relabel_lie(data: dict, rng: random.Random) -> dict:
    """Change basis to f_(perm[i]) = sign[i] * e_i.  Brackets, D and
    theta are rewritten exactly; only i < j keys are emitted."""
    dim = data["dim"]
    perm = list(range(dim))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(dim)]
    inv = [0] * dim
    for i, p in enumerate(perm):
        inv[p] = i

    def vector(coords: list[str], factor: int) -> list[str]:
        out = ["0"] * dim
        for k, x in enumerate(coords):
            out[perm[k]] = _signed(str(x), factor * sign[k])
        return out

    brackets = {}
    for key, coords in data["brackets"].items():
        i, j = (int(s) for s in key.split(","))
        a, b = perm[i], perm[j]
        factor = sign[i] * sign[j]
        if a > b:
            a, b, factor = b, a, -factor
        brackets[f"{a},{b}"] = vector(coords, factor)
    out = dict(data)
    out["brackets"] = dict(sorted(brackets.items()))
    d = data["D"]
    out["D"] = [
        [_signed(str(d[inv[r]][inv[c]]), sign[inv[r]] * sign[inv[c]]) for c in range(dim)]
        for r in range(dim)
    ]
    if "rep" in data:
        rep = dict(data["rep"])
        theta = data["rep"]["theta"]
        rep["theta"] = {
            str(a): [
                [_signed(str(x), sign[inv[a]]) for x in row] for row in theta[str(inv[a])]
            ]
            for a in range(dim)
        }
        out["rep"] = rep
    return out


# ------------------------------------------------------------ jet fixtures


def _trace_shift_product(size: int) -> dict:
    def factor(index: int) -> dict:
        return {
            "op": "sub",
            "args": [
                {"op": "trace", "args": [{"op": "input", "index": index}]},
                {"op": "scalar", "value": str(size)},
            ],
        }

    return {"op": "mul", "args": [factor(0), factor(1)]}


def jet_fixture(size: int, program: str, degree: int) -> dict:
    """GL_size over Q with theta = det and T = -1.  Degree 1 uses the
    builtin alpha = tr - size; degree 2 uses alpha = (tr x0 - size)(tr x1
    - size) with beta = tr - size, the shipped GL2 degree-2 fixture
    lifted to GL_size."""
    out = {
        "matrix-size": size,
        "field": {"kind": "rationals"},
        "difference-program": program,
        "rep-program": "det",
        "T": [["-1"]],
        "value-shape": [1, 1],
        "degree": degree,
    }
    if degree == 1:
        out["alpha-program"] = "trace-shift"
    else:
        out["alpha-program"] = _trace_shift_product(size)
        out["beta-program"] = "trace-shift"
    return out


# ---------------------------------------------------------------- workloads

DEGREE_3 = ("--max-degree", "3")
F2 = {"kind": "Fp", "p": 2}
F3 = {"kind": "Fp", "p": 3}
Q = {"kind": "rationals"}


def _group_complex() -> tuple[dict, list[Job]]:
    fixtures = {
        "s3_f3": group_fixture(s3_table(), F3, 0),
        "c6_f2": group_fixture(cyclic_table(6), F2, 0),
        "c5_q": group_fixture(cyclic_table(5), Q, 0),
        "c4_f2": group_fixture(cyclic_table(4), F2, 0),
    }
    jobs = [job("cohomology", name, "cohomology", *DEGREE_3) for name in ("s3_f3", "c6_f2", "c5_q")]
    jobs.append(job("les", "c4_f2", "les", *DEGREE_3))
    return fixtures, jobs


def _lie_complex() -> tuple[dict, list[Job]]:
    fixtures = {
        "h3q3_d0": heisenberg_plus_abelian(6, "0"),
        "h3q3_dneg": heisenberg_plus_abelian(6, "-1"),
        "h3q2_d0": heisenberg_plus_abelian(5, "0"),
    }
    jobs = [
        job("cohomology", "h3q3_d0", "cohomology", *DEGREE_3),
        job("les", "h3q3_dneg", "les", "--max-degree", "2"),
        job("les", "h3q2_d0", "les", *DEGREE_3),
    ]
    return fixtures, jobs


def _census_jets(seed: int) -> tuple[dict, list[Job]]:
    fixtures = {
        "s3_f3_t2": group_fixture(s3_table(), F3, 2),
        "v4_f2_t1": group_fixture(klein_table(), F2, 1),
        "c2_f2sq_t1": group_fixture(cyclic_table(2), F2, 1, dim=2),
        "gl3_inverse_det_deg2": jet_fixture(3, "inverse", 2),
        "gl3_adjugate_det": jet_fixture(3, "adjugate", 1),
        "gl3_conjinv_det": jet_fixture(3, "conjugate-inverse", 1),
    }
    for name in SHIPPED_FIXTURES:
        with open(os.path.join(SHIPPED, name), encoding="utf-8") as fh:
            fixtures["shipped_" + name[: -len(".json")]] = json.load(fh)
    s = str(seed)
    jobs = [job("classify", name, "classify") for name in ("s3_f3_t2", "v4_f2_t1")]
    for name in ("v4_f2_t1", "c2_f2sq_t1", "shipped_z3_inverse"):
        jobs.append(job("semidirect-ops", name, "classify", "--mode", "semidirect-ops"))
    for name in ("gl3_inverse_det_deg2", "gl3_adjugate_det", "gl3_conjinv_det"):
        jobs.append(job("vanest", name, "vanest", "--seed", s))
    for name in SHIPPED_FIXTURES:
        jobs.append(job("check", "shipped_" + name[: -len(".json")], "check", "--seed", s))
    return fixtures, jobs


WORKLOADS = ("group-complex", "lie-complex", "census-jets")


def build(workload: str, seed: int) -> tuple[dict, list[Job]]:
    """The workload's fixtures, relabelled by ``seed``, and its jobs."""
    if workload == "group-complex":
        fixtures, jobs = _group_complex()
    elif workload == "lie-complex":
        fixtures, jobs = _lie_complex()
    elif workload == "census-jets":
        fixtures, jobs = _census_jets(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    out = {}
    for name in sorted(fixtures):
        data = fixtures[name]
        if "group" in data:
            data = relabel_group(data, rng)
        elif "brackets" in data:
            data = relabel_lie(data, rng)
        out[name] = data
    return out, jobs


def write(fixtures: dict, directory: str) -> dict[str, str]:
    """Write each fixture as ``<name>.json``; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, data in fixtures.items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths
