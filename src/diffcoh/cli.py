"""Command-line front end.

Commands: ``check`` (construction-time validations), ``cohomology``
(dimension tables), ``les`` (long-exact-sequence exactness),
``classify`` (extension / semidirect-operator censuses), ``vanest``
(differentiation cochain-map checks).  Fixture paths are positional;
all files are UTF-8 JSON.

Reports are deterministic byte-for-byte for a fixed fixture and flags:
the text and JSON formats render exactly the same fields, object keys
sort alphabetically, and check lists keep execution order.  Timing is
therefore excluded unless ``--timing`` is passed, which adds a single
elapsed-seconds field (and gives up byte determinism).

``main`` parses its arguments with one parser per process, built on its
first call and reused by every later one (``_build_parser`` is cached).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Any

from .exactness import DEFAULT_BUDGET, InternalCheckError
from .extensions import (
    AbelianExtension,
    classify_extensions,
    classify_semidirect_difference_ops,
)
from .fixtures import (
    FixtureError,
    GroupFixture,
    JetFixture,
    detect_kind,
    fixture_digest,
    load_fixture_data,
    parse_fixture,
    require_arity,
)
from .group_cohomology import (
    BudgetExceededError,
    DifferenceComplex,
    NotACocycleError,
)
from .groups import ValidationError
from .lie import LieDifferenceComplex, LieError
from .programs import ProgramError, max_input_index
from .scalars import PrimeField, ScalarError
from .vanest import (
    DEFAULT_SAMPLES,
    VE_DEGREE_CAP,
    SampledPreconditionError,
    differentiate_difference_operator,
    differentiate_representation,
    verify_van_est_cochain_map,
)

_STAGE_NAMES = {
    "group table": "group-table",
    "difference operator": "difference-operator",
    "difference representation": "representation",
    "Lie algebra": "jacobi",
    "Lie difference operator": "difference-identity",
    "Lie difference representation": "representation",
}

_GROUP_STAGES = ["group-table", "difference-operator", "representation"]
_LIE_STAGES = ["jacobi", "difference-identity", "representation"]


def _new_report(args: argparse.Namespace, argv: list[str]) -> dict:
    arguments = {}
    for key in ("max_degree", "degree", "mode", "format", "seed", "budget"):
        if hasattr(args, key):
            arguments[key.replace("_", "-")] = getattr(args, key)
    return {
        "command": " ".join(argv),
        "fixture": args.fixture,
        "digest": "sha256:" + fixture_digest(args.fixture),
        "arguments": arguments,
        "checks": [],
        "tables": {},
        "notes": [],
        "ok": True,
    }


def _add_check(report: dict, name: str, ok: bool, detail: str = "") -> None:
    report["checks"].append({"name": name, "ok": ok, "detail": detail})
    if not ok:
        report["ok"] = False


def _validation_failure(report: dict, exc: ValidationError, stages: list[str]) -> None:
    stage = _STAGE_NAMES.get(exc.report.subject, exc.report.subject.replace(" ", "-"))
    if stage in stages:
        for earlier in stages[: stages.index(stage)]:
            _add_check(report, earlier, True, "validated")
    first = exc.report.issues[0]
    detail = (
        f"{first.check} at witness {first.witness}: {first.detail} "
        f"({len(exc.report.issues)} violation(s))"
    )
    _add_check(report, stage, False, detail)


def _render_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)


def _render_text(report: dict) -> str:
    lines = [
        f"command: {report['command']}",
        f"fixture: {report['fixture']}",
        f"digest: {report['digest']}",
    ]
    for key in sorted(report["arguments"]):
        lines.append(f"argument {key}: {_render_value(report['arguments'][key])}")
    if "elapsed-seconds" in report:
        lines.append(f"elapsed-seconds: {report['elapsed-seconds']}")
    for chk in report["checks"]:
        status = "ok" if chk["ok"] else "FAIL"
        suffix = f" ({chk['detail']})" if chk["detail"] else ""
        lines.append(f"check {chk['name']}: {status}{suffix}")
    for tname in sorted(report["tables"]):
        lines.append(f"table {tname}:")
        body = report["tables"][tname]
        if isinstance(body, list):
            for row in body:
                cells = " ".join(f"{k}={_render_value(row[k])}" for k in sorted(row))
                lines.append(f"  {cells}")
        else:
            for k in sorted(body):
                lines.append(f"  {k}: {_render_value(body[k])}")
    if report["notes"]:
        lines.append("notes:")
        for note in report["notes"]:
            lines.append(f"  - {note}")
    lines.append(f"ok: {_render_value(report['ok'])}")
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return _render_text(report)


def cmd_check(args: argparse.Namespace, report: dict) -> None:
    data = load_fixture_data(args.fixture)
    try:
        fx = parse_fixture(data)
    except ValidationError as exc:
        stages = _GROUP_STAGES if "group" in data else _LIE_STAGES
        _validation_failure(report, exc, stages)
        return
    if isinstance(fx, JetFixture):
        _check_jet_fixture(report, fx, args.seed)
        return
    stages = _GROUP_STAGES if isinstance(fx, GroupFixture) else _LIE_STAGES
    for stage in stages if fx.rep is not None else stages[:2]:
        _add_check(report, stage, True, "validated")
    if isinstance(fx, GroupFixture) and fx.pair is not None:
        if not isinstance(fx.rep.field, PrimeField):
            raise FixtureError("$.cocycle", "extensions need a finite (prime-field) module")
        try:
            ext = AbelianExtension(fx.rep, fx.pair)
        except NotACocycleError as exc:
            _add_check(report, "cocycle-pair", False, str(exc))
        else:
            _add_check(
                report,
                "cocycle-pair",
                True,
                "cocycle conditions hold; extension rebuilt and revalidated",
            )
            report["tables"]["extension"] = {
                "base-order": fx.dg.group.order,
                "total-order": ext.total.group.order,
            }


def _check_jet_fixture(report: dict, fx: JetFixture, seed: int) -> None:
    report["notes"].append(
        f"program preconditions sampled on {DEFAULT_SAMPLES} matrices, seed {seed}"
    )
    try:
        diff = differentiate_difference_operator(fx.spec, fx.dprog, fx.basis, seed=seed)
    except SampledPreconditionError as exc:
        _add_check(report, "difference-program", False, str(exc))
        return
    except ValidationError as exc:
        first = exc.report.issues[0]
        _add_check(
            report,
            "difference-program",
            False,
            f"derived operator fails the Lie difference identity at {first.witness}",
        )
        return
    _add_check(
        report,
        "difference-program",
        True,
        "sampled twisted-cocycle rule and derived Lie difference identity hold",
    )
    if fx.theta_prog is None:
        return
    try:
        differentiate_representation(diff, fx.theta_prog, fx.t, fx.vshape)
    except SampledPreconditionError as exc:
        _add_check(report, "rep-program", False, str(exc))
    except ValidationError as exc:
        first = exc.report.issues[0]
        _add_check(
            report,
            "rep-program",
            False,
            f"derived maps fail the Lie representation law at {first.witness}",
        )
    else:
        _add_check(
            report,
            "rep-program",
            True,
            "sampled representation laws and derived Lie representation law hold",
        )


def _load_kind(path: str, kinds: tuple[str, ...], wrong: str):
    """The fixture at ``path``; one of a kind not in ``kinds`` raises
    ``wrong`` before any of it is parsed or validated."""
    data = load_fixture_data(path)
    if detect_kind(data) not in kinds:
        raise FixtureError("$", wrong)
    return parse_fixture(data)


def _complex_for(path: str, budget: int):
    fx = _load_kind(path, ("group", "lie"), "this command needs a group or Lie fixture")
    if fx.rep is None:
        raise FixtureError("$.rep", "this command needs a rep block")
    theory = DifferenceComplex if isinstance(fx, GroupFixture) else LieDifferenceComplex
    return theory(fx.rep, budget=budget)


def cmd_cohomology(args: argparse.Namespace, report: dict) -> None:
    cx = _complex_for(args.fixture, args.budget)
    dims = cx.cohomology_dims(args.max_degree)
    rows = [
        {
            "degree": n,
            "ordinary": d.h_ordinary,
            "difference": d.h_difference,
            "pair": d.h_pair,
        }
        for n, d in sorted(dims.degrees.items())
    ]
    report["tables"]["cohomology"] = rows
    report["notes"].extend(dims.notes)
    _add_check(report, "dimensions-computed", True, f"degrees 1..{args.max_degree}")


def cmd_les(args: argparse.Namespace, report: dict) -> None:
    cx = _complex_for(args.fixture, args.budget)
    for node in cx.verify_les(args.max_degree):
        _add_check(report, node.node, node.ok, node.detail)


def cmd_classify(args: argparse.Namespace, report: dict) -> None:
    wrong = "classification needs a group fixture with a rep block"
    fx = _load_kind(args.fixture, ("group",), wrong)
    if fx.rep is None:
        raise FixtureError("$", wrong)
    if not isinstance(fx.rep.field, PrimeField):
        raise FixtureError("$.rep.field", "classification needs a finite (prime-field) module")
    if args.mode == "extensions":
        cls = classify_extensions(fx.rep, budget=args.budget)
        report["tables"]["classification"] = {
            "cocycles": cls.cocycle_count,
            "coboundaries": cls.coboundary_count,
            "classes-by-isomorphism": cls.class_count,
            "classes-by-cosets": cls.class_count_by_cosets,
            "expected-from-cohomology": cls.expected_from_cohomology,
            "pair-h2-dim": cls.h2_pair_dim,
        }
        _add_check(
            report,
            "census-vs-cohomology",
            cls.consistent,
            "isomorphism census, coset census, and p^dim agree"
            if cls.consistent
            else "the counting routes disagree",
        )
    else:
        cls = classify_semidirect_difference_ops(fx.rep, budget=args.budget)
        report["tables"]["classification"] = {
            "cocycle-space-dim": cls.z_dim,
            "connecting-rank": cls.connecting_rank,
            "count-by-rank": cls.count_by_rank,
            "count-by-census": cls.count_by_census,
            "direct-valid-operators": cls.direct_valid_count,
            "direct-classes": cls.direct_class_count,
            "total-order": cls.total_order,
        }
        report["notes"].extend(cls.notes)
        if not cls.consistent:
            detail = "the counting routes disagree"
        elif cls.direct_class_count is None:
            detail = "rank formula and coset census agree; direct enumeration skipped"
        else:
            detail = "rank formula, coset census, and direct enumeration agree"
        _add_check(report, "quotient-vs-census", cls.consistent, detail)


def cmd_vanest(args: argparse.Namespace, report: dict) -> None:
    fx = _load_kind(args.fixture, ("jet",), "the vanest command needs a jet fixture")
    if fx.theta_prog is None or fx.alpha_prog is None:
        raise FixtureError(
            "$", "the vanest command needs rep-program, T, value-shape, alpha-program"
        )
    degree = args.degree if args.degree is not None else fx.degree
    if degree is None:
        raise FixtureError("$.degree", "no degree in the fixture and no --degree flag")
    report["arguments"]["degree"] = degree
    source = "$.degree" if args.degree is None else "--degree"
    require_arity(fx.alpha_prog, degree, source, f"degree {degree} gives the alpha-program")
    if fx.beta_prog is None:
        # an alpha-program reading fewer inputs than the degree is left to
        # the sampled normalization check, which reports it as a verdict
        if degree >= 2 and max_input_index(fx.alpha_prog) + 1 == degree:
            raise FixtureError(source, f"degree {degree} needs a beta-program, got none")
    elif degree < 2:
        raise FixtureError(source, f"a beta-program needs degree >= 2, got {degree}")
    else:
        require_arity(
            fx.beta_prog, degree - 1, source, f"degree {degree} gives the beta-program"
        )
    report["notes"].append(
        f"program preconditions sampled on {DEFAULT_SAMPLES} matrices, seed {args.seed}"
    )
    try:
        diff = differentiate_difference_operator(fx.spec, fx.dprog, fx.basis, seed=args.seed)
        lierep = differentiate_representation(diff, fx.theta_prog, fx.t, fx.vshape)
    except (SampledPreconditionError, ValidationError) as exc:
        _add_check(report, "differentiation", False, str(exc))
        return
    _add_check(report, "differentiation", True, "operator and representation derived")
    try:
        ve = verify_van_est_cochain_map(
            diff, lierep, fx.theta_prog, fx.vshape, fx.alpha_prog, degree,
            beta_prog=fx.beta_prog,
        )
    except SampledPreconditionError as exc:
        _add_check(report, "cochain-program", False, str(exc))
        return
    for chk in ve.checks:
        _add_check(report, chk.name, chk.ok, chk.detail)


_COMMANDS = {
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "les": cmd_les,
    "classify": cmd_classify,
    "vanest": cmd_vanest,
}


def _positive_degree(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call of
    ``main``; parsing leaves it as it was, so every call reuses it."""
    parser = argparse.ArgumentParser(
        prog="diffcoh",
        description="exact checks for difference-group and difference-Lie cohomology",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("fixture", help="path to a JSON fixture file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--timing",
            action="store_true",
            help="include elapsed time (breaks byte determinism)",
        )

    p = sub.add_parser("check", help="run construction-time validations")
    common(p)
    p.add_argument("--seed", type=int, default=0)

    for name, helptext in (
        ("cohomology", "compute cohomology dimension tables"),
        ("les", "verify long-exact-sequence exactness"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p)
        p.add_argument("--max-degree", type=_positive_degree, default=2)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("classify", help="classify extensions or semidirect operators")
    common(p)
    p.add_argument("--mode", choices=("extensions", "semidirect-ops"), default="extensions")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("vanest", help="verify the differentiation cochain map")
    common(p)
    p.add_argument("--degree", type=int, choices=range(1, VE_DEGREE_CAP + 1), default=None)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report = _new_report(args, argv)
        _COMMANDS[args.cmd](args, report)
    except BudgetExceededError as exc:
        _add_check(report, "budget", False, str(exc))
    except FileNotFoundError as exc:
        print(f"error: cannot read fixture: {exc}", file=sys.stderr)
        return 2
    except (FixtureError, ProgramError, ScalarError, LieError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        # only the check command reports validation failures as verdicts
        print(f"error: fixture failed validation: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    if args.timing:
        report["elapsed-seconds"] = round(time.monotonic() - started, 3)
    sys.stdout.write(_render(report, args.format))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
