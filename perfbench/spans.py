"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces chosen functions and methods of the
``diffcoh`` modules by wrappers that record a span (kind, function,
parent span, start, end) per call; on request, scalar ring methods get a
cheaper wrapper that only counts.  A function is patched under every name it is
bound to in every ``diffcoh`` module (``exactness.solve`` as well as
``linalg.solve``), so calls through ``from .linalg import solve`` are
seen too.  ``uninstall`` puts the originals back, so traced and
untraced rounds can alternate in one process.

The program runs in one thread, so a span's children never overlap and
nothing ever waits: self time is a span's duration minus the summed
duration of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Span:
    __slots__ = ("sid", "parent", "kind", "fn", "start", "end", "nested", "info")

    def __init__(self, sid: int, parent: int, kind: str, fn: str, nested: bool) -> None:
        self.sid = sid
        self.parent = parent
        self.kind = kind
        self.fn = fn
        self.nested = nested  # a span of the same kind is already open
        self.start = 0.0
        self.end = 0.0
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _matrix_size(tracer, args, result):
    m = args[0]
    zero = m.ring.zero
    return (m.nrows * m.ncols, sum(1 for x in m.entries if x != zero))


def _fresh_matrix(tracer, args, result):
    """(built, entries): built is false when the call returned a matrix
    object already returned in this round, i.e. a cache hit."""
    built = id(result) not in tracer.seen
    tracer.seen[id(result)] = result
    return (built, result.nrows * result.ncols)


def _d_b_key(tracer, args, result):
    data, n = args[0], args[1]
    tracer.seen[id(data)] = data
    return (id(data), n)


def _found(tracer, args, result):
    return result is not None


# (module, attribute, span kind, observer); an attribute "Class.method"
# patches the method on the class.
SPANS = [
    ("linalg", "rank", "linalg.elim", _matrix_size),
    ("linalg", "kernel_basis", "linalg.elim", _matrix_size),
    ("linalg", "solve", "linalg.elim", _matrix_size),
    ("linalg", "column_space_basis", "linalg.elim", _matrix_size),
    ("linalg", "Matrix.__matmul__", "linalg.matmul", None),
    ("linalg", "matrix_inverse", "linalg.inverse", None),
    ("linalg", "field_matrix_inverse", "linalg.inverse", None),
    ("linalg", "jet_matrix_inverse", "linalg.inverse", None),
    ("linalg", "det", "linalg.det", None),
    ("group_cohomology", "coboundary", "group_cohomology.cochain", None),
    ("group_cohomology", "kk", "group_cohomology.cochain", None),
    ("group_cohomology", "delta", "group_cohomology.cochain", None),
    ("group_cohomology", "DifferenceComplex.d_ordinary", "group_cohomology.assembly", _fresh_matrix),
    ("group_cohomology", "DifferenceComplex.d_difference", "group_cohomology.assembly", _fresh_matrix),
    ("group_cohomology", "DifferenceComplex.k_matrix", "group_cohomology.assembly", _fresh_matrix),
    ("lie", "LieDifferenceComplex.d_ordinary", "lie.assembly", _fresh_matrix),
    ("lie", "LieDifferenceComplex.d_difference", "lie.assembly", _fresh_matrix),
    ("lie", "LieDifferenceComplex.k_matrix", "lie.assembly", _fresh_matrix),
    ("lie", "k_map", "lie.k_map", None),
    ("lie", "ce_coboundary", "lie.ce_coboundary", None),
    ("exactness", "cohomology_space", "exactness.space", None),
    ("exactness", "LESData.d_b", "exactness.d_b", _d_b_key),
    ("exactness", "induced_map", "exactness.induced", None),
    ("groups", "FiniteGroup.check", "groups.check", None),
    ("extensions", "are_isomorphic", "extensions.iso", _found),
    ("extensions", "AbelianExtension.__init__", "extensions.build", None),
    ("programs", "evaluate", "programs.evaluate", None),
    ("vanest", "van_est", "vanest.van_est", None),
    ("vanest", "differentiate_difference_operator", "vanest.route", None),
    ("vanest", "differentiate_representation", "vanest.route", None),
    ("vanest", "verify_van_est_cochain_map", "vanest.route", None),
    ("fixtures", "load_fixture_data", "fixtures.load", None),
    ("fixtures", "parse_fixture", "fixtures.load", None),
]

# ring class -> counter name; every public method of the class is counted
RINGS = [("Rationals", "q_ops"), ("PrimeField", "fp_ops"), ("JetRing", "jet_ops")]

LAYERS = sorted({kind.split(".")[0] for _, _, kind, _ in SPANS} | {"scalars", "cli"})


PACKAGE = "diffcoh"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.seen: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget the spans and counts of the previous round."""
        self.spans = []
        self.counts = Counter()
        self.raised = Counter()
        self.seen = {}

    # ------------------------------------------------------------ wrappers

    def wrap(self, kind: str, fn, observe=None):
        tracer = self
        layer = kind.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            span = Span(
                len(spans), stack[-1] if stack else -1, kind, fn.__name__,
                tracer.open[kind] > 0,
            )
            spans.append(span)
            stack.append(span.sid)
            tracer.open[kind] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[layer] += 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.open[kind] -= 1
            if observe is not None:
                span.info = observe(tracer, args, result)
            return result

        return traced

    def _counted(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised["scalars"] += 1
                raise

        return counted

    # ------------------------------------------------------------ patching

    def _modules(self):
        prefix = PACKAGE + "."
        return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, count_scalars: bool = False) -> None:
        """Patch the span wrappers in, and with ``count_scalars`` the
        ring-method counters, which slow scalar-heavy layers up to 3x."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for modname, attr, kind, observe in SPANS:
            home = sys.modules[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self.wrap(kind, cls.__dict__[meth], observe))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(kind, original, observe)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        if not count_scalars:
            return
        scalars = sys.modules[f"{PACKAGE}.scalars"]
        for cls_name, key in RINGS:
            cls = getattr(scalars, cls_name)
            for meth, fn in list(vars(cls).items()):
                if not meth.startswith("_") and callable(fn):
                    self._patch(cls, meth, self._counted(key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# ---------------------------------------------------------------- metrics


def _outer(spans: list[Span], kind: str) -> list[Span]:
    return [s for s in spans if s.kind == kind and not s.nested]


def _total(spans: list[Span]) -> float:
    return sum(s.seconds for s in spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - child[s.sid] for s in spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round, name -> (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    out: dict[str, tuple[float, str]] = {}

    for _, key in RINGS:
        out[f"scalars.{key}"] = (tracer.counts[key], "count")

    elim = _outer(spans, "linalg.elim")
    entries = sum(s.info[0] for s in elim)
    nnz = sum(s.info[1] for s in elim)
    out["linalg.elim_calls"] = (len(elim), "count")
    out["linalg.elim_s"] = (_total(elim), "s")
    out["linalg.elim_entries"] = (entries, "count")
    out["linalg.elim_nnz"] = (nnz, "count")
    out["linalg.elim_density"] = (_ratio(nnz, entries), "ratio")
    matmul = _outer(spans, "linalg.matmul")
    out["linalg.matmul_calls"] = (len(matmul), "count")
    out["linalg.matmul_s"] = (_total(matmul), "s")
    out["linalg.inverse_s"] = (_total(_outer(spans, "linalg.inverse")), "s")
    out["linalg.det_s"] = (_total(_outer(spans, "linalg.det")), "s")

    for layer in ("group_cohomology", "lie"):
        asm = _outer(spans, f"{layer}.assembly")
        built = [s for s in asm if s.info[0]]
        out[f"{layer}.assembly_s"] = (_total(asm), "s")
        out[f"{layer}.matrices_built"] = (len(built), "count")
        if layer == "group_cohomology":
            out[f"{layer}.matrix_hit_ratio"] = (_ratio(len(asm) - len(built), len(asm)), "ratio")
            out[f"{layer}.assembled_entries"] = (sum(s.info[1] for s in built), "count")
    cochain = _outer(spans, "group_cohomology.cochain")
    out["group_cohomology.cochain_calls"] = (len(cochain), "count")
    out["group_cohomology.cochain_s"] = (_total(cochain), "s")
    for kind in ("lie.k_map", "lie.ce_coboundary"):
        sp = _outer(spans, kind)
        out[f"{kind}_calls"] = (len(sp), "count")
        out[f"{kind}_s"] = (_total(sp), "s")

    space = _outer(spans, "exactness.space")
    space_ids = {s.sid for s in space}
    solves = sum(1 for s in spans if s.fn == "solve" and s.parent in space_ids)
    d_b = _outer(spans, "exactness.d_b")
    out["exactness.spaces"] = (len(space), "count")
    out["exactness.space_s"] = (_total(space), "s")
    out["exactness.solves_per_space"] = (_ratio(solves, len(space)), "ratio")
    out["exactness.d_b_calls"] = (len(d_b), "count")
    out["exactness.d_b_distinct_ratio"] = (_ratio(len({s.info for s in d_b}), len(d_b)), "ratio")
    out["exactness.d_b_s"] = (_total(d_b), "s")
    out["exactness.induced_s"] = (_total(_outer(spans, "exactness.induced")), "s")

    check = _outer(spans, "groups.check")
    out["groups.tables_checked"] = (len(check), "count")
    out["groups.check_s"] = (_total(check), "s")
    iso = _outer(spans, "extensions.iso")
    build = _outer(spans, "extensions.build")
    out["extensions.iso_searches"] = (len(iso), "count")
    out["extensions.iso_hit_ratio"] = (_ratio(sum(1 for s in iso if s.info), len(iso)), "ratio")
    out["extensions.iso_s"] = (_total(iso), "s")
    out["extensions.extensions_built"] = (len(build), "count")
    out["extensions.build_s"] = (_total(build), "s")

    evaluate = _outer(spans, "programs.evaluate")
    out["programs.evaluations"] = (len(evaluate), "count")
    out["programs.evaluate_s"] = (_total(evaluate), "s")
    van_est = _outer(spans, "vanest.van_est")
    out["vanest.van_est_calls"] = (len(van_est), "count")
    out["vanest.van_est_s"] = (_total(van_est), "s")
    out["vanest.self_s"] = (
        sum(t for s, t in zip(spans, own) if s.kind.startswith("vanest.")), "s"
    )

    out["fixtures.load_s"] = (_total(_outer(spans, "fixtures.load")), "s")
    out["cli.self_s"] = (sum(t for s, t in zip(spans, own) if s.kind == "cli.main"), "s")
    out["cli.report_bytes"] = (report_bytes, "B")
    for layer in LAYERS:
        out[f"{layer}.raised"] = (tracer.raised[layer], "count")
    out["trace.spans"] = (len(spans), "count")
    return out
