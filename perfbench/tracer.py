"""Span tracer for the monocurve layers, patched in from outside the library.

``Tracer`` wraps every public function of each layer module in every
module namespace that binds it (``normal_form`` is bound in both
``polyring`` and ``generators``), so calls made through any of those
names are seen.  Each call records a span ``[name, start, end, parent,
trace_id, zero]`` in memory; ``zero`` is set for the two division
routines when the remainder is zero.  The two ``leading_term`` methods
get a call counter and no span.  Leaving the ``with`` block restores
every patched object.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("semigroup", "polyring", "generators", "syzygy", "report", "cli")

# Leaf helpers left unwrapped.  Each does one small piece of arithmetic
# per call (a monomial product or test, a variable, an index, a symbol, a
# binomial or syzygy, a term's order monomial or curve image, one
# S-vector), and one p = 8 verify or one sweep of the grid calls each of
# them 10^3 to 2*10^6 times.  A span around each call would time the
# tracer, so their time counts toward the self time of the wrapped
# function that calls them: groebner_generators.self_s and
# syzygy_basis.self_s, for instance, cover building the binomials and
# the A/B/L syzygies.  WeightOrder.key and ModuleOrder.key are never
# wrapped either.
UNWRAPPED = frozenset({
    "mono_one", "mono_mul", "mono_divides", "mono_div", "mono_lcm",
    "mono_coprime", "variable_position", "variable_monomial",
    "epsilon", "tau", "phi_binomial", "psi_binomial", "is_standard_shape",
    "psi_symbol", "phi_symbol", "order_monomial", "curve_image", "in_curve_ideal",
    "syzygy_A", "syzygy_B", "syzygy_L", "module_s_vector",
})

# Called 10^5 to 10^6 times per p = 8 verify: counted, never spanned.
COUNTED_METHODS = (("polyring", "WeightOrder", "leading_term"),
                   ("syzygy", "ModuleOrder", "leading_term"))

ZERO_FLAGGED = frozenset({"polyring.normal_form", "syzygy.module_normal_form"})

NAME, START, END, PARENT, TRACE, ZERO = range(6)
SPAN_FIELDS = ("name", "start", "end", "parent", "trace_id", "zero")


class Tracer:
    """Patches the layers of an imported ``monocurve`` package while active.

    The trace id is set by the caller before each CLI call and switches to
    ``m0,d,p`` whenever the CLI dispatcher (``cli.run``) calls
    ``make_params`` itself, so every triple of a sweep gets its own id.
    """

    def __init__(self, package: str = "monocurve"):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.checks = 0
        self.checks_failed = 0
        self.trace_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _namespaces(self) -> list:
        pkg = self.package
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == pkg or n.startswith(pkg + "."))]

    def targets(self) -> dict[str, object]:
        """Qualified name -> original function, for every wrapped function."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    out[f"{layer}.{attr}"] = obj
        return out

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets().items()}
        for ns in self._namespaces():
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        for layer, cls_name, meth in COUNTED_METHODS:
            cls = getattr(sys.modules[f"{self.package}.{layer}"], cls_name)
            original = vars(cls)[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._count(f"{layer}.{cls_name}.{meth}", original))

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_trace = name == "semigroup.make_params"
        zero_flagged = name in ZERO_FLAGGED
        is_check = name.split(".")[1].startswith("verify_")
        signature = inspect.signature(fn) if starts_trace else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if starts_trace and parent >= 0 and spans[parent][NAME] == "cli.run":
                bound = signature.bind(*args, **kwargs).arguments
                self.trace_id = f"{bound['m0']},{bound['d']},{bound['p']}"
            span = [name, clock(), None, parent, self.trace_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if zero_flagged:
                span[ZERO] = not result[0]
            if is_check:
                self.checks += len(result.checks)
                self.checks_failed += sum(1 for c in result.checks if not c.passed)
            return result
        return traced


# -- span arithmetic ------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for k in sorted(kids, key=lambda k: spans[k][START]):
            lo, hi = max(spans[k][START], reach), min(spans[k][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _has_ancestor(spans: list, i: int, names) -> bool:
    j = spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME] in names:
            return True
        j = spans[j][PARENT]
    return False


def span_stats(spans: list) -> dict[str, dict]:
    """Per name: calls, total_s (recursion counted once), self_s, zeros."""
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "zeros": 0})
        s["calls"] += 1
        s["self_s"] += selfs[i]
        if span[ZERO]:
            s["zeros"] += 1
        if not _has_ancestor(spans, i, (span[NAME],)):
            s["total_s"] += span[END] - span[START]
    return stats


def under(spans: list, name: str, ancestor: str) -> list[int]:
    """Indices of the spans called ``name`` that run inside an ``ancestor`` span."""
    return [i for i, s in enumerate(spans)
            if s[NAME] == name and _has_ancestor(spans, i, (ancestor,))]


# -- per-layer metrics ----------------------------------------------------

# (metric, unit); see DESIGN.md for the end-to-end metric each one moves.
LAYER_METRICS = (
    ("semigroup.make_params.self_s", "s"),
    ("semigroup.verify_minimal_multiples.total_s", "s"),
    ("polyring.normal_form.calls", "count"),
    ("polyring.normal_form.self_s", "s"),
    ("polyring.normal_form.zero_ratio", "ratio"),
    ("polyring.WeightOrder.leading_term.calls", "count"),
    ("polyring.buchberger.calls", "count"),
    ("polyring.buchberger.total_s", "s"),
    ("polyring.buchberger.spairs", "count"),
    ("polyring.buchberger.zero_ratio", "ratio"),
    ("polyring.schreyer_syzygies.total_s", "s"),
    ("generators.verify_groebner_generators.total_s", "s"),
    ("generators.verify_minimality.total_s", "s"),
    ("generators.verify_ideal_equality.total_s", "s"),
    ("generators.verify_standard_monomials.total_s", "s"),
    ("generators.groebner_generators.calls", "count"),
    ("generators.groebner_generators.self_s", "s"),
    ("syzygy.syzygy_basis.calls", "count"),
    ("syzygy.syzygy_basis.self_s", "s"),
    ("syzygy.module_normal_form.calls", "count"),
    ("syzygy.module_normal_form.self_s", "s"),
    ("syzygy.module_normal_form.zero_ratio", "ratio"),
    ("syzygy.ModuleOrder.leading_term.calls", "count"),
    ("syzygy.verify_syzygy_basis.total_s", "s"),
    ("syzygy.schreyer_relations.total_s", "s"),
    ("syzygy.relation_image.calls", "count"),
    ("syzygy.relation_image.self_s", "s"),
    ("syzygy.verify_excluded_leading_forms.total_s", "s"),
    ("syzygy.verify_order_projection.total_s", "s"),
    ("report.checks", "count"),
    ("report.checks_failed", "count"),
    ("cli.verification_bundle.total_s", "s"),
    ("cli.main.self_s", "s"),
)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Every LAYER_METRICS value, per pass of the workload."""
    spans = tracer.spans
    stats = span_stats(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "zeros": 0}
    out = {}
    for metric, _ in LAYER_METRICS:
        name, stat = metric.rsplit(".", 1)
        s = stats.get(name, empty)
        if metric.endswith("leading_term.calls"):
            value = tracer.counts.get(name, 0)
        elif name == "polyring.buchberger" and stat == "spairs":
            value = len(under(spans, "polyring.s_polynomial", name))
        elif name == "polyring.buchberger" and stat == "zero_ratio":
            reductions = under(spans, "polyring.normal_form", name)
            value = _ratio(sum(1 for i in reductions if spans[i][ZERO]), len(reductions))
        elif stat == "zero_ratio":
            value = _ratio(s["zeros"], s["calls"])
        elif metric == "report.checks":
            value = tracer.checks
        elif metric == "report.checks_failed":
            value = tracer.checks_failed
        else:
            value = s[stat]
        out[metric] = value if stat == "zero_ratio" else value / passes
    return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
