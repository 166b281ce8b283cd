"""Span tracer for the benchmark's traced run.

The tracer wraps schrogeo's public functions from outside the package: it
never edits ``src/``.  ``install`` replaces each traced function at every
``schrogeo.*`` namespace that binds it, because modules such as ``suites``,
``homogeneous`` and ``bargmann`` hold their own references made by
``from .ambient import build_Z0`` and the like.  ``uninstall`` puts every
original back.

A wrapped call records a span (name, start, end, parent, battery id,
exception name).  Jet2 arithmetic runs about 10^5 times per battery, so it
gets aggregate counts and time instead of spans; the time spent in the
outermost Jet2 call is charged to the span that is open around it, so the
span's self time excludes it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Traced public functions, by defining module.  The span name of
# ``schrogeo.<mod>.<fn>`` is ``<mod>.<fn>``.
SPAN_TARGETS = {
    "schrogeo.numkernel": ("seed_point", "rank_nullspace"),
    "schrogeo.geometry": (
        "gram_values",
        "gram_jets",
        "jet_components",
        "christoffel_from_derivatives",
        "ricci_from_derivatives",
        "lie_derivative_metric",
        "covariant_derivative",
        "yamabe_residual",
    ),
    "schrogeo.ambient": (
        "build_Z0",
        "commutant_basis",
        "decompose_sch",
        "random_group_element",
        "projective_action",
        "component_witnesses",
    ),
    "schrogeo.homogeneous": (
        "embed_components",
        "induced_metric",
        "xi_hat_consistency",
        "einstein_residual",
        "nullfluid_residual",
        "isometry_check",
        "isotropy_check",
        "boundary_structure",
        "schrodinger_axiom_audit",
    ),
    "schrogeo.bargmann": (
        "schrodinger_residual",
        "symmetry_transport_check",
        "bargmann_axioms_check",
        "conformal_equivalence_check",
    ),
    "schrogeo.suites": ("run_suite", "emit_report"),
    "schrogeo.cli": ("main",),
}

# Module-level jet operations, aggregated like the Jet2 methods.
JET_FUNCTIONS = {"schrogeo.numkernel": ("_chain",)}

# Jet2 methods that are not arithmetic; every other plain function in the
# class body is wrapped (the ``__radd__``/``__rmul__`` aliases separately).
JET_UNTRACED = frozenset({"__repr__", "_coerce"})

_COUNTERS = (
    "numkernel.jet2.constructed",
    "numkernel.jet2.ops",
    "numkernel.jet2.self_s",
    "numkernel.sampler.draws",
    "numkernel.sampler.rejections",
)

ORIGINAL_ATTR = "__perfbench_original__"


def _span_name(module: str, fn: str) -> str:
    return module.removeprefix("schrogeo.") + "." + fn


def schrogeo_modules() -> dict[str, types.ModuleType]:
    """Every imported ``schrogeo`` module, by name."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == "schrogeo" or name.startswith("schrogeo.")
    }


def is_wrapper(value) -> bool:
    return callable(value) and hasattr(value, ORIGINAL_ATTR)


class Tracer:
    """Records spans and jet/sampler counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[int, dict[str, float]] = {}
        self.missing: list[str] = []
        self.battery = -1
        self._stack: list[int] = []
        self._jet_inside: list[float] = []
        self._jet_depth = 0
        self._restore: list[tuple[object, str, object]] = []
        self._reset_counts()

    # -- battery bookkeeping -------------------------------------------

    def _reset_counts(self) -> None:
        self.jet_constructed = 0
        self.jet_ops = 0
        self.jet_s = 0.0
        self.draws = 0
        self.rejections = 0

    def start_battery(self, battery: int) -> None:
        self.battery = battery
        self._reset_counts()

    def end_battery(self) -> None:
        self.counters[self.battery] = dict(
            zip(
                _COUNTERS,
                (self.jet_constructed, self.jet_ops, self.jet_s, self.draws, self.rejections),
            )
        )
        self.battery = -1

    # -- wrappers ------------------------------------------------------

    def _span(self, fn, name: str):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            spans.append(None)
            tracer._stack.append(idx)
            tracer._jet_inside.append(0.0)
            exc = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = type(err).__name__
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                jet = tracer._jet_inside.pop()
                spans[idx] = (name, start, end, parent, tracer.battery, jet, exc)

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    def _jet(self, fn, constructor: bool):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if constructor:
                tracer.jet_constructed += 1
            else:
                tracer.jet_ops += 1
            if tracer._jet_depth:
                return fn(*args, **kwargs)
            tracer._jet_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                tracer._jet_depth = 0
                tracer.jet_s += spent
                if tracer._jet_inside:
                    tracer._jet_inside[-1] += spent

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    def _sampler(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sampler, *args, **kwargs):
            before = sampler.rejections
            accepted = 0
            try:
                out = fn(sampler, *args, **kwargs)
                accepted = 1
                return out
            finally:
                rejected = sampler.rejections - before
                tracer.rejections += rejected
                tracer.draws += rejected + accepted

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    # -- install / uninstall -------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name in every ``schrogeo.*`` namespace."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = schrogeo_modules()
        by_id: dict[int, tuple[object, object]] = {}
        self.missing = []

        def collect(targets, make):
            for modname, names in targets.items():
                mod = modules.get(modname)
                for fname in names:
                    fn = getattr(mod, fname, None) if mod is not None else None
                    if fn is None:
                        self.missing.append(_span_name(modname, fname))
                        continue
                    by_id[id(fn)] = (fn, make(fn, _span_name(modname, fname)))

        collect(SPAN_TARGETS, self._span)
        collect(JET_FUNCTIONS, lambda fn, _name: self._jet(fn, constructor=False))

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(mod, attr, entry[1])

        numkernel = modules.get("schrogeo.numkernel")
        jet_cls = getattr(numkernel, "Jet2", None)
        if jet_cls is None:
            self.missing.append("numkernel.Jet2")
        else:
            for attr, value in list(vars(jet_cls).items()):
                if isinstance(value, types.FunctionType) and attr not in JET_UNTRACED:
                    self._set(jet_cls, attr, self._jet(value, constructor=attr == "__init__"))
        sampler_cls = getattr(numkernel, "SeededSampler", None)
        if sampler_cls is None or not hasattr(sampler_cls, "sample"):
            self.missing.append("numkernel.SeededSampler.sample")
        else:
            self._set(sampler_cls, "sample", self._sampler(sampler_cls.sample))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------

    def battery_metrics(self, battery: int) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every traced span name,
        the jet and sampler counters, and the error counts, for one battery.

        Self time is the span's duration minus its child spans and minus the
        Jet2 time spent directly inside it.
        """
        picked = [(i, s) for i, s in enumerate(self.spans) if s is not None and s[4] == battery]
        child = {}
        for _, (_, start, end, parent, _, _, _) in picked:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for modname, names in SPAN_TARGETS.items():
            for fname in names:
                name = _span_name(modname, fname)
                out[name + ".calls"] = 0
                out[name + ".self_s"] = 0.0
        degenerate = escapes = 0
        for i, (name, start, end, parent, _, jet, exc) in picked:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - child.get(i, 0.0) - jet
            if exc == "ChartEscapeError" and name == "ambient.projective_action":
                escapes += 1
            # count a singular metric once, where it leaves the geometry layer
            if exc == "DegenerateMetricError" and name.startswith("geometry."):
                parent_name = self.spans[parent][0] if parent >= 0 else ""
                if not parent_name.startswith("geometry."):
                    degenerate += 1
        out["ambient.chart_escapes"] = escapes
        out["geometry.degenerate_errors"] = degenerate
        out.update(self.counters.get(battery, dict.fromkeys(_COUNTERS, 0)))
        return out
