"""Per-layer tracing of tfan from outside the program.

``Tracer.install`` replaces each listed entry point with a wrapper in every
``tfan`` module namespace that holds it, so calls made through any import
of the name are seen.  A span wrapper records calls, inclusive time and self
time (its duration minus the time covered by spans it encloses); a counter
wrapper only counts calls, for functions too hot to time.  A name that no
longer exists is a hard error, so a renamed function cannot report zero.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, attribute path, metric name) of every wrapped entry point.
SPANS = (
    ("tfan.division", "standard_basis", "division.standard_basis"),
    ("tfan.division", "_head_reduce", "division.head_reduce"),
    ("tfan.division", "hddwr", "division.hddwr"),
    ("tfan.division", "mora_weak_nf", "division.mora_weak_nf"),
    ("tfan.division", "minimize", "division.minimize"),
    ("tfan.inred", "ensure_initially_reduced", "inred.ensure_initially_reduced"),
    ("tfan.inred", "inred_step_by_step", "inred.inred_step_by_step"),
    ("tfan.inred", "generic_initial_reduce", "inred.generic_initial_reduce"),
    ("tfan.fan", "groebner_fan", "fan.groebner_fan"),
    ("tfan.fan", "groebner_cone_at", "fan.groebner_cone_at"),
    ("tfan.fan", "flip", "fan.flip"),
    ("tfan.fan", "lift", "fan.lift"),
    ("tfan.cone", "dd_rays", "cone.dd_rays"),
    ("tfan.cone", "facets", "cone.facets"),
    ("tfan.cone", "cone_from_basis", "cone.cone_from_basis"),
    ("tfan.exact", "kernel_basis", "exact.kernel_basis"),
    ("tfan.exact", "rref", "exact.rref"),
    ("tfan.cli", "parse_problem", "cli.parse_problem"),
    ("tfan.cli", "render_fan", "cli.render_fan"),
    ("tfan.cli", "render_cone", "cli.render_cone"),
)
COUNTERS = (
    ("tfan.inred", "p_reduce", "inred.p_reduce"),
    ("tfan.fan", "witness", "fan.witness"),
    ("tfan.cone", "relative_interior_point", "cone.relative_interior_point"),
    ("tfan.cone", "contains", "cone.contains"),
    ("tfan.poly", "MonomialOrdering.key", "poly.MonomialOrdering.key"),
    ("tfan.poly", "leading_term", "poly.leading_term"),
)

# Per-layer metrics as (name, unit, better); the order of BENCHMARK.json.
METRICS = (
    ("division.standard_basis.calls", "count", "lower"),
    ("division.standard_basis.self_s", "s", "lower"),
    ("division.head_reduce.self_s", "s", "lower"),
    ("division.pairs_reduced", "count", "lower"),
    ("division.pairs_zero", "count", "lower"),
    ("division.pairs_useful_ratio", "ratio", "higher"),
    ("division.hddwr.calls", "count", "lower"),
    ("division.hddwr.self_s", "s", "lower"),
    ("division.mora_weak_nf.calls", "count", "lower"),
    ("division.mora_weak_nf.self_s", "s", "lower"),
    ("division.minimize.self_s", "s", "lower"),
    ("inred.ensure_initially_reduced.calls", "count", "lower"),
    ("inred.ensure_initially_reduced.total_s", "s", "lower"),
    ("inred.inred_step_by_step.self_s", "s", "lower"),
    ("inred.generic_initial_reduce.self_s", "s", "lower"),
    ("inred.p_reduce.calls", "count", "lower"),
    ("fan.flips", "count", "lower"),
    ("fan.flip.total_s", "s", "lower"),
    ("fan.lift.total_s", "s", "lower"),
    ("fan.witness.calls", "count", "lower"),
    ("fan.groebner_fan.self_s", "s", "lower"),
    ("fan.groebner_cone_at.total_s", "s", "lower"),
    ("cone.dd_rays.calls", "count", "lower"),
    ("cone.dd_rays.self_s", "s", "lower"),
    ("cone.dd_rays.per_cone", "calls/cone", "lower"),
    ("cone.facets.self_s", "s", "lower"),
    ("cone.relative_interior_point.calls", "count", "lower"),
    ("cone.contains.calls", "count", "lower"),
    ("cone.cone_from_basis.self_s", "s", "lower"),
    ("exact.kernel_basis.calls", "count", "lower"),
    ("exact.kernel_basis.self_s", "s", "lower"),
    ("exact.rref.calls", "count", "lower"),
    ("exact.rref.self_s", "s", "lower"),
    ("poly.MonomialOrdering.key.calls", "count", "lower"),
    ("poly.leading_term.calls", "count", "lower"),
    ("cli.parse_problem.self_s", "s", "lower"),
    ("cli.render_fan.self_s", "s", "lower"),
    ("cli.render_cone.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class TraceError(RuntimeError):
    """A name the tracer must wrap is missing from the program."""


class Tracer:
    """Wraps tfan entry points; accumulates calls and times while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.pairs_zero = 0
        self._children: list[float] = []  # per open span: time its children took
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        children = self._children
        clock = self.clock
        calls[name] = total[name] = self_time[name] = 0
        is_head_reduce = name == "division.head_reduce"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if is_head_reduce and result.is_zero:
                self.pairs_zero += 1
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed name with zeroed statistics; raises TraceError
        if one is missing."""
        for d in (self.calls, self.total, self.self_time):
            d.clear()
        self.pairs_zero = 0
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module_name, path, name in table:
                module = sys.modules.get(module_name)
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    raise TraceError(f"cannot trace {module_name}.{path}: name not found")
                original = getattr(owner, attr)
                wrapped = make(name, original)
                if owner is not module:  # a method: patch the class only
                    self._patch(owner, attr, original, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "tfan" or mod_name.startswith("tfan."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def snapshot(self, cones: int) -> dict[str, float]:
        """Per-layer metrics of the work since the last install.

        ``cones`` is the number of maximal cones that work produced, the
        base of ``cone.dd_rays.per_cone``.
        """
        reduced = self.calls["division.head_reduce"]
        derived = {
            "division.pairs_reduced": reduced,
            "division.pairs_zero": self.pairs_zero,
            "division.pairs_useful_ratio":
                (reduced - self.pairs_zero) / reduced if reduced else 0.0,
            "fan.flips": self.calls["fan.flip"],
            "cone.dd_rays.per_cone": self.calls["cone.dd_rays"] / cones,
        }
        by_kind = {"calls": self.calls, "self_s": self.self_time, "total_s": self.total}
        out = {}
        for name, _, _ in METRICS:
            base, _, kind = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif kind in by_kind:
                out[name] = by_kind[kind][base]
        return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes (counts repeat exactly per pass)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
