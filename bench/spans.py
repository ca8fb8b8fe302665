"""Tracing for the traced benchmark run, installed from outside the program.

``Tracer.instrument`` replaces the public entry points of each wreathbench
module with wrappers that record a span (name, start, end, parent span, job
id) and, for some, a count read off the result.  The hot per-element
products (``compose``, ``wr_multiply``) are only counted.  Spans stay in
memory until the pass ends; ``summary`` turns them into per-layer metrics.
A layer is the part of a span name before the first dot; its self time is
the time its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from math import factorial
from time import perf_counter

LAYERS = (
    "cli", "certify", "presentations", "todd_coxeter", "enumeration",
    "wreath", "transformations", "green", "monoids",
)
NAME, START, END, PARENT, JOB, EXTRA = range(6)

_COUNTS = (
    "todd_coxeter.calls", "todd_coxeter.nodes_allocated", "todd_coxeter.coincidences",
    "enumeration.close.calls", "enumeration.close.products",
    "enumeration.brute_rank.subsets", "wreath.wr_multiply.calls",
    "wreath.count_formula.terms", "wreath.count_brute.elements", "transformations.compose.calls",
    "transformations.enumerate_Tn.elements", "presentations.emit.relations", "trace.spans",
)
_SECONDS = (
    "todd_coxeter.s", "enumeration.close.s", "enumeration.brute_rank.s", "enumeration.generates.s",
    "wreath.count_formula.s", "wreath.count_brute.s", "wreath.elements.s",
    "transformations.enumerate_Tn.s", "presentations.emit.s", "presentations.soundness.s",
    "presentations.standard_map.s", "certify.verify.self_s", "certify.target.s", "green.s",
    "monoids.resolve.s",
)
# counts that are 0 in every correct run: a nonzero one already fails a job,
# so they are printed beside failed_ratio rather than reported as metrics
CHECKS = ("todd_coxeter.bound_exceeded", "enumeration.capacity_errors")
# every other value summary() reports, with its unit
METRICS = {
    **{name: "s" for name in _SECONDS},
    **{name: "count" for name in _COUNTS},
    "todd_coxeter.classes_per_node": "ratio",
    "enumeration.close.new_per_product": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share_pct": "%" for layer in LAYERS},
}


def _tc(res, *args, **kwargs):
    return (res.nodes_allocated, res.coincidences_processed, res.class_count or 0,
            res.status == "bound_exceeded")


def _close(res, *args, **kwargs):
    gens = res.gen_indices
    return (len(res), len(gens), len(set(gens)))


def _count_name(ctx, method="formula"):
    return f"wreath.count_{method}"


def _count(res, ctx, method="formula"):
    n, m = ctx.degree, ctx.base.order
    if method == "formula":
        e = len(ctx.base.idempotents())
        return sum(e**k for k in range(1, n + 1))
    maps = n**n - (factorial(n) if ctx.part == "singular" else 0)
    return m**n * maps


def _relations(res, *args, **kwargs):
    p = res[0] if isinstance(res, tuple) else res
    return len(p.relations)


def _size(res, *args, **kwargs):
    return len(res)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, extra]
        self.stack = []
        self.job = None
        self.calls = {"wreath.wr_multiply.calls": 0, "transformations.compose.calls": 0}
        self.capacity_errors = 0

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` may be a function of fn's arguments,
        ``after(result, *args)`` gives the span's extra count."""
        spans, stack = self.spans, self.stack
        from wreathbench.errors import CapacityError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except CapacityError as exc:
                if label.startswith("enumeration.") and not getattr(exc, "counted", False):
                    exc.counted = True
                    self.capacity_errors += 1
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                rec[EXTRA] = after(result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    def instrument(self):
        """Install the wrappers in every wreathbench module that bound the
        wrapped functions; returns the traced ``cli.main``."""
        # the package rebinds some module names (green, todd_coxeter) to
        # functions of the same name, so fetch the modules themselves
        certify, cli, enumeration, green, monoids, presentations, todd_coxeter, \
            transformations, wreath = (importlib.import_module(f"wreathbench.{m}") for m in (
                "certify", "cli", "enumeration", "green", "monoids", "presentations",
                "todd_coxeter", "transformations", "wreath"))

        table = [
            (todd_coxeter, ("todd_coxeter",), "todd_coxeter", _tc),
            (enumeration, ("close",), "enumeration.close", _close),
            (enumeration, ("brute_rank",), "enumeration.brute_rank", None),
            (enumeration, ("generates",), "enumeration.generates", None),
            (enumeration, ("rank_formulas", "tournament_check"), "enumeration.other", None),
            (wreath, ("count_idempotents",), _count_name, _count),
            (transformations, ("enumerate_Tn",), "transformations.enumerate_Tn", _size),
            (presentations, ("emit_R", "emit_Rn", "emit_R2", "emit_R1", "emit_R1p",
                             "emit_E_wreath_monoid", "emit_semidirect", "table_presentation"),
             "presentations.emit", _relations),
            (presentations, ("soundness",), "presentations.soundness", None),
            (presentations, ("standard_map",), "presentations.standard_map", None),
            (certify, ("verify",), "certify.verify", None),
            (certify, ("sing_target", "wreath_sing_target", "e_wreath_target"),
             "certify.target", None),
            (green, ("green", "green_cached", "is_L_chain", "incomparable_L_witness",
                     "idempotent_generated_part", "e_part_indices", "has_unit_complement_E"),
             "green", None),
            (monoids, ("resolve_monoid",), "monoids.resolve", None),
        ]
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "wreathbench"]
        for module, names, label, after in table:
            for fname in names:
                original = getattr(module, fname)
                _rebind(modules, original, self.span(label, original, after))
        for module, fname, key in ((transformations, "compose", "transformations.compose.calls"),
                                   (wreath, "wr_multiply", "wreath.wr_multiply.calls")):
            original = getattr(module, fname)
            _rebind(modules, original, self.counter(key, original))
        wreath.WreathContext.elements = self.span("wreath.elements", wreath.WreathContext.elements)
        return self.span("cli.main", cli.main)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "job", "extra"), rec))) + "\n")

    def summary(self, suite_s: float) -> dict:
        """Per-layer metrics of the pass; ``suite_s`` is the summed job time
        the layer shares are taken of."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        total = {}
        tc = [0, 0, 0, 0, 0]  # calls, nodes, coincidences, classes, bound exceeded
        close = [0, 0, 0]  # calls, products, new elements
        emitted = subsets = 0
        verify_self = 0.0
        extras = {}
        for k, rec in enumerate(spans):
            name, dur = rec[NAME], rec[END] - rec[START]
            parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
            out[name.split(".")[0] + ".self_s"] += dur - child[k]
            if name == "certify.verify":
                verify_self += dur - child[k]
            if parent != name:
                total[name] = total.get(name, 0.0) + dur
            extra = rec[EXTRA]
            if name == "todd_coxeter" and extra is not None:
                tc[0] += 1
                for i, v in enumerate(extra):
                    tc[i + 1] += v
            elif name == "enumeration.close" and extra is not None:
                size, ngens, distinct = extra
                close[0] += 1
                close[1] += size * ngens
                close[2] += size - distinct
                subsets += parent == "enumeration.brute_rank"
            elif name == "presentations.emit" and parent != name and extra is not None:
                emitted += extra
            elif extra is not None:
                extras[name] = extras.get(name, 0) + extra
        s = lambda name: total.get(name, 0.0)  # noqa: E731
        out.update({
            "todd_coxeter.s": s("todd_coxeter"),
            "todd_coxeter.calls": tc[0],
            "todd_coxeter.nodes_allocated": tc[1],
            "todd_coxeter.coincidences": tc[2],
            "todd_coxeter.classes_per_node": tc[3] / tc[1] if tc[1] else 0.0,
            "todd_coxeter.bound_exceeded": tc[4],
            "enumeration.close.s": s("enumeration.close"),
            "enumeration.close.calls": close[0],
            "enumeration.close.products": close[1],
            "enumeration.close.new_per_product": close[2] / close[1] if close[1] else 0.0,
            "enumeration.brute_rank.s": s("enumeration.brute_rank"),
            "enumeration.brute_rank.subsets": subsets,
            "enumeration.generates.s": s("enumeration.generates"),
            "enumeration.capacity_errors": self.capacity_errors,
            "wreath.count_formula.s": s("wreath.count_formula"),
            "wreath.count_formula.terms": extras.get("wreath.count_formula", 0),
            "wreath.count_brute.s": s("wreath.count_brute"),
            "wreath.count_brute.elements": extras.get("wreath.count_brute", 0),
            "wreath.elements.s": s("wreath.elements"),
            "transformations.enumerate_Tn.s": s("transformations.enumerate_Tn"),
            "transformations.enumerate_Tn.elements": extras.get("transformations.enumerate_Tn", 0),
            "presentations.emit.s": s("presentations.emit"),
            "presentations.emit.relations": emitted,
            "presentations.soundness.s": s("presentations.soundness"),
            "presentations.standard_map.s": s("presentations.standard_map"),
            "certify.verify.self_s": verify_self,
            "certify.target.s": s("certify.target"),
            "green.s": s("green"),
            "monoids.resolve.s": s("monoids.resolve"),
            "trace.spans": len(spans),
        })
        out.update(self.calls)
        for layer in LAYERS:
            out[f"{layer}.share_pct"] = 100.0 * out[f"{layer}.self_s"] / suite_s if suite_s else 0.0
        return out


def _rebind(modules, original, wrapper):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
