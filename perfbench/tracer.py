"""Span recorder for the traced benchmark run.

``Tracer.install()`` rebinds the public functions of each groupoids layer,
in every ``groupoids.*`` module namespace that holds them (and in tuples
such as ``suite.ALL_CHECKS``), to wrappers that record one span per call:
name, start, end, parent span and job id.  ``uninstall()`` puts the
originals back.  Spans stay in memory; ``layer_metrics()`` turns them into
per-layer self times and the counters below.

Counters are computed from arguments and return values after the span has
closed.  The time they take is taken off the clock that stamps spans, so it
shows in no span, the enclosing ones included.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# Layer -> functions that get a span.  Oracle, suite and corpus spans cover
# every public function of their module (see _targets).
SPANNED = {
    "cli": ("main",),
    "fileformat": ("parse_text", "render_entities"),
    "core": ("validate_groupoid", "validate_morphism", "is_fibration",
             "is_covering", "is_quotient_morphism", "is_normal_subgroupoid",
             "search_isomorphism"),
    "actions": ("validate_action",),
    "catalog": ("group_isomorphic", "group_of_one_object_groupoid"),
    "constructions": ("semidirect_product", "normal_closure",
                      "generated_wide_subgroupoid", "quotient_groupoid",
                      "orbit_groupoid"),
    "presented": ("validate_graph_action", "orbit_presentation",
                  "vertex_group_presentation", "smith_normal_form",
                  "symmetric_square_presentation"),
}
PREDICATES = ("core.is_fibration", "core.is_covering",
              "core.is_quotient_morphism", "core.is_normal_subgroupoid")
SUITE_CHECKS = ("check_corpus_valid", "check_semidirect_laws",
                "check_trichotomy", "check_first_isomorphism",
                "check_normal_closure_minimal", "check_orbit_kernel",
                "check_universal_property", "check_tree_orbit_groups",
                "check_zmod4_inversion", "check_circle_reflection",
                "check_graph_orbit_presentations", "check_abelianization",
                "check_symmetric_square", "check_regular_covers",
                "check_restrict_orbit", "check_round_trip")

# name -> (unit, better); the order is the order of BENCHMARK.json
METRICS = {}
for _name in ("fileformat.parse_text", "fileformat.render_entities",
              "core.validate_groupoid", "core.validate_morphism",
              "core.predicates", "core.search_isomorphism",
              "actions.validate_action", "catalog.group_isomorphic",
              "catalog.group_of_one_object_groupoid",
              "constructions.semidirect_product",
              "constructions.normal_closure",
              "constructions.generated_wide_subgroupoid",
              "constructions.quotient_groupoid",
              "constructions.orbit_groupoid",
              "presented.validate_graph_action",
              "presented.orbit_presentation",
              "presented.vertex_group_presentation",
              "presented.smith_normal_form",
              "presented.symmetric_square_presentation",
              "oracle", "oracle.check_universal_property",
              "oracle.minimal_normal_closure", "oracle.brute_abelianization",
              "cli.main"):
    METRICS[f"{_name}.self_s"] = ("s", "lower")
for _check in SUITE_CHECKS:
    METRICS[f"suite.{_check}.total_s"] = ("s", "lower")
METRICS["corpus.build.s"] = ("s", "lower")
for _name, _unit in (("fileformat.parse_text.calls", "count"),
                     ("fileformat.parse_text.input_bytes", "bytes"),
                     ("fileformat.render_entities.output_bytes", "bytes"),
                     ("core.validate_groupoid.calls", "count"),
                     ("core.validate_groupoid.compose_entries", "count"),
                     ("core.validate_groupoid.assoc_triples", "count"),
                     ("core.validate_morphism.calls", "count"),
                     ("core.search_isomorphism.calls", "count"),
                     ("actions.validate_action.calls", "count"),
                     ("constructions.semidirect_product.arrows", "count"),
                     ("constructions.semidirect_product.compose_entries",
                      "count"),
                     ("constructions.normal_closure.closure_arrows", "count"),
                     ("constructions.quotient_groupoid.quotient_arrows",
                      "count"),
                     ("presented.smith_normal_form.calls", "count"),
                     ("presented.smith_normal_form.cells", "count"),
                     ("corpus.build.calls", "count"),
                     ("errors.size_cap.count", "count")):
    METRICS[_name] = (_unit, "lower")
METRICS["constructions.semidirect_product.pair_yield"] = ("ratio", "higher")
METRICS["constructions.orbit_groupoid.collapse_ratio"] = ("ratio", "higher")
METRICS["trace.slowdown"] = ("ratio", "lower")

# Counters summed over calls; ratios are quotients of two such sums.
RATIOS = {
    "constructions.semidirect_product.pair_yield":
        ("constructions.semidirect_product.compose_entries",
         "constructions.semidirect_product.arrows_squared"),
    "constructions.orbit_groupoid.collapse_ratio":
        ("constructions.orbit_groupoid.orbit_arrows",
         "constructions.orbit_groupoid.semidirect_arrows"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_validate_groupoid(add, args, kwargs, _result):
    g = _arg(args, kwargs, 0, "g")
    add("core.validate_groupoid.compose_entries", len(g.compose))
    out = {}
    for u in g.arrows:
        x = g.source.get(u)
        out[x] = out.get(x, 0) + 1
    # composable triples (w, v, u): every w leaving the target of v
    add("core.validate_groupoid.assoc_triples",
        sum(out.get(g.target.get(v), 0) for (v, _u) in g.compose))


def _count_semidirect(add, _args, _kwargs, sd):
    arrows = len(sd.groupoid.arrows)
    add("constructions.semidirect_product.arrows", arrows)
    add("constructions.semidirect_product.arrows_squared", arrows * arrows)
    add("constructions.semidirect_product.compose_entries",
        len(sd.groupoid.compose))


def _count_orbit(add, _args, _kwargs, orb):
    add("constructions.orbit_groupoid.orbit_arrows", len(orb.groupoid.arrows))
    add("constructions.orbit_groupoid.semidirect_arrows",
        len(orb.semidirect.groupoid.arrows))


def _count_smith(add, args, kwargs, _result):
    matrix = _arg(args, kwargs, 0, "matrix")
    add("presented.smith_normal_form.cells",
        len(matrix) * len(matrix[0]) if matrix else 0)


COUNTERS = {
    "fileformat.parse_text": lambda add, a, k, _r: add(
        "fileformat.parse_text.input_bytes",
        len(_arg(a, k, 0, "text").encode("utf-8"))),
    "fileformat.render_entities": lambda add, _a, _k, r: add(
        "fileformat.render_entities.output_bytes", len(r.encode("utf-8"))),
    "core.validate_groupoid": _count_validate_groupoid,
    "constructions.semidirect_product": _count_semidirect,
    "constructions.normal_closure": lambda add, _a, _k, r: add(
        "constructions.normal_closure.closure_arrows", len(r.arrows)),
    "constructions.quotient_groupoid": lambda add, _a, _k, r: add(
        "constructions.quotient_groupoid.quotient_arrows",
        len(r.groupoid.arrows)),
    "constructions.orbit_groupoid": _count_orbit,
    "presented.smith_normal_form": _count_smith,
}
CALL_COUNTS = ("fileformat.parse_text", "core.validate_groupoid",
               "core.validate_morphism", "core.search_isomorphism",
               "actions.validate_action", "presented.smith_normal_form")


def _public_functions(module):
    return tuple(name for name, value in vars(module).items()
                 if inspect.isfunction(value) and not name.startswith("_")
                 and value.__module__ == module.__name__)


def _targets():
    """(module, function name, span name) for every spanned function."""
    mods = {name: importlib.import_module(f"groupoids.{name}")
            for name in (*SPANNED, "oracle", "suite", "corpus")}
    out = [(mods[layer], fn, f"{layer}.{fn}")
           for layer, fns in SPANNED.items() for fn in fns]
    out += [(mods["oracle"], fn, f"oracle.{fn}")
            for fn in _public_functions(mods["oracle"])]
    out += [(mods["suite"], fn, f"suite.{fn}") for fn in SUITE_CHECKS]
    out += [(mods["corpus"], fn, f"corpus.{fn}")
            for fn in _public_functions(mods["corpus"])]
    return out


class Tracer:
    """Spans and counters of one job."""

    def __init__(self, job_id):
        self.job_id = job_id
        # (job id, span id, parent span id or -1, name, start ns, end ns)
        self.spans = []
        self.counters = {}
        self._stack = []
        self._next_id = 0
        self._excluded_ns = 0    # time spent computing counters
        self._saved = []
        self._size_caps = set()

    def now(self):
        return time.perf_counter_ns() - self._excluded_ns

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        count_calls = name in CALL_COUNTS or name.startswith("corpus.")
        size_cap_error = importlib.import_module("groupoids.core").SizeCapError
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span)
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            except size_cap_error as exc:
                tracer._size_caps.add(id(exc))
                raise
            finally:
                end = tracer.now()
                tracer._stack.pop()
                tracer.spans.append((tracer.job_id, span, parent, name,
                                     start, end))
            if counter is not None or count_calls:
                began = time.perf_counter_ns()
                if count_calls:
                    tracer.add(("corpus.build" if name.startswith("corpus.")
                                else name) + ".calls", 1)
                if counter is not None:
                    counter(tracer.add, args, kwargs, result)
                tracer._excluded_ns += time.perf_counter_ns() - began
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Rebind every spanned function wherever a groupoids module holds
        it; returns self so that ``uninstall`` can follow."""
        wrappers = {}            # id(original) -> wrapper
        for module, fn_name, span_name in _targets():
            original = getattr(module, fn_name)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, span_name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "groupoids" and not mod_name.startswith(
                    "groupoids."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    replacement = wrappers[id(value)]
                elif isinstance(value, tuple) and any(
                        id(v) in wrappers for v in value):
                    replacement = tuple(wrappers.get(id(v), v)
                                        for v in value)
                else:
                    continue
                self._saved.append((module, attr, value))
                setattr(module, attr, replacement)
        return self

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def layer_metrics(self):
        """Per-layer self and total seconds plus counters for this job."""
        child_ns = {}
        names = {}
        for _job, span, parent, name, start, end in self.spans:
            names[span] = name
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self_s = {}
        total_s = {}
        for _job, span, _parent, name, start, end in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (
                end - start - child_ns.get(span, 0)) / 1e9
            total_s[name] = total_s.get(name, 0.0) + (end - start) / 1e9
        out = {key: 0.0 for key, (unit, _b) in METRICS.items()
               if unit == "s"}
        for name, value in self_s.items():
            layer = name.split(".", 1)[0]
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += value
            if name in PREDICATES:
                out["core.predicates.self_s"] += value
            if layer == "oracle":
                out["oracle.self_s"] += value
        for check in SUITE_CHECKS:
            out[f"suite.{check}.total_s"] = total_s.get(f"suite.{check}", 0.0)
        # corpus builders: inclusive time of the outermost builder calls
        parent_of = {span: parent for _job, span, parent, *_ in self.spans}
        for _job, span, parent, name, start, end in self.spans:
            if name.startswith("corpus.") and not any(
                    names.get(p, "").startswith("corpus.")
                    for p in _ancestors(parent, parent_of)):
                out["corpus.build.s"] += (end - start) / 1e9
        counters = dict(self.counters)
        counters["errors.size_cap.count"] = len(self._size_caps)
        return out, counters


def _ancestors(span, parent_of):
    while span != -1:
        yield span
        span = parent_of[span]


def combine(jobs):
    """Per-job means of the per-layer metrics over traced jobs.

    jobs is a list of (seconds dict, counters dict) from layer_metrics.
    Ratios are quotients of the summed counters.
    """
    count = max(len(jobs), 1)
    sums = {}
    for seconds, counters in jobs:
        for key, value in (*seconds.items(), *counters.items()):
            sums[key] = sums.get(key, 0) + value
    out = {}
    for key, (unit, _better) in METRICS.items():
        if key in RATIOS:
            top, bottom = RATIOS[key]
            out[key] = sums.get(top, 0) / sums[bottom] \
                if sums.get(bottom) else 0.0
        elif key != "trace.slowdown":
            out[key] = sums.get(key, 0) / count
    return out
