"""Spans around calls into commagraph's layers, set from outside the library.

Each traced entry point is wrapped in place: module functions in every
``commagraph`` module that bound the same object (``verify`` and ``comma``
import names with ``from .groups import ...``), methods on their class.
Spans live in memory, aggregated per (layer, parent layer) as a call count,
total time and child time, plus per-call size buckets for growth exponents;
nothing is written until the run ends.  A call into a layer made from
inside the same layer (``is_identity`` -> ``cancel_fixpoint``) belongs to
the outer span.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
from time import perf_counter_ns


def _arg_len(i):
    return lambda args, result: len(args[i])


# (layer, module, attribute, size of the call or None, count taken from the
# result or None).  Sizes are letters for words, elements for groups.  The
# word engine is timed at the _RaagEngine methods that every raag_* function
# and verify.check_word_differential go through; the word checks and letter
# encoding of the raag_* functions count to their caller's self time.
TARGETS = (
    ("cli", "commagraph.cli", "main", None, None),
    ("verify", "commagraph.verify", "run_suite", None, lambda r: r.cases_checked),
    ("comma.object_eq", "commagraph.comma", "CommaObject.__eq__", None, None),
    ("comma.morphism_eq", "commagraph.comma", "CommaMorphism.__eq__", None, lambda r: r is True),
    ("comma.compose", "commagraph.comma", "compose_comma", None, None),
    ("comma.enumerate", "commagraph.comma", "enumerate_morphisms_from_embedded_graph", None, len),
    ("comma.coreflect", "commagraph.comma", "coreflect", None, None),
    ("groups.engine", "commagraph.groups", "_RaagEngine.is_identity", _arg_len(1), None),
    ("groups.engine", "commagraph.groups", "_RaagEngine.cancel_fixpoint", _arg_len(1), None),
    ("groups.normal_form", "commagraph.groups", "_RaagEngine.lex_normal", _arg_len(1), None),
    ("groups.oracle", "commagraph.groups", "_RaagEngine.oracle_is_identity", _arg_len(1), None),
    ("groups.finite", "commagraph.groups", "finite_group_from_table", _arg_len(0), None),
    ("groups.closure", "commagraph.groups", "finite_group_from_permutations", lambda a, r: len(r.elements), None),
    ("groups.commutation", "commagraph.groups", "commutation_graph", lambda a, r: len(a[0].elements), None),
    ("groups.homs", "commagraph.groups", "enumerate_homs_raag_to_finite", None, len),
    ("groups.homs", "commagraph.groups", "enumerate_homs_finite_to_finite", None, len),
    ("graphs.homs", "commagraph.graphs", "enumerate_graph_homs", None, len),
)


class Tracer:
    """In-memory span aggregates for one traced run."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, child_ns] of each open span
        self.spans: dict[tuple[str, str | None], list[int]] = {}  # calls, total_ns, child_ns
        self.counted: dict[str, int] = {}
        self.buckets: dict[tuple[str, int], list[int]] = {}  # calls, size, self_ns
        self.missing: dict[str, list[str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counted.clear()
        self.buckets.clear()

    def install(self) -> None:
        """Wrap every target that exists; record the others as missing."""
        for layer, module_name, attribute, size, count in TARGETS:
            owner, name = _resolve(module_name, attribute)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.setdefault(layer, []).append(f"{module_name}.{attribute}")
                continue
            wrapped = self._wrap(layer, original, size, count)
            if isinstance(owner, type):
                self._patch(owner, name, wrapped)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("commagraph"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer, fn, size, count):
        stack, spans, counted, buckets = self.stack, self.spans, self.counted, self.buckets

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += elapsed
                entry = spans.get((layer, parent))
                if entry is None:
                    entry = spans[(layer, parent)] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
            if count is not None:
                counted[layer] = counted.get(layer, 0) + count(result)
            if size is not None:
                try:
                    n = size(args, result)
                except (TypeError, AttributeError, IndexError):
                    return result  # a caller passed a shape the size rule does not know
                bucket = buckets.get((layer, n.bit_length()))
                if bucket is None:
                    bucket = buckets[(layer, n.bit_length())] = [0, 0, 0]
                bucket[0] += 1
                bucket[1] += n
                bucket[2] += elapsed - frame[1]
            return result

        return traced

    # -- summaries ----------------------------------------------------------

    def calls(self, layer: str) -> int:
        return sum(e[0] for (name, _), e in self.spans.items() if name == layer)

    def self_s(self, layer: str) -> float:
        return sum(e[1] - e[2] for (name, _), e in self.spans.items() if name == layer) / 1e9

    def size(self, layer: str) -> int:
        return sum(b[1] for (name, _), b in self.buckets.items() if name == layer)

    def exponent(self, layer: str) -> float:
        """Least-squares slope of log mean self time against log mean size,
        over the power-of-two size buckets with at least one letter or
        element; 0.0 when fewer than two buckets were seen."""
        points = [
            (math.log(b[1] / b[0]), math.log(max(b[2], 1) / b[0]))
            for (name, _), b in self.buckets.items()
            if name == layer and b[1] > 0
        ]
        if len(points) < 2:
            return 0.0
        return statistics.linear_regression(*zip(*points)).slope

    def table(self) -> list[dict]:
        return [
            {
                "layer": layer,
                "parent": parent,
                "calls": e[0],
                "total_s": e[1] / 1e9,
                "self_s": (e[1] - e[2]) / 1e9,
            }
            for (layer, parent), e in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]


def _resolve(module_name: str, attribute: str):
    """(object holding the attribute, attribute name), or (None, name)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attribute
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    return owner, name


# Per-layer metrics: name -> (unit, the layers it is read from).
LAYER_METRICS = {
    "cli.self_s": ("s", ("cli",)),
    "cli.output_bytes": ("bytes", ("cli",)),
    "verify.self_s": ("s", ("verify",)),
    "verify.cases": ("count", ("verify",)),
    "comma.object_eq.calls": ("count", ("comma.object_eq",)),
    "comma.object_eq.s": ("s", ("comma.object_eq",)),
    "comma.morphism_eq.calls": ("count", ("comma.morphism_eq",)),
    "comma.morphism_eq.hit_ratio": ("1", ("comma.morphism_eq",)),
    "comma.compose.calls": ("count", ("comma.compose",)),
    "comma.compose.s": ("s", ("comma.compose",)),
    "comma.enumerate.s": ("s", ("comma.enumerate",)),
    "comma.enumerate.yielded": ("count", ("comma.enumerate",)),
    "comma.coreflect.s": ("s", ("comma.coreflect",)),
    "groups.engine.calls": ("count", ("groups.engine",)),
    "groups.engine.letters": ("count", ("groups.engine",)),
    "groups.engine.s": ("s", ("groups.engine",)),
    "groups.engine.ns_per_letter": ("ns", ("groups.engine",)),
    "groups.engine.exponent": ("1", ("groups.engine",)),
    "groups.normal_form.calls": ("count", ("groups.normal_form",)),
    "groups.normal_form.letters": ("count", ("groups.normal_form",)),
    "groups.normal_form.s": ("s", ("groups.normal_form",)),
    "groups.normal_form.exponent": ("1", ("groups.normal_form",)),
    "groups.oracle.calls": ("count", ("groups.oracle",)),
    "groups.oracle.s": ("s", ("groups.oracle",)),
    "groups.oracle.share": ("1", ("groups.oracle",)),
    "groups.finite.calls": ("count", ("groups.finite",)),
    "groups.finite.s": ("s", ("groups.finite",)),
    "groups.finite.exponent": ("1", ("groups.finite",)),
    "groups.closure.s": ("s", ("groups.closure",)),
    "groups.commutation.s": ("s", ("groups.commutation",)),
    "groups.homs.calls": ("count", ("groups.homs",)),
    "groups.homs.yielded": ("count", ("groups.homs",)),
    "groups.homs.s": ("s", ("groups.homs",)),
    "graphs.homs.calls": ("count", ("graphs.homs",)),
    "graphs.homs.yielded": ("count", ("graphs.homs",)),
    "graphs.homs.s": ("s", ("graphs.homs",)),
    "trace.overhead": ("1", ()),
}


def layer_metrics(tracer: Tracer, wall_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced repetition of the op list."""
    t = tracer
    letters = t.size("groups.engine")
    morphism_eqs = t.calls("comma.morphism_eq")
    return {
        "cli.self_s": t.self_s("cli"),
        "cli.output_bytes": output_bytes,
        "verify.self_s": t.self_s("verify"),
        "verify.cases": t.counted.get("verify", 0),
        "comma.object_eq.calls": t.calls("comma.object_eq"),
        "comma.object_eq.s": t.self_s("comma.object_eq"),
        "comma.morphism_eq.calls": morphism_eqs,
        "comma.morphism_eq.hit_ratio": t.counted.get("comma.morphism_eq", 0) / morphism_eqs if morphism_eqs else 0.0,
        "comma.compose.calls": t.calls("comma.compose"),
        "comma.compose.s": t.self_s("comma.compose"),
        "comma.enumerate.s": t.self_s("comma.enumerate"),
        "comma.enumerate.yielded": t.counted.get("comma.enumerate", 0),
        "comma.coreflect.s": t.self_s("comma.coreflect"),
        "groups.engine.calls": t.calls("groups.engine"),
        "groups.engine.letters": letters,
        "groups.engine.s": t.self_s("groups.engine"),
        "groups.engine.ns_per_letter": t.self_s("groups.engine") * 1e9 / letters if letters else 0.0,
        "groups.engine.exponent": t.exponent("groups.engine"),
        "groups.normal_form.calls": t.calls("groups.normal_form"),
        "groups.normal_form.letters": t.size("groups.normal_form"),
        "groups.normal_form.s": t.self_s("groups.normal_form"),
        "groups.normal_form.exponent": t.exponent("groups.normal_form"),
        "groups.oracle.calls": t.calls("groups.oracle"),
        "groups.oracle.s": t.self_s("groups.oracle"),
        "groups.oracle.share": t.self_s("groups.oracle") / wall_s,
        "groups.finite.calls": t.calls("groups.finite"),
        "groups.finite.s": t.self_s("groups.finite"),
        "groups.finite.exponent": t.exponent("groups.finite"),
        "groups.closure.s": t.self_s("groups.closure"),
        "groups.commutation.s": t.self_s("groups.commutation"),
        "groups.homs.calls": t.calls("groups.homs"),
        "groups.homs.yielded": t.counted.get("groups.homs", 0),
        "groups.homs.s": t.self_s("groups.homs"),
        "graphs.homs.calls": t.calls("graphs.homs"),
        "graphs.homs.yielded": t.counted.get("graphs.homs", 0),
        "graphs.homs.s": t.self_s("graphs.homs"),
    }
