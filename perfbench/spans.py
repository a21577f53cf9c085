"""Span recorder for the traced run, installed from outside the package.

``instrument`` wraps public functions and constructors of ``cocycle_lab``
at every name where callers look them up (``suites``, ``cli`` and
``zcocycles`` import by name, so patching only the defining module would
miss their calls).  Each call becomes an in-memory span with its parent;
the spans are written as JSON lines when the run ends, and per-layer
busy and self times are derived from the parent/child structure.

Only boundaries called at most ~1e5 times per run become spans.  Measure
masses are called far more often, so ``mass`` is *counted*: its calls,
busy time and distinct (measure, prefix) pairs are accumulated, and its
time is charged to the enclosing span as child time without a span of
its own.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

LAYERS = ("values", "space", "dynamics", "zcocycles", "involution_cocycles",
          "sampling", "suites", "cli")

# (defining module, function, span name)
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("suites", "run", "suites.run"),
    ("sampling", "cylinder_function", "sampling.cylinder_function"),
    ("sampling", "small_integer_function", "sampling.small_integer_function"),
    ("sampling", "coboundary_generator", "sampling.coboundary_generator"),
    ("sampling", "invariant_family", "sampling.invariant_family"),
    ("sampling", "bernoulli_measure", "sampling.bernoulli_measure"),
    ("space", "tau3_functional", "space.tau3"),
    ("space", "tau4_functional", "space.tau4"),
    ("space", "measure_of_cylinder_set", "space.measure_of_cylinder_set"),
    ("space", "exceedance_prefixes", "space.exceedance_prefixes"),
    ("dynamics", "towers_from_marker", "dynamics.towers_from_marker"),
    ("dynamics", "periodic_approx", "dynamics.periodic_approx"),
    ("zcocycles", "density_table", "zcocycles.density_table"),
    ("zcocycles", "density_sequence", "zcocycles.density_sequence"),
    ("zcocycles", "periodic_coboundary", "zcocycles.periodic_coboundary"),
    ("zcocycles", "coboundary_solve", "zcocycles.coboundary_solve"),
    ("zcocycles", "gh_check", "zcocycles.gh_check"),
    ("involution_cocycles", "verify_identities", "involution_cocycles.verify_identities"),
    ("involution_cocycles", "recover_generators", "involution_cocycles.recover_generators"),
    ("involution_cocycles", "h_approximate", "involution_cocycles.h_approximate"),
)

# (defining module, class, method, span name); __post_init__ is where a
# dataclass constructor validates, so it stands for construction.
METHODS = (
    ("space", "CylinderFunction", "__post_init__", "space.cylinder_function"),
    ("involution_cocycles", "GeneratorFamily", "__post_init__",
     "involution_cocycles.generator_family"),
    ("suites", "Report", "render", "suites.render"),
)

MEASURE_CLASSES = ("BernoulliMeasure", "MarkovMeasure", "DiracMeasure", "MixtureMeasure")


def _cylinder_attrs(args, kwargs, result):
    return {"entries": len(args[0].table)}


def _gh_attrs(args, kwargs, result):
    h = args[0]
    model = getattr(h, "model", None) or kwargs.get("model")
    size = model.size if model is not None else len(h.table)
    radii = min(result.horizon, size - 1) + 1 if result.decision else result.horizon + 1
    return {"pairs": size * radii, "coboundary": int(result.decision)}


def _render_attrs(args, kwargs, result):
    return {"bytes": len(result)}


ATTRS = {
    "space.cylinder_function": _cylinder_attrs,
    "zcocycles.gh_check": _gh_attrs,
    "suites.render": _render_attrs,
}


class Recorder:
    """In-memory spans, plus the counted (span-less) measure masses."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans = []  # (id, parent, name, start, end, counted_s, attrs)
        self.stack = []  # frames [span id or None, counted child seconds]
        self.mass_calls = 0
        self.mass_busy = 0.0  # outermost mass calls only (mixtures nest)
        self.mass_depth = 0
        self.pairs = set()  # distinct (measure id, prefix) pairs seen by mass
        self.keep = {}  # id -> measure, so ids stay unique during the run

    def span(self, name, fn):
        after = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next((f[0] for f in reversed(self.stack) if f[0] is not None), None)
            frame = [len(self.spans), 0.0]
            self.spans.append(None)  # reserve the id; filled on exit
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[frame[0]] = (
                    frame[0], parent, name, start - self.origin, end - self.origin,
                    frame[1], None,
                )
            if after:
                self.spans[frame[0]] = self.spans[frame[0]][:6] + (after(args, kwargs, result),)
            return result

        return wrapper

    def mass(self, fn):
        @functools.wraps(fn)
        def wrapper(measure, x):
            key = id(measure)
            self.keep[key] = measure
            self.pairs.add((key, tuple(x)))
            self.mass_depth += 1
            self.stack.append([None, 0.0])
            start = perf_counter()
            try:
                return fn(measure, x)
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                self.mass_depth -= 1
                self.mass_calls += 1
                if self.mass_depth == 0:
                    self.mass_busy += elapsed
                if self.stack:
                    self.stack[-1][1] += elapsed

        return wrapper

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, counted_s, attrs in self.spans:
                record = {"id": sid, "parent": parent, "name": name,
                          "start": start, "end": end, "counted_s": counted_s}
                record.update(attrs or {})
                fh.write(json.dumps(record) + "\n")


def instrument(package, recorder: Recorder):
    """Wrap the boundaries listed above; returns a function that undoes it."""
    modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for module_name, attr, name in FUNCTIONS:
        original = getattr(modules[module_name], attr)
        wrapped = recorder.span(name, original)
        for module in [package, *modules.values()]:
            for alias, value in list(module.__dict__.items()):
                if value is original:
                    patch(module, alias, wrapped)
    for module_name, cls_name, attr, name in METHODS:
        cls = getattr(modules[module_name], cls_name)
        patch(cls, attr, recorder.span(name, cls.__dict__[attr]))
    for cls_name in MEASURE_CLASSES:
        cls = getattr(modules["space"], cls_name)
        patch(cls, "mass", recorder.mass(cls.__dict__["mass"]))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(recorder: Recorder) -> dict:
    """Per-name calls, busy and self seconds, and attribute sums.

    busy counts only spans with no ancestor of the same name (so nested
    calls are not counted twice); self is a span's duration minus its
    child spans and counted child time.  Layer totals use the same rule
    with "same layer" in place of "same name".
    """
    spans = recorder.spans
    child_s = [0.0] * len(spans)
    for sid, parent, name, start, end, counted_s, attrs in spans:
        if parent is not None:
            child_s[parent] += end - start

    def has_ancestor(sid, same):
        parent = spans[sid][1]
        while parent is not None:
            if same(spans[parent][2]):
                return True
            parent = spans[parent][1]
        return False

    names, layers = {}, {}
    for sid, parent, name, start, end, counted_s, attrs in spans:
        dur = end - start
        stat = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        stat["calls"] += 1
        stat["self_s"] += dur - child_s[sid] - counted_s
        if not has_ancestor(sid, lambda other: other == name):
            stat["busy_s"] += dur
        for key, value in (attrs or {}).items():
            stat[key] = stat.get(key, 0) + value
        layer = layers.setdefault(_layer(name), {"busy_s": 0.0})
        if not has_ancestor(sid, lambda other: _layer(other) == _layer(name)):
            layer["busy_s"] += dur
    names["space.mass"] = {"calls": recorder.mass_calls, "busy_s": recorder.mass_busy,
                           "distinct": len(recorder.pairs)}
    return {"names": names, "layers": layers}
