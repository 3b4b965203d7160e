"""Boundary tracer: per-layer spans and counters for shearfield.

`install` rebinds, in each importing module's namespace, every function one
shearfield module imports from another (so `fields.farey_order` and
`torus.delta_weight` become spans while calls inside a module stay plain),
and wraps the few methods that cross layers.  A span belongs to the layer
of the module that defines the callee.  Its self time is its duration minus
the durations of the spans it encloses.  Everything lives in memory and is
read out with `snapshot` after each pass.

A layer's total time is the time spent inside its outermost spans, the
layers they call included.

`layer_metrics` turns a snapshot into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("farey", "moebius", "fields", "hilbert", "fourier", "torus", "cli")
ORACLE = "hilbert.hilbert_pv_oracle"


def _point_key(p):
    return (getattr(p, "num", p), getattr(p, "den", None))


def _edge_key(e):
    return tuple(sorted((_point_key(e.initial), _point_key(e.terminal))))


class Tracer:
    def __init__(self):
        # installed wrappers hold these containers; reset clears in place
        self._stack = []                    # child time of each open span
        self._active = defaultdict(int)     # span key -> open count
        self._open = defaultdict(int)       # layer -> open count
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)   # inclusive, per span key
        self.self_s = defaultdict(float)
        self.layer_total_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.counts = defaultdict(int)      # named counters
        self._terms = set()
        self._lifts = set()

    def reset(self):
        for table in (self.calls, self.total_s, self.self_s,
                      self.layer_total_s, self.raised, self.counts,
                      self._terms, self._lifts):
            table.clear()

    def end_job(self):
        """Fold the per-job distinct sets into counters (each CLI job is
        its own process, so distinctness is per job)."""
        self.counts["terms_distinct"] += len(self._terms)
        self.counts["lifts_distinct"] += len(self._lifts)
        self._terms.clear()
        self._lifts.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "raised": dict(self.raised),
                "layer_total_s": dict(self.layer_total_s),
                "counts": dict(self.counts)}

    def span(self, key: str, fn, hook=None):
        stack, active, open_ = self._stack, self._active, self._open
        layer = key.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[key] += 1
            open_[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            except BaseException:
                self.raised[key] += 1
                raise
            finally:
                dur = perf_counter() - t0
                active[key] -= 1
                open_[layer] -= 1
                if not open_[layer]:
                    self.layer_total_s[layer] += dur
                child = stack.pop()
                self.calls[key] += 1
                self.total_s[key] += dur
                self.self_s[key] += dur - child
                if stack:
                    stack[-1] += dur
        return wrapper

    # hooks: counters measured where the work happens

    def _on_tip_field(self, args, field):
        tip = _point_key(args[0])
        self.counts["terms_built"] += len(field.terms)
        self._terms.update((tip, c, d) for c, d in field.terms)

    def _on_point_eval(self, args, value):
        if self._active[ORACLE]:
            self.counts["oracle_point_evals"] += 1

    def _on_weight(self, args, value):
        edge = args[0]
        if hasattr(edge, "initial"):
            self._lifts.add(_edge_key(edge))

    def _count_walks(self, fn):
        @functools.wraps(fn)
        def walks(*args, **kwargs):
            self.counts["walks"] += 1
            return fn(*args, **kwargs)
        return walks

    def _parse_span(self, build_parser):
        span = functools.partial(self.span, "cli.parse")

        @functools.wraps(build_parser)
        def build():
            ap = span(build_parser)()
            ap.parse_args = span(ap.parse_args)
            return ap
        return build


def install(tracer: Tracer) -> None:
    """Instrument the imported shearfield package in place."""
    from shearfield import cli, farey, fields, fourier, hilbert, moebius, torus
    modules = {m.__name__: m for m in
               (farey, moebius, fields, hilbert, fourier, torus, cli)}
    hooks = {"fields.tip_field": tracer._on_tip_field,
             "hilbert.delta_weight": tracer._on_weight}
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            owner = getattr(obj, "__module__", None)
            if (inspect.isfunction(obj) and owner in modules
                    and owner != mod.__name__):
                key = f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"
                setattr(mod, name, tracer.span(key, obj, hooks.get(key)))
    for cls, meth, layer, hook in (
            (fields.FieldExpr, "__call__", "fields", tracer._on_point_eval),
            (fields.ShearFunction, "edges", "fields", None),
            (farey.IntegerMoebius, "compose", "farey", None),
            (farey.IntegerMoebius, "map_edge", "farey", None)):
        key = f"{layer}.{cls.__name__}.{meth}"
        setattr(cls, meth, tracer.span(key, getattr(cls, meth), hook))
    # the word-ball walk is private to torus; it is counted, not timed
    if hasattr(torus, "_reduced_words"):
        torus._reduced_words = tracer._count_walks(torus._reduced_words)
    cli.build_parser = tracer._parse_span(cli.build_parser)
    cli.run = tracer.span("cli.run", cli.run)


PER_LAYER = (
    # name, unit, better
    ("cli.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("setup.scipy_s", "s", "lower"),
    ("setup.numpy_s", "s", "lower"),
    ("setup.shearfield_s", "s", "lower"),
    ("farey.calls", "count", "lower"),
    ("farey.self_s", "s", "lower"),
    ("farey.order_calls", "count", "lower"),
    ("farey.order_s", "s", "lower"),
    ("moebius.calls", "count", "lower"),
    ("moebius.self_s", "s", "lower"),
    ("fields.calls", "count", "lower"),
    ("fields.self_s", "s", "lower"),
    ("fields.total_s", "s", "lower"),
    ("fields.edges_calls", "count", "lower"),
    ("fields.tip_field_calls", "count", "lower"),
    ("fields.terms_built", "count", "lower"),
    ("fields.term_reuse", "ratio", "higher"),
    ("fields.point_evals", "count", "lower"),
    ("hilbert.calls", "count", "lower"),
    ("hilbert.self_s", "s", "lower"),
    ("hilbert.total_s", "s", "lower"),
    ("hilbert.closed_evals", "count", "lower"),
    ("hilbert.weight_calls", "count", "lower"),
    ("hilbert.weight_s", "s", "lower"),
    ("hilbert.oracle_calls", "count", "lower"),
    ("hilbert.oracle_s", "s", "lower"),
    ("hilbert.oracle_point_evals", "count/call", "lower"),
    ("hilbert.oracle_failed", "count", "lower"),
    ("fourier.calls", "count", "lower"),
    ("fourier.self_s", "s", "lower"),
    ("fourier.total_s", "s", "lower"),
    ("fourier.closed_evals", "count", "lower"),
    ("torus.calls", "count", "lower"),
    ("torus.self_s", "s", "lower"),
    ("torus.total_s", "s", "lower"),
    ("torus.walks", "count", "lower"),
    ("torus.lifts_distinct", "count", "lower"),
    ("torus.weight_per_lift", "ratio", "lower"),
    ("trace.compute_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _by_layer(table: dict, layer: str):
    return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics of one traced pass (all but setup.* and trace.*)."""
    calls, total, own = snap["calls"], snap["total_s"], snap["self_s"]
    counts = snap["counts"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = _by_layer(calls, layer)
        m[f"{layer}.self_s"] = _by_layer(own, layer)
    del m["cli.calls"]
    for layer in ("fields", "hilbert", "fourier", "torus"):
        m[f"{layer}.total_s"] = snap["layer_total_s"].get(layer, 0.0)
    m["cli.parse_s"] = total.get("cli.parse", 0.0)
    m["farey.order_calls"] = calls.get("farey.farey_order", 0)
    m["farey.order_s"] = total.get("farey.farey_order", 0.0)
    m["fields.edges_calls"] = calls.get("fields.ShearFunction.edges", 0)
    m["fields.tip_field_calls"] = calls.get("fields.tip_field", 0)
    m["fields.terms_built"] = counts.get("terms_built", 0)
    m["fields.term_reuse"] = (counts.get("terms_distinct", 0)
                              / max(counts.get("terms_built", 0), 1))
    m["fields.point_evals"] = calls.get("fields.FieldExpr.__call__", 0)
    m["hilbert.closed_evals"] = calls.get("hilbert.hilbert_series_eval", 0)
    m["hilbert.weight_calls"] = calls.get("hilbert.delta_weight", 0)
    m["hilbert.weight_s"] = total.get("hilbert.delta_weight", 0.0)
    oracle_calls = calls.get(ORACLE, 0)
    m["hilbert.oracle_calls"] = oracle_calls
    m["hilbert.oracle_s"] = total.get(ORACLE, 0.0)
    m["hilbert.oracle_point_evals"] = (counts.get("oracle_point_evals", 0)
                                       / max(oracle_calls, 1))
    m["hilbert.oracle_failed"] = snap["raised"].get(ORACLE, 0)
    m["fourier.closed_evals"] = calls.get("fourier.field_fourier", 0)
    m["torus.walks"] = counts.get("walks", 0)
    m["torus.lifts_distinct"] = counts.get("lifts_distinct", 0)
    m["torus.weight_per_lift"] = (m["hilbert.weight_calls"]
                                  / max(m["torus.lifts_distinct"], 1))
    return m
