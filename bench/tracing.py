"""Span tracing for the benchmark's traced runs, kept outside the program.

``install`` wraps nevlab's public entry points from here and rebinds each
wrapper in every nevlab module that holds the original: ``from ... import``
copies a name, so patching only the defining module would miss callers.
Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists and
reduced to per-layer metrics (and written out) when the run ends.  The stack
is a plain list: nevlab runs single-threaded here (``NEVLAB_THREADS`` unset).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# public functions wrapped wholesale, per module
WHOLE_MODULES = ("nevanlinna", "boundslab", "constructor")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.originals: dict[str, object] = {}  # span name -> wrapped function
        self.active = False
        self.panel_order = 0  # Gauss-Legendre nodes per half panel
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, note=None, enter=None):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(idx)
        state = enter() if enter else None
        span[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
            if note:
                note(span, args, out, state)
            return out
        except Exception as exc:
            span[4] = {"error": type(exc).__name__}
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, note=None, enter=None, prepare=None):
        """A stand-in for ``fn`` that records one span per call.

        ``prepare`` may rewrite the arguments (used to trace the integrand
        handed to the quadrature); ``enter`` runs before the call and its
        value reaches ``note``, which stores counts in the span's attrs.
        """
        self.originals[name] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare and self.active:
                args, kwargs = prepare(args, kwargs)
            return self.call(name, fn, args, kwargs, note, enter)

        return traced

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p, a] for n, s, e, p, a in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh, separators=(",", ":"))


def rebind(original, wrapper) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "nevlab" or modname.startswith("nevlab."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)


def _set(span, **attrs):
    span[4] = attrs


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer; call after nevlab is imported."""
    fnmodel = sys.modules["nevlab.fnmodel"]
    cache_info = fnmodel._divisor_cached.cache_info

    def patch(modname, fname, **hooks):
        mod = sys.modules["nevlab." + modname]
        original = getattr(mod, fname)
        rebind(original, tracer.wrap(f"{modname}.{fname}", original, **hooks))

    patch("fnmodel", "poly_roots",
          note=lambda sp, a, out, st: _set(sp, degree=a[0].degree))
    patch("fnmodel", "preimages_in_disc")

    def divisor_note(span, args, out, misses_before):
        misses = cache_info().misses - misses_before
        if misses:
            mult = abs(out.origin_order) + sum(abs(m) for _, m in out.entries)
            _set(span, misses=misses, mult=mult)

    divisor = fnmodel.FunctionExpr.divisor_in_disc
    fnmodel.FunctionExpr.divisor_in_disc = tracer.wrap(
        "fnmodel.divisor_in_disc", divisor, note=divisor_note,
        enter=lambda: cache_info().misses)

    def eval_note(span, args, out, st):
        _set(span, points=int(args[0].size))

    def traced_integrand(f):
        return lambda theta: tracer.call("fnmodel.eval", f, (theta,), {}, eval_note)

    def quad_prepare(args, kwargs):  # every caller passes the integrand first
        return (traced_integrand(args[0]),) + args[1:], kwargs

    patch("quadrature", "adaptive_circle", prepare=quad_prepare,
          note=lambda sp, a, res, st: _set(sp, panels=res.panels,
                                           evaluations=res.evaluations))

    def proximity_note(span, args, sample, st):
        _set(span, nudged=int(sample.nudged))

    for modname in WHOLE_MODULES:
        mod = sys.modules["nevlab." + modname]
        for fname, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and not fname.startswith("_")
                    and fn.__module__ == mod.__name__):
                patch(modname, fname,
                      note=proximity_note if fname == "proximity" else None)

    patch("algmap", "invariance_census",
          note=lambda sp, a, reps, st: _set(
              sp, images=sum(r.n_points for r in reps),
              value_matched=sum(r.n_value_matched for r in reps)))
    if "nevlab.cli" in sys.modules:  # the library workload never loads it
        patch("cli", "main")
    tracer.panel_order = sys.modules["nevlab.quadrature"].PANEL_ORDER


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_hits: int, cache_misses: int) -> dict:
    """Per-layer counts and self times of one traced run.

    A span's self time is its duration minus its children's; a layer's is
    the sum over its spans.  ``root_yield`` divides the divisor multiplicity
    returned by cache misses that solved roots themselves by the number of
    roots those misses solved (the sum of ``poly_roots`` degrees).
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            child[parent] += e - s
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    sums: Counter = Counter()
    errors: Counter = Counter()
    # nearest enclosing divisor_in_disc span of each span, -1 if none
    div_parent = [-1] * len(spans)
    child_misses: Counter = Counter()
    direct_roots: Counter = Counter()
    for i, (name, s, e, parent, attrs) in enumerate(spans):
        own = (e - s) - child[i]
        self_by_name[name] += own
        self_by_layer[name.split(".")[0]] += own
        calls[name] += 1
        if parent >= 0:
            div_parent[i] = (parent if spans[parent][0] == "fnmodel.divisor_in_disc"
                             else div_parent[parent])
        if not attrs:
            continue
        if "error" in attrs:
            errors[name] += 1
        for key, val in attrs.items():
            if key != "error":
                sums[name, key] += val
        d = div_parent[i]
        if d >= 0 and name == "fnmodel.divisor_in_disc":
            child_misses[d] += attrs.get("misses", 0)
        if d >= 0 and name == "fnmodel.poly_roots":
            direct_roots[d] += attrs.get("degree", 0)
    kept = solved = 0
    for d, roots in direct_roots.items():
        attrs = spans[d][4] or {}
        if attrs.get("misses", 0) - child_misses[d] > 0:
            kept += attrs["mult"]
            solved += roots
    quad = "quadrature.adaptive_circle"
    return {
        "fnmodel.poly_roots_calls": calls["fnmodel.poly_roots"],
        "fnmodel.poly_roots_mean_degree": _ratio(sums["fnmodel.poly_roots", "degree"],
                                                 calls["fnmodel.poly_roots"]),
        "fnmodel.poly_roots_self_s": self_by_name["fnmodel.poly_roots"],
        "fnmodel.poly_roots_failures": errors["fnmodel.poly_roots"],
        "fnmodel.divisor_calls": calls["fnmodel.divisor_in_disc"],
        "fnmodel.divisor_self_s": self_by_name["fnmodel.divisor_in_disc"],
        "fnmodel.divisor_cache_hits": cache_hits,
        "fnmodel.divisor_cache_misses": cache_misses,
        "fnmodel.root_yield": _ratio(kept, solved),
        "fnmodel.preimage_calls": calls["fnmodel.preimages_in_disc"],
        "fnmodel.preimage_self_s": self_by_name["fnmodel.preimages_in_disc"],
        "fnmodel.eval_s": self_by_name["fnmodel.eval"],
        "fnmodel.eval_points": sums["fnmodel.eval", "points"],
        "quadrature.calls": calls[quad],
        "quadrature.panels": sums[quad, "panels"],
        "quadrature.evaluations": sums[quad, "evaluations"],
        "quadrature.self_s": self_by_layer["quadrature"],
        "quadrature.failures": errors[quad],
        "quadrature.node_yield": _ratio(2 * tracer.panel_order * sums[quad, "panels"],
                                        sums[quad, "evaluations"]),
        "nevanlinna.samples": calls["nevanlinna.proximity"] - errors["nevanlinna.proximity"],
        "nevanlinna.contour_counts": calls["nevanlinna.argument_principle_count"],
        "nevanlinna.nudged": sums["nevanlinna.proximity", "nudged"],
        "nevanlinna.self_s": self_by_layer["nevanlinna"],
        "boundslab.self_s": self_by_layer["boundslab"],
        "algmap.census_self_s": self_by_name["algmap.invariance_census"],
        "algmap.images": sums["algmap.invariance_census", "images"],
        "algmap.value_matched": sums["algmap.invariance_census", "value_matched"],
        "constructor.corpus_calls": calls["constructor.corpus"],
        "constructor.self_s": self_by_layer["constructor"],
        "cli.self_s": self_by_layer["cli"],
    }
