"""Outside-in span tracer for hawkesq.

The tracer changes no library file.  It wraps every public function and
every public method (plus ``__init__`` and ``__call__``) defined in the
layer modules, then rebinds each module attribute, package attribute and
module-level registry entry (``simulate._ENGINES``, ``cli._COMMANDS``) that
refers to a wrapped function.  A call made through any of those names
becomes a span; a span opened while another is open is its child.

Per span the tracer keeps, in memory:

* ``self``: duration minus the time covered by child spans;
* ``layer_time``: self time plus the layer time of children in the same
  layer, i.e. the time the span's own layer spent on its behalf;
* counts taken from arguments and results by the hooks in ``COUNTERS``.

``summarize`` turns the span list into the per-layer metrics of
BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("kernels", "simulate", "covariance", "service", "queueing", "limits", "cli")


def _size(x) -> int:
    try:
        return int(getattr(x, "size", None) or len(x))
    except TypeError:
        return 1


def _events(path) -> int:
    return sum(int(seq.size) for seq in path.times)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _engine_counts(args, kwargs, result):
    sim = _arg(args, kwargs, 0, "sim")
    return {"reps": 1, "events": _events(result),
            "burn_in": float(sim.burn_in), "window": float(sim.horizon)}


def _gram_pairs(args, kwargs, result):
    model = _arg(args, kwargs, 0, "self")
    m = _size(_arg(args, kwargs, 1, "t_grid"))
    return {"pairs": m * (m + 1) // 2 if model.dim == 1 else m * m}


# Counts recorded at the boundary where the work happens, keyed by span name.
COUNTERS = {
    "simulate.simulate_cluster": _engine_counts,
    "simulate.simulate_thinning": _engine_counts,
    "simulate.write_paths_csv": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "covariance.solve_phi_grid": lambda a, k, r: {"unknowns": int(r.values.size)},
    "covariance.solve_multivariate_phi": lambda a, k, r: {"unknowns": int(r.values.size)},
    "queueing.steady_state_sample": lambda a, k, r: {"samples": int(r.n_samples)},
    "limits.LimitModel.gram": _gram_pairs,
}
_METHOD_COUNTERS = {
    # kernel evaluation points and offset draws; service draws
    "__call__": lambda a, k, r: {"points": _size(a[1])},
    "sample_offsets": lambda a, k, r: {"points": int(_arg(a, k, 2, "n"))},
    "sample": lambda a, k, r: {"draws": int(_arg(a, k, 2, "n"))},
}


class Tracer:
    """Holds the span list of one traced process."""

    def __init__(self):
        self.spans = []        # (id, parent, name, layer, start, duration, self, layer_time, counts)
        self._stack = []       # open frames: [id, layer, child_time, same_layer_time]
        self._next_id = 0

    def wrap(self, fn, name, layer, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, layer, 0.0, 0.0]
            tracer._stack.append(frame)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                self_time = duration - frame[2]
                layer_time = self_time + frame[3]
                if tracer._stack:
                    up = tracer._stack[-1]
                    up[2] += duration
                    if up[1] == layer:
                        up[3] += layer_time
                tracer.spans.append((span_id, parent, name, layer, start, duration,
                                     self_time, layer_time, counts))

        return traced

    def install(self):
        """Wrap the layer modules of the imported package in place."""
        package = importlib.import_module("hawkesq")
        modules = {layer: importlib.import_module(f"hawkesq.{layer}") for layer in LAYERS}
        replaced = {}           # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self.wrap(obj, name, layer, COUNTERS.get(name))
                    replaced[id(obj)] = wrapper
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]
        return self

    def _wrap_methods(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in ("__init__", "__call__")
            if not (public and inspect.isfunction(obj)):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            counter = COUNTERS.get(name)
            if counter is None and layer in ("kernels", "service"):
                counter = _METHOD_COUNTERS.get(attr)
            setattr(cls, attr, self.wrap(obj, name, layer, counter))

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _top_level(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if s[2] not in names:
            continue
        parent = s[1]
        while parent is not None and by_id[parent][2] not in names:
            parent = by_id[parent][1]
        if parent is None:
            out.append(s)
    return out


def _count(spans, key, names=None):
    return sum((s[8] or {}).get(key, 0) for s in spans if names is None or s[2] in names)


def summarize(spans, traced_wall):
    """Per-layer metrics of one traced workload pass.

    ``<layer>.self_s`` sums self time.  Times of named functions are span
    durations, except covariance.solve_s, covariance.post_s, limits.gram_s
    and limits.steady_s, which are layer times (kernel evaluation, for one,
    counts in kernels.self_s), and limits.sample_s, a self time (Cholesky
    and draws, without the Gram).  Nested spans of one metric count once.
    """
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s[6] for s in spans if s[3] == layer)

    def layer_time(names):
        return sum(s[7] for s in _top_level(spans, set(names)))

    def duration(names):
        return sum(s[5] for s in _top_level(spans, set(names)))

    kernels = [s for s in spans if s[3] == "kernels"]
    m["kernels.calls"] = len(kernels)
    m["kernels.points"] = _count(kernels, "points")

    # Engines: the span duration (kernel draws included) is the base of events/s.
    for engine in ("cluster", "thinning"):
        name = f"simulate.simulate_{engine}"
        t = duration([name])
        events = _count(spans, "events", {name})
        m[f"simulate.{engine}_s"] = t
        m[f"simulate.{engine}_reps"] = _count(spans, "reps", {name})
        m[f"simulate.{engine}_events"] = events
        m[f"simulate.{engine}_events_per_s"] = events / t if t > 0 else 0.0
    engines = {"simulate.simulate_cluster", "simulate.simulate_thinning"}
    burn, window = _count(spans, "burn_in", engines), _count(spans, "window", engines)
    m["simulate.burnin_frac"] = burn / (burn + window) if burn + window > 0 else 0.0
    m["simulate.rep_stream_s"] = duration(["simulate.rep_stream"])
    m["simulate.rep_stream_calls"] = sum(1 for s in spans if s[2] == "simulate.rep_stream")
    m["simulate.moments_s"] = duration(["simulate.empirical_moments"])
    m["simulate.write_s"] = duration(["simulate.write_paths_csv", "simulate.write_paths_binary"])
    m["simulate.write_mb"] = _count(spans, "bytes") / 1e6

    solves = {"covariance.solve_phi_grid", "covariance.solve_multivariate_phi"}
    m["covariance.solve_s"] = layer_time(solves)
    unknowns = [(s[8] or {}).get("unknowns", 0) for s in spans if s[2] in solves]
    m["covariance.unknowns"] = sum(unknowns)
    m["covariance.dense_mb"] = max(unknowns, default=0) ** 2 * 8 / 1e6
    m["covariance.post_s"] = layer_time([
        "covariance.variance_function", "covariance.limit_covariance_G",
        "covariance.asymptotic_offset", "covariance.laplace_pipeline"])

    m["service.sample_s"] = duration({s[2] for s in spans if s[2].startswith("service.")
                                      and s[2].endswith(".sample")})
    m["service.draws"] = _count(spans, "draws")

    m["queueing.samples"] = _count(spans, "samples")
    m["queueing.compare_s"] = duration(["queueing.compare_distributions"])

    m["limits.gram_s"] = layer_time(["limits.LimitModel.gram"])
    m["limits.gram_pairs"] = _count(spans, "pairs")
    m["limits.sample_s"] = sum(s[6] for s in spans if s[2] == "limits.sample_limit_path")
    m["limits.steady_s"] = layer_time([
        "limits.var_X_infty", "limits.var_xe_infty", "limits.steady_state_cov_multi",
        "limits.gaussian_queue_approx"])

    covered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.coverage_frac"] = covered / traced_wall if traced_wall > 0 else 0.0
    return m
