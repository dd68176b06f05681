"""Span tracing of one kdvgauge process, and the per-layer metrics it yields.

`Tracer.install` wraps, from outside the package, every public function
listed in the `__all__` of each kdvgauge module, plus the public methods
`CoefficientExpr.eval`, `.dx` and `.dt`.  Each call records a span
[name, start, end, parent] in memory; `Tracer.dump` writes the store when the
run ends.  A wrapper replaces the original wherever callers look it up: in
its own module, in every module that re-exported it (for example
`kdvgauge.gauge.interpolate` or `kdvgauge.experiments.solve`) and in the
package namespace.  Private names are never touched.

Counters are read at public boundaries only:
  * `numpy.fft` / `scipy.fft` transforms, counted with their points against
    the innermost open layer span;
  * `GaugeMap.a_of` calls made directly inside `invert_A` (Newton sweeps);
  * the steps of each `solve`, from its SolverConfig, monitor times and,
    for `dt = auto`, the value the public `auto_dt` returned inside it;
  * the distinct (grid pair, t) keys passed to `build_gauge_map`.

`layer_metrics` turns a dumped store into the per-layer metrics of the
benchmark; it needs no numpy and runs in the benchmark process.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "cli", "experiments", "solver", "spectral", "gauge", "coefficients",
    "dyadic", "expressions",
)
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_ND = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
# transforms whose output, not input, holds the real-space points
_C2R = ("irfft", "hfft")


def _product(shape):
    size = 1
    for d in shape:
        size *= d
    return size


def _count_steps(t_final, dt, monitor_times):
    """Steps `solve` takes: the same walk over monitor targets, without blow-up."""
    eps = 1e-12 * t_final
    targets = sorted({float(t) for t in (monitor_times if monitor_times is not None else ()) if t > 0})
    it = iter(targets)
    nxt = next(it, None)
    t, steps = 0.0, 0
    while t < t_final - eps:
        upper = t_final if nxt is None else min(nxt, t_final)
        t += min(dt, upper - t)
        steps += 1
        if nxt is not None and t >= nxt - eps:
            nxt = next(it, None)
    return steps


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # indices of open spans, innermost last
        self.fft = {layer: [0, 0] for layer in LAYERS}  # layer -> [calls, points]
        self.newton_a_of = 0
        self.solver_steps = 0
        self.interpolate_points = 0
        self.slice_keys = set()
        self._auto_dt = {}  # solve span index -> dt returned by auto_dt inside it

    # -- wrappers -----------------------------------------------------------

    def _innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def span(self, name, fn, after=None):
        """Wrap `fn` in a span; `after(index, bound_args, result)` runs once
        the span has closed."""
        sig = inspect.signature(fn) if after is not None else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(index, bound.arguments, result)
            return result

        return wrapper

    def fft_counter(self, name, fn):
        """Count calls and real-space points of one transform entry point
        against the innermost open layer."""
        from numpy import shape as np_shape

        def tally(points):
            entry = self.fft[self._innermost().split(".", 1)[0] or "cli"]
            entry[0] += 1
            entry[1] += points

        if name in FFT_ND:
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                tally(_product(np_shape(a)))
                return fn(a, *args, **kwargs)

            return wrapper

        @functools.wraps(fn)
        def wrapper(a, n=None, axis=-1, *args, **kwargs):
            shape = np_shape(a)
            along = shape[axis]
            if n is None:
                n = 2 * (along - 1) if name in _C2R else along
            tally(n * (_product(shape) // along if along else 0))
            return fn(a, n, axis, *args, **kwargs)

        return wrapper

    # -- hooks run after a span closes ------------------------------------------

    def _after_auto_dt(self, index, args, result):
        parent = self.spans[index][3]
        if parent >= 0 and self.spans[parent][0] == "solver.solve":
            self._auto_dt[parent] = float(result)

    def _after_solve(self, index, args, result):
        config = args["config"]
        dt = self._auto_dt.pop(index) if config.dt == "auto" else float(config.dt)
        self.solver_steps += _count_steps(config.t_final, dt, args["monitor_times"])

    def _after_interpolate(self, index, args, result):
        query = args["query_points"]
        self.interpolate_points += getattr(query, "size", 1) * args["state"].coefficients.size

    def _after_build_gauge_map(self, index, args, result):
        src, img = args["source_grid"], args["image_grid"]
        self.slice_keys.add((src.num_points, src.half_width, img.num_points,
                             img.half_width, round(float(args["t"]), 14)))

    # -- installation ---------------------------------------------------------

    def install(self):
        import importlib

        import numpy.fft

        hooks = {
            "solver.solve": self._after_solve,
            "solver.auto_dt": self._after_auto_dt,
            "spectral.interpolate": self._after_interpolate,
            "gauge.build_gauge_map": self._after_build_gauge_map,
        }
        package = importlib.import_module("kdvgauge")
        modules = {layer: importlib.import_module(f"kdvgauge.{layer}") for layer in LAYERS}
        fft_modules = [numpy.fft]
        if "scipy.fft" in sys.modules:
            fft_modules.append(sys.modules["scipy.fft"])

        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = (fn, self.span(name, fn, hooks.get(name)))
        for module in fft_modules:
            for attr in FFT_1D + FFT_ND:
                fn = getattr(module, attr, None)
                if fn is not None and id(fn) not in wrapped:
                    wrapped[id(fn)] = (fn, self.fft_counter(attr, fn))

        for module in (package, *modules.values(), *fft_modules):
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value and not attr.startswith("_"):
                    setattr(module, attr, hit[1])

        expr_cls = modules["expressions"].CoefficientExpr
        for method in ("eval", "dx", "dt"):
            setattr(expr_cls, method, self.span(f"expressions.{method}", getattr(expr_cls, method)))

        gauge_map_cls = modules["gauge"].GaugeMap
        a_of = gauge_map_cls.a_of

        @functools.wraps(a_of)
        def counted_a_of(gmap, points):
            if self._innermost() == "gauge.invert_A":
                self.newton_a_of += 1
            return a_of(gmap, points)

        gauge_map_cls.a_of = counted_a_of

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "fft": self.fft,
                    "newton_a_of": self.newton_a_of,
                    "solver_steps": self.solver_steps,
                    "interpolate_points": self.interpolate_points,
                    "distinct_slices": len(self.slice_keys),
                },
                fh,
            )


# -- analysis (benchmark process) ---------------------------------------------


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_totals(spans, own):
    """name -> [calls, inclusive seconds, self seconds]."""
    totals = {}
    for (name, start, end, _parent), span_self in zip(spans, own):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += span_self
    return totals


def layer_metrics(store, run_s):
    """Per-layer metrics of one traced run (name -> value)."""
    spans = store["spans"]
    own = self_times(spans)
    totals = span_totals(spans, own)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    m = {}
    steps = store["solver_steps"]
    m["solver.solve.calls"] = calls("solver.solve")
    m["solver.solve.self_s"] = self_s("solver.solve")
    m["solver.steps"] = steps
    m["solver.step_us"] = 1e6 * self_s("solver.solve") / steps if steps else 0.0
    m["solver.weak_residual.self_s"] = self_s("solver.weak_residual")
    m["solver.energy_monitor.self_s"] = self_s("solver.energy_monitor")

    m["spectral.interpolate.calls"] = calls("spectral.interpolate")
    m["spectral.interpolate.self_s"] = self_s("spectral.interpolate")
    m["spectral.interpolate.points"] = store["interpolate_points"]
    for layer in LAYERS:
        m[f"fft.calls.{layer}"] = store["fft"][layer][0]
        m[f"fft.points.{layer}"] = store["fft"][layer][1]

    built = calls("gauge.build_gauge_map")
    m["gauge.build_gauge_map.calls"] = built
    m["gauge.build_gauge_map.self_s"] = self_s("gauge.build_gauge_map")
    m["gauge.transform_coefficients.calls"] = calls("gauge.transform_coefficients")
    m["gauge.transform_coefficients.self_s"] = self_s("gauge.transform_coefficients")
    slice_s = incl("gauge.build_gauge_map") + incl("gauge.transform_coefficients")
    m["gauge.slice_ms"] = 1e3 * slice_s / built if built else 0.0
    m["gauge.slice_reuse"] = store["distinct_slices"] / built if built else 0.0
    m["gauge.forward_transform.self_s"] = self_s("gauge.forward_transform")
    m["gauge.invert_A.self_s"] = self_s("gauge.invert_A")
    inversions = calls("gauge.invert_A")
    m["gauge.newton_iters"] = store["newton_a_of"] / inversions - 1 if inversions else 0.0

    m["expressions.eval.calls"] = calls("expressions.eval")
    m["expressions.eval.self_s"] = self_s("expressions.eval")
    m["expressions.symbolic_diff.calls"] = calls("expressions.dx") + calls("expressions.dt")
    m["expressions.symbolic_diff.self_s"] = self_s("expressions.dx", "expressions.dt")

    m["coefficients.anchored_cumulative.calls"] = calls("coefficients.anchored_cumulative")
    m["coefficients.anchored_cumulative.self_s"] = self_s("coefficients.anchored_cumulative")
    m["coefficients.check_hypotheses.s"] = incl("coefficients.check_hypotheses")

    m["dyadic.commutator.self_s"] = self_s("dyadic.commutator")
    m["dyadic.double_commutator.self_s"] = self_s("dyadic.double_commutator")
    m["dyadic.comcom_residual.self_s"] = self_s("dyadic.comcom_residual")
    m["dyadic.project.calls"] = calls("dyadic.project")
    m["dyadic.project.self_s"] = self_s("dyadic.project")

    m["experiments.data_gen.self_s"] = self_s(
        "experiments.spectrum_state", "experiments.random_smooth_field")
    m["experiments.write_report.s"] = incl("experiments.write_report")

    m["cli.parse_config.s"] = incl("cli.parse_config")
    run_start = next((s[1] for s in spans if s[0] == "cli.run"), None)
    dispatch = next((s[1] for s in spans if s[0] == "experiments.run_experiment"), None)
    m["cli.gate.s"] = dispatch - run_start if None not in (run_start, dispatch) else 0.0

    # layer shares of the traced run_s: spans opened at or after dispatch
    window_start = dispatch if dispatch is not None else float("-inf")
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for (name, start, _end, _parent), span_self in zip(spans, own):
        if start >= window_start:
            by_layer[name.split(".", 1)[0]] += span_self
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = by_layer[layer]
        m[f"layer.{layer}.share"] = by_layer[layer] / run_s
    return m
