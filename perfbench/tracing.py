"""Span tracing installed from outside the library, and per-layer metrics.

A `Tracer` replaces public functions and methods of the nlphase modules
with thin wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Module functions are replaced at every import
site (every loaded ``nlphase`` module whose attribute is the original
function object), methods once on their class.  Spans stay in memory; the
caller writes them out when the run ends.  `layer_metrics` turns a span
list into the per-layer counts and self times that the benchmark reports.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name); module functions are patched at every
# import site of the original object
FUNCTIONS = [
    ("nlphase.model", "validate_hypotheses", "model.validate"),
    ("nlphase.lattice", "birkhoff_shift", "lattice.shift"),
    ("nlphase.energy", "build_weights", "energy.build_weights"),
    ("nlphase.minimize", "minimize_strip", "minimize.solve"),
    ("nlphase.minimize", "check_birkhoff", "minimize.cert"),
    ("nlphase.minimize", "upper_distance", "minimize.cert"),
    ("nlphase.minimize", "check_class_A", "minimize.cert"),
    ("nlphase.minimize", "ball_improvement", "minimize.ball"),
    ("nlphase.geometry", "level_mask", "geometry"),
    ("nlphase.geometry", "ball_count", "geometry"),
    ("nlphase.geometry", "density_profile", "geometry"),
    ("nlphase.geometry", "interface_profile", "geometry"),
    ("nlphase.geometry", "boundary_cells", "geometry"),
    ("nlphase.geometry", "grid_boundary_count", "geometry"),
    ("nlphase.geometry", "boundary_cube_family", "geometry"),
    ("nlphase.geometry", "clean_ball_search", "geometry"),
    ("nlphase.geometry", "interface_width", "geometry"),
    ("nlphase.geometry", "symmetric_difference_measure", "geometry"),
    ("nlphase.perimeter", "per_K", "perimeter.per_K"),
    ("nlphase.perimeter", "indicator_energy", "perimeter.indicator"),
    ("nlphase.perimeter", "gamma_sweep", "perimeter.sweep"),
    ("nlphase.perimeter", "minimal_surface_extract", "perimeter.sweep"),
    ("nlphase.perimeter", "flip_gains", "perimeter.flip"),
    ("nlphase.perimeter", "surface_local_min_check", "perimeter.flip"),
    ("nlphase.barrier", "build_barrier", "barrier.build"),
    ("nlphase.barrier", "verify_barrier", "barrier.verify"),
    ("nlphase.barrier", "barrier_slide_test", "barrier.slide"),
    ("nlphase.cli", "main", "cli.main"),
]

# (module, class, method, span name); patched once on the class
METHODS = [
    ("nlphase.lattice", "StripDomain", "world_centers", "lattice.world_centers"),
    ("nlphase.energy", "WeightTable", "period_value", "energy.value"),
    ("nlphase.energy", "WeightTable", "gradient", "energy.grad"),
    ("nlphase.energy", "WeightTable", "window_report", "energy.window"),
    ("nlphase.energy", "WeightTable", "apply_lk", "energy.lk"),
]

# span record layout
NAME, START, END, PARENT = range(4)


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.iterations: list = []      # per minimize_strip call
        self.domains: list = []         # domain objects passed to build_weights
        self._undo: list = []

    def _wrap(self, fn, name, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(sid)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def __enter__(self):
        hooks = {
            "minimize.solve": lambda res: self.iterations.append(res.iterations),
            "energy.build_weights": lambda wt: self.domains.append(wt.domain),
        }
        loaded = [m for k, m in sorted(sys.modules.items())
                  if (k == "nlphase" or k.startswith("nlphase.")) and m]
        for mod_name, fn_name, span in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(orig, span, hooks.get(span))
            for mod in loaded:
                if getattr(mod, fn_name, None) is orig:
                    self._undo.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, span))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False


def self_times(spans) -> list:
    """Per-span duration minus the time covered by its direct children."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Per-layer counts and self times from one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict = {}
    secs: dict = {}
    for rec, t in zip(spans, own):
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
        secs[rec[NAME]] = secs.get(rec[NAME], 0.0) + t

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def ms_per_call(name):
        return 1e3 * s(name) / c(name) if c(name) else 0.0

    # accepted iterations over value calls made directly by minimize_strip;
    # each accepted step costs one gradient, plus one at start and one at end
    solve_ids = {i for i, rec in enumerate(spans)
                 if rec[NAME] == "minimize.solve"}
    values = grads = 0
    for rec in spans:
        if rec[PARENT] in solve_ids:
            values += rec[NAME] == "energy.value"
            grads += rec[NAME] == "energy.grad"
    accepted = grads - 2 * len(solve_ids)

    return {
        "model.validate_calls": (c("model.validate"), "count"),
        "model.validate_s": (s("model.validate"), "s"),
        "lattice.world_centers_calls": (c("lattice.world_centers"), "count"),
        "lattice.world_centers_s": (s("lattice.world_centers"), "s"),
        "lattice.shift_calls": (c("lattice.shift"), "count"),
        "lattice.shift_s": (s("lattice.shift"), "s"),
        "energy.build_weights_calls": (c("energy.build_weights"), "count"),
        "energy.build_weights_s": (s("energy.build_weights"), "s"),
        "energy.value_calls": (c("energy.value"), "count"),
        "energy.value_s": (s("energy.value"), "s"),
        "energy.value_ms": (ms_per_call("energy.value"), "ms"),
        "energy.grad_calls": (c("energy.grad"), "count"),
        "energy.grad_s": (s("energy.grad"), "s"),
        "energy.grad_ms": (ms_per_call("energy.grad"), "ms"),
        "energy.window_calls": (c("energy.window"), "count"),
        "energy.window_s": (s("energy.window"), "s"),
        "energy.window_ms": (ms_per_call("energy.window"), "ms"),
        "energy.lk_calls": (c("energy.lk"), "count"),
        "energy.lk_s": (s("energy.lk"), "s"),
        "minimize.solves": (c("minimize.solve"), "count"),
        "minimize.iterations": (sum(tracer.iterations), "count"),
        "minimize.accept_ratio": (accepted / values if values else 0.0,
                                  "ratio"),
        "minimize.solve_self_s": (s("minimize.solve"), "s"),
        "minimize.cert_s": (s("minimize.cert"), "s"),
        "minimize.ball_solves": (c("minimize.ball"), "count"),
        "minimize.ball_s": (s("minimize.ball"), "s"),
        "geometry.calls": (c("geometry"), "count"),
        "geometry.s": (s("geometry"), "s"),
        "perimeter.per_K_calls": (c("perimeter.per_K"), "count"),
        "perimeter.per_K_s": (s("perimeter.per_K"), "s"),
        "perimeter.flip_s": (s("perimeter.flip"), "s"),
        "perimeter.sweep_self_s": (s("perimeter.sweep"), "s"),
        "barrier.build_calls": (c("barrier.build"), "count"),
        "barrier.build_s": (s("barrier.build"), "s"),
        "barrier.verify_s": (s("barrier.verify"), "s"),
        "cli.runs": (c("cli.main"), "count"),
        "cli.self_s": (s("cli.main"), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
    }


def completeness(tracer: Tracer, wall_s: float) -> dict:
    """Self times plus the time outside every span must equal the wall time,
    and no domain may have its weights built twice."""
    spans = tracer.spans
    own_total = sum(self_times(spans))
    root_total = sum(rec[END] - rec[START] for rec in spans
                     if rec[PARENT] < 0)
    remainder = wall_s - root_total
    gap = abs(own_total + remainder - wall_s)
    distinct = len({id(d) for d in tracer.domains})
    builds = sum(1 for rec in spans if rec[NAME] == "energy.build_weights")
    return {
        "self_plus_remainder_gap_s": gap,
        "self_time_closes": gap <= 1e-9 * max(wall_s, 1.0) and remainder >= 0.0,
        "build_weights_calls": builds,
        "distinct_domains": distinct,
        "builds_match_domains": builds == distinct and builds > 0,
        "open_spans": len(tracer.stack),
    }
