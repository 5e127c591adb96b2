"""Span tracing of emlab's module boundaries, installed from outside.

The traced run replaces each public function named in ``TARGETS`` with a
wrapper in every ``emlab`` module namespace that holds it, so calls made
through ``from .lagrangian import eval_jet`` in ``solver`` or ``pipeline``
are caught as well as calls inside ``lagrangian`` itself.  Nothing in
``src/`` is edited; ``Tracer.installed()`` restores the originals on exit.

A span is ``[name, start, end, parent, op, rss_start, rss_peak]``: wall
times from ``perf_counter``, the index of the enclosing span (-1 at the
top), the op id the harness set, and the resident set size sampled at the
span's boundaries (``rss_peak`` also takes the peaks of its children).
Spans stay in memory until ``write_spans`` is called at the end of a run.
"""

import contextlib
import importlib
import math
import os
import statistics
import sys
import time

import numpy as np

#: (span name, defining module, attribute).  ``solver.lu`` is scipy's
#: ``splu`` as imported by ``emlab.solver``: one call is one factorization.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline"),
    ("pipeline.analyze_into", "pipeline", "analyze_into"),
    ("pipeline.export_fields", "pipeline", "export_fields"),
    ("pipeline.load_run", "pipeline", "load_run"),
    ("solver.solve_euler_lagrange", "solver", "solve_euler_lagrange"),
    ("solver.lu", "solver", "splu"),
    ("solver.el_residual", "solver", "el_residual"),
    ("solver.solve_radial", "solver", "solve_radial"),
    ("lagrangian.eval_jet", "lagrangian", "eval_jet"),
    ("lagrangian.divergence_coefficients", "lagrangian", "divergence_coefficients"),
    ("lagrangian.check_hypotheses", "lagrangian", "check_hypotheses"),
    ("geometry.build_domain", "geometry", "build_domain"),
    ("geometry.interpolate_node_field", "geometry", "interpolate_node_field"),
    ("tensor_field.assemble_field", "tensor_field", "assemble_field"),
    ("tensor_field.classify_definiteness", "tensor_field", "classify_definiteness"),
    ("tensor_field.consistency_report", "tensor_field", "consistency_report"),
    ("tensor_field.divergence_residual", "tensor_field", "divergence_residual"),
    ("pfunction.locate_max", "pfunction", "locate_max"),
    ("pfunction.gradient_bound_check", "pfunction", "gradient_bound_check"),
    ("pfunction.check_max_principle_conditions", "pfunction",
     "check_max_principle_conditions"),
    ("identities.run_identity_suite", "identities", "run_identity_suite"),
]

#: top-level stages of an op, for ``pipeline.stage_peak_alloc_mb``
STAGES = ("geometry.build_domain", "solver.solve_euler_lagrange",
          "pipeline.analyze_into", "pipeline.export_fields", "pipeline.load_run")

# Per-layer metrics: (name, unit, kind, span).  ``s`` sums the inclusive
# durations of the span name, ``self_s`` its self times, ``calls`` counts
# it; ``counter`` reads the value of the same name that the span's post-call
# hook recorded; ``stage_peak`` is the largest RSS rise within one of
# ``STAGES``.  ``run`` metrics come from whole ops, in the harness.
METRICS = [
    ("solver.solve_euler_lagrange.self_s", "s", "self_s", "solver.solve_euler_lagrange"),
    ("solver.iterations", "count", "counter", "solver.solve_euler_lagrange"),
    ("solver.lu.count", "count", "calls", "solver.lu"),
    ("solver.lu.s", "s", "s", "solver.lu"),
    ("solver.el_residual.calls", "count", "calls", "solver.el_residual"),
    ("solver.el_residual.s", "s", "s", "solver.el_residual"),
    ("solver.solve_radial.s", "s", "s", "solver.solve_radial"),
    ("solver.solve_radial.calls", "count", "calls", "solver.solve_radial"),
    ("lagrangian.eval_jet.calls", "count", "calls", "lagrangian.eval_jet"),
    ("lagrangian.eval_jet.points", "points", "counter", "lagrangian.eval_jet"),
    ("lagrangian.eval_jet.s", "s", "s", "lagrangian.eval_jet"),
    ("lagrangian.divergence_coefficients.calls", "count", "calls",
     "lagrangian.divergence_coefficients"),
    ("lagrangian.check_hypotheses.s", "s", "s", "lagrangian.check_hypotheses"),
    ("geometry.build_domain.s", "s", "s", "geometry.build_domain"),
    ("geometry.interpolate_node_field.s", "s", "s", "geometry.interpolate_node_field"),
    ("geometry.interpolate_node_field.points", "points", "counter",
     "geometry.interpolate_node_field"),
    ("geometry.n_interior", "count", "counter", "geometry.build_domain"),
    ("geometry.n_boundary", "count", "counter", "geometry.build_domain"),
    ("tensor_field.assemble_field.s", "s", "s", "tensor_field.assemble_field"),
    ("tensor_field.classify_definiteness.s", "s", "s", "tensor_field.classify_definiteness"),
    ("tensor_field.consistency_report.s", "s", "s", "tensor_field.consistency_report"),
    ("tensor_field.divergence_residual.s", "s", "s", "tensor_field.divergence_residual"),
    ("tensor_field.divergence_residual.calls", "count", "calls",
     "tensor_field.divergence_residual"),
    ("pfunction.locate_max.s", "s", "s", "pfunction.locate_max"),
    ("pfunction.gradient_bound_check.s", "s", "s", "pfunction.gradient_bound_check"),
    ("pfunction.check_max_principle_conditions.s", "s", "s",
     "pfunction.check_max_principle_conditions"),
    ("identities.run_identity_suite.s", "s", "s", "identities.run_identity_suite"),
    ("pipeline.run_pipeline.self_s", "s", "self_s", "pipeline.run_pipeline"),
    ("pipeline.analyze_into.self_s", "s", "self_s", "pipeline.analyze_into"),
    ("pipeline.export_fields.s", "s", "s", "pipeline.export_fields"),
    ("pipeline.export_fields.bytes", "bytes", "counter", "pipeline.export_fields"),
    ("pipeline.load_run.self_s", "s", "self_s", "pipeline.load_run"),
    ("pipeline.stage_peak_alloc_mb", "MB", "stage_peak", None),
    ("cli.main.self_s", "s", "self_s", "cli.main"),
    ("trace.overhead_s", "s", "run", None),
]

MISSING = "missing"


class _RssProbe:
    """Resident set size of this process in bytes, read from /proc/self/statm
    (about 2 us a read); 0 where that file does not exist."""

    def __init__(self):
        try:
            self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        except OSError:
            self._fd = None
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __call__(self):
        if self._fd is None:
            return 0
        return int(os.pread(self._fd, 64, 0).split()[1]) * self._page

    @property
    def available(self):
        return self._fd is not None

    def close(self):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def _emlab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "emlab" or n.startswith("emlab."))]


@contextlib.contextmanager
def patched(replacements):
    """Replace each original function by its substitute in every emlab
    namespace that holds it; restore on exit.  ``replacements`` maps
    ``id(original) -> (original, substitute)``."""
    undo = []
    try:
        for mod in _emlab_modules():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


def resolve_targets():
    """Map span name -> original function; absent names map to ``None``."""
    out = {}
    for span, module, attr in TARGETS:
        try:
            mod = importlib.import_module(f"emlab.{module}")
        except ImportError:
            out[span] = None
            continue
        out[span] = getattr(mod, attr, None)
    return out


class LuCounter:
    """Count-only shim on the solver's sparse LU, for the environment record
    of untraced runs (a factorization costs far more than the increment)."""

    def __init__(self):
        self.count = 0
        self._orig = resolve_targets()["solver.lu"]

    @property
    def available(self):
        return self._orig is not None

    def installed(self):
        if self._orig is None:
            return contextlib.nullcontext()
        orig = self._orig

        def counted(*args, **kwargs):
            self.count += 1
            return orig(*args, **kwargs)
        return patched({id(orig): (orig, counted)})


class Tracer:
    """Records spans and per-op counters for every wrapped call."""

    def __init__(self):
        self.originals = resolve_targets()
        self.spans = []
        self.counters = {}
        self.op = -1
        self._stack = []
        self._rss = _RssProbe()

    @property
    def missing(self):
        return sorted(n for n, f in self.originals.items() if f is None)

    def _count(self, key, value):
        ops = self.counters.setdefault(self.op, {})
        ops[key] = ops.get(key, 0) + value

    def _set(self, key, value):
        self.counters.setdefault(self.op, {})[key] = value

    def _after(self, name, args, kwargs, result):
        """Post-call hooks; they run after the span has closed."""
        if name == "lagrangian.eval_jet":
            p = args[1] if len(args) > 1 else kwargs.get("p")
            q = args[2] if len(args) > 2 else kwargs.get("q")
            self._count("lagrangian.eval_jet.points",
                        math.prod(np.broadcast_shapes(np.shape(p), np.shape(q))))
        elif name == "geometry.interpolate_node_field":
            pts = args[2] if len(args) > 2 else kwargs.get("pts")
            self._count("geometry.interpolate_node_field.points",
                        len(np.atleast_2d(pts)))
        elif name == "geometry.build_domain":
            self._set("geometry.n_interior", result.n_interior)
            self._set("geometry.n_boundary", result.n_boundary)
        elif name == "solver.solve_euler_lagrange":
            self._count("solver.iterations", result.iterations)
        elif name == "pipeline.export_fields":
            out_dir = args[1] if len(args) > 1 else kwargs.get("out_dir")
            self._count("pipeline.export_fields.bytes", directory_bytes(out_dir))

    def _wrap(self, name, fn):
        spans, stack, rss, after = self.spans, self._stack, self._rss, self._after

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            here = rss()
            rec = [name, 0.0, 0.0, parent, self.op, here, here]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                rec[6] = max(rec[6], rss())
                if parent >= 0:
                    spans[parent][6] = max(spans[parent][6], rec[6])
            after(name, args, kwargs, result)
            return result
        return traced

    def installed(self):
        return patched({id(fn): (fn, self._wrap(name, fn))
                        for name, fn in self.originals.items() if fn is not None})

    def op_metrics(self, op):
        """Per-layer values of one traced op, keyed by metric name."""
        picked = [(s, st) for s, st in zip(self.spans, self_times(self.spans))
                  if s[4] == op]
        return layer_metrics([s for s, _ in picked], [st for _, st in picked],
                             self.counters.get(op, {}), self.missing,
                             self._rss.available)

    def close(self):
        self._rss.close()

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("op,name,start,end,parent,rss_start,rss_peak\n")
            for name, start, end, parent, op, r0, r1 in self.spans:
                fh.write(f"{op},{name},{start!r},{end!r},{parent},{r0},{r1}\n")


def directory_bytes(path):
    """Total size of the regular files directly inside ``path``."""
    total = 0
    with os.scandir(path) as it:
        for entry in it:
            if entry.is_file(follow_symlinks=False):
                total += entry.stat().st_size
    return total


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    direct children.  ``parent`` (index 3) indexes the same list, -1 at the
    top; calls in one thread nest, so children never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans, selfs, counters, missing=(), rss_available=True):
    """Fold one op's spans (with their self times) and counters into the
    ``METRICS`` values.  A metric whose span's function no longer exists is
    ``missing``; one whose function exists but was not called is 0."""
    totals, calls, self_sum = {}, {}, {}
    for s, st in zip(spans, selfs):
        name = s[0]
        totals[name] = totals.get(name, 0.0) + (s[2] - s[1])
        calls[name] = calls.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + st
    out = {}
    for metric, _unit, kind, span in METRICS:
        if kind == "run":
            continue
        if span in missing or (kind == "stage_peak" and not rss_available):
            out[metric] = MISSING
        elif kind == "stage_peak":
            peaks = [s[6] - s[5] for s in spans if s[0] in STAGES]
            out[metric] = max(peaks, default=0) / 2 ** 20
        elif kind == "s":
            out[metric] = totals.get(span, 0.0)
        elif kind == "self_s":
            out[metric] = self_sum.get(span, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(span, 0)
        else:
            out[metric] = counters.get(metric, 0)
    return out


def median_metrics(per_op):
    """Median over ops of each metric; ``missing`` if any op lacks it."""
    out = {}
    for metric, _unit, kind, _source in METRICS:
        if kind == "run":
            continue
        values = [m[metric] for m in per_op]
        if not values or any(v == MISSING for v in values):
            out[metric] = MISSING
        else:
            out[metric] = statistics.median(values)
    return out
