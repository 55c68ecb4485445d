"""Span tracing of masidx from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
``masidx.*`` module namespace that binds it (modules import by name, so
patching the defining module alone would miss callers), and also wraps
``LagrangianFrame.__post_init__``, ``Standardization.push_frame``, the
numpy.linalg kernels masidx calls and ``masidx.spectral.expm``.
``Tracer.restore`` puts every original back.  The source is untouched.

A span is (name, start, end, parent, problem).  Spans stay in memory and
are written out by ``write_spans`` when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

import sys
import time

import numpy as np

from masidx import core

# (defining module, function name, span name)
FUNCTIONS = [
    ("masidx.cli", "run", "cli.run"),
    ("masidx.core", "lagrangian", "core.lagrangian"),
    ("masidx.souriau", "souriau", "souriau.souriau"),
    ("masidx.souriau", "lagrangian_from_souriau",
     "souriau.lagrangian_from_souriau"),
    ("masidx.paths", "maslov", "paths.maslov"),
    ("masidx.paths", "to_unitary_path", "paths.to_unitary_path"),
    ("masidx.paths", "unitary_maslov", "paths.unitary_maslov"),
    ("masidx.crossings", "find_crossings", "crossings.find_crossings"),
    ("masidx.crossings", "crossing_form", "crossings.crossing_form"),
    ("masidx.indices", "kashiwara", "indices.kashiwara"),
    ("masidx.indices", "complex_kashiwara", "indices.complex_kashiwara"),
    ("masidx.indices", "leray", "indices.leray"),
    ("masidx.indices", "leray_general", "indices.leray_general"),
    ("masidx.indices", "connecting_path", "indices.connecting_path"),
    ("masidx.indices", "hormander", "indices.hormander"),
    ("masidx.pairs", "pair_maslov", "pairs.pair_maslov"),
    ("masidx.pairs", "gamma_reduce_path", "pairs.gamma_reduce_path"),
    ("masidx.pairs", "gamma_reduce", "pairs.gamma_reduce"),
    ("masidx.spectral", "spectral_flow", "spectral.spectral_flow"),
    ("masidx.spectral", "eigenvalues_near", "spectral.eigenvalues_near"),
    ("masidx.spectral", "fundamental_solution",
     "spectral.fundamental_solution"),
    ("masidx.spectral", "cauchy_data_path", "spectral.cauchy_data_path"),
    ("masidx.spectral", "expm", "linalg.expm"),
]

# (owner, attribute, span name): bound once, on the owner only
ATTRIBUTES = [
    (core.LagrangianFrame, "__post_init__", "core.frame_checks"),
    (core.Standardization, "push_frame", "core.push_frame"),
    (np.linalg, "svd", "linalg.svd"),
    (np.linalg, "eigvals", "linalg.eigvals"),
    (np.linalg, "det", "linalg.det"),
]

PATH_ENTRIES = ("paths.maslov", "paths.unitary_maslov")

LAYER_METRICS = [
    ("cli.self_ms", "ms"),
    ("cli.geodesic_frames", "count"),
    ("core.lagrangian.calls", "count"),
    ("core.lagrangian.self_ms", "ms"),
    ("core.frame_checks", "count"),
    ("core.frame_checks.self_ms", "ms"),
    ("core.push_frame.calls", "count"),
    ("souriau.souriau.calls", "count"),
    ("souriau.souriau.self_ms", "ms"),
    ("souriau.lagrangian_from_souriau.calls", "count"),
    ("souriau.lagrangian_from_souriau.self_ms", "ms"),
    ("paths.to_unitary_path.self_ms", "ms"),
    ("paths.unitary_maslov.self_ms", "ms"),
    ("paths.samples_in", "count"),
    ("paths.samples_out", "count"),
    ("paths.refine_ratio", "ratio"),
    ("crossings.find_crossings.self_ms", "ms"),
    ("crossings.crossing_form.self_ms", "ms"),
    ("crossings.point_evals", "count"),
    ("indices.kashiwara.self_ms", "ms"),
    ("indices.complex_kashiwara.self_ms", "ms"),
    ("indices.leray.self_ms", "ms"),
    ("indices.leray_general.self_ms", "ms"),
    ("indices.connecting_path.self_ms", "ms"),
    ("indices.hormander.self_ms", "ms"),
    ("pairs.pair_maslov.self_ms", "ms"),
    ("pairs.gamma_reduce_path.self_ms", "ms"),
    ("pairs.gamma_reduce.calls", "count"),
    ("spectral.spectral_flow.self_ms", "ms"),
    ("spectral.eigenvalues_near.calls", "count"),
    ("spectral.eigenvalues_near.self_ms", "ms"),
    ("spectral.fundamental_solution.calls", "count"),
    ("spectral.fundamental_solution.self_ms", "ms"),
    ("spectral.time_samples", "count"),
    ("spectral.cauchy_data_path.self_ms", "ms"),
    ("linalg.svd.calls", "count"),
    ("linalg.norm2.calls", "count"),
    ("linalg.norm2.ms", "ms"),
    ("linalg.eigvals.calls", "count"),
    ("linalg.eigvals.ms", "ms"),
    ("linalg.expm.calls", "count"),
    ("linalg.expm.ms", "ms"),
    ("linalg.det.calls", "count"),
    ("trace.overhead_frac", "ratio"),
]


def _is_norm2(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return isinstance(order, int) and order == 2


class Tracer:
    """Records spans of one traced run; create, install, run, restore."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, problem, child_total]
        self.samples = []  # (samples in, samples out) per outermost index
        self.time_samples = []  # len(partition) per spectral_flow
        self.problem = -1
        self._stack = []
        self._saved = []

    # -- span recording ----------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.problem, 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer._observe(name, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_norm(self, fn):
        traced = self._wrap(fn, "linalg.norm2")

        def norm(*args, **kwargs):
            if _is_norm2(args, kwargs):
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        norm.__wrapped__ = fn
        return norm

    def _observe(self, name, idx, args, result):
        if name in PATH_ENTRIES:
            parent = self.spans[idx][3]
            if parent < 0 or self.spans[parent][0] not in PATH_ENTRIES:
                self.samples.append((len(args[0].samples),
                                     len(result.partition)))
        elif name == "spectral.spectral_flow":
            self.time_samples.append(len(result.partition))

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "masidx" or name.startswith("masidx.")
        ]
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapper)
        for owner, attr, span in ATTRIBUTES:
            self._set(owner, attr, self._wrap(owner.__dict__[attr], span))
        self._set(np.linalg, "norm", self._wrap_norm(np.linalg.norm))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, problems, overhead_frac):
        """Per-problem means of every layer metric over ``problems``."""
        per = max(1, problems)
        calls, self_s, total_s = {}, {}, {}
        geodesic = point_evals = 0
        spans = self.spans
        for name, start, end, parent, _, child in spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child
            total_s[name] = total_s.get(name, 0.0) + dur
            if name == "souriau.lagrangian_from_souriau" and parent >= 0 \
                    and spans[parent][0] == "cli.run":
                geodesic += 1
            if name == "souriau.souriau":
                p = parent
                while p >= 0:
                    if spans[p][0] == "crossings.find_crossings":
                        point_evals += 1
                        break
                    p = spans[p][3]
        s_in = sum(s[0] for s in self.samples)
        s_out = sum(s[1] for s in self.samples)

        out = {
            "cli.geodesic_frames": geodesic / per,
            "crossings.point_evals": point_evals / per,
            "paths.samples_in": s_in / per,
            "paths.samples_out": s_out / per,
            "paths.refine_ratio": s_out / s_in if s_in else 1.0,
            "spectral.time_samples": sum(self.time_samples) / per,
            "core.frame_checks": calls.get("core.frame_checks", 0) / per,
            "linalg.norm2.ms": 1e3 * total_s.get("linalg.norm2", 0.0) / per,
            "linalg.eigvals.ms":
                1e3 * total_s.get("linalg.eigvals", 0.0) / per,
            "linalg.expm.ms": 1e3 * total_s.get("linalg.expm", 0.0) / per,
            "trace.overhead_frac": overhead_frac,
        }
        out["cli.self_ms"] = 1e3 * self_s.get("cli.run", 0.0) / per
        for metric, _ in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if metric in out:
                continue
            if kind == "calls":
                out[metric] = calls.get(base, 0) / per
            else:
                out[metric] = 1e3 * self_s.get(base, 0.0) / per
        return out

    def write_spans(self, path, problem_ids):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,problem\n")
            for name, start, end, parent, problem, _ in self.spans:
                pid = problem_ids[problem] if problem >= 0 else ""
                fh.write(f"{name},{start!r},{end!r},{parent},{pid}\n")

