"""One workload process: runs generated problems through ``masidx.cli.run``.

    python3 perfbench/worker.py setup WORKDIR WORKLOAD
    python3 perfbench/worker.py loop WORKDIR WORKLOAD SECONDS TRACE

``setup`` imports masidx, runs the first problem and prints the
``time.perf_counter()`` reading at which it completed (the clock is
system-wide, so the parent subtracts its own reading taken before the
spawn), then the median time of the workload's speed probe.

``loop`` is a closed loop with one caller and no worker threads: it runs
whole passes over the problem list, one problem at a time, until SECONDS
have elapsed.  With TRACE = 1 it runs the untraced passes for SECONDS / 2,
then the same number of passes again with every layer wrapped, and checks
that both emit byte-identical CLI output.  Results go to WORKDIR/result.json
and spans to WORKDIR/spans.csv.

Both modes expect the BLAS thread variables set by ``run.py``.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from masidx import cli  # noqa: E402

PROBE_EVERY = 4
_RNG = np.random.default_rng(0)
_LARGE = _RNG.standard_normal((128, 128))
_LARGE_C = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_SMALL = _RNG.standard_normal((8, 8))
_SMALL_C = _SMALL + 1j * _RNG.standard_normal((8, 8))
# bound before any tracing, so a probe never runs through a wrapper
_SVD, _EIGVALS, _DET = np.linalg.svd, np.linalg.eigvals, np.linalg.det


def _interpreter(count):
    x = 0.0
    for k in range(count):
        x += k * 0.5
    return x


def _dense_kernels():
    for _ in range(2):
        _SVD(_LARGE)
        _EIGVALS(_LARGE_C)
    _interpreter(20000)


def _refine_kernels():
    for _ in range(120):
        _SVD(_SMALL)
        _EIGVALS(_SMALL_C)
        _SMALL @ _SMALL
    _interpreter(60000)


def _flow_kernels():
    for _ in range(120):
        expm(_SMALL)
        _DET(_SMALL)
        _SVD(_SMALL)
    _interpreter(80000)


# Fixed work that does not touch masidx, in the kernel mix of each
# workload: timed between problems, it tracks the machine's own speed.
PROBES = {
    "dense": _dense_kernels,
    "refine": _refine_kernels,
    "flow": _flow_kernels,
}


def probe(kind):
    start = time.perf_counter()
    PROBES[kind]()
    return time.perf_counter() - start


def load(workdir):
    with open(os.path.join(workdir, "problems.json")) as fh:
        return json.load(fh)


def call(problem, workdir):
    """Run one problem; return (exit code or None, error, stdout, seconds).

    An exception escaping ``cli.run`` is a failed problem, not a crash.
    """
    argv = [problem["command"], os.path.join(workdir, problem["file"])]
    argv += problem["args"]
    buf = io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    except Exception as exc:  # the benchmark records it and goes on
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return code, error, buf.getvalue(), elapsed


def passes(problems, workdir, kind, count=None, seconds=None,
           on_problem=None):
    """Whole passes over ``problems``: ``count`` of them, or as many as
    start within ``seconds``, with a speed probe every ``PROBE_EVERY``
    problems.  Returns (samples, outputs, passes, probes, wall)."""
    samples, outputs, probes = [], {}, []
    done = 0
    start = time.perf_counter()
    while (done < count) if count is not None else (
        time.perf_counter() - start < seconds
    ):
        for i, problem in enumerate(problems):
            if len(samples) % PROBE_EVERY == 0:
                probes.append(probe(kind))
            if on_problem is not None:
                on_problem(i)
            code, error, out, elapsed = call(problem, workdir)
            stable = outputs.setdefault(i, out) == out
            samples.append([i, code, error, elapsed, stable])
        done += 1
    return samples, outputs, done, probes, time.perf_counter() - start


def busy(samples):
    return sum(s[3] for s in samples)


def setup(workdir, kind):
    call(load(workdir)[0], workdir)
    done = time.perf_counter()
    print(repr(done), repr(statistics.median(probe(kind) for _ in range(5))))


def loop(workdir, kind, seconds, trace):
    problems = load(workdir)
    result = {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if not trace:
        samples, outputs, count, probes, wall = passes(
            problems, workdir, kind, seconds=seconds
        )
        result.update(samples=samples, passes=count, probes_s=probes,
                      wall_s=wall)
    else:
        from tracing import Tracer

        base, base_out, count, base_probes, _ = passes(
            problems, workdir, kind, seconds=seconds / 2.0
        )
        tracer = Tracer()

        def mark(i):
            tracer.problem = i

        tracer.install()
        try:
            samples, outputs, _, probes, wall = passes(
                problems, workdir, kind, count=count, on_problem=mark
            )
        finally:
            tracer.restore()
        # busy time in units of the speed probe, so that a change in the
        # machine's speed between the two halves does not read as overhead
        overhead = (busy(samples) / statistics.median(probes)) / (
            busy(base) / statistics.median(base_probes)
        ) - 1.0
        result.update(
            samples=samples,
            passes=count,
            probes_s=probes,
            wall_s=wall,
            identical=outputs == base_out,
            layers=tracer.layer_metrics(len(samples), overhead),
        )
        tracer.write_spans(os.path.join(workdir, "spans.csv"),
                           [p["id"] for p in problems])
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    result["outputs"] = {str(i): out for i, out in outputs.items()}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)


def main(argv):
    mode, workdir, kind = argv[0], argv[1], argv[2]
    if mode == "setup":
        setup(workdir, kind)
    else:
        loop(workdir, kind, float(argv[3]), argv[4] == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
