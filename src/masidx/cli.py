"""Command-line front door.

Each subcommand reads one strict JSON problem file, dispatches to the
computational modules, and prints a deterministic JSON report on stdout.
Exit codes: 0 success, 2 validation error, 3 numerical ambiguity,
4 precondition failure.  Error payloads are JSON with "reason" and
"where".

Input files carry an explicit "version": 1 and reject unknown fields.
Real matrices are row-major nested arrays; complex matrices use an
[re, im] pair per entry; Lagrangian frames are 2n rows by n columns.

--refine-factor r (r > 1) treats sampled Lagrangian or unitary paths as
nodes of a piecewise principal-logarithm geodesic on a grid of r pieces
per gap: ``paths.geodesic_path`` of the unitaries for unitary-maslov, and
for maslov, crossings, reduce and pair-maslov ``paths.lagrangian_geodesic``,
a geodesic of Lambda(n) = U(n)/O(n) through the node frames.  The paths
module says how such a path is counted from its determinant lift, as are
the pair path of pair-maslov and the certified reduced path of reduce,
with Phillips' count run only when a partition is read (--trace), and
why a frame or a unitary is formed only where one is read.  The path
holds its nodes only, and a grid may hold at most ``paths.MAX_SAMPLES``
times, so a larger r is rejected before anything is built.

With the default r = 1 the samples are used as-is and under-resolved
inputs fail with an ambiguity error rather than being silently
interpolated: a gap counts only when its unitaries are within 0.5 in
spectral norm and their eigenphases leave an admissible test angle.  The
crossings and reduce subcommands always interpolate: the crossing search
reads the geodesic pieces of the grid, where every crossing form is exact,
and reduction marches along the path.  The crossings input's optional
"richardson" boolean is checked and ignored: no form is differenced.
scipy loads on first use: ``scipy.linalg`` for spectral-flow and
verify-coincidence only, ``scipy.optimize`` for --trace only.

--window W is the eigenvalue range (-W, W] of the --trace of
spectral-flow and verify-coincidence and nothing else: the flow count
reads only the detection window near 0, whatever W.
"""

import argparse
import json
import math
import sys
from functools import lru_cache
from itertools import chain

import numpy as np

from . import __version__
from .core import (
    DEFAULT_TOL,
    SymplecticSpace,
    lagrangian,
    standard_space,
)
from .errors import AmbiguityError, PreconditionError, ValidationError
from .indices import (
    LiftedUnitary,
    complex_kashiwara,
    hormander,
    kashiwara,
    leray,
    leray_general,
)
from .crossings import crossing_form, crossing_sum, find_crossings
from .paths import (
    MAX_SAMPLES,
    LagrangianPath,
    UnitaryPath,
    geodesic_path,
    lagrangian_geodesic,
    maslov,
    unitary_maslov,
)
from .pairs import gamma_reduce_path, pair_maslov, polarized_pair
from .spectral import (
    boundary_problem,
    eigenvalue_trace,
    spectral_flow,
    verify_coincidence,
)

_PROFILES = {"strict": 0.1, "default": 1.0, "loose": 10.0}
_EXIT_CODES = {ValidationError: 2, AmbiguityError: 3, PreconditionError: 4}


# --------------------------------------------------------------------------
# strict JSON parsing
# --------------------------------------------------------------------------


def _fail(msg, where):
    raise ValidationError(msg, where=where)


def _check_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        _fail("expected a JSON object", where)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        _fail(f"unknown fields: {sorted(unknown)}", where)
    missing = set(required) - set(obj)
    if missing:
        _fail(f"missing fields: {sorted(missing)}", where)


def _load_input(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read input: {exc}", path)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, or nesting past the stack
        _fail(f"not valid JSON: {exc}", path)
    if not isinstance(obj, dict) or obj.get("version") != 1:
        _fail('input must be an object with "version": 1', path)
    return obj


def _real_number(x, where):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail("expected a number", where)
    # NaN, infinities, and integers past the float range
    if not abs(x) <= sys.float_info.max:
        _fail("number must be finite", where)
    return float(x)


def _float_array(obj, reason, where):
    """Nested lists of one shape whose leaves are JSON numbers, as a float
    array; ``reason`` names a ragged or mixed nesting.  The lists are
    flattened a level at a time, so the leaves are typed in one pass."""
    shape, items = [], [obj]
    while items and all(type(x) is list for x in items):
        size = len(items[0])
        if any(len(x) != size for x in items):
            _fail(reason, where)
        shape.append(size)
        items = list(chain.from_iterable(items))
    # JSON numbers only: strings and booleans are not coerced
    if not set(map(type, items)) <= {int, float}:
        if not shape or any(type(x) is list for x in items):
            _fail(reason, where)
        _fail("matrix entries must be numbers", where)
    try:
        return np.array(items, dtype=float).reshape(shape)
    except OverflowError:
        # an integer past the float range
        _fail("matrix entries must be finite", where)


def _real_matrix(obj, shape, where):
    M = _float_array(obj, "expected a numeric matrix", where)
    if M.ndim != 2 or (shape is not None and M.shape != shape):
        _fail(
            f"matrix has shape {M.shape}, expected {shape}",
            where,
        )
    if not np.all(np.isfinite(M)):
        _fail("matrix entries must be finite", where)
    return M


def _complex_matrix(obj, shape, where):
    A = _float_array(obj, "expected entries as [re, im] pairs", where)
    if A.ndim != 3 or A.shape[2] != 2 or (
        shape is not None and A.shape[:2] != shape
    ):
        _fail("expected a matrix of [re, im] pairs", where)
    if not np.all(np.isfinite(A)):
        _fail("matrix entries must be finite", where)
    return A[..., 0] + 1j * A[..., 1]


def _positive_int(obj, key):
    val = obj.get(key)
    if not isinstance(val, int) or isinstance(val, bool) or val < 1:
        _fail(f'"{key}" must be a positive integer', "input")
    return val


def _space_of(obj, tol):
    """The input's space.  Handlers build it only after checking every
    matrix of the input against n, so an n that the matrices contradict
    allocates nothing."""
    n = _positive_int(obj, "n")
    if "space" in obj:
        sp = obj["space"]
        _check_keys(sp, ["J", "G"], [], "input.space")
        return SymplecticSpace(
            n=n,
            J=_real_matrix(sp["J"], (2 * n, 2 * n), "input.space.J"),
            G=_real_matrix(sp["G"], (2 * n, 2 * n), "input.space.G"),
            tol=tol,
        )
    return standard_space(n, tol)


def _frame_matrix(obj, n, where):
    return _real_matrix(obj, (2 * n, n), where)


def _frame_matrices(obj, keys, n):
    return [_frame_matrix(obj[key], n, f"input.{key}") for key in keys]


def _frames(space, mats):
    """The frames of ``mats`` in ``space``, from one stacked ``lagrangian``
    call, which raises the error of the first matrix that fails."""
    return lagrangian(space, np.stack(mats))


def _unitary_matrix(obj, n, where):
    return _complex_matrix(obj, (n, n), where)


def _nodes(obj, n, where, key="frame", read=_frame_matrix):
    """Times and matrices of a path's nodes {"t": .., key: ..}, each
    matrix read by ``read`` and checked against n."""
    if not isinstance(obj, list) or len(obj) < 2:
        _fail("path needs at least two samples", where)
    ts, mats = [], []
    for i, item in enumerate(obj):
        loc = f"{where}[{i}]"
        _check_keys(item, ["t", key], [], loc)
        ts.append(_real_number(item["t"], loc + ".t"))
        mats.append(read(item[key], n, f"{loc}.{key}"))
    return ts, mats


def _reference_and_path(obj, tol):
    """Reference frame, node times and node frames of a maslov or
    crossings input."""
    n = _positive_int(obj, "n")
    ref = _frame_matrix(obj["reference"], n, "input.reference")
    ts, mats = _nodes(obj["path"], n, "input.path")
    lam, *frames = _frames(_space_of(obj, tol), [ref] + mats)
    return lam, ts, frames


# --------------------------------------------------------------------------
# piecewise-geodesic densification (--refine-factor)
# --------------------------------------------------------------------------


def _segment_times(ts, factor):
    if (len(ts) - 1) * factor + 1 > MAX_SAMPLES:
        _fail(
            f"--refine-factor {factor} gives more than {MAX_SAMPLES} "
            "samples",
            "arguments",
        )
    out = []
    for i in range(len(ts) - 1):
        for k in range(factor):
            out.append(ts[i] + (ts[i + 1] - ts[i]) * k / factor)
    out.append(ts[-1])
    return out


def _lagrangian_path(ts, frames, factor, tol):
    """The samples as given (factor 1), or the Lagrangian path whose pair
    unitaries against the horizontal reference h are the piecewise
    geodesic through those of the nodes (``lagrangian_geodesic``).  A
    frame is formed only where it is read; the counts read the pair
    unitaries off the geodesic pieces instead."""
    if factor <= 1:
        return LagrangianPath(
            samples=tuple(zip(ts, frames)), refiner=None
        )
    return lagrangian_geodesic(ts, frames, _segment_times(ts, factor), tol)


def _unitary_cli_path(ts, mats, factor, tol):
    if factor <= 1:
        return UnitaryPath(samples=tuple(zip(ts, mats)), refiner=None)
    return geodesic_path(ts, mats, _segment_times(ts, factor), tol)


# --------------------------------------------------------------------------
# deterministic JSON emission
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _matrix_format(m, k):
    """The format of an m x k matrix of floats: one ``%`` formats it."""
    row = "[" + ",".join(["%.17g"] * k) + "]"
    return "[" + ",".join([row] * m) + "]"


@lru_cache(maxsize=256)
def _key(name):
    """A report key, escaped once."""
    return json.dumps(name)


def _fmt(obj):
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValidationError("non-finite value in report", where="emit")
        return "%.17g" % x
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == float:
        # a frame: the float case above, in one format
        if not np.isfinite(obj).all():
            raise ValidationError("non-finite value in report", where="emit")
        return _matrix_format(*obj.shape) % tuple(obj.ravel().tolist())
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(x) for x in obj) + "]"
    if isinstance(obj, dict):
        parts = (
            _key(str(k)) + ":" + _fmt(v) for k, v in sorted(obj.items())
        )
        return "{" + ",".join(parts) + "}"
    raise ValidationError(
        f"cannot serialize {type(obj).__name__}", where="emit"
    )


def _emit(report):
    sys.stdout.write(_fmt(report) + "\n")


def _write_trace(path, header, rows):
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        cells = ["%.17g" % float(x) for x in row]
        cells += [""] * (width - len(cells))
        lines.append(",".join(cells))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        _fail(f"cannot write trace: {exc}", path)


def _phase_trace_rows(report):
    ts, values = report.trace.ts, report.trace.values
    header = ["t"] + [f"phase_{k + 1}" for k in range(values.shape[1])]
    rows = [[t] + list(phases) for t, phases in zip(ts, values)]
    return header, rows


def _eigen_trace_rows(trace):
    width = max((len(s) for _, s in trace), default=0)
    header = ["t"] + [f"s_{k + 1}" for k in range(width)]
    rows = [[t] + list(s) for t, s in trace]
    return header, rows


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_maslov(obj, args, tol):
    _check_keys(
        obj, ["version", "n", "reference", "path"], ["space"], "input"
    )
    lam, ts, frames = _reference_and_path(obj, tol)
    path = _lagrangian_path(ts, frames, args.refine_factor, tol)
    report = maslov(path, lam, tol)
    return {"value": int(report.value)}, report


def _cmd_unitary_maslov(obj, args, tol):
    _check_keys(obj, ["version", "n", "path"], [], "input")
    n = _positive_int(obj, "n")
    ts, mats = _nodes(obj["path"], n, "input.path", "U", _unitary_matrix)
    path = _unitary_cli_path(ts, mats, args.refine_factor, tol)
    report = unitary_maslov(path, tol)
    return {"value": int(report.value)}, report


def _cmd_crossings(obj, args, tol):
    _check_keys(
        obj,
        ["version", "n", "reference", "path"],
        ["space", "richardson"],
        "input",
    )
    lam, ts, frames = _reference_and_path(obj, tol)
    path = _lagrangian_path(ts, frames, max(2, args.refine_factor), tol)
    if not isinstance(obj.get("richardson", False), bool):
        _fail('"richardson" must be a boolean', "input.richardson")
    forms = [
        crossing_form(path, lam, t_star, tol=tol)
        for t_star in find_crossings(path, lam, tol)
    ]
    rows = [
        {
            "t_star": float(c.t_star),
            "dim": int(c.dim),
            "signature": [int(p) for p in c.signature],
            "regular": bool(c.regular),
        }
        for c in forms
    ]
    out = {"crossings": rows, "value": None}
    if all(c.regular for c in forms):
        # the value maslov_via_crossings gives
        out["value"] = int(crossing_sum(forms))
    return out, None


def _cmd_kashiwara(obj, args, tol):
    _check_keys(obj, ["version", "n", "frames"], ["space"], "input")
    n = _positive_int(obj, "n")
    fr = obj["frames"]
    if not isinstance(fr, list) or len(fr) != 3:
        _fail('"frames" must list exactly three frames', "input.frames")
    mats = [
        _frame_matrix(f, n, f"input.frames[{i}]") for i, f in enumerate(fr)
    ]
    f1, f2, f3 = _frames(_space_of(obj, tol), mats)
    sig = kashiwara(f1, f2, f3)
    return {"index": int(sig.signature), "nulls": int(sig.nulls)}, None


def _cmd_complex_kashiwara(obj, args, tol):
    _check_keys(
        obj, ["version", "n", "unitaries"], ["reference", "space"], "input"
    )
    n = _positive_int(obj, "n")
    us = obj["unitaries"]
    if not isinstance(us, list) or len(us) != 3:
        _fail(
            '"unitaries" must list exactly three matrices',
            "input.unitaries",
        )
    u1, u2, u3 = (
        _unitary_matrix(u, n, f"input.unitaries[{i}]")
        for i, u in enumerate(us)
    )
    lam = None
    if "reference" in obj:
        ref = _frame_matrix(obj["reference"], n, "input.reference")
        lam = lagrangian(_space_of(obj, tol), ref)
    sig = complex_kashiwara(u1, u2, u3, lam=lam)
    return {"index": int(sig.signature), "nulls": int(sig.nulls)}, None


def _lift(obj, n, where):
    _check_keys(obj, ["U", "alpha"], [], where)
    return LiftedUnitary(
        U=_unitary_matrix(obj["U"], n, where + ".U"),
        alpha=_real_number(obj["alpha"], where + ".alpha"),
    )


def _cmd_leray(obj, args, tol):
    _check_keys(
        obj, ["version", "n", "lift1", "lift2"], ["probe"], "input"
    )
    n = _positive_int(obj, "n")
    l1 = _lift(obj["lift1"], n, "input.lift1")
    l2 = _lift(obj["lift2"], n, "input.lift2")
    probe = None
    if "probe" in obj:
        probe = _unitary_matrix(obj["probe"], n, "input.probe")
    if probe is None:
        # leray raises exactly when the transversality margin is at most
        # tol.transversal; only then is a probe drawn
        try:
            return {"value": float(leray(l1, l2, tol))}, None
        except PreconditionError:
            pass
    value = leray_general(l1, l2, probe=probe, seed=args.seed, tol=tol)
    return {"value": float(value), "probe_seed": int(args.seed)}, None


def _cmd_hormander(obj, args, tol):
    _check_keys(
        obj,
        ["version", "n", "ell0", "ell1", "lam", "mu"],
        ["space"],
        "input",
    )
    n = _positive_int(obj, "n")
    mats = _frame_matrices(obj, ("ell0", "ell1", "lam", "mu"), n)
    ell0, ell1, lam, mu = _frames(_space_of(obj, tol), mats)
    value = hormander(ell0, ell1, lam, mu, seed=args.seed, tol=tol)
    return {"value": int(value), "probe_seed": int(args.seed)}, None


def _cmd_pair_maslov(obj, args, tol):
    _check_keys(
        obj,
        ["version", "n", "mu_path", "lambda_path"],
        ["space"],
        "input",
    )
    n = _positive_int(obj, "n")
    mts, mmats = _nodes(obj["mu_path"], n, "input.mu_path")
    lts, lmats = _nodes(obj["lambda_path"], n, "input.lambda_path")
    space = _space_of(obj, tol)
    mu_path = _lagrangian_path(
        mts, _frames(space, mmats), args.refine_factor, tol
    )
    lam_path = _lagrangian_path(
        lts, _frames(space, lmats), args.refine_factor, tol
    )
    report = pair_maslov(mu_path, lam_path, tol)
    return {"value": int(report.value)}, report


def _cmd_reduce(obj, args, tol):
    _check_keys(
        obj,
        [
            "version",
            "n_big",
            "n_small",
            "lam_plus",
            "lam_minus",
            "ell_plus",
            "ell_minus",
            "i_plus_diag",
            "path",
        ],
        [],
        "input",
    )
    nb, nh = _positive_int(obj, "n_big"), _positive_int(obj, "n_small")
    if not isinstance(obj["i_plus_diag"], list):
        _fail('"i_plus_diag" must be a list of numbers', "input.i_plus_diag")
    big_mats = _frame_matrices(obj, ("lam_plus", "lam_minus"), nb)
    small_mats = _frame_matrices(obj, ("ell_plus", "ell_minus"), nh)
    weights = [
        _real_number(x, "input.i_plus_diag") for x in obj["i_plus_diag"]
    ]
    ts, mats = _nodes(obj["path"], nb, "input.path")
    big, small = standard_space(nb, tol), standard_space(nh, tol)
    pp = polarized_pair(
        *_frames(big, big_mats), *_frames(small, small_mats), weights
    )
    frames = _frames(big, mats)
    # The march of ``gamma_reduce_path`` picks its own times between the
    # nodes, stepping on the exact frame speed of each gap of a
    # ``lagrangian_geodesic``; a factor of at least 2 builds that path.
    path = _lagrangian_path(ts, frames, max(2, args.refine_factor), tol)
    reduced = gamma_reduce_path(pp, path)
    big_report = maslov(path, pp.lam_minus, tol)
    small_report = maslov(reduced, pp.ell_minus, tol)
    out = {
        "value": int(small_report.value),
        "big_value": int(big_report.value),
        "equal": bool(small_report.value == big_report.value),
        "n_B": int(nb),
        "n_H": int(nh),
        "i_plus_diag": [float(x) for x in obj["i_plus_diag"]],
        "reduced_path": [
            {"t": float(t), "frame": f.F}
            for t, f in reduced.samples
        ],
    }
    return out, small_report


def _boundary_problem(obj):
    _check_keys(
        obj,
        ["version", "N", "B", "family", "lambda0", "lambda1"],
        [],
        "input",
    )
    N = _positive_int(obj, "N")
    m = 2 * N
    fam = obj["family"]
    if not isinstance(fam, list) or len(fam) < 2:
        _fail('"family" needs at least two samples', "input.family")
    family = []
    for i, item in enumerate(fam):
        loc = f"input.family[{i}]"
        _check_keys(item, ["t", "C"], [], loc)
        family.append(
            (
                _real_number(item["t"], loc + ".t"),
                _real_matrix(item["C"], (m, m), loc + ".C"),
            )
        )
    return boundary_problem(
        N,
        _real_matrix(obj["B"], (m, m), "input.B"),
        family,
        _real_matrix(obj["lambda0"], (m, N), "input.lambda0"),
        _real_matrix(obj["lambda1"], (m, N), "input.lambda1"),
    )


def _eigen_trace(bp, args, tol):
    """The eigenvalue trace when --trace asks for one, else None."""
    if args.trace is None:
        return None
    return eigenvalue_trace(bp, window=args.window, tol=tol)


def _cmd_spectral_flow(obj, args, tol):
    bp = _boundary_problem(obj)
    report = spectral_flow(bp, tol=tol)
    return {"value": int(report.value)}, _eigen_trace(bp, args, tol)


def _cmd_verify_coincidence(obj, args, tol):
    bp = _boundary_problem(obj)
    out = verify_coincidence(bp, tol=tol)
    return out, _eigen_trace(bp, args, tol)


_HANDLERS = {
    "maslov": (_cmd_maslov, "phase"),
    "unitary-maslov": (_cmd_unitary_maslov, "phase"),
    "crossings": (_cmd_crossings, None),
    "kashiwara": (_cmd_kashiwara, None),
    "complex-kashiwara": (_cmd_complex_kashiwara, None),
    "leray": (_cmd_leray, None),
    "hormander": (_cmd_hormander, None),
    "pair-maslov": (_cmd_pair_maslov, "phase"),
    "reduce": (_cmd_reduce, "phase"),
    "spectral-flow": (_cmd_spectral_flow, "eigen"),
    "verify-coincidence": (_cmd_verify_coincidence, "eigen"),
}


@lru_cache(maxsize=1)
def _parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="masidx",
        description="Maslov-type indices of Lagrangian paths, "
        "intersection indices of Lagrangian triples, and spectral flow "
        "of boundary-value families.",
    )
    p.add_argument(
        "command", choices=sorted(_HANDLERS), help="what to compute"
    )
    p.add_argument("input", help="path to the JSON problem file")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for probe searches and path synthesis (default 0)",
    )
    p.add_argument(
        "--tolerance-profile",
        choices=sorted(_PROFILES),
        default="default",
        help="scale documented tolerances by 0.1 / 1 / 10",
    )
    p.add_argument(
        "--refine-factor",
        type=int,
        default=1,
        help="geodesic subdivisions per sample gap (1 = use samples "
        "as-is, no interpolation)",
    )
    p.add_argument(
        "--trace",
        default=None,
        help="write the command's CSV trace to this path",
    )
    p.add_argument(
        "--window",
        type=float,
        default=8.0,
        help="eigenvalue range of --trace for spectral-flow and "
        "verify-coincidence (default 8)",
    )
    return p


def run(argv=None):
    args = _parser().parse_args(argv)
    handler, trace_kind = _HANDLERS[args.command]
    try:
        if args.refine_factor < 1:
            _fail("--refine-factor must be >= 1", "arguments")
        if not (np.isfinite(args.window) and args.window > 0):
            _fail("--window must be a finite number > 0", "arguments")
        if args.trace is not None and trace_kind is None:
            _fail(
                f"command {args.command} emits no trace", "arguments"
            )
        tol = DEFAULT_TOL.scaled(_PROFILES[args.tolerance_profile])
        obj = _load_input(args.input)
        # a phase command hands back its IndexReport, whose trace is
        # matched only when --trace reads it
        values, trace = handler(obj, args, tol)
        if args.trace is not None:
            if trace is None:
                _fail("no trace was produced", "arguments")
            if trace_kind == "phase":
                header, rows = _phase_trace_rows(trace)
            else:
                header, rows = _eigen_trace_rows(trace)
            _write_trace(args.trace, header, rows)
        report = {
            "command": args.command,
            "seed": int(args.seed),
            "version": __version__,
            "diagnostics": {
                "tolerance_profile": args.tolerance_profile,
                "refine_factor": int(args.refine_factor),
            },
        }
        report.update(values)
        _emit(report)
        return 0
    except tuple(_EXIT_CODES) as exc:
        _emit({"reason": exc.reason, "where": exc.where})
        return _EXIT_CODES[type(exc)]


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
