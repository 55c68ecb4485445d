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
nodes of a piecewise-geodesic interpolation, inserting r - 1 intermediate
samples per gap and attaching the interpolant as a refiner.  Each gap
carries one principal-logarithm geodesic (``paths.unitary_geodesic``)
between its end unitaries, evaluated lazily: only the samples the index
actually asks for are built.  A path may hold at most
``paths.MAX_SAMPLES`` samples, so a larger r is rejected before any is
built.  Unitary paths interpolate their own samples.  maslov counts the
pair unitaries W(lam, mu_i) of its nodes against the reference lam as a
unitary path, interpolated the same way; no frame is built between the
nodes.  crossings, reduce and pair-maslov need frames: they interpolate
the pair unitaries against the horizontal Lagrangian of the standard
model, pulled back into the input's space, and recover a frame with
``lagrangian_from_souriau`` at each requested time.  With the default
r = 1 the samples are used as-is and under-resolved inputs fail with an
ambiguity error rather than being silently interpolated: a gap counts
only when its unitaries are within 0.5 in spectral norm and their
eigenphases leave an admissible test angle.  The crossings
and reduce subcommands always interpolate: the crossing search halves
the pieces of the count's partition through the interpolant, and
reduction marches along the path.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .core import (
    DEFAULT_TOL,
    SymplecticSpace,
    horizontal_frame,
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
    maslov,
    unitary_geodesic,
    unitary_maslov,
)
from .pairs import gamma_reduce_path, pair_maslov, polarized_pair
from .souriau import lagrangian_from_souriau, souriau
from .spectral import (
    boundary_problem,
    eigenvalue_trace,
    spectral_flow,
    verify_coincidence,
)

_PROFILES = {"strict": 0.1, "default": 1.0, "loose": 10.0}


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
    try:
        return np.array(obj, dtype=float)
    except OverflowError:
        # an integer past the float range
        _fail("matrix entries must be finite", where)
    except (TypeError, ValueError):
        _fail(reason, where)


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
    return [lagrangian(space, M) for M in mats]


def _time_samples(obj, where):
    if not isinstance(obj, list) or len(obj) < 2:
        _fail("path needs at least two samples", where)
    return obj


def _lagrangian_nodes(obj, n, where):
    """Times and frame matrices of a path, each checked against n."""
    ts, mats = [], []
    for i, item in enumerate(_time_samples(obj, where)):
        loc = f"{where}[{i}]"
        _check_keys(item, ["t", "frame"], [], loc)
        ts.append(_real_number(item["t"], loc + ".t"))
        mats.append(_frame_matrix(item["frame"], n, loc + ".frame"))
    return ts, mats


def _reference_and_path(obj, tol):
    """Reference frame, node times and node frames of a maslov or
    crossings input."""
    n = _positive_int(obj, "n")
    ref = _frame_matrix(obj["reference"], n, "input.reference")
    ts, mats = _lagrangian_nodes(obj["path"], n, "input.path")
    space = _space_of(obj, tol)
    return lagrangian(space, ref), ts, _frames(space, mats)


def _unitary_nodes(obj, n, where):
    ts, mats = [], []
    for i, item in enumerate(_time_samples(obj, where)):
        loc = f"{where}[{i}]"
        _check_keys(item, ["t", "U"], [], loc)
        ts.append(_real_number(item["t"], loc + ".t"))
        mats.append(_complex_matrix(item["U"], (n, n), loc + ".U"))
    return ts, mats


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


def _geodesic_refiner(ts, nodes, tol):
    """Piecewise principal-log geodesic through the unitaries ``nodes``."""
    segs = []
    for i in range(len(nodes) - 1):
        seg = unitary_geodesic(nodes[i], nodes[i + 1], tol)
        if seg is None:
            raise PreconditionError(
                "adjacent samples are antipodal in the unitary model; "
                "supply intermediate samples",
                where=f"path[{i}]",
            )
        segs.append(seg)

    def refiner(t):
        i = min(
            max(int(np.searchsorted(ts, t, side="right")) - 1, 0),
            len(segs) - 1,
        )
        tau = (t - ts[i]) / (ts[i + 1] - ts[i])
        return segs[i](min(max(tau, 0.0), 1.0))

    return refiner


def _lagrangian_path(ts, frames, factor, tol):
    if factor <= 1:
        return LagrangianPath(
            samples=tuple(zip(ts, frames)), refiner=None
        )
    nodes = _segment_times(ts, factor)
    # the horizontal frame of a general space need not be Lagrangian, so
    # the reference is built in the standard model and pulled back
    space = frames[0].space
    std = space.standardization
    ref = horizontal_frame(std.target)
    if not space.is_standard:
        ref = std.pull_frame(ref)
    geodesic = _geodesic_refiner(ts, [souriau(ref, f) for f in frames], tol)

    def refiner(t):
        return lagrangian_from_souriau(ref, geodesic(t))

    return LagrangianPath(
        samples=tuple((t, refiner(t)) for t in nodes), refiner=refiner
    )


def _unitary_cli_path(ts, mats, factor, tol):
    if factor <= 1:
        return UnitaryPath(samples=tuple(zip(ts, mats)), refiner=None)
    nodes = _segment_times(ts, factor)
    refiner = _geodesic_refiner(ts, mats, tol)
    return UnitaryPath(
        samples=tuple((t, refiner(t)) for t in nodes), refiner=refiner
    )


# --------------------------------------------------------------------------
# deterministic JSON emission
# --------------------------------------------------------------------------


def _fmt(obj):
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValidationError("non-finite value in report", where="emit")
        return "%.17g" % x
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        return "[" + ",".join(_fmt(x) for x in items) + "]"
    if isinstance(obj, dict):
        parts = (
            json.dumps(str(k)) + ":" + _fmt(v)
            for k, v in sorted(obj.items())
        )
        return "{" + ",".join(parts) + "}"
    raise ValidationError(
        f"cannot serialize {type(obj).__name__}", where="emit"
    )


def _emit(report):
    sys.stdout.write(_fmt(report) + "\n")


def _frame_out(frame):
    return [[float(x) for x in row] for row in frame.F]


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


def _count_unitary(ts, mats, args, tol):
    path = _unitary_cli_path(ts, mats, args.refine_factor, tol)
    report = unitary_maslov(path, tol)
    return {"value": int(report.value)}, report


def _cmd_maslov(obj, args, tol):
    _check_keys(
        obj, ["version", "n", "reference", "path"], ["space"], "input"
    )
    lam, ts, frames = _reference_and_path(obj, tol)
    # the index of mu_t against lam is that of its pair unitary
    # W(lam, mu_t), so the path is interpolated and counted as unitaries
    return _count_unitary(ts, [souriau(lam, f) for f in frames], args, tol)


def _cmd_unitary_maslov(obj, args, tol):
    _check_keys(obj, ["version", "n", "path"], [], "input")
    n = _positive_int(obj, "n")
    ts, mats = _unitary_nodes(obj["path"], n, "input.path")
    return _count_unitary(ts, mats, args, tol)


def _cmd_crossings(obj, args, tol):
    _check_keys(
        obj,
        ["version", "n", "reference", "path"],
        ["space", "richardson"],
        "input",
    )
    lam, ts, frames = _reference_and_path(obj, tol)
    path = _lagrangian_path(ts, frames, max(2, args.refine_factor), tol)
    richardson = obj.get("richardson", False)
    if not isinstance(richardson, bool):
        _fail('"richardson" must be a boolean', "input.richardson")
    forms = [
        crossing_form(path, lam, t_star, tol=tol, richardson=richardson)
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
        # the value is the one maslov_via_crossings gives, from forms
        # without the Richardson step even when the rows report them
        if richardson:
            forms = (
                crossing_form(path, lam, c.t_star, tol=tol) for c in forms
            )
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
    sig = kashiwara(f1, f2, f3, tol)
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
        _complex_matrix(u, (n, n), f"input.unitaries[{i}]")
        for i, u in enumerate(us)
    )
    lam = None
    if "reference" in obj:
        ref = _frame_matrix(obj["reference"], n, "input.reference")
        lam = lagrangian(_space_of(obj, tol), ref)
    sig = complex_kashiwara(u1, u2, u3, lam=lam, tol=tol)
    return {"index": int(sig.signature), "nulls": int(sig.nulls)}, None


def _lift(obj, n, where):
    _check_keys(obj, ["U", "alpha"], [], where)
    return LiftedUnitary(
        U=_complex_matrix(obj["U"], (n, n), where + ".U"),
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
        probe = _complex_matrix(obj["probe"], (n, n), "input.probe")
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
    mts, mmats = _lagrangian_nodes(obj["mu_path"], n, "input.mu_path")
    lts, lmats = _lagrangian_nodes(
        obj["lambda_path"], n, "input.lambda_path"
    )
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
    ts, mats = _lagrangian_nodes(obj["path"], nb, "input.path")
    big, small = standard_space(nb, tol), standard_space(nh, tol)
    pp = polarized_pair(
        *_frames(big, big_mats), *_frames(small, small_mats), weights
    )
    frames = _frames(big, mats)
    # Reduction stretches frames by the diagonal weights, so the reduced
    # path can need samples between nodes that resolve the input path;
    # always build a refinable path.
    path = _lagrangian_path(ts, frames, max(2, args.refine_factor), tol)
    reduced = gamma_reduce_path(pp, path, tol)
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
            {"t": float(t), "frame": _frame_out(f)}
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


def _cmd_spectral_flow(obj, args, tol):
    bp = _boundary_problem(obj)
    report = spectral_flow(bp, window=args.window, tol=tol)
    trace = None
    if args.trace is not None:
        trace = eigenvalue_trace(bp, window=args.window, tol=tol)
    return {"value": int(report.value)}, trace


def _cmd_verify_coincidence(obj, args, tol):
    bp = _boundary_problem(obj)
    out = verify_coincidence(bp, window=args.window, tol=tol)
    trace = None
    if args.trace is not None:
        trace = eigenvalue_trace(bp, window=args.window, tol=tol)
    return out, trace


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


def _parser():
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
        help="eigenvalue window for spectral-flow commands (default 8)",
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
    except ValidationError as exc:
        _emit({"reason": exc.reason, "where": exc.where})
        return 2
    except AmbiguityError as exc:
        _emit({"reason": exc.reason, "where": exc.where})
        return 3
    except PreconditionError as exc:
        _emit({"reason": exc.reason, "where": exc.where})
        return 4


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
