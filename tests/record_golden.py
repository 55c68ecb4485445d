"""Record the golden CLI outputs that ``test_golden.py`` compares against.

    PYTHONPATH=src python tests/record_golden.py

Builds the ``crossings``, ``reduce``, ``maslov``, ``unitary-maslov`` and
``pair-maslov`` inputs from closed-form spinner paths, the
``spectral-flow`` and ``verify-coincidence`` inputs from decoupled
eigenvalue ladders, and the ``kashiwara``, ``complex-kashiwara``,
``leray`` and ``hormander`` inputs from seeded random Lagrangians and
unitaries.  Runs each through ``masidx.cli.run`` and writes input,
arguments, exit code and stdout to ``tests/golden/cli.json``.  Rerun it
only when an output is meant to change, and say why in the change that
does.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

from masidx import (
    cli,
    haar_unitary,
    horizontal_frame,
    random_lagrangian,
    souriau,
    standard_space,
    vertical_frame,
)
from conftest import ladder_body, random_structure_space, spinner_path

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"


def _real(M):
    return np.asarray(M, dtype=float).tolist()


def _complex(U):
    U = np.asarray(U, dtype=complex)
    return np.stack([U.real, U.imag], axis=-1).tolist()


def _space_json(space):
    return {"J": _real(space.J), "G": _real(space.G)}


def _spinner(n, phases, rates, rng, space=None, num=5):
    """Reference and ``num`` node frames of a spinner, pulled into
    ``space``."""
    path, ref = spinner_path(standard_space(n), phases, rates, rng=rng,
                             num=num)
    pull = np.eye(2 * n) if space is None else space.standardization.inverse
    return pull @ ref.F, [(t, pull @ f.F) for t, f in path.samples]


def _crossings_body(n, phases, rates, rng, space=None, richardson=False,
                    num=5):
    ref, frames = _spinner(n, phases, rates, rng, space, num)
    body = {"version": 1, "n": n, "reference": _real(ref),
            "path": [{"t": t, "frame": _real(F)} for t, F in frames]}
    if space is not None:
        body["space"] = {"J": _real(space.J), "G": _real(space.G)}
    if richardson:
        body["richardson"] = True
    return body


def _unitary_body(body):
    """unitary-maslov input: the pair unitaries of a maslov input."""
    ref, ts, frames = cli._reference_and_path(body, cli.DEFAULT_TOL)
    path = [
        {"t": t, "U": _complex(souriau(ref, f))} for t, f in zip(ts, frames)
    ]
    return {"version": 1, "n": body["n"], "path": path}


def _reduce_body(n, phases, rates, rng, i_plus_diag):
    ref, frames = _spinner(n, phases, rates, rng)
    vert = _real(vertical_frame(standard_space(n)).F)
    return {"version": 1, "n_big": n, "n_small": n,
            "lam_plus": vert, "lam_minus": _real(ref),
            "ell_plus": vert, "ell_minus": _real(ref),
            "i_plus_diag": list(i_plus_diag),
            "path": [{"t": t, "frame": _real(F)} for t, F in frames]}


def _frames_body(keys, n, rng, space=None):
    """Random Lagrangian frames of ``space`` (standard when None), one
    per key."""
    sp = standard_space(n) if space is None else space
    body = {"version": 1, "n": n}
    if space is not None:
        body["space"] = _space_json(space)
    for key in keys:
        body[key] = _real(random_lagrangian(sp, rng).F)
    return body


def _kashiwara_body(n, rng, space=None, repeat=False):
    """Three random frames; with ``repeat`` the third is the first, so
    the triple form has nulls."""
    sp = standard_space(n) if space is None else space
    frames = [_real(random_lagrangian(sp, rng).F) for _ in range(3)]
    if repeat:
        frames[2] = frames[0]
    body = {"version": 1, "n": n, "frames": frames}
    if space is not None:
        body["space"] = _space_json(space)
    return body


def _complex_kashiwara_body(n, rng, space=None):
    """Pair unitaries of three random Lagrangians against the horizontal;
    with ``space`` the graphs are built over a random reference there."""
    ref = horizontal_frame(standard_space(n))
    us = [souriau(ref, random_lagrangian(ref.space, rng)) for _ in range(3)]
    body = {"version": 1, "n": n, "unitaries": [_complex(U) for U in us]}
    if space is not None:
        body["space"] = _space_json(space)
        body["reference"] = _real(random_lagrangian(space, rng).F)
    return body


def _lift_json(U, winding):
    return {"U": _complex(U),
            "alpha": float(np.angle(np.linalg.det(U)) + 2 * np.pi * winding)}


def _leray_body(n, rng, shared=False, probe=False):
    """Two Haar lifts; ``shared`` makes the second the first, one turn on,
    which no pair is less transversal than, and ``probe`` supplies one."""
    U1 = haar_unitary(n, rng)
    U2 = U1 if shared else haar_unitary(n, rng)
    body = {"version": 1, "n": n, "lift1": _lift_json(U1, -1),
            "lift2": _lift_json(U2, 1 if shared else 2)}
    if probe:
        body["probe"] = _complex(haar_unitary(n, rng))
    return body


def _pair_body(n, phases, rates, rng, moving_lambda=None, space=None):
    """pair-maslov input: a spinner mu leg against a lambda leg that is
    the constant reference, or the spinner ``moving_lambda`` =
    (phases, rates) on the same node times."""
    ref, frames = _spinner(n, phases, rates, rng, space)
    if moving_lambda is None:
        lam = [(0.0, ref), (1.0, ref)]
    else:
        _, lam = _spinner(n, *moving_lambda, rng, space)
    body = {"version": 1, "n": n,
            "mu_path": [{"t": t, "frame": _real(F)} for t, F in frames],
            "lambda_path": [{"t": t, "frame": _real(F)} for t, F in lam]}
    if space is not None:
        body["space"] = _space_json(space)
    return body


# (phases, rates) of the spinner behind each crossings case, with and
# without the "-richardson" suffix
CROSSINGS_SPINNERS = {
    "crossings-standard-3": ([0.4, -1.9, 2.6], [1.8, -1.3, 0.9]),
    "crossings-general-2": ([0.3, -2.5], [1.5, -0.6]),
}


def cases():
    """(id, command, args, input) of every golden case."""
    phases, rates = CROSSINGS_SPINNERS["crossings-standard-3"]
    general = random_structure_space(2, np.random.default_rng(11))
    out = []
    for richardson in (False, True):
        suffix = "-richardson" if richardson else ""
        out.append((
            "crossings-standard-3" + suffix, "crossings",
            ["--refine-factor", "2"],
            _crossings_body(3, phases, rates, np.random.default_rng(5),
                            richardson=richardson),
        ))
        out.append((
            "crossings-general-2" + suffix, "crossings",
            ["--refine-factor", "2"],
            _crossings_body(2, *CROSSINGS_SPINNERS["crossings-general-2"],
                            np.random.default_rng(6), general, richardson),
        ))
    out.append((
        "reduce-standard-2", "reduce", ["--refine-factor", "2"],
        _reduce_body(2, [0.3, -2.5], [1.5, -0.6], np.random.default_rng(7),
                     [0.7, 1.6]),
    ))
    # at factor 1 the nodes are all the count gets: 17 resolve the path
    for factor, num in ((1, 17), (2, 5)):
        for name, body in (
            ("standard-3", _crossings_body(
                3, phases, rates, np.random.default_rng(8), num=num)),
            ("general-2", _crossings_body(
                2, [0.3, -2.5], [1.5, -0.6], np.random.default_rng(9),
                general, num=num)),
        ):
            args = ["--refine-factor", str(factor)]
            out.append((f"maslov-{name}-r{factor}", "maslov", args, body))
            out.append((f"unitary-maslov-{name}-r{factor}", "unitary-maslov",
                        args, _unitary_body(body)))
    # closed-form flows 1, -2, 2 and 0; in the last, two ladders meet at
    # t = 0.35, s = 0.725
    for command in ("spectral-flow", "verify-coincidence"):
        for name, a0, r in (
            ("ladder-1-up", [0.3], [3.5]),
            ("ladder-1-down", [1.0], [-4.2]),
            ("ladders-2-up", [0.3, -0.3], [3.5, 3.2]),
            ("ladders-2-meet", [0.2, 0.9], [1.5, -0.5]),
        ):
            out.append((f"{command}-{name}", command, [], ladder_body(a0, r)))
    rng = np.random.default_rng(12)
    out += [
        ("kashiwara-standard-3", "kashiwara", [], _kashiwara_body(3, rng)),
        ("kashiwara-general-2", "kashiwara", [],
         _kashiwara_body(2, rng, general)),
        ("kashiwara-nulls-2", "kashiwara", [],
         _kashiwara_body(2, rng, repeat=True)),
        ("complex-kashiwara-3", "complex-kashiwara", [],
         _complex_kashiwara_body(3, rng)),
        ("complex-kashiwara-general-2", "complex-kashiwara", [],
         _complex_kashiwara_body(2, rng, general)),
        ("leray-transversal-3", "leray", [], _leray_body(3, rng)),
        ("leray-shared-2", "leray", ["--seed", "4"],
         _leray_body(2, rng, shared=True)),
        ("leray-probe-2", "leray", [], _leray_body(2, rng, probe=True)),
        ("hormander-standard-2", "hormander", [],
         _frames_body(["ell0", "ell1", "lam", "mu"], 2, rng)),
        ("hormander-standard-3", "hormander", ["--seed", "3"],
         _frames_body(["ell0", "ell1", "lam", "mu"], 3, rng)),
        ("hormander-general-2", "hormander", [],
         _frames_body(["ell0", "ell1", "lam", "mu"], 2, rng, general)),
        ("pair-maslov-constant-3", "pair-maslov", ["--refine-factor", "2"],
         _pair_body(3, phases, rates, np.random.default_rng(13))),
        ("pair-maslov-moving-2", "pair-maslov", ["--refine-factor", "2"],
         _pair_body(2, [0.3, -2.5], [1.5, -0.6], np.random.default_rng(14),
                    moving_lambda=([1.1, 2.0], [-0.7, 1.2]))),
        ("pair-maslov-general-2", "pair-maslov", ["--refine-factor", "2"],
         _pair_body(2, [0.3, -2.5], [1.5, -0.6], np.random.default_rng(15),
                    space=general)),
    ]
    return out


def run_case(command, args, body):
    """(exit code, stdout) of one CLI run on ``body``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "input.json"
        src.write_text(json.dumps(body))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run([command, str(src), *args])
    return code, buf.getvalue()


def main():
    records = []
    for cid, command, args, body in cases():
        code, stdout = run_case(command, args, body)
        records.append({"id": cid, "command": command, "args": args,
                        "input": body, "exit": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
