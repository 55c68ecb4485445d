"""Record the golden CLI outputs that ``test_golden.py`` compares against.

    PYTHONPATH=src python tests/record_golden.py

Builds the ``crossings``, ``reduce``, ``maslov`` and ``unitary-maslov``
inputs from closed-form spinner paths, and the ``spectral-flow`` and
``verify-coincidence`` inputs from decoupled eigenvalue ladders, runs
each through
``masidx.cli.run`` and writes input, arguments, exit code and stdout to
``tests/golden/cli.json``.  Rerun it only when an
output is meant to change, and say why in the change that does.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

from masidx import cli, souriau, standard_space, vertical_frame
from conftest import ladder_body, random_structure_space, spinner_path

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"


def _real(M):
    return np.asarray(M, dtype=float).tolist()


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
    space = standard_space(body["n"])
    if "space" in body:
        space = cli._space_of(body, cli.DEFAULT_TOL)
    ref = cli._frame(body["reference"], space, "reference")
    path = []
    for node in body["path"]:
        W = souriau(ref, cli._frame(node["frame"], space, "frame"))
        path.append({"t": node["t"],
                     "U": np.stack([W.real, W.imag], axis=-1).tolist()})
    return {"version": 1, "n": body["n"], "path": path}


def _reduce_body(n, phases, rates, rng, i_plus_diag):
    ref, frames = _spinner(n, phases, rates, rng)
    vert = _real(vertical_frame(standard_space(n)).F)
    return {"version": 1, "n_big": n, "n_small": n,
            "lam_plus": vert, "lam_minus": _real(ref),
            "ell_plus": vert, "ell_minus": _real(ref),
            "i_plus_diag": list(i_plus_diag),
            "path": [{"t": t, "frame": _real(F)} for t, F in frames]}


def cases():
    """(id, command, args, input) of every golden case."""
    phases, rates = [0.4, -1.9, 2.6], [1.8, -1.3, 0.9]
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
            _crossings_body(2, [0.3, -2.5], [1.5, -0.6],
                            np.random.default_rng(6), general, richardson),
        ))
    out.append((
        "reduce-standard-2", "reduce", ["--refine-factor", "2"],
        _reduce_body(2, [0.3, -2.5], [1.5, -0.6], np.random.default_rng(7),
                     [0.7, 1.6]),
    ))
    # factor 1 needs nodes within the adjacency bound: 17 of them
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
