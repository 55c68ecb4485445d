"""Self-tests of the benchmark: closed forms, tracing, byte-identical output.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import problems as P  # noqa: E402
from oracles import signature_brute, trajectory_count  # noqa: E402
from tracing import ATTRIBUTES, FUNCTIONS, Tracer  # noqa: E402

from masidx import (  # noqa: E402
    cli,
    haar_unitary,
    horizontal_frame,
    lagrangian,
    souriau,
    standard_space,
)


def _nodes(rec):
    return [item["t"] for item in rec["input"]["path"]]


def _complex(obj):
    A = np.array(obj)
    return A[..., 0] + 1j * A[..., 1]


# --------------------------------------------------------------------------
# closed forms against the trajectory oracle


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 4])
def test_lagrangian_spinner_matches_oracle(seed, n):
    speeds = P.stratified_speeds(n, seed, 4, 0.3, 3.0)
    rng = np.random.default_rng(seed)
    rec = P.spinner_problem("m", "maslov", rng, *P.spinner_phases(rng, speeds),
                            5, 2)
    replay = np.random.default_rng(seed)
    phases, rates = P.spinner_phases(replay, speeds)
    Q = P._orthogonal(n, replay)

    def W(t):
        return (Q * np.exp(1j * (phases + math.pi * rates * t))) @ Q.T

    sp = standard_space(n)
    ref = lagrangian(sp, np.array(rec["input"]["reference"]))
    for item in rec["input"]["path"]:
        got = souriau(ref, lagrangian(sp, np.array(item["frame"])))
        assert np.allclose(got, W(item["t"]), atol=1e-9)
    assert trajectory_count(W, _nodes(rec)) == rec["expect"]["value"]


@pytest.mark.parametrize("seed", range(4))
def test_unitary_spinner_matches_oracle(seed):
    speeds = P.stratified_speeds(4, seed, 4, 0.3, 3.0)
    rng = np.random.default_rng(seed)
    rec = P.unitary_problem("u", rng, *P.spinner_phases(rng, speeds), 5, 2)
    replay = np.random.default_rng(seed)
    phases, rates = P.spinner_phases(replay, speeds)
    V = haar_unitary(4, replay)

    def U(t):
        return (V * np.exp(1j * (phases + math.pi * rates * t))) @ V.conj().T

    for item in rec["input"]["path"]:
        assert np.allclose(_complex(item["U"]), U(item["t"]), atol=1e-12)
    assert trajectory_count(U, _nodes(rec)) == rec["expect"]["value"]


@pytest.mark.parametrize("seed", range(6))
def test_line_rotation_count_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    a0, a1, b = rng.uniform(-3.0, 3.0, 3)

    def U(t):
        a = a0 + (a1 - a0) * t
        return np.array([[np.exp(1j * (2.0 * (a - b) + math.pi))]])

    assert P.line_rotation_count(a0, a1, b) == trajectory_count(U, [0.0, 1.0])


@pytest.mark.parametrize("seed", range(6))
def test_flow_closed_form_matches_oracle(seed):
    """Ladder a_j(t) + k pi passes 0 exactly when exp(i(2 a_j + pi))
    passes -1."""
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(-2.0, 2.0, 3)
    r = rng.uniform(-1.5, 1.5, 3) * math.pi

    def U(t):
        return np.diag(np.exp(1j * (2.0 * (a0 + r * t) + math.pi)))

    assert P.flow_expected(a0, r) == trajectory_count(U, [0.0, 1.0])


@pytest.mark.parametrize("seed", range(4))
def test_kashiwara_closed_form_matches_brute_signature(seed):
    rec = P.kashiwara_problem("k", 3, np.random.default_rng(seed))
    n = 3
    gram = standard_space(n).gram
    F = [np.array(f) for f in rec["input"]["frames"]]
    W12, W23, W31 = (F[0].T @ gram @ F[1], F[1].T @ gram @ F[2],
                     F[2].T @ gram @ F[0])
    z = np.zeros((n, n))
    M = 0.5 * np.block([[z, W12, W31.T], [W12.T, z, W23], [W31, W23.T, z]])
    p, q = signature_brute(M)
    assert (p - q, 3 * n - p - q) == (rec["expect"]["index"],
                                      rec["expect"]["nulls"])


def test_leray_closed_form_on_worked_examples():
    # lifts (i, pi/2) and (1, 0) give 1/2; winding a lift adds one
    assert P.leray_value([math.pi / 2], [0.0], 0, 0) == pytest.approx(0.5)
    assert P.leray_value([math.pi / 2], [0.0], 1, 0) == pytest.approx(1.5)
    # equal unitaries: only the lift difference remains
    assert P.leray_value([0.7, 0.2], [0.7, 0.2], 2, 1) == pytest.approx(1.0)


def test_complex_triple_is_the_pair_map_of_the_real_one():
    seed = 3
    rec = P.complex_kashiwara_problem("ck", 2, np.random.default_rng(seed))
    replay = np.random.default_rng(seed)
    angles = P._generic_angles(3, 2, replay)
    V = haar_unitary(2, replay)
    ref = horizontal_frame(standard_space(2))
    for a, U in zip(angles, rec["input"]["unitaries"]):
        (F,) = P._line_frames([a], V)
        got = souriau(ref, lagrangian(standard_space(2), F))
        assert np.allclose(got, _complex(U), atol=1e-9)


def test_crossing_times_are_the_spinner_count():
    rng = np.random.default_rng(0)
    for _ in range(20):
        phases, rates = P.spinner_phases(rng, rng.uniform(0.3, 3.0, 3))
        signs = [s for _, s in P.crossing_times(phases, rates)]
        assert sum(signs) == P.spinner_expected(phases, rates)


# --------------------------------------------------------------------------
# tracing


def _bindings():
    snap = {}
    for name, mod in sys.modules.items():
        if name == "masidx" or name.startswith("masidx."):
            for attr, value in vars(mod).items():
                if callable(value):
                    snap[(name, attr)] = value
    for owner, attr, _ in ATTRIBUTES:
        snap[(repr(owner), attr)] = owner.__dict__[attr]
    snap[("numpy.linalg", "norm")] = np.linalg.norm
    return snap


def test_wrappers_restore_every_original():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        for modname, attr, _ in FUNCTIONS:
            assert during[(modname, attr)] is not before[(modname, attr)]
        norm = ("numpy.linalg", "norm")
        assert during[norm] is not before[norm]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _outputs(records, tmp_path):
    out = []
    for i, rec in enumerate(records):
        path = tmp_path / f"p{i}.json"
        path.write_text(json.dumps(rec["input"]))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.run([rec["command"], str(path)] + rec["args"])
        out.append(buf.getvalue())
    return out


def test_traced_and_untraced_output_are_byte_identical(tmp_path):
    rng = np.random.default_rng(11)

    def draw(n):
        return P.spinner_phases(rng, rng.uniform(0.3, 3.0, n))

    records = [
        P.spinner_problem("m", "maslov", rng, *draw(2), 5, 2),
        P.unitary_problem("u", rng, *draw(2), 5, 2),
        P.spinner_problem("pm", "pair-maslov", rng, *draw(1), 5, 2),
        P.crossings_problem("c", rng, [2.0]),
        P.reduce_problem("r", rng, *draw(1), 5, 2),
        P.kashiwara_problem("k", 2, rng),
        P.complex_kashiwara_problem("ck", 2, rng),
        P.leray_problem("l", 2, rng, shared=1),
        P.hormander_problem("h", 2, rng),
        P.flow_problem("sf", "spectral-flow", 1, rng, 2.0),
        P.flow_problem("vc", "verify-coincidence", 1, rng, 2.0),
    ]
    plain = _outputs(records, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _outputs(records, tmp_path)
    finally:
        tracer.restore()
    assert traced == plain
    layers = tracer.layer_metrics(len(records), 0.0)
    assert layers["souriau.souriau.calls"] > 0
    assert layers["crossings.point_evals"] > 0
    assert layers["spectral.time_samples"] > 0
    assert layers["paths.refine_ratio"] >= 1.0
