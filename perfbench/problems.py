"""Seeded problem generators with independently known answers.

Every generator returns one problem record:

    {"id": str, "command": str, "args": [str, ...],
     "input": <CLI JSON object>, "expect": {<output key>: <value>, ...}}

The expected values never come from the index code under test.  Path
problems are spinners, whose eigenphases move linearly in t, so their
index is the floor count of ``tests/conftest.spinner_expected``.  Triples
and quadruples are direct sums of lines in R^2, whose signatures have
closed forms, rotated by one Haar unitary.  Leray lifts are diagonal up to
the same rotation, so their value is read off from their phases.  Flow
families decouple into N scalar ladders s = a_j(t) + k pi.

masidx is used only to turn these closed-form objects into the frames the
CLI reads (``lagrangian_from_souriau``, ``standardize``).
"""

import math
import os
import sys

import numpy as np

_TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests")
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)

from conftest import spinner_expected  # noqa: E402
from oracles import floor_count  # noqa: E402

from masidx import (  # noqa: E402
    compatible_structure,
    haar_unitary,
    horizontal_frame,
    lagrangian_from_souriau,
    realify,
    standard_space,
)

TWO_PI = 2.0 * math.pi
CLEARANCE = 0.05


# --------------------------------------------------------------------------
# JSON encodings the CLI reads


def real_json(M):
    return np.asarray(M, dtype=float).tolist()


def complex_json(U):
    U = np.asarray(U, dtype=complex)
    return np.stack([U.real, U.imag], axis=-1).tolist()


def _node_times(nodes):
    return [float(t) for t in np.linspace(0.0, 1.0, nodes)]


def _orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _clear(x, clearance=CLEARANCE):
    """True when every entry is at least ``clearance`` from 2 pi Z."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.abs(x - TWO_PI * np.round(x / TWO_PI)) > clearance))


def stratified_speeds(n, k, copies, lo, hi):
    """Rate magnitudes of copy k of ``copies``: the n * copies evenly spaced
    values of [lo, hi], dealt round-robin, so that every seed sweeps the
    same phases and only positions, signs and orientations vary."""
    grid = lo + (hi - lo) * (np.arange(n * copies) + 0.5) / (n * copies)
    return grid[k::copies]


def spinner_phases(rng, speeds):
    """Start phases and signed rates, |rates| = ``speeds``, whose endpoints
    stay clear of -1.

    Eigenphase j moves from phases[j] to phases[j] + pi * rates[j]; both
    ends keep ``CLEARANCE`` from pi, so the closed-form count is stable
    under the CLI's tolerances.
    """
    n = len(speeds)
    phases, rates = np.empty(n), np.empty(n)
    for j, speed in enumerate(speeds):
        while True:
            p = rng.uniform(-math.pi, math.pi)
            r = speed * rng.choice([-1.0, 1.0])
            if _clear([p - math.pi, p - math.pi + math.pi * r]):
                phases[j], rates[j] = p, r
                break
    return phases, rates


# --------------------------------------------------------------------------
# Lagrangian and unitary spinner paths


def _spinner_frames(n, phases, rates, Q, nodes):
    """Standard-model frames whose pair unitary against the horizontal
    reference is Q diag(exp(i(phases + pi rates t))) Q^T."""
    ref = horizontal_frame(standard_space(n))
    frames = []
    for t in _node_times(nodes):
        W = (Q * np.exp(1j * (phases + math.pi * rates * t))) @ Q.T
        frames.append((t, lagrangian_from_souriau(ref, W).F))
    return ref.F, frames


def _random_space(n, rng):
    """Compatible structure of the form S^T J_std S, S near the identity,
    so the polar split stays well conditioned."""
    J = realify(1j * np.eye(n))
    S = np.eye(2 * n) + 0.3 * rng.standard_normal((2 * n, 2 * n)) / np.sqrt(n)
    return compatible_structure(S.T @ J @ S)


def _pull_back(space, ref, frames):
    """Frames of a standard-model path moved into ``space``.

    ``souriau`` pushes general spaces through the same standardization,
    so the index, and hence the expected value, is unchanged.
    """
    inv = space.standardization.inverse
    return inv @ ref, [(t, inv @ F) for t, F in frames]


def _path_json(frames):
    return [{"t": t, "frame": real_json(F)} for t, F in frames]


def _space_json(space):
    return {"J": real_json(space.J), "G": real_json(space.G)}


def spinner_problem(pid, command, rng, phases, rates, nodes, refine_factor,
                    space=False):
    """maslov, crossings or pair-maslov on one spinner path.

    pair-maslov pairs the spinner with the constant reference leg, whose
    pair index is the plain index of the spinner.
    """
    n = len(phases)
    Q = _orthogonal(n, rng)
    ref, frames = _spinner_frames(n, phases, rates, Q, nodes)
    body = {"version": 1, "n": n}
    if space:
        sp = _random_space(n, rng)
        ref, frames = _pull_back(sp, ref, frames)
        body["space"] = _space_json(sp)
    if command == "pair-maslov":
        body["mu_path"] = _path_json(frames)
        body["lambda_path"] = _path_json([(0.0, ref), (1.0, ref)])
    else:
        body["reference"] = real_json(ref)
        body["path"] = _path_json(frames)
    rec = _record(pid, command, refine_factor, body,
                  {"value": spinner_expected(phases, rates)})
    if space:
        # any "space" field dies in cli._space_of, which omits n
        rec["defect"] = "a"
    return rec


def crossing_times(phases, rates):
    """Closed-form crossings of a spinner: (t, sign) where an eigenphase
    passes pi, for t in (0, 1)."""
    out = []
    for p, r in zip(phases, rates):
        a, b = sorted((p, p + math.pi * r))
        k = math.ceil((a - math.pi) / TWO_PI)
        while math.pi + TWO_PI * k < b:
            out.append(((math.pi + TWO_PI * k - p) / (math.pi * r),
                        1 if r > 0 else -1))
            k += 1
    return sorted(out)


def crossings_problem(pid, rng, speeds, space=False, separation=0.1):
    """crossings on a 5-node spinner whose crossings lie at least
    ``separation`` apart in t (defect b).  The number of crossings is the
    expected one for its speeds, so that every seed asks for the same
    number of root searches."""
    count = int(round(sum(speeds) / 2.0))
    while True:
        phases, rates = spinner_phases(rng, speeds)
        ts = [t for t, _ in crossing_times(phases, rates)]
        if len(ts) == count and all(
            b - a >= separation for a, b in zip(ts, ts[1:])
        ):
            break
    rec = spinner_problem(pid, "crossings", rng, phases, rates, 5, 2,
                          space=space)
    rec["crossings"] = crossing_times(phases, rates)
    return rec


def unitary_problem(pid, rng, phases, rates, nodes, refine_factor):
    """unitary-maslov on V diag(exp(i(phases + pi rates t))) V^H."""
    n = len(phases)
    V = haar_unitary(n, rng)
    path = []
    for t in _node_times(nodes):
        U = (V * np.exp(1j * (phases + math.pi * rates * t))) @ V.conj().T
        path.append({"t": t, "U": complex_json(U)})
    body = {"version": 1, "n": n, "path": path}
    return _record(pid, "unitary-maslov", refine_factor, body,
                   {"value": spinner_expected(phases, rates)})


def reduce_problem(pid, rng, phases, rates, nodes, refine_factor):
    """reduce on a spinner with coordinate polarizations.

    lam_minus is the spinner's horizontal reference and the reduction
    preserves the index against it, so both integers equal the spinner's.
    """
    n = len(phases)
    Q = _orthogonal(n, rng)
    ref, frames = _spinner_frames(n, phases, rates, Q, nodes)
    vert = np.vstack([np.zeros((n, n)), np.eye(n)])
    expected = spinner_expected(phases, rates)
    body = {
        "version": 1,
        "n_big": n,
        "n_small": n,
        "lam_plus": real_json(vert),
        "lam_minus": real_json(ref),
        "ell_plus": real_json(vert),
        "ell_minus": real_json(ref),
        "i_plus_diag": [float(x) for x in rng.uniform(0.5, 2.0, n)],
        "path": _path_json(frames),
    }
    return _record(pid, "reduce", refine_factor, body,
                   {"value": expected, "big_value": expected})


# --------------------------------------------------------------------------
# triples and quadruples: direct sums of lines in R^2


def _line_frames(angle_sets, V):
    """One frame per column of angles: line j at angle[j] in plane j,
    rotated by realify(V)."""
    n = len(angle_sets[0])
    R = realify(V)
    out = []
    for angles in angle_sets:
        M = np.vstack([np.diag(np.cos(angles)), np.diag(np.sin(angles))])
        out.append(R @ M)
    return out


def _generic_angles(k, n, rng, gap=0.2):
    """k angles per plane, pairwise at least ``gap`` apart modulo pi."""
    out = np.empty((k, n))
    for j in range(n):
        while True:
            a = rng.uniform(0.0, math.pi, k)
            d = np.abs(a[:, None] - a[None, :]) % math.pi
            d = np.minimum(d, math.pi - d)
            if np.all(d[~np.eye(k, dtype=bool)] > gap):
                out[:, j] = a
                break
    return out


def line_triple_index(a1, a2, a3):
    """Kashiwara signature of three distinct lines of R^2, summed over
    planes: the triple form is 1/2 [[0, s12, s31], [s12, 0, s23],
    [s31, s23, 0]] with s_ij = sin(a_j - a_i), whose determinant has the
    sign of s12 s23 s31 while its trace vanishes."""
    prod = np.sin(a2 - a1) * np.sin(a3 - a2) * np.sin(a1 - a3)
    return int(-np.sum(np.sign(prod)))


def kashiwara_problem(pid, n, rng):
    a1, a2, a3 = _generic_angles(3, n, rng)
    V = haar_unitary(n, rng)
    frames = _line_frames([a1, a2, a3], V)
    body = {"version": 1, "n": n, "frames": [real_json(F) for F in frames]}
    return _record(pid, "kashiwara", 1, body,
                   {"index": line_triple_index(a1, a2, a3), "nulls": 0})


def complex_kashiwara_problem(pid, n, rng):
    """Pair unitaries of the same rotated line triples against the
    horizontal: a line at angle a has unitary -exp(2ia), and the rotation
    V acts as W -> V W V^T."""
    a1, a2, a3 = _generic_angles(3, n, rng)
    V = haar_unitary(n, rng)
    us = [(V * -np.exp(2j * a)) @ V.T for a in (a1, a2, a3)]
    body = {"version": 1, "n": n, "unitaries": [complex_json(U) for U in us]}
    return _record(pid, "complex-kashiwara", 1, body,
                   {"index": line_triple_index(a1, a2, a3), "nulls": 0})


def line_rotation_count(a0, a1, b):
    """Index of the line rotating from angle a0 to a1 against the line at
    b: its pair unitary is exp(i(2(a - b) + pi))."""
    return floor_count(2.0 * (a0 - b), 2.0 * (a1 - b))


def hormander_problem(pid, n, rng):
    """sigma(ell0, ell1; lam, mu) on rotated line quadruples.

    The index is path independent, so the per-plane straight rotation
    from ell0 to ell1 gives it in closed form.
    """
    e0, lam, mu = _generic_angles(3, n, rng)
    e1 = np.empty(n)
    for j in range(n):
        while True:
            e1[j] = e0[j] + rng.uniform(-1.4, 1.4)
            ends = 2.0 * np.array([e1[j] - lam[j], e1[j] - mu[j]])
            if _clear(ends, 0.4):
                break
    V = haar_unitary(n, rng)
    f0, f1, fl, fm = _line_frames([e0, e1, lam, mu], V)
    expected = sum(
        line_rotation_count(e0[j], e1[j], lam[j])
        - line_rotation_count(e0[j], e1[j], mu[j])
        for j in range(n)
    )
    body = {
        "version": 1,
        "n": n,
        "ell0": real_json(f0),
        "ell1": real_json(f1),
        "lam": real_json(fl),
        "mu": real_json(fm),
    }
    return _record(pid, "hormander", 1, body, {"value": int(expected)})


def leray_value(phi, psi, k1, k2):
    """Leray index of diagonal lifts with eigenphases phi, psi and
    determinant phases sum(phi) + 2 pi k1, sum(psi) + 2 pi k2.

    A plane where the phases agree contributes no argument term, which
    is the value of the probe formula on U1 = U2.
    """
    d = np.asarray(phi) - np.asarray(psi)
    shared = np.abs(d) < 1e-12
    args = np.angle(np.exp(1j * (d + math.pi)))
    total = np.sum(d) + TWO_PI * (k1 - k2) - np.sum(args[~shared])
    return float(total / TWO_PI)


def leray_problem(pid, n, rng, shared=0):
    """leray on V diag(e^{i phi}) V^H and V diag(e^{i psi}) V^H.

    ``shared`` planes get equal phases, so the pair is not transversal
    and the CLI takes the probe route.
    """
    while True:
        phi = rng.uniform(-math.pi, math.pi, n)
        psi = rng.uniform(-math.pi, math.pi, n)
        psi[:shared] = phi[:shared]
        if _clear((phi - psi)[shared:]):
            break
    k1, k2 = (int(k) for k in rng.integers(-2, 3, 2))
    V = haar_unitary(n, rng)
    lifts = {}
    for name, ph, k in (("lift1", phi, k1), ("lift2", psi, k2)):
        U = (V * np.exp(1j * ph)) @ V.conj().T
        lifts[name] = {
            "U": complex_json(U),
            "alpha": float(np.sum(ph) + TWO_PI * k),
        }
    body = {"version": 1, "n": n, **lifts}
    return _record(pid, "leray", 1, body,
                   {"value": leray_value(phi, psi, k1, k2)})


# --------------------------------------------------------------------------
# boundary-value families


def flow_expected(a0, r):
    """Net upward passages through 0 of the ladders s = a_j(t) + k pi."""
    a0, r = np.asarray(a0), np.asarray(r)
    return int(np.sum(np.floor((a0 + r) / math.pi) - np.floor(a0 / math.pi)))


def _ladder_gaps_ok(a0, r, lo=0.2, band=(1.5, 2.2)):
    """True when, for every t in [0, 1], the gaps between neighbouring
    ladder values a_j(t) mod pi are at least ``lo`` (defect c: ladders
    that meet) and outside ``band`` (defect e: one value leaving the
    detection window below while another enters above)."""
    if len(a0) == 1:
        return True
    for t in np.linspace(0.0, 1.0, 101):
        v = np.sort(np.mod(a0 + r * t, math.pi))
        gaps = np.diff(np.append(v, v[0] + math.pi))
        if gaps.min() < lo or np.any((gaps > band[0]) & (gaps < band[1])):
            return False
    return True


def _flow_record(pid, command, a0, r, O, samples=5):
    """B = 0, C_t = blockdiag(a_t, a_t), a_t = O^T diag(a0 + r t) O, with
    horizontal boundary conditions at both ends.

    Each scalar block rotates the boundary line at speed s - a_j, so the
    eigenvalues are the ladders s = a_j(t) + k pi.
    """
    N = len(a0)
    family = []
    for t in _node_times(samples):
        a = (O.T * (a0 + r * t)) @ O
        z = np.zeros((N, N))
        family.append({"t": t, "C": real_json(np.block([[a, z], [z, a]]))})
    lam = np.vstack([np.eye(N), np.zeros((N, N))])
    body = {
        "version": 1,
        "N": N,
        "B": real_json(np.zeros((2 * N, 2 * N))),
        "family": family,
        "lambda0": real_json(lam),
        "lambda1": real_json(lam),
    }
    value = flow_expected(a0, r)
    expect = {"value": value}
    if command == "verify-coincidence":
        expect = {"sf": value, "mas": value}
    return _record(pid, command, 1, body, expect)


def flow_problem(pid, command, N, rng, speed, window=8.0):
    """Random decoupled family whose ladders move at about +-``speed``,
    keep the gaps of ``_ladder_gaps_ok``, and start and end with spectra
    clear of 0 and of the window edges."""
    while True:
        a0 = rng.uniform(-2.0, 2.0, N)
        r = speed * rng.choice([-1.0, 1.0]) + rng.uniform(-0.5, 0.5, N)
        ends = np.concatenate([a0, a0 + r])
        rem = np.mod(ends, math.pi)
        edge = np.mod(ends - window, math.pi)
        if (np.minimum(rem, math.pi - rem).min() > 0.1
                and np.minimum(edge, math.pi - edge).min() > 0.1
                and _ladder_gaps_ok(a0, r)):
            break
    return _flow_record(pid, command, a0, r, _orthogonal(N, rng))


# --------------------------------------------------------------------------
# fixed reproductions of known defects, identical for every seed


def defect_b_problem():
    """crossings misses a crossing about 0.02 in t from one of opposite
    sign: it reports 4 crossings and -2, the index is -3."""
    phases = np.array([1.215, -0.725, -2.775, 2.227])
    rates = np.array([-2.761, 1.902, -2.544, -2.556])
    rec = spinner_problem("defect-b-crossings-4", "crossings",
                          np.random.default_rng(0), phases, rates, 5, 2)
    rec["crossings"] = crossing_times(phases, rates)
    rec["defect"] = "b"
    return rec


def defect_c_problem():
    """Two ladders meet at t = 0.35, s = 0.725, inside the detection
    window: spectral-flow gives up with exit 3, the flow is 0."""
    rec = _flow_record("defect-c-spectral-flow-2", "spectral-flow",
                       np.array([0.2, 0.9]), np.array([1.5, -0.5]), np.eye(2))
    rec["defect"] = "c"
    return rec


def defect_e_problem():
    """verify-coincidence: two parallel ladders 2.02 apart; one value
    leaves the detection window below in the same time step as the next
    enters above, outside the tracked zone, so the two are matched as one
    eigenvalue sweeping [0, 1] and spectral-flow reports no admissible
    test value (exit 3).  The flow is -2."""
    rec = _flow_record("defect-e-verify-coincidence-2", "verify-coincidence",
                       np.array([-1.62565259, 0.39809789]),
                       np.array([-2.258514, -2.22104573]), np.eye(2))
    rec["defect"] = "e"
    return rec


def defect_f_problem():
    """verify-coincidence at N = 4 with nearly parallel ladders: the flow
    side gives 4, the Maslov side of the Cauchy-data path gives -4."""
    rec = _flow_record(
        "defect-f-verify-coincidence-4", "verify-coincidence",
        np.array([-1.81714959, -0.82636697, -0.17368599, 0.19631976]),
        np.array([3.2609383, 3.16980147, 2.91277622, 3.32465287]),
        np.eye(4),
    )
    rec["defect"] = "f"
    return rec


def defect_d_problem():
    """n = 64 spinner at 12 nodes: every gap passes the adjacency bound,
    yet eigenvalues overtake each other between samples and maslov
    reports -8; the index is -11."""
    rng = np.random.default_rng(52)
    phases, rates = spinner_phases(rng, stratified_speeds(64, 0, 1, 0.3, 1.7))
    rec = spinner_problem("defect-d-maslov-64", "maslov", rng, phases, rates,
                          12, 2)
    rec["defect"] = "d"
    return rec


def _record(pid, command, refine_factor, body, expect):
    args = ["--refine-factor", str(refine_factor)] if refine_factor > 1 else []
    return {"id": pid, "command": command, "args": args, "input": body,
            "expect": expect}
