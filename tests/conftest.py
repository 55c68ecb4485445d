"""Shared fixtures and path builders.

Most random geometry here is built from symmetric unitaries with
hand-picked eigenphase motion, so expected index values are available in
closed form (see oracles.floor_count) instead of being re-derived by the
code under test.
"""

import math

import numpy as np
import pytest

from masidx import (
    boundary_problem,
    compatible_structure,
    haar_unitary,
    lagrangian,
    lagrangian_from_souriau,
    lagrangian_path_from_function,
    horizontal_frame,
    minus_one_offsets,
    random_lagrangian,
    random_symmetric,
    souriau,
    standard_space,
)
from oracles import TWO_PI, floor_count, schur_geodesic_path

ENDPOINT_CLEARANCE = 0.05


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_structure_space(n, rng):
    """Space built from a random invertible antisymmetric form."""
    while True:
        M = rng.standard_normal((2 * n, 2 * n))
        Omega = M - M.T
        if np.linalg.svd(Omega, compute_uv=False).min() > 1e-3:
            return compatible_structure(Omega)


# --------------------------------------------------------------------------
# deterministic geometric paths


def line_frame(space, theta):
    """The line at angle theta from the first horizontal axis (n = 1)."""
    return lagrangian(
        space, np.array([[np.cos(theta)], [np.sin(theta)]])
    )


def line_path(space, theta0, theta1, num=17):
    def frame_at(t):
        th = theta0 + (theta1 - theta0) * t
        return line_frame(space, th)

    return lagrangian_path_from_function(frame_at, num=num)


def rotating_block_loop(space, k, num=33):
    """Loop spinning a k-dim block of the vertical plane by a half turn.

    Columns j < k follow -sin(pi t) e_j + cos(pi t) e_(n+j); the rest stay
    vertical.  Against the horizontal reference the loop has one crossing
    at t = 1/2 of dimension k and index k.
    """
    n = space.n

    def frame_at(t):
        c, s = np.cos(np.pi * t), np.sin(np.pi * t)
        M = np.zeros((2 * n, n))
        for j in range(n):
            if j < k:
                M[j, j] = -s
                M[n + j, j] = c
            else:
                M[n + j, j] = 1.0
        return lagrangian(space, M)

    return lagrangian_path_from_function(frame_at, num=num)


def windowed(frame_at, a, b, num=17):
    """Path restricted to [a, b], reparametrized to [0, 1]."""
    return lagrangian_path_from_function(
        lambda t: frame_at(a + (b - a) * t), num=num
    )


# --------------------------------------------------------------------------
# symmetric-unitary paths with known eigenphase motion


def spinner_path(space, phases, rates, rng=None, num=33):
    """Path whose counting unitary has exact eigenphases phases + pi*rates*t.

    Conjugating by a fixed real orthogonal Q keeps the matrix symmetric
    unitary and leaves the spectrum alone.  Returns (path, reference).
    """
    n = space.n
    phases = np.asarray(phases, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if rng is None:
        Q = np.eye(n)
    else:
        A = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(A)
        Q = Q * np.sign(np.diag(R))
    ref = horizontal_frame(space)

    def frame_at(t):
        w = (Q * np.exp(1j * (phases + np.pi * rates * t))) @ Q.T
        return lagrangian_from_souriau(ref, w)

    return lagrangian_path_from_function(frame_at, num=num), ref


def spinner_expected(phases, rates):
    """Closed-form index of a spinner path."""
    a = np.asarray(phases, dtype=float) - np.pi
    return floor_count(a, a + np.pi * np.asarray(rates, dtype=float))


def spinner_crossings(phases, rates):
    """Closed-form crossings (t, sign) of a spinner path in (0, 1): where
    an eigenphase phases + pi rates t passes pi (mod 2 pi)."""
    out = []
    for p, r in zip(phases, rates):
        lo, hi = sorted((p, p + np.pi * r))
        k = np.ceil((lo - np.pi) / TWO_PI)
        while np.pi + TWO_PI * k < hi:
            out.append(((np.pi + TWO_PI * k - p) / (np.pi * r),
                        1 if r > 0 else -1))
            k += 1
    return sorted(out)


def random_spinner(space, rng, num=33, clearance=ENDPOINT_CLEARANCE):
    """Random spinner with endpoints clear of the counting arc.

    Returns (path, reference, expected_index).
    """
    n = space.n
    for _ in range(500):
        phases = rng.uniform(-np.pi, np.pi, n)
        rates = rng.uniform(0.3, 1.7, n) * rng.choice([-1.0, 1.0], n)
        ends = np.concatenate([phases - np.pi, phases - np.pi + np.pi * rates])
        gap = np.abs(ends - TWO_PI * np.round(ends / TWO_PI))
        if gap.min(initial=np.inf) > clearance:
            break
    else:  # pragma: no cover - 500 draws always produce a clear path
        raise RuntimeError("no endpoint-clear spinner found")
    path, ref = spinner_path(space, phases, rates, rng=rng, num=num)
    return path, ref, spinner_expected(phases, rates)


def random_unitary_curve(space, rng, num=33, max_rate=1.7):
    """Path from a complex-conjugated eigenphase sweep (spectrum not fixed).

    W(t) = V diag(exp(i pi d t)) V^T with V Haar unitary is symmetric
    unitary but not normal-with-fixed-eigenvectors, so its eigenphases mix
    as t moves; the expected index is only available through an oracle.
    Endpoints are redrawn until both are clear of -1.
    """
    n = space.n
    ref = horizontal_frame(space)
    for _ in range(200):
        V = haar_unitary(n, rng)
        d = rng.uniform(0.3, max_rate, n) * rng.choice([-1.0, 1.0], n)

        def w_at(t, V=V, d=d):
            return (V * np.exp(1j * np.pi * d * t)) @ V.T

        lo = np.abs(minus_one_offsets(w_at(0.0))).min()
        hi = np.abs(minus_one_offsets(w_at(1.0))).min()
        if min(lo, hi) > ENDPOINT_CLEARANCE:
            break
    else:  # pragma: no cover
        raise RuntimeError("no endpoint-clear curve found")

    def frame_at(t):
        return lagrangian_from_souriau(ref, w_at(t))

    return lagrangian_path_from_function(frame_at, num=num), ref


def schur_lagrangian_route(ts, frames, grid):
    """The reference for ``paths.lagrangian_geodesic``: the geodesic of
    pair unitaries W(h, mu_i) against the horizontal reference h through
    one complex Schur form per gap (``oracles.schur_geodesic_path``), and
    its frame at t recovered from W(h, mu_t) by
    ``lagrangian_from_souriau``.  Returns (h, geodesic, frame_at)."""
    std = frames[0].space.standardization
    h = std.pull_frame(horizontal_frame(std.target))
    geodesic = schur_geodesic_path(
        ts, [souriau(h, f) for f in frames], grid
    )

    def frame_at(t):
        return lagrangian_from_souriau(h, geodesic.at(t))

    return h, geodesic, frame_at


def geodesic_nodes(n, rng, gaps, turn):
    """Unitary nodes at even times in [0, 1].  Each gap turns the
    eigenphases by up to ``turn`` about random axes; the first eigenphase
    of every other gap turns by exactly +-``turn``."""
    nodes = [haar_unitary(n, rng)]
    for i in range(gaps):
        phases = rng.uniform(-turn, turn, n)
        if i % 2 == 0:
            phases[0] = turn * rng.choice([-1.0, 1.0])
        V = haar_unitary(n, rng)
        nodes.append(nodes[-1] @ (V * np.exp(1j * phases)) @ V.conj().T)
    return np.linspace(0.0, 1.0, gaps + 1).tolist(), nodes


def transversal_pair(space, rng, margin=0.3):
    """Two random Lagrangians staying clear of each other."""
    for _ in range(200):
        a = random_lagrangian(space, rng)
        b = random_lagrangian(space, rng)
        if np.abs(minus_one_offsets(souriau(a, b))).min() > margin:
            return a, b
    raise RuntimeError("no transversal pair found")  # pragma: no cover


# --------------------------------------------------------------------------
# boundary families for the flow tests


def rotation_problem(samples=41):
    """N = 1, B = 0, C_t = (t - 1/2) pi I: one eigenvalue ladder drifting
    up by pi, net flow +1 through 0."""

    def c_func(t):
        return (t - 0.5) * np.pi * np.eye(2)

    ts = np.linspace(0.0, 1.0, samples)
    lam = np.array([[1.0], [0.0]])
    return boundary_problem(
        1, np.zeros((2, 2)), [(t, c_func(t)) for t in ts], lam, lam,
        c_func=c_func,
    )


def _ladder_family(a0, r, nodes):
    """(t, C_t) at ``nodes`` even times, C_t = blockdiag(a_t, a_t) with
    a_t = diag(a0 + r t)."""
    N = len(a0)
    z = np.zeros((N, N))
    family = []
    for t in np.linspace(0.0, 1.0, nodes):
        a = np.diag(np.add(a0, np.multiply(r, t)))
        family.append((float(t), np.block([[a, z], [z, a]])))
    return family


def ladder_problem(a0, r, nodes=5):
    """B = 0, C_t = blockdiag(a_t, a_t) with a_t = diag(a0 + r t), sampled
    at ``nodes`` times, horizontal boundary conditions at both ends.

    Each scalar block rotates the boundary line at speed s - a_j, so the
    eigenvalues are the decoupled ladders s = a_j(t) + k pi.
    """
    N = len(a0)
    lam = np.vstack([np.eye(N), np.zeros((N, N))])
    return boundary_problem(
        N, np.zeros((2 * N, 2 * N)), _ladder_family(a0, r, nodes), lam, lam
    )


def ladder_body(a0, r, nodes=5):
    """The spectral-flow input of ``ladder_problem``."""
    N = len(a0)
    lam = np.vstack([np.eye(N), np.zeros((N, N))]).tolist()
    family = [
        {"t": t, "C": C.tolist()} for t, C in _ladder_family(a0, r, nodes)
    ]
    return {"version": 1, "N": N, "B": np.zeros((2 * N, 2 * N)).tolist(),
            "family": family, "lambda0": lam, "lambda1": lam}


def ladder_flow(a0, r):
    """Closed-form flow of ``ladder_problem``: the net upward passages
    through 0 of the ladders s = a_j(t) + k pi."""
    return sum(math.floor((a + v) / math.pi) - math.floor(a / math.pi)
               for a, v in zip(a0, r))


def random_admissible(N, rng, scale=0.5):
    """Symmetric matrix anticommuting with the flow structure matrix."""
    P = random_symmetric(N, rng, scale)
    Q = random_symmetric(N, rng, scale)
    return np.block([[P, Q], [Q, -P]])


def random_boundary_family(N, rng, samples=200, c_bound=2.0):
    """Random admissible family with sup-norm of C_t capped at c_bound."""
    B = random_admissible(N, rng, 0.5)
    C0 = random_symmetric(2 * N, rng, 0.8)
    C1 = random_symmetric(2 * N, rng, 2.5)
    C2 = random_symmetric(2 * N, rng, 0.7)

    def raw(t):
        return C0 + t * C1 + np.sin(np.pi * t) * C2

    ts = np.linspace(0.0, 1.0, samples)
    peak = max(np.linalg.norm(raw(t), 2) for t in ts)
    rho = min(1.0, c_bound / peak) * rng.uniform(0.85, 1.0)

    def c_func(t, rho=rho):
        return rho * raw(t)

    space = standard_space(N)
    lam0 = random_lagrangian(space, rng).F
    lam1 = random_lagrangian(space, rng).F
    return boundary_problem(
        N, B, [(t, c_func(t)) for t in ts], lam0, lam1, c_func=c_func
    )
