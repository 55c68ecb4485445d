"""Independent counting oracles used to arbitrate the index algorithms.

The trajectory oracle never looks at partitions or test angles: it
resamples the path densely, matches eigenphase offsets between adjacent
samples (greedy nearest-neighbour on circular distance), accumulates each
trajectory as a continuous real angle, and reads the net signed count of
passages through -1 from the endpoint floors:

    count = sum_i  floor(sigma_i(1) / 2pi) - floor(sigma_i(0) / 2pi)

with sigma_i the unwrapped offset angle(-eigenvalue).  Endpoints landing
exactly on a multiple of 2pi are snapped first, which reproduces the
closed-arc convention (arriving at -1 counts, departing upward does not).
Label swaps at eigenvalue collisions shift two floors by opposite amounts,
so the total is insensitive to matching mistakes at degeneracies.

The other oracles build what the engine computes by a second route: the
geodesic through unitary nodes by complex Schur forms, the pair unitary
as a reflection product, the paper's graph (Cayley) chart of
Lambda(n) and Kato's transform of a pair of projections, the crossing form
as a phase velocity, and the polarized reduction from its definition.
Their inputs come from tests only, so they validate nothing.
"""

import numpy as np
from scipy.linalg import schur, subspace_angles

TWO_PI = 2.0 * np.pi
_STEP_LIMIT = 0.4


def signature_brute(M, tol=1e-8):
    """(positives, negatives) of a symmetric or Hermitian matrix."""
    w = np.linalg.eigvalsh(M)
    thresh = tol * max(1.0, np.abs(w).max(initial=0.0))
    return int(np.count_nonzero(w > thresh)), int(np.count_nonzero(w < -thresh))


def snap_to_grid(x, tol=1e-7):
    """Round to the nearest multiple of 2pi when within ``tol``."""
    k = np.round(x / TWO_PI)
    return np.where(np.abs(x - TWO_PI * k) < tol, TWO_PI * k, x)


def floor_count(sigma0, sigma1):
    """Net signed crossings of 2pi-multiples along [sigma0, sigma1]."""
    a = snap_to_grid(np.asarray(sigma0, dtype=float))
    b = snap_to_grid(np.asarray(sigma1, dtype=float))
    return int(np.sum(np.floor(b / TWO_PI) - np.floor(a / TWO_PI)))


def _greedy_match(prev, cur):
    """Index into cur pairing each prev entry with its nearest free value."""
    order = np.full(len(prev), -1, dtype=int)
    used = np.zeros(len(cur), dtype=bool)
    # most constrained first: smallest available distance wins
    dist = np.abs(np.angle(np.exp(1j * (cur[None, :] - prev[:, None]))))
    for _ in range(len(prev)):
        masked = np.where(used[None, :] | (order[:, None] >= 0), np.inf, dist)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        order[i] = j
        used[j] = True
    return order


def _accumulate(offsets):
    """Unwrapped endpoint angles, or None when a step is too coarse."""
    sigma = np.array(offsets[0], dtype=float)
    start = sigma.copy()
    prev = sigma.copy()
    for cur in offsets[1:]:
        cur = np.asarray(cur, dtype=float)
        order = _greedy_match(prev, cur)
        step = np.angle(np.exp(1j * (cur[order] - prev)))
        if np.abs(step).max(initial=0.0) > _STEP_LIMIT:
            return None
        sigma = sigma + step
        prev = cur[order]
    return start, sigma


def _densify(ts, factor):
    out = []
    for i in range(len(ts) - 1):
        out.extend(np.linspace(ts[i], ts[i + 1], factor + 1)[:-1])
    out.append(ts[-1])
    return np.array(out)


def trajectory_count(u_of_t, base_times, factor=16, max_rounds=8):
    """Net signed count of eigenvalue passages through -1 along the path.

    ``u_of_t`` evaluates the unitary at arbitrary t; ``base_times`` is the
    coarse grid.  Density is doubled until every matched step moves less
    than 0.4 rad.
    """
    ts = _densify(np.asarray(base_times, dtype=float), factor)
    for _ in range(max_rounds):
        offsets = [
            np.angle(-np.linalg.eigvals(u_of_t(float(t)))) for t in ts
        ]
        acc = _accumulate(offsets)
        if acc is not None:
            start, end = acc
            return floor_count(start, end)
        ts = _densify(ts, 2)
    raise RuntimeError("trajectory oracle did not stabilize")


def complexify(T):
    """Complex n x n matrix A + iB of a real 2n x 2n operator
    T = [[A, -B], [B, A]] commuting with the standard J: the inverse of
    ``masidx.realify``."""
    n = T.shape[0] // 2
    return T[:n, :n] + 1j * T[n:, :n]


def realify_vectors(Z):
    """Complex n-vectors as the columns [Re; Im] of a real 2n x k matrix:
    the inverse of ``masidx.complexify_vectors``."""
    return np.vstack([Z.real, Z.imag])


def same_span(a, b, tol=1e-8):
    """True when two frames (or matrices) span the same subspace: their
    largest principal angle is at most ``tol``."""
    a, b = (np.asarray(getattr(x, "F", x)) for x in (a, b))
    return bool(subspace_angles(a, b).max(initial=0.0) <= tol)


def kernel_dim_minus_one(W):
    """Multiplicity of the eigenvalue -1 of a unitary: the eigenvalues
    within angle 1e-7 of it."""
    from masidx import minus_one_offsets

    return int(np.count_nonzero(np.abs(minus_one_offsets(W)) < 1e-7))


def graph_lagrangian(base, A):
    """The Lagrangian {u + J A u : u in base} for a symmetric A on the
    base: the graph chart of Lambda(n) around ``base``."""
    from masidx import lagrangian

    J = base.space.J
    return lagrangian(base.space, base.F + J @ base.F @ A)


def cayley_unitary(A):
    """U_A = (Id + iA)(Id + A^2)^{-1/2} of a symmetric A.

    Applied to the base frame (U = X + iY acting on [Re; Im]) it spans
    ``graph_lagrangian(base, A)``, and U_A^2 = (Id + iA)(Id - iA)^{-1}.
    """
    w, V = np.linalg.eigh(A)
    return (np.eye(len(A)) + 1j * A) @ ((V / np.sqrt(1.0 + w**2)) @ V.T)


def kato_pair_transform(P, Q):
    """Orthogonal W with W Q = P W, for orthogonal projections with
    ||P - Q|| < 1: W = D ((Id - P)(Id - Q) + P Q) with
    D = (Id - (P - Q)^2)^{-1/2}."""
    eye = np.eye(len(P))
    w, V = np.linalg.eigh(eye - (P - Q) @ (P - Q))
    return ((V / np.sqrt(w)) @ V.T) @ ((eye - P) @ (eye - Q) + P @ Q)


def crossing_form_phase(path, lam, t_star):
    """Phase-velocity crossing form (Hermitian) at a crossing.

    R_t = -i Log(W(t*)^H W(t)) with the principal logarithm; the form is
    the derivative of zeta^H R_t zeta on the complexified kernel, by
    central differences with the step ``crossing_form`` takes (one-sided
    at the ends).
    """
    from masidx import DEFAULT_TOL, complexify_vectors, souriau
    from masidx.crossings import _kernel_basis

    tol = DEFAULT_TOL
    h = tol.diff_step
    mu_star, vecs = _kernel_basis(path, lam, t_star, tol)
    std = mu_star.space.standardization
    V = vecs if std.source.is_standard else std.matrix @ vecs
    zeta = complexify_vectors(V)
    W_star = souriau(lam, mu_star)

    def m_at(t):
        arg = W_star.conj().T @ souriau(lam, path.at(t))
        T, Z = schur(arg, output="complex")
        vals = np.diag(T)
        assert np.min(np.abs(np.angle(-vals))) >= tol.log_cut, "branch cut"
        return zeta.conj().T @ ((Z * np.angle(vals)) @ Z.conj().T) @ zeta

    if t_star - h < 0.0:
        diff = (m_at(t_star + h) - m_at(t_star)) / h
    elif t_star + h > 1.0:
        diff = (m_at(t_star) - m_at(t_star - h)) / h
    else:
        diff = (m_at(t_star + h) - m_at(t_star - h)) / (2.0 * h)
    return 0.5 * (diff + diff.conj().T)


def schur_geodesic_path(times, nodes, grid):
    """The piecewise principal-log geodesic through the unitaries
    ``nodes`` by a second route: one complex Schur form U0^H U1 = Z T Z^H
    per gap, its angles read off the diagonal of T."""
    from masidx.paths import GeodesicPath, _GeodesicPiece

    pieces = []
    for U0, U1 in zip(nodes, nodes[1:]):
        T, Z = schur(U0.conj().T @ U1, output="complex")
        pieces.append(
            _GeodesicPiece(U0=U0, theta=np.angle(np.diag(T)), Z=Z)
        )
    return GeodesicPath(
        times=np.asarray(times, dtype=float),
        pieces=tuple(pieces),
        grid=tuple(grid),
    )


def souriau_reflection_product(lam, mu):
    """Pair unitary built as complexify((Id - 2 P_mu) tau_lam).

    The real 2n x 2n reflection product on the standard model, the
    construction the closed form in ``souriau`` replaced; general metrics
    are pushed through the same standardization first.
    """
    if not lam.space.is_standard:
        std = lam.space.standardization
        lam, mu = std.push_frame(lam), std.push_frame(mu)
    n = lam.space.n
    return complexify((np.eye(2 * n) - 2.0 * mu.P) @ lam.tau)


def maslov_oracle(path, lam, factor=16):
    """Trajectory-oracle value of a Lagrangian path with a refiner."""
    from masidx import souriau

    ts = [t for t, _ in path.samples]
    return trajectory_count(
        lambda t: souriau(lam, path.at(t)), ts, factor=factor
    )


def unitary_oracle(path, factor=16):
    ts = [t for t, _ in path.samples]
    return trajectory_count(lambda t: path.at(t), ts, factor=factor)


def boxed_pair_maslov(mu_path, lam_path, tol=None):
    """Index of a pair path as the box construction counts it: the boxed
    path mu_t ⊞ lam_t of the box space against its diagonal, sampled on
    the union of both legs' times and refined through both refiners."""
    from masidx import (
        DEFAULT_TOL,
        box_frame,
        box_space,
        lagrangian_path,
        maslov,
    )

    bs = box_space(mu_path.space)
    times = sorted(
        {t for t, _ in mu_path.samples} | {t for t, _ in lam_path.samples}
    )

    def boxed(t):
        return box_frame(bs, mu_path.at(t), lam_path.at(t))

    path = lagrangian_path([(t, boxed(t)) for t in times], refiner=boxed)
    return maslov(path, bs.delta, tol or DEFAULT_TOL).value


def kernel_reduce(pp, mu):
    """Polarized reduction gamma(mu) = {(x, y) : exists b with
    (i_plus x, b) in mu, y = i_minus b} solved from its definition, with
    no use of the linear map that ``gamma_reduce`` applies: the kernel of
    (I - P_mu)[F_{lam+} D | F_{lam-}] (columns scaled to unit norm) has
    dimension n, and its solution pairs (xi, beta) span the reduction as
    F_{ell+} xi + F_{ell-} M beta."""
    from masidx import lagrangian

    n = pp.big.n
    K = np.hstack([pp.lam_plus.F @ pp.i_plus, pp.lam_minus.F])
    scales = np.linalg.norm(K, axis=0)
    _, sv, Vt = np.linalg.svd((K - mu.P @ K) / scales)
    assert sv[n] <= 1e-7 * max(1.0, sv[0]), "kernel of unexpected rank"
    coeff = Vt[-n:].T / scales[:, None]
    xi, beta = coeff[:n], coeff[n:]
    return lagrangian(
        pp.small, pp.ell_plus.F @ xi + pp.ell_minus.F @ (pp.i_minus @ beta)
    )
