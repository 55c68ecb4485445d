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
"""

import numpy as np

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


def souriau_reflection_product(lam, mu):
    """Pair unitary built as complexify((Id - 2 P_mu) tau_lam).

    The real 2n x 2n reflection product on the standard model, the
    construction the closed form in ``souriau`` replaced; general metrics
    are pushed through the same standardization first.
    """
    from masidx import complexify

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
