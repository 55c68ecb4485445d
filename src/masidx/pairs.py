"""Pairs of Lagrangian paths, the box construction, and polarized reduction.

* the index of a path of pairs (mu_t, lam_t) is the count on its n x n
  pair unitary W(lam_t, mu_t), whose -1-eigenspace is the complexified
  mu_t ∩ lam_t (Howard, Latushkin and Sukhtayev, JMAA 451, 2017);
* the box construction: the double space carries omega on the left factor
  and -omega on the right, the diagonal is Lagrangian, and the boxed path
  mu_t ⊞ lam_t has the same index against the diagonal;
* polarized reduction: given matched polarizations of a big and a small
  space and an injection of the plus factors, every Lagrangian of the big
  space reduces to one of the small space, and the index against the minus
  factor is preserved.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    LagrangianFrame,
    _require_same_space,
    box_frame,
    box_space,
    direct_sum_frame,
    direct_sum_space,
    intersection_dim,
    lagrangian,
)
from .errors import AmbiguityError, ValidationError
from .paths import LagrangianPath, UnitaryPath, unitary_maslov
from .souriau import souriau

__all__ = [
    "PolarizedPair",
    "polarized_pair",
    "box",
    "pair_maslov",
    "embed_path",
    "embed_reference",
    "gamma_reduce",
    "gamma_reduce_path",
]


# --------------------------------------------------------------------------
# box construction
# --------------------------------------------------------------------------


def box(mu, lam):
    """mu ⊞ lam in the box space of their common base. Returns (BoxSpace, frame)."""
    _require_same_space(mu.space, lam.space, "box")
    bs = box_space(mu.space)
    return bs, box_frame(bs, mu, lam)


def _resample(path, times, where):
    lookup = {t: f for t, f in path.samples}
    out = []
    for t in times:
        if t in lookup:
            out.append(lookup[t])
        elif path.refiner is not None:
            out.append(path.refiner(t))
        else:
            raise AmbiguityError(
                "pair paths sample different times and one has no refiner",
                where=where,
            )
    return out


def pair_maslov(mu_path, lam_path, tol=DEFAULT_TOL):
    """Index of a path of pairs: ``unitary_maslov`` of its pair unitaries
    t -> souriau(lam_t, mu_t) (HLS 2017), on the union of both legs' sample
    times, refinable when both legs are."""
    _require_same_space(mu_path.space, lam_path.space, "pair_maslov")
    times = sorted(
        {t for t, _ in mu_path.samples} | {t for t, _ in lam_path.samples}
    )
    mus = _resample(mu_path, times, "pair_maslov")
    lams = _resample(lam_path, times, "pair_maslov")
    samples = tuple(
        (t, souriau(l, m)) for t, m, l in zip(times, mus, lams)
    )
    refiner = None
    if mu_path.refiner is not None and lam_path.refiner is not None:
        refiner = lambda t: souriau(lam_path.refiner(t), mu_path.refiner(t))
    return unitary_maslov(UnitaryPath(samples=samples, refiner=refiner), tol)


# --------------------------------------------------------------------------
# embedding into a direct sum
# --------------------------------------------------------------------------


def embed_path(path, ell0, ell1):
    """theta_t in H0 embedded as theta_t (+) J(ell1) in H0 (+) H1.

    The index against ell0 (+) ell1 equals the index of the original path
    against ell0 (``embed_reference`` builds that frame).
    """
    space0 = path.space
    _require_same_space(ell0.space, space0, "embed_path")
    space1 = ell1.space
    if not (space0.is_standard and space1.is_standard):
        raise ValidationError(
            "embedding requires standard structures", where="embed_path"
        )
    big = direct_sum_space(space0, space1)
    fixed = ell1.j_image()
    samples = tuple(
        (t, direct_sum_frame(big, f, fixed)) for t, f in path.samples
    )
    refiner = None
    if path.refiner is not None:
        refiner = lambda t: direct_sum_frame(big, path.refiner(t), fixed)
    return LagrangianPath(samples=samples, refiner=refiner)


def embed_reference(ell0, ell1):
    """ell0 (+) ell1 in the direct sum, to pair with embed_path output."""
    big = direct_sum_space(ell0.space, ell1.space)
    return direct_sum_frame(big, ell0, ell1)


# --------------------------------------------------------------------------
# polarized reduction
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolarizedPair:
    """Matched polarizations with an injection of the plus factors.

    i_plus is a positive diagonal in the chosen frame bases; i_minus is
    derived from the pairing compatibility and never supplied by hand.
    """

    big: object
    small: object
    lam_plus: LagrangianFrame
    lam_minus: LagrangianFrame
    ell_plus: LagrangianFrame
    ell_minus: LagrangianFrame
    i_plus: np.ndarray
    i_minus: np.ndarray


def polarized_pair(lam_plus, lam_minus, ell_plus, ell_minus, i_plus_diag):
    """Validated PolarizedPair; computes i_minus from compatibility.

    Raises ValidationError when the polarizations fail (non-complementary
    factors), dimensions differ, or the diagonal has non-positive entries.
    """
    big = lam_plus.space
    small = ell_plus.space
    _require_same_space(lam_minus.space, big, "polarized_pair")
    _require_same_space(ell_minus.space, small, "polarized_pair")
    if big.n != small.n:
        raise ValidationError(
            "polarized reduction at finite dimension needs equal "
            f"dimensions (got {big.n} and {small.n})",
            where="polarized_pair",
        )
    n = big.n
    if intersection_dim(lam_plus, lam_minus) != 0:
        raise ValidationError(
            "big-space factors are not complementary", where="polarized_pair"
        )
    if intersection_dim(ell_plus, ell_minus) != 0:
        raise ValidationError(
            "small-space factors are not complementary", where="polarized_pair"
        )
    d = np.asarray(i_plus_diag, dtype=float).reshape(-1)
    if d.size != n or np.any(d <= 0):
        raise ValidationError(
            "i_plus must be a positive diagonal of length n",
            where="polarized_pair",
        )
    D = np.diag(d)
    W_B = lam_plus.F.T @ big.gram @ lam_minus.F
    W_H = ell_plus.F.T @ small.gram @ ell_minus.F
    if (
        np.linalg.svd(W_B, compute_uv=False).min() < 1e-10
        or np.linalg.svd(W_H, compute_uv=False).min() < 1e-10
    ):
        raise ValidationError(
            "degenerate polarization pairing", where="polarized_pair"
        )
    M = np.linalg.solve(W_H, D.T @ W_B)
    if np.linalg.norm(D.T @ W_B - W_H @ M, 2) > 1e-10 * max(
        1.0, np.linalg.norm(W_B, 2)
    ):
        raise ValidationError(
            "compatibility residual above 1e-10", where="polarized_pair"
        )
    return PolarizedPair(
        big=big,
        small=small,
        lam_plus=lam_plus,
        lam_minus=lam_minus,
        ell_plus=ell_plus,
        ell_minus=ell_minus,
        i_plus=D,
        i_minus=M,
    )


def gamma_reduce(pp, mu, tol=DEFAULT_TOL):
    """Reduced Lagrangian in the small space.

    gamma(mu) = {(x, y) : exists b with (i_plus x, b) in mu, y = i_minus b},
    computed as one kernel problem: (I - P_mu)[F_{lam+} D | F_{lam-}] has
    nullity exactly n, and solution pairs (xi, beta) map to
    F_{ell+} xi + F_{ell-} M beta.
    """
    _require_same_space(mu.space, pp.big, "gamma_reduce")
    n = pp.big.n
    K = np.hstack([pp.lam_plus.F @ pp.i_plus, pp.lam_minus.F])
    scales = np.linalg.norm(K, axis=0)
    A = (K - mu.P @ K) / scales
    _, sv, Vt = np.linalg.svd(A)
    if sv[n] > 1e-7 * max(1.0, sv[0]):
        raise ValidationError(
            "reduction kernel collapsed (unexpected rank)",
            where="gamma_reduce",
        )
    coeff = Vt[-n:].T / scales[:, None]
    xi, beta = coeff[:n], coeff[n:]
    out = pp.ell_plus.F @ xi + pp.ell_minus.F @ (pp.i_minus @ beta)
    return lagrangian(pp.small, out, tol)


def _gamma_matrix(pp):
    """The reduction as one linear map on the big space.

    In (lam_plus, lam_minus) coordinates a point (u, v) maps to
    (i_plus^{-1} u, i_minus v) in (ell_plus, ell_minus) coordinates; this
    is the same map gamma_reduce extracts pointwise.
    """
    basis = np.hstack([pp.lam_plus.F, pp.lam_minus.F])
    image = np.hstack(
        [
            pp.ell_plus.F @ np.linalg.inv(pp.i_plus),
            pp.ell_minus.F @ pp.i_minus,
        ]
    )
    return np.linalg.solve(basis.T, image.T).T


def gamma_reduce_path(pp, path, tol=DEFAULT_TOL):
    """Reduced path, resampled finely enough to be countable.

    A badly scaled injection rotates the reduced span much faster than
    the input moves wherever the input passes near the squeezed
    directions; on a fixed grid those transits alias into small steps
    and the counters miss them.  The local rotation rate is bounded by
    (input rate) * ||gamma|| / sigma_min(gamma F(t)), so when the path
    has a refiner the samples are regenerated by marching with the step
    proportional to that smallest singular value.  The cost of a transit
    is logarithmic in its depth.
    """
    if path.refiner is None:
        samples = tuple(
            (t, gamma_reduce(pp, f, tol)) for t, f in path.samples
        )
        return LagrangianPath(samples=samples, refiner=None)

    gamma = _gamma_matrix(pp)
    speed = 4.0 * np.linalg.norm(gamma, 2) * max(_probe_rate(path), 1e-2)
    beta = 0.2
    knots = [t for t, _ in path.samples]
    frame = path.at(0.0)
    out = [(0.0, gamma_reduce(pp, frame, tol))]
    t = 0.0
    next_knot = 1
    steps = 0
    while t < 1.0:
        steps += 1
        if steps > 200_000:
            raise AmbiguityError(
                "reduction conditioning defeats resampling",
                where="gamma_reduce_path",
            )
        sigma = np.linalg.svd(gamma @ frame.F, compute_uv=False).min()
        h = max(beta * sigma / speed, 1e-12)
        while next_knot < len(knots) and knots[next_knot] <= t:
            next_knot += 1
        t2 = min(1.0, t + h)
        if next_knot < len(knots):
            t2 = min(t2, knots[next_knot])
        frame = path.at(t2)
        out.append((t2, gamma_reduce(pp, frame, tol)))
        t = t2
    refiner = lambda s: gamma_reduce(pp, path.refiner(s), tol)
    return LagrangianPath(samples=tuple(out), refiner=refiner)


def _probe_rate(path):
    """Upper estimate of the input's rotation rate from its samples."""
    ts = [t for t, _ in path.samples]
    frames = [f for _, f in path.samples]
    rate = 0.0
    for i in range(len(ts) - 1):
        dt = ts[i + 1] - ts[i]
        if dt <= 0.0:
            continue
        mid = path.refiner(0.5 * (ts[i] + ts[i + 1]))
        d = max(
            np.linalg.norm(frames[i].P - mid.P, 2),
            np.linalg.norm(mid.P - frames[i + 1].P, 2),
        )
        rate = max(rate, 2.0 * d / dt)
    return rate
