"""Pairs of Lagrangian paths, the box construction, and polarized reduction.

* the index of a path of pairs (mu_t, lam_t) is the count on its n x n
  pair unitary W(lam_t, mu_t), whose -1-eigenspace is the complexified
  mu_t ∩ lam_t (Howard, Latushkin and Sukhtayev, JMAA 451, 2017);
* the box construction: the double space carries omega on the left factor
  and -omega on the right, the diagonal is Lagrangian, and the boxed path
  mu_t ⊞ lam_t has the same index against the diagonal;
* polarized reduction: given matched polarizations of a big and a small
  space and an injection of the plus factors, every Lagrangian mu of the
  big space reduces to Gamma mu in the small space, for one linear
  symplectic map Gamma, and the index against the minus factor is
  preserved.  The reduced frame is Gamma F_mu, G-orthonormalized, so its
  basis follows the basis of mu.

The count of a reduced path reads one of the three radius sources of
``paths``: exact on the geodesic pieces of its input, which the big count
reads; certified on the reduced path of a ``lagrangian_geodesic`` on
standard spaces, by the input's exact frame speed and the march's own
sigma_min(Gamma F) (``gamma_reduce_path``: Wedin's sin Theta bound, then
Bauer-Fike on the pair unitary); and the chord heuristic on any other
refinable input, such as a user refiner.

Two of these paths take their index from the determinant lift, and run
Phillips' count only when its partition is read (``paths._Reads.phase``):
the certified reduced path, by the principal angles of its pieces, and
the pair path of two geodesic legs, whose det(-A B^H) = (-1)^n det A
conj(det B) gains the mu leg's phase less the lam leg's.  The pair path
keeps the chord radius for that count.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    LagrangianFrame,
    _as_matrix,
    _expect,
    _norm2_exceeds,
    _require_same_space,
    box_frame,
    box_space,
    direct_sum_frame,
    direct_sum_space,
    intersection_dim,
    lagrangian,
)
from .errors import AmbiguityError, ValidationError
from .paths import (
    GeodesicPath,
    LagrangianPath,
    UnitaryPath,
    _Formed,
    _sample_times,
    to_unitary_path,
    unitary_maslov,
)

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

# Largest arc r that one marched step of a geodesic input lets any
# eigenvalue of the reduced pair unitary move (``gamma_reduce_path``): a
# fixed invariant, not a tolerance.  A larger arc takes fewer steps, and
# the count then splits more pieces whose balls of radius r leave no test
# angle free in (0, EPS_CAP].
_STEP_ARC = 0.5
# Smallest singular value of a pairing F_+^T gram F_- and largest relative
# compatibility residual of i_minus that ``polarized_pair`` accepts.
_PAIRING_SV = 1e-10
_COMPATIBILITY_RESIDUAL = 1e-10
# Shortest step of the reduction march (``_march``).
_MIN_STEP = 1e-12


# --------------------------------------------------------------------------
# box construction
# --------------------------------------------------------------------------


def box(mu, lam):
    """mu ⊞ lam in the box space of their common base. Returns (BoxSpace, frame)."""
    _expect(LagrangianFrame, "box", mu, lam)
    _require_same_space(mu.space, lam.space, "box")
    bs = box_space(mu.space)
    return bs, box_frame(bs, mu, lam)


def _resample(path, times, where):
    """The values of a unitary path at ``times``, formed one at a time:
    its sample where it has one, else its refiner's.  The samples of a
    ``GeodesicPath`` are its refiner's values, so none is formed ahead."""
    lookup = {} if isinstance(path, GeodesicPath) else dict(path.samples)
    for t in times:
        if t in lookup:
            yield lookup[t]
        elif path.refiner is not None:
            yield path.refiner(t)
        else:
            raise AmbiguityError(
                "pair paths sample different times and one has no refiner",
                where=where,
            )


def pair_maslov(mu_path, lam_path, tol=DEFAULT_TOL):
    """Index of a path of pairs: ``unitary_maslov`` of its pair unitaries
    t -> W(lam_t, mu_t) (HLS 2017), on the union of both legs' sample
    times, refinable when both legs are.

    Both legs are converted by ``to_unitary_path`` against one reference
    h: the reference of the mu leg when it was built by
    ``lagrangian_geodesic`` (the CLI's refined paths), else its first
    frame.  The pair unitaries are read by the cocycle W(lam_t, mu_t) =
    -W(h, mu_t) W(h, lam_t)^H: one product per time, and no frame formed
    on a geodesic leg.  When both legs are geodesic the pair path carries
    its determinant phase, the mu leg's less the lam leg's, and counts by
    its lift (``paths.unitary_maslov``).
    """
    _expect(LagrangianPath, "pair_maslov", mu_path, lam_path)
    _require_same_space(mu_path.space, lam_path.space, "pair_maslov")
    if mu_path._geodesic is not None:
        h = mu_path._geodesic[0]
    else:
        h = mu_path.samples[0][1]
    mu_u = to_unitary_path(mu_path, h)
    lam_u = to_unitary_path(lam_path, h)
    times = sorted(set(_sample_times(mu_u)) | set(_sample_times(lam_u)))
    pairs = [
        -m @ l.conj().T
        for m, l in zip(
            _resample(mu_u, times, "pair_maslov"),
            _resample(lam_u, times, "pair_maslov"),
        )
    ]
    refiner = None
    if mu_u.refiner is not None and lam_u.refiner is not None:
        refiner = lambda t: -mu_u.refiner(t) @ lam_u.refiner(t).conj().T
    phase = None
    if isinstance(mu_u, GeodesicPath) and isinstance(lam_u, GeodesicPath):
        # det(-A B^H) = (-1)^n det A conj(det B)
        phase = mu_u.phase - lam_u.phase
    samples = tuple(zip(times, pairs))
    return unitary_maslov(
        UnitaryPath._exact(samples, refiner, phase=phase), tol
    )


# --------------------------------------------------------------------------
# embedding into a direct sum
# --------------------------------------------------------------------------


def embed_path(path, ell0, ell1):
    """theta_t in H0 embedded as theta_t (+) J(ell1) in H0 (+) H1.

    The index against ell0 (+) ell1 equals the index of the original path
    against ell0 (``embed_reference`` builds that frame).
    """
    _expect(LagrangianPath, "embed_path", path)
    _expect(LagrangianFrame, "embed_path", ell0, ell1)
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
    _expect(LagrangianFrame, "embed_reference", ell0, ell1)
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

    @cached_property
    def _gamma(self):
        """The reduction as one linear symplectic map Gamma of the big
        space onto the small one.

        In (lam_plus, lam_minus) coordinates a point (u, v) maps to
        (i_plus^{-1} u, i_minus v) in (ell_plus, ell_minus) coordinates.
        """
        basis = np.hstack([self.lam_plus.F, self.lam_minus.F])
        image = np.hstack(
            [
                self.ell_plus.F @ np.linalg.inv(self.i_plus),
                self.ell_minus.F @ self.i_minus,
            ]
        )
        return np.linalg.solve(basis.T, image.T).T


def polarized_pair(lam_plus, lam_minus, ell_plus, ell_minus, i_plus_diag):
    """Validated PolarizedPair; computes i_minus from compatibility.

    Raises ValidationError when the polarizations fail (non-complementary
    factors), dimensions differ, or the diagonal has non-positive entries.
    """
    _expect(LagrangianFrame, "polarized_pair", lam_plus, lam_minus,
            ell_plus, ell_minus)
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
    d = _as_matrix([i_plus_diag], "i_plus_diag", "polarized_pair", (1, n))
    if np.any(d <= 0):
        raise ValidationError(
            "i_plus must be a positive diagonal", where="polarized_pair"
        )
    D = np.diag(d[0])
    W_B = lam_plus.F.T @ big.gram @ lam_minus.F
    W_H = ell_plus.F.T @ small.gram @ ell_minus.F
    if (
        np.linalg.svd(W_B, compute_uv=False).min() < _PAIRING_SV
        or np.linalg.svd(W_H, compute_uv=False).min() < _PAIRING_SV
    ):
        raise ValidationError(
            "degenerate polarization pairing", where="polarized_pair"
        )
    M = np.linalg.solve(W_H, D.T @ W_B)
    if _norm2_exceeds(D.T @ W_B - W_H @ M, _COMPATIBILITY_RESIDUAL, W_B):
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


def gamma_reduce(pp, mu):
    """Reduced Lagrangian gamma(mu) = Gamma mu in the small space.

    gamma(mu) = {(x, y) : exists b with (i_plus x, b) in mu, y = i_minus b}
    is the image of mu under the one linear symplectic map Gamma of the
    pair (``PolarizedPair._gamma``), so the reduced frame is Gamma F_mu,
    G-orthonormalized: its basis follows the basis of mu.  Its rank
    tolerance is that of the small space (``core.lagrangian``).
    """
    _expect(PolarizedPair, "gamma_reduce", pp)
    _expect(LagrangianFrame, "gamma_reduce", mu)
    return _reduced(pp, [mu])[0]


def _reduced(pp, frames):
    """``gamma_reduce`` of each of ``frames``, as a tuple: the products
    Gamma F and their frames each formed in one stacked call."""
    for mu in frames:
        _require_same_space(mu.space, pp.big, "gamma_reduce")
    stack = np.stack([mu.F for mu in frames])
    return lagrangian(pp.small, pp._gamma @ stack)


def gamma_reduce_path(pp, path):
    """Reduced path, resampled finely enough to be countable.

    A badly scaled injection rotates the reduced span much faster than
    the input moves wherever the input passes near the squeezed
    directions; on a fixed grid those transits alias into small steps
    and the counters miss them.  So when the path has a refiner the
    samples are regenerated by a march whose step is proportional to
    sigma(t) = sigma_min(Gamma F(t)), one SVD per time read.  The cost of
    a transit is logarithmic in its depth.

    Certified route: a ``lagrangian_geodesic`` on standard spaces (the
    CLI's).  On gap i its frame moves at exactly omega_i = max|phi_i| / 2
    / (t_{i+1} - t_i), so on a piece [t0, t1] of one gap ||Gamma F(t) -
    Gamma F(t0)|| <= d = ||Gamma|| omega_i (t1 - t0).  Wedin's sin Theta
    bound with sigma_min(Gamma F(t)) >= sigma(t0) - d turns the reduced
    span by at most theta with sin theta <= d / (sigma(t0) - d), and the
    pair unitary then moves by a chord 2 sin theta, so by Bauer-Fike no
    eigenvalue moves farther than the arc r = 2 arcsin(min(1, d /
    (sigma(t0) - d))) (inf when sigma(t0) <= d).  The march stops at the
    node times and steps so that d <= sigma s / (1 + s), s =
    sin(_STEP_ARC / 2), so r <= _STEP_ARC on each step; the reduced path
    carries r as its radius, which the count reads in place of the chord,
    with sigma cached by t for the points the count inserts.

    Heuristic route: any other refinable path.  The step is 0.2 sigma /
    (4 ||Gamma|| rate), the rate estimated from midpoint reads
    (``_probe_rate``), the march stops at the sample times, and the count
    reads the chord radius (``paths._arc_radius``).

    The reduced frames of the march times are formed after the march,
    all in one stacked ``lagrangian`` call; a point the count inserts
    forms its own when first read.  Every reduced frame is
    ``gamma_reduce``'s, whose rank tolerance is the small space's
    ``tol``: nothing here takes a tolerance of its own.
    """
    _expect(PolarizedPair, "gamma_reduce_path", pp)
    _expect(LagrangianPath, "gamma_reduce_path", path)
    if path.refiner is None:
        samples = tuple(
            zip(
                [t for t, _ in path.samples],
                _reduced(pp, [f for _, f in path.samples]),
            )
        )
        return LagrangianPath(samples=samples, refiner=None)

    gamma = pp._gamma
    frames = _Formed(path.at)
    reduced = _Formed(lambda t: gamma_reduce(pp, frames[t]))
    sigma = _Formed(
        lambda t: np.linalg.svd(gamma @ frames[t].F, compute_uv=False).min()
    )
    norm = np.linalg.norm(gamma, 2)
    radius = None
    if (
        path._geodesic is not None
        and path.space.is_standard
        and pp.small.is_standard
    ):
        geodesic = path._geodesic[1]
        knots = geodesic.times.tolist()
        rates = [
            norm * piece.speed / 2.0 / (b - a)
            for piece, a, b in zip(geodesic.pieces, knots, knots[1:])
        ]
        s = np.sin(0.5 * _STEP_ARC)

        def step(t):
            rate = rates[geodesic._gap(t)]
            return sigma[t] * s / (1.0 + s) / rate if rate > 0 else np.inf

        def radius(t0, t1):
            d = rates[geodesic._gap(t0)] * (t1 - t0)
            if sigma[t0] <= d:
                return np.inf
            return 2.0 * np.arcsin(min(1.0, d / (sigma[t0] - d)))

    else:
        speed = 4.0 * norm * max(_probe_rate(path), 1e-2)
        knots = [t for t, _ in path.samples]

        def step(t):
            return 0.2 * sigma[t] / speed

    times = _march(step, knots)
    reduced.update(zip(times, _reduced(pp, [frames[t] for t in times])))
    samples = tuple((t, reduced[t]) for t in times)
    return LagrangianPath(
        samples=samples, refiner=reduced.__getitem__, _radius=radius
    )


def _march(step, knots):
    """Times from 0 to 1, each step(t) (at least ``_MIN_STEP``) past the
    last and stopping at every knot."""
    out = [0.0]
    t = 0.0
    next_knot = 1
    while t < 1.0:
        if len(out) > 200_000:
            raise AmbiguityError(
                "reduction conditioning defeats resampling",
                where="gamma_reduce_path",
            )
        h = max(step(t), _MIN_STEP)
        while next_knot < len(knots) and knots[next_knot] <= t:
            next_knot += 1
        t2 = min(1.0, t + h)
        if next_knot < len(knots):
            t2 = min(t2, knots[next_knot])
        out.append(t2)
        t = t2
    return out


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
