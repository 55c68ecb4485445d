"""Spectral flow of constant-coefficient first-order boundary problems.

A family member is the operator  JJ u' + (JJ B) u + C_t u  on [0, 1] with
JJ = [[0, I], [-I, 0]], B symmetric and anticommuting with JJ (so JJ B is
symmetric), C_t symmetric, and boundary conditions u(0) in lambda0,
u(1) in lambda1.  s is an eigenvalue iff the constant-coefficient flow
Phi_{t,s} = expm(-B + JJ C_t - s JJ) moves lambda0 onto a subspace
meeting lambda1.  ``eigenvalues_near`` shoots through one ``_Shooter``
per family time, which forms -B + JJ C_t once and shoots each s once.

The flow of eigenvalues through 0 as t sweeps [0, 1] is counted by the
same loop as the unitary index (``paths._phillips``): a partition of
[0, 1] with one admissible test value per interval, and the arc [0, eps]
on the real axis (closed at 0).  Only the radius of a piece differs.  Two
family members differ by the bounded symmetric multiplication
C_t - C_t', so no eigenvalue moves farther than ||C_t - C_t'||_2 (Weyl):
a ball of the piece's radius around every eigenvalue at the start of the
piece blocks all the spectrum the piece can reach, and no eigenvalue is
matched across samples.  The coincidence theorem equates the flow with
the index of the Cauchy-data path in the doubled space against
lambda0 ⊞ lambda1, and ``verify_coincidence`` computes both sides.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq, minimize_scalar

from .core import (
    DEFAULT_TOL,
    _norm2_exceeds,
    box_space,
    lagrangian,
    standard_space,
)
from .errors import AmbiguityError, PreconditionError, ValidationError
from .paths import LagrangianPath, _phillips, maslov

__all__ = [
    "BoundaryProblem",
    "boundary_problem",
    "fundamental_solution",
    "cauchy_data_path",
    "eigenvalues_near",
    "eigenvalue_trace",
    "spectral_flow",
    "SpectralFlowReport",
    "verify_coincidence",
    "JJ",
]

_DETECT_LO = -0.55
_DETECT_HI = 1.55
# Test values lie in (0, EPS_CAP] = (0, 1], and the detection window
# reaches 0.55 past both ends of that range.  An eigenvalue outside the
# window is therefore farther than _REACH from every test value and
# cannot reach one on a piece whose radius is at most _REACH.
_REACH = 0.5
_GRID = 0.29
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


@lru_cache(maxsize=8)
def _jj(N):
    """The structure matrix of size 2N, shared and read-only."""
    z = np.zeros((N, N))
    eye = np.eye(N)
    jj = np.block([[z, eye], [-eye, z]])
    jj.setflags(write=False)
    return jj


def JJ(N):
    """The structure matrix [[0, I], [-I, 0]] of size 2N, as a new array."""
    return _jj(N).copy()


def _exceeds(res, tol, scale, power=1):
    """``norm(res, 2) > tol * max(1, norm(scale, 2) ** power)``.

    The bound is at least ``tol``, so a residual that ``_norm2_exceeds``
    clears against ``tol`` passes without any SVD; only the others take
    the exact test.
    """
    return _norm2_exceeds(res, tol) and bool(
        np.linalg.norm(res, 2)
        > tol * max(1.0, np.linalg.norm(scale, 2) ** power)
    )


@dataclass(frozen=True, eq=False)
class BoundaryProblem:
    """Sampled family of boundary problems over t in [0, 1].

    ``c_func`` (optional) evaluates C_t exactly; otherwise intermediate
    values are linear interpolations of the samples.
    """

    N: int
    B: np.ndarray
    ts: np.ndarray
    cs: np.ndarray
    lambda0: np.ndarray
    lambda1: np.ndarray
    c_func: object = field(default=None, repr=False)

    def c_at(self, t):
        if self.c_func is not None:
            return np.asarray(self.c_func(t), dtype=float)
        i = np.searchsorted(self.ts, t)
        if i == 0:
            return self.cs[0]
        if i >= len(self.ts):
            return self.cs[-1]
        t0, t1 = self.ts[i - 1], self.ts[i]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.cs[i - 1] + w * self.cs[i]

    def solution(self, t, s):
        return fundamental_solution(self.B, self.c_at(t), s)


def boundary_problem(N, B, family, lambda0, lambda1, c_func=None):
    """Validated BoundaryProblem.

    ``family`` is a sequence of (t, C_t) covering [0, 1].
    """
    if N < 1:
        raise ValidationError("N must be >= 1", where="boundary_problem")
    m = 2 * N
    B = np.asarray(B, dtype=float)
    if B.shape != (m, m):
        raise ValidationError("B has wrong shape", where="boundary_problem")
    if _exceeds(B - B.T, 1e-10, B):
        raise ValidationError("B not symmetric", where="boundary_problem")
    jj = _jj(N)
    if _exceeds(jj @ B + B @ jj, 1e-9, B):
        raise ValidationError(
            "B must anticommute with the structure matrix "
            "(otherwise the flow is not symplectic)",
            where="boundary_problem",
        )
    ts = np.array([float(t) for t, _ in family])
    if (
        ts.size < 2
        or not np.all(np.isfinite(ts))
        or abs(ts[0]) > 1e-12
        or abs(ts[-1] - 1.0) > 1e-12
        or np.any(np.diff(ts) <= 0)
    ):
        raise ValidationError(
            "family times must increase from 0 to 1", where="boundary_problem"
        )
    cs = []
    for _, C in family:
        C = np.asarray(C, dtype=float)
        if C.shape != (m, m):
            raise ValidationError(
                "C has wrong shape", where="boundary_problem"
            )
        if _exceeds(C - C.T, 1e-10, C):
            raise ValidationError("C not symmetric", where="boundary_problem")
        cs.append(C)
    space = standard_space(N)
    f0 = lagrangian(space, np.asarray(lambda0, dtype=float))
    f1 = lagrangian(space, np.asarray(lambda1, dtype=float))
    return BoundaryProblem(
        N=N,
        B=B,
        ts=ts,
        cs=np.array(cs),
        lambda0=f0.F,
        lambda1=f1.F,
        c_func=c_func,
    )


def _generator(B, C):
    """(-B + JJ C, JJ): the s-independent part of the flow exponent."""
    B = np.asarray(B, dtype=float)
    jj = _jj(B.shape[0] // 2)
    return -B + jj @ np.asarray(C, dtype=float), jj


def _flow(gen, jj, s):
    """expm(gen - s JJ), checked symplectic for the JJ-form to 1e-9.

    The check runs on every flow: it is the only validation of C_t
    values from ``c_func``.
    """
    Phi = expm(gen - s * jj)
    if _exceeds(Phi.T @ jj @ Phi - jj, 1e-9, Phi, power=2):
        raise ValidationError(
            "flow not symplectic (check B, C)", where="fundamental_solution"
        )
    return Phi


def fundamental_solution(B, C, s):
    """expm(-B + JJ C - s JJ); symplectic for the JJ-form to 1e-9."""
    return _flow(*_generator(B, C), s)


# --------------------------------------------------------------------------
# eigenvalue detection at fixed t
# --------------------------------------------------------------------------


class _Shooter:
    """Shooting matrix [Phi_s lambda0, lambda1] of ``bp`` at one family
    time, with (det, singular values) kept for every s already shot."""

    def __init__(self, bp, t):
        self._gen, self._jj = _generator(bp.B, bp.c_at(t))
        self._lambda0 = bp.lambda0
        self._lambda1 = bp.lambda1
        self._shots = {}

    def singular_values(self, s):
        return self._shot(s)[1]

    def __call__(self, s):
        """(det, smallest singular value) at s."""
        det, sv = self._shot(s)
        return det, float(sv[-1])

    def _shot(self, s):
        s = float(s)
        if s not in self._shots:
            Phi = _flow(self._gen, self._jj, s)
            M = np.hstack([Phi @ self._lambda0, self._lambda1])
            self._shots[s] = (
                float(np.linalg.det(M)),
                np.linalg.svd(M, compute_uv=False),
            )
        return self._shots[s]


def _multiplicity(shoot, s, thresh=1e-6):
    sv = shoot.singular_values(s)
    return max(1, int(np.count_nonzero(sv < thresh)))


def _bracketed_root(shoot, a, b, tol):
    """The root of the shooting determinant between a sign change."""
    return float(brentq(lambda s: shoot(s)[0], a, b, xtol=tol.bisect_t))


def _scan_cell(shoot, lo, hi, flo, fhi, slope, tol, depth, found):
    """Collect zeros of the shooting determinant inside (lo, hi).

    Sign change: one bracketed root.  No sign change: the cell can only
    hide roots if the smallest singular value could descend to zero and
    come back inside it.  With that value ``slope``-Lipschitz in s, a zero
    at x in the cell forces mlo <= slope (x - lo) and mhi <= slope (hi - x),
    so the edges *together* reach at most ``slope * width``; a cell whose
    edges sum past that holds none.  Otherwise split until individual
    roots show up as sign changes or the dip search resolves a genuine
    tangency.
    A dip root of odd multiplicity changes the sign of the determinant,
    so between edges of one sign it has a partner, bracketed beside it.
    """
    (dlo, mlo), (dhi, mhi) = flo, fhi
    if (dlo < 0.0) != (dhi < 0.0):
        found.append(_bracketed_root(shoot, lo, hi, tol))
        return
    if mlo + mhi > slope * (hi - lo):
        return
    if depth > 0:
        mid = 0.5 * (lo + hi)
        fmid = shoot(mid)
        if fmid[1] < 1e-9:
            found.append(mid)
            return
        _scan_cell(shoot, lo, mid, flo, fmid, slope, tol, depth - 1, found)
        _scan_cell(shoot, mid, hi, fmid, fhi, slope, tol, depth - 1, found)
        return
    if min(mlo, mhi) < 0.15:
        res = minimize_scalar(
            lambda s: shoot(s)[1],
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": tol.bisect_t},
        )
        if res.fun < 1e-6:
            x = float(res.x)
            found.append(x)
            if _multiplicity(shoot, x) % 2:
                # the edges share a sign, so an odd root has a partner
                w = _merge_window(x, tol)
                for a, b in ((lo, x - w), (x + w, hi)):
                    if a < b and (shoot(a)[0] < 0.0) != (shoot(b)[0] < 0.0):
                        found.append(_bracketed_root(shoot, a, b, tol))


def eigenvalues_near(bp, t, lo, hi, tol=DEFAULT_TOL):
    """Eigenvalues in [lo, hi] at family time t, with multiplicity.

    Bracketed on determinant sign changes over a grid finer than the
    ladder spacing, refined to ``tol.bisect_t`` in s, with recursive
    subdivision of cells whose edges look near-singular (close root
    pairs, roots next to grid points).  ValidationError when that grid
    has fewer than two distinct points: [lo, hi] is a single point, or
    lies so far from 0 that the float spacing swallows the grid step.
    """
    grid = np.arange(lo, hi + _GRID, _GRID)
    if np.unique(grid).size < 2:
        raise ValidationError(
            f"the shooting grid on [{lo}, {hi}] has fewer than two "
            "distinct points",
            where="eigenvalues_near",
        )
    shoot = _Shooter(bp, t)
    vals = [shoot(float(s)) for s in grid]
    # empirical bound on how fast the smallest singular value can move;
    # V-shaped cells understate their own slope, so take the global max
    slope = max(
        2.0,
        3.0
        * max(
            abs(vals[i + 1][1] - vals[i][1]) / (grid[i + 1] - grid[i])
            for i in range(len(grid) - 1)
        ),
    )
    found = [float(s) for s, (_, m) in zip(grid, vals) if m < 1e-9]
    for i in range(len(grid) - 1):
        _scan_cell(
            shoot,
            float(grid[i]),
            float(grid[i + 1]),
            vals[i],
            vals[i + 1],
            slope,
            tol,
            5,
            found,
        )
    found.sort()
    roots = []
    for s in found:
        if roots and s - roots[-1] <= _merge_window(s, tol):
            if shoot(s)[1] < shoot(roots[-1])[1]:
                roots[-1] = s
            continue
        roots.append(s)
    out = [s for s in roots for _ in range(_multiplicity(shoot, s))]
    return np.array([s for s in out if lo - 1e-12 <= s <= hi + 1e-12])


def _merge_window(s, tol):
    """Distance below which two found roots are one.

    The bounded dip search stops within 4 (sqrt(eps) |s| + xatol / 3) of
    its minimum (scipy's fminbound rule), so away from s = 0 it resolves
    a root that sits on a grid point more coarsely than ``bisect_t``.
    """
    return 100.0 * tol.bisect_t + 4.0 * _SQRT_EPS * abs(s)


# --------------------------------------------------------------------------
# the flow count
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralFlowReport:
    value: int
    partition: np.ndarray
    epsilons: np.ndarray
    diagnostics: dict


def _radius(bp, t0, t1):
    """Largest ||C_t - C_{t0}||_2 over the piece [t0, t1].

    Read at t1 and at the family nodes inside the piece.  For a sampled
    family C_t is linear between nodes, where the norm is convex in t, so
    the value is the exact supremum.  A ``c_func`` family is read at the
    same points, and between them the value is a heuristic.
    """
    c0 = bp.c_at(t0)
    inner = bp.ts[(bp.ts > t0) & (bp.ts < t1)]
    return max(
        float(np.linalg.norm(bp.c_at(t) - c0, 2)) for t in (*inner, t1)
    )


def spectral_flow(bp, window=8.0, tol=DEFAULT_TOL):
    """Net count of eigenvalues crossing 0 as t sweeps [0, 1].

    Preconditions: no eigenvalue within ``tol.flow_guard`` of +-window
    at t = 0 or 1.  AmbiguityError when no admissible test value exists at
    the achievable time resolution (tangential crossing).  ValidationError
    naming the window when the flow at s = +-window fails the symplectic
    check: ``expm`` loses about |s| eps there, while C_0 and C_1 have
    already passed that check inside the detection window.

    Phillips' count (``paths._phillips``) from the partition {0, 1}, with
    the radius ``_radius`` and the reach ``_REACH``: by Weyl no eigenvalue
    moves farther than the radius on a piece.
    """
    spectra = {}

    def spec(t):
        if t not in spectra:
            spectra[t] = eigenvalues_near(bp, t, _DETECT_LO, _DETECT_HI, tol)
        return spectra[t]

    # the detection window checks the flow of C_0 and C_1 first, so a guard
    # shot that fails the symplectic check can only blame the window
    for t_end in (0.0, 1.0):
        spec(t_end)
        for edge in (-window, window):
            try:
                near = eigenvalues_near(
                    bp, t_end, edge - 0.5, edge + 0.5, tol
                )
            except ValidationError as exc:
                if exc.where != "fundamental_solution":
                    raise
                raise ValidationError(
                    f"window {window:g} is too wide: the flow at s = {edge:g} "
                    "is not accurate enough to guard the window edge",
                    where="spectral_flow",
                ) from exc
            if near.size and np.min(np.abs(near - edge)) < tol.flow_guard:
                raise PreconditionError(
                    f"eigenvalue within guard of {edge} at t={t_end}",
                    where="spectral_flow",
                )

    def split(ts, i):
        t0, t1 = ts[i], ts[i + 1]
        if t1 - t0 <= 1e-9 or len(ts) > 5000:
            raise AmbiguityError(
                "no admissible test value (tangential crossing?)",
                where="spectral_flow",
            )
        ts.insert(i + 1, 0.5 * (t0 + t1))

    ts = [0.0, 1.0]
    total, epsilons, _ = _phillips(
        ts, spec, lambda t0, t1: _radius(bp, t0, t1), _REACH, split,
        tol.flow_snap, tol,
    )
    return SpectralFlowReport(
        value=int(total),
        partition=np.array(ts),
        epsilons=np.array(epsilons),
        diagnostics={"time_samples": len(ts)},
    )


def eigenvalue_trace(bp, window=8.0, tol=DEFAULT_TOL):
    """Per-family-sample eigenvalue lists inside [-window, window]."""
    return tuple(
        (float(t), tuple(eigenvalues_near(bp, float(t), -window, window, tol)))
        for t in bp.ts
    )


# --------------------------------------------------------------------------
# the Maslov side
# --------------------------------------------------------------------------


def cauchy_data_path(bp, tol=DEFAULT_TOL):
    """Path of graph Lagrangians {(v, Phi_t v)} in the doubled space.

    Returns (path, boundary) where ``boundary`` is the lambda0 ⊞ lambda1
    frame the coincidence theorem pairs the path with.
    """
    base = standard_space(bp.N)
    bs = box_space(base)
    eye = np.eye(2 * bp.N)

    def frame_at(t):
        Phi = bp.solution(t, 0.0)
        return lagrangian(bs.space, np.vstack([eye, Phi]))

    samples = tuple((float(t), frame_at(float(t))) for t in bp.ts)
    path = LagrangianPath(samples=samples, refiner=frame_at)
    z = np.zeros((2 * bp.N, bp.N))
    boundary = lagrangian(
        bs.space,
        np.block([[bp.lambda0, z], [z, bp.lambda1]]),
    )
    return path, boundary


def verify_coincidence(bp, window=8.0, tol=DEFAULT_TOL):
    """Both sides of the coincidence theorem: {sf, mas, equal}."""
    sf = spectral_flow(bp, window=window, tol=tol)
    path, boundary = cauchy_data_path(bp, tol)
    mas = maslov(path, boundary, tol)
    return {
        "sf": int(sf.value),
        "mas": int(mas.value),
        "equal": bool(sf.value == mas.value),
    }
