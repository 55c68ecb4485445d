"""Crossing detection and crossing forms.

A crossing of a Lagrangian path {mu_t} against a reference lam is an
instant where mu_t ∩ lam is nontrivial, i.e. where the pair unitary has an
eigenvalue at -1.  At a crossing the path is a graph over mu_{t*} with a
symmetric generator A_t; the crossing form is the derivative of A_t
restricted to the intersection.  Regular crossings (nondegenerate form)
localize the index: summing signatures with boundary corrections
reproduces the counting index.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur
from scipy.optimize import minimize_scalar

from .core import DEFAULT_TOL, complexify_vectors
from .errors import AmbiguityError, PreconditionError
from .paths import _adequate
from .souriau import minus_one_offsets, souriau

__all__ = [
    "Crossing",
    "find_crossings",
    "crossing_form",
    "crossing_form_phase",
    "crossing_sum",
    "maslov_via_crossings",
]


@dataclass(frozen=True)
class Crossing:
    t_star: float
    kernel: np.ndarray
    form: np.ndarray
    signature: tuple
    regular: bool

    @property
    def sign(self):
        p, q = self.signature
        return p - q

    @property
    def dim(self):
        return self.kernel.shape[1]


def _nearest_offset(W):
    s = minus_one_offsets(W)
    return s[np.argmin(np.abs(s))]


def _motion_bound(W0, W1):
    """Angular bound on eigenvalue motion between two unitaries."""
    gap = np.linalg.norm(W0 - W1, 2)
    return 2.0 * np.arcsin(min(1.0, gap / 2.0))


def find_crossings(path, lam, tol=DEFAULT_TOL):
    """All parameter values where the path meets the reference.

    Sign changes of the nearest eigenphase offset are bisected to 1e-10
    in t; offset dips without a sign change (tangencies, even
    multiplicities) are resolved by bounded minimization.  A crossing
    whose offset stays below the angular tolerance over a window wider
    than ``tol.crossing_width`` raises AmbiguityError (non-isolated).
    """
    if path.refiner is None:
        raise AmbiguityError(
            "crossing localization requires a refiner", where="find_crossings"
        )

    def g(t):
        return _nearest_offset(souriau(lam, path.at(t)))

    samples = _adequate(
        list(path.samples), path.refiner, tol.adjacency_frame, "find_crossings"
    )
    ts = [t for t, _ in samples]
    ws = [souriau(lam, f) for _, f in samples]
    gs = [_nearest_offset(W) for W in ws]

    def genuine(t_hit):
        # a continuous offset passing through zero stays within the
        # eigenvalue motion of the last bracket; a wrap through +-pi or a
        # nearest-eigenvalue identity switch leaves a finite residual
        w_lo = souriau(lam, path.at(max(0.0, t_hit - tol.bisect_t)))
        w_hi = souriau(lam, path.at(min(1.0, t_hit + tol.bisect_t)))
        bound = max(tol.angular, _motion_bound(w_lo, w_hi))
        return abs(g(t_hit)) <= bound

    hits = []
    for t, gv in zip(ts, gs):
        if abs(gv) <= tol.angular:
            hits.append(float(t))
    for i in range(len(ts) - 1):
        t0, t1 = ts[i], ts[i + 1]
        g0, g1 = gs[i], gs[i + 1]
        if abs(g0) <= tol.angular or abs(g1) <= tol.angular:
            continue
        if np.sign(g0) != np.sign(g1):
            t_hit = _bisect(g, t0, t1, g0, tol)
            if genuine(t_hit):
                hits.append(t_hit)
        elif min(abs(g0), abs(g1)) <= _motion_bound(ws[i], ws[i + 1]):
            res = minimize_scalar(
                lambda t: abs(g(t)),
                bounds=(t0, t1),
                method="bounded",
                options={"xatol": tol.bisect_t},
            )
            if abs(res.fun) <= tol.angular:
                hits.append(float(res.x))

    hits.sort()
    merged = []
    for t in hits:
        if merged and t - merged[-1] <= 100.0 * tol.bisect_t:
            continue
        merged.append(t)

    # non-isolated means dwelling on the cycle, not a flat tangency: probe
    # well outside any C^2 graze of ordinary curvature
    dwell = 1000.0 * tol.crossing_width
    for t in merged:
        lo, hi = t - dwell, t + dwell
        if (
            lo >= 0.0
            and hi <= 1.0
            and abs(g(lo)) <= tol.angular
            and abs(g(hi)) <= tol.angular
        ):
            raise AmbiguityError(
                f"non-isolated crossing around t={t}", where="find_crossings"
            )
    return merged


def _bisect(g, t0, t1, g0, tol):
    s0 = np.sign(g0)
    while t1 - t0 > tol.bisect_t:
        tm = 0.5 * (t0 + t1)
        gm = g(tm)
        if gm == 0.0:
            return tm
        if np.sign(gm) == s0:
            t0 = tm
        else:
            t1 = tm
    return 0.5 * (t0 + t1)


def _kernel_basis(path, lam, t_star, tol):
    mu = path.at(t_star)
    W = souriau(lam, mu)
    m = int(np.count_nonzero(np.abs(minus_one_offsets(W)) < tol.angular))
    if m == 0:
        raise PreconditionError(
            f"no crossing at t={t_star}", where="crossing_form"
        )
    stacked = np.hstack([mu.F, -lam.F])
    _, _, Vt = np.linalg.svd(stacked)
    coeff = Vt[-m:].T
    vecs = mu.F @ coeff[: mu.space.n]
    Q, R = np.linalg.qr(lam.space.g_half @ vecs)
    vecs = lam.space.g_half_inv @ (Q * np.sign(np.diag(R)))
    return mu, vecs


def _generator(space, base, frame):
    """Symmetric matrix of ``frame`` as a graph over ``base``."""
    C = base.F.T @ space.G @ frame.F
    D = (space.J @ base.F).T @ space.G @ frame.F
    return D @ np.linalg.inv(C)


def crossing_form(path, lam, t_star, h=None, tol=DEFAULT_TOL, richardson=False):
    """Crossing form at t_star, via graph coordinates over mu_{t*}.

    Central difference with step ``h`` (default 1e-4, one-sided at the
    endpoints); set ``richardson`` for fourth-order extrapolation.

    Returns a Crossing carrying the kernel basis (columns, original
    coordinates), the symmetric form on that basis, its signature (p, q)
    counted outside the relative regularity threshold, and the regularity
    flag.
    """
    if path.refiner is None:
        raise AmbiguityError(
            "crossing form requires a refiner", where="crossing_form"
        )
    if h is None:
        h = tol.diff_step
    mu_star, vecs = _kernel_basis(path, lam, t_star, tol)
    space = mu_star.space

    def gen_at(t):
        return _generator(space, mu_star, path.at(t))

    def derivative(step):
        lo, hi = t_star - step, t_star + step
        if lo < 0.0:
            a, b, w = gen_at(t_star), gen_at(t_star + step), step
        elif hi > 1.0:
            a, b, w = gen_at(t_star - step), gen_at(t_star), step
        else:
            a, b, w = gen_at(lo), gen_at(hi), 2.0 * step
        diff = b - a
        norm = np.linalg.norm(diff, 2)
        floor = 1e-12 * max(
            1.0, np.linalg.norm(a, 2), np.linalg.norm(b, 2)
        )
        if norm <= floor:
            raise AmbiguityError(
                "degenerate differentiation: sampled generator difference "
                "at noise floor",
                where="crossing_form",
            )
        return diff / w

    dA = derivative(h)
    if richardson:
        dA = (4.0 * dA - derivative(2.0 * h)) / 3.0
    K = mu_star.F.T @ space.G @ vecs
    Q = K.T @ dA @ K
    Q = 0.5 * (Q + Q.T)
    return _package(t_star, vecs, Q, tol)


def _package(t_star, vecs, Q, tol):
    w = np.linalg.eigvalsh(Q)
    thresh = tol.regularity * max(np.abs(w).max(initial=0.0), 0.0)
    p = int(np.count_nonzero(w > thresh))
    q = int(np.count_nonzero(w < -thresh))
    regular = (p + q == len(w)) and len(w) > 0 and np.abs(w).min() > thresh
    return Crossing(
        t_star=float(t_star),
        kernel=vecs,
        form=Q,
        signature=(p, q),
        regular=bool(regular),
    )


def crossing_form_phase(path, lam, t_star, h=None, tol=DEFAULT_TOL):
    """Phase-velocity version of the crossing form (Hermitian).

    R_t = -i Log(W(t*)^H W(t)) with the principal logarithm; the form is
    the derivative of zeta^H R_t zeta on the complexified kernel.  Errors
    when an eigenvalue of the argument sits within tolerance of the cut.
    """
    if h is None:
        h = tol.diff_step
    mu_star, vecs = _kernel_basis(path, lam, t_star, tol)
    std = mu_star.space.standardization
    V = vecs if std.source.is_standard else std.matrix @ vecs
    zeta = complexify_vectors(V)
    W_star = souriau(lam, mu_star)

    def m_at(t):
        W = souriau(lam, path.at(t))
        arg = W_star.conj().T @ W
        T, Z = schur(arg, output="complex")
        vals = np.diag(T)
        if np.min(np.abs(np.angle(-vals))) < tol.log_cut:
            raise PreconditionError(
                "logarithm argument touches the branch cut",
                where="crossing_form_phase",
            )
        R = (Z * np.angle(vals)) @ Z.conj().T
        return zeta.conj().T @ R @ zeta

    lo, hi = t_star - h, t_star + h
    if lo < 0.0:
        diff = (m_at(t_star + h) - m_at(t_star)) / h
    elif hi > 1.0:
        diff = (m_at(t_star) - m_at(t_star - h)) / h
    else:
        diff = (m_at(hi) - m_at(lo)) / (2.0 * h)
    Q = 0.5 * (diff + diff.conj().T)
    return Q


def crossing_sum(crossings):
    """Index from crossing forms: signatures with boundary corrections.

    Interior crossings contribute sign(Q) = p - q, a crossing at t = 0
    contributes -q, one at t = 1 contributes +p.  The crossings are read
    in order, and the first non-regular one raises PreconditionError.
    """
    total = 0
    for c in crossings:
        if not c.regular:
            raise PreconditionError(
                f"non-regular crossing at t={c.t_star}",
                where="maslov_via_crossings",
            )
        p, q = c.signature
        if c.t_star <= 1e-9:
            total -= q
        elif c.t_star >= 1.0 - 1e-9:
            total += p
        else:
            total += p - q
    return total


def maslov_via_crossings(path, lam, tol=DEFAULT_TOL, h=None):
    """Index as ``crossing_sum`` over the crossing forms of the path.

    All crossings must be regular.  Each form is built only after the
    ones before it passed, so the first non-regular crossing raises
    before later forms are differentiated.
    """
    return crossing_sum(
        crossing_form(path, lam, t_star, h=h, tol=tol)
        for t_star in find_crossings(path, lam, tol)
    )
