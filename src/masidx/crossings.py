"""Crossing detection and crossing forms.

A crossing of a Lagrangian path {mu_t} against a reference lam is an
instant where mu_t ∩ lam is nontrivial, i.e. where the pair unitary has an
eigenvalue at -1.  At a crossing the path is a graph over mu_{t*} with a
symmetric generator A_t; the crossing form is the derivative of A_t
restricted to the intersection.  Regular crossings (nondegenerate form)
localize the index: summing signatures with boundary corrections
reproduces the counting index.

The search for crossings reads the partition of that count, with the
unitaries and offsets it read (``paths._pair_partition``), and halves
only the pieces whose arc radius lets an eigenvalue reach -1, so it
needs no sampling of its own.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .core import DEFAULT_TOL, complexify_vectors
from .errors import AmbiguityError, PreconditionError
from .paths import EPS_CAP, _arc_radius, _pair_partition
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


def find_crossings(path, lam, tol=DEFAULT_TOL):
    """All parameter values where the path meets the reference.

    Reads the pieces of the counting partition (``paths._pair_partition``)
    and their arc radius r (``paths._arc_radius``).  A zero of an
    eigenphase offset at t in [t0, t1] lies within r (t - t0) / (t1 - t0)
    of the offsets at t0 and within r (t1 - t) / (t1 - t0) of those at t1
    where the radius grows linearly (geodesic pieces; elsewhere this is
    the count's heuristic), so a piece can hold one only when the nearest
    offsets at its ends sum to at most r.  Other pieces are dropped, the
    rest halved until they are ``tol.bisect_t`` wide or both ends lie
    within ``tol.angular`` of -1.  Touching leaves form one crossing.  A
    cluster at t = 0 or 1 reports that end.  Elsewhere the first leaf
    across which the number of offsets in (0, EPS_CAP] changes is bisected
    on that number to ``tol.bisect_t``; a cluster where it never changes
    (a touch, or passages that cancel) reports its end nearest -1.  A
    crossing whose offset stays below the angular tolerance 1000
    ``tol.crossing_width`` to both sides raises AmbiguityError
    (non-isolated).

    The pieces that the count reads as geodesic are searched exactly.  On
    other pieces a touch of -1 that no read point comes near can go
    unseen, as in the count.
    """
    if path.refiner is None:
        raise AmbiguityError(
            "crossing localization requires a refiner", where="find_crossings"
        )
    upath, ts, mats, spectra = _pair_partition(path, lam, tol)

    def offsets(t):
        if t not in spectra:
            if t not in mats:
                mats[t] = upath.at(t)
            spectra[t] = minus_one_offsets(mats[t])
        return spectra[t]

    def gap(t):
        return float(np.abs(offsets(t)).min())

    def above(t):
        # offsets in (0, EPS_CAP]: a passage through -1 changes the count
        s = offsets(t)
        return int(np.count_nonzero((s > 0.0) & (s <= EPS_CAP)))

    leaves = []
    for piece in zip(ts[:-1], ts[1:]):
        stack = [piece]
        while stack:
            t0, t1 = stack.pop()
            a0, a1 = gap(t0), gap(t1)
            r = _arc_radius(upath, mats, t0, t1, tol)
            # a zero on a geodesic piece makes the sum equal r: the slack
            # is rounding only, so pieces beside a crossing still drop
            if a0 + a1 > r * (1.0 + 1e-9) + 1e-13:
                continue
            if t1 - t0 <= tol.bisect_t or max(a0, a1) <= tol.angular:
                leaves.append((t0, t1))
                continue
            tm = 0.5 * (t0 + t1)
            stack += [(tm, t1), (t0, tm)]

    clusters = []
    for t0, t1 in leaves:
        if clusters and clusters[-1][-1] == t0:
            clusters[-1].append(t1)
        else:
            clusters.append([t0, t1])
    hits = []
    for ends in clusters:
        if ends[0] == ts[0] or ends[-1] == ts[-1]:
            hits.append(ends[0] if ends[0] == ts[0] else ends[-1])
            continue
        steps = [
            (a, b) for a, b in zip(ends[:-1], ends[1:]) if above(a) != above(b)
        ]
        if not steps:
            # a touch, or passages that cancel: the end nearest -1
            hits.append(min(ends, key=gap))
            continue
        a, b = steps[0]
        while b - a > tol.bisect_t:
            tm = 0.5 * (a + b)
            if above(tm) == above(a):
                a = tm
            else:
                b = tm
        hits.append(0.5 * (a + b))

    # non-isolated means dwelling on the cycle, not a flat tangency: probe
    # well outside any C^2 graze of ordinary curvature
    dwell = 1000.0 * tol.crossing_width
    for t in hits:
        lo, hi = t - dwell, t + dwell
        if (
            lo >= 0.0
            and hi <= 1.0
            and gap(lo) <= tol.angular
            and gap(hi) <= tol.angular
        ):
            raise AmbiguityError(
                f"non-isolated crossing around t={t}", where="find_crossings"
            )
    return [float(t) for t in hits]


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
