"""Crossing detection and crossing forms.

A crossing of a Lagrangian path {mu_t} against a reference lam is an
instant where mu_t ∩ lam is nontrivial, i.e. where the pair unitary has an
eigenvalue at -1.  At a crossing the path is a graph over mu_{t*} with a
symmetric generator A_t; the crossing form is the derivative of A_t
restricted to the intersection (Robbin and Salamon, Topology 32, 1993).
Regular crossings (nondegenerate form) localize the index: summing
signatures with boundary corrections reproduces the counting index.

On a path of ``paths.lagrangian_geodesic`` (the CLI's paths) both steps
read the geodesic pieces.  The frame of a gap moves as d/dtau F = J F
diag(phi / 2), so the form on kernel coordinates a in the frame is a^T
diag(phi / 2) a / (t_{i+1} - t_i), with no differencing; and a simple
eigenvalue of the pair unitary turns at a rate read off one eigenvector,
so the search takes Newton steps to a crossing that only one eigenphase
can reach.  On other paths (user refiners) the form is differentiated
with the one step ``tol.diff_step`` and the search halves.  The tests
check these forms against a second one, the phase velocity of the pair
unitary on the complexified kernel.

The search for crossings reads the pair-unitary path as that count does,
with the count's radius rule (``paths._Reads``), from the path's own
times, and steps only into the pieces whose arc radius lets an eigenvalue
reach -1: it runs no count and needs no sampling of its own.  Every
crossing it finds, by Newton steps or by halving, passes one isolation
probe: a spectrum read to each side that lies in [0, 1], each of which
must be clear of -1.
"""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, LagrangianFrame, _expect, _expect_time
from .errors import AmbiguityError, PreconditionError
from .paths import (
    EPS_CAP,
    GeodesicPath,
    LagrangianPath,
    _Reads,
    _sample_times,
    to_unitary_path,
)
from .souriau import minus_one_offsets, souriau

__all__ = [
    "Crossing",
    "find_crossings",
    "crossing_form",
    "crossing_sum",
    "maslov_via_crossings",
]

# Relative and absolute rounding slack of the search's drop test.
_DROP_SLACK = 1e-9
_DROP_FLOOR = 1e-13
# Newton step in t below which the search takes the crossing as found.
_NEWTON_STEP = 1e-13
# Relative noise floor of a generator difference in ``crossing_form``.
_DIFF_FLOOR = 1e-12
# Distance from 0 or 1 within which a crossing counts as at that end.
_END_MATCH = 1e-9


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


def _piece_at(geodesic, t):
    """The piece of a ``GeodesicPath`` at t, tau there, and the width in t
    of its gap."""
    i = geodesic._gap(t)
    piece, tau = geodesic._locate(t)
    return piece, tau, geodesic.times[i + 1] - geodesic.times[i]


def _nearest_offset(geodesic, t):
    """The offsets angle(-lambda) of a ``GeodesicPath`` at t, the index k
    of the one nearest 0, and the rate in t at which it turns, read off
    one eigenvector (``_GeodesicPiece.eig``); the rate is exact for a
    simple lambda."""
    piece, tau, width = _piece_at(geodesic, t)
    vals, vecs = piece.eig(tau)
    offsets = np.angle(-vals)
    k = int(np.abs(offsets).argmin())
    rate = float(np.abs(vecs[:, k]) ** 2 @ piece.theta) / width
    return offsets, k, rate


def find_crossings(path, lam, tol=DEFAULT_TOL):
    """All parameter values where the path meets the reference.

    Starts from the own times of the pair-unitary path
    (``paths.to_unitary_path``): the grid of a CLI path, whose pair
    unitaries are geodesic pieces, else its sample times.  Reads the
    offsets of the pair unitaries and the arc radius r of a piece by the
    count's own rule (``paths._Reads``): exact on geodesic pieces, and the
    chord heuristic ``paths._arc_radius`` elsewhere.  A zero of an
    eigenphase offset at t in [t0, t1] lies within r (t - t0) / (t1 - t0)
    of the offsets at t0 and within r (t1 - t) / (t1 - t0) of those at t1
    where the radius grows linearly (geodesic pieces; elsewhere this is
    the count's heuristic), so a piece can hold one only when the nearest
    offsets at its ends sum to at most r.  A piece with r above pi -
    EPS_CAP is halved, as the count splits it: its chord may hide a
    longer arc.  Of the others, those with a larger sum are dropped, the
    rest halved until they are ``tol.bisect_t`` wide or both ends lie
    within ``tol.angular`` of -1.

    The step rule differs on a geodesic piece where one eigenphase alone
    can pass -1 and does: both ends lie farther than ``tol.angular`` from
    -1, the nearest offset changes sign between them, and every other
    offset at t0 lies beyond |nearest| + 2r (with the drop test's slack),
    so no other eigenphase reaches 0 or the nearest one's offsets.  Such a
    piece holds one crossing, found by safeguarded Newton steps on that
    offset, whose rate is read off one eigenvector: the first step is the
    secant, a step that would leave the bracket (kept by the offset's
    sign) is a halving, and the search stops at a step below 1e-13 or a
    bracket ``tol.bisect_t`` wide.

    Touching leaves form one crossing.  A cluster at t = 0 or 1 reports
    that end.  Elsewhere the first leaf across which the number of
    offsets in (0, EPS_CAP] changes is bisected on that number to
    ``tol.bisect_t``; a cluster where it never changes (a touch, or
    passages that cancel) reports its end nearest -1.  Each crossing
    reads the spectrum once at each probe point 1000
    ``tol.crossing_width`` to either side that lies in [0, 1], and raises
    AmbiguityError (non-isolated) where one lies within ``tol.angular``
    of -1: isolation needs every side clear, and a bisection on the count
    can land on the edge of a dwell, where one side is, as can a cluster
    that reaches an end and reports it.  So does a piece
    ``tol.bisect_t`` wide whose r is still above pi - EPS_CAP, where the
    count runs out of refinement.

    The pieces that the count reads as geodesic are searched exactly.  On
    other pieces a touch of -1 that no read point comes near can go
    unseen, as in the count.
    """
    _expect(LagrangianPath, "find_crossings", path)
    _expect(LagrangianFrame, "find_crossings", lam)
    if path.refiner is None:
        raise AmbiguityError(
            "crossing localization requires a refiner", where="find_crossings"
        )
    upath = to_unitary_path(path, lam)
    ts, reads = _sample_times(upath), _Reads(upath, tol)
    reads.read_samples()
    offsets = reads.offsets
    reach = np.pi - EPS_CAP
    geodesic = isinstance(upath, GeodesicPath)

    def gap(t):
        return float(np.abs(offsets(t)).min())

    def above(t):
        # offsets in (0, EPS_CAP]: a passage through -1 changes the count
        s = offsets(t)
        return int(np.count_nonzero((s > 0.0) & (s <= EPS_CAP)))

    def passage(t0, t1, r):
        """The nearest offsets (f0, f1) at the ends of a geodesic piece
        that one eigenphase alone can pass 0 on, and does; else None."""
        s0, s1 = offsets(t0), offsets(t1)
        f0 = float(s0[np.abs(s0).argmin()])
        f1 = float(s1[np.abs(s1).argmin()])
        if min(abs(f0), abs(f1)) <= tol.angular or (f0 > 0.0) == (f1 > 0.0):
            return None
        # any other offset stays beyond |f0| + r on the piece, and the
        # nearest one within it: the nearest at each end is one eigenphase
        rest = np.sort(np.abs(s0))[1:2]
        bound = (abs(f0) + 2.0 * r) * (1.0 + _DROP_SLACK) + _DROP_FLOOR
        if rest.size and rest[0] <= bound:
            return None
        return f0, f1

    def newton(a, b, fa, fb):
        """The zero in [a, b] of the offset ``passage`` found, with the
        offsets fa at a and fb at b."""
        t = a + (b - a) * fa / (fa - fb)
        while True:
            offsets_t, k, rate = _nearest_offset(upath, t)
            f = float(offsets_t[k])
            if (f > 0.0) == (fa > 0.0):
                a = t
            else:
                b = t
            step = -f / rate if rate else np.inf
            if abs(step) <= _NEWTON_STEP:
                return t + step
            # a step that would leave the bracket is a halving
            t = t + step if a < t + step < b else 0.5 * (a + b)
            if b - a <= tol.bisect_t:
                return t

    hits, leaves = [], []
    for piece in zip(ts[:-1], ts[1:]):
        stack = [piece]
        while stack:
            t0, t1 = stack.pop()
            a0, a1 = gap(t0), gap(t1)
            r = reads.radius(t0, t1)
            if r > reach:
                # the count splits this piece: a chord read as a short
                # arc may hide a phase that turns the long way
                if t1 - t0 <= tol.bisect_t:
                    raise AmbiguityError(
                        f"no arc radius below pi - EPS_CAP around t={t0}",
                        where="find_crossings",
                    )
            # a zero on a geodesic piece makes the sum equal r: the slack
            # is rounding only, so pieces beside a crossing still drop
            elif a0 + a1 > r * (1.0 + _DROP_SLACK) + _DROP_FLOOR:
                continue
            elif t1 - t0 <= tol.bisect_t or max(a0, a1) <= tol.angular:
                leaves.append((t0, t1))
                continue
            elif geodesic and (ends := passage(t0, t1, r)) is not None:
                hits.append(newton(t0, t1, *ends))
                continue
            tm = 0.5 * (t0 + t1)
            stack += [(tm, t1), (t0, tm)]

    clusters = []
    for t0, t1 in leaves:
        if clusters and clusters[-1][-1] == t0:
            clusters[-1].append(t1)
        else:
            clusters.append([t0, t1])
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
    hits.sort()

    # non-isolated means dwelling on the cycle, not a flat tangency: probe
    # well outside any C^2 graze of ordinary curvature
    dwell = 1000.0 * tol.crossing_width
    for t in hits:
        probes = [p for p in (t - dwell, t + dwell) if 0.0 <= p <= 1.0]
        if probes and min(map(gap, probes)) <= tol.angular:
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


def crossing_form(path, lam, t_star, tol=DEFAULT_TOL):
    """Crossing form at t_star, via graph coordinates over mu_{t*}.

    On a path of ``paths.lagrangian_geodesic`` (every CLI path) the frame
    of the gap at t_star moves as J F diag(phi / 2) / (t_{i+1} - t_i), so
    the generator's derivative is that diagonal and the form is exact.
    Elsewhere (user refiners) it is one central difference with step
    ``tol.diff_step`` (one-sided at the endpoints), which acts on those
    paths only.

    Returns a Crossing carrying the kernel basis (columns, original
    coordinates), the symmetric form on that basis, its signature (p, q)
    counted outside the relative regularity threshold, and the regularity
    flag.  ValidationError unless t_star is a number in [0, 1].
    """
    _expect(LagrangianPath, "crossing_form", path)
    _expect(LagrangianFrame, "crossing_form", lam)
    _expect_time(t_star, "crossing_form")
    if path.refiner is None:
        raise AmbiguityError(
            "crossing form requires a refiner", where="crossing_form"
        )
    mu_star, vecs = _kernel_basis(path, lam, t_star, tol)
    if path._geodesic is not None:
        piece, _, width = _piece_at(path._geodesic[1], t_star)
        dA = np.diag(0.5 * piece.theta / width)
    else:
        dA = _generator_rate(path, mu_star, t_star, tol)
    # the kernel's coordinates in the frame of mu_{t*}
    K = mu_star.F.T @ mu_star.space.G @ vecs
    Q = K.T @ dA @ K
    Q = 0.5 * (Q + Q.T)
    return _package(t_star, vecs, Q, tol)


def _generator_rate(path, mu_star, t_star, tol):
    """d/dt of the generator over mu_{t*} at t_star, by one difference
    with step ``tol.diff_step``."""

    def gen_at(t):
        return _generator(mu_star.space, mu_star, path.at(t))

    step = tol.diff_step
    lo, hi = t_star - step, t_star + step
    if lo < 0.0:
        a, b, w = gen_at(t_star), gen_at(hi), step
    elif hi > 1.0:
        a, b, w = gen_at(lo), gen_at(t_star), step
    else:
        a, b, w = gen_at(lo), gen_at(hi), 2.0 * step
    diff = b - a
    norm = np.linalg.norm(diff, 2)
    floor = _DIFF_FLOOR * max(1.0, np.linalg.norm(a, 2), np.linalg.norm(b, 2))
    if norm <= floor:
        raise AmbiguityError(
            "degenerate differentiation: sampled generator difference "
            "at noise floor",
            where="crossing_form",
        )
    return diff / w


def _package(t_star, vecs, Q, tol):
    w = np.linalg.eigvalsh(Q)
    thresh = tol.regularity * np.abs(w).max(initial=0.0)
    p = int(np.count_nonzero(w > thresh))
    q = int(np.count_nonzero(w < -thresh))
    regular = len(w) > 0 and p + q == len(w)
    return Crossing(
        t_star=float(t_star),
        kernel=vecs,
        form=Q,
        signature=(p, q),
        regular=bool(regular),
    )


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
        if c.t_star <= _END_MATCH:
            total -= q
        elif c.t_star >= 1.0 - _END_MATCH:
            total += p
        else:
            total += p - q
    return total


def maslov_via_crossings(path, lam, tol=DEFAULT_TOL):
    """Index as ``crossing_sum`` over the crossing forms of the path.

    All crossings must be regular.  Each form is built only after the
    ones before it passed, so the first non-regular crossing raises
    before later forms are differentiated.
    """
    return crossing_sum(
        crossing_form(path, lam, t_star, tol=tol)
        for t_star in find_crossings(path, lam, tol)
    )
