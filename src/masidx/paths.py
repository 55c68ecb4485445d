"""Paths of unitaries / Lagrangian frames and the counting index.

The index of a unitary path counts net passages of eigenvalues through -1,
read off from closed arcs [pi, pi + eps] with an admissible test angle:
for a partition t_0 < ... < t_m and per-interval angles eps_j,

    M = sum_j  k(t_{j+1}, eps_j) - k(t_j, eps_j)

where k(t, eps) is the number of eigenvalues of U(t) on the arc.  An
eigenvalue arriving at -1 at t = 1 from below therefore contributes +1,
while a path starting on -1 and moving upward contributes 0.

This is Phillips' definition, and no eigenvalue is matched across
samples.  eps_j is admissible when no eigenvalue of any U(t) on the piece
reaches it.  U is normal, so by Bauer-Fike every such eigenvalue lies
within the arc radius r of ||U(t) - U(t_j)||_2 of an eigenvalue at t_j:
balls of that radius around the offsets at t_j block everything the
piece can reach, and eps_j is the midpoint of the widest gap they leave
in (0, EPS_CAP].  A piece with no such gap is halved; without a refiner
that is an AmbiguityError.  ``_arc_radius`` says how r is read.

Lagrangian paths are converted through the pair unitary with a fixed
reference and the same machinery applies.  ``_pair_partition`` hands the
partition the count settles on, with every unitary and offset it read, to
the crossing search and the endpoint lifts: one partition per path, and
no time evaluated or decomposed twice.  ``IndexReport.trace`` matches
eigenphases only when read (``--trace``).  ``_phillips`` is the one
counting loop: ``spectral.spectral_flow`` runs it on the real line, with
Weyl balls around the eigenvalues of the boundary problem.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import schur
from scipy.optimize import linear_sum_assignment

from .core import DEFAULT_TOL, LagrangianFrame, _norm2_exceeds
from .errors import AmbiguityError, ValidationError
from .souriau import souriau

__all__ = [
    "UnitaryPath",
    "LagrangianPath",
    "unitary_path",
    "lagrangian_path",
    "unitary_path_from_function",
    "lagrangian_path_from_function",
    "catenate",
    "reverse",
    "unitary_geodesic",
    "PhaseTrace",
    "IndexReport",
    "unitary_maslov",
    "maslov",
    "EPS_CAP",
    "MAX_SAMPLES",
]

EPS_CAP = 1.0
# most samples a refined path may hold
MAX_SAMPLES = 60000
# longest chord ||U_t1 - U_t0||_2 of a piece that need not look geodesic
_END_CHORD = 0.5


# --------------------------------------------------------------------------
# path containers
# --------------------------------------------------------------------------


def _check_times(times, where):
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValidationError("need at least two samples", where=where)
    if not np.all(np.isfinite(times)):
        raise ValidationError("sample times must be finite", where=where)
    if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
        raise ValidationError(
            "parameter range must be [0, 1]", where=where
        )
    if np.any(np.diff(times) <= 0):
        raise ValidationError(
            "sample times must be strictly increasing", where=where
        )
    return times


def _at(path, t, where):
    """The sample at t, or the refiner's value when there is one."""
    if path.refiner is not None:
        return path.refiner(t)
    for ts, v in path.samples:
        if abs(ts - t) <= 1e-12:
            return v
    raise AmbiguityError(
        "path has no refiner and needs evaluation between samples",
        where=where,
    )


@dataclass(frozen=True, eq=False)
class UnitaryPath:
    """Sampled path of n x n unitaries on [0, 1].

    ``refiner`` (optional) evaluates the path at arbitrary t; without it
    the samples are all there is and under-resolution becomes an error
    rather than silent refinement.
    """

    samples: tuple
    refiner: object = field(default=None, repr=False)

    def __post_init__(self):
        ts = _check_times([t for t, _ in self.samples], "UnitaryPath")
        mats = []
        dim = None
        for t, U in self.samples:
            U = np.asarray(U, dtype=complex)
            if dim is None:
                dim = U.shape[0]
            if U.shape != (dim, dim):
                raise ValidationError(
                    "inconsistent matrix sizes", where="UnitaryPath"
                )
            if _norm2_exceeds(U.conj().T @ U - np.eye(dim), 1e-9):
                raise ValidationError(
                    f"sample at t={t} not unitary", where="UnitaryPath"
                )
            mats.append(U)
        object.__setattr__(
            self, "samples", tuple(zip(ts.tolist(), mats))
        )

    @property
    def dim(self):
        return self.samples[0][1].shape[0]

    def at(self, t):
        return np.asarray(_at(self, t, "UnitaryPath.at"), dtype=complex)


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """Sampled path of Lagrangian frames on [0, 1]."""

    samples: tuple
    refiner: object = field(default=None, repr=False)

    def __post_init__(self):
        _check_times([t for t, _ in self.samples], "LagrangianPath")
        space = None
        for _, f in self.samples:
            if not isinstance(f, LagrangianFrame):
                raise ValidationError(
                    "samples must be LagrangianFrame", where="LagrangianPath"
                )
            if space is None:
                space = f.space
            elif f.space is not space and not (
                np.allclose(f.space.J, space.J)
                and np.allclose(f.space.G, space.G)
            ):
                raise ValidationError(
                    "samples from different spaces", where="LagrangianPath"
                )

    @property
    def space(self):
        return self.samples[0][1].space

    def at(self, t):
        return _at(self, t, "LagrangianPath.at")


def unitary_path(samples, refiner=None):
    return UnitaryPath(samples=tuple(samples), refiner=refiner)


def lagrangian_path(samples, refiner=None):
    return LagrangianPath(samples=tuple(samples), refiner=refiner)


def _sampled(f, num):
    return [(float(t), f(float(t))) for t in np.linspace(0.0, 1.0, num)]


def unitary_path_from_function(f, num=17):
    return unitary_path(_sampled(f, num), refiner=f)


def lagrangian_path_from_function(f, num=17):
    return lagrangian_path(_sampled(f, num), refiner=f)


def _gap(a, b):
    """Difference of two samples whose spectral norm is their distance."""
    if isinstance(a, LagrangianFrame):
        return a.P - b.P
    return np.asarray(a) - np.asarray(b)


def catenate(first, second, tol=1e-8):
    """Concatenate two paths of the same kind; junction must match."""
    if type(first) is not type(second):
        raise ValidationError("cannot catenate different path kinds", "catenate")
    end = first.samples[-1][1]
    start = second.samples[0][1]
    if _norm2_exceeds(_gap(end, start), tol):
        raise ValidationError("junction mismatch", where="catenate")
    samples = [(0.5 * t, v) for t, v in first.samples]
    samples += [(0.5 + 0.5 * t, v) for t, v in second.samples[1:]]
    f1, f2 = first.refiner, second.refiner
    refiner = None
    if f1 is not None and f2 is not None:
        def refiner(t, _f1=f1, _f2=f2):
            return _f1(2.0 * t) if t <= 0.5 else _f2(2.0 * t - 1.0)
    return type(first)(samples=tuple(samples), refiner=refiner)


def reverse(path):
    samples = tuple(
        (1.0 - t, v) for t, v in reversed(path.samples)
    )
    f = path.refiner
    refiner = None if f is None else (lambda t, _f=f: _f(1.0 - t))
    return type(path)(samples=samples, refiner=refiner)


def unitary_geodesic(U0, U1, tol=DEFAULT_TOL):
    """Principal-logarithm geodesic t -> U0 exp(t log(U0^H U1)), t in [0, 1].

    Returns the callable, which evaluates lazily, or None when an
    eigenvalue of U0^H U1 lies within ``tol.log_cut`` of the logarithm cut
    at -1 (the endpoints are antipodal in that direction).
    """
    T, Z = schur(U0.conj().T @ U1, output="complex")
    vals = np.diag(T)
    if np.min(np.abs(np.angle(-vals))) < tol.log_cut:
        return None
    theta = np.angle(vals)

    def at(t):
        return U0 @ ((Z * np.exp(1j * t * theta)) @ Z.conj().T)

    return at


# --------------------------------------------------------------------------
# the counting index
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseTrace:
    """Matched trajectories for CSV export: ts (m,), values (m, n)."""

    kind: str
    ts: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class IndexReport:
    value: int
    partition: np.ndarray
    epsilons: np.ndarray
    k_counts: tuple
    diagnostics: dict
    # (unitaries, spectra, offsets) the count read, keyed by time
    _reads: tuple = field(repr=False, compare=False)

    @cached_property
    def trace(self):
        """Eigenphases matched across the partition, each row to the last
        by least total circular distance; built on first read."""
        spectra = self._reads[1]
        rows = [np.angle(spectra[self.partition[0]])]
        for t in self.partition[1:]:
            cur = np.angle(spectra[t])
            step = np.angle(np.exp(1j * (cur[None, :] - rows[-1][:, None])))
            rows.append(cur[linear_sum_assignment(np.abs(step))[1]])
        values = np.mod(np.array(rows), 2.0 * np.pi)
        return PhaseTrace(kind="eigenphase", ts=self.partition, values=values)


def _test_value(blocked, tol):
    """Admissible test value for one subinterval, or None.

    ``blocked`` lists the closed offset intervals that the spectrum may
    sweep on the subinterval.  Each is clamped to [0, EPS_CAP]; one that
    clamps to nothing or to {0} blocks nothing.  The test value is the
    midpoint of the widest free gap in (0, EPS_CAP], and None when the
    clearance (half its width) is below ``tol.clearance``.
    """
    gaps = []
    cursor = 0.0
    for lo, hi in sorted(
        (max(lo, 0.0), min(hi, EPS_CAP)) for lo, hi in blocked
    ):
        if hi <= 0.0 or hi < lo:
            continue
        if lo > cursor:
            gaps.append((lo - cursor, cursor, lo))
        cursor = max(cursor, hi)
    gaps.append((EPS_CAP - cursor, cursor, EPS_CAP))
    width, lo, hi = max(gaps)
    if width <= 0.0 or width / 2.0 < tol.clearance:
        return None
    return (lo + hi) / 2.0


def _count_on_arc(s, eps, snap):
    """Number of offsets in the closed test arc [0, eps], up to ``snap``."""
    return int(np.count_nonzero((s >= -snap) & (s <= eps + snap)))


def _phillips(ts, spec, radius, reach, split, snap, tol):
    """Phillips' count over the partition ``ts``, refined in place.

    A piece [t0, t1] with r = radius(t0, t1) <= ``reach`` takes as test
    value eps the midpoint of the widest gap that the balls (a - r, a + r)
    around the values a of spec(t0) leave in (0, EPS_CAP].  No value on
    the piece moves farther than r, so none reaches eps, and the piece
    adds the change in the number of values in [0, eps] between its ends.
    Any other piece goes to split(ts, i), which inserts a point into it
    or raises; only that piece is checked again.

    Returns (total, epsilons, k_counts).
    """
    total = 0
    epsilons = []
    k_counts = []
    i = 0
    while i < len(ts) - 1:
        t0, t1 = ts[i], ts[i + 1]
        r = radius(t0, t1)
        eps = None
        if r <= reach:
            eps = _test_value([(a - r, a + r) for a in spec(t0)], tol)
        if eps is None:
            split(ts, i)
            continue
        k = (_count_on_arc(spec(t0), eps, snap),
             _count_on_arc(spec(t1), eps, snap))
        epsilons.append(eps)
        k_counts.append(k)
        total += k[1] - k[0]
        i += 1
    return total, epsilons, k_counts


def _arc_radius(path, mats, t0, t1, tol):
    """Arc radius r = 2 arcsin(||U_t1 - U_t0||_2 / 2) of the piece [t0, t1].

    ``mats`` maps times to the unitaries read so far; a midpoint read
    here is added to it.  The radius is exact on a principal-log geodesic,
    where ||U_t - U_t0||_2 = 2 max_k |sin(tau theta_k / 2)| peaks at t1
    and grows linearly in tau: every piece of a CLI path with
    ``--refine-factor`` >= 2.  Elsewhere it is a heuristic, so a piece
    with chord above ``_END_CHORD`` gets radius inf unless its midpoint,
    read through the refiner, is the geodesic one; samples alone are read
    as gaps of chord at most ``_END_CHORD``.  A phase that turns by nearly
    whole turns between the points read goes unseen.
    """
    U0, U1 = mats[t0], mats[t1]
    chord = np.linalg.norm(U1 - U0, 2)
    if chord > _END_CHORD:
        if path.refiner is None:
            return np.inf
        # the geodesic midpoint is U0 M, M the principal square root
        # of U0^H U1: every eigenphase of M within pi / 2 of 0
        tm = 0.5 * (t0 + t1)
        if tm not in mats:
            mats[tm] = path.at(tm)
        Um = mats[tm]
        if _norm2_exceeds(Um - U0, np.sqrt(2.0)) or _norm2_exceeds(
            Um @ U0.conj().T @ Um - U1, tol.angular
        ):
            return np.inf
    return 2.0 * np.arcsin(min(chord / 2.0, 1.0))


def unitary_maslov(path, tol=DEFAULT_TOL):
    """Counting index of a path of unitaries, as an IndexReport with the
    partition, test angles and arc counts; its eigenphase trace is matched
    when it is read.

    Phillips' count (``_phillips``) of the offsets angle(-lambda), from
    the sampled partition, with the radius ``_arc_radius``.  While
    r <= pi - EPS_CAP no ball around a signed offset wraps past +-pi into
    the test arc, and U is normal, so by Bauer-Fike a gap between the
    balls around the offsets at t0 is admissible.  Other pieces are
    halved; AmbiguityError when that is impossible or refinement runs
    out.
    """
    mats = dict(path.samples)
    spectra = {}
    offsets = {}

    def spec(t):
        if t not in offsets:
            spectra[t] = np.linalg.eigvals(mats[t])
            offsets[t] = np.angle(-spectra[t])
        return offsets[t]

    def radius(t0, t1):
        return _arc_radius(path, mats, t0, t1, tol)

    def split(ts, i):
        if len(ts) - len(path.samples) >= 4000:
            raise AmbiguityError(
                "no admissible test angle after maximal refinement",
                where="unitary_maslov",
            )
        if path.refiner is None:
            raise AmbiguityError(
                "no admissible test angle at the sampled resolution "
                "(undersampled) and the path has no refiner",
                where="unitary_maslov",
            )
        if len(ts) >= MAX_SAMPLES:
            raise AmbiguityError("refinement exploded", where="unitary_maslov")
        tm = 0.5 * (ts[i] + ts[i + 1])
        if tm not in mats:
            mats[tm] = path.at(tm)
        ts.insert(i + 1, tm)

    ts = [t for t, _ in path.samples]
    total, epsilons, k_counts = _phillips(
        ts, spec, radius, np.pi - EPS_CAP, split, tol.clustering, tol
    )
    return IndexReport(
        value=int(total),
        partition=np.array(ts),
        epsilons=np.array(epsilons),
        k_counts=tuple(k_counts),
        diagnostics={"samples": len(ts)},
        _reads=(mats, spectra, offsets),
    )


def to_unitary_path(path, lam):
    """Pair-unitary conversion of a Lagrangian path against a reference."""
    usamples = tuple((t, souriau(lam, f)) for t, f in path.samples)
    refiner = None
    if path.refiner is not None:
        refiner = lambda t: souriau(lam, path.refiner(t))
    return UnitaryPath(samples=usamples, refiner=refiner)


def _pair_partition(path, lam, tol):
    """The pair-unitary path of ``path`` against ``lam``, the partition
    its count settles on, and the unitaries and offsets the count read,
    keyed by time: (upath, ts, mats, offsets).  Every partition time is in
    both, and every piece has arc radius at most pi - EPS_CAP.
    """
    upath = to_unitary_path(path, lam)
    report = unitary_maslov(upath, tol)
    mats, _, offsets = report._reads
    return upath, report.partition.tolist(), mats, offsets


def maslov(path, lam, tol=DEFAULT_TOL):
    """Index of a Lagrangian path against a fixed reference Lagrangian."""
    if not isinstance(path, LagrangianPath):
        raise ValidationError("expected a LagrangianPath", where="maslov")
    if not isinstance(lam, LagrangianFrame):
        raise ValidationError("expected a LagrangianFrame", where="maslov")
    return unitary_maslov(to_unitary_path(path, lam), tol)
