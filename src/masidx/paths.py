"""Paths of unitaries / Lagrangian frames and the counting index.

The index of a unitary path counts net passages of eigenvalues through -1,
read off from closed arcs [pi, pi + eps] with an admissible test angle:
for a partition t_0 < ... < t_m and per-interval angles eps_j,

    M = sum_j  k(t_{j+1}, eps_j) - k(t_j, eps_j)

where k(t, eps) is the number of eigenvalues of U(t) on the arc.  An
eigenvalue arriving at -1 at t = 1 from below therefore contributes +1,
while a path starting on -1 and moving upward contributes 0.

Admissibility of eps_j is decided against the swept spectrum: eigenvalues
of the two endpoint samples are matched pairwise, each matched pair blocks
the interval of distances-to-(-1) it sweeps, and eps_j is the midpoint of
the widest unblocked gap in (0, 1].  If the clearance (half that gap) drops
below tolerance the path is refined; without a refiner this is an
AmbiguityError.

Lagrangian paths are converted through the pair unitary with a fixed
reference and the same machinery applies.  ``spectral.spectral_flow``
counts with the same ``_test_value`` and ``_count_on_arc`` on the real
line, where the blocked intervals are Weyl balls around both end spectra
and no eigenvalue is matched.
"""

from dataclasses import dataclass, field

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
_MAX_ROUNDS = 24


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
        if self.refiner is None:
            for ts, U in self.samples:
                if abs(ts - t) <= 1e-12:
                    return U
            raise AmbiguityError(
                "path has no refiner and needs evaluation between samples",
                where="UnitaryPath.at",
            )
        return np.asarray(self.refiner(t), dtype=complex)


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
        if self.refiner is None:
            for ts, f in self.samples:
                if abs(ts - t) <= 1e-12:
                    return f
            raise AmbiguityError(
                "path has no refiner and needs evaluation between samples",
                where="LagrangianPath.at",
            )
        return self.refiner(t)


def unitary_path(samples, refiner=None):
    return UnitaryPath(samples=tuple(samples), refiner=refiner)


def lagrangian_path(samples, refiner=None):
    return LagrangianPath(samples=tuple(samples), refiner=refiner)


def unitary_path_from_function(f, num=17):
    ts = np.linspace(0.0, 1.0, num)
    return UnitaryPath(
        samples=tuple((float(t), f(float(t))) for t in ts), refiner=f
    )


def lagrangian_path_from_function(f, num=17):
    ts = np.linspace(0.0, 1.0, num)
    return LagrangianPath(
        samples=tuple((float(t), f(float(t))) for t in ts), refiner=f
    )


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
    trace: PhaseTrace
    diagnostics: dict


def _match(prev, cur):
    """Permutation of cur minimizing total circular distance to prev."""
    diff = np.abs(
        np.angle(np.exp(1j * (cur[None, :] - prev[:, None])))
    )
    return linear_sum_assignment(diff)[1]


def _blocked_intervals(s0, s1):
    """Distance-to-(-1) intervals swept by matched eigenvalue motion."""
    order = _match(s0, s1)
    out = []
    for a, b in zip(s0, s1[order]):
        raw = b - a
        if abs(raw) > np.pi:
            # motion wrapped through the +1 side of the circle
            out.append((min(abs(a), abs(b)), np.pi))
        elif a * b < 0.0:
            out.append((0.0, max(abs(a), abs(b))))
        else:
            lo, hi = sorted((abs(a), abs(b)))
            out.append((lo, hi))
    return out


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


def _adequate(samples, refiner, bound, where):
    """Insert midpoints until adjacent samples are closer than ``bound``."""
    samples = list(samples)
    for _ in range(_MAX_ROUNDS):
        inserts = []
        for i in range(len(samples) - 1):
            if _norm2_exceeds(_gap(samples[i][1], samples[i + 1][1]), bound):
                inserts.append(i)
        if not inserts:
            return samples
        if refiner is None:
            raise AmbiguityError(
                "sample spacing violates the adjacency bound and the path "
                "has no refiner",
                where=where,
            )
        if len(samples) + len(inserts) > MAX_SAMPLES:
            raise AmbiguityError("refinement exploded", where=where)
        for i in reversed(inserts):
            tm = 0.5 * (samples[i][0] + samples[i + 1][0])
            samples.insert(i + 1, (tm, refiner(tm)))
    raise AmbiguityError(
        "adjacency bound unreachable by refinement", where=where
    )


def _insert_midpoint(samples, i, refiner, where):
    if refiner is None:
        raise AmbiguityError(
            "no admissible test angle at the sampled resolution "
            "(undersampled) and the path has no refiner",
            where=where,
        )
    if len(samples) >= MAX_SAMPLES:
        raise AmbiguityError("refinement exploded", where=where)
    tm = 0.5 * (samples[i][0] + samples[i + 1][0])
    samples.insert(i + 1, (tm, refiner(tm)))


def unitary_maslov(path, tol=DEFAULT_TOL):
    """Counting index of a path of unitaries.

    Parameters
    ----------
    path : UnitaryPath
    tol : Tolerances

    Returns
    -------
    IndexReport
        ``value`` is the integer index; partition, per-interval test
        angles, arc counts and the matched eigenphase trace ride along.

    Raises
    ------
    AmbiguityError
        Adjacency bound or admissible test angle unattainable at the
        available resolution.
    """
    refiner = (
        None
        if path.refiner is None
        else (lambda t: np.asarray(path.refiner(t), dtype=complex))
    )
    samples = _adequate(
        list(path.samples),
        refiner,
        tol.adjacency_unitary,
        "unitary_maslov",
    )

    # one eigen-decomposition per sample serves the count and the trace
    spectra = [np.linalg.eigvals(U) for _, U in samples]
    offs = [np.angle(-ev) for ev in spectra]
    # work-list: intervals before i keep their test angles, so after a
    # midpoint insertion only the stuck interval is checked again
    epsilons = []
    inserted = 0
    i = 0
    while i < len(samples) - 1:
        eps = _test_value(_blocked_intervals(offs[i], offs[i + 1]), tol)
        if eps is not None:
            epsilons.append(eps)
            i += 1
            continue
        if inserted >= 4000:
            raise AmbiguityError(
                "no admissible test angle after maximal refinement",
                where="unitary_maslov",
            )
        _insert_midpoint(samples, i, refiner, "unitary_maslov")
        spectra.insert(i + 1, np.linalg.eigvals(samples[i + 1][1]))
        offs.insert(i + 1, np.angle(-spectra[i + 1]))
        inserted += 1

    snap = tol.clustering
    total = 0
    k_counts = []
    for i, eps in enumerate(epsilons):
        k_lo = _count_on_arc(offs[i], eps, snap)
        k_hi = _count_on_arc(offs[i + 1], eps, snap)
        k_counts.append((k_lo, k_hi))
        total += k_hi - k_lo

    ts = np.array([t for t, _ in samples])
    trace = _phase_trace(ts, spectra)
    return IndexReport(
        value=int(total),
        partition=ts,
        epsilons=np.array(epsilons),
        k_counts=tuple(k_counts),
        trace=trace,
        diagnostics={"samples": len(samples)},
    )


def _phase_trace(ts, spectra):
    rows = []
    prev = None
    for ev in spectra:
        cur = np.angle(ev)
        if prev is not None:
            cur = cur[_match(prev, cur)]
        rows.append(cur)
        prev = cur
    values = np.mod(np.array(rows), 2.0 * np.pi)
    return PhaseTrace(kind="eigenphase", ts=np.asarray(ts), values=values)


def to_unitary_path(path, lam, tol=DEFAULT_TOL):
    """Pair-unitary conversion of a Lagrangian path against a reference."""
    samples = _adequate(
        list(path.samples), path.refiner, tol.adjacency_frame, "maslov"
    )
    usamples = tuple((t, souriau(lam, f)) for t, f in samples)
    refiner = None
    if path.refiner is not None:
        refiner = lambda t: souriau(lam, path.refiner(t))
    return UnitaryPath(samples=usamples, refiner=refiner)


def maslov(path, lam, tol=DEFAULT_TOL):
    """Index of a Lagrangian path against a fixed reference Lagrangian."""
    if not isinstance(path, LagrangianPath):
        raise ValidationError("expected a LagrangianPath", where="maslov")
    if not isinstance(lam, LagrangianFrame):
        raise ValidationError("expected a LagrangianFrame", where="maslov")
    return unitary_maslov(to_unitary_path(path, lam, tol), tol)
