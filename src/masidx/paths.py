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
that is an AmbiguityError.  r has three sources (``_Reads``): exact on a
``GeodesicPath``, read off the angles each gap carries; certified on a
path that carries its own bound (the reduced path of a geodesic,
``pairs.gamma_reduce_path``); and elsewhere the chord heuristic, which
``_arc_radius`` describes.

Where the continuous phase of det U_t is known, the count collapses to
the Souriau-Leray determinant lift (``_lift_value``): the index comes
from that phase and the two end spectra, and Phillips' count runs only
when its partition is read, where it must agree.  The phase has three
sources (``_Reads.phase``): on a ``GeodesicPath`` det U_t gains exp(i tau
sum(theta)) along each gap; the pair path -A_t B_t^H of two geodesic
legs gains A's phase less B's (``pairs.pair_maslov``); and on a path with
a certified radius each piece of radius below pi gains the principal
angles of U_t0^H U_t1.  Paths whose radius is the chord heuristic run
the count for their value, reading every sample's spectrum.

Lagrangian paths are counted on their pair unitaries W(lam, mu_t) against
the reference lam (``to_unitary_path``).  The CLI's refined paths
(``lagrangian_geodesic``) are geodesics of Lambda(n) = U(n)/O(n): their
pair unitaries against the horizontal h form a ``GeodesicPath`` whose
gaps are each diagonalized by a real orthogonal matrix (``_pencil_bases``),
which also writes down the frame at any time.  Such a path converts by
the cocycle W(lam, mu) = -W(h, mu) W(lam, h): the same geodesic pieces
times one constant unitary, with the exact radius and no frame formed.
The crossing search reads that unitary path as the count does
(``_Reads``: every unitary and offset read, and the one radius rule),
from the path's own times (``_sample_times``), and runs no count.
``IndexReport.trace`` matches eigenphases only when read (``--trace``).
``_phillips`` is the one counting loop: ``spectral.spectral_flow`` runs it
on the real line, with Weyl balls around brackets of the eigenvalues of
the boundary problem.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    LagrangianFrame,
    _as_matrix,
    _dimension,
    _expect,
    _norm2_exceeds,
    _spaces_match,
    _unitary,
    complexify_vectors,
    horizontal_frame,
)
from .errors import AmbiguityError, PreconditionError, ValidationError
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
    "to_unitary_path",
    "PhaseTrace",
    "IndexReport",
    "unitary_maslov",
    "maslov",
]

EPS_CAP = 1.0
# most samples a refined path may hold
MAX_SAMPLES = 60000
# longest chord ||U_t1 - U_t0||_2 of a piece that need not look geodesic
_END_CHORD = 0.5
# farthest the two samples at a ``catenate`` junction may lie apart
_JUNCTION = 1e-8
# farthest a time may lie from 0, 1 or a sample time and still match it
_TIME_MATCH = 1e-12
# farthest the determinant lift of a GeodesicPath may lie from an integer:
# its angles and end spectra carry rounding only (at most 1.4e-14 on the
# benchmark's paths, n up to 64), so a larger distance is a fault, not a
# near crossing
_LIFT_ROUND = 1e-9
# A + _PENCIL B: the one Hermitian matrix whose eigenvectors diagonalize a
# normal unitary X = A + iB, up to clusters of its values closer than
# _PENCIL_GAP; Z^H X Z may miss its diagonal by _PENCIL_RESIDUAL before
# the first-order correction, which rotates a pair of columns only where
# their off-diagonal is below _FIRST_ORDER times their eigenvalue gap
_PENCIL = 0.618
_PENCIL_GAP = 1e-7
_PENCIL_RESIDUAL = 1e-7
_FIRST_ORDER = 1e-2


# --------------------------------------------------------------------------
# path containers
# --------------------------------------------------------------------------


def _check_times(times, where):
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValidationError("need at least two samples", where=where)
    if not np.all(np.isfinite(times)):
        raise ValidationError("sample times must be finite", where=where)
    if abs(times[0]) > _TIME_MATCH or abs(times[-1] - 1.0) > _TIME_MATCH:
        raise ValidationError(
            "parameter range must be [0, 1]", where=where
        )
    if np.any(np.diff(times) <= 0):
        raise ValidationError(
            "sample times must be strictly increasing", where=where
        )
    return times


def _unitaries(samples):
    """The matrices of (t, U) samples as complex arrays of the first one's
    size, each taken in as unitary (``core._unitary``)."""
    mats = []
    for t, U in samples:
        shape = mats[0].shape if mats else "square"
        mats.append(_unitary(U, f"sample at t={t}", "UnitaryPath", shape))
    return mats


def _at(path, t, where):
    """The sample at t, or the refiner's value when there is one."""
    if path.refiner is not None:
        return path.refiner(t)
    for ts, v in path.samples:
        if abs(ts - t) <= _TIME_MATCH:
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
    # certified arc radius (t0, t1) -> r of a piece, or None (``_Reads``)
    _radius: object = field(default=None, repr=False)
    # increase of the continuous phase of det U_t over [0, 1] where it is
    # known, or None (``_Reads.phase``)
    _phase: object = field(default=None, repr=False)

    def __post_init__(self):
        ts = _check_times([t for t, _ in self.samples], "UnitaryPath")
        object.__setattr__(
            self, "samples", tuple(zip(ts.tolist(), _unitaries(self.samples)))
        )

    @classmethod
    def _exact(cls, samples, refiner=None, radius=None, phase=None):
        """Samples unchecked, for the pair unitaries of checked frames on
        checked times: ``souriau`` bounds each to about 4e-10."""
        path = object.__new__(cls)
        path.__dict__.update(
            samples=tuple((float(t), U) for t, U in samples),
            refiner=refiner,
            _radius=radius,
            _phase=phase,
        )
        return path

    @property
    def dim(self):
        return self.samples[0][1].shape[0]

    def at(self, t):
        return _as_matrix(
            _at(self, t, "UnitaryPath.at"), f"value at t={t}",
            "UnitaryPath.at", (self.dim, self.dim), allow_complex=True,
        )


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """Sampled path of Lagrangian frames on [0, 1].

    ``_geodesic`` is (h, G) on a path built by ``lagrangian_geodesic``:
    its pair unitaries W(h, mu_t) against the horizontal reference h are
    the ``GeodesicPath`` G, and its samples are G's grid, each frame
    formed when first read.  ``_radius`` is a certified arc radius (t0,
    t1) -> r of its pair unitaries against any fixed reference, on a
    path that carries one (``pairs.gamma_reduce_path``).
    """

    samples: tuple
    refiner: object = field(default=None, repr=False)
    _geodesic: tuple = field(default=None, repr=False)
    _radius: object = field(default=None, repr=False)

    def __post_init__(self):
        if self._geodesic is not None:
            # frames of lagrangian_geodesic on a checked grid
            return
        _check_times([t for t, _ in self.samples], "LagrangianPath")
        space = None
        for _, f in self.samples:
            if not isinstance(f, LagrangianFrame):
                raise ValidationError(
                    "samples must be LagrangianFrame", where="LagrangianPath"
                )
            if space is None:
                space = f.space
            elif not _spaces_match(f.space, space):
                raise ValidationError(
                    "samples from different spaces", where="LagrangianPath"
                )

    @property
    def space(self):
        if self._geodesic is not None:
            return self._geodesic[0].space
        return self.samples[0][1].space

    def at(self, t):
        return _at(self, t, "LagrangianPath.at")


def unitary_path(samples, refiner=None):
    return UnitaryPath(samples=tuple(samples), refiner=refiner)


def lagrangian_path(samples, refiner=None):
    return LagrangianPath(samples=tuple(samples), refiner=refiner)


def _sampled(f, num, where):
    """(t, f(t)) at ``num`` even times on [0, 1]; ValidationError unless
    ``num`` is an integer (``core._dimension``)."""
    num = _dimension(num, "num", where)
    return [(float(t), f(float(t))) for t in np.linspace(0.0, 1.0, num)]


def unitary_path_from_function(f, num=17):
    return unitary_path(
        _sampled(f, num, "unitary_path_from_function"), refiner=f
    )


def lagrangian_path_from_function(f, num=17):
    return lagrangian_path(
        _sampled(f, num, "lagrangian_path_from_function"), refiner=f
    )


def _gap(a, b):
    """Difference of two samples whose spectral norm is their distance;
    ValidationError "size mismatch" at ``catenate`` when their sizes
    differ."""
    if isinstance(a, LagrangianFrame):
        a, b = a.P, b.P
    if np.shape(a) != np.shape(b):
        raise ValidationError("size mismatch", where="catenate")
    return np.asarray(a) - np.asarray(b)


def catenate(first, second):
    """Concatenate two paths of the same kind; junction must match.  Two
    ``GeodesicPath``s join piece by piece into one, whose ``jumps`` add
    the determinant phase of the junction's mismatch."""
    _expect((UnitaryPath, LagrangianPath, GeodesicPath), "catenate",
            first, second)
    if type(first) is not type(second):
        raise ValidationError("cannot catenate different path kinds", "catenate")
    end = first.samples[-1][1]
    start = second.samples[0][1]
    if _norm2_exceeds(_gap(end, start), _JUNCTION):
        raise ValidationError("junction mismatch", where="catenate")
    if isinstance(first, GeodesicPath):
        return GeodesicPath(
            times=np.concatenate(
                [0.5 * first.times, 0.5 + 0.5 * second.times[1:]]
            ),
            pieces=first.pieces + second.pieces,
            grid=tuple(0.5 * t for t in first.grid)
            + tuple(0.5 + 0.5 * t for t in second.grid[1:]),
            jumps=first.jumps + second.jumps
            + float(np.angle(np.linalg.det(end.conj().T @ start))),
        )
    samples = [(0.5 * t, v) for t, v in first.samples]
    samples += [(0.5 + 0.5 * t, v) for t, v in second.samples[1:]]
    f1, f2 = first.refiner, second.refiner
    refiner = None
    if f1 is not None and f2 is not None:
        def refiner(t, _f1=f1, _f2=f2):
            return _f1(2.0 * t) if t <= 0.5 else _f2(2.0 * t - 1.0)
    return type(first)(samples=tuple(samples), refiner=refiner)


def reverse(path):
    """The path run backwards, t -> path(1 - t); a ``GeodesicPath`` stays
    one, each piece reversed."""
    _expect((UnitaryPath, LagrangianPath, GeodesicPath), "reverse", path)
    if isinstance(path, GeodesicPath):
        return GeodesicPath(
            times=1.0 - path.times[::-1],
            pieces=tuple(piece.reverse() for piece in reversed(path.pieces)),
            grid=tuple(1.0 - t for t in reversed(path.grid)),
            jumps=-path.jumps,
        )
    samples = tuple(
        (1.0 - t, v) for t, v in reversed(path.samples)
    )
    f = path.refiner
    refiner = None if f is None else (lambda t, _f=f: _f(1.0 - t))
    return type(path)(samples=samples, refiner=refiner)


@dataclass(frozen=True, eq=False)
class _GeodesicPiece:
    """U_tau = U0 Z diag(exp(i tau theta)) Z^H on tau in [0, 1], where
    U0^H U1 = Z diag(exp(i theta)) Z^H with Z unitary, theta in (-pi, pi]:
    its eigenbasis (``_pencil_bases``), or, on a gap of pair unitaries
    against the horizontal Lagrangian (``lagrangian_geodesic``), (U0,
    theta, Z) = (-V V^T, phi, conj V) from one real eigenbasis, so that
    the frame at tau is [Re; Im] of V diag(exp(i tau phi / 2)).

    The eigenvalues of U_tau are those of M diag(exp(i tau theta)) with
    M = Z^H U0 Z, which is similar to U_tau; and ||U_tau - U_tau0||_2 =
    2 max_k |sin((tau - tau0) theta_k / 2)|, so on [tau0, tau1] no
    eigenvalue moves by an arc longer than (tau1 - tau0) max_k |theta_k|.
    """

    U0: np.ndarray
    theta: np.ndarray
    Z: np.ndarray

    @cached_property
    def speed(self):
        return float(np.abs(self.theta).max())

    @cached_property
    def M(self):
        return self.Z.conj().T @ self.U0 @ self.Z

    def at(self, tau):
        return self.U0 @ (
            (self.Z * np.exp(1j * tau * self.theta)) @ self.Z.conj().T
        )

    def eigvals(self, tau):
        return np.linalg.eigvals(self.M * np.exp(1j * tau * self.theta))

    def eig(self, tau):
        """Eigenvalues and unit eigenvectors y of M diag(exp(i tau theta)).
        Z y is an eigenvector of U_tau, so a simple eigenvalue lambda moves
        as d lambda / d tau = i lambda y^H diag(theta) y: its phase turns
        at y^H diag(theta) y."""
        return np.linalg.eig(self.M * np.exp(1j * tau * self.theta))

    def __matmul__(self, C):
        """The piece U_tau C for a constant unitary C: (U0 C, theta, C^H Z),
        with the same angles and so the same radius."""
        return _GeodesicPiece(
            U0=self.U0 @ C, theta=self.theta, Z=C.conj().T @ self.Z
        )

    def reverse(self):
        """The piece U_{1 - tau}: (U1, -theta, Z), with the same radius."""
        return _GeodesicPiece(U0=self.at(1.0), theta=-self.theta, Z=self.Z)


class _GridSamples(Sequence):
    """The samples (t, at(t)) of a path at its grid times, each formed when
    read."""

    def __init__(self, grid, at):
        self._grid = grid
        self._at = at

    def __len__(self):
        return len(self._grid)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        t = self._grid[i]
        return t, self._at(t)


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """Piecewise principal-log geodesic through unitaries at node times.

    Gap i, [times[i], times[i + 1]], is ``pieces[i]`` at tau = (t -
    times[i]) / (times[i + 1] - times[i]); the nodes are the only matrices
    the path holds.  ``unitary_maslov`` takes its index from the
    determinant lift, the pieces' angles (``phase``) and the spectra
    ``eigvals`` at t = 0 and 1.  When its partition is read, Phillips'
    count runs from ``grid`` (a refinement of the node times) with the
    exact radius ``radius`` and the spectra ``eigvals``, and forms no U_t;
    ``samples`` and ``at`` form U_t when read.  ``G @ C`` is the path
    U_t C for a constant unitary C, with the same grid, radius and phase.
    """

    times: np.ndarray
    pieces: tuple
    grid: tuple
    # phase of det U_t gained across the junctions ``catenate`` joined,
    # where a piece's end may miss the next piece's start by its tolerance
    jumps: float = 0.0

    @property
    def samples(self):
        return _GridSamples(self.grid, self.at)

    @property
    def refiner(self):
        return self.at

    def _gap(self, t):
        return min(
            max(int(np.searchsorted(self.times, t, side="right")) - 1, 0),
            len(self.pieces) - 1,
        )

    def _locate(self, t):
        i = self._gap(t)
        tau = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        return self.pieces[i], min(max(tau, 0.0), 1.0)

    def at(self, t):
        piece, tau = self._locate(t)
        return piece.at(tau)

    def eigvals(self, t):
        piece, tau = self._locate(t)
        return piece.eigvals(tau)

    @cached_property
    def phase(self):
        """Increase of the continuous phase of det U_t over [0, 1]: on a
        gap det U_tau = det U0 exp(i tau sum(theta)), so it is the sum of
        every piece's angles, plus the ``jumps`` at its junctions."""
        return float(sum(piece.theta.sum() for piece in self.pieces)) + (
            self.jumps
        )

    def radius(self, t0, t1):
        """Largest arc any eigenvalue moves on [t0, t1], a piece of one
        gap."""
        i = self._gap(t0)
        span = (t1 - t0) / (self.times[i + 1] - self.times[i])
        return span * self.pieces[i].speed

    def __matmul__(self, C):
        return GeodesicPath(
            times=self.times,
            pieces=tuple(piece @ C for piece in self.pieces),
            grid=self.grid,
            jumps=self.jumps,
        )


def _node_times(times, nodes, grid):
    """The node times of a geodesic through ``nodes`` counted from
    ``grid``, checked as ``geodesic_path`` says."""
    _check_times(grid, "UnitaryPath")
    times = _check_times(times, "geodesic_path")
    if len(nodes) != len(times):
        raise ValidationError(
            "need one node per node time", where="geodesic_path"
        )
    if not np.isin(times, grid).all():
        raise ValidationError(
            "the grid must contain every node time", where="geodesic_path"
        )
    return times


def geodesic_path(times, nodes, grid, tol=DEFAULT_TOL):
    """The ``GeodesicPath`` through the unitaries ``nodes`` at ``times``,
    counted from ``grid``; every gap W = U_i^H U_{i+1} is normal, so
    ``_pencil_bases`` diagonalizes all of them on their Hermitian parts.

    ValidationError when the grid or the node times are not an increasing
    cover of [0, 1], there is not one node per time, the grid misses a
    node time (a piece's radius is read from its own gap) or a node is not
    unitary; PreconditionError (where ``path[i]``) when nodes i and i + 1
    are antipodal; AmbiguityError when a gap leaves a residual above 1e-7.
    """
    times = _node_times(times, nodes, grid)
    us = np.stack(_unitaries(zip(times, nodes)))
    Ws = us[:-1].conj().swapaxes(1, 2) @ us[1:]
    Hs = Ws.conj().swapaxes(1, 2)
    thetas, Zs = _pencil_bases(
        Ws, (Ws + Hs) / 2, (Ws - Hs) / 2j, tol, "geodesic_path"
    )
    pieces = tuple(map(_GeodesicPiece, us, thetas, Zs))
    return GeodesicPath(times=times, pieces=pieces, grid=tuple(grid))


def _pencil_bases(Xs, As, Bs, tol, where):
    """(theta, Z), stacked, with Z^H X Z = diag(exp(i theta)), Z unitary
    and theta in (-pi, pi], for a stack of normal unitaries X = A + iB, A
    and B their commuting Hermitian parts: the eigenvectors of A + _PENCIL
    B from one ``eigh`` (real where A and B are), each cluster of pencil
    values split on its blocks a, b of A, B by cos(alpha) a + sin(alpha)
    b, the axis its values spread on (2 alpha = arg tr(y^2), y = a + ib
    centred).  Z (I + K + K^2 / 2), K the skew-Hermitian part of D_jk /
    (d_k - d_j) for D = Z^H X Z and its diagonal d, and one Newton-Schulz
    step Z - Z (Z^H Z - I) / 2 take each column from rounding over its
    gap to rounding; a pair with |D_jk| + |D_kj| above _FIRST_ORDER |d_k
    - d_j| (near-repeated, or off a node unitary only to its residual)
    keeps its columns.  At the first gap i with an eigenvalue within
    ``tol.log_cut`` of -1, PreconditionError (where ``path[i]``), or with
    D off diag(d) by more than _PENCIL_RESIDUAL, AmbiguityError.
    """
    pencils, Zs = np.linalg.eigh(As + _PENCIL * Bs)
    apart = np.diff(pencils, axis=1) > _PENCIL_GAP
    for k in np.flatnonzero(~apart.all(axis=1)):
        for Zb in np.split(Zs[k], np.flatnonzero(apart[k]) + 1, axis=1):
            a, b = (Zb.conj().T @ M[k] @ Zb for M in (As, Bs))
            y = a + 1j * b
            y = y - np.trace(y) / len(y) * np.eye(len(y))
            turn = np.exp(-0.5j * np.angle(np.sum(y * y.T)))
            Zb[:] = Zb @ np.linalg.eigh(turn.real * a - turn.imag * b)[1]
    Ds = Zs.conj().swapaxes(1, 2) @ Xs @ Zs
    vals = np.diagonal(Ds, axis1=1, axis2=2)
    eye = np.eye(vals.shape[1])
    off = Ds * (1.0 - eye)
    cut = np.abs(np.angle(-vals)).min(axis=1) < tol.log_cut
    for i, res in enumerate(off):
        if cut[i]:
            raise PreconditionError(
                "adjacent samples are antipodal in the unitary model; "
                "supply intermediate samples",
                where=f"path[{i}]",
            )
        if _norm2_exceeds(res, _PENCIL_RESIDUAL):
            raise AmbiguityError("gap has no eigenbasis", where=where)
    diffs = vals[:, None, :] - vals[:, :, None]
    first = abs(off) + abs(off.swapaxes(1, 2)) < _FIRST_ORDER * abs(diffs)
    K = np.divide(off, diffs, out=np.zeros_like(off), where=first)
    K = (K - K.conj().swapaxes(1, 2)) / 2
    K = K if np.iscomplexobj(Zs) else K.real
    Zs = Zs + Zs @ (K + K @ K / 2)
    Zs = Zs - 0.5 * Zs @ (Zs.conj().swapaxes(1, 2) @ Zs - eye)
    return np.angle(vals), Zs


def _lagrangian_pieces(us, tol):
    """The pieces of the gaps of pair unitaries against the horizontal
    Lagrangian from -U_i U_i^T to -U_{i+1} U_{i+1}^T (``us``: the stack
    of the U = X + iY of standardized node frames).

    X = U0^H (U1 U1^T) conj(U0) is similar to the gap's W0^H W1 and is a
    symmetric unitary, so Re X and Im X are commuting real symmetric
    matrices (Lambda(n) = U(n)/O(n)): X = O diag(exp(i phi)) O^T, O real
    orthogonal (``_pencil_bases``).  With V = U0 O, the piece is (-V V^T,
    phi, conj V): W0^H W_tau = conj(V) diag(exp(i tau phi)) V^T.  Each
    column of V is signed so that the entry of largest modulus of [Re; Im]
    of it is positive, so V follows the span of the node frame, not
    LAPACK's signs; a repeated phi still leaves a basis of its eigenspace
    to LAPACK.
    """
    U0s, U1s = us[:-1], us[1:]
    Xs = U0s.conj().swapaxes(1, 2) @ (U1s @ U1s.swapaxes(1, 2)) @ U0s.conj()
    phis, Os = _pencil_bases(Xs, Xs.real, Xs.imag, tol, "lagrangian_geodesic")
    Vs = U0s @ Os
    Fs = np.concatenate([Vs.real, Vs.imag], axis=1)
    tops = np.take_along_axis(Fs, np.abs(Fs).argmax(axis=1)[:, None], 1)
    Vs = Vs * np.sign(tops)
    return tuple(map(_GeodesicPiece, -Vs @ Vs.swapaxes(1, 2), phis, Vs.conj()))


def _geodesic_frame(std, piece, tau):
    """The frame at tau of a piece of ``lagrangian_geodesic``: [Re; Im] of
    V diag(exp(i tau phi / 2)), V = conj Z, pulled back by ``std``.  V is
    U0 O for the U0 of a checked node frame and a real orthogonal O, so
    the frame keeps the node's residual and is not checked."""
    U = piece.Z.conj() * np.exp(0.5j * tau * piece.theta)
    return std.pull_frame(
        LagrangianFrame._exact(std.target, np.vstack([U.real, U.imag]))
    )


def lagrangian_geodesic(times, frames, grid, tol=DEFAULT_TOL):
    """The Lagrangian path through the frames ``frames`` at ``times``
    whose pair unitaries W(h, mu_t) against the horizontal Lagrangian h
    are the piecewise principal-log geodesic through those of the nodes,
    counted from ``grid``.

    With U_i = X_i + iY_i of the standardized node frames, W(h, mu_i) =
    -U_i U_i^T, and each gap is diagonalized by one real orthogonal matrix
    (``_lagrangian_pieces``), so its frames are written down directly
    (``_geodesic_frame``), each formed when first read; ``samples``, ``at``
    and ``refiner`` share the frames of the grid times.  The path's
    ``_geodesic`` is (h, G), G the ``GeodesicPath`` of its pair unitaries
    against h, which ``to_unitary_path`` converts with no frame.  h is
    the horizontal frame of the standard model pulled back, since that of
    a general space need not be Lagrangian.

    ValidationError as ``geodesic_path``, or when the frames lie in
    different spaces; PreconditionError (where ``path[i]``) when nodes i
    and i + 1 are antipodal; AmbiguityError when a gap's real eigenbasis
    leaves a residual above 1e-7.
    """
    times = _node_times(times, frames, grid)
    space = frames[0].space
    if not all(_spaces_match(f.space, space) for f in frames):
        raise ValidationError(
            "samples from different spaces", where="lagrangian_geodesic"
        )
    std = space.standardization
    us = np.stack([complexify_vectors(f._standard.F) for f in frames])
    geodesic = GeodesicPath(
        times=times, pieces=_lagrangian_pieces(us, tol), grid=tuple(grid)
    )

    def frame_at(t):
        return _geodesic_frame(std, *geodesic._locate(t))

    formed = _Formed(frame_at)
    grid_times = frozenset(geodesic.grid)

    def refiner(t):
        # a grid time reads the frame its sample holds
        return formed[t] if t in grid_times else frame_at(t)

    return LagrangianPath(
        samples=_GridSamples(geodesic.grid, formed.__getitem__),
        refiner=refiner,
        _geodesic=(std.pull_frame(horizontal_frame(std.target)), geodesic),
    )


# --------------------------------------------------------------------------
# the counting index
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseTrace:
    """Matched trajectories for CSV export: ts (m,), values (m, n)."""

    ts: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class IndexReport:
    """The index ``value`` of a unitary path and Phillips' count of it:
    the ``partition`` it settled on, the test angle of each piece
    (``epsilons``), the arc counts at each piece's ends (``k_counts``) and
    ``diagnostics``.

    ``_count`` runs ``_phillips`` on the report's ``_reads`` and returns
    (total, partition, epsilons, k_counts).  On a path whose determinant
    phase is known (``_Reads.phase``) the value is the determinant lift
    and the count runs when one of its fields, or the trace, is first
    read; its total must equal the value, or the read raises
    AmbiguityError.  On paths counted by the chord heuristic the count
    ran for the value.
    """

    value: int
    # the count's ``_Reads`` of its path
    _reads: object = field(repr=False, compare=False)
    _count: object = field(repr=False, compare=False)

    @cached_property
    def _counted(self):
        total, *counted = self._count()
        if total != self.value:
            raise AmbiguityError(
                f"Phillips' count {total} differs from the determinant "
                f"lift {self.value}",
                where="unitary_maslov",
            )
        return counted

    @property
    def partition(self):
        return self._counted[0]

    @property
    def epsilons(self):
        return self._counted[1]

    @property
    def k_counts(self):
        return self._counted[2]

    @property
    def diagnostics(self):
        return {"samples": len(self.partition)}

    @cached_property
    def trace(self):
        """Eigenphases matched across the partition, each row to the last
        by least total circular distance; built on first read."""
        spectra = self._reads.spectra
        rows = [np.angle(spectra[self.partition[0]])]
        for t in self.partition[1:]:
            cur = np.angle(spectra[t])
            step = np.angle(np.exp(1j * (cur[None, :] - rows[-1][:, None])))
            rows.append(cur[linear_sum_assignment(np.abs(step))[1]])
        values = np.mod(np.array(rows), 2.0 * np.pi)
        return PhaseTrace(ts=self.partition, values=values)


def linear_sum_assignment(cost):
    """scipy's ``linear_sum_assignment``, imported on a first trace."""
    from scipy.optimize import linear_sum_assignment as assign
    return assign(cost)


def _test_value(blocked, tol):
    """Admissible test value for one subinterval, or None.

    ``blocked`` lists the closed offset intervals that the spectrum may
    sweep on the subinterval.  The test value is the midpoint of the
    widest free gap in (0, EPS_CAP] (``_widest_gap``), and None when the
    clearance (half its width) is below ``tol.clearance``.
    """
    width, lo, hi = _widest_gap(blocked)
    if width <= 0.0 or width / 2.0 < tol.clearance:
        return None
    return (lo + hi) / 2.0


def _widest_gap(blocked):
    """(width, lo, hi) of the widest gap that the closed intervals
    ``blocked`` leave free in (0, EPS_CAP].  Each is clamped to
    [0, EPS_CAP]; one that clamps to nothing or to {0} blocks nothing.
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
    return max(gaps)


def _free_value(values, r, tol):
    """Test value of a piece of radius r that starts at ``values``, or None.

    ``values`` is an array of offsets, blocked by the balls (a - r, a + r),
    or a spectrum held as brackets (``spectral._Spectrum``), which blocks
    and narrows its own balls.  An array is read as Python floats, the
    same double arithmetic without a numpy scalar per operation.
    """
    if isinstance(values, np.ndarray):
        r = float(r)
        return _test_value([(a - r, a + r) for a in values.tolist()], tol)
    return values.test_value(r, tol)


def _count_on_arc(values, eps, snap):
    """Number of ``values`` in the closed test arc [0, eps], up to ``snap``;
    a spectrum held as brackets counts itself."""
    lo, hi = -snap, eps + snap
    if isinstance(values, np.ndarray):
        return len([a for a in values.tolist() if lo <= a <= hi])
    return values.count(lo, hi)


def _phillips(ts, spec, radius, reach, split, snap, tol):
    """Phillips' count over the partition ``ts``, refined in place.

    A piece [t0, t1] with r = radius(t0, t1) <= ``reach`` takes as test
    value eps the midpoint of the widest gap that the balls (a - r, a + r)
    around the values a of spec(t0) leave in (0, EPS_CAP] (``_free_value``;
    around a bracket (s0, s1] the ball is (s0 - r, s1 + r)).  No value on
    the piece moves farther than r, so none reaches eps, and the piece
    adds the change in the number of values in [0, eps] between its ends.
    Any other piece goes to split(ts, i), which inserts a point into it
    or raises (see ``_halve``); only that piece is checked again.

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
            eps = _free_value(spec(t0), r, tol)
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


def _halve(ts, i, shortest, most):
    """Insert the midpoint of the piece [ts[i], ts[i + 1]], the split rule
    of every count; False, with ``ts`` unchanged, when the piece is at
    most ``shortest`` wide or ``ts`` already holds ``most`` times."""
    t0, t1 = ts[i], ts[i + 1]
    if t1 - t0 <= shortest or len(ts) >= most:
        return False
    ts.insert(i + 1, 0.5 * (t0 + t1))
    return True


def _halve_to_reach(ts, radius, reach, split):
    """Halve the partition ``ts`` in place, by the count's own split(ts,
    i), until radius(t0, t1) is at most ``reach`` on every piece: the
    pieces Phillips' count starts from, known before any value is read."""
    i = 0
    while i < len(ts) - 1:
        if radius(ts[i], ts[i + 1]) > reach:
            split(ts, i)
        else:
            i += 1


class _Formed(dict):
    """Values keyed by time, each formed by ``at`` when first read."""

    def __init__(self, at):
        super().__init__()
        self._at = at

    def __missing__(self, t):
        value = self[t] = self._at(t)
        return value


class _Reads:
    """What a count reads of a unitary path, keyed by time: the unitaries
    ``mats``, the ``spectra`` and their offsets angle(-lambda)
    (``offsets(t)``).  Each value is formed when first read, save the
    spectra of a sampled path's samples: Phillips' count and the crossing
    search read every one of them, in one stacked ``eigvals``
    (``read_samples``); numpy solves a stack slice by slice, so each
    spectrum is bitwise the one a call on its unitary alone gives.
    ``radius(t0, t1)`` is the arc radius of a piece, the one rule that
    the count and the crossing search share.  It has three sources: exact
    on a ``GeodesicPath``, which forms no unitary for its spectra;
    certified where the path carries one (``UnitaryPath._radius``, a
    reduced path's); and the chord heuristic ``_arc_radius`` elsewhere.
    ``phase`` is the increase of the continuous phase of det U_t, where
    it is known, which a lifted value reads with the two end spectra in
    place of every sample's.  It holds no reference to itself, so what it
    read is freed with the last report that holds it."""

    def __init__(self, path, tol):
        self.mats = _Formed(path.at)
        self.spectra = {}
        self._offsets = {}
        self._path = path
        self._tol = tol
        self._exact = isinstance(path, GeodesicPath)
        self._radius = path.radius if self._exact else path._radius
        if not self._exact:
            self.mats.update(path.samples)

    def read_samples(self):
        """The spectra of a sampled path's samples, in one stacked call."""
        if self._exact:
            return
        times = [t for t, _ in self._path.samples]
        spectra = np.linalg.eigvals(
            np.stack([U for _, U in self._path.samples])
        )
        self.spectra.update(zip(times, spectra))
        self._offsets.update(zip(times, np.angle(-spectra)))

    def radius(self, t0, t1):
        if self._radius is not None:
            return self._radius(t0, t1)
        return _arc_radius(self._path, self.mats, t0, t1, self._tol)

    def offsets(self, t):
        if t not in self._offsets:
            if self._exact:
                self.spectra[t] = self._path.eigvals(t)
            else:
                self.spectra[t] = np.linalg.eigvals(self.mats[t])
            self._offsets[t] = np.angle(-self.spectra[t])
        return self._offsets[t]

    def phase(self, ts, split, reach):
        """Increase of the continuous phase of det U_t over [0, 1], or
        None where it is not known.  It has three sources: the angles of
        a ``GeodesicPath`` (its ``phase``); the phase a path carries
        (``UnitaryPath._phase``, the pair path of two geodesic legs,
        ``pairs.pair_maslov``); and on a path with a certified radius,
        sum_k sum angle(eig(U_k^H U_k+1)) over its pieces [t_k, t_k+1] of
        ``ts``.  On a piece of radius r <= ``reach`` < pi every eigenvalue
        of U_t0^H U_t stays within r of 1, so its principal angles are
        the continuous ones; ``ts`` is first halved to ``reach`` by the
        count's own split (``_halve_to_reach``), so the count later
        starts from the pieces read here.  The pieces are read in one
        stacked ``eigvals``."""
        path = self._path
        if self._exact:
            return path.phase
        if path._phase is not None or self._radius is None:
            return path._phase
        _halve_to_reach(ts, self._radius, reach, split)
        us = np.stack([self.mats[t] for t in ts])
        steps = us[:-1].conj().swapaxes(1, 2) @ us[1:]
        return float(np.angle(np.linalg.eigvals(steps)).sum())


def _arc_radius(path, mats, t0, t1, tol):
    """Arc radius r = 2 arcsin(||U_t1 - U_t0||_2 / 2) of the piece [t0, t1]
    of a path given by samples and a refiner: the heuristic one of the
    three radius sources.  A ``GeodesicPath`` (the CLI's refined paths,
    and the pair unitaries of their Lagrangian paths) carries its exact
    radius instead, and a reduced path of a geodesic its certified one
    (``pairs.gamma_reduce_path``).

    ``mats`` is the count's unitaries (``_Reads.mats``).  The radius is
    exact on a principal-log geodesic, where ||U_t - U_t0||_2 = 2 max_k
    |sin(tau theta_k / 2)| peaks at t1 and grows linearly in tau.
    Elsewhere it is a heuristic, so a piece with chord above ``_END_CHORD`` gets radius
    inf unless its midpoint, read through the refiner, is the geodesic
    one; samples alone are read as gaps of chord at most ``_END_CHORD``.
    A phase that turns by nearly whole turns between the points read goes
    unseen.
    """
    U0, U1 = mats[t0], mats[t1]
    chord = np.linalg.norm(U1 - U0, 2)
    if chord > _END_CHORD:
        if path.refiner is None:
            return np.inf
        # the geodesic midpoint is U0 M, M the principal square root
        # of U0^H U1: every eigenphase of M within pi / 2 of 0
        Um = mats[0.5 * (t0 + t1)]
        if _norm2_exceeds(Um - U0, np.sqrt(2.0)) or _norm2_exceeds(
            Um @ U0.conj().T @ Um - U1, tol.angular
        ):
            return np.inf
    return 2.0 * np.arcsin(min(chord / 2.0, 1.0))


def _sample_times(path):
    """The times a unitary path is sampled at: a ``GeodesicPath``'s grid,
    read without forming its samples."""
    if isinstance(path, GeodesicPath):
        return list(path.grid)
    return [t for t, _ in path.samples]


def _lift_value(phase, t0, t1, reads, tol):
    """The index of a path whose determinant gains ``phase`` from t0 to
    t1, by its determinant lift (Souriau-Leray; Cappell, Lee and Miller,
    CPAM 47, 1994).

    Each eigenvalue's offset o = angle(-lambda) lifts to a continuous
    phase along the path, and the offsets' lifts gain Delta = ``phase``
    in all.  An offset whose lift gains d passes through 0 mod 2 pi net
    (d + m(o(t0)) - m(o(t1))) / 2 pi times, with m(o) = o mod 2 pi;
    Phillips' closed arc counts an offset within ``tol.clustering`` below
    0 as at 0.  So, with W = (Delta + sum o(t0) - sum o(t1)) / 2 pi, the
    index is W plus the number of offsets below -``tol.clustering`` at
    t0, less that at t1.  The offsets are read through ``reads``;
    AmbiguityError when W is not an integer up to rounding.
    """
    o0 = reads.offsets(t0)
    o1 = reads.offsets(t1)
    w = (phase + float(o0.sum()) - float(o1.sum())) / (2.0 * np.pi)
    if abs(w - round(w)) > _LIFT_ROUND:
        raise AmbiguityError(
            f"determinant lift {w!r} is not an integer",
            where="unitary_maslov",
        )
    snap = tol.clustering
    return (
        round(w)
        + int(np.count_nonzero(o0 < -snap))
        - int(np.count_nonzero(o1 < -snap))
    )


def unitary_maslov(path, tol=DEFAULT_TOL):
    """Counting index of a path of unitaries, as an IndexReport with the
    partition, test angles and arc counts; its eigenphase trace is matched
    when it is read.

    Phillips' count (``_phillips``) of the offsets angle(-lambda), from
    the sampled partition (a ``GeodesicPath``: its grid), with one of
    three radii (``_Reads``): exact on a ``GeodesicPath`` (its
    ``radius``), certified where the path carries one (the reduced path
    of a geodesic, ``pairs.gamma_reduce_path``), else the chord heuristic
    ``_arc_radius``.  While r <= pi - EPS_CAP no ball around a signed
    offset wraps past +-pi into the test arc, and U is normal, so by
    Bauer-Fike a gap between the balls around the offsets at t0 is
    admissible.  Other pieces are halved; AmbiguityError when that is
    impossible or refinement runs out.

    A path whose determinant phase is known (``_Reads.phase``: a
    ``GeodesicPath``, the pair path of two geodesic legs, a path with a
    certified radius) takes its value from its determinant lift
    (``_lift_value``): that phase and its two end spectra.  The count
    runs only when the report's partition, test angles, arc counts,
    diagnostics or trace are read, and must then agree; refinement
    running out raises on that read, not here.  Other paths, whose
    radius is the chord heuristic, run the count for their value.
    ValidationError unless ``path`` is a UnitaryPath or a GeodesicPath.
    """
    if not isinstance(path, (UnitaryPath, GeodesicPath)):
        raise ValidationError("expected a unitary path",
                              where="unitary_maslov")
    reads = _Reads(path, tol)
    ts = _sample_times(path)
    start = len(ts)
    reach = np.pi - EPS_CAP

    def split(ts, i):
        if len(ts) - start >= 4000:
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
        if not _halve(ts, i, -np.inf, MAX_SAMPLES):
            raise AmbiguityError("refinement exploded", where="unitary_maslov")

    def count():
        reads.read_samples()
        total, epsilons, k_counts = _phillips(
            ts, reads.offsets, reads.radius, reach, split, tol.clustering,
            tol,
        )
        return total, np.array(ts), np.array(epsilons), tuple(k_counts)

    phase = reads.phase(ts, split, reach)
    if phase is not None:
        value = _lift_value(phase, ts[0], ts[-1], reads, tol)
        return IndexReport(value=value, _reads=reads, _count=count)
    counted = count()
    return IndexReport(
        value=int(counted[0]), _reads=reads, _count=lambda: counted
    )


def to_unitary_path(path, lam):
    """The pair unitaries t -> W(lam, mu_t) = souriau(lam, mu_t) of a
    Lagrangian path.

    A path built by ``lagrangian_geodesic`` converts by the cocycle
    W(lam, mu) = -W(h, mu) W(lam, h) of the pair unitary (Howard,
    Latushkin and Sukhtayev, JMAA 451, 2017): its geodesic times the
    constant -souriau(lam, h), again a ``GeodesicPath`` with exact radius,
    and no frame is formed.  Other paths convert their samples in one
    stacked ``souriau`` call, and other times through the refiner,
    carrying the path's certified radius if it has one; the frames are
    checked, so their pair unitaries are not checked again
    (``UnitaryPath._exact``).
    """
    _expect(LagrangianPath, "to_unitary_path", path)
    _expect(LagrangianFrame, "to_unitary_path", lam)
    if path._geodesic is not None:
        h, geodesic = path._geodesic
        return geodesic @ -souriau(lam, h)
    usamples = tuple(
        zip(
            [t for t, _ in path.samples],
            souriau(lam, [f for _, f in path.samples]),
        )
    )
    refiner = None
    if path.refiner is not None:
        refiner = lambda t: souriau(lam, path.refiner(t))
    return UnitaryPath._exact(usamples, refiner, path._radius)


def maslov(path, lam, tol=DEFAULT_TOL):
    """Index of a Lagrangian path against a fixed reference Lagrangian."""
    _expect(LagrangianPath, "maslov", path)
    _expect(LagrangianFrame, "maslov", lam)
    return unitary_maslov(to_unitary_path(path, lam), tol)
