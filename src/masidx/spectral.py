"""Spectral flow of constant-coefficient first-order boundary problems.

A family member is the operator  JJ u' + (JJ B) u + C_t u  on [0, 1] with
JJ = [[0, I], [-I, 0]], B symmetric and anticommuting with JJ (so JJ B is
symmetric), C_t symmetric, and boundary conditions u(0) in lambda0,
u(1) in lambda1.  s is an eigenvalue iff the constant-coefficient flow
Phi_{t,s} = expm(-B + JJ C_t - s JJ) moves lambda0 onto a subspace
meeting lambda1.

Both counts here are Phillips' count (``paths._phillips``).  At a fixed
family time t, the eigenvalues in (a, b] are the index of the shooting
path s -> Phi_{t,s} lambda0 against lambda1 over [a, b] (Arnold, Funct.
Anal. Appl. 19, 1985; Chardard, Dias and Bridges, Physica D 238, 2009), a
positive path: its crossing form is the L^2 norm of the eigenfunction.
``_count_roots`` counts it with a chord radius read at the ends of a
piece, a heuristic on this path, and keeps the pieces that count
isolates: brackets of one simple root, and points of multiplicity k
(``_Spectrum``).  Each s-grid is shot in one stacked ``expm`` call,
every flow of the stack passing the symplectic check (``_flows``, the
one route of every shot), and the chords of its pieces come from one
stacked ``eigvalsh``.  The flow
through 0 as t sweeps [0, 1] reads those brackets and never locates a
root: how many lie in [0, eps] costs one determinant sign at each end of
the arc that a bracket straddles.  Two family members differ by the
bounded symmetric multiplication C_t - C_t', so no eigenvalue moves
farther than ||C_t - C_t'||_2 (Weyl): balls of a piece's radius around
the brackets at its start block all the spectrum the piece can reach,
and no eigenvalue is matched across samples.  On a sampled family that
radius is read off the slope of the node gap that holds the piece.

Each family time has one ``_Shooter`` and one ``_Spectrum``, counted
once, when it is built, on the whole detection grid and nothing past it:
Phillips' count needs test values near 0 only, so no eigenvalue far from
0 is asked about, at the ends of [0, 1] or inside.  The radius reads C_t
alone, so most times the count reads are known before anything is shot:
those of the Weyl partition, [0, 1] halved until no piece's radius
exceeds ``_REACH``.  Their grids are shot up front in one stacked read
(``_read``: one ``_flows`` call on a stack of generators, and one
stacked call of each kind after it), and their spectra are then counted
from those shots.  numpy and scipy work on a stack slice by slice, so
every shot, determinant, offset and chord is bitwise the one a read at
its time alone gives, and the report does not change.

Only ``eigenvalues_near`` and ``eigenvalue_trace`` locate the roots, by
``brentq`` on the brackets.  The coincidence theorem equates the flow
with the index of the Cauchy-data path in the doubled space against
lambda0 ⊞ lambda1, and ``verify_coincidence`` computes both sides; the
path's node flows and frames are each formed in one stacked call.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from numbers import Real

import numpy as np

from .core import (
    DEFAULT_TOL,
    _as_matrix,
    _block_diag,
    _dimension,
    _expect,
    _expect_time,
    _norm2_exceeds,
    _uncleared,
    box_space,
    lagrangian,
    standard_space,
)
from .errors import AmbiguityError, MasidxError, ValidationError
from .paths import (
    _END_CHORD,
    EPS_CAP,
    MAX_SAMPLES,
    LagrangianPath,
    _check_times,
    _halve,
    _halve_to_reach,
    _phillips,
    _test_value,
    _widest_gap,
    maslov,
)

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
# The shooting path's eigenphases turn 2 rad per unit s on a ladder, so a
# piece of this width has chord 2 sin(0.25) < _END_CHORD there.
_GRID = 0.25
# Shortest time piece the flow count halves to.  A fixed floor of the
# search, not a tolerance: a piece this short with no free test value is
# a tangential crossing under every tolerance profile.
_FLOW_MIN_PIECE = 1e-9
# Most time samples one flow count may take: a bound on its work, like
# paths.MAX_SAMPLES, which no tolerance profile should move.
_FLOW_MAX_SAMPLES = 5000
# Bounds of the problem's own checks, fixed invariants and not tolerances
# (no profile moves them): the symmetry of B and C_t and the
# anticommutation of B with JJ, relative to max(1, ||B||_2) or
# max(1, ||C_t||_2), and the symplectic residual of every shot Phi,
# relative to max(1, ||Phi||_2^2).
_SYMMETRY = 1e-10
_ANTICOMMUTATION = 1e-9
_SYMPLECTIC = 1e-9


@lru_cache(maxsize=8)
def _jj(N):
    """The structure matrix of size 2N, shared and read-only."""
    z = np.zeros((N, N))
    eye = np.eye(N)
    jj = np.block([[z, eye], [-eye, z]])
    jj.setflags(write=False)
    return jj


def expm(A):
    """scipy's ``expm``, imported when a first flow is shot."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(A)


def brentq(*args, **kwargs):
    """scipy's ``brentq``, imported when a first root is located."""
    from scipy.optimize import brentq as scipy_brentq
    return scipy_brentq(*args, **kwargs)


def JJ(N):
    """The structure matrix [[0, I], [-I, 0]] of size 2N, as a new array."""
    return _jj(N).copy()


@dataclass(frozen=True, eq=False)
class BoundaryProblem:
    """Sampled family of boundary problems over t in [0, 1].

    ``c_func`` (optional) evaluates C_t exactly, each value taken in by
    the intake rule of ``core``; otherwise intermediate values are linear
    interpolations of the samples.
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
            m = 2 * self.N
            return _as_matrix(self.c_func(t), f"C_t at t={t}",
                              "BoundaryProblem.c_at", (m, m))
        i = np.searchsorted(self.ts, t)
        if i == 0:
            return self.cs[0]
        if i >= len(self.ts):
            return self.cs[-1]
        t0, t1 = self.ts[i - 1], self.ts[i]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.cs[i - 1] + w * self.cs[i]

    def solution(self, t, s):
        """The flow Phi_{t,s}; B and C_t were taken in already, so it is
        shot by ``_flows`` with no intake of its own."""
        return _flows(*_generator(self.B, self.c_at(t)), [s])[0]

    @cached_property
    def _gap_norms(self):
        """||C_{i+1} - C_i||_2 for each gap between nodes, in one
        stacked call."""
        return np.linalg.norm(np.diff(self.cs, axis=0), 2, axis=(1, 2))

    @cached_property
    def _conj1(self):
        """conj(U1 U1^T), U1 the unitary of lambda1: the right factor of
        every pair unitary that a shooter of this problem forms."""
        n = self.N
        U1 = self.lambda1[:n] + 1j * self.lambda1[n:]
        return np.conj(U1 @ U1.T)


def boundary_problem(N, B, family, lambda0, lambda1, c_func=None):
    """Validated BoundaryProblem.

    ``family`` is a sequence of (t, C_t) covering [0, 1].
    """
    m = 2 * _dimension(N, "N", "boundary_problem")
    B = _as_matrix(B, "B", "boundary_problem", (m, m))
    if _norm2_exceeds(B - B.T, _SYMMETRY, B):
        raise ValidationError("B not symmetric", where="boundary_problem")
    jj = _jj(N)
    if _norm2_exceeds(jj @ B + B @ jj, _ANTICOMMUTATION, B):
        raise ValidationError(
            "B must anticommute with the structure matrix "
            "(otherwise the flow is not symplectic)",
            where="boundary_problem",
        )
    ts = _check_times([float(t) for t, _ in family], "boundary_problem")
    cs = []
    for _, C in family:
        C = _as_matrix(C, "C", "boundary_problem", (m, m))
        if _norm2_exceeds(C - C.T, _SYMMETRY, C):
            raise ValidationError("C not symmetric", where="boundary_problem")
        cs.append(C)
    space = standard_space(N)
    return BoundaryProblem(
        N=N,
        B=B,
        ts=ts,
        cs=np.array(cs),
        lambda0=lagrangian(space, lambda0).F,
        lambda1=lagrangian(space, lambda1).F,
        c_func=c_func,
    )


def _generator(B, C):
    """(-B + JJ C, JJ): the s-independent part of the flow exponent."""
    jj = _jj(len(B) // 2)
    return -B + jj @ C, jj


def _flows(gen, jj, ss):
    """expm(gen - s JJ) for every s in ``ss``, one stacked call; ``gen``
    is one generator or a stack of one per s.  ValidationError unless
    each flow Phi is symplectic for the JJ-form, ||Phi^T JJ Phi - JJ||_2
    at most ``_SYMPLECTIC`` max(1, ||Phi||_2^2).  The check runs on every
    flow: past the intake rule of ``BoundaryProblem.c_at``, it is the only
    validation of C_t values from ``c_func``.  A residual that is not
    finite (a flow that overflows) fails it.

    scipy's ``expm`` exponentiates a stack slice by slice, so each flow
    is bitwise the one a call on it alone gives.  The residuals'
    Frobenius norms clear the stack at once (``core._uncleared``, the
    stacked clear of ``core._frame_errors`` too); every residual they do
    not clear takes the relative test of ``core._norm2_exceeds``, in
    stack order: the first flow that fails raises.
    """
    Phi = expm(gen - np.asarray(ss, dtype=float)[:, None, None] * jj)
    res = np.swapaxes(Phi, 1, 2) @ jj @ Phi - jj
    for k in _uncleared(res, _SYMPLECTIC):
        if _norm2_exceeds(res[k], _SYMPLECTIC, Phi[k], power=2):
            raise ValidationError(
                "flow not symplectic (check B, C)",
                where="fundamental_solution",
            )
    return Phi


def fundamental_solution(B, C, s):
    """expm(-B + JJ C - s JJ); symplectic for the JJ-form to
    ``_SYMPLECTIC``.  B is 2N x 2N and C of its shape."""
    B = _as_matrix(B, "B", "fundamental_solution", "even")
    C = _as_matrix(C, "C", "fundamental_solution", B.shape)
    return _flows(*_generator(B, C), [s])[0]


# --------------------------------------------------------------------------
# eigenvalue detection at fixed t
# --------------------------------------------------------------------------


class _Shooter:
    """The shooting path s -> Phi_s lambda0 of ``bp`` at one family time.

    Per s it shoots the frame F = Phi_s lambda0 and keeps det[F, lambda1]
    and the offsets angle(-w) of the pair unitary (``souriau.souriau``)
    W(lambda1, F) = -Z conj(Z)^-1 conj(U1 U1^T), Z = F_top + i F_bottom,
    U1 the unitary of lambda1.  With F = F_o R, F_o orthonormal with
    unitary U, Z conj(Z)^-1 = U U^T = Z (F^T F)^-1 Z^T: the first form has
    the condition number of F, the last its square.  s is an eigenvalue
    iff det[F, lambda1] = 0, iff -1 is an eigenvalue of W.  Per piece
    (s0, s1) it keeps the chord ||W(s1) - W(s0)||_2.  Every read of the
    spectrum at this time shares it.  ``det`` at an s not read shoots it
    alone.
    """

    def __init__(self, bp, t):
        self._bp = bp
        self._gen, self._jj = _generator(bp.B, bp.c_at(t))
        self._dets = {}
        self._pairs = {}
        self._offsets = {}
        self._chords = {}

    def _shots(self, ss):
        """The frames Phi_s lambda0 for the s in ``ss``, in one stacked
        ``_flows`` call."""
        return _flows(self._gen, self._jj, ss) @ self._bp.lambda0

    def read(self, *runs):
        """Read the s in each run of ``runs`` and the pieces between
        neighbours in it: the one-shooter case of ``_read``, the one
        route of every read, so a time that the flow count read ahead
        in a stack with other times holds the values this read gives,
        bitwise."""
        _read([(self, runs)])

    def det(self, s):
        if s not in self._dets:
            self._dets[s] = _dets(self._shots([s]), self._bp.lambda1)[0]
        return self._dets[s]

    def offsets(self, s):
        if s not in self._offsets:
            self.read([s])
        return self._offsets[s]

    def radius(self, s0, s1):
        """Arc radius 2 arcsin(c / 2) of [s0, s1], c the chord
        ||W(s1) - W(s0)||_2; inf when c exceeds ``_END_CHORD``, so the
        piece is halved.  A heuristic read at the ends: nearly whole turns
        inside go unseen here (``_count_roots`` checks the determinant's
        sign).  At ladder speed, 2 rad per unit s, a ``_GRID`` piece turns
        by at most 0.5.  The chord of a piece that ``read`` saw comes
        from its stack; only a piece that a split inserts is read here.
        """
        if (s0, s1) not in self._chords:
            self.read([s0, s1])
        c = self._chords[s0, s1]
        if c > _END_CHORD:
            return np.inf
        return 2.0 * np.arcsin(c / 2.0)


def _dets(F, lambda1):
    """det[F_k, lambda1] for a stack of frames F_k, as floats."""
    L = np.broadcast_to(lambda1, F.shape)
    return np.linalg.det(np.concatenate([F, L], axis=2)).tolist()


def _slices(sizes):
    """Consecutive slices of the given sizes."""
    return [slice(end - k, end) for k, end in zip(sizes, accumulate(sizes))]


def _read(reads):
    """Read, for each (shooter, runs) of ``reads``, the s in each run and
    the pieces between neighbours in it; the shooters are of one problem
    and may be at different family times.

    The s that its shooter has not read yet are shot, for all shooters,
    in one stacked ``_flows`` call, each with its own time's generator,
    in the order given; they get their pair unitaries, offsets and
    determinants, one call on the whole stack for each kind.  The pieces
    with no chord yet get theirs from one stacked ``eigvalsh``.  numpy
    and scipy work on a stack slice by slice, so each value is bitwise the
    one a read of its shooter alone gives, and for these small matrices a
    stacked call costs little more than one.
    """
    news = [
        [s for ss in runs for s in ss if s not in shoot._pairs]
        for shoot, runs in reads
    ]
    sizes = [len(new) for new in news]
    if any(sizes):
        bp = reads[0][0]._bp
        n = bp.N
        gens = np.repeat([shoot._gen for shoot, _ in reads], sizes, axis=0)
        F = _flows(gens, _jj(n), [s for new in news for s in new]) @ bp.lambda0
        ZT = np.swapaxes(F[:, :n] + 1j * F[:, n:], 1, 2)
        W = -np.swapaxes(np.linalg.solve(ZT.conj(), ZT), 1, 2) @ bp._conj1
        offsets = np.angle(-np.linalg.eigvals(W))
        dets = _dets(F, bp.lambda1)
        for (shoot, _), new, k in zip(reads, news, _slices(sizes)):
            shoot._pairs.update(zip(new, W[k]))
            shoot._offsets.update(zip(new, offsets[k]))
            shoot._dets.update(zip(new, dets[k]))
    pieces = [
        [p for ss in runs for p in zip(ss, ss[1:]) if p not in shoot._chords]
        for shoot, runs in reads
    ]
    sizes = [len(todo) for todo in pieces]
    if any(sizes):
        D = np.array([
            shoot._pairs[b] - shoot._pairs[a]
            for (shoot, _), todo in zip(reads, pieces)
            for a, b in todo
        ])
        DD = np.swapaxes(D.conj(), 1, 2) @ D
        chords = np.sqrt(np.linalg.eigvalsh(DD)[:, -1])
        for (shoot, _), todo, k in zip(reads, pieces, _slices(sizes)):
            shoot._chords.update(zip(todo, chords[k]))


def _count_roots(shoot, ss, tol, brackets, points):
    """Collect the roots in (ss[0], ss[-1]] as the pieces that Phillips'
    count isolates, without locating any.

    Phillips' count (``paths._phillips``) of the offsets over the
    partition ``ss``, which it refines in place, gives each piece its
    number k1 - k0 of roots.  A piece with one root and a determinant sign
    change is a simple bracket, appended to ``brackets`` as [s0, s1], and
    one with neither holds no root.  Any other piece is halved and counted
    again, down to ``tol.bisect_t``, where it is a point: its midpoint,
    appended to ``points`` k times for its count k.  A root of
    multiplicity k is a zero of order k of the determinant, and the path
    is positive, so a sign change without roots or a negative count shows
    a turn that the chord radius did not see.  AmbiguityError when a count
    is still negative there, or when a split (``paths._halve``) meets
    ``tol.bisect_t`` or ``MAX_SAMPLES``.  Each piece of ``ss`` is resolved
    on its own: what it leaves does not depend on the other pieces.
    """

    def split(ss, i):
        if not _halve(ss, i, tol.bisect_t, MAX_SAMPLES):
            raise AmbiguityError(f"no admissible test angle on ({ss[i]}, "
                                 f"{ss[i + 1]}]", where="eigenvalues_near")

    shoot.read(ss)
    _, _, k_counts = _phillips(
        ss, shoot.offsets, shoot.radius, np.pi - EPS_CAP, split, 0.0, tol
    )
    for s0, s1, (k0, k1) in zip(ss, ss[1:], k_counts):
        n = k1 - k0
        flips = (shoot.det(s0) < 0.0) != (shoot.det(s1) < 0.0)
        if n == 1 and flips:
            brackets.append([s0, s1])
        elif (n or flips) and s1 - s0 > tol.bisect_t:
            _count_roots(
                shoot, [s0, 0.5 * (s0 + s1), s1], tol, brackets, points
            )
        elif n < 0:
            raise AmbiguityError(
                f"the shooting path turned clockwise on ({s0}, {s1}]",
                where="eigenvalues_near",
            )
        else:
            points.extend([0.5 * (s0 + s1)] * n)


def _grid(lo, hi):
    """The shooting grid on [lo, hi], pieces of at most ``_GRID``, as a
    list.  ValidationError when it would hold more than
    ``paths.MAX_SAMPLES`` points or fewer than two distinct ones."""
    if (hi - lo) / _GRID + 1.0 > MAX_SAMPLES:
        raise ValidationError(
            f"the shooting grid on [{lo}, {hi}] would hold more than "
            f"{MAX_SAMPLES} points",
            where="eigenvalues_near",
        )
    if not lo < hi:
        raise ValidationError(
            f"the shooting grid on [{lo}, {hi}] has fewer than two "
            "distinct points",
            where="eigenvalues_near",
        )
    return np.linspace(lo, hi, int(np.ceil((hi - lo) / _GRID)) + 1).tolist()


class _Spectrum:
    """The eigenvalues at one family time on a shooting ``grid``, counted
    by ``_count_roots`` when it is built, from the shots its shooter
    holds or takes: simple ``brackets`` [s0, s1], each holding one root
    in (s0, s1] and a determinant sign change, and ``points`` with
    multiplicity, both in s order.

    A question about the side of q on which a bracket's root lies costs
    one determinant sign at q, and only when q is inside the bracket.
    """

    def __init__(self, shoot, grid, tol):
        self._shoot = shoot
        self.brackets = []
        self.points = []
        _count_roots(shoot, list(grid), tol, self.brackets, self.points)

    def _side(self, bracket, q):
        """sign(root - q) for the root of ``bracket``."""
        s0, s1 = bracket
        if q <= s0:
            return 1
        if q > s1:
            return -1
        d = self._shoot.det(q)
        if d == 0.0:
            return 0
        return -1 if (d < 0.0) != (self._shoot.det(s0) < 0.0) else 1

    def count(self, lo, hi):
        """Number of eigenvalues in [lo, hi], with multiplicity."""
        return sum(lo <= a <= hi for a in self.points) + sum(
            self._side(b, lo) >= 0 and self._side(b, hi) <= 0
            for b in self.brackets
        )

    def test_value(self, r, tol):
        """``paths._test_value`` of the balls of radius r around the
        spectrum, (s0 - r, s1 + r) around a bracket.

        While none is free, the bracket whose ball closes the widest gap
        is halved.  Shrunk to its root, a bracket's ball still covers its
        core (s1 - r, s0 + r), so the widest gap (x, y) that the cores and
        the points' balls leave is the most halving can free; the widest
        bracket whose ball meets (x, y) is halved, while it is wider than
        ``tol.clearance``.  None when (x, y) is too narrow for a test
        value or no such bracket is left: the piece is then split in time.
        """
        points = [(a - r, a + r) for a in self.points]
        while True:
            eps = _test_value(
                [(s0 - r, s1 + r) for s0, s1 in self.brackets] + points, tol
            )
            if eps is not None:
                return eps
            width, x, y = _widest_gap(
                [(s1 - r, s0 + r) for s0, s1 in self.brackets] + points
            )
            closing = [
                b
                for b in self.brackets
                if b[1] - b[0] > tol.clearance
                and b[0] - r < y
                and b[1] + r > x
            ]
            if width < 2.0 * tol.clearance or not closing:
                return None
            b = max(closing, key=lambda b: b[1] - b[0])
            m = 0.5 * (b[0] + b[1])
            if self._side(b, m) > 0:
                b[0] = m
            else:
                b[1] = m

    def located(self, tol):
        """The eigenvalues on the whole grid, each bracket's root found by
        ``brentq`` to ``tol.bisect_t``, in increasing order."""
        roots = [
            brentq(self._shoot.det, s0, s1, xtol=tol.bisect_t)
            for s0, s1 in self.brackets
        ]
        return np.sort(np.array(roots + self.points, dtype=float))


def eigenvalues_near(bp, t, lo, hi, tol=DEFAULT_TOL):
    """Eigenvalues in (lo, hi] at family time t, with multiplicity.

    Collected by ``_count_roots`` (``_Spectrum``) from a partition of
    (lo, hi] into pieces of at most ``_GRID``, with the chord radius of
    ``_Shooter.radius``, a heuristic read on the s-path; then each simple
    bracket's root is located to ``tol.bisect_t`` in s by ``brentq``.
    Only this function and ``eigenvalue_trace`` locate roots: the flow
    count reads the brackets.  AmbiguityError when a count is negative
    down to ``tol.bisect_t``, which the positive shooting path rules out.
    ValidationError when lo < hi fails ([lo, hi] is a single point, also
    when the float spacing swallows its width) and when the partition
    would hold more than ``paths.MAX_SAMPLES`` points, and unless t is a
    number in [0, 1], and unless ``bp`` is a BoundaryProblem.
    """
    _expect(BoundaryProblem, "eigenvalues_near", bp)
    _expect_time(t, "eigenvalues_near")
    grid = _grid(lo, hi)
    return _Spectrum(_Shooter(bp, t), grid, tol).located(tol)


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

    For a sampled family C_t is linear between nodes, where the norm is
    convex in t, so the value is the exact supremum read at t1 and at the
    family nodes inside the piece, in one stacked norm.  A piece inside
    one node gap [t_i, t_{i+1}] reads it off the gap's slope, (t1 - t0)
    ||C_{i+1} - C_i||_2 / (t_{i+1} - t_i), from the gap norms that a
    problem computes once (``BoundaryProblem._gap_norms``), and takes no
    norm of its own; it agrees with the read at t1 up to rounding.  A
    ``c_func`` family is read at t1 and the nodes inside, and between them
    the value is a heuristic.
    """
    ts = bp.ts
    i0, i1 = np.searchsorted(ts, t0, "right"), np.searchsorted(ts, t1)
    if bp.c_func is None and i0 == i1:
        i = i1 - 1
        return float((t1 - t0) * bp._gap_norms[i] / (ts[i1] - ts[i]))
    shifts = np.array([bp.c_at(t) for t in (*ts[i0:i1], t1)]) - bp.c_at(t0)
    return float(np.linalg.norm(shifts, 2, axis=(1, 2)).max())


def _read_ahead(bp, grid, radius, split):
    """The shooters, keyed by time, of every time of the Weyl partition:
    [0, 1] halved by ``split`` until ``radius`` is at most ``_REACH`` on
    every piece (``paths._halve_to_reach``), as the flow count halves it
    before any test value is sought.  The whole ``grid`` of every time is
    shot in one stacked read (``_read``).
    """
    ts = [0.0, 1.0]
    _halve_to_reach(ts, radius, _REACH, split)
    shooters = {t: _Shooter(bp, t) for t in ts}
    _read([(shoot, [grid]) for shoot in shooters.values()])
    return shooters


def spectral_flow(bp, tol=DEFAULT_TOL):
    """Net count of eigenvalues crossing 0 as t sweeps [0, 1].

    AmbiguityError when no admissible test value exists at the achievable
    time resolution (tangential crossing); ValidationError unless ``bp``
    is a BoundaryProblem.

    Phillips' count (``paths._phillips``) from the partition {0, 1}, with
    the radius ``_radius`` and the reach ``_REACH``: by Weyl no eigenvalue
    moves farther than the radius on a piece.  Each family time has one
    ``_Shooter`` and one ``_Spectrum`` of brackets on the whole detection
    grid, counted once when the count first reads that time, and no root
    is located: the balls around the brackets at t0 choose the test
    value, narrowed by halving only when they leave none free, and the
    counts at both ends are read from determinant signs.  No s outside
    the detection grid is shot.

    The radius reads only C_t, and the count halves every piece whose
    radius exceeds ``_REACH`` before it looks for a test value, so the
    times of that Weyl partition are known before anything is shot: their
    grids are shot in one stacked read first (``_read_ahead``), and each
    spectrum is then counted from its time's shooter; a time that a test
    value needs past them is shot when it is read.  Every stacked value is
    bitwise the one a single read gives, so the report is the one the
    count gives on its own.  Each piece's radius is computed once.  A
    read ahead that fails is dropped: the count meets the failure in its
    own order.
    """
    _expect(BoundaryProblem, "spectral_flow", bp)
    grid = _grid(_DETECT_LO, _DETECT_HI)
    radii = {}

    def radius(t0, t1):
        if (t0, t1) not in radii:
            radii[t0, t1] = _radius(bp, t0, t1)
        return radii[t0, t1]

    def split(ts, i):
        if not _halve(ts, i, _FLOW_MIN_PIECE, _FLOW_MAX_SAMPLES + 1):
            raise AmbiguityError("no admissible test value (tangential "
                                 "crossing?)", where="spectral_flow")

    try:
        shooters = _read_ahead(bp, grid, radius, split)
    except MasidxError:
        shooters = {}
    spectra = {}

    def spec(t):
        if t not in spectra:
            shoot = shooters.get(t) or _Shooter(bp, t)
            spectra[t] = _Spectrum(shoot, grid, tol)
        return spectra[t]

    ts = [0.0, 1.0]
    total, epsilons, _ = _phillips(
        ts, spec, radius, _REACH, split, tol.flow_snap, tol
    )
    return SpectralFlowReport(
        value=int(total),
        partition=np.array(ts),
        epsilons=np.array(epsilons),
        diagnostics={"time_samples": len(ts)},
    )


def eigenvalue_trace(bp, window=8.0, tol=DEFAULT_TOL):
    """Per-family-sample eigenvalue lists inside (-window, window];
    ValidationError unless ``window`` is a number."""
    _expect(BoundaryProblem, "eigenvalue_trace", bp)
    _expect(Real, "eigenvalue_trace", window)
    return tuple(
        (float(t), tuple(eigenvalues_near(bp, float(t), -window, window, tol)))
        for t in bp.ts
    )


# --------------------------------------------------------------------------
# the Maslov side
# --------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _doubled(N):
    """The box space of ``standard_space(N)``, built once per N and shared
    like the standard space itself."""
    return box_space(standard_space(N))


def cauchy_data_path(bp):
    """Path of graph Lagrangians {(v, Phi_t v)} in the doubled space.

    Returns (path, boundary) where ``boundary`` is the lambda0 ⊞ lambda1
    frame the coincidence theorem pairs the path with.  The flows of all
    family nodes are shot in one stacked ``_flows`` call, and their graph
    frames, with the boundary frame last, are formed in one ``lagrangian``
    stack; each is bitwise the one formed node by node.  The refiner
    forms the times that the count inserts one at a time.
    """
    _expect(BoundaryProblem, "cauchy_data_path", bp)
    bs = _doubled(bp.N)
    eye = np.eye(2 * bp.N)

    def graphs(Phi):
        """The graph frames [I; Phi_k] of a stack of flows."""
        return np.concatenate([np.broadcast_to(eye, Phi.shape), Phi], axis=1)

    def frame_at(t):
        return lagrangian(bs.space, graphs(bp.solution(t, 0.0)[None]))[0]

    ts = bp.ts.tolist()
    gens, jj = _generator(bp.B, [bp.c_at(t) for t in ts])
    stack = np.concatenate([
        graphs(_flows(gens, jj, np.zeros(len(ts)))),
        _block_diag(bp.lambda0, bp.lambda1)[None],
    ])
    *frames, boundary = lagrangian(bs.space, stack)
    path = LagrangianPath(samples=tuple(zip(ts, frames)), refiner=frame_at)
    return path, boundary


def verify_coincidence(bp, tol=DEFAULT_TOL):
    """Both sides of the coincidence theorem: {sf, mas, equal}."""
    _expect(BoundaryProblem, "verify_coincidence", bp)
    sf = spectral_flow(bp, tol=tol)
    path, boundary = cauchy_data_path(bp)
    mas = maslov(path, boundary, tol)
    return {
        "sf": int(sf.value),
        "mas": int(mas.value),
        "equal": bool(sf.value == mas.value),
    }
