"""Symplectic linear algebra groundwork.

Everything downstream works inside a ``SymplecticSpace``: R^{2n} equipped
with a complex structure J (J^2 = -Id) and a compatible inner product G.
The symplectic form is

    omega(u, v) = u^T J^T G v

so for the standard space (J = [[0, -I], [I, 0]], G = Id) we get
omega(e_1, e_{n+1}) = +1 and J e_i = e_{n+i}.

Lagrangian subspaces are carried around as G-orthonormal frames (2n x n
matrices whose columns span the subspace), checked once where they enter
(``LagrangianFrame``).  As Lambda(n) = U(n)/O(n), F = [X; Y] is one in the
standard space iff U = X + iY is unitary: the check is one n x n residual
R = (F^T G F - Id) + i F^T (J^T G) F, U^H U - Id there.  With P = F F^T G
and Q = [F, JF], J - JP - PJ = (Id - Q Q^T G) J has norm ||R||_2 there and
at most cond(G)^{1/2} ||R||_2 in general: J = JP + PJ follows.  Frames
written by an isometry from checked frames (``j_image``, the standard
horizontal frame, ``paths.lagrangian_geodesic``) are not checked again.
Every public matrix argument, and each vector of
``SymplecticSpace.omega`` as a row, first passes one intake rule,
``_as_matrix``: ragged nesting, entries that are not numbers, complex
entries where real ones are due, the wrong ndim or shape, and entries
that are not finite are each a ValidationError at the caller's
``where``.  A matrix taken in as unitary (path samples,
``indices.LiftedUnitary``, the argument of
``souriau.lagrangian_from_souriau``) then passes one residual,
||U^H U - Id||_2 <= 1e-9 (``_unitary``).  A frame reads
one tolerance, the rank bound of ``lagrangian``, and reads it from its
space (``SymplecticSpace.tol``), so a tolerance profile reaches frames
only through the spaces they are built in.  Every other bound here is a
fixed module constant, which no profile moves.  The paper's
graph (Cayley) chart of Lambda(n) and Kato's transform of a pair of
projections compute no index: they are test oracles.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import PreconditionError, ValidationError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SymplecticSpace",
    "standard_space",
    "compatible_structure",
    "LagrangianFrame",
    "lagrangian",
    "horizontal_frame",
    "vertical_frame",
    "intersection_dim",
    "realify",
    "complexify_vectors",
    "Standardization",
    "standardize",
    "BoxSpace",
    "box_space",
    "box_frame",
    "direct_sum_space",
    "direct_sum_frame",
    "haar_unitary",
    "random_lagrangian",
    "random_symmetric",
]


# --------------------------------------------------------------------------
# tolerances
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerances:
    """The documented tolerance set, in one place.

    ``scaled`` multiplies every field by one factor: the strict and loose
    profiles of the CLI.  Each field is read somewhere in the package.
    ``diff_step`` acts on crossing forms of user refiners only: on a
    geodesic path, and so on every CLI path, the form is exact.
    """

    validation: float = 1e-10
    rank: float = 1e-8
    angular: float = 1e-7
    clustering: float = 1e-7
    clearance: float = 1e-6
    regularity: float = 1e-6
    transversal: float = 1e-8
    diff_step: float = 1e-4
    bisect_t: float = 1e-10
    crossing_width: float = 1e-6
    log_cut: float = 1e-6
    flow_snap: float = 1e-8

    def scaled(self, factor):
        updates = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__
        }
        return replace(self, **updates)


DEFAULT_TOL = Tolerances()

# Bounds on a frame's residual R and on the isotropy ``lagrangian`` lets
# a span keep: fixed invariants, not tolerances (no profile moves them).
_FRAME_RESIDUAL = 1e-10
_SPAN_ISOTROPY = 1e-8
# Relative margin by which a Frobenius norm must clear a bound before it
# stands in for the spectral norm (``_norm2_exceeds``), and the smallest
# bound it does so for: squares of entries below it underflow.
_FROBENIUS_MARGIN = 1e-8
_FROBENIUS_UNDERFLOW = 1e-140
# Bound on ||U^H U - Id||_2 for a matrix taken in as unitary.
_UNITARY_RESIDUAL = 1e-9
# Entrywise distance at which two spaces' J and G count as the same.
_SPACE_MATCH = 1e-10
# Singular values of P_mu + P_nu below this count as dim(mu ∩ nu).
_INTERSECTION_SV = 1e-8
# Rounding allowed in the identities J^2 = -Id and gram^T = -gram of a
# space, relative to max(1, n) and max(1, ||gram||_2).
_STRUCTURE_ROUNDING = 1e-12
# Relative singular value below which a skew form counts as degenerate.
_DEGENERATE_FORM = 1e-10
# Norm below which ``standardize`` skips a swept column as already
# spanned, and the bound on ||S J S^-1 - J_std||_2 of its result.
_SWEEP_RESIDUAL = 1e-3
_STANDARDIZATION_DRIFT = 1e-9


# --------------------------------------------------------------------------
# spaces
# --------------------------------------------------------------------------


def _norm2_exceeds(X, bound, scale=None, power=1):
    """``norm(X, 2) > bound``, or ``> bound * max(1, norm(scale, 2) **
    power)`` with ``scale``, skipping the SVDs when it can.

    ||X||_2 <= ||X||_F, so a Frobenius norm below ``bound`` already proves
    the check passes.  The relative margin ``_FROBENIUS_MARGIN`` keeps
    rounding in the two norms from letting the shortcut answer
    differently from the SVD, and bounds below ``_FROBENIUS_UNDERFLOW``
    always go to the SVD: squares of entries that small underflow, so the
    Frobenius norm can come out below ||X||_2; a non-finite X exceeds.
    """
    if (
        bound >= _FROBENIUS_UNDERFLOW
        and np.linalg.norm(X) * (1.0 + _FROBENIUS_MARGIN) <= bound
    ):
        return False
    if not np.isfinite(X).all():
        return True
    norm = np.linalg.norm(X, 2)
    if scale is not None and norm > bound:
        bound *= max(1.0, np.linalg.norm(scale, 2) ** power)
    return bool(norm > bound)


def _uncleared(R, bound):
    """Indices k, in order, of a stack of residuals whose Frobenius norms
    do not clear ``bound`` as in ``_norm2_exceeds``: the stacked clear."""
    cleared = np.linalg.norm(R, axis=(1, 2)) * (1.0 + _FROBENIUS_MARGIN)
    return np.flatnonzero(~(cleared <= bound))


def _dimension(n, name, where):
    """n, an integer >= 1; ValidationError at ``where`` otherwise."""
    if not isinstance(n, Integral):
        raise ValidationError(f"{name} must be an integer", where=where)
    if n < 1:
        raise ValidationError(f"{name} must be >= 1", where=where)
    return n


def _as_matrix(M, name, where, shape=None, allow_complex=False, stack=False):
    """M as a new float (or complex) array, by the intake rule of the
    module docstring.  ``shape`` is a tuple, "square" or "even" (square of
    even size); ``stack`` also accepts a stack (k,) + ``shape``."""
    try:
        A = np.asarray(M)
    except ValueError:
        raise ValidationError(f"{name} is ragged", where=where) from None
    if A.dtype.kind not in ("iufc" if allow_complex else "iuf"):
        reason = "must be real" if A.dtype.kind == "c" else "is not numeric"
        raise ValidationError(f"{name} {reason}", where=where)
    A = A.astype(complex if allow_complex else float)
    if A.ndim != 2 and not (stack and A.ndim == 3):
        raise ValidationError(f"{name} must be a matrix", where=where)
    m, k = A.shape[-2:]
    if shape in ("square", "even"):
        if m != k or shape == "even" and (m % 2 or not m):
            size = " of even size" if shape == "even" else ""
            raise ValidationError(f"{name} must be square{size}", where=where)
    elif shape is not None and (m, k) != shape:
        raise ValidationError(
            f"{name} has shape {(m, k)}, expected {shape}", where=where
        )
    if not np.isfinite(A).all():
        raise ValidationError(f"{name} not finite", where=where)
    return A


def _unitary(U, name, where, shape="square"):
    """U by ``_as_matrix`` (complex, of ``shape``), then "<name> not
    unitary" at ``where`` unless ||U^H U - Id||_2 <= ``_UNITARY_RESIDUAL``."""
    U = _as_matrix(U, name, where, shape, allow_complex=True)
    if _norm2_exceeds(U.conj().T @ U - np.eye(len(U)), _UNITARY_RESIDUAL):
        raise ValidationError(f"{name} not unitary", where=where)
    return U


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """R^{2n} with complex structure J and compatible inner product G."""

    n: int
    J: np.ndarray
    G: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        n = _dimension(self.n, "n", "SymplecticSpace.n")
        J = _as_matrix(self.J, "J", "SymplecticSpace.J", (2 * n, 2 * n))
        G = _as_matrix(self.G, "G", "SymplecticSpace.G", (2 * n, 2 * n))
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "G", G)
        t = self.tol.validation
        eye = np.eye(2 * n)
        if _norm2_exceeds(J @ J + eye, _STRUCTURE_ROUNDING * max(1, n)):
            raise ValidationError("J^2 != -Id", where="SymplecticSpace.J")
        if _norm2_exceeds(G - G.T, t):
            raise ValidationError("G not symmetric", where="SymplecticSpace.G")
        if np.linalg.eigvalsh(G).min() <= 0:
            raise ValidationError(
                "G not positive definite", where="SymplecticSpace.G"
            )
        if _norm2_exceeds(J.T @ G @ J - G, t * np.linalg.norm(G, 2)):
            raise ValidationError(
                "J not G-compatible (J^T G J != G)", where="SymplecticSpace"
            )
        gram = J.T @ G
        scale = max(1.0, np.linalg.norm(gram, 2))
        if _norm2_exceeds(gram + gram.T, _STRUCTURE_ROUNDING * scale):
            raise ValidationError(
                "form Gram not antisymmetric", where="SymplecticSpace"
            )

    @cached_property
    def gram(self):
        """Matrix of the symplectic form: omega(u, v) = u^T gram v."""
        return self.J.T @ self.G

    @cached_property
    def is_standard(self):
        n = self.n
        return bool(
            np.array_equal(self.G, np.eye(2 * n))
            and np.array_equal(self.J, _standard_J(n))
        )

    @cached_property
    def _g_factor(self):
        w, V = np.linalg.eigh(self.G)
        half = (V * np.sqrt(w)) @ V.T
        inv_half = (V / np.sqrt(w)) @ V.T
        return half, inv_half

    @property
    def g_half(self):
        return self._g_factor[0]

    @property
    def g_half_inv(self):
        return self._g_factor[1]

    def omega(self, u, v):
        """omega(u, v) = u^T J^T G v of two real vectors of length 2n,
        each taken in by ``_as_matrix`` as a row."""
        u, v = (
            _as_matrix([x], name, "SymplecticSpace.omega", (1, 2 * self.n))[0]
            for x, name in ((u, "u"), (v, "v"))
        )
        return u @ self.gram @ v

    @cached_property
    def standardization(self):
        return standardize(self)


def _standard_J(n):
    z = np.zeros((n, n))
    eye = np.eye(n)
    return np.block([[z, -eye], [eye, z]])


def standard_space(n, tol=DEFAULT_TOL):
    """The model space: J = [[0, -I], [I, 0]], G = Id.  One space is built
    per (n, tol) and shared, its J and G read-only."""
    return _standard_space(_dimension(n, "n", "SymplecticSpace.n"), tol)


@lru_cache(maxsize=64)
def _standard_space(n, tol):
    space = SymplecticSpace(n=n, J=_standard_J(n), G=np.eye(2 * n), tol=tol)
    space.J.setflags(write=False)
    space.G.setflags(write=False)
    return space


def compatible_structure(Omega, tol=DEFAULT_TOL):
    """Split a nondegenerate skew form operator into (J, G).

    Omega acts as the operator of the form, omega(x, y) = (Omega x, y).
    Polar-decompose by the SVD Omega = U Sigma V^T: G = V Sigma V^T =
    |Omega| and J = U V^T, the orthogonal polar factor.  Omega is normal,
    so J = |Omega|^{-1} Omega, J^T G = Omega^T, J^2 = -Id, and G is the
    compatible inner product.  J is orthogonal to rounding, so J^2 + Id =
    J (J + J^T) misses zero by rounding times cond(Omega), not its square.
    """
    A = _as_matrix(Omega, "Omega", "compatible_structure", "even")
    scale = np.linalg.norm(A, 2)
    if scale == 0 or _norm2_exceeds(A + A.T, tol.validation * scale):
        raise ValidationError(
            "Omega not antisymmetric", where="compatible_structure"
        )
    U, sv, Vt = np.linalg.svd(A)
    if sv.min() <= _DEGENERATE_FORM * sv.max():
        raise PreconditionError(
            "Omega is degenerate (smallest singular value below 1e-10)",
            where="compatible_structure",
        )
    G = (Vt.T * sv) @ Vt
    return SymplecticSpace(n=len(A) // 2, J=U @ Vt, G=G, tol=tol)


def _spaces_match(a, b):
    return a is b or (
        a.n == b.n
        and np.allclose(a.J, b.J, atol=_SPACE_MATCH)
        and np.allclose(a.G, b.G, atol=_SPACE_MATCH)
    )


def _expect(kind, where, *objs):
    """ValidationError "expected a <kind>" at ``where`` unless each of
    ``objs`` is a ``kind``, a class or a tuple of classes (named "<A> or
    <B>"): the type check of every argument due as a frame, a path, a
    problem or a number, run before any attribute of it is read."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for obj in objs:
        if not isinstance(obj, kinds):
            name = " or ".join(k.__name__ for k in kinds)
            raise ValidationError(f"expected a {name}", where=where)


def _expect_time(t, where):
    """ValidationError "t must be a number in [0, 1]" at ``where`` unless
    t is one: the check of every single family or path time argument."""
    if not (isinstance(t, Real) and 0.0 <= t <= 1.0):
        raise ValidationError("t must be a number in [0, 1]", where=where)


def _require_same_space(a, b, where):
    if not _spaces_match(a, b):
        raise ValidationError("frames live in different spaces", where=where)


# --------------------------------------------------------------------------
# Lagrangian frames
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """G-orthonormal frame of a Lagrangian subspace: U = X + iY unitary,
    ||R||_2 <= 1e-10 (module docstring), checked on construction as a
    stack of one (``_frame_errors``).  A failure is "frame not
    G-orthonormal" when Re R = F^T G F - Id exceeds the bound, else
    "frame not isotropic".  ``_exact`` skips the check.
    """

    space: SymplecticSpace
    F: np.ndarray

    def __post_init__(self):
        sp = self.space
        F = _as_matrix(self.F, "F", "LagrangianFrame", (2 * sp.n, sp.n))
        object.__setattr__(self, "F", F)
        for _, err in _frame_errors(sp, F[None]):
            raise err

    @classmethod
    def _exact(cls, space, F):
        """F unchecked, for F written by an isometry from checked frames."""
        frame = object.__new__(cls)
        frame.__dict__.update(space=space, F=F)
        return frame

    @cached_property
    def P(self):
        """G-orthogonal projection onto the subspace."""
        return self.F @ self.F.T @ self.space.G

    @cached_property
    def tau(self):
        """Reflection through the subspace: 2P - Id."""
        return 2.0 * self.P - np.eye(2 * self.space.n)

    @cached_property
    def _standard(self):
        """The frame on the standard model, pushed at most once."""
        return self.space.standardization.push_frame(self)

    def j_image(self):
        """The G-orthogonal complement J(span F); J keeps R: unchecked."""
        return LagrangianFrame._exact(self.space, self.space.J @ self.F)


def _frame_errors(space, F):
    """(k, error) for each frame F[k] of a stack (k, 2n, n) that fails the
    check of ``LagrangianFrame``, in order of k.

    The residuals R = F^T G F - Id + i (JF)^T G F are formed in one
    stacked product, and their Frobenius norms clear the stack at once
    (``_uncleared``, the one stacked clear); only a residual they do not
    clear, a non-finite one too, takes the exact test, which says which
    part failed.
    """
    GF = space.G @ F
    R = np.swapaxes(F, 1, 2) @ GF - np.eye(space.n) + 1j * (
        np.swapaxes(space.J @ F, 1, 2) @ GF
    )
    for k in _uncleared(R, _FRAME_RESIDUAL):
        if _norm2_exceeds(R[k], _FRAME_RESIDUAL):
            if _norm2_exceeds(R[k].real, _FRAME_RESIDUAL):
                reason = "frame not G-orthonormal"
            else:
                reason = "frame not isotropic"
            yield int(k), ValidationError(reason, where="LagrangianFrame")


def lagrangian(space, M):
    """Validated Lagrangian frames from (possibly raw) spanning matrices.

    Parameters
    ----------
    space : SymplecticSpace
        Its ``tol.rank``, relative to the largest QR diagonal entry (or
        1), is the frame's rank tolerance: a profile sets it on the space.
    M : (2n, n) array, or a (k, 2n, n) stack of them
        Columns spanning the candidate subspace.  They are
        re-orthonormalized (thin QR against the metric, R diagonal forced
        positive) before the check of ``LagrangianFrame``.  A matrix is
        a stack of one: one QR runs on the whole stack, and its residuals
        are cleared at once (``_frame_errors``).  numpy factors a stack
        slice by slice, so each frame is bitwise the one a call on its
        matrix alone gives.

    Returns
    -------
    LagrangianFrame, or a tuple of k of them for a stack.

    Raises
    ------
    ValidationError
        An input the intake rule rejects (``_as_matrix``), else the error
        of the first matrix of the stack that fails, as a call on each
        matrix in turn would raise it: rank-deficient input, or
        the orthonormalized frame fails the check of ``LagrangianFrame``,
        named "subspace is not isotropic" here when its isotropy part,
        formed only then, exceeds 1e-8.
    """
    shape = (2 * space.n, space.n)
    Ms = _as_matrix(M, "frame", "lagrangian", shape, stack=True)
    single = Ms.ndim == 2
    if single:
        Ms = Ms[None]
    W = Ms if space.is_standard else space.g_half @ Ms
    Q, R = np.linalg.qr(W)
    d = np.diagonal(R, axis1=1, axis2=2)
    scale = np.maximum(1.0, np.abs(d).max(axis=1, initial=0.0))
    tol = space.tol
    deficient = np.flatnonzero(
        (np.abs(d) <= tol.rank * scale[:, None]).any(axis=1)
    )
    F = Q * np.sign(d)[:, None, :]
    if not space.is_standard:
        F = space.g_half_inv @ F
    # frames past the first rank-deficient one are never reached
    reached = F[: deficient[0]] if deficient.size else F
    for k, err in _frame_errors(space, reached):
        if _norm2_exceeds(F[k].T @ space.gram @ F[k], _SPAN_ISOTROPY):
            raise ValidationError(
                "subspace is not isotropic", where="lagrangian"
            )
        raise err
    if deficient.size:
        raise ValidationError("rank-deficient frame", where="lagrangian")
    frames = tuple(LagrangianFrame._exact(space, f) for f in F)
    return frames[0] if single else frames


def horizontal_frame(space):
    """span(e_1 .. e_n): U = Id unchecked if standard, else checked."""
    M = np.vstack([np.eye(space.n), np.zeros((space.n, space.n))])
    if space.is_standard:
        return LagrangianFrame._exact(space, M)
    return lagrangian(space, M)


def vertical_frame(space):
    return horizontal_frame(space).j_image()


def intersection_dim(mu, nu):
    """dim(mu ∩ nu), counted from the projector sum.

    Counts singular values of (P_mu + P_nu) below ``_INTERSECTION_SV``;
    agrees with 2n - rank[F_mu | F_nu].
    """
    _expect(LagrangianFrame, "intersection_dim", mu, nu)
    _require_same_space(mu.space, nu.space, "intersection_dim")
    sv = np.linalg.svd(mu.P + nu.P, compute_uv=False)
    return int(np.count_nonzero(sv < _INTERSECTION_SV))


# --------------------------------------------------------------------------
# complexification (standard space)
# --------------------------------------------------------------------------


def realify(M):
    """Real 2n x 2n operator [[A, -B], [B, A]] of M = A + iB, acting on
    z = x + iy with x the first n and y the last n real coordinates."""
    M = _as_matrix(M, "M", "realify", allow_complex=True)
    A, B = M.real, M.imag
    return np.block([[A, -B], [B, A]])


def complexify_vectors(V):
    """Columns of a real 2n x k matrix as complex n-vectors."""
    V = _as_matrix(V, "V", "complexify_vectors")
    n, odd = divmod(len(V), 2)
    if odd:
        raise ValidationError("V has an odd number of rows",
                              where="complexify_vectors")
    return V[:n] + 1j * V[n:]


# --------------------------------------------------------------------------
# standardization of a general compatible metric
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Standardization:
    """Linear map onto the standard model preserving omega and <.,.>_G.

    On a standard source it is the identity, and ``push_frame`` and
    ``pull_frame`` return the frame itself.
    """

    source: SymplecticSpace
    target: SymplecticSpace
    matrix: np.ndarray
    inverse: np.ndarray

    def push_frame(self, frame):
        if self.source.is_standard:
            return frame
        return lagrangian(self.target, self.matrix @ frame.F)

    def pull_frame(self, frame):
        if self.source.is_standard:
            return frame
        return lagrangian(self.source, self.inverse @ frame.F)


def standardize(space):
    """Congruence + orthogonal change of basis onto standard_space(n).

    x -> T^T G^{1/2} x with T built by a deterministic Gram-Schmidt sweep
    over identity columns, so that T^T (G^{1/2} J G^{-1/2}) T = J_std.
    """
    n = space.n
    if space.is_standard:
        eye = np.eye(2 * n)
        return Standardization(space, space, eye, eye)
    W = space.g_half
    Jp = W @ space.J @ space.g_half_inv
    basis = []
    us = []
    for c in np.eye(2 * n).T:
        if len(us) == n:
            break
        r = c.copy()
        for b in basis:
            r -= (b @ r) * b
        nr = np.linalg.norm(r)
        if nr < _SWEEP_RESIDUAL:
            continue
        u = r / nr
        v = Jp @ u
        v = v - (u @ v) * u
        v /= np.linalg.norm(v)
        us.append(u)
        basis.extend([u, v])
    if len(us) != n:
        raise ValidationError("standardization basis failed", where="standardize")
    T = np.column_stack(us + [Jp @ u for u in us])
    S = T.T @ W
    target = standard_space(n, tol=space.tol)
    check = S @ space.J @ np.linalg.inv(S)
    if _norm2_exceeds(check - target.J, _STANDARDIZATION_DRIFT):
        raise ValidationError("standardization drifted", where="standardize")
    return Standardization(space, target, S, np.linalg.inv(S))


# --------------------------------------------------------------------------
# product spaces
# --------------------------------------------------------------------------


def _block_diag(a, b):
    """The block-diagonal matrix diag(a, b) of two matrices."""
    za, zb = np.zeros((len(a), b.shape[1])), np.zeros((len(b), a.shape[1]))
    return np.block([[a, za], [zb, b]])


def direct_sum_space(a, b):
    """Plain direct sum: J = diag(J_a, J_b), G = diag(G_a, G_b)."""
    J, G = _block_diag(a.J, b.J), _block_diag(a.G, b.G)
    return SymplecticSpace(n=a.n + b.n, J=J, G=G, tol=a.tol)


def direct_sum_frame(space_sum, fa, fb):
    """blockdiag(F_a, F_b) as a Lagrangian frame of the direct sum."""
    return lagrangian(space_sum, _block_diag(fa.F, fb.F))


@dataclass(frozen=True, eq=False)
class BoxSpace:
    """Double space carrying omega on the left and -omega on the right.

    J = diag(J_base, -J_base), G = diag(G, G); the diagonal
    {(x, x)} is Lagrangian and detects intersections:
    dim((mu ⊞ lam) ∩ Δ) = dim(mu ∩ lam).
    """

    base: SymplecticSpace
    space: SymplecticSpace
    delta: LagrangianFrame


def box_space(base):
    J, G = _block_diag(base.J, -base.J), _block_diag(base.G, base.G)
    sp = SymplecticSpace(n=2 * base.n, J=J, G=G, tol=base.tol)
    E = base.g_half_inv
    delta = lagrangian(sp, np.vstack([E, E]) / np.sqrt(2.0))
    return BoxSpace(base=base, space=sp, delta=delta)


def box_frame(bs, mu, lam):
    """mu ⊞ lam = blockdiag frame in the box space."""
    _require_same_space(mu.space, bs.base, "box_frame")
    _require_same_space(lam.space, bs.base, "box_frame")
    return lagrangian(bs.space, _block_diag(mu.F, lam.F))


# --------------------------------------------------------------------------
# randomness (single Generator threaded through)
# --------------------------------------------------------------------------


def haar_unitary(n, rng):
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z / np.sqrt(2.0))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_symmetric(n, rng, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A + A.T) / 2.0


def random_lagrangian(space, rng):
    """Uniform (Haar) random Lagrangian frame."""
    std = space.standardization
    U = haar_unitary(space.n, rng)
    F = np.vstack([U.real, U.imag])
    return std.pull_frame(lagrangian(std.target, F))
