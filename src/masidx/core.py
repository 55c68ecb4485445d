"""Symplectic linear algebra groundwork.

Everything downstream works inside a ``SymplecticSpace``: R^{2n} equipped
with a complex structure J (J^2 = -Id) and a compatible inner product G.
The symplectic form is

    omega(u, v) = u^T J^T G v

so for the standard space (J = [[0, -I], [I, 0]], G = Id) we get
omega(e_1, e_{n+1}) = +1 and J e_i = e_{n+i}.

Lagrangian subspaces are carried around as G-orthonormal frames (2n x n
matrices whose columns span the subspace).
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import subspace_angles

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
    "SymmetricGenerator",
    "graph_lagrangian",
    "cayley_unitary",
    "kato_pair_transform",
    "intersection_dim",
    "complexify",
    "realify",
    "complexify_vectors",
    "realify_vectors",
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
    "same_span",
]


# --------------------------------------------------------------------------
# tolerances
# --------------------------------------------------------------------------

_UNSCALED = ("adjacency_frame",)


@dataclass(frozen=True)
class Tolerances:
    """The documented tolerance set, in one place.

    ``scaled`` produces the strict/loose profiles used by the CLI; the
    frame adjacency bound is an adequacy constant, not a tolerance, and
    never scales.
    """

    validation: float = 1e-10
    rank: float = 1e-8
    angular: float = 1e-7
    clustering: float = 1e-7
    clearance: float = 1e-6
    regularity: float = 1e-6
    transversal: float = 1e-8
    lift: float = 1e-9
    diff_step: float = 1e-4
    bisect_t: float = 1e-10
    crossing_width: float = 1e-6
    log_cut: float = 1e-6
    flow_snap: float = 1e-8
    flow_guard: float = 1e-8
    adjacency_frame: float = 0.3

    def scaled(self, factor):
        updates = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__
            if name not in _UNSCALED
        }
        return replace(self, **updates)


DEFAULT_TOL = Tolerances()


# --------------------------------------------------------------------------
# spaces
# --------------------------------------------------------------------------


def _norm2_exceeds(X, bound):
    """``np.linalg.norm(X, 2) > bound``, skipping the SVD when it can.

    ||X||_2 <= ||X||_F, so a Frobenius norm below the bound already proves
    the check passes.  The relative margin of 1e-8 keeps rounding in the
    two norms from letting the shortcut answer differently from the SVD,
    and bounds below 1e-140 always go to the SVD: squares of entries that
    small underflow, so the Frobenius norm can come out below ||X||_2.
    """
    if bound >= 1e-140 and np.linalg.norm(X) * (1.0 + 1e-8) <= bound:
        return False
    return bool(np.linalg.norm(X, 2) > bound)


def _as_matrix(M, name, shape=None, allow_complex=False):
    A = np.asarray(M)
    if allow_complex:
        if not np.issubdtype(A.dtype, np.number):
            raise ValidationError(f"{name} is not numeric", where=name)
        A = A.astype(complex)
    else:
        if np.iscomplexobj(A):
            raise ValidationError(f"{name} must be real", where=name)
        A = A.astype(float)
    if A.ndim != 2:
        raise ValidationError(f"{name} must be a matrix", where=name)
    if shape is not None and A.shape != shape:
        raise ValidationError(
            f"{name} has shape {A.shape}, expected {shape}", where=name
        )
    return A


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """R^{2n} with complex structure J and compatible inner product G."""

    n: int
    J: np.ndarray
    G: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValidationError("n must be >= 1", where="SymplecticSpace.n")
        J = _as_matrix(self.J, "J", (2 * n, 2 * n))
        G = _as_matrix(self.G, "G", (2 * n, 2 * n))
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "G", G)
        t = self.tol.validation
        eye = np.eye(2 * n)
        if _norm2_exceeds(J @ J + eye, 1e-12 * max(1.0, float(n))):
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
        if _norm2_exceeds(
            gram + gram.T, 1e-12 * max(1.0, np.linalg.norm(gram, 2))
        ):
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
        return np.asarray(u).T @ self.gram @ np.asarray(v)

    def inner(self, u, v):
        return np.asarray(u).T @ self.G @ np.asarray(v)

    @cached_property
    def standardization(self):
        return standardize(self)


def _standard_J(n):
    z = np.zeros((n, n))
    eye = np.eye(n)
    return np.block([[z, -eye], [eye, z]])


def standard_space(n, tol=DEFAULT_TOL):
    """The model space: J = [[0, -I], [I, 0]], G = Id."""
    return SymplecticSpace(n=n, J=_standard_J(n), G=np.eye(2 * n), tol=tol)


def compatible_structure(Omega, tol=DEFAULT_TOL):
    """Split a nondegenerate skew form operator into (J, G).

    Omega acts as the operator of the form, omega(x, y) = (Omega x, y).
    Polar-decompose: G = |Omega| = (Omega^T Omega)^{1/2} and
    J = |Omega|^{-1} Omega.  Then J^T G = Omega^T exactly, J^2 = -Id, and
    G is the compatible inner product.
    """
    A = _as_matrix(Omega, "Omega")
    m = A.shape[0]
    if A.shape[1] != m or m % 2 != 0 or m == 0:
        raise ValidationError(
            "Omega must be square of even size", where="compatible_structure"
        )
    scale = np.linalg.norm(A, 2)
    if scale == 0 or _norm2_exceeds(A + A.T, tol.validation * scale):
        raise ValidationError(
            "Omega not antisymmetric", where="compatible_structure"
        )
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.min() <= 1e-10 * sv.max():
        raise PreconditionError(
            "Omega is degenerate (smallest singular value below 1e-10)",
            where="compatible_structure",
        )
    w, V = np.linalg.eigh(A.T @ A)
    w = np.maximum(w, 0.0)
    G = (V * np.sqrt(w)) @ V.T
    G_inv = (V / np.sqrt(w)) @ V.T
    J = G_inv @ A
    return SymplecticSpace(n=m // 2, J=J, G=G, tol=tol)


def _spaces_match(a, b, tol=1e-10):
    return a is b or (
        a.n == b.n
        and np.allclose(a.J, b.J, atol=tol)
        and np.allclose(a.G, b.G, atol=tol)
    )


def _require_same_space(a, b, where):
    if not _spaces_match(a, b):
        raise ValidationError("frames live in different spaces", where=where)


# --------------------------------------------------------------------------
# Lagrangian frames
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """G-orthonormal frame of a Lagrangian subspace.

    Invariants checked on construction: F^T G F = Id to 1e-10, isotropy
    |F^T (J^T G) F| <= 1e-10, and the associated projection P = F F^T G
    satisfies J = J P + P J to 1e-9.
    """

    space: SymplecticSpace
    F: np.ndarray

    def __post_init__(self):
        sp = self.space
        F = _as_matrix(self.F, "F", (2 * sp.n, sp.n))
        object.__setattr__(self, "F", F)
        if _norm2_exceeds(F.T @ sp.G @ F - np.eye(sp.n), 1e-10):
            raise ValidationError(
                "frame not G-orthonormal", where="LagrangianFrame"
            )
        if _norm2_exceeds(F.T @ sp.gram @ F, 1e-10):
            raise ValidationError(
                "frame not isotropic", where="LagrangianFrame"
            )
        P = self.P
        if _norm2_exceeds(sp.J - sp.J @ P - P @ sp.J, 1e-9):
            raise ValidationError(
                "projection does not split J (J != JP + PJ)",
                where="LagrangianFrame",
            )

    @cached_property
    def P(self):
        """G-orthogonal projection onto the subspace."""
        return self.F @ self.F.T @ self.space.G

    @cached_property
    def tau(self):
        """Reflection through the subspace: 2P - Id."""
        return 2.0 * self.P - np.eye(2 * self.space.n)

    def j_image(self):
        """The G-orthogonal Lagrangian complement J(span F)."""
        return LagrangianFrame(self.space, self.space.J @ self.F)


def _orthonormalize(space, M, tol, where):
    """G-orthonormalize columns; raise on rank deficiency."""
    W = space.g_half @ M if not space.is_standard else M
    Q, R = np.linalg.qr(W)
    d = np.diag(R)
    bad = np.abs(d) <= tol.rank * max(1.0, np.abs(d).max(initial=0.0))
    if bad.any():
        raise ValidationError("rank-deficient frame", where=where)
    Q = Q * np.sign(d)
    if not space.is_standard:
        Q = space.g_half_inv @ Q
    return Q


def lagrangian(space, M, tol=None):
    """Validated Lagrangian frame from a (possibly raw) spanning matrix.

    Parameters
    ----------
    space : SymplecticSpace
    M : (2n, n) array
        Columns spanning the candidate subspace.  They are
        re-orthonormalized (thin QR against the metric, R diagonal forced
        positive) before the isotropy check.
    tol : Tolerances, optional

    Returns
    -------
    LagrangianFrame

    Raises
    ------
    ValidationError
        Rank-deficient input, or isotropy violated beyond 1e-8 after
        orthonormalization.
    """
    tol = tol or space.tol
    M = _as_matrix(M, "frame", (2 * space.n, space.n))
    F = _orthonormalize(space, M, tol, "lagrangian")
    if _norm2_exceeds(F.T @ space.gram @ F, 1e-8):
        raise ValidationError(
            "subspace is not isotropic", where="lagrangian"
        )
    return LagrangianFrame(space, F)


def horizontal_frame(space):
    """span(e_1 .. e_n) in the standard space (G-orthonormalized otherwise)."""
    M = np.vstack([np.eye(space.n), np.zeros((space.n, space.n))])
    return lagrangian(space, M)


def vertical_frame(space):
    return horizontal_frame(space).j_image()


@dataclass(frozen=True, eq=False)
class SymmetricGenerator:
    """Symmetric matrix A generating a graph over a base Lagrangian."""

    base: LagrangianFrame
    A: np.ndarray

    def __post_init__(self):
        n = self.base.space.n
        A = _as_matrix(self.A, "A", (n, n))
        object.__setattr__(self, "A", A)
        if _norm2_exceeds(A - A.T, 1e-10 * max(1.0, np.linalg.norm(A, 2))):
            raise ValidationError(
                "generator not symmetric", where="SymmetricGenerator"
            )


def graph_lagrangian(gen):
    """Lagrangian {u + J A u : u in base}, for symmetric A on the base."""
    base = gen.base
    sp = base.space
    M = base.F + sp.J @ base.F @ gen.A
    return lagrangian(sp, M)


def cayley_unitary(gen, tol=DEFAULT_TOL):
    """Unitary U_A = (Id + iA)(Id + A^2)^{-1/2} for the graph of A.

    Applying U_A to the base Lagrangian (as a real operator through the
    block expansion in the adapted basis) spans graph_lagrangian(gen), and
    U_A^2 = (i Id - A)(i Id + A)^{-1}.
    """
    A = gen.A
    w, V = np.linalg.eigh(A)
    inv_root = (V / np.sqrt(1.0 + w**2)) @ V.T
    U = (np.eye(A.shape[0]) + 1j * A) @ inv_root
    if _norm2_exceeds(U.conj().T @ U - np.eye(A.shape[0]), 1e-10):
        raise ValidationError("Cayley image not unitary", where="cayley_unitary")
    return U


def kato_pair_transform(P, Q, tol=DEFAULT_TOL):
    """Orthogonal W with W Q = P W, for orthogonal projections P, Q.

    W = D ((Id - P)(Id - Q) + P Q) with D = (Id - (P - Q)^2)^{-1/2}.

    Raises PreconditionError when ||P - Q|| > 1 - 1e-6 (the interpolation
    degenerates) and ValidationError for non-projections.
    """
    P = _as_matrix(P, "P")
    Q = _as_matrix(Q, "Q", P.shape)
    for name, M in (("P", P), ("Q", Q)):
        if _norm2_exceeds(M @ M - M, 1e-8) or _norm2_exceeds(M - M.T, 1e-8):
            raise ValidationError(
                f"{name} is not a symmetric projection",
                where="kato_pair_transform",
            )
    if _norm2_exceeds(P - Q, 1.0 - 1e-6):
        gap = np.linalg.norm(P - Q, 2)
        raise PreconditionError(
            f"projections too far apart (||P - Q|| = {gap:.6f} > 1 - 1e-6)",
            where="kato_pair_transform",
        )
    S = np.eye(P.shape[0]) - (P - Q) @ (P - Q)
    w, V = np.linalg.eigh(S)
    D = (V / np.sqrt(w)) @ V.T
    W = D @ ((np.eye(P.shape[0]) - P) @ (np.eye(P.shape[0]) - Q) + P @ Q)
    if _norm2_exceeds(W.T @ W - np.eye(W.shape[0]), 1e-10):
        raise ValidationError(
            "transform drifted from orthogonality", where="kato_pair_transform"
        )
    if _norm2_exceeds(W @ Q - P @ W, 1e-9):
        raise ValidationError(
            "intertwining residual above 1e-9", where="kato_pair_transform"
        )
    return W


def intersection_dim(mu, nu, tol=1e-8):
    """dim(mu ∩ nu), counted from the projector sum.

    Counts singular values of (P_mu + P_nu) below ``tol``; agrees with
    2n - rank[F_mu | F_nu].
    """
    if not (0.0 < tol < 0.1):
        raise ValidationError(
            "tol must lie in (0, 0.1)", where="intersection_dim"
        )
    _require_same_space(mu.space, nu.space, "intersection_dim")
    sv = np.linalg.svd(mu.P + nu.P, compute_uv=False)
    return int(np.count_nonzero(sv < tol))


def same_span(a, b, tol=1e-8):
    """True when two frames span the same subspace (max principal angle)."""
    if isinstance(a, LagrangianFrame):
        a = a.F
    if isinstance(b, LagrangianFrame):
        b = b.F
    angles = subspace_angles(np.asarray(a), np.asarray(b))
    return bool(angles.max(initial=0.0) <= tol)


# --------------------------------------------------------------------------
# complexification (standard space)
# --------------------------------------------------------------------------


def complexify(T, tol=1e-9):
    """Complex n x n matrix of a real 2n x 2n operator commuting with J.

    Block convention: T = [[A, -B], [B, A]] represents A + iB acting on
    z = x + iy with x the first n and y the last n real coordinates.
    """
    T = np.asarray(T, dtype=float)
    m = T.shape[0]
    if T.ndim != 2 or T.shape[1] != m or m % 2 != 0:
        raise ValidationError("expected square even-sized matrix", where="complexify")
    n = m // 2
    A, B = T[:n, :n], T[n:, :n]
    scale = max(1.0, np.linalg.norm(T, 2))
    if _norm2_exceeds(T[:n, n:] + B, tol * scale) or _norm2_exceeds(
        T[n:, n:] - A, tol * scale
    ):
        raise ValidationError(
            "operator does not commute with the complex structure",
            where="complexify",
        )
    return A + 1j * B


def realify(M):
    """Inverse of complexify."""
    M = np.asarray(M, dtype=complex)
    A, B = M.real, M.imag
    return np.block([[A, -B], [B, A]])


def complexify_vectors(V):
    """Columns of a real 2n x k matrix as complex n-vectors."""
    V = np.asarray(V, dtype=float)
    n = V.shape[0] // 2
    return V[:n] + 1j * V[n:]


def realify_vectors(Z):
    Z = np.asarray(Z, dtype=complex)
    return np.vstack([Z.real, Z.imag])


# --------------------------------------------------------------------------
# standardization of a general compatible metric
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Standardization:
    """Linear map onto the standard model preserving omega and <.,.>_G."""

    source: SymplecticSpace
    target: SymplecticSpace
    matrix: np.ndarray
    inverse: np.ndarray

    def push_frame(self, frame):
        return lagrangian(self.target, self.matrix @ frame.F)

    def pull_frame(self, frame):
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
        if nr < 1e-3:
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
    if _norm2_exceeds(check - target.J, 1e-9):
        raise ValidationError("standardization drifted", where="standardize")
    return Standardization(space, target, S, np.linalg.inv(S))


# --------------------------------------------------------------------------
# product spaces
# --------------------------------------------------------------------------


def direct_sum_space(a, b):
    """Plain direct sum: J = diag(J_a, J_b), G = diag(G_a, G_b)."""
    J = np.block(
        [
            [a.J, np.zeros((2 * a.n, 2 * b.n))],
            [np.zeros((2 * b.n, 2 * a.n)), b.J],
        ]
    )
    G = np.block(
        [
            [a.G, np.zeros((2 * a.n, 2 * b.n))],
            [np.zeros((2 * b.n, 2 * a.n)), b.G],
        ]
    )
    return SymplecticSpace(n=a.n + b.n, J=J, G=G, tol=a.tol)


def direct_sum_frame(space_sum, fa, fb):
    """blockdiag(F_a, F_b) as a Lagrangian frame of the direct sum."""
    na, nb = fa.space.n, fb.space.n
    M = np.block(
        [
            [fa.F, np.zeros((2 * na, nb))],
            [np.zeros((2 * nb, na)), fb.F],
        ]
    )
    return lagrangian(space_sum, M)


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
    m = 2 * base.n
    z = np.zeros((m, m))
    J = np.block([[base.J, z], [z, -base.J]])
    G = np.block([[base.G, z], [z, base.G]])
    sp = SymplecticSpace(n=2 * base.n, J=J, G=G, tol=base.tol)
    E = base.g_half_inv
    delta = lagrangian(sp, np.vstack([E, E]) / np.sqrt(2.0))
    return BoxSpace(base=base, space=sp, delta=delta)


def box_frame(bs, mu, lam):
    """mu ⊞ lam = blockdiag frame in the box space."""
    _require_same_space(mu.space, bs.base, "box_frame")
    _require_same_space(lam.space, bs.base, "box_frame")
    m = 2 * bs.base.n
    M = np.block(
        [
            [mu.F, np.zeros((m, bs.base.n))],
            [np.zeros((m, bs.base.n)), lam.F],
        ]
    )
    return lagrangian(bs.space, M)


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
    R = realify(U)
    F = R @ horizontal_frame(std.target).F
    return std.pull_frame(lagrangian(std.target, F))
