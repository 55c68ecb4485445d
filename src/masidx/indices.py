"""Signature indices of Lagrangian tuples and difference indices of pairs.

* kashiwara: signature of the triple form
      Q(x1, x2, x3) = omega(x1, x2) + omega(x2, x3) + omega(x3, x1)
  on the direct sum of three Lagrangians.
* complex_kashiwara: Hermitian counterpart on complexified graphs; its
  signature coincides with the real one on Souriau triples and is
  independent of the reference used to build the graphs.
* leray: half-integer index of a transversal pair of lifted unitaries,
      (alpha1 - alpha2 - sum of principal args of -U1 U2^H) / (2 pi);
  leray_general extends it through a probe and the triple signature.
* hormander: integer difference index sigma(l0, l1; lam, mu)
  = Mas(c, lam) - Mas(c, mu) along a synthesized connecting path.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    _norm2_exceeds,
    _require_same_space,
    haar_unitary,
    horizontal_frame,
    intersection_dim,
    random_lagrangian,
    standard_space,
)
from .errors import PreconditionError, ValidationError
from .paths import (
    _pair_partition,
    catenate,
    lagrangian_path_from_function,
    maslov,
    unitary_geodesic,
)
from .souriau import lagrangian_from_souriau, souriau

__all__ = [
    "SignatureResult",
    "kashiwara",
    "complex_kashiwara",
    "LiftedUnitary",
    "leray",
    "leray_general",
    "hormander",
    "transition_function",
    "lift_path_endpoints",
]


@dataclass(frozen=True)
class SignatureResult:
    positives: int
    negatives: int
    nulls: int

    @property
    def signature(self):
        return self.positives - self.negatives


def _signature_of(M, rel_tol=1e-8):
    # frames are G-orthonormal, so genuine pairings are O(1); the floor
    # keeps roundoff from registering as signs when the form vanishes
    w = np.linalg.eigvalsh(M)
    thresh = rel_tol * max(1.0, np.abs(w).max(initial=0.0))
    p = int(np.count_nonzero(w > thresh))
    q = int(np.count_nonzero(w < -thresh))
    return SignatureResult(positives=p, negatives=q, nulls=len(w) - p - q)


# --------------------------------------------------------------------------
# real triple signature
# --------------------------------------------------------------------------


def kashiwara(f1, f2, f3, tol=DEFAULT_TOL):
    """Signature of the triple form of three Lagrangian frames.

    Returns a SignatureResult; ``signature`` is antisymmetric under
    transpositions of the arguments, vanishes when two arguments
    coincide, and is invariant under symplectic maps.
    """
    _require_same_space(f1.space, f2.space, "kashiwara")
    _require_same_space(f1.space, f3.space, "kashiwara")
    gram = f1.space.gram
    n = f1.space.n
    W12 = f1.F.T @ gram @ f2.F
    W23 = f2.F.T @ gram @ f3.F
    W31 = f3.F.T @ gram @ f1.F
    z = np.zeros((n, n))
    M = 0.5 * np.block(
        [
            [z, W12, W31.T],
            [W12.T, z, W23],
            [W31, W23.T, z],
        ]
    )
    return _signature_of(M)


# --------------------------------------------------------------------------
# complex (Hermitian) triple signature
# --------------------------------------------------------------------------


def _graph_frame(lam, U):
    """Complexified graph of the unitary over the reference Lagrangian.

    Basis e^+_j = (f_j - i J f_j)/sqrt2, e^-_j = (f_j + i J f_j)/sqrt2;
    the graph spans the columns of E+ - E- conj(U).  Returned orthonormal,
    in standard-model coordinates.
    """
    std = lam.space.standardization
    lam_s = lam if lam.space.is_standard else std.push_frame(lam)
    F = lam_s.F
    J = lam_s.space.J
    Ep = (F - 1j * J @ F) / np.sqrt(2.0)
    Em = (F + 1j * J @ F) / np.sqrt(2.0)
    L = Ep - Em @ np.conj(U)
    Q, _ = np.linalg.qr(L)
    return Q, lam_s.space.gram


def _check_unitary(U, where, tol=1e-9):
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValidationError("expected a square matrix", where=where)
    if _norm2_exceeds(U.conj().T @ U - np.eye(U.shape[0]), tol):
        raise ValidationError("matrix not unitary", where=where)
    return U


def complex_kashiwara(u1, u2, u3, lam=None, tol=DEFAULT_TOL):
    """Hermitian triple signature of three unitaries via their graphs.

    ``lam`` is the reference Lagrangian used to build the graphs (default:
    standard horizontal of matching size); the signature does not depend
    on it.  On triples coming from the pair map the signature equals the
    real Kashiwara signature of the underlying Lagrangians.
    """
    mats = [_check_unitary(u, "complex_kashiwara") for u in (u1, u2, u3)]
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise ValidationError("size mismatch", where="complex_kashiwara")
    if lam is None:
        lam = horizontal_frame(standard_space(n))
    elif lam.space.n != n:
        raise ValidationError(
            "reference dimension mismatch", where="complex_kashiwara"
        )
    frames = [_graph_frame(lam, U)[0] for U in mats]
    gram = _graph_frame(lam, mats[0])[1]
    B = {
        (i, j): frames[i].conj().T @ gram @ frames[j]
        for i in range(3)
        for j in range(3)
        if i != j
    }
    z = np.zeros((n, n), dtype=complex)
    M = 0.5 * np.block(
        [
            [z, B[(0, 1)], -B[(0, 2)]],
            [-B[(1, 0)], z, B[(1, 2)]],
            [B[(2, 0)], -B[(2, 1)], z],
        ]
    )
    return _signature_of(M)


# --------------------------------------------------------------------------
# Leray index of lifted pairs
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LiftedUnitary:
    """Unitary with a chosen continuous determinant phase."""

    U: np.ndarray
    alpha: float

    def __post_init__(self):
        U = _check_unitary(self.U, "LiftedUnitary")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "alpha", float(self.alpha))
        if abs(np.linalg.det(U) - np.exp(1j * self.alpha)) > 1e-9:
            raise ValidationError(
                "alpha is not a determinant phase", where="LiftedUnitary"
            )


def _transversality_margin(U1, U2):
    n = U1.shape[0]
    return np.linalg.svd(
        np.eye(n) - U1 @ U2.conj().T, compute_uv=False
    ).min()


def leray(l1, l2, tol=DEFAULT_TOL):
    """Index of a transversal pair of lifted unitaries.

    value = (alpha1 - alpha2 - sum Arg eig(-U1 U2^H)) / (2 pi).

    Antisymmetric under swapping the lifts; half-integer when both come
    from the pair map.  PreconditionError when an eigenvalue of -U1 U2^H
    sits on the negative-real branch cut (non-transversal pair).
    """
    if not isinstance(l1, LiftedUnitary) or not isinstance(l2, LiftedUnitary):
        raise ValidationError("expected LiftedUnitary inputs", where="leray")
    if l1.U.shape != l2.U.shape:
        raise ValidationError("size mismatch", where="leray")
    if _transversality_margin(l1.U, l2.U) <= tol.transversal:
        raise PreconditionError(
            "pair not transversal: eigenvalue of -U1 U2^H on the "
            "negative-real branch cut",
            where="leray",
        )
    args = np.angle(np.linalg.eigvals(-l1.U @ l2.U.conj().T))
    return float((l1.alpha - l2.alpha - args.sum()) / (2.0 * np.pi))


def leray_general(l1, l2, probe=None, seed=0, tol=DEFAULT_TOL):
    """Leray index through a probe, defined for any pair of lifts.

    value = leray(probe, l2) - leray(probe, l1)
            - (1/2) complex_kashiwara(U1, U2, U_probe).signature

    Independent of the admissible probe; reduces to ``leray`` on
    transversal pairs.  Without an explicit probe, 20 seeded random draws
    are tried; failure raises PreconditionError.
    """
    if probe is None:
        rng = np.random.default_rng(seed)
        n = l1.U.shape[0]
        for _ in range(20):
            U = haar_unitary(n, rng)
            if (
                _transversality_margin(U, l1.U) > 1e-3
                and _transversality_margin(U, l2.U) > 1e-3
            ):
                probe = LiftedUnitary(
                    U=U, alpha=float(np.angle(np.linalg.det(U)))
                )
                break
        else:
            raise PreconditionError(
                "no admissible probe found in 20 draws", where="leray_general"
            )
    else:
        if not isinstance(probe, LiftedUnitary):
            # the probe's lift cancels between the two terms, so a bare
            # unitary is enough; use its principal determinant phase
            U = np.asarray(probe, dtype=complex)
            probe = LiftedUnitary(
                U=U, alpha=float(np.angle(np.linalg.det(U)))
            )
        for other, name in ((l1, "l1"), (l2, "l2")):
            if _transversality_margin(probe.U, other.U) <= tol.transversal:
                raise PreconditionError(
                    f"probe not transversal to {name}", where="leray_general"
                )
    sig = complex_kashiwara(l1.U, l2.U, probe.U, tol=tol).signature
    return float(
        leray(probe, l2, tol) - leray(probe, l1, tol) - 0.5 * sig
    )


# --------------------------------------------------------------------------
# Hormander index
# --------------------------------------------------------------------------


def _souriau_segment(ref, w0, w1, tol):
    """Path of symmetric unitaries w0 -> w1 along the principal geodesic.

    Sampled at 9 points, which ``hormander`` counts on; None at the
    logarithm cut.
    """
    geodesic = unitary_geodesic(w0, w1, tol)
    if geodesic is None:
        return None
    return lagrangian_path_from_function(
        lambda t: lagrangian_from_souriau(ref, geodesic(t)), num=9
    )


def connecting_path(ell0, ell1, seed=0, tol=DEFAULT_TOL):
    """Lagrangian path from ell0 to ell1 (standard-model coordinates).

    Synthesized through the pair map against the horizontal reference;
    when the direct geodesic hits the logarithm cut the path is routed
    through a random intermediate (up to 20 seeded retries).
    """
    _require_same_space(ell0.space, ell1.space, "connecting_path")
    std = ell0.space.standardization
    e0 = ell0 if ell0.space.is_standard else std.push_frame(ell0)
    e1 = ell1 if ell1.space.is_standard else std.push_frame(ell1)
    model = e0.space
    ref = horizontal_frame(model)
    w0, w1 = souriau(ref, e0), souriau(ref, e1)
    direct = _souriau_segment(ref, w0, w1, tol)
    if direct is not None:
        return direct
    rng = np.random.default_rng(seed)
    for _ in range(20):
        mid = random_lagrangian(model, rng)
        wm = souriau(ref, mid)
        first = _souriau_segment(ref, w0, wm, tol)
        second = _souriau_segment(ref, wm, w1, tol)
        if first is not None and second is not None:
            return catenate(first, second)
    raise PreconditionError(
        "could not synthesize a connecting path clear of the logarithm cut",
        where="connecting_path",
    )


def hormander(ell0, ell1, lam, mu, seed=0, tol=DEFAULT_TOL):
    """sigma(ell0, ell1; lam, mu) = Mas(c, lam) - Mas(c, mu).

    Path-independent: any path from ell0 to ell1 gives the same integer.
    """
    for f in (ell1, lam, mu):
        _require_same_space(ell0.space, f.space, "hormander")
    path = connecting_path(ell0, ell1, seed=seed, tol=tol)
    std = ell0.space.standardization
    lam_s = lam if lam.space.is_standard else std.push_frame(lam)
    mu_s = mu if mu.space.is_standard else std.push_frame(mu)
    a = maslov(path, lam_s, tol).value
    b = maslov(path, mu_s, tol).value
    return int(a - b)


def transition_function(nu, lam, mu, ell_ref, seed=0, tol=DEFAULT_TOL):
    """Chart-change integer g_{lam,mu}(nu) = sigma(ell_ref^perp, nu; lam, mu).

    Requires nu transversal to both lam and mu.
    """
    for name, f in (("lam", lam), ("mu", mu)):
        if intersection_dim(nu, f) != 0:
            raise PreconditionError(
                f"nu must be transversal to {name}",
                where="transition_function",
            )
    return hormander(ell_ref.j_image(), nu, lam, mu, seed=seed, tol=tol)


# --------------------------------------------------------------------------
# lifting a Lagrangian path
# --------------------------------------------------------------------------


def lift_path_endpoints(path, lam, tol=DEFAULT_TOL):
    """Continuous determinant-phase lifts of the pair unitaries at t=0, 1.

    The start lift takes the principal determinant phase.  The end lift
    adds, over the pieces [t_j, t_{j+1}] of the counting partition
    (``paths._pair_partition``), the sum of the principal arguments of
    the eigenvalues of U_{t_j}^H U_{t_{j+1}}.  A piece has arc radius at
    most pi - EPS_CAP, so -1 never enters that spectrum along the piece
    and the sum is the exact increment of the continuous phase.
    """
    _, ts, mats, _ = _pair_partition(path, lam, tol)
    alpha0 = float(np.angle(np.linalg.det(mats[ts[0]])))
    alpha1 = alpha0 + sum(
        float(np.sum(np.angle(np.linalg.eigvals(mats[a].conj().T @ mats[b]))))
        for a, b in zip(ts[:-1], ts[1:])
    )
    return (
        LiftedUnitary(U=mats[ts[0]], alpha=alpha0),
        LiftedUnitary(U=mats[ts[-1]], alpha=alpha1),
    )
