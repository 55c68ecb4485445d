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
from numbers import Real

import numpy as np

from .core import (
    DEFAULT_TOL,
    LagrangianFrame,
    _expect,
    _require_same_space,
    _unitary,
    haar_unitary,
    horizontal_frame,
    intersection_dim,
    random_lagrangian,
    standard_space,
)
from .errors import PreconditionError, ValidationError
from .paths import (
    lagrangian_geodesic,
    maslov,
    to_unitary_path,
    unitary_maslov,
)

__all__ = [
    "SignatureResult",
    "kashiwara",
    "complex_kashiwara",
    "LiftedUnitary",
    "leray",
    "leray_general",
    "connecting_path",
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


# Relative floor below which an eigenvalue of a triple form counts as null.
_SIGNATURE_FLOOR = 1e-8
# Farthest det U may lie from exp(i alpha) for a lifted unitary.
_DET_PHASE = 1e-9
# Smallest sigma_min(Id - U V^H) of a random probe U against either lift V
# that ``leray_general`` draws.
_PROBE_MARGIN = 1e-3


def _signature_of(M):
    # frames are G-orthonormal, so genuine pairings are O(1); the floor
    # keeps roundoff from registering as signs when the form vanishes
    w = np.linalg.eigvalsh(M)
    thresh = _SIGNATURE_FLOOR * max(1.0, np.abs(w).max(initial=0.0))
    p = int(np.count_nonzero(w > thresh))
    q = int(np.count_nonzero(w < -thresh))
    return SignatureResult(positives=p, negatives=q, nulls=len(w) - p - q)


# --------------------------------------------------------------------------
# real triple signature
# --------------------------------------------------------------------------


def kashiwara(f1, f2, f3):
    """Signature of the triple form of three Lagrangian frames.

    Returns a SignatureResult; ``signature`` is antisymmetric under
    transpositions of the arguments, vanishes when two arguments
    coincide, and is invariant under symplectic maps.  Eigenvalues below
    the fixed relative floor ``_SIGNATURE_FLOOR`` count as nulls.
    """
    _expect(LagrangianFrame, "kashiwara", f1, f2, f3)
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
    lam_s = lam._standard
    F = lam_s.F
    J = lam_s.space.J
    Ep = (F - 1j * J @ F) / np.sqrt(2.0)
    Em = (F + 1j * J @ F) / np.sqrt(2.0)
    return np.linalg.qr(Ep - Em @ np.conj(U))[0]


def complex_kashiwara(u1, u2, u3, lam=None):
    """Hermitian triple signature of three unitaries via their graphs.

    ``lam`` is the reference Lagrangian used to build the graphs (default:
    standard horizontal of matching size); the signature does not depend
    on it.  On triples coming from the pair map the signature equals the
    real Kashiwara signature of the underlying Lagrangians.
    """
    mats = [_unitary(u1, "u1", "complex_kashiwara")]
    for u, name in ((u2, "u2"), (u3, "u3")):
        mats.append(_unitary(u, name, "complex_kashiwara", mats[0].shape))
    n = len(mats[0])
    if lam is None:
        lam = horizontal_frame(standard_space(n))
    elif lam.space.n != n:
        raise ValidationError(
            "reference dimension mismatch", where="complex_kashiwara"
        )
    frames = [_graph_frame(lam, U) for U in mats]
    gram = lam._standard.space.gram
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
        U = _unitary(self.U, "U", "LiftedUnitary")
        # an alpha that is not a number fails the check as NaN does
        alpha = float(self.alpha) if isinstance(self.alpha, Real) else np.nan
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "alpha", alpha)
        if not abs(np.linalg.det(U) - np.exp(1j * alpha)) <= _DET_PHASE:
            raise ValidationError(
                "alpha is not a determinant phase", where="LiftedUnitary"
            )


def _check_lifts(lifts, where):
    """ValidationError at ``where`` unless ``lifts`` are LiftedUnitary of
    one size."""
    if not all(isinstance(lift, LiftedUnitary) for lift in lifts):
        raise ValidationError("expected LiftedUnitary inputs", where=where)
    if len({lift.U.shape for lift in lifts}) > 1:
        raise ValidationError("size mismatch", where=where)


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
    _check_lifts((l1, l2), "leray")
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
    are tried; failure raises PreconditionError.  ValidationError "size
    mismatch" when the lifts, or a lifted probe, differ in size.
    """
    _check_lifts((l1, l2), "leray_general")
    if probe is None:
        rng = np.random.default_rng(seed)
        n = l1.U.shape[0]
        for _ in range(20):
            U = haar_unitary(n, rng)
            if (
                _transversality_margin(U, l1.U) > _PROBE_MARGIN
                and _transversality_margin(U, l2.U) > _PROBE_MARGIN
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
            U = _unitary(probe, "probe", "leray_general", l1.U.shape)
            probe = LiftedUnitary(
                U=U, alpha=float(np.angle(np.linalg.det(U)))
            )
        _check_lifts((l1, probe), "leray_general")
        for other, name in ((l1, "l1"), (l2, "l2")):
            if _transversality_margin(probe.U, other.U) <= tol.transversal:
                raise PreconditionError(
                    f"probe not transversal to {name}", where="leray_general"
                )
    sig = complex_kashiwara(l1.U, l2.U, probe.U).signature
    return float(
        leray(probe, l2, tol) - leray(probe, l1, tol) - 0.5 * sig
    )


# --------------------------------------------------------------------------
# Hormander index
# --------------------------------------------------------------------------


def connecting_path(ell0, ell1, seed=0, tol=DEFAULT_TOL):
    """Lagrangian path from ell0 to ell1 (standard-model coordinates).

    Its pair unitaries against the horizontal reference are the principal
    geodesic from those of ell0 to those of ell1 (``lagrangian_geodesic``,
    9 grid times), which counts on the geodesic with no frame formed.
    When the direct geodesic hits the logarithm cut it is routed through a
    random intermediate at t = 1/2 (17 grid times, up to 20 seeded
    retries).
    """
    _require_same_space(ell0.space, ell1.space, "connecting_path")
    e0, e1 = ell0._standard, ell1._standard
    model = e0.space
    try:
        return lagrangian_geodesic(
            [0.0, 1.0], [e0, e1], np.linspace(0.0, 1.0, 9), tol
        )
    except PreconditionError:
        pass
    rng = np.random.default_rng(seed)
    for _ in range(20):
        em = random_lagrangian(model, rng)
        try:
            return lagrangian_geodesic(
                [0.0, 0.5, 1.0], [e0, em, e1], np.linspace(0.0, 1.0, 17), tol
            )
        except PreconditionError:
            continue
    raise PreconditionError(
        "could not synthesize a connecting path clear of the logarithm cut",
        where="connecting_path",
    )


def hormander(ell0, ell1, lam, mu, seed=0, tol=DEFAULT_TOL):
    """sigma(ell0, ell1; lam, mu) = Mas(c, lam) - Mas(c, mu).

    Path-independent: any path from ell0 to ell1 gives the same integer.
    """
    _expect(LagrangianFrame, "hormander", ell0, ell1, lam, mu)
    for f in (ell1, lam, mu):
        _require_same_space(ell0.space, f.space, "hormander")
    path = connecting_path(ell0, ell1, seed=seed, tol=tol)
    a = maslov(path, lam._standard, tol).value
    b = maslov(path, mu._standard, tol).value
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
    adds, over the pieces [t_j, t_{j+1}] of the partition of the count of
    the pair unitaries (``unitary_maslov`` of ``to_unitary_path``), the
    sum of the principal arguments of the eigenvalues of
    U_{t_j}^H U_{t_{j+1}}, read off the unitaries the count read.  A piece
    has arc radius at most pi - EPS_CAP, so -1 never enters that spectrum
    along the piece and the sum is the exact increment of the continuous
    phase.
    """
    report = unitary_maslov(to_unitary_path(path, lam), tol)
    ts, mats = report.partition.tolist(), report._reads.mats
    alpha0 = float(np.angle(np.linalg.det(mats[ts[0]])))
    alpha1 = alpha0 + sum(
        float(np.sum(np.angle(np.linalg.eigvals(mats[a].conj().T @ mats[b]))))
        for a, b in zip(ts[:-1], ts[1:])
    )
    return (
        LiftedUnitary(U=mats[ts[0]], alpha=alpha0),
        LiftedUnitary(U=mats[ts[-1]], alpha=alpha1),
    )
