"""The unitary attached to an ordered pair of Lagrangian subspaces.

A Lagrangian of the standard model with orthonormal frame F = [X; Y] has
the unitary U = X + iY, and its reflection 2P - Id acts on z = x + iy as
the antilinear map z -> U U^T conj(z).  The real operator

    S = (Id - 2 P_mu)(2 P_lam - Id)

is minus the product of two such reflections, so it is complex linear with
the n x n unitary matrix

    W(lam, mu) = -(U_mu U_mu^T) conj(U_lam U_lam^T),

the Souriau map in the form used by Howard, Latushkin and Sukhtayev,
"The Maslov index for Lagrangian pairs on R^{2n}", J. Math. Anal. Appl.
451 (2017).  Its eigenspace at -1 is the complexified intersection
mu ∩ lam, which is what every index in this package counts.

General metrics are first moved onto the standard model by the congruence
from ``standardize``; the returned matrix always refers to the standard
complexification of that model.  ``minus_one_offsets`` reads the spectrum
as signed angles from -1, which is how every count here reads it.  The
reflection product itself and the graph (Cayley) chart, whose unitary
squares to minus the pair unitary against the base, are test oracles.
"""

import numpy as np

from .core import (
    LagrangianFrame,
    _as_matrix,
    _expect,
    _require_same_space,
    _unitary,
    lagrangian,
    realify,
)
from .errors import ValidationError

__all__ = ["souriau", "minus_one_offsets", "lagrangian_from_souriau"]

# Singular values of realify(W) tau_lam + Id at most this count toward its
# real kernel (``lagrangian_from_souriau``).
_KERNEL_SV = 1e-8


def _symmetric_unitaries(frames):
    """U U^T for each U = X + iY of a sequence of standard-model frames,
    as one (k, n, n) stack."""
    F = np.stack([f.F for f in frames])
    n = F.shape[2]
    U = F[:, :n] + 1j * F[:, n:]
    return U @ np.swapaxes(U, 1, 2)


def souriau(lam, mu):
    """Unitary of the ordered pair (lam, mu), or of lam and each frame of a
    sequence mu.

    Computed in closed form on n x n matrices,
    W = -(U_mu U_mu^T) conj(U_lam U_lam^T) with U = X + iY taken from the
    standardized frames (Howard, Latushkin and Sukhtayev, JMAA 451, 2017).
    A single mu is a sequence of one: the products run once on the stack
    of all the mu, and numpy multiplies a stack slice by slice, so each W
    is bitwise the one a call on its mu alone gives.

    Parameters
    ----------
    lam : LagrangianFrame
    mu : LagrangianFrame, or a sequence of k of them
        Frames in the space of lam.  A non-standard metric is converted
        by congruence first.

    Returns
    -------
    (n, n) complex ndarray, or a (k, n, n) stack for a sequence; each
    unitary to (1 + 1e-10)^4 - 1 ~ 4e-10 unchecked: W is a product of
    four U with U^H U - Id within 1e-10.  Key facts (all covered by
    tests): W(lam, J lam) = Id, W(lam, lam) = -Id, the -1-eigenspace is
    the complexified intersection, and W(lam, mu)^H = W(mu, lam).
    """
    single = isinstance(mu, LagrangianFrame)
    mus = (mu,) if single else tuple(mu)
    _expect(LagrangianFrame, "souriau", lam, *mus)
    for m in mus:
        _require_same_space(lam.space, m.space, "souriau")
    W = -_symmetric_unitaries([m._standard for m in mus]) @ np.conj(
        _symmetric_unitaries([lam._standard])[0]
    )
    return W[0] if single else W


def minus_one_offsets(W):
    """Signed angular offsets of the spectrum of a square W from -1."""
    W = _as_matrix(W, "W", "minus_one_offsets", "square", allow_complex=True)
    return np.angle(-np.linalg.eigvals(W))


def lagrangian_from_souriau(lam, W):
    """Invert the pair map: recover mu with souriau(lam, mu) = W.

    mu is the real kernel of (realify(W) tau_lam + Id), which is exactly
    n-dimensional when W is in the image of the pair map for lam.  Its
    basis is the one the SVD picks inside that kernel.  No index calls
    it: it is the reference for the frames ``paths.lagrangian_geodesic``
    writes down.
    """
    n = lam.space.n
    W = _unitary(W, "W", "lagrangian_from_souriau", (n, n))
    std = lam.space.standardization
    lam_s = lam._standard
    A = realify(W) @ lam_s.tau + np.eye(2 * n)
    _, sv, Vt = np.linalg.svd(A)
    if sv[n - 1] <= _KERNEL_SV:
        raise ValidationError(
            "kernel larger than n: not a pair unitary for this base",
            where="lagrangian_from_souriau",
        )
    if sv[n] > _KERNEL_SV:
        raise ValidationError(
            "kernel smaller than n: not symmetric relative to the base",
            where="lagrangian_from_souriau",
        )
    return std.pull_frame(lagrangian(lam_s.space, Vt[n:].T))
