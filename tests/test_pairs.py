"""Boxed pairs, direct-sum embedding, and polarized reduction."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm, null_space

from masidx import (
    DEFAULT_TOL,
    AmbiguityError,
    ValidationError,
    box,
    catenate,
    cli,
    direct_sum_frame,
    direct_sum_space,
    embed_path,
    embed_reference,
    find_crossings,
    crossing_form,
    gamma_reduce,
    gamma_reduce_path,
    haar_unitary,
    hormander,
    horizontal_frame,
    intersection_dim,
    lagrangian,
    lagrangian_path,
    lagrangian_path_from_function,
    maslov,
    pair_maslov,
    pairs,
    polarized_pair,
    random_lagrangian,
    random_symmetric,
    realify,
    reverse,
    souriau,
    standard_space,
    vertical_frame,
)
from conftest import (
    random_spinner,
    random_structure_space,
    random_unitary_curve,
    rotating_block_loop,
    spinner_expected,
    spinner_path,
    transversal_pair,
)
from oracles import boxed_pair_maslov, kernel_reduce, same_span

SP2 = standard_space(2)
SP3 = standard_space(3)


def coordinate_pair(n, scales):
    """Matched coordinate polarizations with i_plus = diag(scales)."""
    B, H = standard_space(n), standard_space(n)
    return polarized_pair(
        vertical_frame(B),
        horizontal_frame(B),
        vertical_frame(H),
        horizontal_frame(H),
        np.asarray(scales, dtype=float),
    )


# --------------------------------------------------------------------------
# boxed pairs


def test_box_intersection_tracks_the_pair(rng):
    h, v = horizontal_frame(SP3), vertical_frame(SP3)
    bs, fr = box(h, h)
    assert intersection_dim(fr, bs.delta) == 3
    _, fr = box(h, v)
    assert intersection_dim(fr, bs.delta) == 0
    for _ in range(10):
        a = random_lagrangian(SP3, rng)
        b = random_lagrangian(SP3, rng)
        _, fr = box(a, b)
        assert intersection_dim(fr, bs.delta) == intersection_dim(a, b)


def test_pair_with_constant_leg_is_the_plain_index(rng):
    for _ in range(6):
        path, ref, expected = random_spinner(SP2, rng)
        const = lagrangian_path(
            [(0.0, ref), (1.0, ref)], refiner=lambda t: ref
        )
        assert pair_maslov(path, const).value == expected


def test_pair_swap_changes_the_sign(rng):
    done = 0
    while done < 4:
        mu_path, _, _ = random_spinner(SP2, rng)
        lam_path, _, _ = random_spinner(SP2, rng)
        clear = True
        for t in (0.0, 1.0):
            off = np.abs(
                np.angle(
                    -np.linalg.eigvals(
                        souriau(lam_path.at(t), mu_path.at(t))
                    )
                )
            )
            clear = clear and off.min() > 0.05
        if not clear:
            continue
        done += 1
        fwd = pair_maslov(mu_path, lam_path).value
        assert pair_maslov(lam_path, mu_path).value == -fwd


def test_pair_of_constants_is_zero(rng):
    a = random_lagrangian(SP2, rng)
    b = random_lagrangian(SP2, rng)
    pa = lagrangian_path([(0.0, a), (1.0, a)], refiner=lambda t: a)
    pb = lagrangian_path([(0.0, b), (1.0, b)], refiner=lambda t: b)
    assert pair_maslov(pa, pb).value == 0
    # both legs equal and moving: the boxed path rides the diagonal
    path, _, _ = random_spinner(SP2, rng)
    assert pair_maslov(path, path).value == 0


def test_pair_time_grids_need_refiners(rng):
    a = random_lagrangian(SP2, rng)
    b = random_lagrangian(SP2, rng)
    pa = lagrangian_path([(0.0, a), (0.5, a), (1.0, a)])
    pb = lagrangian_path([(0.0, b), (0.37, b), (1.0, b)])
    with pytest.raises(AmbiguityError):
        pair_maslov(pa, pb)


def turned_spinner_pair(n, rng, meet, nums):
    """A pair path (mu, lam) whose pair unitary has the eigenphases of a
    random spinner, and that spinner's closed-form index.

    Both legs are turned by the same moving unitary g_t = V exp(i s t) V^H
    of the standard model, which conjugates the pair unitary, so the
    spectrum stays the spinner's.  ``meet`` lists the ends (0 or 1) where
    one eigenphase sits on -1, so that the legs meet there; ``nums`` are
    the sample counts of the two legs.
    """
    sp = standard_space(n)
    rates = rng.uniform(0.3, 2.5, n) * rng.choice([-1.0, 1.0], n)
    phases = rng.uniform(-np.pi, np.pi, n)
    if 0 in meet:
        phases[0] = np.pi
    if 1 in meet:
        k = n - 1
        if k == 0 and 0 in meet:
            # one eigenphase on -1 at both ends: a whole turn
            rates[0] = 2.0 * np.sign(rates[0])
        phases[k] = np.pi - np.pi * rates[k]
    spin, ref = spinner_path(sp, phases, rates, rng=rng, num=nums[0])
    V, s = haar_unitary(n, rng), rng.uniform(-2.0, 2.0, n)

    def g(t):
        return realify((V * np.exp(1j * s * t)) @ V.conj().T)

    mu = lagrangian_path_from_function(
        lambda t: lagrangian(sp, g(t) @ spin.refiner(t).F), num=nums[0]
    )
    lam = lagrangian_path_from_function(
        lambda t: lagrangian(sp, g(t) @ ref.F), num=nums[1]
    )
    return mu, lam, spinner_expected(phases, rates)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pair_index_is_the_boxed_count(n, rng):
    meets = [(), (0,), (1,), (0, 1)]
    grids = [(9, 9), (5, 9), (17, 7), (3, 13)]
    for meet, nums in zip(meets, grids):
        mu, lam, expected = turned_spinner_pair(n, rng, meet, nums)
        assert pair_maslov(mu, lam).value == boxed_pair_maslov(mu, lam)
        assert pair_maslov(mu, lam).value == expected, (meet, nums)
    # mixed legs: the CLI's geodesic interpolation of a spinner's nodes,
    # which is that spinner, against a constant leg sampled at other times
    # with a refiner; each order takes its reference from its mu leg
    phases = rng.uniform(-np.pi, np.pi, n)
    rates = rng.uniform(0.3, 2.5, n) * rng.choice([-1.0, 1.0], n)
    spin, ref = spinner_path(standard_space(n), phases, rates, rng=rng,
                             num=9)
    ts, frames = (list(x) for x in zip(*spin.samples))
    geo = cli._lagrangian_path(ts, frames, 2, DEFAULT_TOL)
    fixed = lagrangian_path_from_function(lambda t: ref, num=7)
    value = pair_maslov(geo, fixed).value
    assert value == boxed_pair_maslov(geo, fixed)
    assert value == spinner_expected(phases, rates)
    assert pair_maslov(fixed, geo).value == boxed_pair_maslov(fixed, geo)


def test_pair_index_builds_no_box_frames(rng, monkeypatch):
    from masidx import core, pairs

    def refuse(*args):
        raise AssertionError("pair_maslov built a box frame")

    for module in (core, pairs):
        monkeypatch.setattr(module, "box_frame", refuse)
        monkeypatch.setattr(module, "box_space", refuse)
    mu, lam, expected = turned_spinner_pair(3, rng, (0,), (9, 5))
    assert pair_maslov(mu, lam).value == expected


# --------------------------------------------------------------------------
# embedding into a larger space


def test_embedding_preserves_the_index(rng):
    sp1 = standard_space(2)  # dim H1 = 4
    ell1 = random_lagrangian(sp1, rng)
    for _ in range(5):
        path, ell0, expected = random_spinner(SP2, rng)
        lifted = embed_path(path, ell0, ell1)
        ref = embed_reference(ell0, ell1)
        assert maslov(lifted, ref).value == expected == maslov(path, ell0).value


def test_embedded_block_loop(rng):
    ell1 = random_lagrangian(standard_space(2), rng)
    for k in (1, 2):
        loop = rotating_block_loop(SP2, k)
        ell0 = horizontal_frame(SP2)
        lifted = embed_path(loop, ell0, ell1)
        assert maslov(lifted, embed_reference(ell0, ell1)).value == k


def test_embedded_constant_is_zero(rng):
    a = random_lagrangian(SP2, rng)
    const = lagrangian_path([(0.0, a), (1.0, a)], refiner=lambda t: a)
    ell0 = horizontal_frame(SP2)
    ell1 = random_lagrangian(standard_space(1), rng)
    lifted = embed_path(const, ell0, ell1)
    assert maslov(lifted, embed_reference(ell0, ell1)).value == 0


def test_difference_index_pulls_back(rng):
    sp0, sp1 = standard_space(2), standard_space(1)
    big = direct_sum_space(sp0, sp1)
    for _ in range(5):
        l0, th, lam, mu = (random_lagrangian(sp0, rng) for _ in range(4))
        l1 = random_lagrangian(sp1, rng)
        lhs = hormander(l0.j_image(), th, lam, mu)
        rhs = hormander(
            direct_sum_frame(big, l0, l1).j_image(),
            direct_sum_frame(big, th, l1.j_image()),
            direct_sum_frame(big, lam, l1),
            direct_sum_frame(big, mu, l1),
        )
        assert lhs == rhs


def test_embedding_requires_standard_structures(rng):
    from conftest import random_structure_space

    sp = random_structure_space(1, rng)
    fr = random_lagrangian(sp, rng)
    crooked = lagrangian_path([(0.0, fr), (1.0, fr)], refiner=lambda t: fr)
    with pytest.raises(ValidationError):
        embed_path(crooked, fr, horizontal_frame(standard_space(1)))


# --------------------------------------------------------------------------
# polarized pairs


def test_polarized_pair_validation():
    B, H = standard_space(2), standard_space(1)
    with pytest.raises(ValidationError):
        polarized_pair(
            vertical_frame(B),
            horizontal_frame(B),
            vertical_frame(H),
            horizontal_frame(H),
            np.array([1.0]),
        )
    B2 = standard_space(2)
    with pytest.raises(ValidationError):
        polarized_pair(
            vertical_frame(B2),
            vertical_frame(B2),  # not complementary
            vertical_frame(B2),
            horizontal_frame(B2),
            np.ones(2),
        )
    with pytest.raises(ValidationError):
        coordinate_pair(2, [1.0, -2.0])
    with pytest.raises(ValidationError):
        coordinate_pair(2, [1.0, 2.0, 3.0])


def test_minus_map_mirrors_the_diagonal():
    s = np.array([2.0, 0.5, 1.3])
    pp = coordinate_pair(3, s)
    np.testing.assert_allclose(pp.i_plus, np.diag(s), atol=1e-12)
    np.testing.assert_allclose(pp.i_minus, np.diag(s), atol=1e-10)


def test_identity_maps_reduce_to_identity(rng):
    pp = coordinate_pair(2, np.ones(2))
    for _ in range(5):
        mu = random_lagrangian(SP2, rng)
        assert same_span(gamma_reduce(pp, mu), mu)


def test_polarization_factors_map_to_their_mates():
    pp = coordinate_pair(3, [2.0, 0.5, 1.3])
    assert same_span(gamma_reduce(pp, pp.lam_plus), pp.ell_plus)
    assert same_span(gamma_reduce(pp, pp.lam_minus), pp.ell_minus)


def test_graphs_reduce_to_rescaled_graphs(rng):
    pp = coordinate_pair(3, [2.0, 0.5, 1.3])
    B, H = pp.big, pp.small
    for _ in range(6):
        Phi = random_symmetric(3, rng)
        mu = lagrangian(B, pp.lam_plus.F + pp.lam_minus.F @ Phi)
        red = gamma_reduce(pp, mu)
        want = lagrangian(
            H, pp.ell_plus.F + pp.ell_minus.F @ (pp.i_minus @ Phi @ pp.i_plus)
        )
        assert same_span(red, want)


def test_reduction_depends_on_the_span_only(rng):
    """Two bases of mu reduce to one span.  The reduced frame is Gamma F_mu
    G-orthonormalized, so it follows the basis of mu and differs between
    the two; only its projector is compared."""
    pp = coordinate_pair(2, [0.7, 1.6])
    for _ in range(6):
        mu = random_lagrangian(SP2, rng)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        other = lagrangian(SP2, mu.F @ Q)
        a, b = gamma_reduce(pp, mu), gamma_reduce(pp, other)
        np.testing.assert_allclose(a.P, b.P, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scales", [[0.7, 1.6], [1e3, 1e-3]])
@pytest.mark.parametrize("general", [False, True])
def test_reduction_is_the_kernel_problem(scales, general, rng):
    """Gamma F_mu spans the reduction of the definition, solved as a
    kernel problem (``oracles.kernel_reduce``), also for an injection of
    condition number 1e6 and a general small space."""
    B = standard_space(2)
    if general:
        H = random_structure_space(2, rng)
        ell_plus, ell_minus = (random_lagrangian(H, rng) for _ in range(2))
    else:
        H = standard_space(2)
        ell_plus, ell_minus = vertical_frame(H), horizontal_frame(H)
    pp = polarized_pair(
        vertical_frame(B), horizontal_frame(B), ell_plus, ell_minus, scales
    )
    for _ in range(10):
        mu = random_lagrangian(B, rng)
        np.testing.assert_allclose(
            gamma_reduce(pp, mu).P, kernel_reduce(pp, mu).P, rtol=0, atol=1e-12
        )


def test_new_polarization_rank_arithmetic(rng):
    """Splitting the minus factor splits the plus factor through the
    annihilators: matching dimensions, joint spanning, and the annihilator
    of one symplectic half being the other."""
    n = 3
    sp = standard_space(n)
    S = np.eye(2 * n)[:, [0]]
    T = np.eye(2 * n)[:, [1, 2]]
    lam_plus = np.eye(2 * n)[:, [3, 4, 5]]
    W = rng.standard_normal((2 * n, 2 * n))
    M = expm(sp.J @ (W + W.T))  # symplectic, moves everything
    S, T, lam_plus = M @ S, M @ T, M @ lam_plus

    def annihilator(V):
        _, _, vt = np.linalg.svd(V.T @ sp.gram)
        return vt[np.linalg.matrix_rank(V) :].T

    F = _meet(annihilator(T), lam_plus)
    G = _meet(annihilator(S), lam_plus)
    assert F.shape[1] == S.shape[1]
    assert G.shape[1] == T.shape[1]
    assert np.linalg.matrix_rank(np.hstack([S, F, T, G]), tol=1e-8) == 2 * n
    assert same_span(annihilator(np.hstack([S, F])), np.hstack([T, G]))
    assert same_span(annihilator(np.hstack([T, G])), np.hstack([S, F]))


def _meet(A, B):
    """Basis of span(A) ∩ span(B)."""
    ns = null_space(np.hstack([A, -B]), rcond=1e-9)
    if ns.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    basis = A @ ns[: A.shape[1]]
    q, _ = np.linalg.qr(basis)
    return q[:, : np.linalg.matrix_rank(basis, tol=1e-9)]


# --------------------------------------------------------------------------
# the reduction theorem, step by step


def test_reduction_preserves_transversal_paths(rng):
    """A path of graphs over the plus factor never meets the minus factor,
    and neither does its reduction: both indices vanish with no crossings."""
    pp = coordinate_pair(3, [2.0, 0.5, 1.3])
    B = pp.big
    P0, P1, P2 = (random_symmetric(3, rng) for _ in range(3))

    def frame_at(t):
        Phi = P0 + t * P1 + np.sin(np.pi * t) * P2
        return lagrangian(B, pp.lam_plus.F + pp.lam_minus.F @ Phi)

    path = lagrangian_path_from_function(frame_at, num=33)
    reduced = gamma_reduce_path(pp, path)
    assert find_crossings(path, pp.lam_minus) == []
    assert find_crossings(reduced, pp.ell_minus) == []
    assert maslov(path, pp.lam_minus).value == 0
    assert maslov(reduced, pp.ell_minus).value == 0


def test_reduction_march_evaluates_each_time_once():
    """The march steps from the frame it has just reduced: one refiner
    call per marched time, plus the midpoint probes of the rate estimate."""
    pp = coordinate_pair(2, [2.0, 0.5])
    base, _ = spinner_path(pp.big, [0.3, -1.0], [1.5, -1.2], num=5)
    calls = []

    def refiner(t):
        calls.append(t)
        return base.refiner(t)

    reduced = gamma_reduce_path(pp, lagrangian_path(base.samples, refiner))
    probes = len(base.samples) - 1
    assert len(calls) == len(reduced.samples) + probes
    assert calls[probes:] == [t for t, _ in reduced.samples]


def test_reduction_of_a_single_direction_loop():
    """Rotating one plus direction through the minus factor: the reduced
    path follows the rescaled rotation, crosses once at the half turn with
    a positive-definite form, and both indices are 1."""
    n = 2
    s = np.array([2.0, 0.5])
    pp = coordinate_pair(n, s)
    B, H = pp.big, pp.small
    e = np.eye(2 * n)

    def big_at(t):
        M = np.zeros((2 * n, n))
        M[:, 0] = np.cos(np.pi * t) * e[:, n] + np.sin(np.pi * t) * (
            B.J @ e[:, n]
        )
        M[:, 1] = e[:, n + 1]
        return lagrangian(B, M)

    path = lagrangian_path_from_function(big_at, num=33)
    reduced = gamma_reduce_path(pp, path)

    # the reduced motion is the same rotation with the square of the scale
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        M = np.zeros((2 * n, n))
        M[:, 0] = (
            np.cos(np.pi * t) * e[:, n]
            - s[0] ** 2 * np.sin(np.pi * t) * e[:, 0]
        )
        M[:, 1] = e[:, n + 1]
        assert same_span(reduced.at(t), lagrangian(H, M))

    ts = find_crossings(reduced, pp.ell_minus)
    assert len(ts) == 1 and abs(ts[0] - 0.5) < 1e-8
    c = crossing_form(reduced, pp.ell_minus, ts[0])
    assert c.dim == 1
    assert c.signature == (1, 0)
    # rotation rate at the crossing is pi / s^2 in the unit kernel basis
    np.testing.assert_allclose(c.form, np.pi / s[0] ** 2, atol=1e-5)
    assert maslov(path, pp.lam_minus).value == 1
    assert maslov(reduced, pp.ell_minus).value == 1


def test_reduction_of_a_deep_intersection_loop():
    """A loop whose midpoint meets the minus factor in dimension N reduces
    to a loop with the same crossing dimension and index N."""
    n, N = 3, 2
    pp = coordinate_pair(n, [2.0, 0.5, 1.3])
    loop = rotating_block_loop(pp.big, N)
    # the rotating block starts on the plus factor: gamma follows it
    reduced = gamma_reduce_path(pp, loop)
    mid = reduced.at(0.5)
    assert intersection_dim(mid, pp.ell_minus) == N
    ts = find_crossings(reduced, pp.ell_minus)
    assert len(ts) == 1
    c = crossing_form(reduced, pp.ell_minus, ts[0])
    assert c.dim == N
    assert c.signature == (N, 0)
    assert maslov(loop, pp.lam_minus).value == N
    assert maslov(reduced, pp.ell_minus).value == N


def test_reduction_commutes_with_catenation(rng):
    """Forward piece, reversed piece, and their closed catenation all
    reduce without changing the index; the loop closes to zero."""
    pp = coordinate_pair(2, [3.0, 0.4])
    path, ref, expected = random_spinner(SP2, rng)
    back = reverse(path)
    loop = catenate(path, back)
    for big, want in ((path, expected), (back, -expected), (loop, 0)):
        reduced = gamma_reduce_path(pp, big)
        assert maslov(big, pp.lam_minus).value == want
        assert maslov(reduced, pp.ell_minus).value == want


def test_reduction_survives_bad_conditioning(rng):
    pp = coordinate_pair(2, [1e3, 1e-3])  # condition number 1e6
    for _ in range(3):
        path, _, expected = random_spinner(SP2, rng)
        reduced = gamma_reduce_path(pp, path)
        assert maslov(path, pp.lam_minus).value == expected
        assert maslov(reduced, pp.ell_minus).value == expected


def _reduced_spectra(pp, path, times):
    """Spectra of the pair unitaries W(ell_minus, span Gamma F(t)) at
    ``times``, from a QR of Gamma F(t) and the closed form
    -(U U^T) conj(U_ell U_ell^T), U = X + iY, on the standard model."""
    n = pp.small.n
    A = np.stack([pp._gamma @ path.at(t).F for t in times])
    Q = np.linalg.qr(A)[0]
    U = Q[:, :n] + 1j * Q[:, n:]
    ell = pp.ell_minus.F[:n] + 1j * pp.ell_minus.F[n:]
    W = -(U @ np.swapaxes(U, 1, 2)) @ np.conj(ell @ ell.T)
    return np.linalg.eigvals(W)


@seed(20261019)
@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_certified_radius_holds_on_every_marched_piece(n, coordinate, draw):
    """The reduced path of a ``lagrangian_geodesic`` carries the march's
    certified radius r(t0, t): at 8 interior points t of every marched
    piece [t0, t1], each eigenvalue of the small pair unitary lies within
    the arc r(t0, t) of spec(t0), and r(t0, t1) <= ``_STEP_ARC`` up to
    the rounding of t1 - t0.  The weights i_plus are log-uniform in
    [0.02, 50], on coordinate or random transversal polarizations."""
    rng = np.random.default_rng(draw)
    B, H = standard_space(n), standard_space(n)
    scales = np.exp(rng.uniform(np.log(0.02), np.log(50.0), n))
    if coordinate:
        pp = coordinate_pair(n, scales)
    else:
        pp = polarized_pair(
            *transversal_pair(B, rng), *transversal_pair(H, rng), scales
        )
    curve, _ = random_unitary_curve(B, rng, num=5, max_rate=3.0)
    ts, frames = (list(x) for x in zip(*curve.samples))
    path = cli._lagrangian_path(ts, frames, 2, DEFAULT_TOL)
    reduced = gamma_reduce_path(pp, path)
    assert reduced._radius is not None
    marched = np.array([t for t, _ in reduced.samples])
    t0, t1 = marched[:-1], marched[1:]
    inner = t0[:, None] + (t1 - t0)[:, None] * np.arange(1, 9) / 9.0
    spec0 = _reduced_spectra(pp, path, t0)
    spec = _reduced_spectra(pp, path, inner.ravel()).reshape(*inner.shape, n)
    arcs = np.abs(np.angle(spec[..., :, None] / spec0[:, None, None, :]))
    moved = arcs.min(axis=-1).max(axis=-1)
    radii = np.array([[reduced._radius(a, t) for t in row]
                      for a, row in zip(t0, inner)])
    assert (moved <= radii + 1e-9).all()
    ends = [reduced._radius(a, b) for a, b in zip(t0, t1)]
    assert max(ends) <= pairs._STEP_ARC + 1e-9
