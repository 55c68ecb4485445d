"""Linear-algebra layer: spaces, frames, complexification, random draws."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masidx import (
    DEFAULT_TOL,
    LagrangianFrame,
    PreconditionError,
    SymmetricGenerator,
    SymplecticSpace,
    Tolerances,
    ValidationError,
    box_space,
    cayley_unitary,
    compatible_structure,
    complexify,
    complexify_vectors,
    direct_sum_frame,
    direct_sum_space,
    graph_lagrangian,
    haar_unitary,
    horizontal_frame,
    intersection_dim,
    kato_pair_transform,
    lagrangian,
    random_lagrangian,
    random_symmetric,
    realify,
    realify_vectors,
    same_span,
    standard_space,
    standardize,
    vertical_frame,
)
from masidx.core import _norm2_exceeds
from conftest import random_structure_space


# --------------------------------------------------------------------------
# spaces


def test_standard_space_conventions():
    sp = standard_space(2)
    e = np.eye(4)
    # omega(e_i, e_{n+i}) = +1 and J e_i = e_{n+i}
    assert sp.omega(e[:, 0], e[:, 2]) == pytest.approx(1.0)
    assert sp.omega(e[:, 1], e[:, 3]) == pytest.approx(1.0)
    assert sp.omega(e[:, 0], e[:, 1]) == pytest.approx(0.0)
    np.testing.assert_allclose(sp.J @ e[:, 0], e[:, 2])
    np.testing.assert_allclose(sp.gram, -sp.J, atol=1e-15)
    assert sp.is_standard


def test_space_rejects_bad_structures():
    eye = np.eye(2)
    with pytest.raises(ValidationError):
        SymplecticSpace(1, np.diag([1.0, -1.0]), eye)  # J^2 != -Id
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        SymplecticSpace(1, J, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        SymplecticSpace(1, J, -eye)  # not positive definite
    with pytest.raises(ValidationError):
        SymplecticSpace(2, np.kron(np.eye(2), J), np.diag([1.0, 2.0, 3.0, 4.0]))


def test_compatible_structure_reproduces_the_form(rng):
    for n in (1, 2, 3):
        sp = random_structure_space(n, rng)
        # the Gram of the form is the input form itself (transposed storage)
        assert sp.omega(np.eye(2 * n)[:, 0], sp.J[:, 0]) > 0.0
        np.testing.assert_allclose(sp.J @ sp.J, -np.eye(2 * n), atol=1e-9)
        np.testing.assert_allclose(
            sp.J.T @ sp.G @ sp.J, sp.G, atol=1e-9 * np.linalg.norm(sp.G, 2)
        )


def test_compatible_structure_gram_orientation(rng):
    M = rng.standard_normal((6, 6))
    Omega = M - M.T
    sp = compatible_structure(Omega)
    np.testing.assert_allclose(sp.gram, Omega.T, atol=1e-12)


def test_compatible_structure_rejects_bad_forms(rng):
    with pytest.raises(ValidationError):
        compatible_structure(rng.standard_normal((4, 4)))
    degen = np.zeros((4, 4))
    degen[0, 1], degen[1, 0] = 1.0, -1.0
    with pytest.raises(PreconditionError):
        compatible_structure(degen)
    odd = np.zeros((3, 3))
    with pytest.raises(ValidationError):
        compatible_structure(odd)


def test_tolerance_scaling_keeps_adjacency_bounds():
    base = DEFAULT_TOL
    loose = base.scaled(10.0)
    assert loose.rank == pytest.approx(10.0 * base.rank)
    assert loose.clearance == pytest.approx(10.0 * base.clearance)
    assert loose.adjacency_frame == base.adjacency_frame
    assert isinstance(loose, Tolerances)


# --------------------------------------------------------------------------
# validation norms


# up to 1e150, so rank-one products stay finite while squares overflow
_ENTRY = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
_MATRIX = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_ENTRY)
)


@seed(20260815)
@settings(max_examples=300, deadline=None)
@given(_MATRIX, _MATRIX, st.booleans(), st.floats(0.0, 1.5))
@example(np.eye(2), np.zeros((2, 2)), False, 0.5)
def test_norm2_exceeds_agrees_with_the_spectral_norm(re, im, rank_one, where):
    """The Frobenius shortcut never answers differently from the SVD.

    Bounds are placed between ||A||_2 and ||A||_F (where the shortcut must
    defer to the SVD), on both norms, and beyond ||A||_F; rank-one
    matrices make the two norms equal up to rounding.  Huge and tiny
    entries make the Frobenius norm overflow or underflow.
    """
    A = re
    if im.shape == re.shape:
        A = re + 1j * im
    if rank_one:
        A = np.outer(A[:, 0], A[0].conj())
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        two, fro = np.linalg.norm(A, 2), np.linalg.norm(A)
        if where <= 1.0:
            between = two + where * (fro - two)
        else:
            between = where * fro
        for bound in (between, two, fro, 0.0):
            assert _norm2_exceeds(A, bound) == (np.linalg.norm(A, 2) > bound)


# --------------------------------------------------------------------------
# frames


def test_lagrangian_orthonormalizes_any_spanning_set(rng):
    sp = standard_space(3)
    # a messy recombination of the horizontal columns still spans it
    M = np.zeros((6, 3))
    M[:3, :] = rng.standard_normal((3, 3)) + 5.0 * np.eye(3)
    fr = lagrangian(sp, M)
    np.testing.assert_allclose(fr.F.T @ sp.G @ fr.F, np.eye(3), atol=1e-12)
    assert same_span(fr, horizontal_frame(sp))


def test_lagrangian_rejects_non_isotropic_spans():
    sp = standard_space(2)
    M = np.eye(4)[:, [0, 2]]  # span{e1, Je1} carries the form
    with pytest.raises(ValidationError):
        lagrangian(sp, M)
    with pytest.raises(ValidationError):
        lagrangian(sp, np.zeros((4, 2)))  # rank deficient


def test_frame_constructor_requires_orthonormal_columns():
    sp = standard_space(1)
    with pytest.raises(ValidationError):
        LagrangianFrame(sp, np.array([[2.0], [0.0]]))


def test_j_image_of_horizontal_is_vertical():
    sp = standard_space(3)
    assert same_span(horizontal_frame(sp).j_image(), vertical_frame(sp))
    # projector and reflection sanity
    h = horizontal_frame(sp)
    np.testing.assert_allclose(h.P @ h.P, h.P, atol=1e-12)
    np.testing.assert_allclose(h.tau @ h.tau, np.eye(6), atol=1e-12)


def test_frames_in_non_standard_metric(rng):
    sp = random_structure_space(2, rng)
    fr = random_lagrangian(sp, rng)
    np.testing.assert_allclose(fr.F.T @ sp.G @ fr.F, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(fr.F.T @ sp.gram @ fr.F, 0.0, atol=1e-9)


# --------------------------------------------------------------------------
# intersections and spans


def test_intersection_dim_matches_rank_formula(rng):
    sp = standard_space(3)
    h, v = horizontal_frame(sp), vertical_frame(sp)
    assert intersection_dim(h, v) == 0
    assert intersection_dim(h, h) == 3
    for _ in range(20):
        a = random_lagrangian(sp, rng)
        b = random_lagrangian(sp, rng)
        rank = np.linalg.matrix_rank(np.hstack([a.F, b.F]), tol=1e-8)
        assert intersection_dim(a, b) == 6 - rank


def test_intersection_dim_partial_overlap():
    sp = standard_space(3)
    h = horizontal_frame(sp)
    # keep e1, e2 horizontal, rotate the third direction vertical
    M = np.eye(6)[:, [0, 1, 5]]
    mixed = lagrangian(sp, M)
    assert intersection_dim(h, mixed) == 2


def test_intersection_dim_rejects_silly_tolerances():
    sp = standard_space(1)
    h = horizontal_frame(sp)
    with pytest.raises(ValidationError):
        intersection_dim(h, h, tol=0.5)


def test_same_span_is_basis_independent(rng):
    sp = standard_space(2)
    fr = random_lagrangian(sp, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    assert same_span(fr.F, fr.F @ Q)
    assert not same_span(horizontal_frame(sp), vertical_frame(sp))


# --------------------------------------------------------------------------
# complexification


def test_complexify_round_trip(rng):
    n = 3
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    np.testing.assert_allclose(complexify(realify(Z)), Z, atol=1e-12)
    M = realify(Z)
    np.testing.assert_allclose(realify(complexify(M)), M, atol=1e-12)


def test_complexify_sends_transpose_to_adjoint(rng):
    Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = realify(Z)
    np.testing.assert_allclose(
        complexify(M.T), complexify(M).conj().T, atol=1e-12
    )


def test_complexify_is_multiplicative(rng):
    A = realify(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    B = realify(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    np.testing.assert_allclose(
        complexify(A @ B), complexify(A) @ complexify(B), atol=1e-12
    )


def test_complexify_rejects_non_commuting_operators(rng):
    with pytest.raises(ValidationError):
        complexify(np.diag([1.0, 2.0]))  # does not commute with J


def test_vector_complexification_round_trip(rng):
    V = rng.standard_normal((6, 2))
    Z = complexify_vectors(V)
    assert Z.shape == (3, 2)
    np.testing.assert_allclose(realify_vectors(Z), V, atol=1e-14)


# --------------------------------------------------------------------------
# graphs, Cayley images, projection pairs


def test_graph_lagrangian_spans_the_graph(rng):
    sp = standard_space(3)
    A = random_symmetric(3, rng)
    gen = SymmetricGenerator(horizontal_frame(sp), A)
    fr = graph_lagrangian(gen)
    expected = np.vstack([np.eye(3), A])
    assert same_span(fr, expected)


def test_graph_of_zero_is_the_base():
    sp = standard_space(2)
    gen = SymmetricGenerator(horizontal_frame(sp), np.zeros((2, 2)))
    assert same_span(graph_lagrangian(gen), horizontal_frame(sp))


def test_cayley_unitary_properties(rng):
    sp = standard_space(3)
    A = random_symmetric(3, rng)
    gen = SymmetricGenerator(horizontal_frame(sp), A)
    U = cayley_unitary(gen)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(U, U.T, atol=1e-10)
    # eigenphases are arctan of the generator spectrum
    got = np.sort(np.angle(np.linalg.eigvals(U)))
    want = np.sort(np.arctan(np.linalg.eigvalsh(A)))
    np.testing.assert_allclose(got, want, atol=1e-10)
    zero = SymmetricGenerator(horizontal_frame(sp), np.zeros((3, 3)))
    np.testing.assert_allclose(cayley_unitary(zero), np.eye(3), atol=1e-14)


def test_kato_transform_intertwines(rng):
    sp = standard_space(2)
    a = random_lagrangian(sp, rng)
    b = random_lagrangian(sp, rng)
    W = kato_pair_transform(a.P, b.P)
    np.testing.assert_allclose(W.T @ W, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(W @ b.P, a.P @ W, atol=1e-9)


def test_kato_transform_rejects_antipodal_projections():
    P = np.diag([1.0, 0.0])
    Q = np.diag([0.0, 1.0])
    with pytest.raises(PreconditionError):
        kato_pair_transform(P, Q)
    with pytest.raises(ValidationError):
        kato_pair_transform(np.array([[1.0, 1.0], [0.0, 0.0]]), Q)


# --------------------------------------------------------------------------
# sums, boxes, standardization


def test_direct_sum_geometry():
    a, b = standard_space(1), standard_space(2)
    sp = direct_sum_space(a, b)
    assert sp.n == 3
    fr = direct_sum_frame(sp, horizontal_frame(a), vertical_frame(b))
    assert fr.F.shape == (6, 3)
    np.testing.assert_allclose(fr.F.T @ sp.G @ fr.F, np.eye(3), atol=1e-12)


def test_box_space_flips_the_second_form():
    base = standard_space(2)
    bs = box_space(base)
    g = bs.space.gram
    np.testing.assert_allclose(g[:4, :4], base.gram, atol=1e-12)
    np.testing.assert_allclose(g[4:, 4:], -base.gram, atol=1e-12)
    np.testing.assert_allclose(g[:4, 4:], 0.0, atol=1e-12)
    # the diagonal is Lagrangian for the difference form
    d = bs.delta
    np.testing.assert_allclose(d.F.T @ g @ d.F, 0.0, atol=1e-12)


def test_standardize_round_trips_frames(rng):
    sp = random_structure_space(2, rng)
    st = standardize(sp)
    np.testing.assert_allclose(st.matrix @ st.inverse, np.eye(4), atol=1e-9)
    fr = random_lagrangian(sp, rng)
    pushed = st.push_frame(fr)
    assert pushed.space.is_standard
    back = st.pull_frame(pushed)
    assert same_span(back, fr)


def test_standardize_standard_space_is_identity():
    st = standardize(standard_space(2))
    np.testing.assert_allclose(st.matrix, np.eye(4), atol=1e-12)


# --------------------------------------------------------------------------
# random draws


def test_haar_unitary_is_unitary_and_seeded():
    U = haar_unitary(4, np.random.default_rng(5))
    np.testing.assert_allclose(U.conj().T @ U, np.eye(4), atol=1e-12)
    V = haar_unitary(4, np.random.default_rng(5))
    np.testing.assert_allclose(U, V)


def test_random_symmetric_is_symmetric(rng):
    S = random_symmetric(5, rng, scale=2.0)
    np.testing.assert_allclose(S, S.T)


def test_random_lagrangian_lands_on_valid_frames(rng):
    for n in (1, 3):
        sp = standard_space(n)
        fr = random_lagrangian(sp, rng)
        np.testing.assert_allclose(
            fr.F.T @ sp.gram @ fr.F, 0.0, atol=1e-10
        )
    sp = random_structure_space(2, rng)
    fr = random_lagrangian(sp, rng)
    np.testing.assert_allclose(fr.F.T @ sp.G @ fr.F, np.eye(2), atol=1e-9)
