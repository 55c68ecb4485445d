"""Reflection-product unitaries attached to pairs of Lagrangians."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from masidx import (
    ValidationError,
    haar_unitary,
    horizontal_frame,
    intersection_dim,
    lagrangian,
    lagrangian_from_souriau,
    minus_one_offsets,
    random_lagrangian,
    souriau,
    standard_space,
    vertical_frame,
)
from conftest import random_structure_space, spinner_path
from oracles import (
    cayley_unitary,
    graph_lagrangian,
    kernel_dim_minus_one,
    same_span,
    souriau_reflection_product,
)

MATRIX_TOL = 1e-10
KERNEL_TOL = 1e-7

SP1 = standard_space(1)
SP3 = standard_space(3)


def random_symmetric_unitary(n, rng):
    V = haar_unitary(n, rng)
    return (V * np.exp(1j * rng.uniform(-np.pi, np.pi, n))) @ V.T


@pytest.mark.parametrize("general", [False, True])
@pytest.mark.parametrize("n", [1, 3, 7, 32])
def test_closed_form_matches_reflection_product(n, general, rng):
    space = random_structure_space(n, rng) if general else standard_space(n)
    for _ in range(3):
        lam = random_lagrangian(space, rng)
        mu = random_lagrangian(space, rng)
        np.testing.assert_allclose(
            souriau(lam, mu),
            souriau_reflection_product(lam, mu),
            rtol=0.0,
            atol=1e-12,
        )


def test_same_lagrangian_gives_minus_identity():
    h = horizontal_frame(SP3)
    W = souriau(h, h)
    np.testing.assert_allclose(W, -np.eye(3), atol=MATRIX_TOL)
    assert kernel_dim_minus_one(W) == 3


def test_j_image_gives_plus_identity():
    h = horizontal_frame(SP3)
    np.testing.assert_allclose(
        souriau(h, h.j_image()), np.eye(3), atol=MATRIX_TOL
    )
    np.testing.assert_allclose(
        souriau(horizontal_frame(SP1), vertical_frame(SP1)),
        np.eye(1),
        atol=MATRIX_TOL,
    )


@seed(20260815)
@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.02, max_value=np.pi - 0.02))
def test_scalar_line_phase(theta):
    """A line at angle theta against the horizontal axis has phase
    2 theta - pi, doubling the geometric angle."""
    h = horizontal_frame(SP1)
    mu = lagrangian(
        SP1, np.array([[np.cos(theta)], [np.sin(theta)]])
    )
    W = souriau(h, mu)
    assert W.shape == (1, 1)
    expected = np.exp(1j * (2.0 * theta - np.pi))
    np.testing.assert_allclose(W[0, 0], expected, atol=1e-9)


def test_output_is_unitary(rng):
    for _ in range(10):
        a = random_lagrangian(SP3, rng)
        b = random_lagrangian(SP3, rng)
        W = souriau(a, b)
        np.testing.assert_allclose(
            W.conj().T @ W, np.eye(3), atol=MATRIX_TOL
        )


def test_horizontal_reference_gives_symmetric_matrices(rng):
    """With the horizontal reference the standard basis is adapted to it,
    so the unitary comes out symmetric there (and only there)."""
    h = horizontal_frame(SP3)
    for _ in range(10):
        W = souriau(h, random_lagrangian(SP3, rng))
        np.testing.assert_allclose(W, W.T, atol=MATRIX_TOL)


def test_swapping_arguments_takes_the_adjoint(rng):
    for _ in range(10):
        a = random_lagrangian(SP3, rng)
        b = random_lagrangian(SP3, rng)
        np.testing.assert_allclose(
            souriau(a, b).conj().T, souriau(b, a), atol=1e-9
        )


def test_triple_product_closes_with_a_sign(rng):
    for _ in range(10):
        lam = random_lagrangian(SP3, rng)
        mu = random_lagrangian(SP3, rng)
        nu = random_lagrangian(SP3, rng)
        lhs = souriau(mu, nu) @ souriau(lam, mu)
        np.testing.assert_allclose(lhs, -souriau(lam, nu), atol=1e-9)


def test_equivariance_under_unitary_rotations(rng):
    """Rotating both arguments by a J-commuting isometry conjugates the
    product by the complexified rotation."""
    from masidx import realify

    for _ in range(8):
        a = random_lagrangian(SP3, rng)
        b = random_lagrangian(SP3, rng)
        V = haar_unitary(3, rng)
        R = realify(V)
        ra = lagrangian(SP3, R @ a.F)
        rb = lagrangian(SP3, R @ b.F)
        np.testing.assert_allclose(
            souriau(ra, rb), V @ souriau(a, b) @ V.conj().T, atol=1e-9
        )


def test_kernel_dimension_counts_the_intersection(rng):
    h = horizontal_frame(SP3)
    for forced in range(4):
        phases = np.concatenate(
            [np.full(forced, np.pi), rng.uniform(0.3, 2.5, 3 - forced)]
        )
        path, ref = spinner_path(SP3, phases, np.zeros(3), rng=rng)
        mu = path.samples[0][1]
        W = souriau(ref, mu)
        assert kernel_dim_minus_one(W) == forced
        assert intersection_dim(ref, mu) == forced
    # generic pairs meet trivially
    for _ in range(10):
        a = random_lagrangian(SP3, rng)
        b = random_lagrangian(SP3, rng)
        assert kernel_dim_minus_one(souriau(a, b)) == intersection_dim(a, b)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_pair_unitary_of_a_graph_is_minus_its_cayley_square(n, rng):
    """On the graph chart over the horizontal h, souriau(h, graph(A)) =
    -U_A^2 = -(Id + iA)(Id - iA)^{-1} with U_A the Cayley unitary of A, so
    -1 has multiplicity n - rank A, for random symmetric A of each rank."""
    h = horizontal_frame(standard_space(n))
    eye = np.eye(n)
    for k in range(n + 1):
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
        w[:k] = 0.0
        A = (V * w) @ V.T
        W = souriau(h, graph_lagrangian(h, A))
        U = cayley_unitary(A)
        np.testing.assert_allclose(W, -U @ U, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            W,
            -(eye + 1j * A) @ np.linalg.inv(eye - 1j * A),
            rtol=0.0,
            atol=1e-12,
        )
        assert kernel_dim_minus_one(W) == k


def test_kernel_tolerance_bounds():
    """Eigenvalues within angle KERNEL_TOL of -1 count, farther ones not."""
    offsets = KERNEL_TOL * np.array([0.0, -0.5, 0.5, -2.0, 2.0])
    assert kernel_dim_minus_one(np.diag(-np.exp(1j * offsets))) == 3


def test_offsets_are_principal_angles():
    offs = minus_one_offsets(np.eye(2))
    np.testing.assert_allclose(np.sort(np.abs(offs)), np.pi)
    offs = minus_one_offsets(-np.eye(2))
    np.testing.assert_allclose(offs, 0.0, atol=1e-12)


def test_frame_reconstruction_round_trips(rng):
    lam = random_lagrangian(SP3, rng)
    assert same_span(lagrangian_from_souriau(lam, -np.eye(3)), lam)
    assert same_span(
        lagrangian_from_souriau(lam, np.eye(3)), lam.j_image()
    )
    # with the horizontal reference every symmetric unitary is reachable
    h = horizontal_frame(SP3)
    for _ in range(10):
        W = random_symmetric_unitary(3, rng)
        mu = lagrangian_from_souriau(h, W)
        np.testing.assert_allclose(souriau(h, mu), W, atol=1e-8)
    # any reference round-trips its own image
    for _ in range(5):
        mu = random_lagrangian(SP3, rng)
        assert same_span(
            lagrangian_from_souriau(lam, souriau(lam, mu)), mu
        )


def test_frame_reconstruction_rejects_non_symmetric_unitaries(rng):
    lam = horizontal_frame(SP3)
    U = haar_unitary(3, rng)  # generically not symmetric
    with pytest.raises(ValidationError):
        lagrangian_from_souriau(lam, U)


def test_non_standard_metric_goes_through_standardization(rng):
    sp = random_structure_space(2, rng)
    a = random_lagrangian(sp, rng)
    b = random_lagrangian(sp, rng)
    W = souriau(a, b)
    np.testing.assert_allclose(W.conj().T @ W, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(
        souriau(a, b).conj().T, souriau(b, a), atol=1e-9
    )
    assert kernel_dim_minus_one(W) == intersection_dim(a, b)
    np.testing.assert_allclose(souriau(a, a), -np.eye(2), atol=1e-9)


def test_rejects_mismatched_spaces(rng):
    a = random_lagrangian(SP3, rng)
    b = random_lagrangian(standard_space(2), rng)
    with pytest.raises(ValidationError):
        souriau(a, b)


def _horizontal_reference(space):
    """The standard model's horizontal Lagrangian, pulled into ``space``."""
    ref = horizontal_frame(space.standardization.target)
    return ref if space.is_standard else space.standardization.pull_frame(ref)


@pytest.mark.parametrize("general", [False, True])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_pair_unitary_factors_through_the_horizontal_reference(n, general,
                                                               rng):
    """W(lam, mu) = -W(ref, mu) W(lam, ref): a path's pair unitaries against
    lam are those against ref times a constant unitary on the right."""
    space = random_structure_space(n, rng) if general else standard_space(n)
    ref = _horizontal_reference(space)
    for _ in range(3):
        lam = random_lagrangian(space, rng)
        mu = random_lagrangian(space, rng)
        np.testing.assert_allclose(
            souriau(lam, mu),
            -souriau(ref, mu) @ souriau(lam, ref),
            rtol=0.0,
            atol=1e-12,
        )


@pytest.mark.parametrize("n", [1, 3, 8])
def test_pair_unitary_gaps_are_twice_the_projection_gaps(n, rng):
    lam = random_lagrangian(standard_space(n), rng)
    for _ in range(5):
        a = random_lagrangian(standard_space(n), rng)
        b = random_lagrangian(standard_space(n), rng)
        dW = np.linalg.norm(souriau(lam, a) - souriau(lam, b), 2)
        dP = np.linalg.norm(a.P - b.P, 2)
        assert dW == pytest.approx(2.0 * dP, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
@pytest.mark.parametrize("n", [1, 4])
def test_souriau_of_a_sequence_is_bitwise_each_pair(n, general, rng):
    """``souriau(lam, mus)`` stacks the pair unitaries that a call on each
    mu alone gives, byte for byte."""
    sp = random_structure_space(n, rng) if general else standard_space(n)
    lam = random_lagrangian(sp, rng)
    mus = [random_lagrangian(sp, rng) for _ in range(5)]
    W = souriau(lam, mus)
    assert W.shape == (5, n, n)
    for w, mu in zip(W, mus):
        assert w.tobytes() == souriau(lam, mu).tobytes()
    with pytest.raises(ValidationError, match="different spaces"):
        souriau(lam, [mus[0], random_lagrangian(standard_space(n + 1), rng)])
