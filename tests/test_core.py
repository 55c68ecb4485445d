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
    SymplecticSpace,
    Tolerances,
    ValidationError,
    box_space,
    boundary_problem,
    compatible_structure,
    complexify_vectors,
    direct_sum_frame,
    direct_sum_space,
    haar_unitary,
    horizontal_frame,
    intersection_dim,
    lagrangian,
    random_lagrangian,
    random_symmetric,
    realify,
    standard_space,
    standardize,
    vertical_frame,
)
from masidx.core import _norm2_exceeds, _standard_J
from masidx.paths import lagrangian_geodesic
from conftest import random_structure_space
from oracles import (
    cayley_unitary,
    complexify,
    graph_lagrangian,
    kato_pair_transform,
    realify_vectors,
    same_span,
)


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


@pytest.mark.parametrize(
    "u, v, reason",
    [
        ([1.0, 0.0, 2.0], [0.0, 1.0], "u has shape (1, 3), expected (1, 2)"),
        ([1.0, 0.0], [0.0], "v has shape (1, 1), expected (1, 2)"),
        ("ab", [0.0, 1.0], "u is not numeric"),
        ([1.0, np.nan], [0.0, 1.0], "u not finite"),
        ([1.0, 0.0], [0.0, np.inf], "v not finite"),
        ([1.0, 0.0], [0.0, 1j], "v must be real"),
        ([1.0, 0.0], [[0.0], [1.0]], "v must be a matrix"),
    ],
)
def test_omega_takes_real_finite_vectors_of_length_2n(u, v, reason):
    """``omega`` takes its vectors through the intake rule: a wrong length
    or entries that are not numbers once leaked numpy's errors, and NaN
    gave NaN."""
    sp = standard_space(1)
    assert sp.omega([1, 0], [0, 1]) == 1.0
    with pytest.raises(ValidationError) as info:
        sp.omega(u, v)
    assert (info.value.reason, info.value.where) == (
        reason, "SymplecticSpace.omega"
    )


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


def test_a_dimension_must_be_an_integer_of_at_least_one():
    """n of ``standard_space`` and ``SymplecticSpace`` and N of
    ``boundary_problem`` are integers >= 1: any other value is a
    ValidationError at the size's own ``where``, not a TypeError from
    ``np.eye`` or ``<``; 0 keeps its reason, and a numpy integer is
    accepted."""
    lam, z = np.array([[1.0], [0.0]]), np.zeros((2, 2))
    makers = [
        (standard_space, "n", "SymplecticSpace.n"),
        (
            lambda n: SymplecticSpace(n=n, J=_standard_J(1), G=np.eye(2)),
            "n", "SymplecticSpace.n",
        ),
        (
            lambda n: boundary_problem(n, z, [(0.0, z), (1.0, z)], lam, lam),
            "N", "boundary_problem",
        ),
    ]
    for make, name, where in makers:
        for bad in (1.5, "1", None, 0):
            with pytest.raises(ValidationError) as info:
                make(bad)
            reason = "must be >= 1" if bad == 0 else "must be an integer"
            assert info.value.reason == f"{name} {reason}"
            assert info.value.where == where
        make(np.int64(1))


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


def test_compatible_structure_passes_its_own_space_check():
    """J is the orthogonal polar factor U V^T of Omega = U Sigma V^T, so
    J^2 = -Id holds to rounding: every ``random_structure_space`` form
    (seeds 0-99, n in {1, 2, 3, 4, 8, 16}) builds a space, with J^T G =
    Omega^T to 1e-14 relative.  J = G^{-1} Omega, with G from an eigh of
    Omega^T Omega, missed J^2 = -Id by cond(Omega)^2 eps and refused 26."""
    for draw in range(100):
        for n in (1, 2, 3, 4, 8, 16):
            rng = np.random.default_rng(draw)
            while True:
                M = rng.standard_normal((2 * n, 2 * n))
                Omega = M - M.T
                if np.linalg.svd(Omega, compute_uv=False).min() > 1e-3:
                    break
            sp = compatible_structure(Omega)
            assert np.linalg.norm(sp.J.T @ sp.G - Omega.T, 2) <= (
                1e-14 * np.linalg.norm(Omega, 2)
            )


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compatible_structure_rejects_a_form_that_is_not_finite(bad):
    """A non-finite entry is a ValidationError of its own, raised before
    any norm of Omega is taken (an SVD of a NaN does not converge)."""
    Omega = _standard_J(2)
    Omega[0, 2] = bad
    with pytest.raises(ValidationError) as info:
        compatible_structure(Omega)
    assert info.value.where == "compatible_structure"


def test_tolerance_scaling_scales_every_field():
    base = DEFAULT_TOL
    loose = base.scaled(10.0)
    assert isinstance(loose, Tolerances)
    for name in Tolerances.__dataclass_fields__:
        assert getattr(loose, name) == pytest.approx(
            10.0 * getattr(base, name)
        ), name


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
    # omega(e1, e2 + 5e-9 Je1) = 5e-9 passes the span's 1e-8 check and
    # fails the frame's 1e-10
    M = np.eye(4)[:, [0, 1]]
    M[2, 1] = 5e-9
    with pytest.raises(ValidationError) as err:
        lagrangian(sp, M)
    assert (err.value.reason, err.value.where) == (
        "frame not isotropic", "LagrangianFrame"
    )


def test_lagrangian_reads_its_rank_tolerance_from_the_space():
    """The one route of a frame's rank tolerance: the space's ``tol``.  A
    QR diagonal of relative size 5e-8 clears DEFAULT_TOL.rank = 1e-8 and
    falls below the loose profile's 1e-7."""
    M = np.eye(4)[:, [0, 1]]
    M[1, 1] = 5e-8
    d = np.abs(np.diag(np.linalg.qr(M)[1]))
    assert 1e-8 < d.min() / d.max() < 1e-7
    fr = lagrangian(standard_space(2, DEFAULT_TOL), M)
    assert same_span(fr, horizontal_frame(standard_space(2)))
    with pytest.raises(ValidationError) as err:
        lagrangian(standard_space(2, DEFAULT_TOL.scaled(10)), M)
    assert (err.value.reason, err.value.where) == (
        "rank-deficient frame", "lagrangian"
    )


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
def test_stacked_lagrangian_is_bitwise_the_per_matrix_frames(n, general):
    """A (k, 2n, n) stack gives the tuple of the frames that a call on
    each matrix alone gives, byte for byte; a list of matrices is a
    stack."""
    rng = np.random.default_rng(28 + n)
    sp = random_structure_space(n, rng) if general else standard_space(n)
    mats = [
        random_lagrangian(sp, rng).F @ rng.standard_normal((n, n))
        for _ in range(6)
    ]
    stacked = lagrangian(sp, np.stack(mats))
    assert isinstance(stacked, tuple) and len(stacked) == len(mats)
    assert all(f.space is sp for f in stacked)
    for f, M in zip(stacked, mats):
        assert f.F.tobytes() == lagrangian(sp, M).F.tobytes()
    listed = lagrangian(sp, mats)
    assert [f.F.tobytes() for f in listed] == [f.F.tobytes() for f in stacked]


def _failing_spans():
    """Spanning matrices of R^4 that fail ``lagrangian`` in three ways."""
    e = np.eye(4)
    return {
        # omega(e1, e3) = 1
        "not isotropic": np.column_stack([e[:, 0], e[:, 2]]),
        # omega = 1e-9: below the span bound, above the frame residual
        "nearly isotropic": np.column_stack(
            [e[:, 0], e[:, 1] + 1e-9 * e[:, 2]]
        ),
        "rank-deficient": np.column_stack([e[:, 0], np.zeros(4)]),
    }


@pytest.mark.parametrize(
    "first, second, error",
    [
        ("not isotropic", "rank-deficient",
         ("subspace is not isotropic", "lagrangian")),
        ("nearly isotropic", "rank-deficient",
         ("frame not isotropic", "LagrangianFrame")),
        ("rank-deficient", "not isotropic",
         ("rank-deficient frame", "lagrangian")),
    ],
)
def test_stacked_lagrangian_raises_the_first_failing_frame(
    first, second, error
):
    """A stack raises the error of its first failing matrix, the one a
    call on each matrix in turn raises first, whatever fails after it."""
    sp = standard_space(2)
    spans = _failing_spans()
    good = horizontal_frame(sp).F
    for k in (0, 2):
        mats = [good, good]
        mats[k:k] = [spans[first], spans[second]]
        with pytest.raises(ValidationError) as err:
            lagrangian(sp, np.stack(mats))
        assert (err.value.reason, err.value.where) == error
        with pytest.raises(ValidationError) as alone:
            lagrangian(sp, spans[first])
        assert (alone.value.reason, alone.value.where) == error


def test_standard_space_is_one_read_only_space_per_profile():
    """``standard_space`` builds one space per (n, tol): the same profile
    gives the same space, another profile another space, and J and G
    are read-only."""
    sp = standard_space(2)
    assert standard_space(2) is sp
    assert standard_space(2, tol=DEFAULT_TOL) is sp
    assert standard_space(2, DEFAULT_TOL.scaled(1.0)) is sp
    loose = standard_space(2, DEFAULT_TOL.scaled(10))
    assert loose is not sp and loose.tol.rank == DEFAULT_TOL.rank * 10
    assert standard_space(3) is not sp
    for M in (sp.J, sp.G):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


def test_frame_constructor_requires_orthonormal_columns():
    sp = standard_space(1)
    with pytest.raises(ValidationError) as err:
        LagrangianFrame(sp, np.array([[2.0], [0.0]]))
    assert (err.value.reason, err.value.where) == (
        "frame not G-orthonormal", "LagrangianFrame"
    )


def _frame_residual(space, F):
    """||R||_2 of the frame check, R = (F^T G F - Id) + i F^T (J^T G) F."""
    R = F.T @ space.G @ F - np.eye(space.n) + 1j * (F.T @ space.gram @ F)
    return np.linalg.norm(R, 2)


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(
    st.integers(1, 4),
    st.booleans(),
    st.floats(0.25, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_one_residual_covers_the_deleted_checks(n, general, scale, draw):
    """A frame is checked by ||R||_2 <= 1e-10 alone.  Frames perturbed to
    a residual of about ``scale`` * 1e-10 that pass keep both parts of R,
    F^T G F - Id and F^T (J^T G) F, within 1e-10, and the splitting
    J = JP + PJ within cond(G)^{1/2} 1e-10 (J - JP - PJ = (Id - Q Q^T G) J
    with Q = [F, JF]); on the standard space ||J - JP - PJ||_2 = ||R||_2.
    Frames that fail have a residual above the bound."""
    rng = np.random.default_rng(draw)
    sp = random_structure_space(n, rng) if general else standard_space(n)
    F0 = random_lagrangian(sp, rng).F
    E = rng.standard_normal(F0.shape)
    # the part of R linear in E, so that R(F0 + d E) is about d ||L||_2
    L = E.T @ sp.G @ F0 + F0.T @ sp.G @ E
    L = L + 1j * (E.T @ sp.gram @ F0 + F0.T @ sp.gram @ E)
    F = F0 + scale * 1e-10 / np.linalg.norm(L, 2) * E
    res = _frame_residual(sp, F)
    try:
        LagrangianFrame(sp, F)
    except ValidationError as err:
        assert err.where == "LagrangianFrame"
        assert res > 1e-10 * (1.0 - 1e-6)
        return
    assert res <= 1e-10 * (1.0 + 1e-6)
    assert np.linalg.norm(F.T @ sp.G @ F - np.eye(n), 2) <= 1e-10
    assert np.linalg.norm(F.T @ sp.gram @ F, 2) <= 1e-10
    P = F @ F.T @ sp.G
    split = np.linalg.norm(sp.J - sp.J @ P - P @ sp.J, 2)
    cond = np.linalg.cond(sp.G)
    assert split <= np.sqrt(cond) * res + 1e-15 * cond
    if not general:
        assert abs(split - res) <= 1e-15


def _counted_checks(monkeypatch):
    """The frames ``LagrangianFrame.__post_init__`` checks from now on."""
    checked = []
    check = LagrangianFrame.__post_init__

    def counting(frame):
        checked.append(frame)
        check(frame)

    monkeypatch.setattr(LagrangianFrame, "__post_init__", counting)
    return checked


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("general", [False, True])
def test_exact_builders_keep_the_residual(n, general, monkeypatch):
    """``j_image``, the frames of ``lagrangian_geodesic`` and its reference
    h are written down by isometries from checked frames, unchecked, and
    keep R at rounding: within 1e-13 in the standard model.  Frames of a
    general space also carry the rounding of its congruence, which
    ``pull_frame`` checks and which grows with cond(G)."""
    rng = np.random.default_rng(20261019 + n)
    sp = random_structure_space(n, rng) if general else standard_space(n)
    frames = [random_lagrangian(sp, rng) for _ in range(3)]
    model = [f._standard for f in frames]
    grid = np.linspace(0.0, 1.0, 9)
    for nodes in (frames, model):
        standard = nodes[0].space.is_standard
        checked = _counted_checks(monkeypatch)
        path = lagrangian_geodesic([0.0, 0.5, 1.0], nodes, grid)
        written = [path._geodesic[0]]
        written += [path.refiner(t) for t in rng.random(5)]
        written += [f.j_image() for f in nodes]
        limit = 1e-13 * (1.0 if standard else np.linalg.cond(sp.G))
        for f in written:
            assert _frame_residual(f.space, f.F) <= limit
        assert checked == [] or not standard
        monkeypatch.undo()


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
    fr = graph_lagrangian(horizontal_frame(sp), A)
    expected = np.vstack([np.eye(3), A])
    assert same_span(fr, expected)


def test_graph_of_zero_is_the_base():
    sp = standard_space(2)
    h = horizontal_frame(sp)
    assert same_span(graph_lagrangian(h, np.zeros((2, 2))), h)


def test_cayley_unitary_properties(rng):
    A = random_symmetric(3, rng)
    U = cayley_unitary(A)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(U, U.T, atol=1e-10)
    # eigenphases are arctan of the generator spectrum
    got = np.sort(np.angle(np.linalg.eigvals(U)))
    want = np.sort(np.arctan(np.linalg.eigvalsh(A)))
    np.testing.assert_allclose(got, want, atol=1e-10)
    np.testing.assert_allclose(
        cayley_unitary(np.zeros((3, 3))), np.eye(3), atol=1e-14
    )


def test_kato_transform_intertwines(rng):
    sp = standard_space(2)
    a = random_lagrangian(sp, rng)
    b = random_lagrangian(sp, rng)
    W = kato_pair_transform(a.P, b.P)
    np.testing.assert_allclose(W.T @ W, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(W @ b.P, a.P @ W, atol=1e-9)


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
