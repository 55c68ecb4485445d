"""Spectral flow of first-order boundary families and the coincidence check."""

import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from masidx import spectral
from masidx import (
    JJ,
    AmbiguityError,
    Standardization,
    ValidationError,
    boundary_problem,
    box_space,
    cauchy_data_path,
    crossing_form,
    eigenvalue_trace,
    eigenvalues_near,
    find_crossings,
    fundamental_solution,
    maslov,
    souriau,
    spectral_flow,
    standard_space,
    verify_coincidence,
)
from masidx.paths import _phillips
from conftest import (
    ladder_flow,
    ladder_problem,
    random_admissible,
    random_boundary_family,
    random_lagrangian,
    random_symmetric,
    rotation_problem,
)
from oracles import same_span


def _piecewise_linear_family(N, nodes, rng, with_b=True):
    """Random admissible family sampled at ``nodes`` uneven times, with
    no ``c_func``: C_t is linear between the nodes.  B is 0 unless
    ``with_b``."""
    inner = np.sort(rng.uniform(0.05, 0.95, nodes - 2))
    ts = np.concatenate([[0.0], inner, [1.0]])
    family = [(float(t), random_symmetric(2 * N, rng, 1.5)) for t in ts]
    space = standard_space(N)
    B = random_admissible(N, rng, 0.5) if with_b else np.zeros((2 * N,) * 2)
    return boundary_problem(
        N,
        B,
        family,
        random_lagrangian(space, rng).F,
        random_lagrangian(space, rng).F,
    )


def ladder(t, lo, hi):
    """Exact spectrum of the rotation fixture inside [lo, hi]."""
    base = (t - 0.5) * np.pi
    ks = np.arange(-10, 11)
    vals = base - ks * np.pi
    return np.sort(vals[(vals >= lo) & (vals <= hi)])


# --------------------------------------------------------------------------
# admissibility


def test_boundary_problem_validation(rng):
    lam = np.array([[1.0], [0.0]])
    fam = [(0.0, np.zeros((2, 2))), (1.0, np.zeros((2, 2)))]
    with pytest.raises(ValidationError):
        boundary_problem(0, np.zeros((0, 0)), fam, lam, lam)
    with pytest.raises(ValidationError):
        boundary_problem(1, np.zeros((3, 3)), fam, lam, lam)
    with pytest.raises(ValidationError):
        boundary_problem(1, np.array([[0.0, 1.0], [0.0, 0.0]]), fam, lam, lam)
    # symmetric but commuting with the structure: flow would drift off
    # the symplectic group, so the input is rejected outright
    with pytest.raises(ValidationError):
        boundary_problem(1, np.eye(2), fam, lam, lam)
    with pytest.raises(ValidationError):
        boundary_problem(1, np.zeros((2, 2)), fam[:1], lam, lam)
    with pytest.raises(ValidationError):
        boundary_problem(
            1, np.zeros((2, 2)), [(0.2, np.zeros((2, 2))), fam[1]], lam, lam
        )
    with pytest.raises(ValidationError):
        boundary_problem(
            1,
            np.zeros((2, 2)),
            [(0.0, np.array([[0.0, 1.0], [0.0, 0.0]])), fam[1]],
            lam,
            lam,
        )


def test_fundamental_solution_identity():
    z = np.zeros((2, 2))
    np.testing.assert_allclose(fundamental_solution(z, z, 0.0), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("t", [0.0, 0.4, 1.0, 2.5])
def test_fundamental_solution_rotates(t):
    z = np.zeros((2, 2))
    got = fundamental_solution(z, t * np.eye(2), 0.0)
    want = np.array(
        [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
    )
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_fundamental_solution_is_symplectic(rng):
    for N in (1, 2, 3):
        jj = JJ(N)
        for _ in range(5):
            B = random_admissible(N, rng)
            C = rng.standard_normal((2 * N, 2 * N))
            C = C + C.T
            s = rng.uniform(-3.0, 3.0)
            Phi = fundamental_solution(B, C, s)
            res = np.linalg.norm(Phi.T @ jj @ Phi - jj, 2)
            assert res <= 1e-9 * max(1.0, np.linalg.norm(Phi, 2) ** 2)


def test_boundary_problem_rejects_a_nan_time():
    lam = np.array([[1.0], [0.0]])
    z = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        boundary_problem(1, z, [(0.0, z), (np.nan, z), (1.0, z)], lam, lam)


@pytest.mark.parametrize(
    "B, family",
    [
        (np.zeros((2, 2)),
         [(0.0, np.full((2, 2), np.nan)), (1.0, 3.0 * np.eye(2))]),
        (np.zeros((2, 2)),
         [(0.0, np.zeros((2, 2))), (1.0, np.full((2, 2), np.inf))]),
        (np.full((2, 2), np.nan), [(0.0, np.eye(2)), (1.0, np.eye(2))]),
    ],
    ids=["nan-c", "inf-c", "nan-b"],
)
def test_boundary_problem_rejects_a_non_finite_matrix(B, family):
    """A B or C that is not finite fails the intake rule before any norm
    is taken (numpy's SVD of a NaN does not converge)."""
    lam = np.array([[1.0], [0.0]])
    with np.errstate(invalid="ignore"), pytest.raises(
        ValidationError
    ) as info:
        boundary_problem(1, B, family, lam, lam)
    assert info.value.where == "boundary_problem"


@pytest.mark.parametrize("name", ["B", "C"])
def test_boundary_problem_rejects_a_complex_b_or_c(name):
    """A complex B or C is an error, not taken in with its imaginary part
    dropped."""
    lam, z = np.array([[1.0], [0.0]]), np.zeros((2, 2))
    skew = 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
    B, C = (skew, z) if name == "B" else (z, skew)
    with pytest.raises(ValidationError) as info:
        boundary_problem(1, B, [(0.0, C), (1.0, z)], lam, lam)
    assert info.value.reason == f"{name} must be real"
    assert info.value.where == "boundary_problem"


@pytest.mark.parametrize("t", [5.0, -0.5, np.nan, np.inf, "0.5", None])
def test_eigenvalues_near_takes_a_time_of_the_family(t):
    """``c_at`` clamps a time outside [0, 1] to the nearest end, and a NaN
    sorts past the last node, so such a t read the spectrum of C_1; only
    a number in [0, 1] is a time of the family."""
    lam, z = np.array([[1.0], [0.0]]), np.zeros((2, 2))
    bp = boundary_problem(1, z, [(0.0, z), (1.0, np.pi * np.eye(2))], lam, lam)
    with pytest.raises(ValidationError) as info:
        eigenvalues_near(bp, t, -1.0, 1.0)
    assert info.value.where == "eigenvalues_near"
    np.testing.assert_allclose(
        eigenvalues_near(bp, np.float64(1.0), -1.0, 1.0),
        eigenvalues_near(bp, 1, -1.0, 1.0),
    )


def test_fundamental_solution_rejects_drifting_flow():
    with pytest.raises(ValidationError):
        fundamental_solution(np.eye(2), np.zeros((2, 2)), 0.0)


def _structure(N):
    z = np.zeros((N, N))
    return np.block([[z, np.eye(N)], [-np.eye(N), z]])


def _passes_two_svd_check(B, C, s):
    """The symplectic check as two spectral norms, with no shortcut."""
    jj = _structure(B.shape[0] // 2)
    Phi = expm(-B + jj @ C - s * jj)
    res = np.linalg.norm(Phi.T @ jj @ Phi - jj, 2)
    return bool(res <= 1e-9 * max(1.0, np.linalg.norm(Phi, 2) ** 2))


def _raises_not_symplectic(B, C, s, stacked=False):
    """Whether the flow at s fails the check, shot alone or, ``stacked``,
    as the last of a stack of three."""
    try:
        if stacked:
            spectral._flows(*spectral._generator(B, C), [s - 1.0, 0.0, s])
        else:
            fundamental_solution(B, C, s)
    except ValidationError as exc:
        assert exc.reason == "flow not symplectic (check B, C)"
        assert exc.where == "fundamental_solution"
        return True
    return False


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 6.0),
    st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1.0]),
    st.floats(-3.0, 3.0),
)
def test_symplectic_check_decides_like_two_svds(N, draw, scale, skew, s):
    """Frobenius first, exact fallback: the same decision as two SVDs,
    for a flow shot alone and for one shot in a stack.

    Admissible B up to a large norm (flows far from orthogonal), and C
    symmetric up to a skew part of size ``skew``, which puts the residual
    on both sides of the 1e-9 bound.
    """
    rng = np.random.default_rng(draw)
    B = random_admissible(N, rng, scale)
    K = rng.standard_normal((2 * N, 2 * N))
    C = random_symmetric(2 * N, rng, 1.0) + skew * (K - K.T)
    with np.errstate(over="ignore", invalid="ignore"):
        passes = _passes_two_svd_check(B, C, s)
        others = all(_passes_two_svd_check(B, C, x) for x in (s - 1.0, 0.0))
        assert _raises_not_symplectic(B, C, s) != passes
        assert _raises_not_symplectic(B, C, s, stacked=True) != (
            passes and others
        )


def test_non_symmetric_c_is_not_symplectic(rng):
    for N in (1, 2, 3):
        B = random_admissible(N, rng)
        C = rng.standard_normal((2 * N, 2 * N))
        assert not _passes_two_svd_check(B, C, 0.3)
        assert _raises_not_symplectic(B, C, 0.3)


def test_large_flow_passes_through_the_exact_fallback():
    """||Phi||_2 ~ 1e5: the residual is far above 1e-9 but inside the
    relative bound 1e-9 ||Phi||_2^2, so only the exact test can pass it."""
    B = 12.0 * np.array([[0.6, 0.8], [0.8, -0.6]])
    C = np.array([[0.4, -0.7], [-0.7, 1.1]])
    jj = _structure(1)
    Phi = fundamental_solution(B, C, 0.3)
    assert np.linalg.norm(Phi, 2) > 1e5
    assert np.linalg.norm(Phi.T @ jj @ Phi - jj, 2) > 1e-7
    assert _passes_two_svd_check(B, C, 0.3)


def _single_reads(bp, t, ss):
    """Frames, determinants, offsets and piece chords of the shooting path
    at t, each formed on its own from ``fundamental_solution``."""
    n = bp.N
    U1 = bp.lambda1[:n] + 1j * bp.lambda1[n:]
    conj1 = np.conj(U1 @ U1.T)
    frames, dets, offsets, pairs = [], [], [], []
    for s in ss:
        F = fundamental_solution(bp.B, bp.c_at(t), s) @ bp.lambda0
        ZT = (F[:n] + 1j * F[n:]).T
        W = -np.linalg.solve(ZT.conj(), ZT).T @ conj1
        frames.append(F)
        dets.append(np.linalg.det(np.hstack([F, bp.lambda1])))
        offsets.append(np.angle(-np.linalg.eigvals(W)))
        pairs.append(W)
    chords = []
    for W0, W1 in zip(pairs, pairs[1:]):
        D = W1 - W0
        chords.append(np.sqrt(np.linalg.eigvalsh(D.conj().T @ D)[-1]))
    return frames, dets, offsets, chords


def _assert_single_reads(shoot, bp, t, ss):
    """Every value that ``shoot`` read on ``ss`` is the one formed alone."""
    frames, dets, offsets, chords = _single_reads(bp, t, ss)
    np.testing.assert_array_equal(shoot._shots(ss), frames)
    for k, s in enumerate(ss):
        assert shoot.det(s) == dets[k]
        np.testing.assert_array_equal(shoot.offsets(s), offsets[k])
    for k, piece in enumerate(zip(ss, ss[1:])):
        assert shoot._chords[piece] == chords[k]


def test_stacked_reads_are_single_reads_bitwise(rng, monkeypatch):
    """``_Shooter.read`` shoots a grid in one stacked call, and ``_read``
    the grids of several family times in one, each time a run of its own
    length; every frame of the stack, determinant, offset and piece chord
    equals the one formed alone."""
    problems = [
        rotation_problem(),
        random_boundary_family(2, rng, samples=20),
        random_boundary_family(3, rng, samples=20),
        ladder_problem((0.1, 0.2, 0.3, 1.2), (1.0, -2.0, 0.5, 3.0)),
    ]
    ss = np.linspace(-0.55, 1.55, 10).tolist()
    times = (0.0, 0.3, 1.0)
    runs = (ss, ss[2:7], ss[::3])
    stacks = []
    flows = spectral._flows

    def counted(gen, jj, ss):
        stacks.append(len(ss))
        return flows(gen, jj, ss)

    for bp in problems:
        for t in times:
            shoot = spectral._Shooter(bp, t)
            shoot.read(ss)
            _assert_single_reads(shoot, bp, t, ss)
        shooters = [spectral._Shooter(bp, t) for t in times]
        monkeypatch.setattr(spectral, "_flows", counted)
        spectral._read([(shoot, (run,)) for shoot, run in zip(shooters, runs)])
        monkeypatch.setattr(spectral, "_flows", flows)
        assert stacks.pop() == sum(map(len, runs)) and not stacks
        for shoot, t, run in zip(shooters, times, runs):
            assert sorted(shoot._pairs) == sorted(run)
            _assert_single_reads(shoot, bp, t, run)


def test_a_non_symplectic_family_fails_a_stacked_shot(monkeypatch):
    """C_t of a ``c_func`` family is checked only by the flows shot at t:
    a skew part inside [0, 1] fails the check on a stacked grid with the
    error of a single flow."""
    N = 1
    lam = np.array([[1.0], [0.0]])
    K = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def c_func(t):
        return 3.0 * t * np.eye(2) + 4.0 * t * (1.0 - t) * K

    bp = boundary_problem(
        N, np.zeros((2, 2)), [(t, c_func(t)) for t in (0.0, 1.0)], lam, lam,
        c_func=c_func,
    )
    stacks = []

    def counted(A):
        stacks.append(len(A) if A.ndim == 3 else 1)
        return expm(A)

    monkeypatch.setattr(spectral, "expm", counted)
    for call in (
        lambda: eigenvalues_near(bp, 0.5, -0.55, 1.55),
        lambda: spectral_flow(bp),
    ):
        stacks.clear()
        with pytest.raises(ValidationError) as info:
            call()
        assert info.value.reason == "flow not symplectic (check B, C)"
        assert info.value.where == "fundamental_solution"
        assert stacks[-1] > 1


def test_a_non_finite_flow_fails_the_check_stacked_or_alone():
    """A flow that is not finite, from a NaN in C_t or from an admissible
    B large enough to overflow ``expm``, fails the symplectic check, shot
    alone or anywhere in a stack, where no norm can clear it.  A NaN C
    given to ``fundamental_solution`` or returned by a ``c_func`` is named
    by the intake rule before any shot."""
    z = np.zeros((2, 2))
    nan_c = np.full((2, 2), np.nan)
    huge_b = 1e3 * np.array([[0.6, 0.8], [0.8, -0.6]])
    with np.errstate(over="ignore", invalid="ignore"):
        for B, C in ((z, nan_c), (huge_b, z)):
            with pytest.raises(ValidationError) as info:
                spectral._flows(*spectral._generator(B, C), [0.3])
            assert info.value.reason == "flow not symplectic (check B, C)"
            assert info.value.where == "fundamental_solution"
            assert _raises_not_symplectic(B, C, 0.3, stacked=True)
        assert _raises_not_symplectic(huge_b, z, 0.3)
        with pytest.raises(ValidationError) as info:
            fundamental_solution(z, nan_c, 0.3)
        assert info.value.reason == "C not finite"
        assert info.value.where == "fundamental_solution"

        lam = np.array([[1.0], [0.0]])
        bp = boundary_problem(
            1, z, [(0.0, z), (1.0, z)], lam, lam,
            c_func=lambda t: nan_c if t == 0.5 else 3.0 * t * np.eye(2),
        )
        with pytest.raises(ValidationError) as info:
            eigenvalues_near(bp, 0.5, -0.55, 1.55)
        assert info.value.reason == "C_t at t=0.5 not finite"
        assert info.value.where == "BoundaryProblem.c_at"


def test_structure_matrix_copies_are_private():
    jj = JJ(2)
    jj[:] = 7.0
    np.testing.assert_array_equal(JJ(2), _structure(2))
    z = np.zeros((4, 4))
    np.testing.assert_array_equal(
        fundamental_solution(z, z, 0.5), expm(-0.5 * _structure(2))
    )
    shared = spectral._jj(2)
    assert not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0, 0] = 1.0


# --------------------------------------------------------------------------
# eigenvalues by shooting


@pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 1.0])
def test_rotation_spectrum_is_the_exact_ladder(t):
    bp = rotation_problem()
    got = eigenvalues_near(bp, t, -4.0, 4.0)
    np.testing.assert_allclose(got, ladder(t, -4.0, 4.0), atol=1e-8)


def test_each_shooting_parameter_is_exponentiated_once(monkeypatch):
    """brentq's bracket ends and the determinant signs of a counted piece
    reuse the count's shots instead of exponentiating the same matrix
    again, and no piece without roots is halved: 50 shots.  A whole flow
    count exponentiates no (t, s) pair twice either: each family time's
    brackets, narrowed or counted, reuse its shots."""
    args = []

    def counted(A):
        # a stacked call shoots each matrix of its stack
        args.extend(a.tobytes() for a in A.reshape(-1, *A.shape[-2:]))
        return expm(A)

    monkeypatch.setattr(spectral, "expm", counted)
    got = eigenvalues_near(rotation_problem(), 0.3, -4.0, 4.0)
    np.testing.assert_allclose(got, ladder(0.3, -4.0, 4.0), atol=1e-8)
    assert args and len(set(args)) == len(args)
    assert len(args) <= 50
    args.clear()
    assert spectral_flow(rotation_problem()).value == 1
    assert args and len(set(args)) == len(args)


def test_root_on_a_grid_point_is_reported_once():
    # the second value is a point of the partition the count starts from
    lam = np.array([[1.0], [0.0]])
    for a in (0.61, float(np.linspace(-0.55, 1.55, 10)[5])):
        C = a * np.eye(2)
        bp = boundary_problem(
            1, np.zeros((2, 2)), [(0.0, C), (1.0, C)], lam, lam
        )
        np.testing.assert_allclose(
            eigenvalues_near(bp, 0.5, -0.55, 1.55), [a], atol=1e-8
        )


def test_a_one_point_shooting_grid_is_rejected():
    # (0, 0] is empty
    with pytest.raises(ValidationError) as exc:
        eigenvalues_near(rotation_problem(), 0.3, 0.0, 0.0)
    assert exc.value.where == "eigenvalues_near"


def _ladder_roots(a0, r, t, lo, hi):
    """Closed form of ``ladder_problem``'s spectrum inside (lo, hi]."""
    a = np.add(a0, np.multiply(r, t))
    s = (a[:, None] + np.pi * np.arange(-3, 4)).ravel()
    return np.sort(s[(s > lo) & (s <= hi)])


@pytest.mark.parametrize("N", [2, 3, 4])
def test_ladder_roots_match_the_closed_form(N):
    """Random ladders at 41 times."""
    lo, hi = -0.55, 1.55
    rng = np.random.default_rng(20261018 + N)
    a0 = rng.uniform(-1.6, 1.6, N)
    r = rng.uniform(-3.5, 3.5, N)
    bp = ladder_problem(a0, r)
    for t in np.linspace(0.0, 1.0, 41):
        np.testing.assert_allclose(
            eigenvalues_near(bp, t, lo, hi),
            _ladder_roots(a0, r, t, lo, hi),
            atol=1e-8,
        )


def test_three_roots_in_one_grid_cell_are_reported():
    bp = ladder_problem((0.1, 0.2, 0.3), (0.0, 0.0, 0.0), nodes=2)
    np.testing.assert_allclose(
        eigenvalues_near(bp, 0.5, -0.55, 1.55), [0.1, 0.2, 0.3], atol=1e-8
    )


def test_flow_through_a_three_root_cell_is_the_closed_form():
    # ladders from 0.1, 0.2, 0.3 at rates 1, -2, 0.5: only the second
    # passes 0, downward
    bp = ladder_problem((0.1, 0.2, 0.3), (1.0, -2.0, 0.5), nodes=2)
    assert spectral_flow(bp).value == -1


def _clustered_ladders(rng):
    """N = 3 or 4 ladders that start within 0.27 of each other, about one
    cell of the shooting grid, with both ends at least 0.05 from every
    k pi."""
    while True:
        N = int(rng.integers(3, 5))
        a0 = rng.uniform(-1.6, 1.6) + rng.uniform(0.0, 0.27, N)
        r = rng.uniform(-3.5, 3.5, N)
        ends = np.concatenate([a0, a0 + r])
        if np.all(np.abs(ends - np.pi * np.round(ends / np.pi)) >= 0.05):
            return a0, r


@pytest.fixture
def no_root_location(monkeypatch):
    """The flow count reads brackets: locating a root is an error."""

    def refused(*args, **kwargs):
        raise AssertionError("brentq called")

    monkeypatch.setattr(spectral, "brentq", refused)


def test_clustered_ladders_flow_is_the_closed_form(no_root_location):
    """Roots of these families share cells of the shooting grid; a scanner
    that bracketed one root per determinant sign change miscounted 5 of
    the 32.  No root is located."""
    rng = np.random.default_rng(978)
    for _ in range(32):
        a0, r = _clustered_ladders(rng)
        got = spectral_flow(ladder_problem(a0, r)).value
        assert got == ladder_flow(a0, r), (a0, r)


def test_coincidence_pushes_each_frame_once(monkeypatch):
    """The boundary frame lives in the box space, which is not standard;
    ``souriau`` reads its standardized frame at every sample of the Cauchy
    data path, and it is pushed once, as is each other frame."""
    pushed, boundaries = [], []
    push = Standardization.push_frame
    cauchy = spectral.cauchy_data_path

    def recording_push(std, frame):
        pushed.append(frame)
        return push(std, frame)

    def recording_cauchy(*args, **kwargs):
        path, boundary = cauchy(*args, **kwargs)
        boundaries.append(boundary)
        return path, boundary

    monkeypatch.setattr(Standardization, "push_frame", recording_push)
    monkeypatch.setattr(spectral, "cauchy_data_path", recording_cauchy)
    assert verify_coincidence(rotation_problem())["equal"]
    (boundary,) = boundaries
    assert not boundary.space.is_standard
    assert sum(f is boundary for f in pushed) == 1
    assert len({id(f) for f in pushed}) == len(pushed)


def test_flow_and_coincidence_locate_no_root(no_root_location):
    assert spectral_flow(rotation_problem()).value == 1
    assert verify_coincidence(rotation_problem()) == {
        "sf": 1, "mas": 1, "equal": True
    }
    ladders = ladder_problem((0.3, -0.3), (3.5, 3.2))
    assert spectral_flow(ladders).value == 2
    assert verify_coincidence(ladders) == {"sf": 2, "mas": 2, "equal": True}
    with pytest.raises(AssertionError, match="brentq called"):
        eigenvalues_near(rotation_problem(), 0.3, -1.0, 0.0)


def test_bracket_counts_answer_as_the_located_root():
    """(-0.75, -0.5] brackets the rotation root -0.2 pi at t = 0.3 with a
    sign change; question points 1e-9 either side of the located root
    fall inside it, and one determinant sign at each answers as the root
    does."""
    bp = rotation_problem()
    tol = spectral.DEFAULT_TOL
    spectrum = spectral._Spectrum(
        spectral._Shooter(bp, 0.3), spectral._grid(-1.0, 0.0), tol
    )
    assert spectrum.count(-1.0, 0.0) == 1
    assert spectrum.brackets == [[-0.75, -0.5]] and spectrum.points == []
    (root,) = eigenvalues_near(bp, 0.3, -1.0, 0.0)
    assert -0.75 < root < -0.5
    for q in (root - 1e-9, root + 1e-9):
        assert spectrum.count(-1.0, q) == int(root <= q)
        assert spectrum.count(q, 0.0) == int(root >= q)
    assert spectrum.count(root - 1e-9, root + 1e-9) == 1


def test_a_clockwise_shooting_path_is_ambiguous(monkeypatch):
    """The shooting path turns counterclockwise through every eigenvalue,
    so a piece whose count falls is an error, never a negative count."""

    class Clockwise(spectral._Shooter):
        def offsets(self, s):
            return -super().offsets(s)

    monkeypatch.setattr(spectral, "_Shooter", Clockwise)
    with pytest.raises(AmbiguityError) as exc:
        eigenvalues_near(rotation_problem(), 0.3, -4.0, 4.0)
    assert exc.value.where == "eigenvalues_near"


def _strong_family(N, rng):
    """Random admissible family with a strong B: its shooting path turns
    fast and unevenly in s."""
    space = standard_space(N)
    return boundary_problem(
        N,
        random_admissible(N, rng, 2.0),
        [(0.0, random_symmetric(2 * N, rng, 6.0)),
         (1.0, random_symmetric(2 * N, rng, 6.0))],
        random_lagrangian(space, rng).F,
        random_lagrangian(space, rng).F,
    )


@pytest.mark.parametrize("seed, t", [(2, 0.5), (10, 0.0), (21, 0.5)])
def test_turns_that_the_chords_miss_are_counted(seed, t):
    """Inside one grid piece an eigenphase of these shooting paths turns
    by nearly a whole turn, which the chord at the ends of the piece does
    not show: the count misses a root (seeds 10 and 21) or falls (seed 2).
    The determinant's sign, and positivity, send the piece to be halved.
    The reference is the determinant's sign on a 1e-3 grid."""
    bp = _strong_family(2, np.random.default_rng(seed))
    gen, jj = spectral._generator(bp.B, bp.c_at(t))
    ss = np.linspace(-0.55, 1.55, 2101)
    dets = [
        np.linalg.det(np.hstack([expm(gen - s * jj) @ bp.lambda0, bp.lambda1]))
        for s in ss
    ]
    want = ss[1:][np.diff(np.sign(dets)) != 0]
    np.testing.assert_allclose(
        eigenvalues_near(bp, t, -0.55, 1.55), want, atol=1.1e-3
    )


def test_close_root_pair_without_a_sign_change_is_reported():
    """Two simple roots 3.5e-3 apart inside one grid cell leave its edges
    of one sign; the piece counts two and is halved until each root has a
    piece of its own."""
    bp = ladder_problem((1.789, 1.368), (1.708, 2.192))
    np.testing.assert_allclose(
        eigenvalues_near(bp, 0.8625, -0.55, 1.55),
        [0.117007, 0.120557],
        atol=1e-6,
    )


def test_eigenvalue_multiplicity_is_reported():
    z = np.zeros((4, 4))
    lam = np.eye(4)[:, :2]
    bp = boundary_problem(2, z, [(0.0, z), (1.0, z)], lam, lam)
    got = eigenvalues_near(bp, 0.37, -1.0, 1.0)
    np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-8)


def test_trace_rows_satisfy_the_shooting_condition():
    bp = rotation_problem(samples=9)
    trace = eigenvalue_trace(bp, window=4.0)
    assert len(trace) == 9
    for t, evs in trace:
        np.testing.assert_allclose(evs, ladder(t, -4.0, 4.0), atol=1e-8)
        for s in evs:
            M = np.hstack([bp.solution(t, s) @ bp.lambda0, bp.lambda1])
            assert np.linalg.svd(M, compute_uv=False)[-1] <= 1e-8


# --------------------------------------------------------------------------
# the flow count


def test_rotation_flow_is_one():
    bp = rotation_problem()
    rep = spectral_flow(bp)
    assert rep.value == 1
    assert len(rep.epsilons) == len(rep.partition) - 1
    assert np.all(rep.epsilons > 0.0) and np.all(rep.epsilons <= 1.0)
    assert rep.diagnostics["time_samples"] == len(rep.partition)


def test_radius_is_the_largest_weyl_shift_on_the_piece(rng):
    """A piece across nodes reads C at t1 and at the nodes inside it; a
    piece inside one gap takes the gap's slope, which agrees with the read
    at t1 to rounding."""
    bp = _piecewise_linear_family(2, 7, rng)
    nodes = bp.ts
    pieces = [
        (0.0, 1.0),
        (nodes[1], nodes[4]),
        (0.5 * (nodes[2] + nodes[3]), nodes[5]),
        (nodes[3], nodes[4]),
        (nodes[2] + 0.25 * (nodes[3] - nodes[2]),
         nodes[2] + 0.75 * (nodes[3] - nodes[2])),
    ]
    counts = []
    for t0, t1 in pieces:
        c0 = bp.c_at(t0)
        inner = nodes[(nodes > t0) & (nodes < t1)]
        counts.append(inner.size)
        r = spectral._radius(bp, t0, t1)
        want = max(
            np.linalg.norm(bp.c_at(t) - c0, 2) for t in (*inner, t1)
        )
        if inner.size:
            assert r == want
        else:
            assert abs(r - want) <= 1e-12 * want
        grid = np.linspace(t0, t1, 401)
        worst = max(np.linalg.norm(bp.c_at(t) - c0, 2) for t in grid)
        assert worst <= r + 1e-12
    assert counts.count(0) == 2 and max(counts) >= 2


def test_test_values_are_admissible_inside_their_pieces(rng):
    """Phillips admissibility, checked from the spectra alone: on each
    piece of the partition, its ends included, no eigenvalue comes near
    its test value."""
    bp = _piecewise_linear_family(2, 5, rng)
    rep = spectral_flow(bp)
    tol = spectral.DEFAULT_TOL
    closest = np.inf
    for t0, t1, eps in zip(rep.partition, rep.partition[1:], rep.epsilons):
        for t in np.linspace(t0, t1, 5):
            evs = eigenvalues_near(bp, t, -0.55, 1.55)
            if evs.size:
                closest = min(closest, np.min(np.abs(evs - eps)))
    assert closest > tol.clearance


@pytest.mark.parametrize(
    "make, value, samples",
    [
        (rotation_problem, 1, 9),
        (lambda: ladder_problem((0.3, -0.3), (3.5, 3.2)), 2, 10),
    ],
    ids=["rotation", "ladders"],
)
def test_pieces_block_balls_around_their_start_only(make, value, samples):
    """Balls around the spectrum at t0 alone certify a piece; balls around
    the t1 spectrum too would halve these families into 10 and 13
    samples."""
    rep = spectral_flow(make())
    assert rep.value == value
    assert len(rep.partition) == samples


def _located_partition(bp, tol=spectral.DEFAULT_TOL):
    """Phillips' count of the flow on located eigenvalues: the balls
    (a - r, a + r) around each root of ``eigenvalues_near`` at t0.
    Returns (value, partition)."""
    spectra = {}

    def spec(t):
        if t not in spectra:
            spectra[t] = eigenvalues_near(
                bp, t, spectral._DETECT_LO, spectral._DETECT_HI, tol
            )
        return spectra[t]

    def split(ts, i):
        ts.insert(i + 1, 0.5 * (ts[i] + ts[i + 1]))

    ts = [0.0, 1.0]
    total, _, _ = _phillips(
        ts, spec, lambda t0, t1: spectral._radius(bp, t0, t1),
        spectral._REACH, split, tol.flow_snap, tol,
    )
    return total, ts


@pytest.mark.parametrize(
    "a0, r, nodes",
    [
        ((-0.668, -0.377, 1.279), (2.451, 1.047, -3.948), 6),
        ((1.417, 0.219, -1.047), (-3.571, 2.015, -3.74), 4),
        ((0.298, 0.421, 0.004), (-3.282, 3.004, 1.209), 2),
        ((0.311, -0.494, -0.234), (-2.918, -2.836, -0.099), 6),
    ],
)
def test_brackets_certify_what_located_roots_certify(a0, r, nodes):
    """When the balls around the brackets leave no test value, halving
    the brackets whose balls close the widest gap frees one wherever the
    located roots' balls would: the flow takes the time samples of a
    count on located roots.  Each family took one or two more when the
    widest bracket was halved down to a quarter of the radius; in the
    last, two brackets must both be halved before its gap opens."""
    bp = ladder_problem(a0, r, nodes=nodes)
    value, partition = _located_partition(bp)
    rep = spectral_flow(bp)
    assert rep.value == value == ladder_flow(a0, r)
    assert rep.partition.tolist() == partition


def test_reversed_rotation_flows_down():
    def c_func(t):
        return (0.5 - t) * np.pi * np.eye(2)

    ts = np.linspace(0.0, 1.0, 41)
    lam = np.array([[1.0], [0.0]])
    bp = boundary_problem(
        1, np.zeros((2, 2)), [(t, c_func(t)) for t in ts], lam, lam,
        c_func=c_func,
    )
    out = verify_coincidence(bp)
    assert out == {"sf": -1, "mas": -1, "equal": True}


def test_kernel_free_constant_family_has_zero_flow():
    C = 0.3 * np.eye(2)
    ts = np.linspace(0.0, 1.0, 11)
    lam = np.array([[1.0], [0.0]])
    bp = boundary_problem(
        1, np.zeros((2, 2)), [(t, C) for t in ts], lam, lam
    )
    out = verify_coincidence(bp)
    assert out == {"sf": 0, "mas": 0, "equal": True}


def test_a_flow_shoots_each_family_time_once_per_reach(monkeypatch):
    """One ``_Shooter`` per partition time, and no ``_flows`` stack that
    holds an s outside the detection grid; the Cauchy data path takes one
    ``_flows`` and one ``lagrangian`` call at any number of nodes; and on
    a sampled family a single-gap piece's radius takes no spectral norm
    of its own."""
    built, calls = [], []
    init, flows, frames = (
        spectral._Shooter.__init__, spectral._flows, spectral.lagrangian
    )

    def counted_init(self, bp, t):
        built.append(t)
        init(self, bp, t)

    def counted_flows(gen, jj, ss):
        calls.append((np.asarray(gen).tobytes(), list(ss)))
        return flows(gen, jj, ss)

    def counted_frames(space, M):
        calls.append(("lagrangian", np.shape(M)))
        return frames(space, M)

    monkeypatch.setattr(spectral._Shooter, "__init__", counted_init)
    monkeypatch.setattr(spectral, "_flows", counted_flows)
    monkeypatch.setattr(spectral, "lagrangian", counted_frames)
    bp = rotation_problem()
    tol = spectral.DEFAULT_TOL
    rep = spectral_flow(bp, tol=tol)
    assert sorted(built) == sorted(rep.partition.tolist())
    shot = [s for g, ss in calls if g != "lagrangian" for s in ss]
    assert shot
    assert all(spectral._DETECT_LO <= s <= spectral._DETECT_HI for s in shot)

    for nodes in (2, 9, 33):
        many = rotation_problem(samples=nodes)
        calls.clear()
        cauchy_data_path(many)
        assert [c[0] == "lagrangian" for c in calls] == [False, True]
        assert len(calls[0][1]) == nodes and calls[1][1][0] == nodes + 1

    norms = []
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        norms.append(ord)
        return norm(x, ord, *args, **kwargs)

    sampled = _piecewise_linear_family(2, 5, np.random.default_rng(3))
    ts = sampled.ts
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    for i in range(len(ts) - 1):
        a, b = ts[i], ts[i + 1]
        spectral._radius(sampled, a, b)
        spectral._radius(sampled, a + 0.25 * (b - a), a + 0.5 * (b - a))
    # the gap norms, once per problem in one stacked call
    assert norms == [2]
    spectral._radius(sampled, ts[1], ts[3])
    assert norms == [2, 2]


def test_the_read_ahead_leaves_the_report_bitwise_alone(monkeypatch):
    """The flow count shoots the times of the Weyl partition ahead, in one
    stacked read (``_read_ahead``).  Without it, each time shot when the
    count reaches it, the report is bitwise the same, value, partition
    and epsilons, on sampled families with B != 0, ``c_func`` families
    and ladders; the read ahead takes fewer ``_flows`` calls.  A read
    ahead that fails is dropped, with the shooters it read: the report is
    still the same."""
    rng = np.random.default_rng(20261021)
    problems = [rotation_problem()]
    for N in (1, 2, 3):
        problems += [
            _piecewise_linear_family(N, 5, rng),
            random_boundary_family(N, rng, samples=12, c_bound=4.0),
            ladder_problem(rng.uniform(-1.6, 1.6, N),
                           rng.uniform(-3.5, 3.5, N)),
        ]
    calls = []
    flows = spectral._flows

    def counted(gen, jj, ss):
        calls.append(len(ss))
        return flows(gen, jj, ss)

    monkeypatch.setattr(spectral, "_flows", counted)
    ahead = [spectral_flow(bp) for bp in problems]
    stacked = len(calls)
    calls.clear()
    read_ahead = spectral._read_ahead

    def failing(*args):
        read_ahead(*args)
        raise AmbiguityError("failed after its read", where="spectral_flow")

    for replaced in (lambda *args: {}, failing):
        monkeypatch.setattr(spectral, "_read_ahead", replaced)
        for bp, want in zip(problems, ahead):
            got = spectral_flow(bp)
            assert got.value == want.value
            assert got.partition.tobytes() == want.partition.tobytes()
            assert got.epsilons.tobytes() == want.epsilons.tobytes()
        assert stacked < len(calls)
        calls.clear()
    assert any(rep.value != 0 for rep in ahead)
    assert any(np.any(bp.B) for bp in problems)


def test_a_read_ahead_that_fails_leaves_the_counts_own_error():
    """The read ahead halves all of [0, 1] before it shoots, so it reads
    a C_t that the count reaches only after it has shot t = 0.  The count
    raises what it meets first: the flows at t = 0 are not symplectic (a
    skew C_0 from ``c_func``), before C_0.75, which is not finite, is
    read."""
    lam = np.array([[1.0], [0.0]])
    z = np.zeros((2, 2))
    skew = 0.1 * spectral._jj(1)

    def c_func(t):
        if t == 0.75:
            return np.full((2, 2), np.nan)
        return skew if t == 0.0 else 3.0 * t * np.eye(2)

    bp = boundary_problem(
        1, z, [(0.0, z), (1.0, 3.0 * np.eye(2))], lam, lam, c_func=c_func
    )
    with pytest.raises(ValidationError) as info:
        spectral._radius(bp, 0.5, 0.75)
    assert info.value.reason == "C_t at t=0.75 not finite"
    with pytest.raises(ValidationError) as info:
        spectral_flow(bp)
    assert info.value.reason == "flow not symplectic (check B, C)"
    assert info.value.where == "fundamental_solution"


def test_one_stack_shoots_every_time_of_the_weyl_partition(monkeypatch):
    """On the rotation family C_t = (t - 1/2) pi I the radius of a piece
    is pi times its width, so the Weyl partition halves [0, 1] down to
    eighths, and the count needs no other time.  The first ``_flows``
    call holds the whole detection grid of all nine times; after it only
    the determinant signs that place a bracket's root and the midpoints
    that split a grid piece are shot, one s each.  No shot lies outside
    the detection grid."""
    calls = []
    flows = spectral._flows

    def counted(gen, jj, ss):
        gens = np.broadcast_to(gen, (len(ss), *np.shape(gen)[-2:]))
        calls.append(({g.tobytes() for g in gens}, list(ss)))
        return flows(gen, jj, ss)

    monkeypatch.setattr(spectral, "_flows", counted)
    bp = rotation_problem()
    rep = spectral_flow(bp)
    weyl = np.linspace(0.0, 1.0, 9)
    np.testing.assert_array_equal(rep.partition, weyl)
    grid = spectral._grid(spectral._DETECT_LO, spectral._DETECT_HI)
    assert calls[0][0] == {
        spectral._generator(bp.B, bp.c_at(t))[0].tobytes() for t in weyl
    }
    assert calls[0][1] == grid * len(weyl)
    assert calls[1:] and all(len(ss) == 1 for _, ss in calls[1:])
    shot = [s for _, ss in calls for s in ss]
    assert all(spectral._DETECT_LO <= s <= spectral._DETECT_HI for s in shot)


def test_a_window_shot_that_fails_at_an_end_is_the_windows_error():
    """A C_0 that is not finite is refused by the intake rule of
    ``BoundaryProblem.c_at`` before any shot at t = 0."""
    lam = np.array([[1.0], [0.0]])
    z = np.zeros((2, 2))

    def c_func(t):
        return np.full((2, 2), np.nan) if t == 0.0 else 3.0 * t * np.eye(2)

    bp = boundary_problem(
        1, z, [(0.0, z), (1.0, 3.0 * np.eye(2))], lam, lam, c_func=c_func
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValidationError) as info:
            spectral_flow(bp)
    assert info.value.reason == "C_t at t=0.0 not finite"
    assert info.value.where == "BoundaryProblem.c_at"


def test_a_c_func_that_is_not_finite_inside_is_a_validation_error():
    """A C_t that is not finite inside (0, 1) is named when the flow
    count reads it, not halved down to an AmbiguityError: the radius of
    the first half reads C_0.5."""
    lam = np.array([[1.0], [0.0]])
    z = np.zeros((2, 2))

    def c_func(t):
        if 0.0 < t < 1.0:
            return np.full((2, 2), np.inf)
        return 3.0 * t * np.eye(2)

    bp = boundary_problem(
        1, z, [(0.0, z), (1.0, 3.0 * np.eye(2))], lam, lam, c_func=c_func
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValidationError) as info:
            spectral_flow(bp)
    assert info.value.reason == "C_t at t=0.5 not finite"
    assert info.value.where == "BoundaryProblem.c_at"


def _c_func_problem(c_func):
    """The N = 1 family whose C_t is ``c_func``, sampled at t = 0, 1 from
    the ladder (0.3 + 3.5 t) Id."""
    lam = np.array([[1.0], [0.0]])
    return boundary_problem(
        1, np.zeros((2, 2)),
        [(t, (0.3 + 3.5 * t) * np.eye(2)) for t in (0.0, 1.0)],
        lam, lam, c_func=c_func,
    )


@pytest.mark.parametrize(
    "c_func, reason",
    [
        (lambda t: np.eye(3), "C_t at t=1.0 has shape (3, 3), expected (2, 2)"),
        (lambda t: "C", "C_t at t=1.0 is not numeric"),
        # once taken as 1 with the imaginary part dropped
        (lambda t: (0.3 + 3.5 * t) * np.eye(2) + 5j * np.eye(2),
         "C_t at t=1.0 must be real"),
    ],
    ids=["shape", "string", "complex"],
)
def test_c_func_values_go_through_the_intake_rule(c_func, reason):
    """Every C_t that ``c_func`` returns is taken in as a real finite
    2N x 2N matrix, as the sampled family is."""
    bp = _c_func_problem(c_func)
    for call in (spectral_flow, verify_coincidence):
        with pytest.raises(ValidationError) as info:
            call(bp)
        assert info.value.reason == reason
        assert info.value.where == "BoundaryProblem.c_at"
    assert spectral_flow(_c_func_problem(
        lambda t: (0.3 + 3.5 * t) * np.eye(2)
    )).value == 1


def test_the_shooting_count_splits_below_max_samples(monkeypatch):
    """The count of a shooting grid halves its pieces while it holds
    fewer than ``MAX_SAMPLES`` points: at the count's own size the roots
    are the same, one point fewer raises."""
    bp = ladder_problem((0.1, 0.2, 0.3, 1.2), (1.0, -2.0, 0.5, 3.0))
    sizes = []
    phillips = spectral._phillips

    def sized(ts, *args):
        out = phillips(ts, *args)
        sizes.append(len(ts))
        return out

    monkeypatch.setattr(spectral, "_phillips", sized)
    want = eigenvalues_near(bp, 1.0, -0.55, 1.55)
    size = max(sizes)
    window = len(spectral._grid(-0.55, 1.55))
    assert size > window + 1
    monkeypatch.setattr(spectral, "MAX_SAMPLES", size)
    np.testing.assert_array_equal(eigenvalues_near(bp, 1.0, -0.55, 1.55), want)
    monkeypatch.setattr(spectral, "MAX_SAMPLES", size - 1)
    with pytest.raises(AmbiguityError) as info:
        eigenvalues_near(bp, 1.0, -0.55, 1.55)
    assert info.value.where == "eigenvalues_near"
    s0, s1 = map(float, re.fullmatch(
        r"no admissible test angle on \((\S+), (\S+)\]", info.value.reason
    ).groups())
    assert -0.55 <= s0 < s1 <= 1.55


@pytest.mark.parametrize("cap", ["_FLOW_MAX_SAMPLES", "_FLOW_MIN_PIECE"])
def test_the_flow_count_splits_up_to_its_caps(monkeypatch, cap):
    """The flow count halves a piece while the partition holds at most
    ``_FLOW_MAX_SAMPLES`` times and the piece is wider than
    ``_FLOW_MIN_PIECE``: at the report's own partition the report is the
    same, one step tighter raises."""
    bp = rotation_problem()
    want = spectral_flow(bp)
    size = len(want.partition)
    # every piece that was split is twice as wide as the narrowest one
    split = 2.0 * np.diff(want.partition).min()
    assert size > 2
    met, missed = {
        "_FLOW_MAX_SAMPLES": (size - 1, size - 2),
        "_FLOW_MIN_PIECE": (np.nextafter(split, 0.0), split),
    }[cap]
    monkeypatch.setattr(spectral, cap, met)
    got = spectral_flow(bp)
    assert got.value == want.value
    np.testing.assert_array_equal(got.partition, want.partition)
    np.testing.assert_array_equal(got.epsilons, want.epsilons)
    monkeypatch.setattr(spectral, cap, missed)
    with pytest.raises(AmbiguityError) as info:
        spectral_flow(bp)
    assert info.value.reason == "no admissible test value (tangential crossing?)"
    assert info.value.where == "spectral_flow"


def test_flow_is_additive_over_halves(rng):
    for N in (1, 2):
        bp = random_boundary_family(N, rng, samples=120)
        whole = spectral_flow(bp).value

        def restrict(a, b):
            ts = np.linspace(0.0, 1.0, 61)
            cf = lambda u: bp.c_at(a + (b - a) * u)
            return boundary_problem(
                N, bp.B, [(u, cf(u)) for u in ts],
                bp.lambda0, bp.lambda1, c_func=cf,
            )

        first = spectral_flow(restrict(0.0, 0.5)).value
        second = spectral_flow(restrict(0.5, 1.0)).value
        assert whole == first + second


def test_flow_is_conjugation_invariant(rng):
    N = 2
    R = expm(0.4 * JJ(N))   # orthogonal and symplectic
    bp = random_boundary_family(N, rng, samples=120)
    ts = np.linspace(0.0, 1.0, 121)
    cf = lambda t: R.T @ bp.c_at(t) @ R
    conj = boundary_problem(
        N,
        R.T @ bp.B @ R,
        [(t, cf(t)) for t in ts],
        R.T @ bp.lambda0,
        R.T @ bp.lambda1,
        c_func=cf,
    )
    assert spectral_flow(conj).value == spectral_flow(bp).value


# --------------------------------------------------------------------------
# the Maslov side


def test_flat_family_has_constant_cauchy_data():
    z = np.zeros((2, 2))
    lam = np.array([[1.0], [0.0]])
    bp = boundary_problem(1, z, [(0.0, z), (1.0, z)], lam, lam)
    path, boundary = cauchy_data_path(bp)
    bs = box_space(standard_space(1))
    for t in (0.0, 0.5, 1.0):
        assert same_span(path.at(t), bs.delta)
    assert same_span(
        boundary, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    )


def test_cauchy_data_follows_the_flow():
    bp = rotation_problem(samples=9)
    path, _ = cauchy_data_path(bp)
    bs = box_space(standard_space(1))
    G = bs.space.gram
    for t in (0.0, 0.25, 0.8):
        Phi = bp.solution(t, 0.0)
        want = np.vstack([np.eye(2), Phi])
        assert same_span(path.at(t), want)
        F = path.at(t).F
        assert np.linalg.norm(F.T @ G @ F, 2) <= 1e-10


def test_rotation_coincidence():
    out = verify_coincidence(rotation_problem())
    assert out == {"sf": 1, "mas": 1, "equal": True}


def test_cauchy_crossing_matches_eigenvalue_direction():
    """The single eigenvalue crosses 0 upward at t = 1/2; the Cauchy-data
    path must cross the boundary reference there with a positive form."""
    bp = rotation_problem()
    path, boundary = cauchy_data_path(bp)
    ts = find_crossings(path, boundary)
    assert len(ts) == 1 and abs(ts[0] - 0.5) <= 1e-8
    c = crossing_form(path, boundary, ts[0])
    assert c.signature == (1, 0)
    assert maslov(path, boundary).value == spectral_flow(bp).value


def test_random_families_verify_coincidence(rng):
    for N in (1, 2):
        for _ in range(2):
            bp = random_boundary_family(N, rng, samples=120)
            out = verify_coincidence(bp)
            assert out["equal"], out


# --------------------------------------------------------------------------
# the boundary pairing


def test_skew_pairing_of_the_operator_is_the_boundary_form(rng):
    """Quadrature check of integration by parts for JJ(d/dt + B) + C: the
    symmetric parts drop (C symmetric, B symmetric and anticommuting) and
    what remains is the boundary form JJ at t=1 minus JJ at t=0 applied to
    the traces, i.e. <Au,v> - <u,Av> = bu . diag(JJ, -JJ) . bv.  The gram
    matrix of the doubled space is exactly diag(JJ, -JJ), so this equals
    omega_box(bu, bv)."""
    N = 1
    jj = JJ(N)
    B = random_admissible(N, rng)
    C = rng.standard_normal((2, 2))
    C = C + C.T

    def u(t):
        return np.array([np.sin(1.0 + 2.0 * t), np.cos(t) - 0.3 * t**2])

    def du(t):
        return np.array([2.0 * np.cos(1.0 + 2.0 * t), -np.sin(t) - 0.6 * t])

    def v(t):
        return np.array([t**3 - 0.5, np.exp(0.4 * t)])

    def dv(t):
        return np.array([3.0 * t**2, 0.4 * np.exp(0.4 * t)])

    ts = np.linspace(0.0, 1.0, 2001)

    def apply_op(f, df):
        return np.array([jj @ (df(t) + B @ f(t)) + C @ f(t) for t in ts])

    U = np.array([u(t) for t in ts])
    V = np.array([v(t) for t in ts])
    AU = apply_op(u, du)
    AV = apply_op(v, dv)
    green = simpson((AU * V).sum(axis=1), x=ts) - simpson(
        (U * AV).sum(axis=1), x=ts
    )

    bu = np.concatenate([u(0.0), u(1.0)])
    bv = np.concatenate([v(0.0), v(1.0)])
    form = np.block(
        [[jj, np.zeros((2, 2))], [np.zeros((2, 2)), -jj]]
    )
    np.testing.assert_allclose(green, bu @ form @ bv, atol=1e-9)
    G = box_space(standard_space(N)).space.gram
    np.testing.assert_allclose(G, form, atol=1e-14)
    np.testing.assert_allclose(green, bu @ G @ bv, atol=1e-9)


@pytest.mark.parametrize("c, flow", [(6.0, 1), (6.5, 2), (12.5, 3)])
def test_coincidence_on_a_fast_family(c, flow):
    """With B = 0, both boundary conditions horizontal and C_t going
    linearly from 0.1 I to c I, one eigenvalue crosses 0 for each
    multiple of pi that the scale passes.  The Cauchy-data path turns
    by whole turns inside its one gap, which the chord at the two nodes
    misses; the certified radius halves the gap until none is missed."""
    lam = np.array([[1.0], [0.0]])
    family = [(0.0, 0.1 * np.eye(2)), (1.0, c * np.eye(2))]
    bp = boundary_problem(1, np.zeros((2, 2)), family, lam, lam)
    assert verify_coincidence(bp) == {"sf": flow, "mas": flow, "equal": True}


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("with_b", [False, True])
def test_the_cauchy_radius_bounds_each_piece(N, with_b):
    """On a sampled family every eigenphase of the pair unitary W_t of
    the Cauchy-data path against its boundary stays, on a fine grid
    inside each certified piece [t0, t1], within the piece's radius r of
    the spectrum at t0, and every eigenvalue of W_t0^H W_t within r of
    1, the bound the determinant lift reads."""
    rng = np.random.default_rng(3900 + 10 * N + with_b)
    bp = _piecewise_linear_family(N, 4, rng, with_b=with_b)
    path, boundary = cauchy_data_path(bp)
    ts = [t for t, _ in path.samples]
    assert path._radius is not None and len(ts) > len(bp.ts)
    for t0, t1 in zip(ts, ts[1:]):
        r = path._radius(t0, t1)
        assert r <= np.pi - spectral.EPS_CAP
        inner = np.linspace(t0, t1, 6)[1:].tolist()
        W0, *Ws = souriau(boundary, [path.at(t) for t in [t0, *inner]])
        start = np.angle(np.linalg.eigvals(W0))
        for W in Ws:
            turn = np.angle(np.linalg.eigvals(W0.conj().T @ W))
            assert np.abs(turn).max() <= r
            phases = np.angle(np.linalg.eigvals(W))
            apart = np.angle(np.exp(1j * (phases[:, None] - start)))
            assert np.abs(apart).min(axis=1).max() <= r


def _over_budget_family(seed):
    """N = 1 with ||B||_2 about 5 and one gap: the log norm mu of the
    flow's generator reaches 7.5 to 13, and e^mu makes the gap's certified
    partition far larger than ``_CAUCHY_MAX_PIECES``."""
    rng = np.random.default_rng(seed)
    B = random_admissible(1, rng, 1.5)
    family = [(t, random_symmetric(2, rng, 3.0)) for t in (0.0, 1.0)]
    space = standard_space(1)
    return boundary_problem(
        1, B, family, random_lagrangian(space, rng).F,
        random_lagrangian(space, rng).F,
    )


@pytest.mark.parametrize(
    "bp, mas",
    [(rotation_problem(), 1), (_over_budget_family(3), 1),
     (_over_budget_family(26), -1)],
    ids=["c_func", "over-budget-3", "over-budget-26"],
)
def test_a_c_func_family_or_one_over_the_budget_keeps_its_nodes(bp, mas):
    """The Cauchy-data path of a ``c_func`` family, and of a family whose
    certified partition would pass the piece budget, is sampled at the
    family nodes alone and carries no radius: the chord route, with the
    value it gave before the certificate, which is the flow's."""
    path, _ = cauchy_data_path(bp)
    assert [t for t, _ in path.samples] == bp.ts.tolist()
    assert path._radius is None
    assert verify_coincidence(bp) == {"sf": mas, "mas": mas, "equal": True}


def test_an_overflowing_log_norm_is_no_certificate():
    """A constant family whose log norm overflows e^mu has no certified
    partition (0 times inf is no size), so it takes the chord route,
    whose shots fail the symplectic check as before."""
    lam = np.array([[1.0], [0.0]])
    family = [(0.0, np.eye(2)), (1.0, np.eye(2))]
    bp = boundary_problem(1, np.diag([800.0, -800.0]), family, lam, lam)
    assert spectral._cauchy_radius(bp) is None
    with np.errstate(all="ignore"), pytest.raises(ValidationError) as err:
        cauchy_data_path(bp)
    assert err.value.reason == "flow not symplectic (check B, C)"
