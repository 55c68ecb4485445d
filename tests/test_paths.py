"""Path containers and the eigenvalue-counting index."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from masidx import (
    DEFAULT_TOL,
    AmbiguityError,
    UnitaryPath,
    ValidationError,
    catenate,
    complexify_vectors,
    find_crossings,
    gamma_reduce_path,
    haar_unitary,
    horizontal_frame,
    lagrangian,
    lagrangian_path,
    maslov,
    pair_maslov,
    polarized_pair,
    random_lagrangian,
    reverse,
    souriau,
    standard_space,
    to_unitary_path,
    unitary_maslov,
    unitary_path,
    unitary_path_from_function,
    vertical_frame,
)
from conftest import (
    geodesic_nodes,
    line_path,
    random_spinner,
    random_structure_space,
    random_unitary_curve,
    rotating_block_loop,
    schur_lagrangian_route,
    spinner_expected,
    spinner_path,
)
from masidx import PreconditionError, cli, paths
from masidx.paths import (
    _PENCIL,
    EPS_CAP,
    GeodesicPath,
    _test_value,
    geodesic_path,
    lagrangian_geodesic,
)
from oracles import (
    boxed_pair_maslov,
    floor_count,
    schur_geodesic_path,
    unitary_oracle,
)

SP1 = standard_space(1)
SP3 = standard_space(3)


def scalar_path(phase_of_t, num=17):
    return unitary_path_from_function(
        lambda t: np.array([[np.exp(1j * phase_of_t(t))]]), num=num
    )


# --------------------------------------------------------------------------
# containers


def test_paths_need_ordered_unit_interval_times():
    U = np.eye(1)
    with pytest.raises(ValidationError):
        unitary_path([(0.0, U)])
    with pytest.raises(ValidationError):
        unitary_path([(0.0, U), (0.5, U)])
    with pytest.raises(ValidationError):
        unitary_path([(0.2, U), (1.0, U)])
    with pytest.raises(ValidationError):
        unitary_path([(0.0, U), (0.5, U), (0.4, U), (1.0, U)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_times_are_rejected(bad):
    # every comparison with NaN is false, so no ordering check catches it
    U = np.eye(1)
    with pytest.raises(ValidationError, match="finite"):
        unitary_path([(0.0, U), (bad, U), (1.0, U)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_geodesic_path_rejects_a_non_finite_node(bad):
    node = np.eye(2, dtype=complex)
    node[0, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
        ValidationError
    ) as info:
        geodesic_path([0.0, 1.0], [np.eye(2), node], [0.0, 1.0])
    assert info.value.where == "UnitaryPath"


def test_at_needs_a_refiner_between_samples():
    U0, U1 = np.eye(1), np.array([[np.exp(0.2j)]])
    p = unitary_path([(0.0, U0), (1.0, U1)])
    np.testing.assert_allclose(p.at(0.0), U0)
    np.testing.assert_allclose(p.at(1.0), U1)
    with pytest.raises(AmbiguityError):
        p.at(0.5)
    q = scalar_path(lambda t: 0.2 * t)
    np.testing.assert_allclose(q.at(0.5), [[np.exp(0.1j)]])


def test_unitary_geodesic_joins_its_endpoints(rng):
    V = haar_unitary(4, rng)
    phases = np.array([0.3, -1.1, 2.0, -2.9])
    U0 = haar_unitary(4, rng)
    U1 = U0 @ (V * np.exp(1j * phases)) @ V.conj().T
    g = geodesic_path([0.0, 1.0], [U0, U1], [0.0, 1.0])
    np.testing.assert_allclose(g.at(0.0), U0, atol=1e-12)
    np.testing.assert_allclose(g.at(1.0), U1, atol=1e-12)
    # constant speed: the midpoint carries half of every principal angle
    mid = U0 @ (V * np.exp(0.5j * phases)) @ V.conj().T
    np.testing.assert_allclose(g.at(0.5), mid, atol=1e-12)
    with pytest.raises(PreconditionError) as err:
        geodesic_path([0.0, 1.0], [U0, -U0], [0.0, 1.0])
    assert err.value.where == "path[0]"


def test_catenate_checks_junctions():
    a = scalar_path(lambda t: 0.3 * t)
    b = scalar_path(lambda t: 0.3 + 0.3 * t)
    c = catenate(a, b)
    np.testing.assert_allclose(c.at(0.5), [[np.exp(0.3j)]])
    np.testing.assert_allclose(c.at(0.25), [[np.exp(0.15j)]])
    np.testing.assert_allclose(c.at(1.0), [[np.exp(0.6j)]])
    with pytest.raises(ValidationError):
        catenate(a, scalar_path(lambda t: 1.0 + t))
    h = horizontal_frame(SP1)
    lag = lagrangian_path([(0.0, h), (1.0, h)])
    with pytest.raises(ValidationError):
        catenate(a, lag)


def test_reverse_flips_time():
    p = scalar_path(lambda t: 0.4 * t)
    r = reverse(p)
    np.testing.assert_allclose(r.at(0.0), p.at(1.0))
    np.testing.assert_allclose(r.at(0.3), p.at(0.7))


def test_lagrangian_samples_must_share_one_space():
    one, two = horizontal_frame(SP1), horizontal_frame(standard_space(2))
    with pytest.raises(ValidationError, match="samples from different"):
        lagrangian_path([(0.0, one), (1.0, two)])


# --------------------------------------------------------------------------
# counting fixtures


@pytest.mark.parametrize("k", range(-3, 4))
def test_winding_loops(k):
    num = max(17, 8 * abs(k) + 9)
    p = unitary_path_from_function(
        lambda t: np.diag(
            [np.exp(1j * (2 * np.pi * k * t + 0.3)), np.exp(1.1j)]
        ),
        num=num,
    )
    assert unitary_maslov(p).value == k
    assert unitary_oracle(p) == k


@pytest.mark.parametrize("k", [13, -13])
def test_fast_winding_between_samples(k):
    # each gap turns 2 pi * 13 / 16, which the end chord reads as a short
    # step back; only the midpoint shows that the gap is no geodesic
    p = scalar_path(lambda t: 2 * np.pi * k * t + 0.3)
    assert unitary_maslov(p).value == k


def test_accelerating_phase_between_samples():
    # the last gap turns 4.43: a short step back at its ends, and its
    # midpoint is 2.09 ahead, not the geodesic midpoint 0.93 back
    p = scalar_path(lambda t: 0.3 + 12.3 * t * t, num=6)
    assert unitary_maslov(p).value == 2


def test_small_arc_through_minus_one():
    p = scalar_path(lambda t: np.pi + (2.0 * t - 1.0) * 0.2)
    assert unitary_maslov(p).value == 1


def test_half_turn_ending_on_minus_one():
    p = scalar_path(lambda t: np.pi * t)
    assert unitary_maslov(p).value == 1


def test_constant_paths_count_zero():
    assert unitary_maslov(scalar_path(lambda t: 0.7)).value == 0
    # even when parked exactly on the counted eigenvalue
    assert unitary_maslov(scalar_path(lambda t: np.pi)).value == 0


@pytest.mark.parametrize(
    "phase, expected",
    [
        (lambda t: np.pi - 0.2 + 0.2 * t, 1),   # arrive from below
        (lambda t: np.pi + 0.2 * t, 0),          # leave upward
        (lambda t: np.pi - 0.2 * t, -1),         # leave downward
        (lambda t: np.pi + 0.2 - 0.2 * t, 0),    # arrive from above
    ],
)
def test_endpoint_conventions(phase, expected):
    assert unitary_maslov(scalar_path(phase)).value == expected


def test_conjugate_path_negates_clear_counts(rng):
    """Mirroring the spectrum flips the count, provided neither endpoint
    sits on the counted eigenvalue (there the convention is one-sided)."""
    trials = 0
    while trials < 5:
        phases = rng.uniform(-np.pi, np.pi, 3)
        rates = rng.uniform(0.3, 1.7, 3) * rng.choice([-1.0, 1.0], 3)
        ends = np.concatenate([phases - np.pi, phases + np.pi * rates - np.pi])
        gap = np.abs(ends - 2 * np.pi * np.round(ends / (2 * np.pi)))
        if gap.min() < 0.05:
            continue
        trials += 1
        up = unitary_path_from_function(
            lambda t: np.diag(np.exp(1j * (phases + np.pi * rates * t))),
            num=33,
        )
        conj = unitary_path_from_function(
            lambda t: np.diag(np.exp(-1j * (phases + np.pi * rates * t))),
            num=33,
        )
        assert unitary_maslov(conj).value == -unitary_maslov(up).value
        assert unitary_maslov(up).value == spinner_expected(phases, rates)


def test_sampling_density_does_not_change_the_value(rng):
    phases = np.array([0.4, -1.3, 2.2])
    rates = np.array([1.4, -0.9, 0.6])
    values = []
    for num in (7, 33, 101):
        path, ref = spinner_path(SP3, phases, rates, rng=rng, num=num)
        values.append(maslov(path, ref).value)
    assert values[0] == values[1] == values[2] == spinner_expected(
        phases, rates
    )


def test_reparametrization_invariance(rng):
    phases = np.array([0.4, -1.3, 2.2])
    rates = np.array([1.4, -0.9, 0.6])
    path, ref = spinner_path(SP3, phases, rates, rng=rng)
    warped, _ = spinner_path(SP3, phases, rates, rng=None, num=65)
    # cubically slowed clock, same image and endpoints
    base, ref2 = spinner_path(SP3, phases, rates, rng=None)
    from masidx import lagrangian_path_from_function

    cubed = lagrangian_path_from_function(
        lambda t: base.at(t**3), num=65
    )
    assert maslov(path, ref).value == maslov(cubed, ref2).value


def test_catenation_is_additive():
    # half turn, then its continuation; junction sits exactly on -1
    a = scalar_path(lambda t: np.pi * t)
    b = scalar_path(lambda t: np.pi * (1.0 + t))
    whole = catenate(a, b)
    ma, mb = unitary_maslov(a).value, unitary_maslov(b).value
    assert (ma, mb) == (1, 0)
    assert unitary_maslov(whole).value == ma + mb == 1


def test_path_against_its_own_reverse_cancels(rng):
    path, ref, expected = random_spinner(SP3, rng)
    back = reverse(path)
    assert maslov(path, ref).value == expected
    assert maslov(back, ref).value == -expected
    loop = catenate(path, back)
    assert maslov(loop, ref).value == 0


def test_block_rotation_sign_fixture():
    """One vertical direction swept through the horizontal: index +1, the
    sign convention anchor."""
    loop = rotating_block_loop(SP1, 1)
    assert maslov(loop, horizontal_frame(SP1)).value == 1


def test_geometric_line_sweep():
    # quarter turn from 30 to 60 degrees misses the horizontal: 0
    p = line_path(SP1, np.pi / 6, np.pi / 3)
    assert maslov(p, horizontal_frame(SP1)).value == 0
    # 150 to 210 degrees passes through it once
    q = line_path(SP1, 5 * np.pi / 6, 7 * np.pi / 6)
    assert maslov(q, horizontal_frame(SP1)).value == 1
    # same sweep against a reference it never meets
    tilted = line_path(SP1, 5 * np.pi / 6, 7 * np.pi / 6)
    ref = line_path(SP1, np.pi / 4, np.pi / 4).samples[0][1]
    assert maslov(tilted, ref).value == 0


def test_report_internals_are_consistent(rng):
    path, ref, expected = random_spinner(SP3, rng)
    rep = maslov(path, ref)
    assert rep.value == expected
    assert len(rep.epsilons) == len(rep.partition) - 1
    assert len(rep.k_counts) == len(rep.partition) - 1
    total = sum(hi - lo for lo, hi in rep.k_counts)
    assert total == rep.value
    assert rep.trace.values.shape[1] == 3


def _matched_phases(spectra):
    """Eigenphases in [0, 2 pi), each row ordered by the least total
    circular distance to the row before it."""
    rows = [np.angle(spectra[0])]
    for ev in spectra[1:]:
        cur = np.angle(ev)
        step = np.angle(np.exp(1j * (cur[None, :] - rows[-1][:, None])))
        rows.append(cur[linear_sum_assignment(np.abs(step))[1]])
    return np.mod(np.array(rows), 2.0 * np.pi)


def test_trace_is_matched_only_when_read(rng, monkeypatch):
    from masidx import paths

    calls = []

    def recording(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(paths, "linear_sum_assignment", recording)
    path, ref, expected = random_spinner(SP3, rng)
    rep = maslov(path, ref)
    find_crossings(path, ref)
    assert rep.value == expected
    assert calls == []
    spectra = [np.linalg.eigvals(souriau(ref, path.at(t)))
               for t in rep.partition]
    np.testing.assert_array_equal(rep.trace.values, _matched_phases(spectra))
    np.testing.assert_array_equal(rep.trace.ts, rep.partition)
    assert len(calls) == len(rep.partition) - 1
    assert rep.trace is rep.trace
    assert len(calls) == len(rep.partition) - 1


C = DEFAULT_TOL.clearance


@pytest.mark.parametrize(
    "blocked, expected",
    [
        # a zero-width interval at 0 blocks nothing
        ([(0.0, 0.0)], 0.5 * EPS_CAP),
        ([(0.0, 0.0), (0.5, EPS_CAP)], 0.25),
        # nothing is blocked beyond the cap
        ([(0.6, 3.0)], 0.3),
        ([(EPS_CAP + 0.5, 3.0)], 0.5 * EPS_CAP),
        # overlapping and nested intervals merge
        ([(0.2, 0.3), (0.1, 0.6), (0.5, 0.7)], 0.5 * (0.7 + EPS_CAP)),
        # a line interval below 0 is clamped at 0
        ([(-0.5, 0.2)], 0.5 * (0.2 + EPS_CAP)),
        ([(-0.5, -0.1)], 0.5 * EPS_CAP),
        # the widest gap must be at least 2 * clearance wide
        ([(2.5 * C, EPS_CAP)], 1.25 * C),
        ([(1.5 * C, EPS_CAP)], None),
        ([(0.0, EPS_CAP)], None),
    ],
)
def test_test_value_on_blocked_sets(blocked, expected):
    eps = _test_value(blocked, DEFAULT_TOL)
    if expected is None:
        assert eps is None
    else:
        assert eps == pytest.approx(expected, rel=1e-12)


def test_sparse_samples_without_refiner_are_ambiguous():
    h, v = horizontal_frame(SP1), vertical_frame(SP1)
    p = lagrangian_path([(0.0, h), (1.0, v)])
    with pytest.raises(AmbiguityError):
        maslov(p, h)


def test_maslov_rejects_wrong_argument_types():
    h = horizontal_frame(SP1)
    p = scalar_path(lambda t: 0.5 * t)
    with pytest.raises(ValidationError):
        maslov(p, h)
    lag = lagrangian_path([(0.0, h), (1.0, h)])
    with pytest.raises(ValidationError):
        maslov(lag, np.eye(2))


def test_overtaking_eigenvalues_count_without_matching():
    # fast eigenphases overtake slow ones between samples that are close
    # as matrices; a count that matched eigenvalues across samples got -7
    path, ref, expected = random_spinner(
        standard_space(24), np.random.default_rng(72), num=9
    )
    assert expected == -10
    assert maslov(path, ref).value == expected


# --------------------------------------------------------------------------
# geodesic pieces against the same geodesic read through a refiner


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("turn, factor", [(2.9, 1), (2.9, 2), (0.9, 3)])
def test_geodesic_pieces_count_as_their_refiner(n, turn, factor):
    """A GeodesicPath (exact radius, spectra of M diag(exp(i tau theta)))
    counts as the same geodesic given by samples and a refiner, whose
    radius is read by ``_arc_radius``.  Gaps that turn by 2.9 > pi -
    EPS_CAP must be split when the grid is the nodes alone."""
    rng = np.random.default_rng(1000 * n + factor)
    ts, nodes = geodesic_nodes(n, rng, 6, turn)
    grid = cli._segment_times(ts, factor)
    path = geodesic_path(ts, nodes, grid)
    plain = unitary_path([(t, path.at(t)) for t in grid], refiner=path.at)
    got, want = unitary_maslov(path), unitary_maslov(plain)
    assert got.value == want.value
    np.testing.assert_array_equal(got.partition, want.partition)
    assert got.k_counts == want.k_counts
    np.testing.assert_allclose(got.epsilons, want.epsilons, rtol=0, atol=1e-12)
    if turn > np.pi - EPS_CAP and factor == 1:
        assert len(got.partition) > len(grid)


def test_factor_one_counts_the_samples_as_given():
    rng = np.random.default_rng(7)
    ts, nodes = geodesic_nodes(4, rng, 12, 0.2)
    path = cli._unitary_cli_path(ts, nodes, 1, DEFAULT_TOL)
    assert isinstance(path, UnitaryPath) and path.refiner is None
    got = unitary_maslov(path)
    want = unitary_maslov(unitary_path(list(zip(ts, nodes))))
    assert got.value == want.value
    np.testing.assert_array_equal(got.partition, want.partition)
    assert got.k_counts == want.k_counts
    np.testing.assert_array_equal(got.epsilons, want.epsilons)


def test_geodesic_grid_must_hold_every_node_time():
    """A piece's radius is read from its own gap, so a grid that steps
    over a node time would count the second gap at the first one's speed:
    phases 2.0, 2.1, 4.3 at times 0, 0.9, 1 pass -1 once."""
    nodes = [np.array([[np.exp(1j * a)]]) for a in (2.0, 2.1, 4.3)]
    times = [0.0, 0.9, 1.0]
    assert unitary_maslov(geodesic_path(times, nodes, times)).value == 1
    with pytest.raises(ValidationError, match="node time"):
        geodesic_path(times, nodes, [0.0, 1.0])
    for bad in ([0.0, 0.9, 0.95], [0.0, 0.9, 0.9, 1.0], [0.1, 0.9, 1.0]):
        with pytest.raises(ValidationError):
            geodesic_path(bad, nodes, [0.0, 0.9, 1.0])
    # two nodes at three times would stop at the second node at t = 0.9
    with pytest.raises(ValidationError, match="one node per"):
        geodesic_path(times, nodes[:2], times)


@pytest.mark.parametrize("n", [1, 4])
def test_reversed_and_catenated_geodesics_stay_geodesic(n):
    """``reverse`` runs each piece backwards and counts -value;
    ``catenate`` joins two halves into the whole path, whose count is the
    sum of theirs."""
    rng = np.random.default_rng(50 + n)
    ts, nodes = geodesic_nodes(n, rng, 6, 2.0)
    path = geodesic_path(ts, nodes, cli._segment_times(ts, 2))
    value = unitary_maslov(path).value
    back = reverse(path)
    assert isinstance(back, GeodesicPath)
    for t in (0.0, 0.3, 0.5, 1.0):
        np.testing.assert_allclose(
            back.at(t), path.at(1.0 - t), rtol=0, atol=1e-12
        )
    assert unitary_maslov(back).value == -value
    assert unitary_maslov(catenate(path, back)).value == 0
    half = np.linspace(0.0, 1.0, 4).tolist()
    first, second = (
        geodesic_path(half, part, cli._segment_times(half, 2))
        for part in (nodes[:4], nodes[3:])
    )
    whole = catenate(first, second)
    assert isinstance(whole, GeodesicPath)
    for t in (0.25, 0.5, 0.9):
        np.testing.assert_allclose(whole.at(t), path.at(t), atol=1e-12)
    parts = unitary_maslov(first).value + unitary_maslov(second).value
    assert unitary_maslov(whole).value == parts == value


# --------------------------------------------------------------------------
# the determinant lift of a geodesic path against Phillips' count

# offsets of end eigenvalues -exp(i delta) from -1: on it, inside every
# profile's snap, between the strict and the default snap, and on the
# loose snap
_END_DELTAS = (0.0, 1e-12, -1e-12, 5e-8, -5e-8, 1e-6, -1e-6)


def _end_node(n, rng):
    """A unitary with a random eigenbasis whose eigenvalues are each
    -exp(i delta), delta in ``_END_DELTAS``, or a random phase."""
    phases = rng.uniform(-np.pi, np.pi, n)
    near = rng.random(n) < 0.6
    phases[near] = np.pi + rng.choice(_END_DELTAS, int(near.sum()))
    V = haar_unitary(n, rng)
    return (V * np.exp(1j * phases)) @ V.conj().T


@pytest.mark.parametrize("profile", sorted(cli._PROFILES))
def test_geodesic_lift_is_the_phillips_count(profile):
    """The value of a ``GeodesicPath`` is its determinant lift, which
    must equal Phillips' count on every path: n = 1-5, 2-5 nodes, end
    eigenvalues on -1 or within and around each profile's snap, and the
    ``reverse`` and ``catenate`` of such paths.  Reading the report's
    arc counts runs that count, which raises unless its total is the
    value."""
    tol = DEFAULT_TOL.scaled(cli._PROFILES[profile])
    rng = np.random.default_rng(len(profile))
    checked = 0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        num = int(rng.integers(2, 6))
        nodes = [_end_node(n, rng)]
        nodes += [haar_unitary(n, rng) for _ in range(num - 2)]
        nodes.append(_end_node(n, rng))
        ts = np.linspace(0.0, 1.0, num).tolist()
        path = geodesic_path(
            ts, nodes, cli._segment_times(ts, int(rng.integers(1, 4))), tol
        )
        tail = geodesic_path(
            [0.0, 1.0], [path.at(1.0), _end_node(n, rng)], [0.0, 0.5, 1.0],
            tol,
        )
        for p in (path, reverse(path), catenate(path, tail)):
            report = unitary_maslov(p, tol)
            assert sum(hi - lo for lo, hi in report.k_counts) == report.value
            checked += 1
    assert checked == 120


def _end_frame(lam, rng):
    """A frame of the standard space whose pair unitary against ``lam``
    has a random eigenbasis and eigenvalues each -exp(i delta), delta in
    ``_END_DELTAS``, or a random phase: with U_lam = X + iY and V = U_lam
    O for a random real orthogonal O, the frame of V diag(exp(i phi / 2))
    has pair unitary -V diag(exp(i phi)) V^H against lam."""
    n = lam.space.n
    phi = np.angle(-np.linalg.eigvals(_end_node(n, rng)))
    O = np.linalg.qr(rng.standard_normal((n, n)))[0]
    U = complexify_vectors(lam.F) @ O * np.exp(0.5j * phi)
    return lagrangian(lam.space, np.vstack([U.real, U.imag]))


def _end_path(starts, ends, num, rng, tol):
    """A CLI Lagrangian path (``lagrangian_geodesic``) of ``num`` nodes
    from an ``_end_frame`` of ``starts`` to one of ``ends``."""
    space = starts.space
    frames = [_end_frame(starts, rng)]
    frames += [random_lagrangian(space, rng) for _ in range(num - 2)]
    frames.append(_end_frame(ends, rng))
    ts = np.linspace(0.0, 1.0, num).tolist()
    grid = cli._segment_times(ts, int(rng.integers(2, 4)))
    return lagrangian_geodesic(ts, frames, grid, tol)


def _ends_near(lam_at, mu_at):
    """The number of eigenvalues of the pair unitaries at t = 0 and 1
    within 1e-5 of -1."""
    return sum(
        np.count_nonzero(abs(np.angle(-np.linalg.eigvals(W))) < 1e-5)
        for W in (souriau(lam_at(t), mu_at(t)) for t in (0.0, 1.0))
    )


@pytest.mark.parametrize("profile", sorted(cli._PROFILES))
def test_pair_and_reduced_lifts_are_the_phillips_count(profile):
    """The pair path of two CLI legs on different node times takes its
    determinant phase from the legs', and the reduced path of a CLI path
    from its certified pieces; either value is the determinant lift,
    which must equal Phillips' count: n = 1-4, end eigenvalues of the
    pair unitaries on -1 or within and around each profile's snap.
    Reading the report's arc counts runs that count, which raises unless
    its total is the value."""
    tol = DEFAULT_TOL.scaled(cli._PROFILES[profile])
    rng = np.random.default_rng(7 + len(profile))
    near = [0, 0]
    for _ in range(12):
        n = int(rng.integers(1, 5))
        space = standard_space(n, tol)
        lam = _end_path(*(random_lagrangian(space, rng) for _ in range(2)),
                        int(rng.integers(2, 5)), rng, tol)
        mu = _end_path(lam.at(0.0), lam.at(1.0), int(rng.integers(2, 6)),
                       rng, tol)
        report = pair_maslov(mu, lam, tol)
        assert report._reads._path._phase is not None
        assert sum(hi - lo for lo, hi in report.k_counts) == report.value
        near[0] += _ends_near(lam.at, mu.at)

        ell = random_lagrangian(space, rng)
        path = _end_path(ell, ell, int(rng.integers(2, 5)), rng, tol)
        weights = np.exp(rng.uniform(-0.7, 0.7, n)) if n % 2 else np.ones(n)
        pp = polarized_pair(ell.j_image(), ell, ell.j_image(), ell, weights)
        reduced = gamma_reduce_path(pp, path)
        report = maslov(reduced, pp.ell_minus, tol)
        assert reduced._radius is not None
        assert sum(hi - lo for lo, hi in report.k_counts) == report.value
        near[1] += _ends_near(lambda t: pp.ell_minus, reduced.at)
    assert min(near) >= 12


def test_certified_phase_reads_a_long_piece_only_once_split(monkeypatch):
    """A piece whose certified radius exceeds pi - EPS_CAP goes to the
    count's split before the phase reads it.  Here one eigenphase turns
    by 3.5 > pi on the sample piece [0.5, 1], where the principal angles
    of U_0.5^H U_1 would take it the short way round, one turn off.  The
    phase reads the pieces once, in one stack, after [0.5, 1] is halved;
    the value is the closed form and the chord route's, and Phillips'
    count, read later, agrees."""
    phases0, rates = np.array([0.4, 2.0, -1.0]), np.array([7.0, -5.0, 1.0])

    def at(t):
        return np.diag(np.exp(1j * (phases0 + rates * t)))

    samples = [(t, at(t)) for t in (0.0, 0.25, 0.5, 1.0)]
    speed = float(np.abs(rates).max())
    certified = UnitaryPath(
        samples=tuple(samples), refiner=at,
        _radius=lambda t0, t1: speed * (t1 - t0),
    )
    assert certified._radius(0.5, 1.0) > np.pi - EPS_CAP
    stacks = []
    eigvals = np.linalg.eigvals

    def recording(A):
        if np.ndim(A) == 3:
            stacks.append(np.shape(A))
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    report = unitary_maslov(certified)
    assert stacks == [(4, 3, 3)]
    want = floor_count(phases0 - np.pi, phases0 + rates - np.pi)
    assert report.value == want != 0
    assert unitary_maslov(unitary_path(samples, refiner=at)).value == want
    assert sum(hi - lo for lo, hi in report.k_counts) == want
    assert {0.75, 1.0} <= set(report.partition.tolist())


@pytest.mark.parametrize("n", [1, 3])
def test_catenated_geodesics_carry_their_junction_phase(n):
    """``catenate`` accepts a junction that misses by up to its tolerance
    1e-8.  Here the tail starts at the head's end times exp(i 8e-9), so
    det turns by 8e-9 n at the junction, which the pieces' angles miss by
    more than the lift's rounding bound.  The joined path's ``jumps``
    carry that turn: it and its reverse count as Phillips' count and as
    the sum of their parts."""
    rng = np.random.default_rng(70 + n)
    ts, nodes = geodesic_nodes(n, rng, 4, 2.0)
    head = geodesic_path(ts, nodes, cli._segment_times(ts, 2))
    tail = geodesic_path(
        [0.0, 1.0], [head.at(1.0) * np.exp(8e-9j), haar_unitary(n, rng)],
        [0.0, 0.5, 1.0],
    )
    whole = catenate(head, tail)
    assert abs(whole.jumps - 8e-9 * n) <= 1e-15
    parts = unitary_maslov(head).value + unitary_maslov(tail).value
    for p, sign in ((whole, 1), (reverse(whole), -1)):
        report = unitary_maslov(p)
        assert report.value == sign * parts
        assert sum(hi - lo for lo, hi in report.k_counts) == report.value


def test_geodesic_value_needs_no_refinement():
    """4001 gaps each turn one eigenphase by 2.5 > pi - EPS_CAP, so
    Phillips' count must insert a point into every gap, past its cap of
    4000.  The lift gives the value; only reading the partition raises."""
    gaps, turn, phase0 = 4001, 2.5, 0.3
    phases = phase0 + turn * np.arange(gaps + 1)
    nodes = [np.array([[np.exp(1j * a)]]) for a in phases]
    times = np.linspace(0.0, 1.0, gaps + 1).tolist()
    report = unitary_maslov(geodesic_path(times, nodes, times))
    assert report.value == floor_count(phases[0] - np.pi, phases[-1] - np.pi)
    with pytest.raises(AmbiguityError, match="maximal refinement"):
        report.partition


def test_refinement_stops_at_max_samples(monkeypatch):
    """Phillips' count of a refined path halves pieces while the partition
    holds fewer than ``MAX_SAMPLES`` times: at the count's own size it
    gives the same report, one time fewer raises."""
    phases = lambda t: np.array([6.0 * t + 0.3, 1.0 - 4.0 * t])
    path = unitary_path_from_function(
        lambda t: np.diag(np.exp(1j * phases(t))), num=3
    )
    want = unitary_maslov(path)
    size = len(want.partition)
    assert size > 3
    monkeypatch.setattr(paths, "MAX_SAMPLES", size)
    got = unitary_maslov(path)
    assert got.value == want.value
    np.testing.assert_array_equal(got.partition, want.partition)
    monkeypatch.setattr(paths, "MAX_SAMPLES", size - 1)
    with pytest.raises(AmbiguityError) as info:
        unitary_maslov(path)
    assert info.value.reason == "refinement exploded"
    assert info.value.where == "unitary_maslov"


# --------------------------------------------------------------------------
# CLI Lagrangian paths: pair unitaries off the geodesic pieces


def _cli_lagrangian_path(space, rng, num=7, factor=3):
    """A CLI path (``lagrangian_geodesic``) through the node frames of
    a random unitary curve of the standard model, pulled into ``space``."""
    curve, _ = random_unitary_curve(standard_space(space.n), rng, num=num,
                                    max_rate=3.0)
    ts, frames = zip(*curve.samples)
    if not space.is_standard:
        frames = [space.standardization.pull_frame(f) for f in frames]
    return cli._lagrangian_path(list(ts), list(frames), factor, DEFAULT_TOL)


def _space(n, general, rng):
    return random_structure_space(n, rng) if general else standard_space(n)


def _frame_path(path):
    """The same frames with no geodesic: counted through the frames."""
    return lagrangian_path(list(path.samples), refiner=path.refiner)


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("general", [False, True])
@pytest.mark.parametrize("against", ["random", "reference"])
def test_cli_path_counts_as_its_frames(n, general, against):
    """``to_unitary_path`` reads the pair unitaries of a CLI path off its
    geodesic pieces, by the cocycle W(lam, mu) = -W(h, mu) W(lam, h).  It
    counts as souriau(lam, frame(t)) read through the frames, whose radius
    is the chord heuristic ``_arc_radius``."""
    rng = np.random.default_rng(100 * n + 10 * general + len(against))
    path = _cli_lagrangian_path(_space(n, general, rng), rng)
    lam = path._geodesic[0]
    if against == "random":
        lam = random_lagrangian(path.space, rng)
    upath = to_unitary_path(path, lam)
    assert isinstance(upath, GeodesicPath)
    got = unitary_maslov(upath)
    want = unitary_maslov(to_unitary_path(_frame_path(path), lam))
    assert got.value == want.value
    np.testing.assert_array_equal(got.partition, want.partition)
    assert got.k_counts == want.k_counts
    for t in np.linspace(0.0, 1.0, 10):
        np.testing.assert_allclose(
            upath.at(t), souriau(lam, path.at(t)), rtol=0, atol=1e-12
        )
    # its frames, reversed and sliced, make plain paths
    assert maslov(reverse(path), lam).value == -got.value
    assert maslov(catenate(reverse(path), path), lam).value == 0


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("general", [False, True])
def test_cli_pair_path_counts_as_the_box(n, general):
    """Two CLI legs on different node times: the cocycle count
    -W(h, mu_t) W(h, lam_t)^H agrees with the box construction and with
    the count of souriau(lam_t, mu_t) read through the frames."""
    rng = np.random.default_rng(40 + 10 * n + general)
    space = _space(n, general, rng)
    mu = _cli_lagrangian_path(space, rng, num=5, factor=2)
    lam = _cli_lagrangian_path(space, rng, num=4, factor=2)
    got = pair_maslov(mu, lam)
    assert got.value == boxed_pair_maslov(mu, lam)
    want = pair_maslov(_frame_path(mu), _frame_path(lam))
    assert got.value == want.value
    np.testing.assert_array_equal(got.partition, want.partition)


# --------------------------------------------------------------------------
# CLI Lagrangian paths: one real eigenbasis per gap against the Schur route


def _assert_same_frames(path, frame_at, times, atol):
    for t in times:
        np.testing.assert_allclose(
            path.at(t).P, frame_at(t).P, rtol=0, atol=atol
        )


def test_lagrangian_geodesic_is_the_schur_route():
    """On random node paths, n = 1-8, in standard and general spaces,
    every gap of ``lagrangian_geodesic`` carries the angles of the complex
    Schur form of its pair unitaries, its frames span those that
    lagrangian_from_souriau recovers on the Schur geodesic, and the two
    count alike against random references."""
    rng = np.random.default_rng(19)
    for k in range(24):
        n = 1 + k % 8
        space = (random_structure_space(n, rng) if k % 3 == 0
                 else standard_space(n))
        num = int(rng.integers(2, 6))
        ts = np.linspace(0.0, 1.0, num).tolist()
        frames = [random_lagrangian(space, rng) for _ in range(num)]
        grid = cli._segment_times(ts, 2)
        path = lagrangian_geodesic(ts, frames, grid)
        h, schur, frame_at = schur_lagrangian_route(ts, frames, grid)
        for got, want in zip(path._geodesic[1].pieces, schur.pieces):
            np.testing.assert_allclose(
                np.sort(got.theta), np.sort(want.theta), rtol=0, atol=1e-12
            )
        _assert_same_frames(
            path, frame_at, grid + rng.random(3).tolist(), 1e-10
        )
        for lam in (h, random_lagrangian(space, rng)):
            want = unitary_maslov(schur @ -souriau(lam, h)).value
            assert maslov(path, lam).value == want


def test_lagrangian_geodesic_needs_one_space(rng):
    n = 2
    frames = [random_lagrangian(standard_space(n), rng),
              random_lagrangian(random_structure_space(n, rng), rng)]
    with pytest.raises(ValidationError, match="different spaces"):
        lagrangian_geodesic([0.0, 1.0], frames, [0.0, 1.0])


def _gap_frames(phi, rng):
    """Two node frames of the standard model whose gap is X = U0^H (U1
    U1^T) conj(U0) = Q diag(exp(i phi)) Q^T, Q a random rotation."""
    n = len(phi)
    U0 = haar_unitary(n, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    U1 = U0 @ (Q * np.exp(0.5j * np.asarray(phi)))
    sp = standard_space(n)
    return [lagrangian(sp, np.vstack([U.real, U.imag])) for U in (U0, U1)]


@pytest.mark.parametrize(
    "phi",
    [
        # distinct angles on one value of the pencil Re X + 0.618 Im X
        [-1.5, 2.0 * np.arctan(_PENCIL) + 1.5, 0.3],
        [-1.5, 2.0 * np.arctan(_PENCIL) + 1.5, 0.3, -1.5],
        # a repeated angle
        [1.1, 1.1, -2.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
    ids=["pencil", "pencil-repeated", "repeated", "still"],
)
def test_lagrangian_geodesic_splits_pencil_clusters(phi):
    """A gap whose distinct angles share a pencil value is split by its
    second eigensolve; a repeated angle leaves a basis choice inside its
    eigenspace that no frame's span sees.  Angles and frame projectors
    are the Schur route's."""
    rng = np.random.default_rng(len(phi))
    pencil = np.cos(phi) + _PENCIL * np.sin(phi)
    assert abs(pencil[0] - pencil[1]) < 1e-15
    frames = _gap_frames(phi, rng)
    ts, grid = [0.0, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]
    path = lagrangian_geodesic(ts, frames, grid)
    (piece,) = path._geodesic[1].pieces
    np.testing.assert_allclose(
        np.sort(piece.theta), np.sort(phi), rtol=0, atol=1e-12
    )
    _, _, frame_at = schur_lagrangian_route(ts, frames, grid)
    _assert_same_frames(path, frame_at, grid + [0.1, 0.6], 1e-12)


def _gap_angles(n, kind, rng):
    """The angles of one gap, all in (-3, 3): random, half of them one
    repeated angle, in pairs 1e-8 apart, with one such pair where the
    pencil cos + _PENCIL sin is 0 (so sin - _PENCIL cos is stationary),
    or in pairs on one value of the pencil."""
    theta = rng.uniform(-1.8, 2.9, n)
    if kind == "repeated":
        theta[: n // 2] = theta[0]
    elif kind == "close":
        theta[1::2] = theta[0::2] + 1e-8
    elif kind == "stationary":
        theta[:2] = -np.arctan(1.0 / _PENCIL) + np.array([0.0, 1e-8])
    elif kind == "pencil":
        theta[1::2] = 2.0 * np.arctan(_PENCIL) - theta[0::2]
    return theta


def _assert_pieces_meet_their_nodes(angles, rng):
    """Both routes through nodes whose gaps turn by ``angles`` (one array
    per gap): each geodesic piece ends on its next node to 1e-12 in the
    spectral norm.  The unitary route turns U by V diag(exp(i theta))
    V^H; the Lagrangian one turns U = X + iY of the frame by Q
    diag(exp(i theta / 2)), Q a rotation, so that its gap is X = Q
    diag(exp(i theta)) Q^T."""
    n = len(angles[0])
    us, ws = [haar_unitary(n, rng)], [haar_unitary(n, rng)]
    for theta in angles:
        V = haar_unitary(n, rng)
        us.append(us[-1] @ (V * np.exp(1j * theta)) @ V.conj().T)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        ws.append(ws[-1] @ (Q * np.exp(0.5j * theta)))
    ts = np.linspace(0.0, 1.0, len(us)).tolist()
    unitary = geodesic_path(ts, us, ts)
    space = standard_space(n)
    frames = [lagrangian(space, np.vstack([W.real, W.imag])) for W in ws]
    h, lagr = lagrangian_geodesic(ts, frames, ts)._geodesic
    lagr_nodes = [souriau(h, f) for f in frames]
    for path, nodes in ((unitary, us), (lagr, lagr_nodes)):
        for piece, node in zip(path.pieces, nodes[1:]):
            assert np.linalg.norm(piece.at(1.0) - node, 2) <= 1e-12


@pytest.mark.parametrize(
    "kind", ["random", "repeated", "close", "stationary", "pencil"]
)
@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_geodesic_pieces_meet_their_nodes(n, kind):
    """One stacked pencil eigensolve, corrected once to first order,
    places each piece's end on its node to rounding, on both routes: at
    most 3.6e-15 over 40 seeds, against 1.3e-14 for complex Schur.
    "stationary" needs each cluster split along its own axis: B - _PENCIL
    A parts two angles theta, theta + 1e-8 by only 1e-8 |cos theta +
    _PENCIL sin theta|, which is 0 there."""
    rng = np.random.default_rng(n)
    _assert_pieces_meet_their_nodes(
        [_gap_angles(n, kind, rng) for _ in range(4)], rng
    )


@pytest.mark.parametrize("delta", [1e-7, 3e-7])
def test_geodesic_pieces_meet_their_nodes_near_a_pencil_collision(delta):
    """Two angles whose pencil values lie about ``delta`` apart, just
    outside a cluster: an uncorrected eigenbasis mixes them by rounding
    over that gap and missed the end node by up to 8.8e-9."""
    rng = np.random.default_rng(17)
    angles = []
    for theta in rng.uniform(-1.5, 2.5, 6):
        angles.append(
            np.array([theta, 2.0 * np.arctan(_PENCIL) - theta + delta])
        )
    _assert_pieces_meet_their_nodes(angles, rng)


def _scaled(M, size):
    return M * (size / np.linalg.norm(M, 2))


@pytest.mark.parametrize("gap", [5e-11, 3e-4])
@pytest.mark.parametrize("n", [2, 3, 16])
def test_geodesic_pieces_on_nodes_unitary_only_to_their_residual(n, gap):
    """A gap with two angles ``gap`` apart between nodes unitary only to
    about 1e-10 (on the Lagrangian route, frames isotropic only to about
    6e-11).  At 5e-11 that pair's off-diagonal is not small against its
    gap, so the first-order turn leaves its columns alone; at 3e-4 it
    turns them, and only the skew-Hermitian part of K keeps Z unitary.
    Each Z stays unitary (a Lagrangian Z = conj(U0 O) as unitary as its
    node U0), and each piece ends within the nodes' residual of the
    Schur route's."""
    rng = np.random.default_rng(n)
    theta = rng.uniform(-1.8, 2.9, n)
    theta[1] = theta[0] + gap
    U0, V = haar_unitary(n, rng), haar_unitary(n, rng)
    tilt = _scaled(np.triu(rng.standard_normal((n, n)), 1), 1e-10)
    us = [U0, U0 @ V @ (np.diag(np.exp(1j * theta)) + tilt) @ V.conj().T]
    W0 = haar_unitary(n, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    space = standard_space(n)
    frames = [
        lagrangian(
            space,
            np.vstack([W.real, W.imag])
            + _scaled(rng.standard_normal((2 * n, n)), 5e-11),
        )
        for W in (W0, W0 @ (Q * np.exp(0.5j * theta)))
    ]
    ts = [0.0, 1.0]
    _, lagr = lagrangian_geodesic(ts, frames, ts)._geodesic
    _, schur_lagr, _ = schur_lagrangian_route(ts, frames, ts)
    U = complexify_vectors(frames[0]._standard.F)
    routes = (
        (geodesic_path(ts, us, ts), schur_geodesic_path(ts, us, ts), 0.0),
        (lagr, schur_lagr, np.linalg.norm(U.conj().T @ U - np.eye(n), 2)),
    )
    for path, oracle, node_residual in routes:
        (piece,), (ref,) = path.pieces, oracle.pieces
        Z = piece.Z
        unitary = np.linalg.norm(Z.conj().T @ Z - np.eye(n), 2)
        assert unitary <= node_residual + 1e-14
        assert np.linalg.norm(piece.at(1.0) - ref.at(1.0), 2) <= 3e-10


def test_geodesic_samples_and_at_share_their_frames(rng, monkeypatch):
    """A ``lagrangian_geodesic`` forms each grid frame once, whether
    ``samples``, ``at`` or ``refiner`` reads it: reading every sample and
    then ``at`` at the 9 grid times of a 5-node path forms 9 frames, and
    a time between grid points forms its own."""
    space = standard_space(2)
    ts = np.linspace(0.0, 1.0, 5).tolist()
    frames = [random_lagrangian(space, rng) for _ in ts]
    grid = cli._segment_times(ts, 2)
    path = lagrangian_geodesic(ts, frames, grid)
    formed = []
    original = paths._geodesic_frame

    def counting(*args):
        formed.append(args)
        return original(*args)

    monkeypatch.setattr(paths, "_geodesic_frame", counting)
    samples = list(path.samples)
    assert len(samples) == len(grid) == 9
    for t, frame in samples:
        assert path.at(t) is frame
        assert path.refiner(t) is frame
    assert len(formed) == 9
    path.at(0.3)
    assert len(formed) == 10


def test_sampled_path_forms_its_pair_unitaries_and_spectra_in_one_stack(
    rng, monkeypatch
):
    """A sampled Lagrangian path converts in one stacked ``souriau`` call,
    and its count reads the samples' spectra in one stacked ``eigvals``
    (``_Reads.read_samples``), not before; each is bitwise the per-sample
    value."""
    space = standard_space(3)
    frames = [random_lagrangian(space, rng) for _ in range(6)]
    ts = np.linspace(0.0, 1.0, len(frames)).tolist()
    lam = random_lagrangian(space, rng)
    path = lagrangian_path(zip(ts, frames))
    upath = to_unitary_path(path, lam)
    for (t, W), frame in zip(upath.samples, frames):
        assert W.tobytes() == souriau(lam, frame).tobytes()
    calls = []
    eigvals = np.linalg.eigvals

    def counting(A):
        calls.append(np.shape(A))
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    reads = paths._Reads(upath, DEFAULT_TOL)
    assert calls == []
    reads.read_samples()
    assert calls == [(6, 3, 3)]
    for t, W in upath.samples:
        assert reads.spectra[t].tobytes() == eigvals(W).tobytes()
        assert reads.offsets(t).tobytes() == (
            np.angle(-eigvals(W)).tobytes()
        )
    assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 4])
def test_lagrangian_geodesic_gaps_are_bitwise_those_built_alone(n, rng):
    """The gaps of a node path, whose pencils are solved in one stack, are
    byte for byte those of the two-node path of each gap alone."""
    space = standard_space(n)
    frames = [random_lagrangian(space, rng) for _ in range(5)]
    ts = np.linspace(0.0, 1.0, 5).tolist()
    path = lagrangian_geodesic(ts, frames, ts)
    for i, piece in enumerate(path._geodesic[1].pieces):
        (alone,) = lagrangian_geodesic(
            [0.0, 1.0], frames[i : i + 2], [0.0, 1.0]
        )._geodesic[1].pieces
        for name in ("U0", "theta", "Z"):
            assert getattr(piece, name).tobytes() == (
                getattr(alone, name).tobytes()
            )


@pytest.mark.xfail(
    strict=True,
    reason="a piece's radius is read at its ends, so a phase that turns "
    "by nearly a whole turn between the points read goes unseen",
)
def test_fast_turning_refiner_counts_every_turn():
    """exp(i (0.3 + 18.79 t^2)) passes -1 at 0.3 + 18.79 t^2 = pi, 3 pi
    and 5 pi on (0, 1]: the index is 3."""
    path = unitary_path_from_function(
        lambda t: np.array([[np.exp(1j * (0.3 + 18.79 * t * t))]]), num=6
    )
    assert unitary_maslov(path).value == 3
