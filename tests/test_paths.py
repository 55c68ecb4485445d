"""Path containers and the eigenvalue-counting index."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from masidx import (
    DEFAULT_TOL,
    AmbiguityError,
    ValidationError,
    catenate,
    find_crossings,
    haar_unitary,
    horizontal_frame,
    lagrangian_path,
    maslov,
    reverse,
    souriau,
    standard_space,
    unitary_geodesic,
    unitary_maslov,
    unitary_path,
    unitary_path_from_function,
    vertical_frame,
)
from conftest import (
    line_path,
    random_spinner,
    rotating_block_loop,
    spinner_expected,
    spinner_path,
)
from masidx.paths import EPS_CAP, _test_value
from oracles import unitary_oracle

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
    g = unitary_geodesic(U0, U1)
    np.testing.assert_allclose(g(0.0), U0, atol=1e-12)
    np.testing.assert_allclose(g(1.0), U1, atol=1e-12)
    # constant speed: the midpoint carries half of every principal angle
    mid = U0 @ (V * np.exp(0.5j * phases)) @ V.conj().T
    np.testing.assert_allclose(g(0.5), mid, atol=1e-12)
    assert unitary_geodesic(U0, -U0) is None


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
    assert rep.trace.kind == "eigenphase"


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
