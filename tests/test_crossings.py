"""Crossing localization, crossing forms, and the signature-sum index."""

import numpy as np
import pytest

from masidx import (
    DEFAULT_TOL,
    AmbiguityError,
    Crossing,
    PreconditionError,
    cli,
    horizontal_frame,
    lagrangian,
    lagrangian_path,
    lagrangian_path_from_function,
    crossing_form,
    crossing_form_phase,
    crossing_sum,
    find_crossings,
    lift_path_endpoints,
    maslov,
    maslov_via_crossings,
    standard_space,
    vertical_frame,
)
from conftest import (
    line_frame,
    line_path,
    random_spinner,
    random_structure_space,
    rotating_block_loop,
    spinner_crossings,
    spinner_path,
)
from oracles import signature_brute

SP1 = standard_space(1)
T_STAR_TOL = 1e-8


def sweep(theta0, theta1, num=17):
    return line_path(SP1, theta0, theta1, num=num), horizontal_frame(SP1)


def test_transversal_path_has_no_crossings():
    path, ref = sweep(np.pi / 6, np.pi / 3)
    assert find_crossings(path, ref) == []


def test_line_sweep_crossing_location():
    path, ref = sweep(5 * np.pi / 6, 7 * np.pi / 6)
    ts = find_crossings(path, ref)
    assert len(ts) == 1
    assert abs(ts[0] - 0.5) < T_STAR_TOL

    # asymmetric sweep: theta = 0.3 + 3.2 t meets pi at a known clock time
    path, ref = sweep(0.3, 3.5)
    ts = find_crossings(path, ref)
    assert len(ts) == 1
    assert abs(ts[0] - (np.pi - 0.3) / 3.2) < T_STAR_TOL


def test_upward_sweep_is_positive_downward_negative():
    up, ref = sweep(5 * np.pi / 6, 7 * np.pi / 6)
    c = crossing_form(up, ref, find_crossings(up, ref)[0])
    assert c.signature == (1, 0)
    assert c.regular and c.dim == 1 and c.sign == 1
    assert maslov_via_crossings(up, ref) == 1 == maslov(up, ref).value

    down, _ = sweep(7 * np.pi / 6, 5 * np.pi / 6)
    c = crossing_form(down, ref, find_crossings(down, ref)[0])
    assert c.signature == (0, 1)
    assert maslov_via_crossings(down, ref) == -1 == maslov(down, ref).value


def test_block_rotation_form_is_pi_times_identity():
    sp = standard_space(3)
    for k in (1, 2, 3):
        loop = rotating_block_loop(sp, k)
        ref = horizontal_frame(sp)
        ts = find_crossings(loop, ref)
        assert len(ts) == 1
        assert abs(ts[0] - 0.5) < T_STAR_TOL
        c = crossing_form(loop, ref, ts[0])
        assert c.dim == k
        assert c.signature == (k, 0)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(c.form), np.pi, atol=1e-5
        )
        assert maslov_via_crossings(loop, ref) == k


@pytest.mark.parametrize(
    "theta0, theta1, expected",
    [
        (0.0, 1.0, 0),     # start on the reference, rotate away upward
        (0.0, -1.0, -1),   # start on it, leave downward
        (np.pi - 1.0, np.pi, 1),   # arrive from below
        (np.pi + 1.0, np.pi, 0),   # arrive from above
    ],
)
def test_boundary_crossings_use_one_sided_counts(theta0, theta1, expected):
    path, ref = sweep(theta0, theta1)
    ts = find_crossings(path, ref)
    assert len(ts) == 1
    assert maslov_via_crossings(path, ref) == expected
    assert maslov(path, ref).value == expected


def _crossing(t_star, signature, regular=True):
    dim = sum(signature)
    return Crossing(
        t_star=t_star,
        kernel=np.zeros((2 * dim, dim)),
        form=np.diag([1.0] * signature[0] + [-1.0] * signature[1]),
        signature=signature,
        regular=regular,
    )


@pytest.mark.parametrize(
    "t_star, expected", [(0.0, -2), (1.0, 3), (0.4, 1), (1e-10, -2)]
)
def test_crossing_sum_boundary_rules(t_star, expected):
    assert crossing_sum([_crossing(t_star, (3, 2))]) == expected


def test_crossing_sum_adds_every_crossing():
    forms = [_crossing(0.0, (1, 1)), _crossing(0.5, (2, 0)),
             _crossing(0.7, (0, 1)), _crossing(1.0, (0, 2))]
    assert crossing_sum(forms) == -1 + 2 - 1 + 0
    assert crossing_sum([]) == 0


def test_crossing_sum_rejects_a_non_regular_crossing():
    forms = [_crossing(0.2, (1, 0)), _crossing(0.5, (1, 0), regular=False)]
    with pytest.raises(PreconditionError) as err:
        crossing_sum(forms)
    assert err.value.where == "maslov_via_crossings"
    assert err.value.reason == "non-regular crossing at t=0.5"


def test_clock_change_preserves_the_signature():
    base, ref = sweep(5 * np.pi / 6, 7 * np.pi / 6, num=65)
    warped = lagrangian_path_from_function(lambda t: base.at(t**3), num=65)
    ts = find_crossings(warped, ref)
    assert len(ts) == 1
    assert abs(ts[0] - 0.5 ** (1.0 / 3.0)) < 1e-7
    c = crossing_form(warped, ref, ts[0])
    # the form itself rescales with the clock, its signature cannot
    assert c.signature == (1, 0)
    assert maslov_via_crossings(warped, ref) == 1


def test_grazing_touch_cannot_be_differentiated():
    """A crossing where the path is stationary to first order: locatable,
    but the central difference of the generator sits at the noise floor."""

    def frame_at(t):
        return line_frame(SP1, 0.8 * (t - 0.5) ** 2)

    path = lagrangian_path_from_function(frame_at, num=33)
    ref = horizontal_frame(SP1)
    ts = find_crossings(path, ref)
    assert len(ts) == 1
    assert abs(ts[0] - 0.5) < 1e-4
    with pytest.raises(AmbiguityError):
        crossing_form(path, ref, ts[0])
    # the counting index is still well defined for the touch
    assert maslov(path, ref).value == 0


def test_mixed_crossing_is_flagged_irregular():
    """One direction sweeps through the reference, the other touches and
    retreats: the form is singular on the kernel, so the signature sum
    must hand off to the counting definition.  At t = 0.5 the crossing
    sits on a sample; at 0.37 it lies inside a sample gap."""
    sp = standard_space(2)
    ref = horizontal_frame(sp)
    for center in (0.5, 0.37):

        def frame_at(t, center=center):
            th = 0.8 * (t - center)
            ph = 0.8 * (t - center) ** 2
            M = np.array(
                [
                    [np.cos(th), 0.0],
                    [0.0, np.cos(ph)],
                    [np.sin(th), 0.0],
                    [0.0, np.sin(ph)],
                ]
            )
            return lagrangian(sp, M)

        path = lagrangian_path_from_function(frame_at, num=33)
        ts = find_crossings(path, ref)
        assert len(ts) == 1
        assert abs(ts[0] - center) < 1e-4
        c = crossing_form(path, ref, ts[0])
        assert c.dim == 2
        assert not c.regular
        assert c.signature == (1, 0)
        with pytest.raises(PreconditionError) as err:
            maslov_via_crossings(path, ref)
        assert err.value.where == "maslov_via_crossings"
        assert maslov(path, ref).value == 1


def test_form_and_phase_form_agree_in_signature(rng):
    sp = standard_space(2)
    for _ in range(5):
        path, ref, expected = random_spinner(sp, rng)
        for t_star in find_crossings(path, ref):
            a = crossing_form(path, ref, t_star)
            R = crossing_form_phase(path, ref, t_star)
            assert signature_brute(R) == a.signature


def test_signature_sum_matches_counting(rng):
    sp = standard_space(2)
    for _ in range(8):
        path, ref, expected = random_spinner(sp, rng)
        assert maslov_via_crossings(path, ref) == expected


def test_richardson_and_step_overrides_agree():
    path, ref = sweep(5 * np.pi / 6, 7 * np.pi / 6)
    t_star = find_crossings(path, ref)[0]
    plain = crossing_form(path, ref, t_star)
    rich = crossing_form(path, ref, t_star, richardson=True)
    fine = crossing_form(path, ref, t_star, h=1e-5)
    np.testing.assert_allclose(rich.form, plain.form, atol=1e-6)
    assert rich.signature == plain.signature == fine.signature


def test_no_crossing_at_requested_time():
    path, ref = sweep(np.pi / 6, np.pi / 3)
    with pytest.raises(PreconditionError):
        crossing_form(path, ref, 0.5)


def test_localization_needs_a_refiner():
    frames = [
        (t, line_frame(SP1, 5 * np.pi / 6 + t * np.pi / 3))
        for t in np.linspace(0.0, 1.0, 9)
    ]
    path = lagrangian_path(frames)
    ref = horizontal_frame(SP1)
    with pytest.raises(AmbiguityError):
        find_crossings(path, ref)


def test_crossings_in_a_non_standard_metric(rng):
    sp = random_structure_space(1, rng)

    def frame_at(t):
        th = 5 * np.pi / 6 + t * np.pi / 3
        return lagrangian(sp, np.array([[np.cos(th)], [np.sin(th)]]))

    path = lagrangian_path_from_function(frame_at, num=17)
    ref = lagrangian(sp, np.array([[1.0], [0.0]]))
    ts = find_crossings(path, ref)
    assert len(ts) == 1
    assert abs(ts[0] - 0.5) < 1e-7
    c = crossing_form(path, ref, ts[0])
    assert c.regular and c.dim == 1
    assert maslov_via_crossings(path, ref) == maslov(path, ref).value


# the spinner of perfbench's defect-b-crossings-4 problem: two crossings
# of opposite sign 0.021 apart in t, inside one gap of the 5-sample path
_CLOSE_PAIR = ([1.215, -0.725, -2.775, 2.227], [-2.761, 1.902, -2.544, -2.556])


def _close_spinners(rng, count):
    """_CLOSE_PAIR, then ``count`` random n = 4 spinners whose first four
    crossings follow each other 0.005 to 0.1 apart in t; every crossing
    is at least 0.005 from the next and both ends are clear of -1."""
    yield _CLOSE_PAIR
    while count:
        ts = rng.uniform(0.2, 0.4) + np.cumsum(rng.uniform(0.005, 0.1, 4))
        rates = rng.uniform(0.5, 2.5, 4) * rng.choice([-1.0, 1.0], 4)
        phases = np.pi - np.pi * rates * ts
        crossings = [t for t, _ in spinner_crossings(phases, rates)]
        ends = np.concatenate([phases, phases + np.pi * rates]) - np.pi
        clear = np.abs(np.angle(np.exp(1j * ends))).min() > 0.05
        if clear and np.diff(crossings).min() >= 0.005:
            count -= 1
            yield phases.tolist(), rates.tolist()


def test_close_crossings_match_the_closed_form(rng):
    sp = standard_space(4)
    for phases, rates in _close_spinners(rng, 6):
        path, ref = spinner_path(sp, phases, rates, rng=rng, num=5)
        want = spinner_crossings(phases, rates)
        ts = find_crossings(path, ref)
        assert len(ts) == len(want), (phases, rates)
        for t, (t_want, sign) in zip(ts, want):
            assert abs(t - t_want) < T_STAR_TOL
            assert crossing_form(path, ref, t).sign == sign


def test_search_and_lift_evaluate_no_time_twice():
    """find_crossings and lift_path_endpoints read the unitaries the count
    read, so neither passes a time to the refiner twice; the CLI path of
    perfbench's defect-b-crossings-4 (_CLOSE_PAIR on 5 nodes, refined by
    geodesics at factor 2) refines in the count and in the search."""
    sp = standard_space(4)
    spin, ref = spinner_path(
        sp, *_CLOSE_PAIR, rng=np.random.default_rng(0), num=5
    )
    nodes = [t for t, _ in spin.samples]
    path = cli._lagrangian_path(
        nodes, [f for _, f in spin.samples], 2, DEFAULT_TOL
    )
    for search in (find_crossings, lift_path_endpoints):
        asked = []

        def refiner(t):
            asked.append(t)
            return path.refiner(t)

        search(lagrangian_path(path.samples, refiner=refiner), ref)
        assert asked
        assert len(asked) == len(set(asked)), search.__name__
