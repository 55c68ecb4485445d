"""Triple-signature, lifted-pair, and four-Lagrangian difference indices."""

import importlib

import numpy as np
import pytest

from masidx import (
    AmbiguityError,
    LiftedUnitary,
    PreconditionError,
    ValidationError,
    catenate,
    complex_kashiwara,
    connecting_path,
    haar_unitary,
    hormander,
    horizontal_frame,
    kashiwara,
    lagrangian,
    lagrangian_path,
    lagrangian_path_from_function,
    leray,
    leray_general,
    lift_path_endpoints,
    maslov,
    random_lagrangian,
    souriau,
    standard_space,
    transition_function,
)
from masidx import paths
from masidx.paths import geodesic_path
from conftest import line_frame, line_path, spinner_path, transversal_pair

DEG = np.pi / 180.0
SP1 = standard_space(1)
SP2 = standard_space(2)


# --------------------------------------------------------------------------
# triple signature, real frames


@pytest.mark.parametrize(
    "angles, expected",
    [
        ((0.0, 60.0, 120.0), 1),
        ((0.0, 45.0, 90.0), 1),
        ((0.0, 120.0, 60.0), -1),
    ],
)
def test_line_triples(angles, expected):
    frames = [line_frame(SP1, a * DEG) for a in angles]
    r = kashiwara(*frames)
    assert r.signature == expected
    assert r.nulls == 0


def test_repeated_arguments_are_null():
    h = horizontal_frame(SP1)
    r = kashiwara(h, h, h)
    assert r.signature == 0
    assert r.nulls == 3
    v = line_frame(SP1, np.pi / 3)
    assert kashiwara(h, h, v).signature == 0
    assert kashiwara(h, v, v).signature == 0


def test_transpositions_flip_the_sign(rng):
    for _ in range(10):
        a, b, c = (random_lagrangian(SP2, rng) for _ in range(3))
        s = kashiwara(a, b, c).signature
        assert kashiwara(b, a, c).signature == -s
        assert kashiwara(a, c, b).signature == -s
        assert kashiwara(c, b, a).signature == -s
        # cyclic rotations preserve it
        assert kashiwara(b, c, a).signature == s
        assert kashiwara(c, a, b).signature == s


def test_symplectic_invariance(rng):
    from scipy.linalg import expm

    for _ in range(8):
        a, b, c = (random_lagrangian(SP2, rng) for _ in range(3))
        S = rng.standard_normal((4, 4))
        M = expm(SP2.J @ (S + S.T))  # symplectic by construction
        ta, tb, tc = (lagrangian(SP2, M @ f.F) for f in (a, b, c))
        assert kashiwara(ta, tb, tc).signature == kashiwara(a, b, c).signature


def test_coboundary_vanishes(rng):
    for _ in range(15):
        a, b, c, d = (random_lagrangian(SP2, rng) for _ in range(4))
        total = (
            kashiwara(b, c, d).signature
            - kashiwara(a, c, d).signature
            + kashiwara(a, b, d).signature
            - kashiwara(a, b, c).signature
        )
        assert total == 0


# --------------------------------------------------------------------------
# triple signature, unitary representatives


def test_complex_version_matches_real_on_represented_triples(rng):
    h = horizontal_frame(SP2)
    for _ in range(10):
        a, b, c = (random_lagrangian(SP2, rng) for _ in range(3))
        r = kashiwara(a, b, c)
        z = complex_kashiwara(souriau(h, a), souriau(h, b), souriau(h, c))
        assert (z.positives, z.negatives, z.nulls) == (
            r.positives,
            r.negatives,
            r.nulls,
        )


def test_complex_version_conjugation_invariance(rng):
    h = horizontal_frame(SP2)
    for _ in range(6):
        us = [souriau(h, random_lagrangian(SP2, rng)) for _ in range(3)]
        V = haar_unitary(2, rng)
        moved = [V @ u @ V.T for u in us]
        a, b = complex_kashiwara(*us), complex_kashiwara(*moved)
        assert (a.positives, a.negatives, a.nulls) == (
            b.positives,
            b.negatives,
            b.nulls,
        )


def test_equal_unitaries_are_null():
    W = np.diag([np.exp(0.4j), np.exp(-1.1j)])
    r = complex_kashiwara(W, W, W)
    assert r.signature == 0
    assert r.nulls == 6


# --------------------------------------------------------------------------
# lifted pairs


def test_lift_validation():
    with pytest.raises(ValidationError):
        LiftedUnitary(np.eye(2, dtype=complex), 0.3)  # det = 1 != e^{0.3 i}
    ok = LiftedUnitary(np.eye(2, dtype=complex), 4.0 * np.pi)
    assert ok.alpha == pytest.approx(4.0 * np.pi)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, "a", None, 1j])
def test_an_alpha_that_is_not_a_finite_number_is_rejected(alpha):
    """|det U - exp(i alpha)| > 1e-9 is false for a NaN, so the check is
    that the distance is at most 1e-9, which a NaN fails; an alpha that
    is not a real number fails it as a NaN, not in ``float``."""
    with np.errstate(invalid="ignore"), pytest.raises(
        ValidationError
    ) as info:
        LiftedUnitary(np.eye(2), alpha)
    assert info.value.reason == "alpha is not a determinant phase"
    assert info.value.where == "LiftedUnitary"


def test_half_integer_worked_example():
    a = LiftedUnitary(np.array([[1j]]), np.pi / 2)
    b = LiftedUnitary(np.array([[1.0 + 0.0j]]), 0.0)
    assert leray(a, b) == pytest.approx(0.5)
    assert leray(b, a) == pytest.approx(-0.5)


def test_lift_winding_shifts_by_one():
    a = LiftedUnitary(np.array([[1j]]), np.pi / 2)
    b = LiftedUnitary(np.array([[1.0 + 0.0j]]), 0.0)
    a_up = LiftedUnitary(a.U, a.alpha + 2.0 * np.pi)
    assert leray(a_up, b) == pytest.approx(leray(a, b) + 1.0)
    b_up = LiftedUnitary(b.U, b.alpha - 2.0 * np.pi)
    assert leray(a, b_up) == pytest.approx(leray(a, b) + 1.0)


def random_lift(space, rng, h=None):
    if h is None:
        h = horizontal_frame(space)
    U = souriau(h, random_lagrangian(space, rng))
    det = np.linalg.det(U)
    return LiftedUnitary(U, float(np.angle(det)))


def test_antisymmetry_and_half_integrality(rng):
    h = horizontal_frame(SP2)
    done = 0
    while done < 10:
        a = random_lift(SP2, rng, h)
        b = random_lift(SP2, rng, h)
        try:
            v = leray(a, b)
        except PreconditionError:
            continue
        done += 1
        assert leray(b, a) == pytest.approx(-v, abs=1e-10)
        assert 2.0 * v == pytest.approx(round(2.0 * v), abs=1e-9)


def test_transversality_precondition():
    a = LiftedUnitary(np.eye(2, dtype=complex), 0.0)
    with pytest.raises(PreconditionError):
        leray(a, a)


def test_general_form_agrees_on_transversal_pairs(rng):
    done = 0
    while done < 8:
        a = random_lift(SP2, rng)
        b = random_lift(SP2, rng)
        try:
            direct = leray(a, b)
        except PreconditionError:
            continue
        done += 1
        assert leray_general(a, b) == pytest.approx(direct, abs=1e-9)


def test_general_form_probe_independence(rng):
    h = horizontal_frame(SP2)
    a = random_lift(SP2, rng, h)
    b = LiftedUnitary(a.U, a.alpha + 2.0 * np.pi)  # same span, lifted once
    values = [leray_general(a, b, seed=s) for s in range(10)]
    assert max(values) - min(values) <= 1e-8
    assert values[0] == pytest.approx(-1.0)
    # explicit probes work as bare unitaries or as lifts
    probe = haar_unitary(2, np.random.default_rng(99))
    assert leray_general(a, b, probe=probe) == pytest.approx(-1.0)
    lifted_probe = LiftedUnitary(
        probe, float(np.angle(np.linalg.det(probe)))
    )
    assert leray_general(a, b, probe=lifted_probe) == pytest.approx(-1.0)
    # and must be transversal to both arguments
    with pytest.raises(PreconditionError):
        leray_general(a, b, probe=a.U)


@pytest.mark.parametrize("probe", [None, "lifted"])
def test_general_form_rejects_lifts_of_two_sizes(probe):
    """Lifts of two sizes, or a lifted probe of another size, are a
    "size mismatch" at ``leray_general``, as at ``leray``; numpy's
    matmul error once leaked from the transversality margin."""
    two, three = (LiftedUnitary(np.eye(k), 0.0) for k in (2, 3))
    pairs = [(two, three), (three, two)]
    kwargs = {}
    if probe is not None:
        pairs = [(two, two)]
        kwargs["probe"] = three
    for a, b in pairs:
        with pytest.raises(ValidationError) as info:
            leray_general(a, b, **kwargs)
        assert (info.value.reason, info.value.where) == (
            "size mismatch", "leray_general"
        )


def test_identical_lifts_vanish(rng):
    a = random_lift(SP2, rng)
    assert leray_general(a, a) == pytest.approx(0.0, abs=1e-10)


# --------------------------------------------------------------------------
# endpoint relation: index = lifted pair difference + half the triple


@pytest.mark.parametrize(
    "theta0, theta1, ref_angle, expected",
    [
        (np.pi / 2, 3 * np.pi / 2, 0.0, 1),
        (np.pi / 6, np.pi / 3, 0.0, 0),
        (5 * np.pi / 6, 7 * np.pi / 6, 0.0, 1),
        (5 * np.pi / 6, 7 * np.pi / 6, np.pi / 4, 0),
    ],
)
def test_index_from_lifted_endpoints(theta0, theta1, ref_angle, expected):
    path = line_path(SP1, theta0, theta1, num=33)
    lam = line_frame(SP1, ref_angle)
    m = maslov(path, lam).value
    assert m == expected
    start, end = lift_path_endpoints(path, lam)
    rhs = leray_general(end, start) + 0.5 * kashiwara(
        lam, path.samples[-1][1], path.samples[0][1]
    ).signature
    assert round(rhs, 6) == m


def test_lifted_endpoints_relation_on_random_paths(rng):
    from conftest import random_spinner

    for _ in range(10):
        path, ref, expected = random_spinner(SP2, rng)
        start, end = lift_path_endpoints(path, ref)
        for lifted in (start, end):
            assert (
                abs(np.linalg.det(lifted.U) - np.exp(1j * lifted.alpha))
                <= 1e-9
            )
        rhs = leray_general(end, start) + 0.5 * kashiwara(
            ref, path.samples[-1][1], path.samples[0][1]
        ).signature
        assert round(rhs, 6) == expected


def test_lift_follows_a_fast_determinant_phase(rng):
    """The determinant phase of these spinners steps by pi |sum(rates)| / 4
    > pi / 2 between samples; the lift adds the whole sweep."""
    sp = standard_space(3)
    for _ in range(8):
        phases = rng.uniform(-np.pi, np.pi, 3)
        rates = rng.uniform(0.7, 2.5, 3) * rng.choice([-1.0, 1.0])
        path, ref = spinner_path(sp, phases, rates, rng=rng, num=5)
        start, end = lift_path_endpoints(path, ref)
        assert abs(end.alpha - start.alpha - np.pi * rates.sum()) <= 1e-9


def test_lift_of_an_undersampled_path_without_refiner_is_ambiguous():
    # eigenphases turn by up to 3.9 rad between the three samples
    path, ref = spinner_path(SP2, [0.3, -1.0], [2.5, 2.0], num=3)
    with pytest.raises(AmbiguityError) as err:
        lift_path_endpoints(lagrangian_path(path.samples), ref)
    assert err.value.where == "unitary_maslov"
    assert "no refiner" in err.value.reason


# --------------------------------------------------------------------------
# four-Lagrangian difference index


def test_difference_index_identities(rng):
    for _ in range(5):
        l0, l1, l2, lam, mu, kap = (
            random_lagrangian(SP2, rng) for _ in range(6)
        )
        s = hormander(l0, l1, lam, mu)
        assert isinstance(s, int)
        assert hormander(l0, l1, lam, lam) == 0
        assert hormander(l1, l0, lam, mu) == -s
        assert hormander(l0, l1, mu, lam) == -s
        chain = hormander(l0, l1, lam, mu) + hormander(l1, l2, lam, mu)
        assert chain == hormander(l0, l2, lam, mu)
        # swapping the pair roles flips the sign
        assert hormander(lam, mu, l0, l1) == -s


def test_difference_index_is_path_independent(rng):
    for _ in range(4):
        l0, l1, lam, mu = (random_lagrangian(SP2, rng) for _ in range(4))
        vals = {hormander(l0, l1, lam, mu, seed=s) for s in (0, 1, 2)}
        assert len(vals) == 1


def _frame_route_hormander(ell0, ell1, lam, mu, seed=0):
    """sigma(ell0, ell1; lam, mu) counted through frames: each principal
    geodesic of pair unitaries against the horizontal reference is
    sampled at 9 frames lagrangian_from_souriau(ref, U_t), routed through
    the pair unitary of a seeded random intermediate when the direct one
    hits the cut (standard spaces only)."""
    lagrangian_from_souriau = importlib.import_module(
        "masidx.souriau"
    ).lagrangian_from_souriau
    ref = horizontal_frame(ell0.space)

    def segment(wa, wb):
        try:
            g = geodesic_path([0.0, 1.0], [wa, wb], [0.0, 1.0])
        except PreconditionError:
            return None
        return lagrangian_path_from_function(
            lambda t: lagrangian_from_souriau(ref, g.at(t)), num=9
        )

    w0, w1 = souriau(ref, ell0), souriau(ref, ell1)
    path = segment(w0, w1)
    rng = np.random.default_rng(seed)
    while path is None:
        wm = souriau(ref, random_lagrangian(ell0.space, rng))
        first, second = segment(w0, wm), segment(wm, w1)
        if first is not None and second is not None:
            path = catenate(first, second)
    return maslov(path, lam).value - maslov(path, mu).value


@pytest.mark.parametrize("routed", [False, True])
def test_hormander_forms_no_frames(routed, rng, monkeypatch):
    """The connecting path counts on its geodesic of pair unitaries, so
    ``hormander`` forms no frame (``paths._geodesic_frame``), on a direct
    path and on one routed around the cut (ell1 = J ell0); it gives the
    integers of the sampled frame route."""
    original = paths._geodesic_frame
    calls = []

    def recording(*args):
        calls.append(args)
        return original(*args)

    for n in (1, 2, 3):
        sp = standard_space(n)
        for _ in range(4):
            l0, l1, lam, mu = (random_lagrangian(sp, rng) for _ in range(4))
            if routed:
                l1 = l0.j_image()
            nodes = connecting_path(l0, l1)._geodesic[1].times
            assert len(nodes) == (3 if routed else 2)
            want = _frame_route_hormander(l0, l1, lam, mu)
            with monkeypatch.context() as patch:
                patch.setattr(paths, "_geodesic_frame", recording)
                assert hormander(l0, l1, lam, mu) == want
            assert calls == []


def test_transition_functions_form_a_cocycle(rng):
    ell = horizontal_frame(SP2)
    for _ in range(5):
        nu, _ = transversal_pair(SP2, rng)
        lam, mu = transversal_pair(SP2, rng)
        kap = random_lagrangian(SP2, rng)
        g_lm = transition_function(nu, lam, mu, ell)
        g_mk = transition_function(nu, mu, kap, ell)
        g_lk = transition_function(nu, lam, kap, ell)
        assert g_lm + g_mk == g_lk
        assert transition_function(nu, mu, lam, ell) == -g_lm
        assert transition_function(nu, lam, lam, ell) == 0


def test_transition_function_requires_transversality(rng):
    ell = horizontal_frame(SP2)
    lam = random_lagrangian(SP2, rng)
    with pytest.raises(PreconditionError):
        transition_function(lam, lam, random_lagrangian(SP2, rng), ell)
