"""The JSON command line, driven in-process through ``cli.run``."""

import functools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from masidx import (
    ValidationError,
    cli,
    crossings,
    haar_unitary,
    horizontal_frame,
    maslov,
    maslov_via_crossings,
    pairs,
    paths,
    souriau,
    standard_space,
    verify_coincidence,
    vertical_frame,
)
from conftest import (
    geodesic_nodes,
    ladder_body,
    ladder_flow,
    random_structure_space,
    rotation_problem,
    spinner_crossings,
    spinner_expected,
    spinner_path,
)
from record_golden import GOLDEN

# eigenphases move from phases to phases + pi * rates; every endpoint stays
# at least 0.5 away from -1, so the closed-form count is unambiguous
SPINNERS = {
    1: ([0.3], [1.5]),
    3: ([0.4, -1.9, 2.6], [1.8, -1.3, 0.9]),
    4: ([0.3, -1.0, 2.0, -2.5], [1.5, -1.2, 0.8, 2.6]),
}


def _real(M):
    return np.asarray(M, dtype=float).tolist()


def _complex(U):
    U = np.asarray(U, dtype=complex)
    return np.stack([U.real, U.imag], axis=-1).tolist()


def _run(tmp_path, capsys, command, body, *flags):
    src = tmp_path / f"{command}.json"
    src.write_text(json.dumps(body))
    code = cli.run([command, str(src), *flags])
    out = capsys.readouterr().out
    return code, json.loads(out), out


def _spinner_body(n, nodes, rng, space=None, turned=False):
    """maslov input for the spinner of SPINNERS[n], sampled at ``nodes``.

    The path is built in the standard model and pulled back into
    ``space`` by its standardization, which ``souriau`` undoes, so the
    index stays the closed-form spinner value.  ``turned`` first moves
    the reference and the path by one random unitary of the standard
    model, which keeps the index but takes the reference off the
    horizontal.
    """
    phases, rates = SPINNERS[n]
    path, ref = spinner_path(
        standard_space(n), phases, rates, rng=rng, num=nodes
    )
    body = {"version": 1, "n": n}
    pull = np.eye(2 * n)
    if turned:
        U = haar_unitary(n, rng)
        pull = np.block([[U.real, -U.imag], [U.imag, U.real]])
    if space is not None:
        pull = space.standardization.inverse @ pull
        body["space"] = {"J": _real(space.J), "G": _real(space.G)}
    body["reference"] = _real(pull @ ref.F)
    body["path"] = [
        {"t": t, "frame": _real(pull @ f.F)} for t, f in path.samples
    ]
    return body, spinner_expected(phases, rates)


@pytest.mark.parametrize("n", [1, 4])
def test_general_space_maslov_gives_spinner_value(n, rng, tmp_path, capsys):
    # n = 4 needs a Lagrangian refinement reference in a general space
    body, expected = _spinner_body(n, 5, rng, random_structure_space(n, rng))
    code, out, _ = _run(
        tmp_path, capsys, "maslov", body, "--refine-factor", "2"
    )
    assert code == 0, out
    assert out["value"] == expected


def test_general_space_crossings_give_spinner_value(rng, tmp_path, capsys,
                                                    monkeypatch):
    counts = _recorded(monkeypatch, "_phillips", paths)
    body, expected = _spinner_body(1, 5, rng, random_structure_space(1, rng))
    code, out, _ = _run(tmp_path, capsys, "crossings", body)
    assert code == 0, out
    assert counts == []
    assert out["value"] == expected == 1
    (crossing,) = out["crossings"]
    phase, rate = SPINNERS[1][0][0], SPINNERS[1][1][0]
    assert crossing["t_star"] == pytest.approx(
        (np.pi - phase) / (np.pi * rate), abs=1e-8
    )
    assert crossing["signature"] == [1, 0]


def _recorded(monkeypatch, name, *modules):
    """Wrap the function ``name`` of ``modules[0]`` in each of ``modules``;
    returns the (args, result) of each of its calls."""
    calls = []
    original = getattr(modules[0], name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for module in modules:
        monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("richardson", [False, True])
def test_crossings_searches_once_per_request(richardson, rng, tmp_path,
                                             capsys, monkeypatch):
    calls = _recorded(monkeypatch, "find_crossings", crossings, cli)
    # the search starts from the grid and runs no count
    counts = _recorded(monkeypatch, "_phillips", paths)
    body, expected = _spinner_body(3, 5, rng)
    body["richardson"] = richardson
    code, out, text = _run(tmp_path, capsys, "crossings", body)
    assert code == 0, out
    assert out["value"] == expected
    assert len(out["crossings"]) == 3
    assert len(calls) == 1
    assert counts == []
    # the field is checked and ignored: the other value prints the same
    body["richardson"] = not richardson
    code, _, again = _run(tmp_path, capsys, "crossings", body)
    assert (code, again) == (0, text)


def test_richardson_crossings_report_the_plain_crossing_sum(
    rng, tmp_path, capsys, monkeypatch
):
    calls = _recorded(monkeypatch, "find_crossings", cli)
    body, _ = _spinner_body(4, 5, rng, random_structure_space(4, rng))
    body["richardson"] = True
    code, out, _ = _run(tmp_path, capsys, "crossings", body)
    assert code == 0, out
    ((args, _),) = calls
    assert out["value"] == maslov_via_crossings(*args)


def test_refine_factor_matches_dense_sampling(rng, tmp_path, capsys):
    # one seed, so both samplings share the spinner's orientation
    seed = int(rng.integers(2**31))
    coarse, expected = _spinner_body(3, 5, np.random.default_rng(seed))
    dense, _ = _spinner_body(3, 65, np.random.default_rng(seed))
    code, refined, _ = _run(
        tmp_path, capsys, "maslov", coarse, "--refine-factor", "2"
    )
    assert code == 0, refined
    code, sampled, _ = _run(tmp_path, capsys, "maslov", dense)
    assert code == 0, sampled
    assert refined["value"] == sampled["value"] == expected


def test_invalid_frame_exits_2(tmp_path, capsys):
    # span(e_1, e_3) pairs to 1 under omega: not Lagrangian
    frame = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    body = {
        "version": 1,
        "n": 2,
        "reference": frame,
        "path": [{"t": 0.0, "frame": frame}, {"t": 1.0, "frame": frame}],
    }
    code, out, _ = _run(tmp_path, capsys, "maslov", body)
    assert code == 2
    assert out == {"reason": "subspace is not isotropic", "where": "lagrangian"}


_REDUCE_KEYS = ["lam_plus", "lam_minus", "ell_plus", "ell_minus",
                "i_plus_diag", "path"]


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("maslov", {"n": 0, "reference": [], "path": []}, "n"),
        ("unitary-maslov", {"n": -1, "path": []}, "n"),
        ("complex-kashiwara", {"n": True, "unitaries": []}, "n"),
        ("leray", {"n": 1.0, "lift1": {}, "lift2": {}}, "n"),
        ("reduce", dict.fromkeys(_REDUCE_KEYS, [])
         | {"n_big": "2", "n_small": 1}, "n_big"),
        ("reduce", dict.fromkeys(_REDUCE_KEYS, [])
         | {"n_big": 2, "n_small": 0}, "n_small"),
        ("spectral-flow", {"N": 0, "B": [], "family": [], "lambda0": [],
                           "lambda1": []}, "N"),
    ],
)
def test_sizes_must_be_positive_integers(command, body, key, tmp_path,
                                         capsys):
    code, out, _ = _run(tmp_path, capsys, command, {"version": 1, **body})
    assert code == 2
    assert out == {"reason": f'"{key}" must be a positive integer',
                   "where": "input"}


def _scalar_unitary_body(end_phase):
    return {
        "version": 1,
        "n": 1,
        "path": [
            {"t": 0.0, "U": _complex([[1.0]])},
            {"t": 1.0, "U": _complex([[np.exp(1j * end_phase)]])},
        ],
    }


def test_undersampled_path_without_refinement_exits_3(tmp_path, capsys):
    code, out, _ = _run(
        tmp_path, capsys, "unitary-maslov", _scalar_unitary_body(2.5)
    )
    assert code == 3
    assert out["where"] == "unitary_maslov"


@pytest.mark.parametrize("end_phase, code", [(0.50, 0), (0.51, 3)])
def test_unrefined_gaps_are_read_up_to_chord_one_half(end_phase, code,
                                                      tmp_path, capsys):
    # |exp(i phi) - 1| = 2 sin(phi / 2) crosses 0.5 at phi = 0.5054
    got, out, _ = _run(
        tmp_path, capsys, "unitary-maslov", _scalar_unitary_body(end_phase)
    )
    assert got == code
    if code == 0:
        assert out["value"] == 0
    else:
        assert out == {
            "reason": "no admissible test angle at the sampled resolution "
            "(undersampled) and the path has no refiner",
            "where": "unitary_maslov",
        }


def test_antipodal_samples_under_refinement_exit_4(tmp_path, capsys):
    code, out, _ = _run(
        tmp_path,
        capsys,
        "unitary-maslov",
        _scalar_unitary_body(np.pi),
        "--refine-factor",
        "2",
    )
    assert code == 4
    assert out["where"] == "path[0]"
    assert "antipodal" in out["reason"]


def _turned_frame(U, psi, rng):
    """The unitary U1 of a standard-model frame whose gap from U, X =
    U^H (U1 U1^T) conj(U), has the angles ``psi`` about a random real
    eigenbasis."""
    Q, _ = np.linalg.qr(rng.standard_normal((len(psi), len(psi))))
    return U @ (Q * np.exp(0.5j * np.asarray(psi)))


@pytest.mark.parametrize("command", ["maslov", "crossings"])
@pytest.mark.parametrize(
    "offset, code", [(0.5e-6, 4), (-0.5e-6, 4), (2e-6, 0)]
)
def test_lagrangian_gap_within_the_log_cut_exits_4(command, offset, code,
                                                   rng, tmp_path, capsys):
    """A gap of a refined Lagrangian path with an angle within
    ``log_cut`` = 1e-6 of pi (either side) is antipodal: exit 4 at the
    gap's index with the reason of every geodesic; 2e-6 away it counts."""
    n = 3
    U0 = haar_unitary(n, rng)
    U1 = _turned_frame(U0, [0.4, -0.7, 1.0], rng)
    psi = math.copysign(np.pi - abs(offset), offset)
    U2 = _turned_frame(U1, [psi, -0.2, 0.5], rng)
    body = {
        "version": 1,
        "n": n,
        "reference": _real(vertical_frame(standard_space(n)).F),
        "path": [
            {"t": t, "frame": _real(np.vstack([U.real, U.imag]))}
            for t, U in zip((0.0, 0.5, 1.0), (U0, U1, U2))
        ],
    }
    got, out, _ = _run(
        tmp_path, capsys, command, body, "--refine-factor", "2"
    )
    assert got == code, out
    if code == 4:
        assert out == {
            "reason": "adjacent samples are antipodal in the unitary model; "
            "supply intermediate samples",
            "where": "path[1]",
        }


def test_rerun_is_byte_identical(rng, tmp_path, capsys):
    body, _ = _spinner_body(4, 5, rng, random_structure_space(4, rng))
    runs = []
    for k in range(2):
        trace = tmp_path / f"trace{k}.csv"
        code, _, raw = _run(
            tmp_path,
            capsys,
            "maslov",
            body,
            "--refine-factor",
            "2",
            "--trace",
            str(trace),
        )
        assert code == 0
        runs.append((raw, trace.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "a0, r, flow",
    [
        ([0.3], [3.5], 1),
        ([0.3, -0.3], [-3.5, -3.2], -3),
        # at t = 0.375 the root s = 0.9 sits on a grid point of the
        # eigenvalue search, which once reported it twice
        ([0.3, -0.3], [3.5, 3.2], 2),
        # two ladders meet at t = 0.35, s = 0.725
        ([0.2, 0.9], [1.5, -0.5], 0),
        # more ladder meetings; at t = 0.8625 the first has two roots
        # 3.5e-3 apart inside one cell of the eigenvalue search
        ([1.789, 1.368], [1.708, 2.192], 2),
        ([-0.574, 0.876], [-2.956, 2.565], 0),
        ([-0.382, 0.965, 0.853], [-2.171, -1.174, -0.523], -1),
    ],
)
def test_spectral_flow_counts_decoupled_ladders(a0, r, flow, tmp_path,
                                                capsys):
    assert ladder_flow(a0, r) == flow
    code, out, _ = _run(tmp_path, capsys, "spectral-flow", ladder_body(a0, r))
    assert code == 0, out
    assert out["value"] == flow


@pytest.mark.parametrize(
    "a0, r",
    [
        ([1.0], [-4.2]),
        # the benchmark's defect-(e) family, with eigenvalues at the edges
        # of the detection window
        ([-1.62565259, 0.39809789], [-2.258514, -2.22104573]),
        # the benchmark's defect-(f) family: nearly parallel ladders, whose
        # Cauchy-data eigenphases overtake each other between samples
        ([-1.81714959, -0.82636697, -0.17368599, 0.19631976],
         [3.2609383, 3.16980147, 2.91277622, 3.32465287]),
    ],
)
def test_verify_coincidence_on_a_ladder(a0, r, tmp_path, capsys):
    code, out, _ = _run(
        tmp_path, capsys, "verify-coincidence", ladder_body(a0, r)
    )
    assert code == 0, out
    assert out["sf"] == out["mas"] == ladder_flow(a0, r)
    assert out["equal"] is True


def test_verify_coincidence_on_a_fast_family(tmp_path, capsys):
    """C_t from 0.1 I to 6 I over one gap: the Cauchy-data path turns by
    a whole turn between the two nodes, which a chord read at the nodes
    misses; its certified radius halves the gap, and both sides read the
    closed form 1."""
    code, out, raw = _run(
        tmp_path, capsys, "verify-coincidence",
        ladder_body([0.1], [5.9], nodes=2),
    )
    assert code == 0, raw
    assert ladder_flow([0.1], [5.9]) == 1
    assert (out["sf"], out["mas"], out["equal"]) == (1, 1, True)
    assert '"equal":true' in raw


def test_commuting_b_exits_2(tmp_path, capsys):
    body = ladder_body([0.3], [3.5])
    body["B"] = _real(np.eye(2))
    code, out, _ = _run(tmp_path, capsys, "spectral-flow", body)
    assert code == 2
    assert out == {
        "reason": "B must anticommute with the structure matrix "
        "(otherwise the flow is not symplectic)",
        "where": "boundary_problem",
    }


# --------------------------------------------------------------------------
# maslov counts the interpolated frame path on its pair unitaries


@pytest.mark.parametrize("n, general", [(3, False), (4, True)])
def test_refined_maslov_builds_no_frames(n, general, rng, tmp_path, capsys,
                                         monkeypatch):
    space = random_structure_space(n, rng) if general else None
    body, expected = _spinner_body(n, 5, rng, space)
    # the CLI's refined Lagrangian paths form their frames in ``paths``
    calls = _recorded(monkeypatch, "_geodesic_frame", paths)
    code, out, _ = _run(
        tmp_path, capsys, "maslov", body, "--refine-factor", "2"
    )
    assert code == 0, out
    assert out["value"] == expected
    assert calls == []
    # the same input still gets its frames back for crossings
    code, _, _ = _run(tmp_path, capsys, "crossings", body)
    assert code == 0
    assert calls


def _cli_and_direct_geodesic_reports(body, monkeypatch, tmp_path, capsys):
    """The report the CLI's maslov counts on ``body`` at factor 2, and the
    count of the geodesic through the pair unitaries W(lam, mu_i) of the
    nodes themselves, with no cocycle."""
    calls = _recorded(monkeypatch, "maslov", cli)
    code, out, _ = _run(
        tmp_path, capsys, "maslov", body, "--refine-factor", "2"
    )
    assert code == 0, out
    ((_, got),) = calls
    tol = cli.DEFAULT_TOL
    lam, ts, frames = cli._reference_and_path(body, tol)
    direct = paths.geodesic_path(
        ts, [souriau(lam, f) for f in frames], cli._segment_times(ts, 2), tol
    )
    want = paths.unitary_maslov(direct, tol)
    assert got.value == want.value == out["value"]
    return got, want


# a general space from seed 0 at n = 3 and seed 4 at n = 4 once made the
# frame path refine further than the unitary count
@pytest.mark.parametrize(
    "n, general_seed, turned",
    [
        (1, None, False),
        (3, None, False),
        (4, None, False),
        (3, 0, False),
        (4, 4, False),
        (4, None, True),
        (3, 0, True),
    ],
    ids=[
        "1", "3", "4", "3-general-seed0", "4-general-seed4", "4-turned",
        "3-general-seed0-turned",
    ],
)
def test_refined_maslov_counts_on_the_frame_path_partition(n, general_seed,
                                                           turned, rng,
                                                           tmp_path, capsys,
                                                           monkeypatch):
    """The CLI's maslov reads the pair unitaries of its refined path by
    the cocycle W(lam, mu) = -W(h, mu) W(lam, h) off the geodesic through
    the W(h, mu_i).  The geodesic through U_i C is the one through U_i,
    times C, so the count of the geodesic through the W(lam, mu_i)
    themselves gives the same value, partition, test angles, arc counts
    and trace, in a general space too."""
    space = None
    if general_seed is not None:
        rng = np.random.default_rng(general_seed)
        space = random_structure_space(n, rng)
    body, expected = _spinner_body(n, 5, rng, space, turned)
    got, want = _cli_and_direct_geodesic_reports(body, monkeypatch,
                                                 tmp_path, capsys)
    assert got.value == expected
    np.testing.assert_array_equal(got.partition, want.partition)
    np.testing.assert_allclose(got.epsilons, want.epsilons, atol=1e-12)
    assert got.k_counts == want.k_counts
    # rows are the same multisets; columns follow the eigensolver's order
    for row, ref_row in zip(got.trace.values, want.trace.values):
        gap = np.abs(np.angle(np.exp(1j * (row[:, None] - ref_row[None, :]))))
        assert np.max(np.min(gap, axis=1)) <= 1e-12
        assert np.max(np.min(gap, axis=0)) <= 1e-12


def test_undersampled_maslov_without_refinement_exits_3(rng, tmp_path,
                                                        capsys):
    body, _ = _spinner_body(3, 5, rng)
    code, out, _ = _run(tmp_path, capsys, "maslov", body)
    assert code == 3
    assert out == {
        "reason": "no admissible test angle at the sampled resolution "
        "(undersampled) and the path has no refiner",
        "where": "unitary_maslov",
    }


# --------------------------------------------------------------------------
# input and argument validation


def _nan_middle_time(body):
    body["path"][1]["t"] = math.nan
    return body


def _unitary_three_nodes():
    body = _scalar_unitary_body(0.2)
    body["path"].insert(1, {"t": 0.5, "U": _complex([[np.exp(0.1j)]])})
    return body


@pytest.mark.parametrize(
    "command, body, flags, where",
    [
        ("unitary-maslov", _nan_middle_time(_unitary_three_nodes()), (),
         "input.path[1].t"),
        ("unitary-maslov", _nan_middle_time(_unitary_three_nodes()),
         ("--refine-factor", "2"), "input.path[1].t"),
        ("spectral-flow",
         ladder_body([0.3], [3.5]) | {"family": [
             {"t": t, "C": _real(np.zeros((2, 2)))}
             for t in (0.0, math.nan, 1.0)
         ]}, (), "input.family[1].t"),
    ],
    ids=["unitary-maslov-r1", "unitary-maslov-r2", "spectral-flow"],
)
def test_nan_times_exit_2(command, body, flags, where, tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys, command, body, *flags)
    assert code == 2
    assert out == {"reason": "number must be finite", "where": where}


@pytest.mark.parametrize("command", ["maslov", "pair-maslov"])
def test_unordered_lagrangian_samples_exit_2(command, tmp_path, capsys):
    # at --refine-factor 1 both commands take the samples as a
    # LagrangianPath, which checks their times
    nodes = [{"t": t, "frame": _LINE} for t in (0.0, 0.7, 0.5, 1.0)]
    body = {"version": 1, "n": 1}
    if command == "maslov":
        body |= {"reference": _LINE, "path": nodes}
    else:
        body |= {"mu_path": nodes, "lambda_path": nodes}
    code, out, _ = _run(tmp_path, capsys, command, body)
    assert code == 2
    assert out == {"reason": "sample times must be strictly increasing",
                   "where": "LagrangianPath"}


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "1e400"])
def test_infinite_maslov_time_exits_2(literal, rng, tmp_path, capsys):
    body, _ = _spinner_body(1, 5, rng)
    body["path"][2]["t"] = "TIME"
    src = tmp_path / "maslov.json"
    src.write_text(json.dumps(body).replace('"TIME"', literal))
    code = cli.run(["maslov", str(src), "--refine-factor", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out == {"reason": "number must be finite",
                   "where": "input.path[2].t"}


def test_reduce_needs_a_list_of_weights(tmp_path, capsys):
    # every other field is valid, so only the weights can be refused
    sp = standard_space(1)
    hor, ver = _real(horizontal_frame(sp).F), _real(vertical_frame(sp).F)
    body = {
        "version": 1, "n_big": 1, "n_small": 1, "i_plus_diag": 5,
        "lam_plus": ver, "lam_minus": hor, "ell_plus": ver,
        "ell_minus": hor,
        "path": [{"t": 0.0, "frame": hor}, {"t": 1.0, "frame": hor}],
    }
    code, out, _ = _run(tmp_path, capsys, "reduce", body)
    assert code == 2
    assert out == {"reason": '"i_plus_diag" must be a list of numbers',
                   "where": "input.i_plus_diag"}


@pytest.mark.parametrize("window", ["nan", "inf", "-1", "0"])
def test_window_must_be_finite_and_positive(window, tmp_path, capsys):
    code, out, _ = _run(
        tmp_path, capsys, "spectral-flow", ladder_body([0.3], [3.5]),
        f"--window={window}",
    )
    assert code == 2
    assert out == {"reason": "--window must be a finite number > 0",
                   "where": "arguments"}


@pytest.mark.parametrize("window", ["1e16", "1e20", "1e300"])
@pytest.mark.parametrize("command", ["spectral-flow", "verify-coincidence"])
def test_window_past_the_float_spacing_exits_2(command, window, tmp_path,
                                               capsys):
    # the trace is the window's only reader, and its shooting grid on
    # (-window, window] would hold far more than the sample cap
    code, out, _ = _run(
        tmp_path, capsys, command, ladder_body([0.3], [3.5]),
        f"--window={window}", "--trace", str(tmp_path / "trace.csv"),
    )
    assert code == 2
    assert out["where"] == "eigenvalues_near"
    assert out["reason"].endswith(
        f"would hold more than {cli.MAX_SAMPLES} points"
    )
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "window", [repr(0.3 + 2.0 * math.pi), "1e6", "1e15", "1e16"]
)
@pytest.mark.parametrize("command", ["spectral-flow", "verify-coincidence"])
def test_the_window_leaves_the_flow_count_alone(command, window, tmp_path,
                                                capsys):
    # the flow count reads the detection window near 0 only: not the
    # eigenvalue 0.3 + 2 pi of t = 0 on the window's edge, nor the flow
    # at s = +-window, where expm fails the symplectic check
    code, out, _ = _run(
        tmp_path, capsys, command, ladder_body([0.3], [3.5]),
        f"--window={window}",
    )
    assert code == 0, out
    want = {"value": 1} if command == "spectral-flow" else {
        "sf": 1, "mas": 1, "equal": True
    }
    assert {k: out[k] for k in want} == want


@pytest.mark.parametrize("command", ["spectral-flow", "verify-coincidence"])
def test_trace_grid_beyond_the_sample_cap_exits_2(command, tmp_path, capsys):
    # window 1e5 leaves the flow count alone, but the trace would shoot a
    # grid of about 690k points at each family node
    body = ladder_body([0.3], [3.5])
    code, _, _ = _run(tmp_path, capsys, command, body, "--window=1e5")
    assert code == 0
    start = time.perf_counter()
    code, out, _ = _run(
        tmp_path, capsys, command, body,
        "--window=1e5", "--trace", str(tmp_path / "trace.csv"),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == {
        "reason": "the shooting grid on [-100000.0, 100000.0] would hold "
        f"more than {cli.MAX_SAMPLES} points",
        "where": "eigenvalues_near",
    }
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "command, factor",
    [("unitary-maslov", 10**9), ("maslov", 15000), ("crossings", 15000)],
)
def test_refine_factor_beyond_the_sample_cap_exits_2(command, factor, rng,
                                                     tmp_path, capsys):
    # 15000 on five nodes asks for one sample more than the cap, 10**9 on
    # two for far more; both are refused before any sample is built
    if command == "unitary-maslov":
        body = _scalar_unitary_body(0.2)
    else:
        body, _ = _spinner_body(1, 5, rng)
    code, out, _ = _run(
        tmp_path, capsys, command, body, "--refine-factor", str(factor)
    )
    assert code == 2
    assert out["where"] == "arguments"
    assert f"more than {cli.MAX_SAMPLES} samples" in out["reason"]


def test_segment_times_stop_at_the_sample_cap():
    assert len(cli._segment_times([0.0, 1.0], cli.MAX_SAMPLES - 1)) == (
        cli.MAX_SAMPLES
    )
    with pytest.raises(cli.ValidationError):
        cli._segment_times([0.0, 1.0], cli.MAX_SAMPLES)


def test_refined_unitary_path_forms_samples_only_when_read():
    """3001 geodesic samples at n = 32 hold about 50 MB.  The count reads
    spectra only, so the path forms none of them."""
    n = 32
    ts, nodes = geodesic_nodes(n, np.random.default_rng(5), 1, 2.5)
    tol = cli.DEFAULT_TOL
    tracemalloc.start()
    try:
        path = cli._unitary_cli_path(ts, nodes, 3000, tol)
        lazy = paths.unitary_maslov(path, tol)
        # the value reads two spectra; Phillips' count runs when read
        samples = len(lazy.partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    # the path holds its node, the Schur vectors and angles, and M
    (piece,) = path.pieces
    held = [piece.U0, piece.Z, piece.theta, piece.M]
    assert sum(a.nbytes for a in held) <= 3 * nodes[0].nbytes + 8 * n
    assert len(path.samples) == samples == 3001
    eager = paths.unitary_maslov(
        paths.unitary_path(tuple(path.samples), refiner=path.at), tol
    )
    assert lazy.value == eager.value
    np.testing.assert_array_equal(lazy.partition, eager.partition)


def _counting(counts, name, fn):
    """``fn``, adding one to ``counts[name]`` per call."""
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_cli_geodesic_count_runs_no_norm_or_svd(monkeypatch):
    """On a refined CLI path the radius is exact: the count makes no
    spectral-norm or SVD call, and the path is built by one stacked
    Hermitian eigensolve for all its gaps.  The value reads the two end
    spectra, and Phillips' count, run when the partition is read, shares
    them: one eigvals per partition time."""
    counts = dict.fromkeys(("norm2", "svd", "eigvals", "eigh"), 0)
    counting = functools.partial(_counting, counts)
    norm = np.linalg.norm

    def norm_counted(x, ord=None, *args, **kwargs):
        counts["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm_counted)
    for name in ("svd", "eigvals", "eigh"):
        monkeypatch.setattr(
            np.linalg, name, counting(name, getattr(np.linalg, name))
        )
    ts, nodes = geodesic_nodes(6, np.random.default_rng(11), 5, 2.8)
    tol = cli.DEFAULT_TOL
    path = cli._unitary_cli_path(ts, nodes, 2, tol)
    assert len(path.pieces) == len(ts) - 1
    assert counts["eigh"] == 1
    counts.update(dict.fromkeys(counts, 0))
    report = paths.unitary_maslov(path, tol)
    assert counts["eigvals"] == 2
    assert len(report.partition) > len(path.grid)
    assert counts["norm2"] == counts["svd"] == counts["eigh"] == 0
    assert counts["eigvals"] == len(report.partition)


# eigvals calls of each command at --refine-factor 2: two end spectra per
# count, and one stacked call for the certified pieces of a reduced path
_LIFTED_EIGVALS = {"maslov": 2, "unitary-maslov": 2, "pair-maslov": 2,
                   "reduce": 5}


@pytest.mark.parametrize("command", sorted(_LIFTED_EIGVALS))
def test_cli_geodesic_count_runs_phillips_only_when_read(command, rng,
                                                         tmp_path, capsys,
                                                         monkeypatch):
    """At --refine-factor 2 every count of these commands knows its path's
    determinant phase and takes the value from the lift: no
    ``_phillips`` call, and a pinned number of eigvals calls.  The pair
    path's legs lie on different node times.  Reading a report's
    partition runs Phillips' count once: one eigvals per partition time
    not yet read on a geodesic path, and on a sampled path one stacked
    call for its samples and one per time the count inserts.  Its arc
    counts sum to the value; reading it again, or the other fields, runs
    none."""
    if command == "unitary-maslov":
        ts, nodes = geodesic_nodes(4, rng, 4, 2.8)
        body = {"version": 1, "n": 4, "path": [
            {"t": t, "U": _complex(U)} for t, U in zip(ts, nodes)
        ]}
    elif command == "reduce":
        body = _golden_case("reduce")["input"]
    else:
        body, _ = _spinner_body(4, 5, rng)
    if command == "pair-maslov":
        ref = body.pop("reference")
        body["mu_path"] = body.pop("path")
        body["lambda_path"] = [{"t": t, "frame": ref} for t in (0.0, 1.0)]
    counts = dict.fromkeys(("phillips", "eigvals"), 0)
    counting = functools.partial(_counting, counts)
    monkeypatch.setattr(paths, "_phillips",
                        counting("phillips", paths._phillips))
    monkeypatch.setattr(np.linalg, "eigvals",
                        counting("eigvals", np.linalg.eigvals))
    # each command hands its count's reports back from the function it
    # is named after, and reduce from ``maslov``
    name = "maslov" if command == "reduce" else command.replace("-", "_")
    reports = _recorded(monkeypatch, name, cli)
    code, out, _ = _run(
        tmp_path, capsys, command, body, "--refine-factor", "2"
    )
    assert code == 0, out
    want = {"phillips": 0, "eigvals": _LIFTED_EIGVALS[command]}
    assert counts == want
    for _, report in reports:
        path = report._reads._path
        partition = report.partition
        want["phillips"] += 1
        if isinstance(path, paths.GeodesicPath):
            want["eigvals"] += len(partition) - 2
        else:
            want["eigvals"] += 1 + len(partition) - len(path.samples)
        assert counts == want
        assert sum(hi - lo for lo, hi in report.k_counts) == report.value
        assert report.partition is partition
        assert report.diagnostics == {"samples": len(partition)}
        assert len(report.epsilons) == len(partition) - 1
        assert counts == want
    assert reports[-1][1].value == out["value"]


def test_refined_lagrangian_paths_form_frames_only_where_read(monkeypatch):
    """A 2-node spinner at n = 8 refined 3000 times once held 3001 frames
    (10.9 MB) before anything was counted.  The crossing search and the
    pair count read the pair unitaries off the geodesic pieces: they form
    no frame, and the search makes no spectral-norm or SVD call."""
    n = 8
    phases = np.linspace(-2.6, 2.8, n)
    rates = 0.85 * np.cos(np.arange(n) + 0.5)
    path, ref = spinner_path(standard_space(n), phases, rates,
                             rng=np.random.default_rng(3), num=2)
    ts, frames = (list(x) for x in zip(*path.samples))
    tol = cli.DEFAULT_TOL
    counts = dict.fromkeys(("frames", "norm2", "svd"), 0)
    check = paths.LagrangianFrame.__post_init__

    def counted_check(self):
        counts["frames"] += 1
        check(self)

    norm, svd = np.linalg.norm, np.linalg.svd

    def norm_counted(x, ord=None, *args, **kwargs):
        counts["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    def svd_counted(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(paths.LagrangianFrame, "__post_init__",
                        counted_check)
    monkeypatch.setattr(np.linalg, "norm", norm_counted)
    monkeypatch.setattr(np.linalg, "svd", svd_counted)
    mu = cli._lagrangian_path(ts, frames, 3000, tol)
    lam = cli._lagrangian_path(ts, [ref, ref], 3000, tol)
    assert len(mu.samples) == 3001
    counts.update(dict.fromkeys(counts, 0))
    tracemalloc.start()
    try:
        found = crossings.find_crossings(mu, ref, tol)
        search_peak = tracemalloc.get_traced_memory()[1]
        assert counts == {"frames": 0, "norm2": 0, "svd": 0}
        tracemalloc.reset_peak()
        value = pairs.pair_maslov(mu, lam, tol).value
        pair_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts["frames"] == 0
    # both peaks were above 27 MB with the frames formed up front
    assert search_peak < 3e6 and pair_peak < 8e6
    want = spinner_crossings(phases, rates)
    np.testing.assert_allclose(found, [t for t, _ in want], atol=1e-8)
    assert value == spinner_expected(phases, rates) == sum(
        sign for _, sign in want
    )


def test_refined_unitary_path_checks_every_node(tmp_path, capsys):
    # a geodesic ends on a unitary whatever its last node is, so the node
    # itself must be checked
    body = _scalar_unitary_body(0.2)
    body["path"][-1]["U"] = _complex([[2.0]])
    code, out, _ = _run(
        tmp_path, capsys, "unitary-maslov", body, "--refine-factor", "2"
    )
    assert code == 2
    assert out == {"reason": "sample at t=1.0 not unitary",
                   "where": "UnitaryPath"}


def test_pair_unitaries_of_checked_frames_are_not_checked_again(
        tmp_path, capsys, monkeypatch):
    """``souriau`` bounds the pair unitary of two checked frames to about
    4e-10, so a sampled Lagrangian path converts with no second check:
    ``verify_coincidence`` and a refined ``reduce`` check no pair unitary
    (41 and 101 were).  Unitaries a caller supplies are still checked."""
    checked = _recorded(monkeypatch, "_unitaries", paths)
    assert verify_coincidence(rotation_problem())["equal"]
    case = _golden_case("reduce")
    code, _, _ = _run(tmp_path, capsys, "reduce", case["input"],
                      *case["args"])
    assert code == 0
    assert checked == []
    with pytest.raises(ValidationError, match="not unitary"):
        paths.unitary_path([(0.0, np.eye(2)), (1.0, 2.0 * np.eye(2))])


def test_reduce_counts_on_the_certified_radius(tmp_path, capsys,
                                               monkeypatch):
    """A refined ``reduce`` marches on the exact frame speed of its
    geodesic and counts the reduced path with the march's certified
    radius: no rate probe, no chord radius, and one SVD of Gamma F(t) per
    time the count reads, save t = 1, where no piece starts."""

    def refuse(*args):
        raise AssertionError("heuristic route taken")

    monkeypatch.setattr(pairs, "_probe_rate", refuse)
    monkeypatch.setattr(paths, "_arc_radius", refuse)
    case = _golden_case("reduce")
    n = case["input"]["n_small"]
    sigmas = []
    svd = np.linalg.svd

    def svd_recorded(a, *args, **kwargs):
        if np.shape(a) == (2 * n, n):
            sigmas.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_recorded)
    reports = _recorded(monkeypatch, "maslov", cli)
    code, out, _ = _run(tmp_path, capsys, "reduce", case["input"],
                        *case["args"])
    assert code == 0
    (_, big), (_, small) = reports
    assert small.value == big.value == out["value"]
    marched = [row["t"] for row in out["reduced_path"]]
    assert set(marched) <= set(small.partition.tolist())
    assert len(sigmas) == len(small.partition) - 1


def test_frames_emit_in_one_format_as_their_entries():
    """A frame is formatted by one ``%`` per shape: its text is the float
    case's, entry by entry, and a non-finite entry is refused."""
    F = np.random.default_rng(2).standard_normal((4, 2))
    F[0, 0], F[1, 1], F[2, 0] = -0.0, 1e-300, 1.0 / 3.0
    rows = (",".join(cli._fmt(float(x)) for x in row) for row in F)
    want = "[" + ",".join("[" + row + "]" for row in rows) + "]"
    assert cli._fmt({"frame": F}) == '{"frame":' + want + "}"
    assert json.loads(want) == F.tolist()
    for bad in (np.nan, np.inf):
        F[3, 1] = bad
        with pytest.raises(ValidationError, match="non-finite value"):
            cli._fmt(F)


def _source(tmp_path, data):
    src = tmp_path / "input.json"
    src.write_bytes(data)
    return str(src)


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    src = _source(tmp_path, b'{"version": 1, "n": "\xff\xfe"}')
    code = cli.run(["maslov", src])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["where"] == src
    assert out["reason"].startswith("not valid JSON: 'utf-8' codec")


def test_input_nested_past_the_stack_exits_2(tmp_path, capsys):
    src = _source(tmp_path, b"[" * 100000 + b"]" * 100000)
    code = cli.run(["kashiwara", src])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["where"] == src
    assert out["reason"].startswith("not valid JSON: maximum recursion")


_LINE = [[1.0], [0.0]]
_NODES = [{"t": 0.0, "frame": _LINE}, {"t": 1.0, "frame": _LINE}]


@pytest.mark.parametrize(
    "command, body, where",
    [
        ("maslov", {"n": 10**7, "reference": _LINE, "path": _NODES},
         "input.reference"),
        ("crossings", {"n": 10**7, "reference": _LINE, "path": _NODES},
         "input.reference"),
        ("kashiwara", {"n": 10**7, "frames": [_LINE] * 3},
         "input.frames[0]"),
        ("hormander", {"n": 10**7} | dict.fromkeys(
            ["ell0", "ell1", "lam", "mu"], _LINE), "input.ell0"),
        ("pair-maslov", {"n": 10**7, "mu_path": _NODES,
                         "lambda_path": _NODES}, "input.mu_path[0].frame"),
        ("reduce", {"n_big": 10**7, "n_small": 1, "i_plus_diag": [1.0],
                    "path": _NODES} | dict.fromkeys(
            ["lam_plus", "lam_minus", "ell_plus", "ell_minus"], _LINE),
         "input.lam_plus"),
    ],
)
def test_sizes_past_the_input_exit_2_before_allocating(command, body, where,
                                                      tmp_path, capsys):
    # one n x n block of n = 10**7 takes 800 TB: the frames' shapes must
    # refuse the input before the space is built
    code, out, _ = _run(tmp_path, capsys, command, {"version": 1, **body})
    assert code == 2
    assert out == {
        "reason": "matrix has shape (2, 1), expected (20000000, 10000000)",
        "where": where,
    }


def _golden_case(command):
    cases = json.loads(GOLDEN.read_text())
    return next(c for c in cases if c["command"] == command)


@pytest.mark.parametrize("command", ["maslov", "pair-maslov", "reduce"])
def test_commands_without_trace_match_no_phases(command, tmp_path, capsys,
                                                monkeypatch):
    calls = _recorded(monkeypatch, "linear_sum_assignment", paths)
    case = _golden_case(command)
    code, _, _ = _run(tmp_path, capsys, command, case["input"],
                      *case["args"])
    assert code == 0
    assert calls == []


def test_pair_maslov_trace_has_one_row_per_partition_time(tmp_path, capsys,
                                                          monkeypatch):
    reports = _recorded(monkeypatch, "unitary_maslov", pairs)
    case = _golden_case("pair-maslov")
    n = case["input"]["n"]
    trace = tmp_path / "trace.csv"
    flags = [*case["args"], "--trace", str(trace)]
    code, _, _ = _run(tmp_path, capsys, "pair-maslov", case["input"], *flags)
    assert code == 0
    first = trace.read_bytes()
    ((_, report),) = reports
    header, *rows = first.decode().splitlines()
    assert header.split(",") == ["t"] + [f"phase_{k}" for k in range(1, n + 1)]
    assert [float(r.split(",")[0]) for r in rows] == report.partition.tolist()
    assert all(len(r.split(",")) == n + 1 for r in rows)
    _run(tmp_path, capsys, "pair-maslov", case["input"], *flags)
    assert trace.read_bytes() == first
