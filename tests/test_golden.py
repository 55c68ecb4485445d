"""CLI outputs of all eleven subcommands against recorded goldens.

``golden/cli.json`` holds each input with the exit code and stdout it
gave when recorded (``record_golden.py``).  Keys, booleans and strings
must match exactly and numbers to within 1e-12 (``record_golden.compare``):
exact for the integers, and room for BLAS rounding in crossing times.

A reduced frame is Gamma F of its marching frame, G-orthonormalized
(``pairs.gamma_reduce``), so it follows that frame's basis.  The marching
frame at time tau of a gap is [Re; Im] of V diag(exp(i tau phi / 2)),
with V = U O for the node's U = X + iY and the real eigenbasis O of the
gap, each column signed by a fixed rule (``paths._lagrangian_pieces``).
So where the gap's angles phi are distinct, the printed frame follows
the spans of the node frames alone, to rounding: a node frame given in
another basis prints the same reduced path.  A repeated phi still
leaves LAPACK a basis inside its eigenspace.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from masidx import core, pairs, paths

import record_golden
from conftest import spinner_crossings
from record_golden import (
    CROSSINGS_SPINNERS,
    GOLDEN,
    _reduce_body,
    compare,
    run_case,
)

CASES = json.loads(pathlib.Path(GOLDEN).read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_cli_output_matches_golden(case):
    code, stdout = run_case(case["command"], case["args"], case["input"])
    assert code == case["exit"]
    diff, where = compare(json.loads(stdout), json.loads(case["stdout"]))
    assert diff <= 1e-12, where


@pytest.mark.parametrize(
    "case",
    [c for c in CASES if c["command"] == "crossings"],
    ids=lambda c: c["id"],
)
def test_golden_crossing_times_are_the_closed_form(case):
    spinner = CROSSINGS_SPINNERS[case["id"].removesuffix("-richardson")]
    rows = json.loads(case["stdout"])["crossings"]
    want = spinner_crossings(*spinner)
    assert len(rows) == len(want)
    for row, (t, sign) in zip(rows, want):
        assert abs(row["t_star"] - t) <= 1e-8
        p, q = row["signature"]
        assert p - q == sign


@pytest.mark.parametrize(
    "body",
    [
        next(c["input"] for c in CASES if c["id"] == "reduce-standard-2"),
        _reduce_body(3, [0.3, -2.5, 1.2], [1.5, -0.6, 0.9],
                     np.random.default_rng(3), [0.5, 1.0, 2.5]),
    ],
    ids=["reduce-standard-2", "reduce-standard-3"],
)
def test_reduce_output_follows_the_node_spans(body):
    """Each node frame F given as F Q, Q a random rotation, reduces to
    the same printed path to 1e-12: the gaps' angles are distinct."""
    rng = np.random.default_rng(19)
    code, want = run_case("reduce", ["--refine-factor", "2"], body)
    assert code == 0
    turned = dict(body, path=[])
    for node in body["path"]:
        n = len(node["frame"][0])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        frame = (np.array(node["frame"]) @ Q).tolist()
        turned["path"].append(dict(node, frame=frame))
    code, got = run_case("reduce", ["--refine-factor", "2"], turned)
    assert code == 0
    diff, where = compare(json.loads(got), json.loads(want))
    assert diff <= 1e-12, where


@pytest.mark.parametrize(
    "got, want, diff, where",
    [
        ({"a": [1, 2.5]}, {"a": [1.0, 2.5]}, 0.0, "$.a[0]"),
        ({"a": [0, 1.0 + 3e-13]}, {"a": [0, 1.0]}, 3e-13, "$.a[1]"),
        ({"a": [1, True]}, {"a": [1, 1]}, float("inf"), "$.a[1]"),
        ({"a": "x"}, {"a": "y"}, float("inf"), "$.a"),
        ({"a": []}, {"a": [0]}, float("inf"), "$.a"),
        ({"b": 0}, {"a": 0}, float("inf"), "$"),
    ],
)
def test_compare_reports_the_largest_difference(got, want, diff, where):
    got_diff, got_where = compare(got, want)
    assert got_diff == pytest.approx(diff, rel=1e-3)
    assert got_where == where


def test_only_rerecords_the_named_case_alone(tmp_path, monkeypatch):
    """``record_golden.py --only ID`` on a copy whose every stdout is
    stale restores the named spectral case and leaves each other case,
    stale stdout included, byte for byte as it was."""
    target = "spectral-flow-ladder-1-up"
    stale = [dict(case, stdout="stale\n") for case in CASES]
    copy = tmp_path / "cli.json"
    copy.write_text(json.dumps(stale, indent=1) + "\n")
    monkeypatch.setattr(record_golden, "GOLDEN", copy)
    record_golden.main(["--only", target])
    want = [
        next(c for c in CASES if c["id"] == target) if s["id"] == target
        else s
        for s in stale
    ]
    assert copy.read_text() == json.dumps(want, indent=1) + "\n"


def _patch_everywhere(monkeypatch, original, replacement):
    """Bind ``replacement`` in every masidx module that binds ``original``
    under its name."""
    name = original.__name__
    for modname, module in sorted(sys.modules.items()):
        if modname.startswith("masidx") and vars(module).get(name) \
                is original:
            monkeypatch.setattr(module, name, replacement)


def test_refined_reduce_checks_only_frames_from_lagrangian(monkeypatch):
    """A refined ``reduce`` checks a frame only where ``lagrangian`` builds
    one (its input frames and each reduced frame, a QR of Gamma F), each
    exactly once, in the stacked check ``core._frame_errors`` of the
    stack it was built in.  The marching frames its geodesic writes down,
    and their reference h, are not checked."""
    (case,) = [c for c in CASES if c["command"] == "reduce"]
    checked, built, written = [], [], []
    check, build = core._frame_errors, core.lagrangian
    write = paths._geodesic_frame

    def counting_check(space, F):
        checked.extend(F)
        return check(space, F)

    def counting_build(*args, **kwargs):
        out = build(*args, **kwargs)
        built.extend(out if isinstance(out, tuple) else [out])
        return out

    def counting_write(*args):
        written.append(write(*args))
        return written[-1]

    monkeypatch.setattr(core, "_frame_errors", counting_check)
    _patch_everywhere(monkeypatch, build, counting_build)
    monkeypatch.setattr(paths, "_geodesic_frame", counting_write)
    code, _ = run_case(case["command"], case["args"], case["input"])
    assert code == case["exit"] == 0
    assert written and built
    assert len(checked) == len(built)
    # each built frame is the slice of the stack checked for it
    assert all(np.shares_memory(c, b.F) for c, b in zip(checked, built))
    assert not any(
        np.may_share_memory(c, w.F) for c in checked for w in written
    )


@pytest.mark.parametrize("arc", [0.25, 0.125])
def test_reduce_factors_and_pairs_do_not_grow_with_the_march(
    monkeypatch, arc
):
    """The reduced frames of the march are formed in one stacked QR and
    their pair unitaries in one stacked ``souriau``: a shorter march step
    (``pairs._STEP_ARC``) gives the golden ``reduce`` case more reduced
    samples, and no more ``np.linalg.qr`` or ``souriau`` calls."""
    (case,) = [c for c in CASES if c["command"] == "reduce"]
    calls = {"qr": 0, "souriau": 0}
    qr, souriau = np.linalg.qr, sys.modules["masidx.souriau"].souriau

    def counting_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    def counting_souriau(*args, **kwargs):
        calls["souriau"] += 1
        return souriau(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    _patch_everywhere(monkeypatch, souriau, counting_souriau)

    def run_counted():
        calls.update(qr=0, souriau=0)
        code, out = run_case(case["command"], case["args"], case["input"])
        assert code == 0
        return len(json.loads(out)["reduced_path"]), dict(calls)

    samples, counted = run_counted()
    monkeypatch.setattr(pairs, "_STEP_ARC", arc)
    finer_samples, finer_counted = run_counted()
    assert finer_samples > samples
    assert finer_counted["qr"] <= counted["qr"]
    assert finer_counted["souriau"] <= counted["souriau"]
