"""CLI outputs of all eleven subcommands against recorded goldens.

``golden/cli.json`` holds each input with the exit code and stdout it
gave when recorded (``record_golden.py``).  Keys, booleans and strings
must match exactly and numbers to within 1e-12 (``record_golden.compare``):
exact for the integers, and room for BLAS rounding in crossing times.

A reduced frame has no such room.  It is Gamma F of its marching frame,
G-orthonormalized (``pairs.gamma_reduce``), so it follows that frame's
basis, and the marching frame is the basis LAPACK picks inside a
numerically null singular cluster (``souriau.lagrangian_from_souriau``):
a rounding change there can move the printed frame by O(1) while its
span agrees to 1e-14.  The reduce case passes only while the marching
frames are bitwise the recorded ones.
"""

import json
import pathlib

import pytest

from conftest import spinner_crossings
from record_golden import CROSSINGS_SPINNERS, GOLDEN, compare, run_case

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
