"""CLI outputs of all eleven subcommands against recorded goldens.

``golden/cli.json`` holds each input with the exit code and stdout it
gave when recorded (``record_golden.py``).  Keys, booleans and strings
must match exactly and numbers to within 1e-12: exact for the integers,
and room for BLAS rounding, nothing more, in crossing times and reduced
frames.
"""

import json
import pathlib

import pytest

from conftest import spinner_crossings
from record_golden import CROSSINGS_SPINNERS, GOLDEN, run_case

CASES = json.loads(pathlib.Path(GOLDEN).read_text())


def _assert_matches(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{k}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        # the emitter writes 0.0 as 0, so a float may parse as an int;
        # integers within 1e-12 of each other are equal
        assert isinstance(got, (int, float)) and not isinstance(got, bool)
        assert abs(got - want) <= 1e-12, where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_cli_output_matches_golden(case):
    code, stdout = run_case(case["command"], case["args"], case["input"])
    assert code == case["exit"]
    _assert_matches(json.loads(stdout), json.loads(case["stdout"]))


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
