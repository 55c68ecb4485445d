"""What a fresh process loads: ``import masidx`` loads numpy and no scipy
module, and each scipy routine is imported when first called
(``spectral.expm``, ``spectral.brentq``, ``paths.linear_sum_assignment``).
So a CLI command other than the two flow commands loads no scipy without
--trace, and the flow commands load ``scipy.linalg`` for ``expm`` but not
``scipy.optimize``.  The golden inputs run in one new interpreter, the
non-flow commands first: this one has scipy loaded already.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from masidx import cli

from record_golden import GOLDEN

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FLOW_COMMANDS = ("spectral-flow", "verify-coincidence")
CASES = json.loads(GOLDEN.read_text())
ORDERED = sorted(CASES, key=lambda c: c["command"] in FLOW_COMMANDS)

# reads [[id, command, args, input], ...] on stdin; prints, per case, its
# exit code and the scipy modules loaded after it ran ("import": after
# ``import masidx`` alone)
_RUNNER = """
import contextlib, io, json, os, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from masidx import cli

loaded = {"import": [None, scipy_modules()]}
with tempfile.TemporaryDirectory() as tmp:
    for cid, command, args, body in json.load(sys.stdin):
        src = os.path.join(tmp, "input.json")
        with open(src, "w") as fh:
            json.dump(body, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run([command, src, *args])
        loaded[cid] = [code, scipy_modules()]
print(json.dumps(loaded))
"""


def _fresh_run(cases):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _RUNNER],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def loaded():
    return _fresh_run(
        [[c["id"], c["command"], c["args"], c["input"]] for c in ORDERED]
    )


def test_import_loads_no_scipy(loaded):
    assert loaded["import"][1] == []


@pytest.mark.parametrize("case", ORDERED, ids=lambda c: c["id"])
def test_command_loads_scipy_only_for_a_flow(case, loaded):
    code, modules = loaded[case["id"]]
    assert code == case["exit"]
    if case["command"] in FLOW_COMMANDS:
        assert "scipy.linalg" in modules
        assert "scipy.optimize" not in modules
    else:
        assert modules == []


def test_unitary_maslov_trace_loads_its_matching_on_use(tmp_path, capsys):
    """--trace matches eigenphases by ``linear_sum_assignment``, which the
    fresh process imports then; its CSV is the one written here."""
    case = next(
        c for c in CASES if c["id"] == "unitary-maslov-standard-3-r2"
    )
    fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
    loaded = _fresh_run([[case["id"], case["command"],
                          [*case["args"], "--trace", str(fresh)],
                          case["input"]]])
    code, modules = loaded[case["id"]]
    assert code == 0
    assert "scipy.optimize" in modules
    src = tmp_path / "input.json"
    src.write_text(json.dumps(case["input"]))
    assert cli.run([case["command"], str(src), *case["args"],
                    "--trace", str(here)]) == 0
    capsys.readouterr()
    assert fresh.read_bytes() == here.read_bytes()
    assert len(here.read_text().splitlines()) > 2
