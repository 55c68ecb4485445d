"""Malformed inputs: every mutation of a valid body ends in one JSON report.

Seeded hypothesis mutations of the golden bodies of all eleven
subcommands: dropped or extra keys and list entries, values of the wrong
type, non-finite numbers (an integer past the float range among them),
ragged matrices, and sizes in {0, -1, 10**7}.  ``cli.run`` must return 0,
2, 3 or 4, print exactly one JSON object and never raise.  Sizes stay at
the golden ones (at most 3) or at 10**7, where no block can be allocated,
so a size check that comes too late fails at once instead of swapping.
"""

import copy
import json
import math
import pathlib

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from record_golden import GOLDEN, run_case

CASES = json.loads(pathlib.Path(GOLDEN).read_text())
COMMANDS = sorted({c["command"] for c in CASES})

_SIZES = ("n", "N", "n_big", "n_small")
_WRONG = ["x", True, None, {}, [], 1.5, {"t": 0.0}]
_NON_FINITE = [math.nan, math.inf, -math.inf, 10**400]
_KINDS = ("drop", "extra", "wrong", "non-finite", "ragged", "size")


def _spots(node, where=()):
    """(path to a container, key) of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield where, key
        if isinstance(value, (dict, list)):
            yield from _spots(value, where + (key,))


def _get(body, where):
    for key in where:
        body = body[key]
    return body


def _mutate(draw, body):
    kind = draw(st.sampled_from(_KINDS))
    if kind == "size":
        keys = [k for k in _SIZES if k in body]
        size = draw(st.sampled_from([0, -1, 10**7]))
        body[draw(st.sampled_from(keys))] = size
        return
    spots = list(_spots(body))
    if kind == "ragged":
        # a row of a matrix loses its last entry
        rows = [
            _get(body, where)[key] for where, key in spots
            if isinstance(_get(body, where), list)
            and isinstance(_get(body, where)[key], list)
            and _get(body, where)[key]
        ]
        assume(rows)
        draw(st.sampled_from(rows)).pop()
        return
    where, key = draw(st.sampled_from(spots))
    parent = _get(body, where)
    if kind == "drop":
        del parent[key]
    elif kind == "extra":
        if isinstance(parent, dict):
            parent["extra"] = copy.deepcopy(parent[key])
        else:
            parent.append(copy.deepcopy(parent[key]))
    elif kind == "wrong":
        parent[key] = draw(st.sampled_from(_WRONG))
    else:
        parent[key] = draw(st.sampled_from(_NON_FINITE))


@st.composite
def _mutated_case(draw, command):
    case = draw(st.sampled_from([c for c in CASES if c["command"] == command]))
    body = copy.deepcopy(case["input"])
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, body)
    return case["args"], body


@pytest.mark.parametrize("command", COMMANDS)
def test_mutated_inputs_end_in_one_json_report(command):
    @seed(20261018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(_mutated_case(command))
    def check(mutated):
        args, body = mutated
        code, stdout = run_case(command, args, body)
        assert code in (0, 2, 3, 4), stdout
        lines = stdout.splitlines()
        assert len(lines) == 1, stdout
        assert isinstance(json.loads(lines[0]), dict)

    check()
