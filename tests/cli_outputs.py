"""Print the CLI output of every benchmark problem, for comparing two trees.

    python tests/cli_outputs.py [--root TREE] [--seed N ...] > outputs.txt

Builds the problems of the workloads ``dense``, ``refine`` and ``flow``
at each seed (1 and 7 by default) with the workload builders
of ``TREE/perfbench/run.py``, read and never changed, runs each once
through ``TREE/src``'s ``masidx.cli.run``, and prints one line per
problem: seed, workload, problem id, exit code and the JSON-quoted
stdout.  A problem whose command emits a trace runs a second time with
``--trace`` and prints a second line: seed, workload, problem id,
``trace``, exit code, the JSON-quoted stdout and the JSON-quoted CSV
(``null`` when none is written).  A ``spectral-flow`` or
``verify-coincidence`` problem prints one more line: seed, workload,
problem id, ``report``, the flow value and the JSON of the partition and
test values of that tree's ``spectral_flow`` report, which the CLI does
not print (or ``raised``, the error's type and its JSON-quoted reason).
After the workloads of a seed come the reports of a fixed set of random
families, drawn from that seed with the helpers of ``TREE/tests/conftest.py``:
for N = 1, 2 and 3, two ladders (``ladder_problem``: B = 0, sampled) and
two ``random_boundary_family``s (B != 0, with ``c_func``), each counted
under every tolerance profile.  Each prints seed, ``families``, the
family's id and profile, ``report`` and the report as above.
An exception that escapes ``cli.run`` prints as exit code ``raised``
followed by its type.  TREE defaults to
the checkout that holds this script; point it at a second checkout (made
with ``git clone`` or ``git archive``) to print that tree's outputs, then
compare::

    python tests/cli_outputs.py --root ../parent > parent.txt
    python tests/cli_outputs.py > change.txt
    cmp parent.txt change.txt

Like the benchmark, it pins BLAS to one thread (``run.BLAS_ENV``), and
it runs every problem in this one process.  Not collected by pytest.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

DEFAULT_ROOT = pathlib.Path(__file__).resolve().parent.parent
FLOW_COMMANDS = ("spectral-flow", "verify-coincidence")


def _run(cli, argv):
    """Exit code and stdout of one ``cli.run``."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    except Exception as exc:
        code = f"raised {type(exc).__name__}"
    return code, json.dumps(buf.getvalue())


def _report(problem, tol):
    """Value and JSON-quoted partition and test values of the
    ``spectral_flow`` report of the problem that ``problem()`` builds."""
    from masidx import MasidxError, spectral_flow

    try:
        rep = spectral_flow(problem(), tol=tol)
    except MasidxError as exc:
        return f"raised {type(exc).__name__}", json.dumps(exc.reason)
    return rep.value, json.dumps({
        "partition": rep.partition.tolist(),
        "epsilons": rep.epsilons.tolist(),
    })


def _flow_report(cli, argv):
    """The report of a flow problem, read with the CLI's own input reader
    and tolerance profile."""
    from masidx import DEFAULT_TOL

    args = cli._parser().parse_args(argv)
    tol = DEFAULT_TOL.scaled(cli._PROFILES[args.tolerance_profile])
    return _report(
        lambda: cli._boundary_problem(cli._load_input(args.input)), tol
    )


def _families(seed):
    """(id, problem) of the random families drawn from ``seed``."""
    import conftest
    import numpy as np

    rng = np.random.default_rng(seed)
    for N in (1, 2, 3):
        for k in range(2):
            yield f"ladder-N{N}-{k}", conftest.ladder_problem(
                rng.uniform(-1.6, 1.6, N), rng.uniform(-3.5, 3.5, N)
            )
            yield f"random-N{N}-{k}", conftest.random_boundary_family(
                N, rng, samples=12, c_bound=4.0
            )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path, default=DEFAULT_ROOT)
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [
        str(root / "perfbench"), str(root / "src"), str(root / "tests")
    ]
    import run  # perfbench/run.py: sets BLAS_ENV before numpy loads

    from masidx import DEFAULT_TOL, cli

    for seed in args.seed or [1, 7]:
        for workload in ("dense", "refine", "flow"):
            with tempfile.TemporaryDirectory() as workdir:
                run.generate(workload, seed, workdir)
                with open(os.path.join(workdir, "problems.json")) as fh:
                    manifest = json.load(fh)
                trace = os.path.join(workdir, "trace.csv")
                for problem in manifest:
                    argv = [problem["command"],
                            os.path.join(workdir, problem["file"]),
                            *problem["args"]]
                    print(seed, workload, problem["id"], *_run(cli, argv),
                          flush=True)
                    if problem["command"] in FLOW_COMMANDS:
                        print(seed, workload, problem["id"], "report",
                              *_flow_report(cli, argv), flush=True)
                    if cli._HANDLERS[problem["command"]][1] is None:
                        continue
                    run_out = _run(cli, [*argv, "--trace", trace])
                    csv = None
                    if os.path.exists(trace):
                        with open(trace) as fh:
                            csv = fh.read()
                        os.remove(trace)
                    print(seed, workload, problem["id"], "trace", *run_out,
                          json.dumps(csv), flush=True)
        for name, bp in _families(seed):
            for profile, scale in sorted(cli._PROFILES.items()):
                print(seed, "families", f"{name}-{profile}", "report",
                      *_report(lambda: bp, DEFAULT_TOL.scaled(scale)),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
