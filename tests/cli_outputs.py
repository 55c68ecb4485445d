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


def _flow_report(cli, argv):
    """Value and JSON-quoted partition and test values of the
    ``spectral_flow`` report of a flow problem, read with the CLI's own
    input reader and tolerance profile."""
    from masidx import DEFAULT_TOL, MasidxError, spectral_flow

    args = cli._parser().parse_args(argv)
    tol = DEFAULT_TOL.scaled(cli._PROFILES[args.tolerance_profile])
    try:
        bp = cli._boundary_problem(cli._load_input(args.input))
        rep = spectral_flow(bp, tol=tol)
    except MasidxError as exc:
        return f"raised {type(exc).__name__}", json.dumps(exc.reason)
    return rep.value, json.dumps({
        "partition": rep.partition.tolist(),
        "epsilons": rep.epsilons.tolist(),
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path, default=DEFAULT_ROOT)
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import run  # perfbench/run.py: sets BLAS_ENV before numpy loads

    from masidx import cli

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
