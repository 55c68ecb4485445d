"""masidx benchmark: seeded CLI workloads with checked answers.

    python3 perfbench/run.py --workload dense|refine|flow --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The problems of a workload are generated
from the seed before anything is timed, written as CLI input files, and
run by a fresh ``perfbench/worker.py`` process through ``masidx.cli.run``:
one caller, one problem at a time, whole passes over the problem list
until S seconds have elapsed.  Every output is checked against the value
stored with its input.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run (see
tracing.py).  The line before it is a detail record: BLAS threads, tail
percentile and sample counts, wrong problems, known defects seen.

BLAS runs on one thread in every process the benchmark starts; the
matrices are at most 256 x 256 and the reference machine has two shared
cores.
"""

import os

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


def _require_checkout():
    """The benchmark measures the masidx sources beside it, nothing else."""
    init = os.path.join(ROOT, "src", "masidx", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"masidx sources not found at {init}")
    sys.path.insert(0, os.path.join(ROOT, "src"))


# --------------------------------------------------------------------------
# workloads


def dense(rng, P):
    """n in {16, 64}: few large linear-algebra steps per call, paths sampled
    finer than the adjacency bound, so almost nothing is refined.  Random
    n = 64 paths use 24 nodes and hormander runs at n = 16: its 9-sample
    connecting path at n = 64 meets defect d.  Counts place p50 among the
    sub-50 ms problems and p75 among the five n = 16 maslov paths."""
    out = [P.kashiwara_problem("kashiwara-16-0", 16, rng)]
    for n, nodes, copies in ((16, 16, 5), (64, 24, 1)):
        for k in range(copies):
            tag = f"{n}-{k}"
            speeds = P.stratified_speeds(n, k, copies, 0.3, 1.7)
            out.append(P.spinner_problem(f"maslov-{tag}", "maslov", rng,
                                         *P.spinner_phases(rng, speeds),
                                         nodes, 2))
            if k < 3:
                out += [
                    P.unitary_problem(f"unitary-{tag}", rng,
                                      *P.spinner_phases(rng, speeds), nodes, 2),
                    P.complex_kashiwara_problem(f"complex-kashiwara-{tag}",
                                                n, rng),
                ]
        out += [
            P.leray_problem(f"leray-{n}", n, rng),
            P.leray_problem(f"leray-shared-{n}", n, rng, shared=2),
        ]
    speeds = P.stratified_speeds(16, 0, 1, 0.3, 1.7)
    out += [
        P.hormander_problem("hormander-16-0", 16, rng),
        P.hormander_problem("hormander-16-1", 16, rng),
        P.kashiwara_problem("kashiwara-16-1", 16, rng),
        P.kashiwara_problem("kashiwara-64", 64, rng),
        P.spinner_problem("pair-maslov-16", "pair-maslov", rng,
                          *P.spinner_phases(rng, speeds), 16, 2),
        P.defect_d_problem(),
    ]
    return out


def refine(rng, P):
    """n in {1, 4}: coarse 5-node paths sweeping up to 3 pi, so the cost is
    refinement and pointwise evaluation; a fixed share uses a general
    compatible space."""
    out = []
    for n in (1, 4):
        for k in range(6):
            tag = f"{n}-{k}"
            speeds = P.stratified_speeds(n, k, 6, 0.3, 3.0)

            def draw():
                return P.spinner_phases(rng, speeds)

            out += [
                P.unitary_problem(f"unitary-{tag}", rng, *draw(), 5, 2),
                P.spinner_problem(f"maslov-{tag}", "maslov", rng, *draw(),
                                  5, 2),
                P.spinner_problem(f"pair-maslov-{tag}", "pair-maslov", rng,
                                  *draw(), 5, 2),
                P.crossings_problem(f"crossings-{tag}", rng, speeds),
                P.reduce_problem(f"reduce-{tag}", rng, *draw(), 5, 2),
            ]
    out += [
        P.spinner_problem("maslov-space-4", "maslov", rng,
                          *P.spinner_phases(rng, [1.0, 1.5, 2.0, 2.5]), 5, 2,
                          space=True),
        P.crossings_problem("crossings-space-1", rng, [1.5], space=True),
        P.defect_b_problem(),
    ]
    return out


def flow(rng, P):
    """N in {1, 2, 4}: shooting determinants and root bracketing; the path
    layers run only on the Maslov side of verify-coincidence, at N <= 2
    (defect f)."""
    out = []
    # counts place p50 inside the N = 2 group and p75 inside N = 4
    for N, command, copies in ((1, "spectral-flow", 3),
                               (1, "verify-coincidence", 3),
                               (2, "spectral-flow", 4),
                               (2, "verify-coincidence", 6),
                               (4, "spectral-flow", 6)):
        for k in range(copies):
            speed = (0.4 + 0.9 * (k + 0.5) / copies) * math.pi
            out.append(P.flow_problem(f"{command}-{N}-{k}", command, N, rng,
                                      speed))
    out += [P.defect_c_problem(), P.defect_e_problem(), P.defect_f_problem()]
    return out


# name -> (problem-set function, tail percentile, reference probe time)
WORKLOADS = {
    "dense": (dense, 75, 0.018),
    "refine": (refine, 90, 0.017),
    "flow": (flow, 75, 0.017),
}


# --------------------------------------------------------------------------
# generation and checking


def generate(workload, seed, workdir):
    import numpy as np

    import problems as P

    build = WORKLOADS[workload][0]
    records = build(np.random.default_rng(seed), P)
    manifest = []
    for i, rec in enumerate(records):
        name = f"p{i:03d}.json"
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(rec["input"], fh)
        manifest.append({"id": rec["id"], "command": rec["command"],
                         "args": rec["args"], "file": name})
    with open(os.path.join(workdir, "problems.json"), "w") as fh:
        json.dump(manifest, fh)
    return records


def matches(out, expect):
    """Every expected integer (or half-integer Leray value) is reported."""
    for key, want in expect.items():
        got = out.get(key)
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        if isinstance(want, float):
            if abs(got - want) > 1e-6:
                return False
        elif not (isinstance(got, int) and got == want):
            return False
    return True


def verdicts(records, result):
    """Per-sample verdict ('ok', 'wrong' or 'failed') and each problem's
    parsed first output."""
    parsed = []
    for i in range(len(records)):
        try:
            parsed.append(json.loads(result["outputs"][str(i)]))
        except ValueError:
            parsed.append({})
    kinds = []
    for i, code, error, _, stable in result["samples"]:
        if error is not None or code != 0:
            kinds.append("failed")
        elif stable and matches(parsed[i], records[i]["expect"]):
            kinds.append("ok")
        else:
            kinds.append("wrong")
    return kinds, parsed


def missed_crossings_only(rec, out):
    """Defect b: every reported crossing is a true one with its true sign,
    some are missing, and the value is short by exactly their signs."""
    missing = list(rec["crossings"])
    for c in out.get("crossings") or []:
        sign = c["signature"][0] - c["signature"][1]
        hit = next((m for m in missing
                    if abs(m[0] - c["t_star"]) < 1e-6 and m[1] == sign), None)
        if hit is None:
            return False
        missing.remove(hit)
    short = sum(sign for _, sign in missing)
    return bool(missing) and out.get("value") == rec["expect"]["value"] - short


def known_defect(rec, out):
    """Tag of the known defect a wrong or failed problem shows, or None."""
    if rec.get("defect"):
        return rec["defect"]
    if "crossings" in rec and missed_crossings_only(rec, out):
        return "b"
    return None


def percentile(values, p):
    """Nearest-rank percentile of ``values`` (p in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# --------------------------------------------------------------------------
# processes


def worker(*args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    # children inherit BLAS_ENV through os.environ
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"worker {args[0]} failed:\n{proc.stderr[-4000:]}")
    return proc


def setup_seconds(workdir, workload):
    """Median over fresh interpreters of spawn -> first problem done, each
    scaled to the reference probe speed measured in that interpreter."""
    reference = WORKLOADS[workload][2]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        out = worker("setup", workdir, workload).stdout.split()
        done, probe = float(out[-2]), float(out[-1])
        raw.append(done - start)
        scaled.append((done - start) * reference / probe)
    return statistics.median(scaled), raw


# --------------------------------------------------------------------------
# metrics


def end_to_end(result, kinds, tail_p, setup, scale):
    """End-to-end metrics; loop times are multiplied by ``scale``."""
    times = [s[3] * scale for s in result["samples"]]
    lat = [
        t * 1e3 if kind == "ok" else math.inf
        for t, kind in zip(times, kinds)
    ]
    attempted = len(lat)
    ok = kinds.count("ok")
    busy = sum(times)
    # a latency that lands on a wrong or failed problem is reported as the
    # whole loop's busy time, a finite stand-in for "infinitely slow"
    p50, tail = (min(percentile(lat, p), busy * 1e3) for p in (50, tail_p))
    metrics = {
        "setup_s": (setup, "s"),
        "goodput_per_s": (ok / busy, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "correct_frac": (ok / attempted, "fraction"),
        "completed_frac": (1.0 - kinds.count("failed") / attempted,
                           "fraction"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    detail = {
        "tail_percentile": tail_p,
        "tail_samples_beyond":
            attempted - math.ceil(tail_p / 100.0 * attempted),
        "samples": attempted,
    }
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _require_checkout()

    workdir = os.path.join(
        HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir)
    try:
        records = generate(args.workload, args.seed, workdir)
        setup, setups = None, []
        if not args.trace:
            setup, setups = setup_seconds(workdir, args.workload)
        worker("loop", workdir, args.workload, str(args.seconds),
               str(args.trace))
        with open(os.path.join(workdir, "result.json")) as fh:
            result = json.load(fh)
        if args.trace:
            outdir = os.path.join(HERE, "_out")
            os.makedirs(outdir, exist_ok=True)
            shutil.copy(os.path.join(workdir, "spans.csv"),
                        os.path.join(outdir, f"spans-{args.workload}.csv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds, parsed = verdicts(records, result)
    defects = {
        records[s[0]]["id"]: known_defect(records[s[0]], parsed[s[0]])
        for s, kind in zip(result["samples"], kinds) if kind != "ok"
    }
    unexpected = sorted(pid for pid, tag in defects.items() if tag is None)
    correct = not unexpected and result.get("identical", True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": result["blas_threads"],
        "passes": result["passes"],
        "problems_per_pass": len(records),
        "wall_s": result["wall_s"],
        "not_ok": sorted(defects),
        "unexpected": unexpected,
        "known_defects": sorted({tag for tag in defects.values() if tag}),
        "problem_median_ms": {
            rec["id"]: 1e3 * statistics.median(
                s[3] for s in result["samples"] if s[0] == i
            )
            for i, rec in enumerate(records)
        },
    }
    if args.trace:
        from tracing import LAYER_METRICS

        detail["identical_output"] = result["identical"]
        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in LAYER_METRICS
        }
    else:
        _, tail_p, reference = WORKLOADS[args.workload]
        scale = reference / statistics.median(result["probes_s"])
        values, extra = end_to_end(result, kinds, tail_p, setup, scale)
        raw, _ = end_to_end(result, kinds, tail_p, statistics.median(setups),
                            1.0)
        detail.update(extra, setup_runs_s=setups, speed_scale=scale,
                      raw={k: v for k, (v, _) in raw.items()})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(kinds),
        "failed": kinds.count("failed"),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
