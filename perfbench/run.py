"""nlphase benchmark: end-to-end timings per workload, or per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload strip --seed 1 --seconds 26 --trace 0

Workloads (see workloads.py): ``strip`` (three cold planelike CLI solves),
``sweep`` (two gamma CLI sweeps and one perimeter CLI run) and ``measure``
(windowed energies, L_K, K-perimeters, geometry and the barrier chain on
seeded synthetic fields).

Every pass of a workload runs in a fresh worker process, as a CLI
invocation does: interpreter start, ``import nlphase``, input generation,
then the timed operations back to back, then the checks.  A run starts
passes, one after another, until ``--seconds`` have elapsed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
built from each operation's median time over the passes.  With
``--trace 1`` the run makes one untraced pass and one traced pass and
reports the per-layer self times and counts; the spans are written to
``.bench_out/``.  The line before the last is a record of the environment,
per-operation facts, known-red verdicts and checks.  The exit code is 0
when the run completed, whatever its checks found; a missing library is
exit code 2 without a result line.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy or scipy load (workers inherit this)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("strip", "sweep", "measure")
RUN_LIMIT_S = 170        # a whole run, every worker included


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true",
                    help="run one pass in this process and print its result")
    ap.add_argument("--pin", action="store_true",
                    help="worker: also run the slow-oracle pin, untimed")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nlphase" / "__init__.py").is_file():
        print(f"nlphase sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.worker:
        return worker(args)
    return run(args)


# ---------------------------------------------------------------------------
# worker: one pass in a fresh process


def make_workload(name, seed, workdir):
    import workloads
    if name == "measure":
        return workloads.MeasureWorkload(seed)
    return workloads.CliWorkload(name, seed, workdir)


def run_pass(wl, pass_dir: Path, tracer=None) -> dict:
    """Time each operation back to back, then check the outputs.

    A tracer, when given, is installed around the timed operations only.
    """
    ops = wl.ops(pass_dir)
    results, times = {}, {}
    clock = time.perf_counter
    with tracer or contextlib.nullcontext():
        start = clock()
        for name, fn in ops:
            t0 = clock()
            try:
                results[name] = fn()
            except Exception as err:    # counted as a failed operation
                results[name] = err
            times[name] = clock() - t0
        wall = clock() - start
    failures, known_red, facts = wl.check(pass_dir, results)
    return {"first_call": start, "wall": wall, "times": times,
            "failures": failures, "known_red": sorted(known_red),
            "facts": facts}


def worker(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = make_workload(args.workload, args.seed, work / "inputs").prepare()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        res = run_pass(wl, work / "pass", tracer)
        if tracer is not None:
            res.update(trace_summary(args, wl, tracer, res["wall"], work))
        if args.pin:
            import oracle
            res["oracle_pin"] = oracle.pin(args.seed)
        res["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res["versions"] = versions()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(res, default=float))
    return 0


def trace_summary(args, wl, tracer, wall: float, work: Path) -> dict:
    """Per-layer metrics and trace completeness checks; writes the spans."""
    import tracing
    pass_dir = work / "pass"
    written = (sum(f.stat().st_size for f in pass_dir.rglob("*")
                   if f.is_file()) if pass_dir.exists() else 0)
    layers = tracing.layer_metrics(tracer, written)
    comp = tracing.completeness(tracer, wall)
    ok = (comp["self_time_closes"] and comp["builds_match_domains"]
          and comp["open_spans"] == 0)
    if args.workload == "strip":
        reported = wl.iterations_reported(pass_dir)
        comp["report_iterations"] = reported
        comp["iterations_match"] = reported == layers["minimize.iterations"][0]
        ok &= comp["iterations_match"]
    comp["passed"] = ok
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"],
         "spans": tracer.spans,
         "layers": {k: v[0] for k, v in layers.items()}}))
    return {"layers": layers, "trace_checks": comp,
            "trace_file": str(trace_file.relative_to(ROOT))}


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# parent: one worker per pass, then the metrics


def spawn_pass(args, trace: bool, pin: bool) -> dict:
    """Run one pass in a fresh worker.  ``setup`` is the time from starting
    the worker to its first timed call (both clocks are system-wide)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(trace))] + (["--pin"] if pin else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(args.deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           + proc.stderr[-4000:])
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup"] = res["first_call"] - t0
    return res


def environment() -> dict:
    rev = "unavailable"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": rev,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "thread_pinning": {k: os.environ.get(k) for k in PINNED},
        "cli_threads": 1,
    }


def run(args) -> int:
    args.deadline = time.perf_counter() + RUN_LIMIT_S
    record = {"workload": args.workload, "seed": args.seed,
              "environment": environment()}
    pin = args.workload == "measure"
    if args.trace:
        untraced = spawn_pass(args, trace=False, pin=pin)
        traced = spawn_pass(args, trace=True, pin=False)
        passes = [untraced, traced]
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_frac"] = (
            (traced["wall"] - untraced["wall"]) / untraced["wall"], "ratio")
        record["trace_checks"] = traced["trace_checks"]
        record["trace_file"] = traced["trace_file"]
        checks_ok = traced["trace_checks"]["passed"]
    else:
        passes = timed_passes(args, pin)
        metrics = end_to_end(passes, record)
        checks_ok = True
    record["environment"].update(passes[0]["versions"])
    if pin:
        record["oracle_pin"] = passes[0]["oracle_pin"]
        checks_ok &= passes[0]["oracle_pin"]["passed"]

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(1 for p in passes for bad in p["failures"].values() if bad)
    record.update({
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": {name: bad for p in passes
                     for name, bad in p["failures"].items() if bad},
        "known_red": sorted({t for p in passes for t in p["known_red"]}),
        "facts": passes[-1]["facts"],
        "checks_passed": bool(checks_ok),
    })
    print(json.dumps(record))
    print(json.dumps({"correct": bool(checks_ok and failed == 0),
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def timed_passes(args, pin: bool) -> list:
    """Whole passes, started until --seconds have elapsed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(spawn_pass(args, trace=False, pin=pin and not passes))
    return passes


def end_to_end(passes: list, record: dict) -> dict:
    # per-operation medians over passes resist a slowdown that hits only
    # part of the run; wall_s is their sum, a typical pass
    by_op = {name: statistics.median(p["times"][name] for p in passes)
             for name in passes[0]["times"]}
    slowest = max(by_op, key=by_op.get)
    record["slowest_op"] = slowest
    record["op_median_s"] = by_op
    record["setup_samples_s"] = [p["setup"] for p in passes]
    return {
        "wall_s": (sum(by_op.values()), "s"),
        "setup_s": (statistics.median(p["setup"] for p in passes), "s"),
        "op_s_p50": (statistics.median(
            t for p in passes for t in p["times"].values()), "s"),
        "op_s_max": (by_op[slowest], "s"),
        "peak_rss_mb": (statistics.median(
            p["peak_rss_mb"] for p in passes), "MB"),
    }


if __name__ == "__main__":
    sys.exit(main())
