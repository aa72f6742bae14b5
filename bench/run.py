"""optoweak benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload desk_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; optoweak is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics: set-up time (the median of
``import optoweak`` plus the workload's first, cold, operation, timed in this
process and in two fresh interpreters), exact points per second, median and
90th-percentile point wall time, and peak resident memory.  ``--trace 1`` prints the per-layer metrics
from a run that alternates traced and untraced operations on the same
inputs; layer times and call counts are per exact point of that warm phase,
while ``beam_splitter.cold_calls`` and ``beam_splitter.peak_mb`` cover the
whole process, cold call included.  The last line of standard output is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Lines before it record the environment and sample counts; the same record,
and the spans of a traced run, go to ``.bench_out/``.  Every operation's
outputs are checked (see ``workloads.check_outcome``), and the first
operation of the reference seed, run first as the process's cold call, is
compared with ``bench/reference.json``.  ``--record-reference`` rewrites that
file from the current program.

BLAS runs on one thread: the variables below are set before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# set-up samples per run: this process plus fresh interpreters; the median
# is reported
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 120
BYTES_PER_MB = 1024.0 ** 2

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "point_s_p50": "s",
                    "point_s_p90": "s", "peak_rss_mb": "MB"}


def _import_optoweak():
    """Import optoweak from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import optoweak
    if Path(optoweak.__file__).resolve().parent != SRC / "optoweak":
        raise ImportError(f"optoweak imported from {optoweak.__file__}, not {SRC}")
    return optoweak


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# set-up time: import plus the workload's first (cold) operation, per process

def probe_setup(workload: str, seed: int) -> int:
    """Child-process body: time ``import optoweak`` and one cold operation."""
    t0 = time.perf_counter()
    try:
        _import_optoweak()
    except ImportError as err:
        return _fail(str(err))
    t1 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload]
    op = next(wl.ops(seed))
    OUT_DIR.mkdir(exist_ok=True)
    t2 = time.perf_counter()
    res = wl.run_op(op, OUT_DIR)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "cold_s": t3 - t2 - res.harness_s,
                      "problems": res.problems}))
    return 0


def measure_setup(run: "Run", seed: int, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        run.attempted += 1
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", run.wl.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            run.fail([f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}"])
            continue
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if rec["problems"]:
            run.fail(rec["problems"])
            continue
        samples.append(rec["import_s"] + rec["cold_s"])
    return samples


# ---------------------------------------------------------------------------
# environment record

def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "optoweak").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the measured run

class Run:
    """Operations attempted and failed, with the problems found."""

    def __init__(self, wl, compare_reference):
        self.wl = wl
        self.compare_reference = compare_reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, op_input, tracer=None, reference=False):
        """Run one operation (traced if ``tracer``, compared with the recorded
        outputs if ``reference``); returns (result, wall), with result None
        when it raised.  Failures are counted here."""
        if tracer is not None:
            tracer.install()
        self.attempted += 1
        res = error = None
        start = time.perf_counter()
        try:
            res = self.wl.run_op(op_input, OUT_DIR)
        except Exception:  # a failed operation is recorded; the run goes on
            error = traceback.format_exc(limit=3)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.remove()
        if res is None:
            self.fail([error])
            return None, wall
        problems = res.problems
        if reference:
            problems = problems + self.compare_reference(self.wl.name, res)
        if problems:
            self.fail(problems)
        return res, wall

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def end_to_end(run: Run, seed: int, seconds: float,
               own_setup: float | None) -> tuple[dict, dict]:
    """``own_setup`` is this process's import plus cold-call time (None if
    the cold call failed); fresh interpreters add the other samples."""
    setup = measure_setup(run, seed, SETUP_RUNS - 1)
    if own_setup is not None:
        setup.append(own_setup)

    walls, busy, points = [], 0.0, 0
    ops = run.wl.ops(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        res, wall = run.op(next(ops))
        if res is not None:
            walls.extend(res.point_walls)
            busy += wall - res.harness_s
            points += len(res.point_walls)
    if not setup or not walls:
        return {}, {"points": points}
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": points / busy,
        "point_s_p50": statistics.median(walls),
        "point_s_p90": (statistics.quantiles(walls, n=10, method="inclusive")[8]
                        if len(walls) > 1 else walls[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_samples": setup, "points": points,
              "point_samples_beyond_p90": sum(w > metrics["point_s_p90"] for w in walls)}
    return metrics, counts


PER_LAYER_UNITS = {
    "interferometer.beam_splitter.s": "s",
    "interferometer.beam_splitter.calls": "count",
    "interferometer.beam_splitter.cold_calls": "count",
    "interferometer.beam_splitter.peak_mb": "MB",
    "interferometer.beam_splitter.matrix_mb": "MB",
    "fock.apply.s": "s",
    "dynamics.factored_propagate.self_s": "s",
    "fock.displacement.s": "s",
    "fock.displacement.calls": "count",
    "interferometer.preselect.s": "s",
    "fock.coherent_state.s": "s",
    "fock.project_fock.s": "s",
    "fock.branch_probabilities.s": "s",
    "fock.reduced_density.s": "s",
    "interferometer.run_protocol.self_s": "s",
    "dissipation.evolve_master.s": "s",
    "dissipation.rhs_evals": "count",
    "dissipation.damped_protocol.self_s": "s",
    "analytics.s": "s",
    "sweep.write_csv.s": "s",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}


def per_layer(run: Run, tracer, seed: int, seconds: float) -> tuple[dict, dict]:
    """Alternate traced and untraced runs of each operation, the order
    alternating too; compare their outputs bit for bit; turn the traced
    spans into layer times per exact point."""
    warm_from, rhs_from = len(tracer.spans), tracer.rhs_evals
    traced_wall = untraced_wall = harness = 0.0
    points = pairs = 0
    ops = run.wl.ops(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = next(ops)
        done = {}
        for traced in ((True, False) if pairs % 2 == 0 else (False, True)):
            done[traced] = run.op(op, tracer if traced else None)
        pairs += 1
        (res_t, wall_t), (res_u, wall_u) = done[True], done[False]
        traced_wall += wall_t
        untraced_wall += wall_u
        if res_t is None or res_u is None:
            continue
        harness += res_t.harness_s
        points += len(res_t.point_walls)
        if res_t.digest != res_u.digest:
            run.fail([f"traced and untraced outputs differ for input {op!r}"])
    if not points:
        return {}, {"pairs": pairs}

    incl, own, calls, self_total = tracer.totals(warm_from)
    overhead = traced_wall - untraced_wall
    # spans' self times plus the harness's own time must cover the traced
    # wall time; what is left over is wrapper cost, bounded by the overhead
    residual = traced_wall - self_total - harness
    if abs(residual) > abs(overhead) + 1e-3:
        run.fail([f"span accounting: traced wall {traced_wall:.6f} s, self times "
                  f"{self_total:.6f} s + harness {harness:.6f} s, "
                  f"overhead {overhead:.6f} s"])
    per = 1.0 / points
    metrics = {
        "interferometer.beam_splitter.s": incl["interferometer.beam_splitter"] * per,
        "interferometer.beam_splitter.calls": calls["interferometer.beam_splitter"] * per,
        "interferometer.beam_splitter.cold_calls": tracer.bs_cold_calls,
        "interferometer.beam_splitter.peak_mb": tracer.bs_peak_bytes / BYTES_PER_MB,
        "interferometer.beam_splitter.matrix_mb": tracer.bs_matrix_bytes / BYTES_PER_MB,
        "fock.apply.s": incl["fock.apply"] * per,
        "dynamics.factored_propagate.self_s": own["dynamics.factored_propagate"] * per,
        "fock.displacement.s": incl["fock.displacement"] * per,
        "fock.displacement.calls": calls["fock.displacement"] * per,
        "interferometer.preselect.s": incl["interferometer.preselect"] * per,
        "fock.coherent_state.s": incl["fock.coherent_state"] * per,
        "fock.project_fock.s": incl["fock.project_fock"] * per,
        "fock.branch_probabilities.s": incl["fock.branch_probabilities"] * per,
        "fock.reduced_density.s": incl["fock.reduced_density"] * per,
        "interferometer.run_protocol.self_s": own["interferometer.run_protocol"] * per,
        "dissipation.evolve_master.s": incl["dissipation.evolve_master"] * per,
        "dissipation.rhs_evals": (tracer.rhs_evals - rhs_from) * per,
        "dissipation.damped_protocol.self_s": own["dissipation.damped_protocol"] * per,
        "analytics.s": sum(t for name, t in own.items() if name.startswith("analytics.")) * per,
        # self time: the sweep's rows are computed while write_csv pulls them
        "sweep.write_csv.s": own["sweep.write_csv"] * per,
        "trace.overhead_s": overhead * per,
    }
    counts = {"pairs": pairs, "traced_points": points, "traced_wall_s": traced_wall,
              "untraced_wall_s": untraced_wall, "harness_s": harness,
              "span_residual_s": residual, "spans": len(tracer.spans),
              "not_found": tracer.missing}
    return metrics, counts


def record_reference(workloads) -> int:
    results = {}
    for name, wl in workloads.WORKLOADS.items():
        res = wl.run_op(workloads.reference_op(wl), OUT_DIR)
        if res.problems:
            return _fail(f"{name}: " + "; ".join(res.problems))
        results[name] = res
    workloads.record_reference(results)
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="desk_sweep")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite bench/reference.json from the current program")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    start = time.perf_counter()
    try:
        _import_optoweak()
    except ImportError as err:
        return _fail(f"cannot import optoweak from {SRC}: {err}")
    import_s = time.perf_counter() - start
    import tracer as tracer_mod
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference(workloads)
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(workloads.WORKLOADS)})")

    run = Run(workloads.WORKLOADS[args.workload], workloads.compare_reference)
    tracer = tracer_mod.Tracer() if args.trace else None
    # the process's cold call, checked against the recorded outputs
    cold, cold_wall = run.op(workloads.reference_op(run.wl), tracer, reference=True)
    if tracer is not None:
        metrics, counts = per_layer(run, tracer, args.seed, args.seconds)
        if metrics:
            metrics["fail_ratio"] = run.failed / run.attempted
        units = PER_LAYER_UNITS
    else:
        own_setup = None if cold is None else import_s + cold_wall - cold.harness_s
        metrics, counts = end_to_end(run, args.seed, args.seconds, own_setup)
        units = END_TO_END_UNITS
    correct = run.failed == 0 and set(metrics) == set(units)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "counts": counts,
              "correct": correct, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    for key in ("environment", "counts"):
        print(f"{key}: {json.dumps(record[key])}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
