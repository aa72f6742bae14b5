"""The three benchmark workloads: seeded inputs, one operation each, output checks.

Each workload turns a seed into a deterministic stream of operations and
runs them through optoweak's public API.  The program receives only the
generated inputs (drive, postselection parameter, cutoffs); the seed never
reaches it.  Every call into optoweak goes through a module attribute
(``interferometer.run_protocol``, ``sweep.write_csv``, ...) at call time, so
the tracer's patches in those namespaces are seen.

Why these three (per-layer metrics name the layer each one stresses):

* ``scaled_point``: exact ``run_protocol`` at the paper's k = 0.005,
  wm_t = pi, with |alpha|^2 = 12 (n_opt 33, joint dimension 12716) and delta
  drawn from [0.001, 0.05].  The dense beam splitter (eigendecomposition of its
  1156 x 1156 generator, cold, then a rotation plus the unitarity check per
  point) does nearly all the work.  The paper's own |alpha|^2 = 30 needs a
  4096 x 4096 ``eigh`` that takes longer than one benchmark run may.
* ``desk_sweep``: the ``sweep --engine both`` path in-process
  (``load_config`` -> ``iter_sweep_rows`` -> ``write_csv``) over
  |alpha|^2 in {0.5, 1, 2, 3, 4} and delta drawn from [0.001, 0.12].  Many
  small exact points paired with closed forms and CSV rows: per-call overhead
  dominates, the big beam splitter and the master equation are absent.
* ``damped_point``: ``damped_protocol`` at |alpha|^2 = 2, k = 0.005,
  wm_t = pi, gamma = 5e-7, optical cutoff 12, default RK4 stepping with step
  doubling, delta drawn from [0.001, 0.05].  The master-equation integration
  does nearly all the work; the beam splitter conjugates a density matrix
  instead of acting on a state vector.  Mirror cutoff 3 instead of the default
  10 keeps one point near 6 s; the mirror displacement here is at most 0.12,
  and cutoff 6 moves the outputs by about 1e-8.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from optoweak import dissipation, interferometer, sweep
from optoweak.dynamics import evolution_params

K = 0.005
WM_T = math.pi
# The most leakage a state may report without the program raising: the
# preselection budget (1e-9) plus the mirror-displacement tail budget (1e-9).
# Branch probabilities must sum to 1 within it.
LEAK_TOL = 2e-9
# Outputs are compared with bench/reference.json to this absolute bound, in
# probability and zero-point (sigma) units.  Running BLAS on two threads
# instead of one moves them by at most 1e-14.
REFERENCE_SEED = 0
REFERENCE_ATOL = 1e-12
OUTCOME_KEYS = ("p_click", "p_noclick", "p_residual", "q_click", "q_noclick",
                "dq_click", "dq_noclick", "diff")
REFERENCE_KEYS = ("p_click", "p_noclick", "q_click", "q_noclick", "diff",
                  "dq_click", "dq_noclick")


@dataclass
class OpResult:
    """What one operation produced, and the timings the harness needs."""

    outcomes: list[dict]        # one record per exact point, OUTCOME_KEYS + inputs
    point_walls: list[float]    # wall time of each exact point
    harness_s: float            # harness work inside the operation's window
    problems: list[str]         # output-check failures found while running
    digest: bytes               # exact bytes of the output, for bit comparison


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[random.Random], object]
    run_op: Callable[[object, Path], OpResult]

    def ops(self, seed: int):
        """Endless deterministic stream of operation inputs for ``seed``."""
        rng = random.Random(seed)
        while True:
            yield self.make_op(rng)


def _outcome_record(out, **inputs) -> dict:
    rec = {key: float(getattr(out, key)) for key in OUTCOME_KEYS}
    rec.update(inputs)
    return rec


def _digest(records: list[dict]) -> bytes:
    return json.dumps([{k: float(v).hex() for k, v in r.items()} for r in records],
                      sort_keys=True).encode()


def check_outcome(rec: dict) -> list[str]:
    """Invariants every exact point must satisfy, for any input."""
    where = ", ".join(f"{k}={rec[k]!r}" for k in ("alpha2", "delta") if k in rec)
    bad = [f"{k} is not finite" for k in OUTCOME_KEYS if not math.isfinite(rec[k])]
    if bad:
        return [f"[{where}] {b}" for b in bad]
    probs = (rec["p_click"], rec["p_noclick"], rec["p_residual"])
    if any(not 0.0 <= p <= 1.0 for p in probs):
        bad.append(f"probability outside [0, 1]: {probs}")
    total = sum(probs)
    if abs(total - 1.0) > LEAK_TOL:
        bad.append(f"branch probabilities sum to {total!r}, leakage bound {LEAK_TOL}")
    if rec["dq_click"] < 0.0 or rec["dq_noclick"] < 0.0:
        bad.append(f"negative spread dq: {rec['dq_click']}, {rec['dq_noclick']}")
    if rec["diff"] != rec["q_click"] - rec["q_noclick"]:
        bad.append("diff != q_click - q_noclick")
    return [f"[{where}] {b}" for b in bad]


# ---------------------------------------------------------------------------
# scaled_point and damped_point: one exact point per operation

SCALED_ALPHA2 = 12.0
DAMPED_ALPHA2 = 2.0
DAMPED_GAMMA = 5e-7
DAMPED_CUTOFFS = {"optical_cutoff": 12, "mirror_cutoff": 3}


def _draw_delta(rng: random.Random) -> float:
    # stays below the |alpha|^2 delta^2 warning at |alpha|^2 = 12
    return rng.uniform(0.001, 0.05)


def _single_point(alpha2: float, delta: float, cutoffs: dict, run) -> OpResult:
    t0 = time.perf_counter()
    params = interferometer.ProtocolParams(
        alpha=complex(math.sqrt(alpha2)), delta=delta,
        evolution=evolution_params(K, WM_T), **cutoffs)
    t1 = time.perf_counter()
    out = run(params)
    t2 = time.perf_counter()
    rec = _outcome_record(out, alpha2=alpha2, delta=delta)
    problems, digest = check_outcome(rec), _digest([rec])
    harness_s = t1 - t0 + time.perf_counter() - t2
    return OpResult([rec], [t2 - t1], harness_s, problems, digest)


def _run_scaled(delta: float, out_dir: Path) -> OpResult:
    return _single_point(SCALED_ALPHA2, delta, {},
                         lambda params: interferometer.run_protocol(params))


def _run_damped(delta: float, out_dir: Path) -> OpResult:
    return _single_point(DAMPED_ALPHA2, delta, DAMPED_CUTOFFS,
                         lambda params: dissipation.damped_protocol(params, DAMPED_GAMMA))


# ---------------------------------------------------------------------------
# desk_sweep: one CSV sweep per operation

# An odd number of |alpha|^2 values, each with its own point cost, puts the
# median point inside one cost group (|alpha|^2 = 2) rather than on the edge
# between two.
DESK_ALPHA2 = (0.5, 1.0, 2.0, 3.0, 4.0)
DESK_DELTAS = 20


def _draw_sweep(rng: random.Random) -> dict:
    alpha2 = list(DESK_ALPHA2)
    rng.shuffle(alpha2)
    return {"delta": [rng.uniform(0.001, 0.12) for _ in range(DESK_DELTAS)],
            "alpha2": alpha2}


def _timed_rows(rows, stamps: list[float], captured: list[list]):
    engine = sweep.SWEEP_HEADER.index("engine")
    for row in rows:
        captured.append(row)
        if row[engine] == "exact":
            stamps.append(time.perf_counter())
        yield row


def _same_cell(text: str, value) -> bool:
    if isinstance(value, str):
        return text == value
    if math.isnan(value):
        return text == "nan"
    return float(text) == float(value)


def _run_sweep(axes: dict, out_dir: Path) -> OpResult:
    t0 = time.perf_counter()
    cfg_path = out_dir / "desk_sweep.json"
    csv_path = out_dir / "desk_sweep.csv"
    cfg_path.write_text(json.dumps({"mode": "sweep", "engine": "both", "workers": 1,
                                    "axes": axes, "out": str(csv_path)}))
    t1 = time.perf_counter()
    cfg = sweep.load_config(str(cfg_path))
    stamps: list[float] = []
    captured: list[list] = []
    start = time.perf_counter()
    sweep.write_csv(cfg.out, list(sweep.SWEEP_HEADER),
                    _timed_rows(sweep.iter_sweep_rows(cfg), stamps, captured))
    t2 = time.perf_counter()
    walls = [b - a for a, b in zip([start] + stamps, stamps)]

    raw = csv_path.read_bytes()
    problems = []
    header, *lines = csv.reader(raw.decode().splitlines())
    if header != list(sweep.SWEEP_HEADER):
        problems.append(f"CSV header {header}")
    if len(lines) != len(captured) or any(
            len(line) != len(row) or not all(map(_same_cell, line, row))
            for line, row in zip(lines, captured)):
        problems.append("CSV text does not match the rows the sweep produced")
    col = {name: i for i, name in enumerate(sweep.SWEEP_HEADER)}
    grid = [(d, a) for d in axes["delta"] for a in axes["alpha2"]]
    exact = [row for row in captured if row[col["engine"]] == "exact"]
    if [(row[col["delta"]], row[col["alpha2"]]) for row in exact] != grid:
        problems.append("exact rows do not follow the generated grid")
    records = []
    for row in exact:
        rec = {key: float(row[col[key]]) for key in OUTCOME_KEYS if key != "diff"}
        rec.update(diff=float(row[col["q_diff"]]), alpha2=row[col["alpha2"]],
                   delta=row[col["delta"]])
        records.append(rec)
        problems.extend(check_outcome(rec))
    harness_s = t1 - t0 + time.perf_counter() - t2
    return OpResult(records, walls, harness_s, problems, raw)


WORKLOADS = {
    w.name: w for w in (
        Workload("scaled_point", _draw_delta, _run_scaled),
        Workload("desk_sweep", _draw_sweep, _run_sweep),
        Workload("damped_point", _draw_delta, _run_damped),
    )
}


# ---------------------------------------------------------------------------
# outputs recorded at the commit that defined the benchmark

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def reference_op(workload: Workload):
    """The first operation of the reference seed."""
    return next(workload.ops(REFERENCE_SEED))


def record_reference(results: dict[str, OpResult]) -> None:
    payload = {"workloads": {name: [{k: r[k] for k in ("alpha2", "delta") + REFERENCE_KEYS}
                                    for r in res.outcomes]
                             for name, res in results.items()}}
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")


def compare_reference(name: str, res: OpResult) -> list[str]:
    """Differences from the recorded outputs beyond REFERENCE_ATOL."""
    stored = json.loads(REFERENCE_FILE.read_text())["workloads"][name]
    if len(stored) != len(res.outcomes):
        return [f"reference has {len(stored)} points, run has {len(res.outcomes)}"]
    problems = []
    for ref, got in zip(stored, res.outcomes):
        if (ref["alpha2"], ref["delta"]) != (got["alpha2"], got["delta"]):
            problems.append(f"reference input {ref['alpha2']}, {ref['delta']} differs")
            continue
        for key in REFERENCE_KEYS:
            if not abs(got[key] - ref[key]) <= REFERENCE_ATOL:
                problems.append(f"[alpha2={got['alpha2']!r}, delta={got['delta']!r}] "
                                f"{key} = {got[key]!r}, reference {ref[key]!r}")
    return problems
