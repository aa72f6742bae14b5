"""The delta-free stages both engines cache: reuse across a delta scan, the
same bits as an uncached run, and every check still raised on a cache hit."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from optoweak import (LindbladParams, ProtocolParams, TruncationError, damped_protocol,
                      dissipation, evolution_params, evolve_master, fock,
                      interferometer, oracle, run_protocol, sweep)
from optoweak.cli import main
from optoweak.dissipation import _damped_scan, _evolved_rho
from optoweak.dynamics import _mirror_tail
from optoweak.fock import _moment_table
from optoweak.interferometer import (_MIRROR_WORKSPACE, _arm, _drive, _evolved_ket, _outcomes,
                                     _scan)
from optoweak.sweep import SWEEP_HEADER, iter_sweep_rows, load_config

FIELDS = ("p_click", "p_noclick", "p_residual", "q_click", "q_noclick",
          "dq_click", "dq_noclick", "diff")
GAMMA = 1e-3


def make_params(alpha2, delta, k=0.005, wm_t=math.pi, **kw):
    return ProtocolParams(alpha=complex(math.sqrt(alpha2)), delta=delta,
                          evolution=evolution_params(k, wm_t), **kw)


def unitary(params):
    return run_protocol(params)


def damped(params):
    return damped_protocol(params, GAMMA)


ENGINES = [(unitary, _evolved_ket, lambda p: (_drive(p),)),
           (damped, _evolved_rho, lambda p: (_drive(p), GAMMA))]


def fingerprint(out):
    """Every reported number as float.hex, the mirror-state bytes (None for a
    degenerate branch) and the degenerate reason."""
    return ([float(getattr(out, name)).hex() for name in FIELDS]
            + [None if rho is None else rho.tobytes()
               for rho in (out.mirror_click, out.mirror_noclick)]
            + [out.degenerate_reason])


@pytest.mark.parametrize("run, stage, key", ENGINES, ids=["unitary", "damped"])
def test_delta_scan_reuses_one_entry_with_identical_bits(run, stage, key):
    scan = [make_params(2.0, delta, optical_cutoff=12, mirror_cutoff=4)
            for delta in (0.005, 0.03)]
    stage.cache_clear()
    cached = [fingerprint(run(p)) for p in scan]
    info = stage.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for params, bits in zip(scan, cached):
        stage.cache_clear()
        assert fingerprint(run(params)) == bits
    arrays = [x for x in stage(*key(scan[0])) if isinstance(x, np.ndarray)]
    assert len(arrays) >= 2 and not any(a.flags.writeable for a in arrays)


def test_paper_point_miss_builds_no_joint_density_matrix():
    # the bound of the interferometer test of the same name, on a miss of the
    # ket stage: the (d dm)^2 density matrix alone is 7.6 MiB at n_opt 63,
    # mirror 10
    params = make_params(30.0, 0.005)
    run_protocol(params)  # warm the recombiner tables
    _evolved_ket.cache_clear()
    tracemalloc.start()
    try:
        run_protocol(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _evolved_ket.cache_info().misses == 1
    assert peak < 2 * 2 ** 20


def _traced_peak(run, params):
    tracemalloc.start()
    try:
        run(params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_damped_hit_allocates_less_than_one_density_matrix():
    # n_opt 30, mirror 8: one (d dm)^2 array is 1.25 MB; the stage keeps
    # it in contraction order, so a hit copies none of it
    scan = [make_params(2.0, delta, optical_cutoff=30, mirror_cutoff=8)
            for delta in (0.01, 0.02)]
    damped(scan[0])  # the miss, and the recombiner tables
    peak = _traced_peak(damped, scan[1])
    assert _evolved_rho.cache_info().hits >= 1
    assert peak < 16 * (31 * 9) ** 2


def test_damped_miss_holds_no_more_density_matrices():
    # n_opt 110, mirror 3: one (d dm)^2 array is 3.2 MB.  A miss builds only
    # the blocks n <= n' (0.54 of one) and evolves them in block order; it
    # peaks at 3.28 of them, about 2.7 of which are one stack's exponential
    # working set
    params = make_params(30.0, 0.01, k=1e-4, optical_cutoff=110, mirror_cutoff=3)
    damped(params)  # warm the recombiner tables
    _evolved_rho.cache_clear()
    peak = _traced_peak(damped, params)
    assert _evolved_rho.cache_info().misses == 1
    assert peak < 3.4 * 16 * (111 * 4) ** 2


def _assert_read_only(arrays):
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def test_damped_stage_holds_one_density_matrix_read_only():
    params = make_params(2.0, 0.01, optical_cutoff=12, mirror_cutoff=3)
    damped(params)
    arrays = [x for x in _evolved_rho(_drive(params), GAMMA) if isinstance(x, np.ndarray)]
    assert [a.shape for a in arrays if a.size >= (13 * 4) ** 2] == [(13 ** 2, 4 ** 2)]
    _assert_read_only(arrays)


def test_moment_tables_are_read_only():
    _assert_read_only(_moment_table(3))


def test_delta_and_default_cutoff_share_a_key():
    key, params = _drive(make_params(2.0, 0.0)), make_params(2.0, 0.01)
    explicit = make_params(2.0, 0.01, optical_cutoff=params.n_opt)
    replaced = dataclasses.replace(params, delta=0.0, optical_cutoff=params.n_opt)
    for other in (_drive(explicit), replaced):
        assert key == other and hash(key) == hash(other)


@pytest.mark.parametrize("run", [unitary, damped], ids=["unitary", "damped"])
def test_warm_point_searches_no_cutoff_and_builds_one_key(monkeypatch, run):
    # the stage key resolves the default optical cutoff from a memo, not by a
    # Poisson-tail search per point, and is the one ProtocolParams a warm
    # point builds
    kw = {} if run is unitary else {"mirror_cutoff": 3}
    run(make_params(2.0, 0.01, **kw))
    tails, built = [], []
    monkeypatch.setattr(fock, "poisson_tail", lambda *a: tails.append(a) or 0.0)
    check = ProtocolParams.__post_init__
    monkeypatch.setattr(ProtocolParams, "__post_init__",
                        lambda self: built.append(self.delta) or check(self))
    params = make_params(2.0, 0.02, **kw)
    built.clear()
    run(params)
    assert tails == [] and built == [0.0]


@pytest.mark.parametrize("run, stage, key", ENGINES, ids=["unitary", "damped"])
def test_small_mirror_cutoff_raises_on_every_call(run, stage, key):
    # displacement up to 12 |phi| = 2.4 does not fit mirror cutoff 1
    params = make_params(2.0, 0.005, k=0.1, optical_cutoff=12, mirror_cutoff=1)
    stage.cache_clear()
    for _ in range(2):
        with pytest.raises(TruncationError, match="mirror cutoff 1 too small"):
            run(params)
    assert stage.cache_info().currsize == 0


@pytest.mark.parametrize("engine", ["unitary", "damped"])
def test_failing_scan_raises_on_first_use(engine):
    # a scan is a generator: building it runs nothing, and the stage's
    # mirror-tail check raises when its first outcome is drawn
    params = make_params(2.0, 0.005, k=0.1, optical_cutoff=12, mirror_cutoff=1)
    scan = _scan(params, [0.005]) if engine == "unitary" else _damped_scan(params, [0.005], GAMMA)
    with pytest.raises(TruncationError, match="mirror cutoff 1 too small"):
        next(scan)


def test_one_delta_scan_is_run_protocol():
    params = make_params(2.0, 0.02, k=0.1, mirror_cutoff=12)
    assert fingerprint(run_protocol(params)) == fingerprint(next(_scan(params, [0.02])))


def test_large_drive_runs_without_a_displacement_warning(tmp_path):
    # |n_opt phi|^2 = 16.3 at n_opt 404 is large against mirror cutoff 60, but
    # the closed-form ket is exact on the kept levels and the mirror tail is
    # 1.7e-50, so neither run_protocol nor an exact CLI sweep warns under
    # filterwarnings=error: the displacement warning is the eigenpair oracle's
    params = make_params(300.0, 0.005, mirror_cutoff=60)
    assert _mirror_tail(params.evolution, np.abs(_arm(params)) ** 2, 60) < 1e-40
    run_protocol(params)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "sweep", "engine": "exact", "cutoffs": {"mirror": 60},
                               "fixed": {"alpha2": 300.0, "k": 0.005, "wm_t": math.pi},
                               "axes": {"delta": [0.005]}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 2


def test_cold_point_holds_the_mirror_working_set_the_guard_counts():
    # |alpha|^2 2 (d = 13) at mirror cutoff 250 with the moment tables and
    # the ket stage cold: 7.3 dm^2 complex entries at once, 7.0 MiB, within
    # the _MIRROR_WORKSPACE dm^2 entries _arm, and so sweep's guard, counts
    params = make_params(2.0, 0.005, mirror_cutoff=250)
    _moment_table.cache_clear()
    _evolved_ket.cache_clear()
    peak = _traced_peak(run_protocol, params)
    assert _evolved_ket.cache_info().misses == 1
    assert peak < 12 * 2 ** 20 and peak <= _MIRROR_WORKSPACE * 16 * 251 ** 2


def test_scan_slices_count_the_mirror_dimension():
    # d = 13, mirror cutoff 80: slices of 2^16 // (2 * 81^2) = 4 angles, so
    # beyond the 200 outcomes' own mirror states (2 dm^2 complex entries each,
    # 40 MiB, all kept by the list) a warm scan holds about one slice's
    # arrays; slices of 2^16 // (2 * 13^2) = 193 angles, sized by d alone,
    # peaked at 123 MiB
    drive, deltas = make_params(2.0, 0.0, mirror_cutoff=80), np.linspace(0.001, 0.12, 200)
    list(_scan(drive, deltas[:1]))  # warm the stages
    peak = _traced_peak(lambda ds: list(_scan(drive, ds)), deltas)
    assert peak < 200 * 2 * 16 * 81 ** 2 + 4 * 2 ** 20


def test_exact_sweep_decomposes_q_zero_times(monkeypatch):
    # the ket is written in closed form: a sweep over five drives and two
    # mirror cutoffs, run_protocol and damped_protocol never build q's
    # eigenpairs (their builder raises here), and only the recombiner's truncated block N = d,
    # n_opt states, reaches np.linalg.eigh, once per optical cutoff
    calls, real_eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(np.shape(m)) or real_eigh(m))

    def no_eigenpairs(cutoff):
        raise AssertionError(f"q's eigenpairs built at mirror cutoff {cutoff}")
    monkeypatch.setattr(oracle, "_eigenpairs", no_eigenpairs)
    for cache in (interferometer._bs_tables, _moment_table, _evolved_rho):
        cache.cache_clear()
    alpha2s = [0.5, 1.0, 2.0, 3.0, 4.0]
    for mirror in (6, 7):
        _evolved_ket.cache_clear()
        cfg = load_config(None, overrides={
            "engine": "both", "cutoffs": {"mirror": mirror},
            "axes": {"delta": [0.005, 0.01], "alpha2": alpha2s}}, default_mode="sweep")
        assert len(list(iter_sweep_rows(cfg))) == 20
        assert _evolved_ket.cache_info().misses == 5
    run_protocol(make_params(2.0, 0.01, mirror_cutoff=9))
    damped(make_params(2.0, 0.01, optical_cutoff=12, mirror_cutoff=3))
    n_opts = {make_params(a2, 0.0).n_opt for a2 in alpha2s} | {12}
    assert sorted(calls) == [(n, n) for n in sorted(n_opts)]


EXACT_COLUMNS = (("p_click", "p_click"), ("p_noclick", "p_noclick"),
                 ("p_residual", "p_residual"), ("q_click", "q_click"),
                 ("q_noclick", "q_noclick"), ("q_diff", "diff"),
                 ("dq_click", "dq_click"), ("dq_noclick", "dq_noclick"))


@pytest.mark.parametrize("batch", [sweep.SCAN_POINTS, 64, 16])
@pytest.mark.parametrize("engine", ["unitary", "damped"])
def test_sweep_evaluates_each_stage_once_per_drive_and_batch(monkeypatch, engine, batch):
    # delta varies slowest: point by point, 10 unitary drives (more than the
    # ket stage keeps) or 2 damped gammas (the density-matrix stage keeps one)
    # would miss at every point.  Batches of 16 split the 40 points in three
    monkeypatch.setattr(sweep, "SCAN_POINTS", batch)
    deltas = list(np.linspace(0.001, 0.05, 20))
    if engine == "unitary":
        stage, drives = _evolved_ket, list(np.linspace(0.1, 1.0, 10))
        axes, fixed = {"delta": deltas, "alpha2": drives}, {}
        cutoffs = {"mirror": 4}
    else:
        stage, drives = _evolved_rho, [1e-3, 2e-3]
        axes, fixed = {"delta": deltas, "gamma": drives}, {"alpha2": 2.0}
        cutoffs = {"optical": 12, "mirror": 3}
    cfg = load_config(None, overrides={"engine": "exact", "axes": axes, "fixed": fixed,
                                       "cutoffs": cutoffs}, default_mode="sweep")
    stage.cache_clear()
    rows = [dict(zip(SWEEP_HEADER, row)) for row in iter_sweep_rows(cfg)]
    info = stage.cache_info()
    # one lookup per drive in each batch (the drive axis varies fastest); a
    # later batch may hit what an earlier one left in the stage
    grid = range(len(deltas) * len(drives))
    lookups = sum(len({i % len(drives) for i in grid[lo:lo + batch]})
                  for lo in range(0, len(grid), batch))
    assert info.hits + info.misses == lookups
    if batch >= len(grid):  # one batch: one miss per drive
        assert info.misses == len(drives)
    if engine == "damped":  # batches of 16: each later one starts on the gamma the
        # stage holds, 2 + 1 + 1 misses (6 with every batch in one drive order)
        assert info.misses == (4 if batch == 16 else 2)
    for row in rows:
        params = ProtocolParams(alpha=complex(math.sqrt(row["alpha2"])), delta=row["delta"],
                                evolution=evolution_params(row["k"], row["wm_t"]),
                                optical_cutoff=cutoffs.get("optical"),
                                mirror_cutoff=cutoffs["mirror"])
        out = (run_protocol(params) if engine == "unitary"
               else damped_protocol(params, row["gamma"]))
        for col, name in EXACT_COLUMNS:
            assert float(row[col]).hex() == float(getattr(out, name)).hex(), col


def test_sweep_builds_one_request_per_drive(monkeypatch):
    # the sweep's helper and the stage key of each drive, plus the guard's
    # worst point in load_config: never one ProtocolParams per delta
    built = []
    check = ProtocolParams.__post_init__
    monkeypatch.setattr(ProtocolParams, "__post_init__",
                        lambda self: built.append(self.delta) or check(self))
    cfg = load_config(None, overrides={
        "engine": "both", "axes": {"delta": list(np.linspace(0.001, 0.12, 20)),
                                   "alpha2": [0.5, 1.0, 2.0, 3.0, 4.0]}}, default_mode="sweep")
    assert len(list(iter_sweep_rows(cfg))) == 200
    assert len(built) <= 2 * 5 + 1 and set(built) == {0.0}


def test_figure2_overlay_is_one_scan(monkeypatch):
    calls = []
    monkeypatch.setattr(sweep, "_scan",
                        lambda drive, deltas: calls.append(len(deltas)) or _scan(drive, deltas))
    cfg = load_config(None, overrides={"engine": "both"}, default_mode="figure2")
    header, rows = sweep.run_figure2(cfg)
    assert calls == [len(rows)] == [200]


# ---------------------------------------------------------------------------
# the batched postselection: array passes over each recombiner slice

def scan_of(engine):
    """The engine's scan of a drive's deltas, as a list, and its one-delta protocol."""
    if engine == "unitary":
        return (lambda drive, deltas: list(_scan(drive, deltas))), run_protocol
    return (lambda drive, deltas: list(_damped_scan(drive, deltas, GAMMA))), damped


@pytest.mark.parametrize("n_deltas", [1, 3, 20, 200])
@pytest.mark.parametrize("engine", ["unitary", "damped"])
def test_batched_scan_keeps_the_one_delta_bits(engine, n_deltas):
    # d = 13 here: a slice holds 2^16 // (2 * 13^2) = 193 angles, so 200
    # deltas cross a slice boundary
    scan, one = scan_of(engine)
    deltas = np.linspace(-0.12, 0.12, n_deltas)
    points = [make_params(2.0, float(delta), optical_cutoff=12, mirror_cutoff=3)
              for delta in deltas]
    outs = scan(points[0], deltas)
    assert [fingerprint(out) for out in outs] == [fingerprint(one(p)) for p in points]
    for out in outs:
        for rho in (out.mirror_click, out.mirror_noclick):
            assert rho.shape == (4, 4) and not rho.flags.writeable
            assert np.array_equal(rho, rho.conj().T)


@pytest.mark.parametrize("engine", ["unitary", "damped"])
def test_zero_drive_batch_marks_every_click_branch_degenerate(engine):
    scan, one = scan_of(engine)
    deltas = (-0.03, 0.001, 0.01, 0.05)
    points = [make_params(0.0, delta, optical_cutoff=12, mirror_cutoff=3) for delta in deltas]
    outs = scan(points[0], deltas)
    for params, out in zip(points, outs):
        assert fingerprint(out) == fingerprint(one(params))
        assert out.mirror_click is None and out.mirror_noclick is not None
        assert math.isnan(out.q_click) and math.isnan(out.dq_click) and math.isnan(out.diff)
        assert out.degenerate_reason == (
            "click:projection onto |1> of mode 'd' has no weight "
            f"(probability={out.p_click:.3e})")


def test_symmetrized_stacks_are_hermitian_bit_for_bit():
    # each reported mirror state is (m + m^H) / (2 p) of its branch, read-only
    # and exactly equal to its own conjugate transpose
    rng = np.random.default_rng(7)
    for n in (1, 2, 4, 7, 11):
        scale = 10.0 ** rng.uniform(-300, 3, size=(50, 2, 1, 1))
        m = scale * (rng.normal(size=(50, 2, n, n)) + 1j * rng.normal(size=(50, 2, n, n)))
        p = 10.0 ** rng.uniform(-14, 0, size=(50, 2))
        outs = list(_outcomes(m, p, 1.0))
        assert len(outs) == 50
        for t, out in enumerate(outs):
            for j, rho in enumerate((out.mirror_noclick, out.mirror_click)):
                assert rho.shape == (n, n) and not rho.flags.writeable
                assert np.array_equal(rho, rho.conj().T)
                assert np.array_equal(rho, (m[t, j] + m[t, j].conj().T) / (2 * p[t, j]))


@pytest.mark.parametrize("engine", ["unitary", "damped"])
def test_warm_exact_point_makes_no_hermiticity_check(monkeypatch, engine):
    # the mirror states are Hermitian by construction, so a warm point checks
    # neither; a density matrix passed in from outside still is checked
    params = make_params(2.0, 0.01, optical_cutoff=12, mirror_cutoff=3)
    run = unitary if engine == "unitary" else damped
    run(params)
    calls = []
    check = fock._hermitian
    for module in (fock, dissipation):
        monkeypatch.setattr(module, "_hermitian", lambda *a: calls.append(1) or check(*a))
    run(make_params(2.0, 0.02, optical_cutoff=12, mirror_cutoff=3))
    assert calls == []
    evolve_master(np.eye(6, dtype=complex).reshape(2, 3, 2, 3) / 6,
                  LindbladParams(GAMMA, params.evolution), 0.0)
    assert calls == [1]
