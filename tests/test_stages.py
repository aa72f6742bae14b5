"""The delta-free stages both engines cache: reuse across a delta scan, the
same bits as an uncached run, and every check still raised on a cache hit."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from optoweak import (ProtocolParams, TruncationError, damped_protocol,
                      evolution_params, run_protocol)
from optoweak.dissipation import _evolved_rho
from optoweak.fock import _moment_table
from optoweak.interferometer import _drive, _evolved_ket

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
    """Every reported number as float.hex, plus the mirror-state bytes."""
    return ([float(getattr(out, name)).hex() for name in FIELDS]
            + [rho.matrix.tobytes() for rho in (out.mirror_click, out.mirror_noclick)])


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
    _assert_read_only(_moment_table(3)[1:])


def test_delta_and_default_cutoff_share_a_key():
    explicit = make_params(2.0, 0.01, optical_cutoff=make_params(2.0, 0.0).n_opt)
    assert _drive(make_params(2.0, 0.0)) == _drive(explicit)


def test_displacement_warning_fires_on_every_call():
    # the point of the interferometer test of the same warning: n_opt 12
    # photons displace the mirror by |12 phi|^2 = 5.76 > 0.25 * 12
    params = make_params(2.0, 0.02, k=0.1, mirror_cutoff=12)
    _evolved_ket.cache_clear()
    for _ in range(2):  # a miss, then a hit
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_protocol(params)
        hits = [w for w in caught if "displacement" in str(w.message)]
        assert [str(w.message) for w in hits] == [
            "displacement |beta|^2=5.76 is not small against cutoff 12"]
        assert hits[0].filename == __file__  # reported at the caller


@pytest.mark.parametrize("run, stage, key", ENGINES, ids=["unitary", "damped"])
def test_small_mirror_cutoff_raises_on_every_call(run, stage, key):
    # displacement up to 12 |phi| = 2.4 does not fit mirror cutoff 1
    params = make_params(2.0, 0.005, k=0.1, optical_cutoff=12, mirror_cutoff=1)
    stage.cache_clear()
    for _ in range(2):
        with pytest.raises(TruncationError, match="mirror cutoff 1 too small"):
            run(params)
    assert stage.cache_info().currsize == 0
