"""Sweep configs, figure/table generators, CSV determinism."""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from optoweak import (ConfigError, ProtocolParams, TruncationError,
                      evolution_params, run_protocol)
from optoweak.cli import main
from optoweak.interferometer import _MIRROR_WORKSPACE, MAX_RECOMBINER_DIM
from optoweak.sweep import (SWEEP_HEADER, SweepConfig, iter_sweep_rows, load_config,
                            run_figure2, run_figure3, run_table1, write_csv)


def cfg_file(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return str(p)


def run_sweep(cfg):
    return SWEEP_HEADER, list(iter_sweep_rows(cfg))


def csv_text(tmp_path, header, rows) -> str:
    path = tmp_path / "t.csv"
    write_csv(str(path), header, rows)
    return path.read_bytes().decode()


def per_cell_csv(header, rows) -> str:
    """The reference rule, one cell at a time: a str as is, anything else
    as float(cell) to 17 significant digits."""
    return "".join(",".join(cell if isinstance(cell, str) else f"{float(cell):.17g}"
                            for cell in row) + "\n" for row in [header, *rows])


class TestConfig:
    def test_defaults_from_mode(self):
        cfg = load_config(None, default_mode="figure2")
        assert cfg.mode == "figure2"
        assert cfg.engine == "analytic"

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(cfg_file(tmp_path, {"mode": "figure9"}))

    def test_bad_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(cfg_file(tmp_path, {"mode": "sweep", "axes": {"foo": [1, 2]}}))

    def test_range_count_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(cfg_file(tmp_path, {
                "mode": "sweep",
                "axes": {"delta": {"start": 0.01, "stop": 0.02, "count": 1}}}))

    def test_range_axis_values_are_python_floats(self):
        cfg = load_config(None, overrides={"axes": {
            "delta": {"start": 0.001, "stop": 0.12, "count": 7}}}, default_mode="sweep")
        assert cfg.axes["delta"] == list(np.linspace(0.001, 0.12, 7))
        assert {type(x) for x in cfg.axes["delta"]} == {float}

    def test_unknown_fixed_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(cfg_file(tmp_path, {"mode": "sweep", "fixed": {"zzz": 1.0}}))

    def test_flag_overrides_win(self, tmp_path):
        path = cfg_file(tmp_path, {"mode": "figure2", "engine": "analytic"})
        cfg = load_config(path, overrides={"engine": "both", "out": "o.csv"})
        assert cfg.engine == "both"
        assert cfg.out == "o.csv"

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # a misspelled "cutoffs" must not run silently with the default cutoffs
        with pytest.raises(ConfigError, match="cutoff"):
            load_config(cfg_file(tmp_path, {"mode": "sweep", "cutoff": {"optical": 9}}))

    def test_retired_workers_key_still_loads(self, tmp_path):
        cfg = load_config(cfg_file(tmp_path, {"mode": "sweep", "workers": 4}))
        assert not hasattr(cfg, "workers")

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))


class TestExactFeasibility:
    def exact_cfg(self, alpha2, gamma=0.0, **extra):
        return load_config(None, overrides={
            "engine": "exact", "fixed": {"alpha2": alpha2, "gamma": gamma},
            "axes": {"delta": [0.005]}, **extra}, default_mode="sweep")

    @pytest.mark.parametrize("alpha2", [30.0, 40.0])
    def test_accepted_and_point_runs(self, alpha2):
        # 40 needs n_opt 78: refused by the old (a, b, m) dimension rule
        header, rows = run_sweep(self.exact_cfg(alpha2))
        row = dict(zip(header, rows[0]))
        assert math.isfinite(row["q_diff"]) and row["p_click"] > 0.0
        total = row["p_click"] + row["p_noclick"] + row["p_residual"]
        assert total == pytest.approx(1.0, abs=2e-9)

    def test_alpha2_400_rejected_with_array_size(self):
        # damped, n_opt 520, mirror cutoff 10: (521 * 11)^2 entries
        with pytest.raises(ConfigError, match=r"\(a, m\) density matrix has 32844361 entries"):
            self.exact_cfg(400.0, gamma=1e-3)

    def test_unitary_point_not_bounded_by_density_matrix(self):
        # n_opt 160, mirror cutoff 30: a damped point would need (161 * 31)^2
        # density-matrix entries; the unitary engine keeps a ket
        header, rows = run_sweep(self.exact_cfg(100.0, cutoffs={"mirror": 30}))
        row = dict(zip(header, rows[0]))
        assert math.isfinite(row["q_diff"]) and row["p_click"] > 0.0
        total = row["p_click"] + row["p_noclick"] + row["p_residual"]
        assert total == pytest.approx(1.0, abs=2e-9)

    def test_damped_point_bounded_by_density_matrix(self):
        with pytest.raises(ConfigError, match=r"\(a, m\) density matrix has 24910081 entries"):
            self.exact_cfg(100.0, gamma=1e-3, cutoffs={"mirror": 30})
        with pytest.raises(ConfigError, match=r"\(a, m\) density matrix"):
            self.exact_cfg(100.0, axes={"delta": [0.005], "gamma": [0.0, 1e-3]},
                           cutoffs={"mirror": 30})

    def test_damped_point_bounded_by_block_generator(self):
        # |alpha|^2 2 (n_opt 12): the density matrix is (13 * 34)^2 entries,
        # but one block's exponential holds 13 generators of 34^4 entries,
        # 17372368 > 4096^2; 13 * 33^4 fits
        with pytest.raises(ConfigError,
                           match="block exponential's working set has 17372368 entries"):
            self.exact_cfg(2.0, gamma=1e-3, cutoffs={"mirror": 33})
        self.exact_cfg(2.0, gamma=1e-3, cutoffs={"mirror": 32})
        self.exact_cfg(2.0, cutoffs={"mirror": 64})  # unitary: no generator

    def test_alpha2_400_small_mirror_rejected_by_mirror_tail(self):
        # mirror cutoff 1 leaves every array small, so the mirror-tail check
        # refuses it: 520 photons displace the mirror by 5.2
        with pytest.raises(ConfigError, match="mirror cutoff 1 too small for displacement 5.2 "):
            load_config(None, overrides={
                "engine": "exact", "fixed": {"alpha2": 400.0},
                "axes": {"delta": [0.005]}, "cutoffs": {"mirror": 1}}, default_mode="sweep")

    def test_mirror_tail_sets_the_limit_at_mirror_cutoff_16(self):
        # the mirror-tail check accepts |alpha|^2 285.5 and refuses 286
        for alpha2 in (263.5, 264.0, 285.5):
            self.exact_cfg(alpha2, cutoffs={"mirror": 16})
        with pytest.raises(ConfigError, match="mirror cutoff 16 too small for displacement"):
            self.exact_cfg(286.0, cutoffs={"mirror": 16})

    def test_mirror_tail_then_binomials_set_the_limit_at_large_mirror_cutoffs(self):
        # no array of d dm^2 entries is built, so at mirror cutoff 150 the
        # mirror-tail check still decides (|alpha|^2 1772.5 accepted, 1773
        # refused); from mirror cutoff 154 the binomial overflow at optical
        # cutoff 2054 (|alpha|^2 1799) does
        self.exact_cfg(1772.5, cutoffs={"mirror": 150})
        with pytest.raises(ConfigError, match="mirror cutoff 150 too small for displacement"):
            self.exact_cfg(1773.0, cutoffs={"mirror": 150})
        with pytest.raises(ConfigError, match="mirror cutoff 153 too small for displacement"):
            self.exact_cfg(1798.5, cutoffs={"mirror": 153})
        self.exact_cfg(1798.5, cutoffs={"mirror": 154})
        with pytest.raises(ConfigError, match="optical cutoff 2054 overflows"):
            self.exact_cfg(1799.0, cutoffs={"mirror": 154})

    def test_verify_cutoffs_are_bounded_whatever_the_engine(self):
        # every verify check runs the exact engines and check 8 is damped, so
        # the default analytic engine does not skip the guard's size terms:
        # 13 generators of 34^4 entries do not fit in 4096^2
        with pytest.raises(ConfigError,
                           match="block exponential's working set has 17372368 entries"):
            load_config(None, {"cutoffs": {"mirror": 33}}, default_mode="verify")
        load_config(None, {"cutoffs": {"mirror": 32}}, default_mode="verify")

    def test_mirror_working_set_sets_the_largest_mirror_cutoff(self):
        # _MIRROR_WORKSPACE arrays of dm^2 entries: 8 * 1448^2 fits in 4096^2,
        # 8 * 1449^2 = 16796808 does not, at any |alpha|^2 (a damped point's
        # dm^4 terms refuse far smaller mirror cutoffs)
        assert _MIRROR_WORKSPACE == 8
        self.exact_cfg(0.5, cutoffs={"mirror": 1447})
        with pytest.raises(ConfigError, match="mirror working set has 16796808 entries"):
            self.exact_cfg(0.5, cutoffs={"mirror": 1448})

    def test_binomial_overflow_sets_the_largest_optical_cutoff(self):
        # at a coupling small enough for every other check, the recombiner's
        # binomial table decides: the largest dimension it holds finite is
        # MAX_RECOMBINER_DIM (tested finite in test_interferometer)
        for optical, ok in ((MAX_RECOMBINER_DIM - 1, True), (MAX_RECOMBINER_DIM, False)):
            overrides = {"engine": "exact", "fixed": {"alpha2": 1.0, "k": 1e-6},
                         "axes": {"delta": [0.005]}, "cutoffs": {"optical": optical}}
            if ok:
                load_config(None, overrides=overrides, default_mode="sweep")
                continue
            with pytest.raises(ConfigError, match="optical cutoff 2054 overflows"):
                load_config(None, overrides=overrides, default_mode="sweep")

    def test_mirror_tail_refused_up_front(self):
        # n_opt 285 photons displace the mirror by 285 |phi| = 2.85, past what
        # mirror cutoff 10 holds; the engines would refuse the first point
        with pytest.raises(ConfigError, match="mirror cutoff 10 too small for displacement 2.85"):
            load_config(None, overrides={
                "engine": "exact", "fixed": {"alpha2": 200},
                "axes": {"delta": [0.005, 0.01]}}, default_mode="sweep")

    def test_mirror_tail_checked_only_where_exact_points_run(self):
        # figure3 and table1 run no exact point at the fixed k; figure2's
        # overlay does, at overlay_alpha2 = 2, where 12 photons displace the
        # mirror by 12 * 0.2 * 2 = 4.8
        for mode in ("figure3", "table1"):
            load_config(None, overrides={"mode": mode, "engine": "exact", "fixed": {"k": 0.2}})
        with pytest.raises(ConfigError, match="mirror cutoff 10 too small for displacement 4.8"):
            load_config(None, overrides={"mode": "figure2", "engine": "exact",
                                         "fixed": {"k": 0.2}})

    def test_mirror_tail_limit_matches_the_engine(self):
        # at default cutoffs the unitary engine runs |alpha|^2 = 160 and
        # refuses 161 (before any beam-splitter work, so the check is cheap)
        self.exact_cfg(160.0)
        with pytest.raises(ConfigError, match="mirror cutoff 10 too small"):
            self.exact_cfg(161.0)
        with pytest.raises(TruncationError, match="mirror cutoff 10 too small"):
            run_protocol(ProtocolParams(alpha=complex(math.sqrt(161.0)), delta=0.005,
                                        evolution=evolution_params(0.005, math.pi)))

    def test_mirror_tail_uses_the_grid_values(self):
        # the axes replace the fixed values at every point: |alpha|^2 2 and
        # k 0.005 fit, the fixed |alpha|^2 200 and the k 0.05 on no axis never run
        self.exact_cfg(200.0, axes={"delta": [0.005], "alpha2": [2.0]})
        load_config(None, overrides={
            "engine": "exact", "fixed": {"k": 0.05},
            "axes": {"delta": [0.005], "k": [0.001, 0.005]}}, default_mode="sweep")
        with pytest.raises(ConfigError, match="k=0.05, wm_t=3.14"):
            load_config(None, overrides={
                "engine": "exact", "fixed": {"alpha2": 12.0},
                "axes": {"delta": [0.005], "k": [0.005, 0.05],
                         "wm_t": [0.5, math.pi]}}, default_mode="sweep")


class TestTable1:
    def test_rows(self):
        header, rows = run_table1()
        assert header == ["delta", "weak_value_one_photon", "alpha2", "p_success_pct"]
        table = {r[0]: r[1:] for r in rows}
        assert table[0.08] == pytest.approx([6.25, 30.0, 19.2], rel=1e-12)
        assert table[0.1] == pytest.approx([5.0, 30.0, 30.0], rel=1e-12)
        assert table[0.01] == pytest.approx([50.0, 30.0, 0.3], rel=1e-12)


class TestFigure2:
    def test_curve_levels(self):
        cfg = load_config(None, default_mode="figure2")
        cfg = SweepConfig(**{**cfg.__dict__, "axes": {"delta": list(np.linspace(0.001, 0.12, 120))
                                                      + [0.005]}})
        header, rows = run_figure2(cfg)
        col = {name: i for i, name in enumerate(header)}
        black = {r[col["q_no_postselection"]] for r in rows}
        assert black == {0.02}
        green = {r[col["q_noclick"]] for r in rows}
        assert green == {0.3}
        by_delta = {r[0]: r for r in rows}
        assert by_delta[0.005][col["q_diff"]] == pytest.approx(1.0, abs=1e-12)
        assert max(r[col["q_click"]] for r in rows) == pytest.approx(1.3, abs=1e-12)
        assert max(r[col["q_click"]] for r in rows) > 1.0

    def test_exact_overlay_columns(self):
        cfg = load_config(None, default_mode="figure2")
        cfg = SweepConfig(**{**cfg.__dict__, "engine": "both",
                             "axes": {"delta": [0.005, 0.02]},
                             "overlay_alpha2": 2.0})
        header, rows = run_figure2(cfg)
        assert "exact_q_diff" in header
        col = header.index("exact_q_diff")
        ref = header.index("q_diff")
        for row in rows:
            assert row[col] == pytest.approx(row[ref], rel=0.06)


class TestFigure3:
    def test_reference_points(self):
        cfg = load_config(None, default_mode="figure3")
        cfg = SweepConfig(**{**cfg.__dict__, "axes": {"delta": [0.001, 0.005, 0.01, 0.1]}})
        header, rows = run_figure3(cfg)
        by_delta = {r[0]: dict(zip(header, r)) for r in rows}
        assert by_delta[0.005]["alpha2_p0.001_k0.005"] == pytest.approx(20.0, rel=1e-12)
        assert by_delta[0.01]["alpha2_p0.004_k0.01"] == pytest.approx(20.0, rel=1e-12)
        assert by_delta[0.001]["alpha2_p0.0002_k0.001"] == pytest.approx(100.0, rel=1e-12)

    def test_monotone_decreasing_at_large_delta(self):
        cfg = load_config(None, default_mode="figure3")
        cfg = SweepConfig(**{**cfg.__dict__, "axes": {"delta": list(np.linspace(0.02, 0.12, 30))}})
        header, rows = run_figure3(cfg)
        for j in range(1, len(cfg.pairs) + 1):
            vals = [r[j] for r in rows]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSweep:
    def base_cfg(self, **kw):
        payload = {"mode": "sweep", "axes": {"delta": [0.005]},
                   "fixed": {"alpha2": 1.0}, "cutoffs": {"optical": 10, "mirror": 8},
                   **kw}
        return load_config(None, overrides=payload, default_mode="sweep")

    def test_single_point_matches_run_protocol(self):
        cfg = self.base_cfg(engine="exact")
        header, rows = run_sweep(cfg)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        params = ProtocolParams(alpha=complex(1.0), delta=0.005,
                                evolution=evolution_params(0.005, math.pi),
                                optical_cutoff=10, mirror_cutoff=8)
        out = run_protocol(params)
        assert row["q_diff"] == pytest.approx(out.diff, rel=1e-12)
        assert row["p_click"] == pytest.approx(out.p_click, rel=1e-12)
        assert row["dq_click"] == pytest.approx(out.dq_click, rel=1e-12)

    def test_large_drive_sweep_emits_no_warning(self):
        # |alpha|^2 delta^2 reaches 0.43 here; that warning belongs to a
        # ProtocolParams built by hand, and under filterwarnings=error any
        # warning from a sweep fails this test
        cfg = load_config(None, overrides={
            "engine": "both", "fixed": {"alpha2": 30.0},
            "axes": {"delta": {"start": 0.001, "stop": 0.12, "count": 50}}}, default_mode="sweep")
        header, rows = run_sweep(cfg)
        assert len(rows) == 100 and [r[header.index("engine")] for r in rows[:2]] == [
            "analytic", "exact"]

    def test_both_engines_share_grid_coordinates(self):
        cfg = self.base_cfg(engine="both", axes={"delta": [0.004, 0.008]})
        header, rows = run_sweep(cfg)
        assert len(rows) == 4
        for i in range(0, 4, 2):
            assert rows[i][:5] == rows[i + 1][:5]
            assert rows[i][5] == "analytic" and rows[i + 1][5] == "exact"
        rel = header.index("rel_dev_q_diff")
        assert all(math.isfinite(r[rel]) for r in rows)

    def test_csv_byte_stable_on_stdout_and_file(self, tmp_path, capsys):
        path = cfg_file(tmp_path, {"mode": "sweep", "engine": "both",
                                   "axes": {"delta": list(np.linspace(0.002, 0.03, 8))},
                                   "fixed": {"alpha2": 1.0},
                                   "cutoffs": {"optical": 10, "mirror": 8}})
        out = tmp_path / "sweep.csv"
        texts = []
        for args in ([], ["--out", str(out)], []):
            assert main(["sweep", "--config", path] + args) == 0
            texts.append(out.read_bytes() if args else capsys.readouterr().out.encode())
        assert texts[0] == texts[1] == texts[2]
        assert len(texts[0].splitlines()) == 1 + 16

    def test_analytic_grid_speed(self):
        cfg = self.base_cfg(engine="analytic",
                            axes={"delta": list(np.linspace(0.001, 0.1, 50)),
                                  "k": list(np.linspace(0.001, 0.01, 20))})
        t0 = time.perf_counter()
        header, rows = run_sweep(cfg)
        assert len(rows) == 1000
        assert time.perf_counter() - t0 < 1.0

    def test_negative_zero_coupling_keeps_its_sign(self, tmp_path):
        cfg = self.base_cfg(engine="both", axes={"k": [-0.0, 0.0]})
        lines = csv_text(tmp_path, SWEEP_HEADER, iter_sweep_rows(cfg)).splitlines()
        rows = [dict(zip(SWEEP_HEADER, line.split(","))) for line in lines[1:]]
        assert [(r["k"], r["engine"]) for r in rows] == [
            ("-0", "analytic"), ("-0", "exact"), ("0", "analytic"), ("0", "exact")]
        for r in rows:
            assert r["q_no_postselection"] == r["k"]
        assert [r["q_noclick"] for r in rows if r["engine"] == "analytic"] == ["-0", "0"]

    def test_exact_sweep_memory_does_not_grow_with_its_deltas(self):
        # mirror cutoff 80: one point's two mirror states are 2 * 81^2 complex
        # entries (210 KB), and a recombiner slice holds 2^16 // (2 * 81^2) = 4
        # angles.  The scans stream, so a sweep keeps one slice's states and
        # each point's scalars: 3.5-3.8 MiB at 20-1000 deltas, where keeping a
        # batch's outcomes would have held 107 MB
        peaks = []
        warm = self.base_cfg(engine="exact", fixed={"alpha2": 2.0}, cutoffs={"mirror": 80})
        list(iter_sweep_rows(warm))  # warm the tables and the ket stage
        for n in (20, 200, 1000):
            cfg = self.base_cfg(engine="exact", fixed={"alpha2": 2.0}, cutoffs={"mirror": 80},
                                axes={"delta": list(np.linspace(0.001, 0.05, n))})
            tracemalloc.start()
            try:
                assert sum(1 for _ in iter_sweep_rows(cfg)) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 5 * 2 ** 20
        assert peaks[2] <= 1.2 * peaks[0]

    def test_no_axes_rejected(self):
        cfg = self.base_cfg(engine="analytic", axes={})
        with pytest.raises(ConfigError):
            run_sweep(cfg)


class TestFormatting:
    def test_seventeen_significant_digits(self, tmp_path):
        text = csv_text(tmp_path, ["x"], [[math.pi], [float("nan")]])
        assert text.splitlines()[1:] == [f"{math.pi:.17g}", "nan"]

    def test_round_trip_exact(self, tmp_path):
        x = 0.1 + 0.2
        assert float(csv_text(tmp_path, ["x"], [[x]]).splitlines()[1]) == x

    def test_write_csv_lf_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["a", "b"], [[1.0, "x"], [float("nan"), "y"]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[0] == "a,b"
        assert "nan,y" in raw.decode()

    def test_bytes_match_the_per_cell_rule(self, tmp_path):
        nan = float("nan")
        cells = [nan, -nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1 + 0.2, 7, True,
                 np.float64(2.0 / 3.0), np.int64(-12), np.float64(nan)]
        # two row shapes, and one shape whose str column moves, in one stream
        rows = [["s", *cells, "t, u"], cells[::-1], ["s", *cells, "v"],
                [1.0, "5%", "%s"], cells[::-1], ["x", 2.5, 3]]
        assert csv_text(tmp_path, ["a", "b"], rows) == per_cell_csv(["a", "b"], rows)

    def test_sweep_rows_match_the_per_cell_rule(self, tmp_path):
        cfg = load_config(None, overrides={
            "engine": "both", "fixed": {"alpha2": 1.0},
            "axes": {"delta": [0.0, 0.01], "k": [0.0, 0.005]},
            "cutoffs": {"optical": 10, "mirror": 8}}, default_mode="sweep")
        rows = list(iter_sweep_rows(cfg))
        assert csv_text(tmp_path, SWEEP_HEADER, rows) == per_cell_csv(SWEEP_HEADER, rows)


class TestDegenerateGridPoints:
    def test_delta_zero_rows_emit_nan_with_reason(self):
        cfg = load_config(None, overrides={
            "axes": {"delta": [0.0, 0.01]},
            "fixed": {"alpha2": 1.0}}, default_mode="sweep")
        header, rows = run_sweep(cfg)
        first = dict(zip(header, rows[0]))
        assert math.isnan(first["weak_value"])
        assert "weak_value:degenerate" in first["reason"]
        assert math.isfinite(first["q_diff"])  # well-defined at delta=0, phi>0
        second = dict(zip(header, rows[1]))
        assert second["reason"] == "analytic engine: no exact columns"

    def test_figure2_with_delta_zero_does_not_crash(self):
        cfg = load_config(None, overrides={"axes": {"delta": [0.0, 0.005]}},
                          default_mode="figure2")
        header, rows = run_figure2(cfg)
        first = dict(zip(header, rows[0]))
        assert math.isnan(first["q_wva_minus_noclick"])
        assert first["q_diff"] == 0.0
