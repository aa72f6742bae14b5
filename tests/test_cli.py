"""Command-line behavior: outputs, exit codes, error prefixes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from optoweak import TruncationError, verify
from optoweak.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_table1_to_csv(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    assert main(["table1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,weak_value_one_photon,alpha2,p_success_pct"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[0]) == 0.1 and float(first[1]) == 5.0


def test_table1_stdout_default(capsys):
    assert main(["table1"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("delta,")


def test_figure2_with_svg(tmp_path):
    csv = tmp_path / "fig2.csv"
    svg = tmp_path / "fig2.svg"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axes": {"delta": {"start": 0.001, "stop": 0.12,
                                                  "count": 40}}}))
    assert main(["figure2", "--config", str(cfg), "--out", str(csv),
                 "--svg", str(svg)]) == 0
    assert csv.read_text().startswith("delta,q_no_postselection,")
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_figure3_csv(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figure3", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.split(",")[0] == "delta"
    assert "alpha2_p0.001_k0.005" in header


def test_sweep_requires_axes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "sweep"}))
    code = main(["sweep", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith("optoweak: config-error:")


@pytest.mark.parametrize("key, bad", [
    ("cutoffs.optical", {"cutoffs": {"optical": "14"}}),
    ("cutoffs.optical", {"cutoffs": {"optical": 9.5}}),
    ("cutoffs.optical", {"cutoffs": {"optical": -3}}),
    ("cutoffs.mirror", {"cutoffs": {"mirror": "x"}}),
    ("cutoffs.mirror", {"cutoffs": {"mirror": -1}}),
    ("cutoffs.mirror", {"cutoffs": {"mirror": 8.7}}),
    ("axes.delta", {"axes": {"delta": ["a"]}}),
    ("axes.delta.count", {"axes": {"delta": {"start": 0.001, "stop": 0.1, "count": "z"}}}),
    ("fixed.alpha2", {"fixed": {"alpha2": "x"}}),
    ("fixed.alpha2", {"fixed": {"alpha2": -2}}),
    ("overlay_alpha2", {"overlay_alpha2": "q"}),
    ("fixed.k", {"fixed": {"k": -1}}),
    ("axes.gamma", {"axes": {"delta": [0.005], "gamma": [-1e-3]}}),
    ("fixed", {"fixed": [1]}),
    ("cutoffs", {"cutoffs": 5}),
])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, key, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "sweep", "axes": {"delta": [0.005]}, **bad}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("optoweak: config-error:")
    assert key in err


@pytest.mark.parametrize("key, bad", [
    ("fixed.delta", {"fixed": {"delta": 0.9}, "axes": {"k": [0.005]}}),
    ("axes.delta", {"axes": {"delta": [0.005, 0.9]}}),
    ("axes.delta.start", {"axes": {"delta": {"start": -0.8, "stop": 0.01, "count": 3}}}),
    ("axes.delta.stop", {"axes": {"delta": {"start": 0.01, "stop": 0.7854, "count": 3}}}),
])
def test_delta_outside_pi_over_4_exits_2_before_any_row(tmp_path, capsys, key, bad):
    # the engines take |delta| < pi/4 only; the exact engine used to fail at
    # the first point, after the CSV header was written, with exit 3
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps({"mode": "sweep", "engine": "exact", **bad}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("optoweak: config-error:")
    assert f"{key} must satisfy |delta| < pi/4" in err
    assert not out.exists()


def test_mirror_tail_infeasible_sweep_exits_2_before_any_row(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps({"mode": "sweep", "engine": "exact", "fixed": {"alpha2": 200},
                               "axes": {"delta": [0.005, 0.01]}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "mirror cutoff 10 too small" in capsys.readouterr().err
    assert not out.exists()


def test_optical_cutoff_infeasible_sweep_exits_2_before_any_row(tmp_path, capsys):
    # each arm holds |alpha|^2 / 2 = 15 photons, past what optical cutoff 20
    # keeps within the preselection leakage budget; the engines' own check
    # refuses it up front, not after the CSV header with exit 3
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps({"mode": "sweep", "engine": "exact", "fixed": {"alpha2": 30},
                               "axes": {"delta": [0.005, 0.01]}, "cutoffs": {"optical": 20}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("optoweak: config-error: exact engine infeasible ")
    assert "coherent state |alpha|^2=15 does not fit cutoff 20" in err
    assert not out.exists()


def test_infeasible_exact_sweep_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "sweep", "fixed": {"alpha2": 400.0, "gamma": 1e-3},
                               "axes": {"delta": [0.005]}}))
    assert main(["sweep", "--config", str(cfg), "--engine", "exact"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("optoweak: config-error:")
    assert "(a, m) density matrix has 32844361 entries" in err


def test_mode_conflict_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "figure3"}))
    assert main(["figure2", "--config", str(cfg)]) == 2


def test_bad_engine_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure2", "--engine", "quantum"])
    assert exc.value.code == 2


def test_sweep_exact_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "axes": {"delta": [0.005]},
        "fixed": {"alpha2": 1.0},
        "cutoffs": {"optical": 9, "mirror": 6},
        "engine": "exact"}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["engine"] == "exact"
    assert float(row["q_diff"]) == pytest.approx(1.0, rel=0.05)


def test_a_raising_check_fails_verify_without_aborting_the_suite(tmp_path, capsys,
                                                                 monkeypatch):
    # an exception inside one check is that check's error: the report still
    # lists all nine checks, and verify exits 1
    def crippled(*args):
        raise TruncationError("mirror cutoff 1 too small", 0.5)

    monkeypatch.setattr(verify, "damped_protocol", crippled)
    report = tmp_path / "verify.json"
    assert main(["verify", "--out", str(report)]) == 1
    out = capsys.readouterr().out
    assert "raised: TruncationError: mirror cutoff 1 too small (leakage=5.000e-01)" in out
    payload = json.loads(report.read_text())
    assert [entry["name"] for entry in payload] == [
        check.__name__.removeprefix("check_") for check in verify.ALL_CHECKS]
    assert len(payload) == 9
    assert {entry["name"]: entry["error"] for entry in payload if entry["error"]} == {
        "dissipation_robustness": "TruncationError: mirror cutoff 1 too small "
                                  "(leakage=5.000e-01)"}


@pytest.mark.parametrize("args", [["table1", "--out"], ["figure3", "--svg"],
                                  ["verify", "--out"]])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, monkeypatch, args):
    monkeypatch.setattr(verify, "run_all", lambda: [])
    path = str(tmp_path / "missing" / "out.file")
    assert main(args + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"optoweak: config-error: cannot write '{path}': ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["table1", "verify", "sweep"])
def test_svg_is_offered_only_where_a_plot_is_drawn(tmp_path, command):
    svg = tmp_path / "plot.svg"
    with pytest.raises(SystemExit) as exc:
        main([command, "--svg", str(svg)])
    assert exc.value.code == 2
    assert not svg.exists()


@pytest.mark.parametrize("command", ["table1", "figure3", "verify"])
def test_engine_is_offered_only_where_an_exact_engine_runs(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--engine", "exact", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine exact" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["table1", "verify", "sweep", "figure3"])
def test_svg_config_key_only_where_a_plot_is_drawn(tmp_path, capsys, monkeypatch, mode):
    # the config key, unlike the flag, reaches every mode: a mode that draws
    # nothing refuses it (exit 2, naming svg) before writing anything
    monkeypatch.setattr(verify, "run_all", lambda: [])
    svg, out = tmp_path / "plot.svg", tmp_path / "out.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": mode, "svg": str(svg), "out": str(out)}))
    code = main([mode, "--config", str(cfg)])
    if mode == "figure3":
        assert code == 0 and svg.read_text().startswith("<svg")
        return
    assert code == 2
    assert capsys.readouterr().err.startswith("optoweak: config-error: svg: ")
    assert not svg.exists() and not out.exists()


@pytest.mark.parametrize("mode, key, bad", [
    ("table1", "out", True), ("table1", "out", 2), ("figure2", "svg", 1),
    ("figure3", "svg", 0.5), ("table1", "out", ["t.csv"]), ("figure3", "out", {"p": "x"}),
])
def test_out_and_svg_must_be_path_strings(tmp_path, capfd, mode, key, bad):
    # open() takes an int or a bool as a file descriptor: "out": true wrote
    # the CSV to fd 1 and exited 0, "out": 2 wrote it to stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": mode, key: bad}))
    assert main([mode, "--config", str(cfg)]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (f"optoweak: config-error: {key} must be a path string or "
                            f"null, got {bad!r}\n")
    cfg.write_text(json.dumps({"mode": "table1", "out": None}))
    assert main(["table1", "--config", str(cfg)]) == 0
    assert capfd.readouterr().out.startswith("delta,")


@pytest.mark.parametrize("pair, message", [
    ([-1, 0.01], "pairs probability must be in (0, 1], got -1.0"),
    ([0, 0.01], "pairs probability must be in (0, 1], got 0.0"),
    ([1.5, 0.01], "pairs probability must be in (0, 1], got 1.5"),
    ([0.004, -0.01], "pairs k must be >= 0, got -0.01"),
    ([1, 0.0], None),
], ids=["negative-p", "zero-p", "p-above-1", "negative-k", "p-1-k-0"])
def test_figure3_pairs_are_range_checked(tmp_path, capsys, pair, message):
    # a negative probability printed a negative |alpha|^2 with exit 0, and a
    # negative k failed in the engine with exit 3
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"mode": "figure3", "pairs": [[0.004, 0.01], pair],
                               "out": str(out)}))
    code = main(["figure3", "--config", str(cfg)])
    if message is None:
        assert code == 0 and out.read_text().startswith("delta,alpha2_p0.004_k0.01,alpha2_p1_k0")
        return
    assert code == 2
    assert capsys.readouterr().err == f"optoweak: config-error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode, axes, ignored", [
    ("figure2", {"delta": [0.005], "alpha2": [5.0, 9.0]}, "alpha2"),
    ("figure3", {"k": [0.1]}, "k"),
    ("table1", {"delta": [0.005]}, "delta"),
    ("verify", {"delta": [0.005]}, "delta"),
])
def test_axes_a_mode_never_reads_exit_2(tmp_path, capsys, monkeypatch, mode, axes, ignored):
    # figure2 and figure3 read only the delta axis and table1 and verify none;
    # an axis they would ignore is a config error naming it, before any output
    monkeypatch.setattr(verify, "run_all", lambda: [])
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"mode": mode, "axes": axes, "out": str(out)}))
    assert main([mode, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"optoweak: config-error: axes.{ignored}: ")
    assert not out.exists()


@pytest.mark.parametrize("mode, extra, message", [
    ("sweep", {"axes": {"delta": [0.01]}, "pairs": [[0.5, 0.01]]},
     "pairs: mode 'sweep' would ignore it (only figure3 reads it)"),
    ("table1", {"overlay_alpha2": 5},
     "overlay_alpha2: mode 'table1' would ignore it (only figure2 reads it)"),
    ("figure3", {"pairs": []}, "pairs: figure3 needs at least one [probability, k] item"),
    ("table1", {"engine": "exact", "cutoffs": {"mirror": 1500}},
     "engine: mode 'table1' would ignore it (only figure2 and sweep read it)"),
    ("figure3", {"engine": "both"},
     "engine: mode 'figure3' would ignore it (only figure2 and sweep read it)"),
    ("verify", {"engine": "analytic"},
     "engine: mode 'verify' would ignore it (only figure2 and sweep read it)"),
    ("table1", {"cutoffs": {"optical": 40}},
     "cutoffs: mode 'table1' would ignore it (only figure2 and sweep read it)"),
    ("figure3", {"cutoffs": {"mirror": 1500}},
     "cutoffs: mode 'figure3' would ignore it (only figure2 and sweep read it)"),
    ("verify", {"cutoffs": {"mirror": 33}},
     "cutoffs: mode 'verify' would ignore it (only figure2 and sweep read it)"),
], ids=["pairs-in-sweep", "overlay-in-table1", "empty-figure3-pairs", "engine-in-table1",
        "engine-in-figure3", "engine-in-verify", "cutoffs-in-table1", "cutoffs-in-figure3",
        "cutoffs-in-verify"])
def test_keys_a_mode_never_reads_exit_2(tmp_path, capsys, mode, extra, message):
    # each exited 0 with the key unused (an empty figure3 pairs list wrote a
    # delta-only CSV), or table1 and figure3 refused an exact engine they never
    # run as infeasible; now a config error naming the key, before any output
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"mode": mode, "out": str(out), **extra}))
    assert main([mode, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"optoweak: config-error: {message}\n"
    assert not out.exists()


def test_closed_stdout_exits_0_quietly(tmp_path):
    # 2000 analytic rows outgrow a pipe buffer, so the CLI is still writing
    # when its reader closes the pipe after one line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "sweep", "axes": {
        "delta": {"start": 0.001, "stop": 0.1, "count": 2000}}}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "optoweak.cli", "sweep", "--config", str(cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"k,wm_t,alpha2,delta,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_table1_reads_the_configured_alpha2(tmp_path, capsys):
    # the alpha2 column and p_success = |alpha|^2 delta^2 follow fixed.alpha2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "table1", "fixed": {"alpha2": 5}}))
    assert main(["table1", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(first[2]) == 5.0 and float(first[3]) == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("engine,gamma,code", [
    ("both", 0.1, 2), ("exact", 1e-3, 2), ("both", 0.0, 0), ("analytic", 0.1, 0)])
def test_figure2_refuses_a_gamma_its_overlay_would_ignore(tmp_path, capsys, engine, gamma, code):
    # the exact overlay is unitary, so a nonzero fixed.gamma is a config error
    # (exit 2, naming fixed.gamma, nothing written) wherever the overlay runs
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"mode": "figure2", "engine": engine, "out": str(out),
                               "fixed": {"gamma": gamma}, "axes": {"delta": [0.005]}}))
    assert main(["figure2", "--config", str(cfg)]) == code
    if code:
        assert capsys.readouterr().err.startswith("optoweak: config-error: fixed.gamma: ")
        assert not out.exists()
    else:
        assert out.read_text().startswith("delta,")
