"""Command-line behavior: outputs, exit codes, error prefixes."""

import json

import pytest

from optoweak import verify
from optoweak.cli import main


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


def test_verify_with_crippled_mirror_cutoff(tmp_path, capsys):
    # a mirror cutoff of 1 must surface truncation failures and exit nonzero,
    # without aborting the rest of the suite
    report = tmp_path / "verify.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoffs": {"optical": 9, "mirror": 1},
                               "out": str(report)}))
    code = main(["verify", "--config", str(cfg)])
    assert code == 1
    out = capsys.readouterr().out
    assert "TruncationError" in out or "truncation" in out.lower()
    payload = json.loads(report.read_text())
    assert isinstance(payload, list) and len(payload) >= 9
    assert any(not entry["passed"] for entry in payload)
    assert any(entry["passed"] for entry in payload)


@pytest.mark.parametrize("cutoffs, expected", [({"mirror": 10}, 10),
                                               ({"mirror": 9}, 9),
                                               ({}, None)])
def test_verify_passes_mirror_cutoff_as_given(tmp_path, monkeypatch, cutoffs, expected):
    seen = {}

    def fake_run_all(optical_cutoff=None, mirror_cutoff=None):
        seen["mirror_cutoff"] = mirror_cutoff
        return []

    monkeypatch.setattr(verify, "run_all", fake_run_all)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoffs": cutoffs}))
    assert main(["verify", "--config", str(cfg)]) == 0
    assert seen == {"mirror_cutoff": expected}


@pytest.mark.parametrize("args", [["table1", "--out"], ["figure3", "--svg"],
                                  ["verify", "--out"]])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, monkeypatch, args):
    monkeypatch.setattr(verify, "run_all", lambda optical_cutoff=None, mirror_cutoff=None: [])
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


@pytest.mark.parametrize("mode", ["table1", "verify", "sweep", "figure3"])
def test_svg_config_key_only_where_a_plot_is_drawn(tmp_path, capsys, monkeypatch, mode):
    # the config key, unlike the flag, reaches every mode: a mode that draws
    # nothing refuses it (exit 2, naming svg) before writing anything
    monkeypatch.setattr(verify, "run_all", lambda optical_cutoff=None, mirror_cutoff=None: [])
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
