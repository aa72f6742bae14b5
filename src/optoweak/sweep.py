"""Parameter sweeps, figure/table regeneration and CSV emission.

CSV is the contract: fixed column order per command, one header row, LF line
endings, UTF-8, every float printed with 17 significant digits so output is
byte-stable across runs.  Rows stream in grid order, to a file or to stdout.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .dissipation import _EXPM_WORKSPACE, _damped_scan
from .dynamics import _mirror_tail, evolution_params
from .errors import ConfigError, DegenerateBranchError, TruncationError
from .fock import coherent_state
from .interferometer import (MAX_RECOMBINER_DIM, ProtocolParams, _scan,
                             default_optical_cutoff)
from .tolerances import DEFAULT_TOL

MODES = ("figure2", "figure3", "table1", "verify", "sweep")
ENGINES = ("analytic", "exact", "both")
SWEEPABLE = ("delta", "k", "wm_t", "alpha2", "gamma")
NONNEGATIVE = ("k", "wm_t", "alpha2", "gamma")  # every parameter but delta

DEFAULT_FIXED = {"k": 0.005, "wm_t": math.pi, "alpha2": 30.0,
                 "delta": 0.005, "gamma": 0.0}
# figure 3 reference probability/coupling pairs
DEFAULT_PAIRS = ((0.004, 0.01), (0.001, 0.005), (0.0002, 0.001))
# delta grid matching the plotted range
DELTA_GRID = {"start": 0.001, "stop": 0.12, "count": 200}
CONFIG_KEYS = ("mode", "engine", "fixed", "axes", "pairs", "cutoffs",
               "overlay_alpha2", "out", "svg")
RETIRED_KEYS = ("workers",)  # accepted and ignored
SCAN_POINTS = 512  # grid points per batch of exact scans


@dataclass(frozen=True)
class SweepConfig:
    mode: str
    engine: str = "analytic"
    fixed: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)       # name -> list of values
    pairs: tuple = DEFAULT_PAIRS                   # figure3 (p_target, k)
    optical_cutoff: int | None = None
    mirror_cutoff: int | None = None               # None: the protocol's default
    overlay_alpha2: float = 2.0                    # exact overlay for figure2
    out: str | None = None
    svg: str | None = None

    def value(self, name: str) -> float:
        return float(self.fixed.get(name, DEFAULT_FIXED[name]))

    @property
    def exact_mirror_cutoff(self) -> int:
        """The mirror cutoff exact points use: the configured one, else
        :class:`ProtocolParams`' default."""
        if self.mirror_cutoff is None:
            return ProtocolParams.mirror_cutoff
        return self.mirror_cutoff


def _number(key: str, val, minimum: float | None = None) -> float:
    """The config value ``val`` of ``key`` as a float: it must be a finite
    number, at least ``minimum`` when one is given."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ConfigError(f"{key} must be a finite number, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key} must be >= {minimum:g}, got {val!r}")
    return float(val)


def _parameter(key: str, name: str, val) -> float:
    """The config value ``val`` of parameter ``name``, read under ``key``:
    a finite number, >= 0 except for delta, and |delta| < pi/4 (the mixing
    angle pi/4 + delta stays inside (0, pi/2), as the engines require)."""
    x = _number(key, val, 0.0 if name in NONNEGATIVE else None)
    if name == "delta" and abs(x) >= math.pi / 4:
        raise ConfigError(f"{key} must satisfy |delta| < pi/4, got {val!r}")
    return x


def _integer(key: str, val, minimum: int) -> int:
    """The config value ``val`` of ``key``: an integer of at least ``minimum``."""
    if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {val!r}")
    return val


def _section(raw: dict, key: str) -> dict:
    """A copy of the config object under ``key`` (empty when absent)."""
    val = raw.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError(f"{key} must be a JSON object, got {val!r}")
    return dict(val)


def _expand_axis(name: str, spec) -> list[float]:
    if isinstance(spec, dict):
        missing = {"start", "stop", "count"} - set(spec)
        if missing:
            raise ConfigError(f"axis {name!r} range needs start/stop/count, missing {sorted(missing)}")
        return list(np.linspace(_parameter(f"axes.{name}.start", name, spec["start"]),
                                _parameter(f"axes.{name}.stop", name, spec["stop"]),
                                _integer(f"axes.{name}.count", spec["count"], 2)))
    if isinstance(spec, (list, tuple)):
        if not spec:
            raise ConfigError(f"axis {name!r} value list is empty")
        return [_parameter(f"axes.{name}", name, v) for v in spec]
    raise ConfigError(f"axis {name!r} must be a list or a start/stop/count range")


def load_config(path: str | None, overrides: dict | None = None,
                default_mode: str | None = None) -> SweepConfig:
    """Read a JSON config file and apply CLI overrides (flags win)."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path!r}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    for key, val in (overrides or {}).items():
        if val is not None:
            raw[key] = val
    if default_mode is not None and "mode" not in raw:
        raw["mode"] = default_mode
    unknown = set(raw) - set(CONFIG_KEYS) - set(RETIRED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} (known: {CONFIG_KEYS})")

    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if raw.get("svg") is not None and mode not in ("figure2", "figure3"):
        raise ConfigError(f"svg: only figure2 and figure3 draw a plot, not mode {mode!r}")
    engine = raw.get("engine", "analytic")
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")

    fixed = _section(raw, "fixed")
    for key, val in fixed.items():
        if key not in DEFAULT_FIXED:
            raise ConfigError(f"unknown fixed parameter {key!r} (known: {sorted(DEFAULT_FIXED)})")
        fixed[key] = _parameter(f"fixed.{key}", key, val)
    axes = {}
    for name, spec in _section(raw, "axes").items():
        if name not in SWEEPABLE:
            raise ConfigError(f"unknown sweep axis {name!r} (known: {SWEEPABLE})")
        axes[name] = _expand_axis(name, spec)

    cut = _section(raw, "cutoffs")
    for key, val in cut.items():
        if key not in ("optical", "mirror"):
            raise ConfigError(f"unknown cutoff key {key!r}")
        if val is not None:
            _integer(f"cutoffs.{key}", val, 0)
    pairs = raw.get("pairs", DEFAULT_PAIRS)
    try:
        pairs = tuple((_number("pairs probability", p), _number("pairs k", k))
                      for p, k in pairs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"pairs must be [probability, k] items: {err}") from err

    cfg = SweepConfig(
        mode=mode, engine=engine, fixed=fixed, axes=axes, pairs=pairs,
        optical_cutoff=cut.get("optical"), mirror_cutoff=cut.get("mirror"),
        overlay_alpha2=_number("overlay_alpha2", raw.get("overlay_alpha2", 2.0), 0.0),
        out=raw.get("out"), svg=raw.get("svg"))
    _check_exact_feasible(cfg)
    return cfg


def _exact_values(cfg: SweepConfig, name: str) -> list[float]:
    """The values parameter ``name`` takes at the config's exact points: a
    sweep's axis, else its fixed value; figure2 overlays run at
    ``overlay_alpha2``."""
    if cfg.mode != "sweep":
        return [cfg.overlay_alpha2] if name == "alpha2" else [cfg.value(name)]
    return cfg.axes.get(name) or [cfg.value(name)]


def _check_exact_feasible(cfg: SweepConfig) -> None:
    """Refuse exact points whose largest arrays exceed the dense cap squared
    (a 4096 x 4096 complex matrix, 256 MiB): the recombiner-table cache of
    one optical cutoff (:func:`_bs_tables`), a unitary point's stack of
    mirror displacements D(n phi), n < d, and, when a point is damped
    (gamma > 0), the (a, m) density matrix and the working set of one
    block's exponential, _EXPM_WORKSPACE generators of dm^4 entries; and an
    optical cutoff whose recombiner binomials overflow.  Then, where exact
    points run at the config's values (sweep, figure2's overlay), refuse a
    mirror cutoff that the engines' mirror-tail check would reject at the
    worst point: the largest |alpha|^2 and |phi| = k |1 - e^{-i wm_t}|."""
    if cfg.engine == "analytic":
        return
    alpha2 = max(_exact_values(cfg, "alpha2"))
    n_opt = cfg.optical_cutoff if cfg.optical_cutoff is not None else default_optical_cutoff(alpha2)
    d = n_opt + 1
    cap = DEFAULT_TOL.dense_dim_cap ** 2
    dm = cfg.exact_mirror_cutoff + 1
    # only damped points build the density matrix (larger than the stack they skip)
    sizes = [("recombiner-table cache", 2 * d * d + 2 * d + 2),
             ("mirror displacement stack", d * dm * dm)]
    if cfg.mode == "sweep" and max(_exact_values(cfg, "gamma")) > 0.0:
        sizes = [("(a, m) density matrix", (d * dm) ** 2),
                 ("block exponential's working set", _EXPM_WORKSPACE * dm ** 4)] + sizes
    for name, size in sizes:
        if size > cap:
            raise ConfigError(f"exact engine infeasible at |alpha|^2={alpha2:.3g}: "
                              f"the {name} has {size} entries (cap {cap})")
    if d > MAX_RECOMBINER_DIM:
        raise ConfigError(f"exact engine infeasible at |alpha|^2={alpha2:.3g}: optical cutoff "
                          f"{n_opt} overflows the recombiner's binomial table (largest 2053)")
    if cfg.mode not in ("sweep", "figure2"):
        return
    wm_t = max(_exact_values(cfg, "wm_t"), key=lambda w: evolution_params(1.0, w).abs_disp)
    evolution = evolution_params(max(_exact_values(cfg, "k")), wm_t)
    arm = coherent_state(math.sqrt(alpha2 / 2.0), n_opt, "a", leakage_tol=1.0)
    try:
        _mirror_tail(evolution, np.abs(arm.amplitudes) ** 2, cfg.exact_mirror_cutoff)
    except TruncationError as err:
        raise ConfigError(f"exact engine infeasible at |alpha|^2={alpha2:.3g}, "
                          f"k={evolution.k:.3g}, wm_t={wm_t:.3g}: {err}") from err


# ---------------------------------------------------------------------------
# formatting

def format_float(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{float(x):.17g}"


def write_csv(path: str | None, header: list[str], rows) -> None:
    """Write header + rows to ``path``, or to stdout when it is None or empty
    (any iterable; rows stream as they arrive)."""
    with (open(path, "w", encoding="utf-8", newline="\n") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else format_float(cell)
                              for cell in row) + "\n")


# ---------------------------------------------------------------------------
# evaluation

def _analytic_point(k: float, wm_t: float, alpha2: float, delta: float) -> dict:
    """Closed forms at one grid point; degenerate fields become NaN + reason."""
    inp = analytics.AnalyticInputs.of(alpha2, delta, k, wm_t)
    reasons: list[str] = []

    def guarded(name, fn, *args):
        try:
            return fn(*args)
        except DegenerateBranchError:
            reasons.append(f"{name}:degenerate")
            return math.nan

    out = {
        "regime": inp.regime,
        "q_click": guarded("q_click", analytics.q_click, inp),
        "q_noclick": analytics.q_noclick(inp),
        "q_diff": guarded("q_diff", analytics.q_diff, inp),
        "q_wva": guarded("q_wva", analytics.q_wva, inp),
        "p_click": analytics.p_success(inp),
        "weak_value": guarded("weak_value", analytics.weak_value, alpha2, delta),
        "weak_value_one_photon": guarded("weak_value_one_photon",
                                         analytics.weak_value_one_photon, delta),
        "q_no_postselection": analytics.q_no_postselection(k, wm_t),
    }
    out["reason"] = "; ".join(reasons)
    return out


def _exact_outcomes(cfg: SweepConfig, points: list[dict]) -> list:
    """Each grid point's exact outcome (None for the analytic engine), from one
    unitary or damped (gamma > 0) scan per drive (k, wm_t, |alpha|^2, gamma)."""
    out, groups = {}, {}
    for i, pt in enumerate(points if cfg.engine != "analytic" else ()):
        groups.setdefault((pt["k"], pt["wm_t"], pt["alpha2"], pt["gamma"]), []).append(i)
    for (k, wm_t, alpha2, gamma), idx in groups.items():
        scan = [ProtocolParams(alpha=complex(math.sqrt(alpha2)), delta=points[i]["delta"],
                               evolution=evolution_params(k, wm_t),
                               optical_cutoff=cfg.optical_cutoff,
                               mirror_cutoff=cfg.exact_mirror_cutoff) for i in idx]
        out.update(zip(idx, _damped_scan(scan, gamma) if gamma > 0.0 else _scan(scan)))
    return [out.get(i) for i in range(len(points))]


SWEEP_HEADER = [
    "k", "wm_t", "alpha2", "delta", "gamma", "engine", "regime",
    "p_click", "p_noclick", "p_residual",
    "q_click", "q_noclick", "q_diff", "dq_click", "dq_noclick",
    "q_wva", "weak_value", "weak_value_one_photon", "q_no_postselection",
    "rel_dev_q_diff", "reason",
]


def _sweep_rows_for_point(cfg: SweepConfig, point: dict, out) -> list[list]:
    """The rows of one grid point; ``out`` is its exact outcome, or None."""
    k, wm_t = point["k"], point["wm_t"]
    alpha2, delta, gamma = point["alpha2"], point["delta"], point["gamma"]
    base = [k, wm_t, alpha2, delta, gamma]
    ana = _analytic_point(k, wm_t, alpha2, delta)
    rows = []
    rel = math.nan
    if out is not None and not math.isnan(ana["q_diff"]) and ana["q_diff"] != 0:
        rel = (out.diff - ana["q_diff"]) / ana["q_diff"]
    tail = [ana["q_wva"], ana["weak_value"], ana["weak_value_one_photon"],
            ana["q_no_postselection"], rel]
    if cfg.engine in ("analytic", "both"):
        note = ana["reason"] if out is not None else \
            "; ".join(filter(None, [ana["reason"], "analytic engine: no exact columns"]))
        rows.append(base + ["analytic", ana["regime"],
                            ana["p_click"], math.nan, math.nan,
                            ana["q_click"], ana["q_noclick"], ana["q_diff"],
                            math.nan, math.nan, *tail, note])
    if out is not None:
        note = "; ".join(filter(None, [ana["reason"], out.degenerate_reason]))
        rows.append(base + ["exact", ana["regime"],
                            out.p_click, out.p_noclick, out.p_residual,
                            out.q_click, out.q_noclick, out.diff,
                            out.dq_click, out.dq_noclick, *tail, note])
    return rows


def iter_sweep_rows(cfg: SweepConfig):
    """Yield sweep rows in grid order (the last axis in SWEEPABLE order
    varies fastest), SCAN_POINTS grid points at a time: each batch runs its
    exact points as one scan per drive (:func:`_exact_outcomes`) first."""
    if not cfg.axes:
        raise ConfigError("sweep mode needs at least one axis")
    names = [n for n in SWEEPABLE if n in cfg.axes]
    grids = [cfg.axes[n] for n in names]
    points = ({**{n: cfg.value(n) for n in DEFAULT_FIXED},
               **{name: grid[i] for name, grid, i in zip(names, grids, combo)}}
              for combo in np.ndindex(*[len(g) for g in grids]))
    while batch := list(itertools.islice(points, SCAN_POINTS)):
        for point, out in zip(batch, _exact_outcomes(cfg, batch)):
            yield from _sweep_rows_for_point(cfg, point, out)


# ---------------------------------------------------------------------------
# figure / table commands

def run_figure2(cfg: SweepConfig) -> tuple[list[str], list[list]]:
    """Displacement curves vs delta: no-postselection and no-click constants,
    click curve, and both candidates for the difference curve."""
    k, wm_t, alpha2 = cfg.value("k"), cfg.value("wm_t"), cfg.value("alpha2")
    deltas = cfg.axes.get("delta") or _expand_axis("delta", DELTA_GRID)
    header = ["delta", "q_no_postselection", "q_noclick", "q_click", "q_diff",
              "q_wva_minus_noclick", "p_click"]
    overlay = cfg.engine in ("exact", "both")
    if overlay:
        header += ["exact_alpha2", "exact_q_noclick", "exact_q_click",
                   "exact_q_diff", "exact_p_click"]

    def row(delta: float, ex) -> list:
        ana = _analytic_point(k, wm_t, alpha2, delta)
        out = [delta, ana["q_no_postselection"], ana["q_noclick"], ana["q_click"],
               ana["q_diff"], ana["q_wva"] - ana["q_noclick"], ana["p_click"]]
        if ex is not None:
            out += [cfg.overlay_alpha2, ex.q_noclick, ex.q_click, ex.diff, ex.p_click]
        return out

    exact = _exact_outcomes(cfg, [{"k": k, "wm_t": wm_t, "alpha2": cfg.overlay_alpha2,
                                   "delta": d, "gamma": 0.0} for d in deltas])
    return header, list(map(row, deltas, exact))


def run_figure3(cfg: SweepConfig) -> tuple[list[str], list[list]]:
    """Mean photon number required for a target click probability vs delta."""
    wm_t = cfg.value("wm_t")
    deltas = cfg.axes.get("delta") or _expand_axis("delta", DELTA_GRID)
    header = ["delta"] + [f"alpha2_p{p:g}_k{k:g}" for p, k in cfg.pairs]
    return header, [[d] + [analytics.alpha2_for_probability(p_target, k, wm_t, d)
                           for p_target, k in cfg.pairs] for d in deltas]


TABLE1_DELTAS = (0.1, 0.08, 0.06, 0.04, 0.02, 0.01)


def run_table1(alpha2: float = 30.0) -> tuple[list[str], list[list]]:
    """Weak value of one photon and success probability over the reference
    postselection parameters."""
    header = ["delta", "weak_value_one_photon", "alpha2", "p_success_pct"]
    return header, [[d, analytics.weak_value_one_photon(d), alpha2,
                     100.0 * analytics.p_success_wva(alpha2, d)] for d in TABLE1_DELTAS]
