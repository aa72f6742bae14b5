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
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .dissipation import _damped_arm, _damped_scan
from .dynamics import EvolutionParams, evolution_params
from .errors import ConfigError, DegenerateBranchError, LayoutError, TruncationError
from .interferometer import ProtocolParams, _arm, _scan

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
# keys only some modes read; every other mode refuses them unless null
READ_BY = {"pairs": ("figure3",), "overlay_alpha2": ("figure2",), "svg": ("figure2", "figure3"),
           "engine": ("figure2", "sweep"), "cutoffs": ("figure2", "sweep")}
SCAN_POINTS = 512  # grid points per batch of exact scans
# what a sweep keeps of each exact outcome: the scalars its rows print
_EXACT_FIELDS = operator.attrgetter("p_click", "p_noclick", "p_residual", "q_click", "q_noclick",
                                    "diff", "dq_click", "dq_noclick", "degenerate_reason")


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
        return np.linspace(_parameter(f"axes.{name}.start", name, spec["start"]),
                           _parameter(f"axes.{name}.stop", name, spec["stop"]),
                           _integer(f"axes.{name}.count", spec["count"], 2)).tolist()
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
    for key, modes in READ_BY.items():
        if raw.get(key) is not None and mode not in modes:
            who = " and ".join(filter(None, (", ".join(modes[:-1]), modes[-1])))
            raise ConfigError(f"{key}: mode {mode!r} would ignore it "
                              f"(only {who} read{'s' * (len(modes) == 1)} it)")
    for key in ("out", "svg"):
        if not isinstance(raw.get(key), (str, type(None))):
            raise ConfigError(f"{key} must be a path string or null, got {raw[key]!r}")
    engine = raw.get("engine", "analytic")
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")

    fixed = _section(raw, "fixed")
    for key, val in fixed.items():
        if key not in DEFAULT_FIXED:
            raise ConfigError(f"unknown fixed parameter {key!r} (known: {sorted(DEFAULT_FIXED)})")
        fixed[key] = _parameter(f"fixed.{key}", key, val)
    if mode == "figure2" and engine != "analytic" and fixed.get("gamma", 0.0) != 0.0:
        raise ConfigError("fixed.gamma: figure2's exact overlay is unitary (gamma 0), "
                          f"got {fixed['gamma']!r}")
    axes = {}
    read = {"sweep": SWEEPABLE, "figure2": ("delta",), "figure3": ("delta",)}.get(mode, ())
    for name, spec in _section(raw, "axes").items():
        if name not in SWEEPABLE:
            raise ConfigError(f"unknown sweep axis {name!r} (known: {SWEEPABLE})")
        if name not in read:
            raise ConfigError(f"axes.{name}: mode {mode!r} would ignore it "
                              f"(axes it reads: {', '.join(read) or 'none'})")
        axes[name] = _expand_axis(name, spec)

    cut = _section(raw, "cutoffs")
    for key, val in cut.items():
        if key not in ("optical", "mirror"):
            raise ConfigError(f"unknown cutoff key {key!r}")
        if val is not None:
            _integer(f"cutoffs.{key}", val, 0)
    pairs = raw.get("pairs", DEFAULT_PAIRS)
    try:
        pairs = tuple((_number("pairs probability", p), _number("pairs k", k, 0.0))
                      for p, k in pairs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"pairs must be [probability, k] items: {err}") from err
    for p, _ in pairs:
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"pairs probability must be in (0, 1], got {p!r}")
    if not pairs:
        raise ConfigError("pairs: figure3 needs at least one [probability, k] item")
    overlay_alpha2 = _number("overlay_alpha2", raw.get("overlay_alpha2", 2.0), 0.0)

    cfg = SweepConfig(
        mode=mode, engine=engine, fixed=fixed, axes=axes, pairs=pairs,
        optical_cutoff=cut.get("optical"), mirror_cutoff=cut.get("mirror"),
        overlay_alpha2=overlay_alpha2, out=raw.get("out"), svg=raw.get("svg"))
    _check_exact_feasible(cfg)
    return cfg


def _exact_values(cfg: SweepConfig, name: str) -> list[float]:
    """The values parameter ``name`` takes at the config's exact points: a
    sweep's axis, else its fixed value; figure2 overlays run at
    ``overlay_alpha2``."""
    if cfg.mode != "sweep":
        return [cfg.overlay_alpha2] if name == "alpha2" else [cfg.value(name)]
    return cfg.axes.get(name) or [cfg.value(name)]


def _exact_drive(cfg: SweepConfig, alpha2: float, evolution: EvolutionParams) -> ProtocolParams:
    """The exact engines' request for one drive at the config's cutoffs;
    its delta is 0, because the scans take their deltas apart."""
    mirror = {} if cfg.mirror_cutoff is None else {"mirror_cutoff": cfg.mirror_cutoff}
    return ProtocolParams(alpha=complex(math.sqrt(alpha2)), delta=0.0, evolution=evolution,
                          optical_cutoff=cfg.optical_cutoff, **mirror)


def _check_exact_feasible(cfg: SweepConfig) -> None:
    """Refuse up front a config whose exact points the engines would refuse:
    run the checks of a stage miss (:func:`optoweak.dissipation._damped_arm`
    when a point is damped, gamma > 0, else
    :func:`optoweak.interferometer._arm`) at the worst drive, the largest
    |alpha|^2 and |phi| = k |1 - e^{-i wm_t}|, and report a refusal as a
    :class:`ConfigError`."""
    if cfg.engine == "analytic":
        return
    alpha2 = max(_exact_values(cfg, "alpha2"))
    wm_t = max(_exact_values(cfg, "wm_t"), key=lambda w: evolution_params(1.0, w).abs_disp)
    drive = _exact_drive(cfg, alpha2, evolution_params(max(_exact_values(cfg, "k")), wm_t))
    try:
        (_damped_arm if max(_exact_values(cfg, "gamma")) > 0.0 else _arm)(drive)
    except (LayoutError, TruncationError) as err:
        raise ConfigError(f"exact engine infeasible at |alpha|^2={alpha2:.3g}, "
                          f"k={drive.evolution.k:.3g}, wm_t={wm_t:.3g}: {err}") from err


# ---------------------------------------------------------------------------
# formatting

def write_csv(path: str | None, header: list[str], rows) -> None:
    """Write header + rows to ``path``, or to stdout when it is None or empty
    (any iterable; rows stream as they arrive).  A ``str`` cell is written
    as is, any other cell as float(cell) to 17 significant digits; each row
    is one ``%`` format, cached per sequence of cell types."""
    formats: dict[tuple, str] = {}
    with (open(path, "w", encoding="utf-8", newline="\n") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = tuple(row)
            kinds = tuple(map(type, cells))
            fmt = formats.get(kinds)
            if fmt is None:
                fmt = formats[kinds] = ",".join(
                    "%s" if issubclass(kind, str) else "%.17g" for kind in kinds) + "\n"
            fh.write(fmt % cells)


# ---------------------------------------------------------------------------
# evaluation

def _analytic_point(evolution: EvolutionParams, alpha2: float, delta: float) -> dict:
    """Closed forms at one grid point; degenerate fields become NaN + reason."""
    reasons: list[str] = []

    def guarded(name, fn, *args):
        try:
            return fn(*args)
        except DegenerateBranchError:
            reasons.append(f"{name}:degenerate")
            return math.nan

    out = {
        "regime": analytics.regime(delta, evolution),
        "q_click": guarded("q_click", analytics.q_click, alpha2, delta, evolution),
        "q_noclick": analytics.q_noclick(alpha2, delta, evolution),
        "q_diff": guarded("q_diff", analytics.q_diff, alpha2, delta, evolution),
        "q_wva": guarded("q_wva", analytics.q_wva, alpha2, delta, evolution),
        "p_click": analytics.p_success(alpha2, delta, evolution),
        "weak_value": guarded("weak_value", analytics.weak_value, alpha2, delta),
        "weak_value_one_photon": guarded("weak_value_one_photon",
                                         analytics.weak_value_one_photon, delta),
        "q_no_postselection": analytics.q_no_postselection(evolution.k, evolution.wm_t),
    }
    out["reason"] = "; ".join(reasons)
    return out


def _exact_outcomes(cfg: SweepConfig, points: list[dict], descending: bool
                    ) -> list[tuple | None]:
    """Each grid point's exact scalars, the tuple :data:`_EXACT_FIELDS` reads
    as the scan streams (None for the analytic engine), from one unitary or
    damped (gamma > 0) scan per drive (k, wm_t, |alpha|^2, gamma), run in
    ascending or ``descending`` drive order."""
    out, groups = [None] * len(points), {}
    for i, pt in enumerate(points if cfg.engine != "analytic" else ()):
        groups.setdefault((pt["k"], pt["wm_t"], pt["alpha2"], pt["gamma"]), []).append(i)
    for (k, wm_t, alpha2, gamma), idx in sorted(groups.items(), reverse=descending):
        drive = _exact_drive(cfg, alpha2, evolution_params(k, wm_t))
        deltas = [points[i]["delta"] for i in idx]
        scan = _damped_scan(drive, deltas, gamma) if gamma > 0.0 else _scan(drive, deltas)
        for i, outcome in zip(idx, scan):
            out[i] = _EXACT_FIELDS(outcome)
    return out


SWEEP_HEADER = [
    "k", "wm_t", "alpha2", "delta", "gamma", "engine", "regime",
    "p_click", "p_noclick", "p_residual",
    "q_click", "q_noclick", "q_diff", "dq_click", "dq_noclick",
    "q_wva", "weak_value", "weak_value_one_photon", "q_no_postselection",
    "rel_dev_q_diff", "reason",
]


def _sweep_rows_for_point(cfg: SweepConfig, point: dict, evolution: EvolutionParams,
                          out) -> list[list]:
    """The rows of one grid point at its ``evolution``; ``out`` is its exact
    outcome from :func:`_exact_outcomes`, or None."""
    alpha2, delta = point["alpha2"], point["delta"]
    base = [point["k"], point["wm_t"], alpha2, delta, point["gamma"]]
    ana = _analytic_point(evolution, alpha2, delta)
    rows = []
    rel = math.nan
    if out is not None and not math.isnan(ana["q_diff"]) and ana["q_diff"] != 0:
        rel = (out[5] - ana["q_diff"]) / ana["q_diff"]  # out[5]: the exact diff
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
        *exact, reason = out  # p_click .. dq_noclick, in column order
        note = "; ".join(filter(None, [ana["reason"], reason]))
        rows.append(base + ["exact", ana["regime"], *exact, *tail, note])
    return rows


def iter_sweep_rows(cfg: SweepConfig):
    """Yield sweep rows in grid order (the last axis in SWEEPABLE order
    varies fastest), SCAN_POINTS grid points at a time: each batch runs its
    exact points as one scan per drive (:func:`_exact_outcomes`) first and
    keeps only the scalars its rows print.  Batches alternate the drive
    order, so each starts with the drive the last one ended on: the damped
    stage keeps one density matrix."""
    if not cfg.axes:
        raise ConfigError("sweep mode needs at least one axis")
    names = [n for n in SWEEPABLE if n in cfg.axes]
    fixed = {n: cfg.value(n) for n in DEFAULT_FIXED}
    points = ({**fixed, **dict(zip(names, values))}
              for values in itertools.product(*(cfg.axes[n] for n in names)))
    # one EvolutionParams per (k, wm_t), keyed on their bits: == would give
    # k = -0.0 the instance of 0.0, and rows at -0.0 print -0
    evolutions: dict[tuple[str, str], EvolutionParams] = {}
    descending = False
    while batch := list(itertools.islice(points, SCAN_POINTS)):
        for point, out in zip(batch, _exact_outcomes(cfg, batch, descending)):
            key = (point["k"].hex(), point["wm_t"].hex())
            if (evolution := evolutions.get(key)) is None:
                evolution = evolutions[key] = evolution_params(point["k"], point["wm_t"])
            yield from _sweep_rows_for_point(cfg, point, evolution, out)
        descending = not descending


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

    evolution = evolution_params(k, wm_t)

    def row(delta: float, ex) -> list:
        ana = _analytic_point(evolution, alpha2, delta)
        out = [delta, ana["q_no_postselection"], ana["q_noclick"], ana["q_click"],
               ana["q_diff"], ana["q_wva"] - ana["q_noclick"], ana["p_click"]]
        if ex is not None:
            out += [cfg.overlay_alpha2, ex.q_noclick, ex.q_click, ex.diff, ex.p_click]
        return out

    exact = (_scan(_exact_drive(cfg, cfg.overlay_alpha2, evolution), deltas) if overlay
             else itertools.repeat(None))
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
