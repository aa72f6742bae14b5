"""Command-line front end.

    optoweak figure2|figure3|table1|verify|sweep
             [--config path] [--out path] [--engine analytic|exact|both]
             [--svg path]  (figure2 and figure3 only)

Configuration comes from a single JSON file (documented in the README);
command-line flags override config keys.  Exit codes: 0 success,
1 verification failure, 2 config error (an output path that cannot be
written included), 3 numerical/truncation error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .errors import (ConfigError, ConvergenceError, DegenerateBranchError,
                     OptoweakError, TruncationError)
from .sweep import (SWEEP_HEADER, SweepConfig, iter_sweep_rows, load_config,
                    run_figure2, run_figure3, run_table1, write_csv)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
SVG_PLOTS = {"figure2": ("mirror displacement vs postselection parameter", "mean q / sigma"),
             "figure3": ("required mean photon number", "|alpha|^2")}  # title, y label


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="optoweak",
                                description="postselected optomechanical weak "
                                            "measurement: sweeps, figures, checks")
    sub = p.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("figure2", "displacement-vs-delta curves (CSV, optional SVG)"),
            ("figure3", "required mean photon number vs delta (CSV, optional SVG)"),
            ("table1", "reference weak-value/probability table (CSV)"),
            ("verify", "run the full verification suite"),
            ("sweep", "Cartesian parameter sweep (CSV)")):
        q = sub.add_parser(name, help=blurb)
        q.add_argument("--config", help="JSON config file")
        q.add_argument("--out", help="output CSV path (default: stdout)")
        q.add_argument("--engine", choices=("analytic", "exact", "both"))
        if name in SVG_PLOTS:
            q.add_argument("--svg", help="optional SVG plot path")
    return p


@contextlib.contextmanager
def _writing(path: str | None):
    """Report an OSError from opening or writing ``path`` as a config error."""
    try:
        yield
    except OSError as err:
        if not path:  # stdout
            raise
        raise ConfigError(f"cannot write {path!r}: {err.strerror or err}") from err


def _figure_svg(cfg: SweepConfig, header: list[str], rows: list[list],
                title: str, ylabel: str) -> None:
    from .svg import render_svg
    x = [row[0] for row in rows]
    series = {name: [row[i] for row in rows]
              for i, name in enumerate(header) if i > 0
              if not name.startswith("exact_") and name != "p_click"}
    with _writing(cfg.svg):
        render_svg(cfg.svg, x, series, title, header[0], ylabel)


def _run(args: argparse.Namespace) -> int:
    overrides = {"engine": args.engine, "out": args.out, "svg": getattr(args, "svg", None)}
    cfg = load_config(args.config, overrides, default_mode=args.command)
    if cfg.mode != args.command:
        raise ConfigError(f"config mode {cfg.mode!r} conflicts with "
                          f"subcommand {args.command!r}")

    if args.command != "verify":
        header, rows = {"table1": run_table1, "figure2": lambda: run_figure2(cfg),
                        "figure3": lambda: run_figure3(cfg),
                        "sweep": lambda: (SWEEP_HEADER, iter_sweep_rows(cfg))}[args.command]()
        with _writing(cfg.out):
            write_csv(cfg.out, header, rows)
        if cfg.svg:  # load_config accepts it only for figure2 and figure3
            _figure_svg(cfg, header, rows, *SVG_PLOTS[args.command])
        return EXIT_OK

    # verify
    results = verify_mod.run_all(optical_cutoff=cfg.optical_cutoff,
                                 mirror_cutoff=cfg.mirror_cutoff)
    for res in results:
        print(res.report())
    n_fail = sum(not r.passed for r in results)
    print(f"\n{len(results) - n_fail}/{len(results)} checks passed")
    if cfg.out:
        payload = [{
            "name": r.name, "passed": r.passed, "seconds": r.seconds, "error": r.error,
            "clauses": [{"name": c.name, "measured": c.measured,
                         "tolerance": c.tolerance, "ok": c.ok} for c in r.clauses],
        } for r in results]
        with _writing(cfg.out), open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as err:
        print(f"optoweak: config-error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, ConvergenceError, DegenerateBranchError) as err:
        print(f"optoweak: numeric-error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OptoweakError as err:
        print(f"optoweak: error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
