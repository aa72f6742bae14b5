"""Spans around optoweak's public functions, recorded from outside the program.

:meth:`Tracer.install` replaces each traced function with a timing wrapper
in every ``optoweak`` module namespace that holds it, so call sites that
bound the function at import time (``from .fock import apply``) are traced
as well as ``module.function`` lookups.  :meth:`Tracer.remove` puts the
originals back.  Spans (name, start, end, parent) stay in memory until the
run writes them out.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (module, function) pairs timed at their call boundary.  Every public
# function of ``analytics`` is traced as well; see ``_targets``.
TRACED = (
    ("interferometer", "run_protocol"),
    ("interferometer", "preselect"),
    ("interferometer", "beam_splitter"),
    ("dynamics", "factored_propagate"),
    ("fock", "apply"),
    ("fock", "coherent_state"),
    ("fock", "displacement"),
    ("fock", "project_fock"),
    ("fock", "branch_probabilities"),
    ("fock", "reduced_density"),
    ("dissipation", "damped_protocol"),
    ("dissipation", "evolve_master"),
    ("sweep", "load_config"),
    ("sweep", "write_csv"),
)


def _targets() -> list[tuple[str, str]]:
    analytics = sys.modules["optoweak.analytics"]
    public = sorted(name for name, fn in vars(analytics).items()
                    if inspect.isfunction(fn) and fn.__module__ == analytics.__name__
                    and not name.startswith("_"))
    return list(TRACED) + [("analytics", name) for name in public]


class Tracer:
    """Collects spans; one instance per process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # beam splitter: cutoff pairs seen in this process, and per-call extras
        self.bs_pairs: set[tuple[int, int]] = set()
        self.bs_cold_calls = 0
        self.bs_peak_bytes = 0
        self.bs_matrix_bytes = 0
        self.rhs_evals = 0

    # -- recording --------------------------------------------------------
    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                if after is not None:
                    after()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _bs_before(self, fn):
        sig = inspect.signature(fn)

        def before(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            pair = (int(bound["cutoff_first"]), int(bound["cutoff_second"]))
            if pair not in self.bs_pairs:
                self.bs_pairs.add(pair)
                self.bs_cold_calls += 1
            dim = (pair[0] + 1) * (pair[1] + 1)
            self.bs_matrix_bytes = max(self.bs_matrix_bytes, 16 * dim * dim)
            tracemalloc.start()
        return before

    def _bs_after(self):
        self.bs_peak_bytes = max(self.bs_peak_bytes, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    def _master_before(self, fn):
        """RK4 right-hand-side evaluations of one evolve_master call:
        4 per step, over steps + 2 steps when the step-doubling check is on."""
        sig = inspect.signature(fn)

        def before(*args, **kwargs):
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            arg = call.arguments
            resolved_step = getattr(arg["params"], "resolved_step", None)
            if resolved_step is None or arg["total_time"] == 0:
                return
            steps = max(1, math.ceil(arg["total_time"] / resolved_step(arg["total_time"])))
            self.rhs_evals += 4 * steps * (3 if arg.get("verify_step", False) else 1)
        return before

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function wherever an optoweak module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "optoweak" or name.startswith("optoweak.")]
        for mod_name, fn_name in _targets():
            fn = getattr(sys.modules[f"optoweak.{mod_name}"], fn_name, None)
            # a function the program no longer has reads as zero time and is
            # listed in the run record, instead of stopping the benchmark
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            before = after = None
            if (mod_name, fn_name) == ("interferometer", "beam_splitter"):
                before, after = self._bs_before(fn), self._bs_after
            elif (mod_name, fn_name) == ("dissipation", "evolve_master"):
                before = self._master_before(fn)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------
    def totals(self, first: int = 0) -> tuple[dict, dict, dict, float]:
        """Per-name inclusive time, self time and call count over spans
        ``first`` onward, plus the summed self time of all of them.

        Inclusive time counts a span only when no enclosing span has the
        same name, so nested calls of one function are not counted twice.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent in spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        self_total = 0.0
        for idx in range(first, len(spans)):
            name, start, end, parent = spans[idx]
            dur = end - start
            calls[name] += 1
            own[name] += dur - child_time[idx]
            self_total += dur - child_time[idx]
            while parent >= first and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < first:
                incl[name] += dur
        return incl, own, calls, self_total

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
