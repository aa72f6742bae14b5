"""Cross-module verification checks.

Each check bundles the clauses of one verification target: measured value,
tolerance, pass flag, runtime.  The CLI ``verify`` command and the
acceptance test module both run exactly this list, so there is one source of
truth for what the package promises.

Checks never abort the suite: exceptions inside a check are captured and
reported as failures.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytics, interferometer
from .dissipation import LindbladParams, damped_protocol, evolve_master
from .dynamics import evolution_params
from .fock import coherent_state, position
from .interferometer import ProtocolParams, _scan, run_protocol, weak_value_numeric
from .oracle import dense_propagator, factored_propagate, weak_approx_propagate
from .sweep import TABLE1_DELTAS, run_table1


def _vacuum(cutoff: int) -> np.ndarray:
    """The mirror ground state |0> on ``cutoff`` + 1 levels."""
    vac = np.zeros(cutoff + 1, dtype=complex)
    vac[0] = 1.0
    return vac


def _params(alpha2: float, delta: float, k: float, wm_t: float, **cutoffs) -> ProtocolParams:
    return ProtocolParams(alpha=complex(math.sqrt(alpha2)), delta=delta,
                          evolution=evolution_params(k, wm_t), **cutoffs)


@dataclass
class Clause:
    name: str
    measured: float
    tolerance: float
    ok: bool

    def line(self) -> str:
        flag = "pass" if self.ok else "FAIL"
        return f"    [{flag}] {self.name}: measured={self.measured:.6g} allowed={self.tolerance:.6g}"


@dataclass
class CheckResult:
    name: str
    clauses: list[Clause] = field(default_factory=list)
    seconds: float = 0.0
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.ok for c in self.clauses)

    def add(self, name: str, measured: float, tolerance: float,
            ok: bool | None = None) -> None:
        ok = measured <= tolerance if ok is None else ok
        self.clauses.append(Clause(name, float(measured), float(tolerance), bool(ok)))

    def report(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name} ({self.seconds:.2f}s)"]
        if self.error:
            lines.append(f"    [FAIL] raised: {self.error}")
        lines.extend(c.line() for c in self.clauses)
        return "\n".join(lines)


def _timed(budget_s: float):
    """Run a check on a fresh :class:`CheckResult`: an exception becomes its
    error, a return adds a last "runtime s" clause held to ``budget_s``."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            res = CheckResult(name=fn.__name__.removeprefix("check_"))
            try:
                fn(res, *args, **kwargs)
            except Exception as err:  # aggregated, never panicking mid-suite
                res.error = f"{type(err).__name__}: {err}"
            res.seconds = time.perf_counter() - t0
            if res.error is None:
                res.add("runtime s", res.seconds, budget_s)
            return res
        return wrapper
    return decorate


# --------------------------------------------------------------------------
# 1. reference table regeneration

TABLE1_EXPECT = {
    0.1: (5.0, 30.0), 0.08: (6.25, 19.2), 0.06: (8.0 + 1.0 / 3.0, 10.8),
    0.04: (12.5, 4.8), 0.02: (25.0, 1.2), 0.01: (50.0, 0.3),
}


def _sigfig_err(value: float, reference: float, figures: int = 3) -> float:
    """Relative error normalized so 1.0 sits at the last retained digit."""
    if reference == 0.0:
        return abs(value)
    scale = 10.0 ** (figures - 1)
    return abs(value - reference) / abs(reference) * scale


@_timed(1.0)
def check_table1(res: CheckResult) -> None:
    _, rows = run_table1()
    for delta, wv1, alpha2, pf in rows:
        exp_wv, exp_pf = TABLE1_EXPECT[delta]
        res.add(f"weak value (delta={delta:g}) to 3 sig figs",
                _sigfig_err(wv1, exp_wv), 0.5)
        res.add(f"success probability percent (delta={delta:g}) to 3 sig figs",
                _sigfig_err(pf, exp_pf), 0.5)
        res.add(f"alpha2 column (delta={delta:g})", abs(alpha2 - 30.0), 1e-12)
    res.add("delta column differs from TABLE1_DELTAS",
            float(tuple(r[0] for r in rows) != TABLE1_DELTAS), 0.0)


# --------------------------------------------------------------------------
# 2. analytic displacement curves

@_timed(1.0)
def check_figure2_analytic(res: CheckResult) -> None:
    k, wm_t, alpha2 = 0.005, math.pi, 30.0
    ev = evolution_params(k, wm_t)
    res.add("no-click level - 0.3", abs(analytics.q_noclick(alpha2, 0.005, ev) - 0.3), 1e-12)
    res.add("no-postselection level - 0.02",
            abs(analytics.q_no_postselection(k, wm_t) - 0.02), 1e-12)
    delta_star = analytics.q_diff_argmax(k, wm_t)
    res.add("argmax delta - 0.005", abs(delta_star - 0.005), 1e-12)
    res.add("click peak - 1.3", abs(analytics.q_click(alpha2, delta_star, ev) - 1.3), 1e-12)
    res.add("difference at peak - 1.0",
            abs(analytics.q_diff(alpha2, delta_star, ev) - 1.0), 1e-12)


# --------------------------------------------------------------------------
# 3. exact pipeline vs closed forms at desk scale

DESK_DELTAS = (0.002, 0.005, 0.01, 0.02, 0.035, 0.05)


@_timed(60.0)
def check_exact_vs_analytic(res: CheckResult, optical_cutoff: int = 14,
                            mirror_cutoff: int = 8) -> None:
    k, wm_t, alpha2 = 0.005, math.pi, 2.0
    low, ex = (list(_scan(_params(a2, 0.0, k, wm_t, optical_cutoff=optical_cutoff,
                                  mirror_cutoff=mirror_cutoff), DESK_DELTAS))
               for a2 in (0.5, alpha2))
    ev = evolution_params(k, wm_t)
    for name, attr, ref, tol in (("q_diff", "diff", analytics.q_diff, 0.05),
                                 ("p_click", "p_click", analytics.p_success, 0.05),
                                 ("q_noclick", "q_noclick", analytics.q_noclick, 0.02)):
        res.add(f"max rel dev of {name} vs closed form",
                max(abs(getattr(out, attr) - ref(alpha2, delta, ev)) / ref(alpha2, delta, ev)
                    for out, delta in zip(ex, DESK_DELTAS)), tol)
    res.add("q_diff alpha2-independence 0.5 vs 2",
            max(abs(lo.diff - out.diff) / abs(out.diff) for lo, out in zip(low, ex)), 0.02)


# --------------------------------------------------------------------------
# 4. factored vs dense propagator, and the engines' closed-form ket vs factored

def _factored_block(k: float, wm_t: float, optical_cutoff: int, mirror_cutoff: int,
                   mirror_pad: int) -> np.ndarray:
    """:func:`factored_propagate` on the mirror-padded (a, m) space, one column
    per basis ket, on mirror levels <= ``mirror_cutoff``: a dense_propagator block."""
    da, dm = optical_cutoff + 1, mirror_cutoff + 1
    shape = (da, dm + mirror_pad)
    kets = np.eye(math.prod(shape)).reshape(*shape, -1)[:, :dm]
    params = evolution_params(k, wm_t)
    return np.array([factored_propagate(ket.reshape(shape), params)[:, :dm].reshape(-1)
                     for ket in kets.reshape(da * dm, -1)]).T


@_timed(10.0)
def check_propagator_equivalence(res: CheckResult) -> None:
    pad = 24  # both builds converged on the compared block at this padding
    worst = 0.0
    for k in (0.01, 0.1):
        for wm_t in (math.pi / 2, math.pi, 2 * math.pi):
            uf = _factored_block(k, wm_t, 3, 7, pad)
            ud = dense_propagator(k, wm_t, 3, 7, mirror_pad=pad)
            dev = float(np.abs(uf - ud).max())
            worst = max(worst, dev)
            res.add(f"max |dU| k={k:g} wm_t={wm_t/math.pi:g}pi", dev, 1e-8)
    res.add("overall max deviation", worst, 1e-8)
    # the stage production runs, looked up on its module at call time, against
    # the oracle on the vacuum mirror it starts from, padded as above
    worst = 0.0
    for alpha2, k, wm_t, mirror in ((30.0, 0.005, math.pi, 10), (12.0, 0.02, math.pi / 2, 20),
                                    (2.0, 0.2, math.pi, 110)):
        drive = interferometer._drive(_params(alpha2, 0.0, k, wm_t, mirror_cutoff=mirror))
        psi, _, beta = interferometer._evolved_ket(drive)
        ref = factored_propagate(np.multiply.outer(beta, _vacuum(mirror + pad)), drive.evolution)
        worst = max(worst, float(np.abs(psi - ref[:, :mirror + 1]).max()))
    res.add("production ket vs factored_propagate", worst, 1e-12)


# --------------------------------------------------------------------------
# 5. single-photon bound without postselection

@_timed(30.0)
def check_no_postselection_bound(res: CheckResult, mirror_cutoff: int = 12) -> None:
    q = position(mirror_cutoff)

    def shift(k: float, wm_t: float) -> float:
        """<q> of the one-photon block m; the vacuum's <q> is exactly 0."""
        psi = np.multiply.outer([0.0, 1.0], _vacuum(mirror_cutoff))  # |1>_a |0>_m
        m = factored_propagate(psi, evolution_params(k, wm_t))[1]
        return float((m.conj() @ q @ m).real / (m.conj() @ m).real)

    for k in (0.005, 0.25):
        worst = max(abs(shift(k, w) - analytics.q_no_postselection(k, w))
                    for w in np.linspace(0.0, 2 * math.pi, 100))
        res.add(f"grid max |exact - 2k(1-cos)| at k={k:g}", worst, 1e-10)
        res.add(f"maximum vs 4k at k={k:g}", abs(shift(k, math.pi) - 4 * k), 1e-10)
    res.add("k=0.25 maximum is exactly 1 sigma", abs(shift(0.25, math.pi) - 1.0), 1e-10)


# --------------------------------------------------------------------------
# 6. exact SNR at the small-coupling optimum

@_timed(30.0)
def check_snr_exact(res: CheckResult, optical_cutoff: int = 16,
                    mirror_cutoff: int = 8) -> None:
    k, alpha2 = 0.01, 4.0
    out = run_protocol(_params(alpha2, k, k, math.pi, optical_cutoff=optical_cutoff,
                               mirror_cutoff=mirror_cutoff))
    target = analytics.snr_click(alpha2, k)  # 1.08
    res.add("snr = q_click/dq rel dev vs 1+2k|alpha|^2",
            abs(out.q_click / out.dq_click - target) / target, 0.05)
    res.add("dq_click rel dev vs sigma", abs(out.dq_click - 1.0), 0.05)


# --------------------------------------------------------------------------
# 7. weak value in the backaction-free regime

@_timed(30.0)
def check_weak_value_wva(res: CheckResult) -> None:
    worst = 0.0
    for alpha2 in (0.5, 1.0, 2.0, 4.0):
        for delta in (0.02, 0.05, 0.1):
            wv = weak_value_numeric(_params(alpha2, delta, 0.0, math.pi))
            formula = analytics.weak_value(alpha2, delta)
            worst = max(worst, abs(wv - formula) / formula)
    res.add("max rel dev numeric weak value vs |alpha|^2/2 + 1/(2 delta)",
            worst, 0.01)
    res.add("analytic weak value at (30, 0.05) - 25",
            abs(analytics.weak_value(30.0, 0.05) - 25.0), 1e-12)
    res.add("analytic success probability at (30, 0.05) - 7.5%",
            abs(analytics.p_success_wva(30.0, 0.05) - 0.075), 1e-12)


# --------------------------------------------------------------------------
# 8. damping robustness

@_timed(120.0)
def check_dissipation_robustness(res: CheckResult, optical_cutoff: int = 12,
                                 mirror_cutoff: int = 6) -> None:
    k, wm_t, alpha2, gamma = 0.005, math.pi, 2.0, 5e-7
    params = _params(alpha2, k, k, wm_t, optical_cutoff=optical_cutoff,
                     mirror_cutoff=mirror_cutoff)
    undamped = damped_protocol(params, 0.0)
    damped = damped_protocol(params, gamma)
    res.add("q_diff rel change at gamma=5e-7",
            abs(damped.diff - undamped.diff) / abs(undamped.diff), 1e-3)
    unitary = run_protocol(params)
    res.add("gamma=0 vs unitary pipeline, q_diff", abs(undamped.diff - unitary.diff), 1e-8)
    res.add("gamma=0 vs unitary pipeline, p_click",
            abs(undamped.p_click - unitary.p_click), 1e-8)

    # integrator health on the damped a-m segment, from the engines' start
    psi = np.multiply.outer(interferometer._arm(params), _vacuum(mirror_cutoff))
    lb = LindbladParams(gamma=gamma, base=params.evolution)
    rho = evolve_master(np.multiply.outer(psi, psi.conj()), lb, wm_t).reshape(psi.size, -1)
    res.add("trace drift", abs(float(np.trace(rho).real) - 1.0), 1e-9)
    res.add("negativity of smallest eigenvalue",
            max(0.0, -float(np.linalg.eigvalsh(rho).min())), 1e-9)


# --------------------------------------------------------------------------
# 9. weak-approximation chain vs the exact pipeline

@_timed(30.0)
def check_approximation_chain(res: CheckResult, optical_cutoff: int = 12,
                              mirror_cutoff: int = 8) -> None:
    alpha2, k, wm_t, delta = 1.0, 0.005, math.pi, 0.02
    alpha = math.sqrt(alpha2)
    ev = evolution_params(k, wm_t)
    # the approximate evolved state: weak operator on the linearized inputs
    psi0 = np.multiply.outer(np.multiply.outer(coherent_state(alpha, optical_cutoff),
                                               coherent_state(delta * alpha, optical_cutoff)),
                             _vacuum(mirror_cutoff))
    psi = weak_approx_propagate(psi0 / np.linalg.norm(psi0), ev, alpha)
    x = psi[:, 1]  # the click branch over (c, m)
    p_click = float(np.sum(np.abs(x) ** 2))
    q_apx = float(np.sum(x.conj() * (x @ position(mirror_cutoff))).real) / p_click

    exact = run_protocol(_params(alpha2, delta, k, wm_t, optical_cutoff=optical_cutoff,
                                 mirror_cutoff=mirror_cutoff))
    res.add("click-branch <q> rel dev, approx vs exact",
            abs(q_apx - exact.q_click) / abs(exact.q_click), 0.01)
    res.add("click probability rel dev, approx vs exact",
            abs(p_click - exact.p_click) / exact.p_click, 0.01)


ALL_CHECKS = (
    check_table1,
    check_figure2_analytic,
    check_exact_vs_analytic,
    check_propagator_equivalence,
    check_no_postselection_bound,
    check_snr_exact,
    check_weak_value_wva,
    check_dissipation_robustness,
    check_approximation_chain,
)


def run_all(optical_cutoff: int | None = None,
            mirror_cutoff: int | None = None) -> list[CheckResult]:
    """Run every check; cutoff overrides apply where a check takes them."""
    import inspect

    over = {key: val for key, val in (("optical_cutoff", optical_cutoff),
                                      ("mirror_cutoff", mirror_cutoff)) if val is not None}
    results = []
    for check in ALL_CHECKS:
        accepted = inspect.signature(check.__wrapped__).parameters
        kwargs = {k: v for k, v in over.items() if k in accepted}
        results.append(check(**kwargs))
    return results
