"""Verification checks that report their own failures as clauses."""

import numpy as np
import pytest

from optoweak import interferometer, verify


def test_table1_delta_mismatch_is_a_failing_clause(monkeypatch):
    # `python -O` strips assert statements; the row check must be a clause
    monkeypatch.setattr(verify, "TABLE1_DELTAS", verify.TABLE1_DELTAS[:-1] + (0.5,))
    res = verify.check_table1()
    assert res.error is None
    failed = [c for c in res.clauses if not c.ok]
    assert [c.name for c in failed] == ["delta column differs from TABLE1_DELTAS"]
    assert failed[0].measured == 1.0


def test_propagator_check_watches_the_production_ket(monkeypatch):
    # dropping the Kerr phase from the closed-form stage production runs must
    # fail check 4's production-ket clause, so that clause reads that stage,
    # not a copy; the oracle-vs-oracle clauses do not see the change
    production = interferometer._evolved_ket

    def without_kerr(drive):
        psi, norm2, beta = production(drive)
        n = np.arange(len(psi))
        return psi * np.exp(-1j * drive.evolution.kerr_phase * n ** 2)[:, None], norm2, beta
    monkeypatch.setattr(interferometer, "_evolved_ket", without_kerr)
    res = verify.check_propagator_equivalence()
    assert res.error is None
    failed = [c for c in res.clauses if not c.ok]
    assert [c.name for c in failed] == ["production ket vs factored_propagate"]
    assert failed[0].measured > 0.1
    assert {c.name for c in res.clauses} >= {"overall max deviation", "max |dU| k=0.1 wm_t=1pi"}


@pytest.mark.parametrize("check, clause, measured", [
    (verify.check_exact_vs_analytic, "max rel dev of q_noclick vs closed form", 0.0524396),
    (verify.check_weak_value_wva,
     "max rel dev numeric weak value vs |alpha|^2/2 + 1/(2 delta)", 0.0868565),
    (verify.check_approximation_chain, "click-branch <q> rel dev, approx vs exact", 0.0198782),
], ids=["exact_vs_analytic", "weak_value_wva", "approximation_chain"])
def test_deliberate_failures_keep_their_values(check, clause, measured):
    # three clauses hold leading-order closed forms to tolerances they miss;
    # each fails alone, at its recorded value, while its check's other clauses
    # pass.  A change that makes those forms more accurate updates the values.
    res = check()
    assert res.error is None
    failed = [c for c in res.clauses if not c.ok]
    assert [c.name for c in failed] == [clause]
    assert failed[0].measured == pytest.approx(measured, rel=1e-6)
