"""Verification checks that report their own failures as clauses."""

import numpy as np

from optoweak import StateVector, dynamics, verify


def test_table1_delta_mismatch_is_a_failing_clause(monkeypatch):
    # `python -O` strips assert statements; the row check must be a clause
    monkeypatch.setattr(verify, "TABLE1_DELTAS", verify.TABLE1_DELTAS[:-1] + (0.5,))
    res = verify.check_table1()
    assert res.error is None
    failed = [c for c in res.clauses if not c.ok]
    assert [c.name for c in failed] == ["delta column differs from TABLE1_DELTAS"]
    assert failed[0].measured == 1.0


def test_propagator_check_watches_the_production_propagator(monkeypatch):
    # dropping the Kerr phase from the propagator both engines run must fail
    # check 4, so the check compares the oracle with that code, not a copy
    production = dynamics._factored_propagate

    def without_kerr(state, params):
        out = production(state, params)
        n = np.arange(out.layout.cutoff("a") + 1)
        undo = np.exp(-1j * params.kerr_phase * n ** 2)[:, None]
        return StateVector(out.layout, (out.grid * undo).reshape(-1), out.leakage)
    monkeypatch.setattr(dynamics, "_factored_propagate", without_kerr)
    res = verify.check_propagator_equivalence()
    assert res.error is None
    assert not res.passed
    overall = next(c for c in res.clauses if c.name == "overall max deviation")
    assert overall.measured > 0.1
