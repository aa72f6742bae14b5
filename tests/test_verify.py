"""Verification checks that report their own failures as clauses."""

from optoweak import verify


def test_table1_delta_mismatch_is_a_failing_clause(monkeypatch):
    # `python -O` strips assert statements; the row check must be a clause
    monkeypatch.setattr(verify, "TABLE1_DELTAS", verify.TABLE1_DELTAS[:-1] + (0.5,))
    res = verify.check_table1()
    assert res.error is None
    failed = [c for c in res.clauses if not c.ok]
    assert [c.name for c in failed] == ["delta column differs from TABLE1_DELTAS"]
    assert failed[0].measured == 1.0
