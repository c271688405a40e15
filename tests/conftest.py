import pytest

from kleintwist import hopf


@pytest.fixture
def fresh():
    """No identity decided and no generation certified before the test, so
    that spies on the contractions see each one run."""
    hopf._DECIDED.clear()


@pytest.fixture
def undecided(monkeypatch):
    """No verdict and no certificate taken from the table: every identity
    is computed, so a test that patches how identities are computed (slab
    heights, planning, spies on the steps) sees each one computed that
    way, whatever earlier builds of the same algebras decided.  Each
    contraction is planned afresh too, not taken from the table of plans."""
    monkeypatch.setattr(hopf, "_decided", lambda tag, arrays, decide: decide())
    for planner in ("_pairs", "_layout", "_slab_steps", "_matmul_plan"):
        monkeypatch.setattr(hopf, planner, getattr(hopf, planner).__wrapped__)
