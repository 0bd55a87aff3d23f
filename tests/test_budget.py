import pytest

from radiolab.budget import (
    DEFAULT_NODE_BUDGET,
    TIMEOUT,
    SearchBudget,
    as_budget,
    default_node_budget,
)


def test_budget_counts_down():
    b = SearchBudget(3)
    assert b.charge() and b.charge() and b.charge()
    assert not b.charge()
    assert b.remaining == -1
    assert b.spent == 4


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        SearchBudget(0)


def test_as_budget_coercions():
    assert as_budget(5).remaining == 5
    b = SearchBudget(7)
    assert as_budget(b) is b
    assert as_budget(None).remaining == default_node_budget()


def test_timeout_is_falsy_singleton():
    assert not TIMEOUT
    assert repr(TIMEOUT) == "TIMEOUT"
    assert type(TIMEOUT)() is TIMEOUT


def test_env_var_controls_default(monkeypatch):
    monkeypatch.setenv("RADIOLAB_NODE_BUDGET", "1234")
    assert default_node_budget() == 1234
    monkeypatch.setenv("RADIOLAB_NODE_BUDGET", "garbage")
    assert default_node_budget() == DEFAULT_NODE_BUDGET
    monkeypatch.setenv("RADIOLAB_NODE_BUDGET", "-5")
    assert default_node_budget() == DEFAULT_NODE_BUDGET
    monkeypatch.delenv("RADIOLAB_NODE_BUDGET")
    assert default_node_budget() == DEFAULT_NODE_BUDGET
