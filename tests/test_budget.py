import re
from pathlib import Path

import pytest

import radiolab as rl
from radiolab.budget import (
    DEFAULT_NODE_BUDGET,
    TIMEOUT,
    SearchBudget,
    as_budget,
    default_node_budget,
)
from radiolab.hamsearch import _window_ordering


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
    for bad in ("garbage", "-5", "0"):
        monkeypatch.setenv("RADIOLAB_NODE_BUDGET", bad)
        with pytest.raises(ValueError, match="RADIOLAB_NODE_BUDGET"):
            default_node_budget()
    monkeypatch.delenv("RADIOLAB_NODE_BUDGET")
    assert default_node_budget() == DEFAULT_NODE_BUDGET


def _window_path(g, budget):
    """The window search for a Hamiltonian path of g, called directly."""
    n = g.n
    constraints = [[]] + [[(k - 1, 0)] for k in range(1, n)]
    return _window_ordering([g._rows], constraints, [(1 << n) - 1] * n, budget)


def _shifted_cycle(n, shift):
    return rl.Graph(n, [((u + shift) % n, (v + shift) % n) for u, v in rl.cycle(n).edges()])


# each input makes its search spend nodes before it could answer
SEARCHES = {
    "window-ordering": lambda b: _window_path(rl.complete_bipartite(4, 6), b),
    "hamiltonian-path": lambda b: rl.find_hamiltonian_path(rl.complete_bipartite(4, 6), b),
    "cycle-power": lambda b: rl.find_cycle_power(rl.petersen(), 1, b),
    "quadrangle-cage": lambda b: rl.label_quadrangle_cage(rl.builtin_graph("cage-4-8"), b),
    "hexagon-cage": lambda b: rl.label_hexagon_cage(rl.builtin_graph("cage-3-12"), b),
    "isomorphism": lambda b: rl.are_isomorphic(rl.cycle(40), _shifted_cycle(40, 7), b),
    "oracle": lambda b: rl.radio_number_exact(rl.cycle(12), deadline=b),
    "settle-oracle": lambda b: rl.settle(rl.cycle(12), b)[1],
    "settle-two-components": lambda b: rl.settle(rl.builtin_graph("cage-3-8"), b)[1],
}


@pytest.mark.parametrize("search", SEARCHES.values(), ids=SEARCHES.keys())
def test_every_search_returns_timeout_when_the_budget_runs_out(search):
    budget = SearchBudget(1)
    assert search(budget) is TIMEOUT
    assert budget.spent >= 1


def test_only_the_oracle_raises_budget_exhausted():
    # a spent budget leaves every search, the oracle included, as TIMEOUT:
    # no module raises an exception for it
    src = Path(rl.__file__).parent
    naming = {p.name for p in src.glob("*.py") if re.search(r"\bBudgetExhausted\b", p.read_text())}
    assert naming == set()
