"""Golden witnesses of the exact oracle.

``radio_number_exact`` is deterministic: for a given graph it returns one
radio number and one optimal labeling, the first optimum its search
meets.  Pruning that removes only subtrees unable to beat the incumbent
leaves that labeling unchanged, so this file pins (rn, labels) for a fixed
corpus:

- the sparse fixed graphs of the benchmark's oracle workload (paths,
  cycles, tadpoles, spiders, K_{1,8}, K_{2,8}, Petersen, ER(2), Singer(2));
- C12, P11, P12 and tadpole(6,6), the slowest graphs at the vertex limit;
- a seeded random corpus of connected graphs on 2..10 vertices.

The fixed graphs are also run with the oracle's memo of search states
switched off (no entries), and with its symmetry pruning switched off (no
automorphisms): the memo may only save nodes, never change a witness, and
symmetry pruning may only save nodes of the branch and bound, never change
a witness.  Its automorphism search is charged to the budget too, so a
graph with few automorphisms, such as a path, may spend a few more nodes
in all; the cycles below must spend at most a fifth.

The expected data lives in ``data/oracle_golden.json``.  After an intended
change of witnesses, regenerate it with

    PYTHONPATH=src python tests/test_oracle_golden.py

and review the diff of the data file entry by entry.
"""

import json
import random
import sys
from pathlib import Path

import pytest

import radiolab as rl
from conftest import random_connected_graph, spider

GOLDEN = Path(__file__).parent / "data" / "oracle_golden.json"

SPIDER_LEGS = ("332", "422", "431", "2222", "3221", "311111", "2111111", "41111")
RANDOM_PER_ORDER = 6


FIXED = {
    "path-9": lambda: rl.path(9),
    "path-10": lambda: rl.path(10),
    "path-11": lambda: rl.path(11),
    "path-12": lambda: rl.path(12),
    "cycle-10": lambda: rl.cycle(10),
    "cycle-11": lambda: rl.cycle(11),
    "cycle-12": lambda: rl.cycle(12),
    "tadpole-7-3": lambda: rl.tadpole(7, 3),
    "tadpole-5-5": lambda: rl.tadpole(5, 5),
    "tadpole-4-6": lambda: rl.tadpole(4, 6),
    "tadpole-3-7": lambda: rl.tadpole(3, 7),
    "tadpole-6-6": lambda: rl.tadpole(6, 6),
    "star-8": lambda: rl.complete_bipartite(1, 8),
    "k-2-8": lambda: rl.complete_bipartite(2, 8),
    "petersen": rl.petersen,
    "erq-2": lambda: rl.erdos_renyi_polarity(2),
    "singer-2": lambda: rl.singer_graph(2),
    **{f"spider-{legs}": (lambda legs=legs: spider(legs)) for legs in SPIDER_LEGS},
}
RANDOM_KEYS = [
    f"random-{n}-{i}" for n in range(2, 11) for i in range(RANDOM_PER_ORDER)
]
KEYS = list(FIXED) + RANDOM_KEYS


def graph(key: str) -> rl.Graph:
    if key in FIXED:
        return FIXED[key]()
    n = int(key.split("-")[1])
    rng = random.Random(key)
    return random_connected_graph(n, rng.uniform(0.15, 0.9), rng)


def record(key: str) -> dict:
    """The stored value for one key, computed from the library."""
    rn, witness = rl.radio_number_exact(graph(key))
    return {"rn": rn, "labels": list(witness.labels)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_keys(golden):
    assert list(golden) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_oracle_golden(golden, key):
    assert record(key) == golden[key]


@pytest.mark.parametrize("key", list(FIXED))
def test_oracle_golden_without_memo(golden, key, monkeypatch):
    monkeypatch.setattr(rl.radio, "_MEMO_ENTRIES", 0)
    assert record(key) == golden[key]


@pytest.mark.parametrize("key", list(FIXED))
def test_oracle_golden_without_symmetry(golden, key, monkeypatch):
    monkeypatch.setattr(rl.radio, "_automorphisms", lambda need, budget: [])
    assert record(key) == golden[key]


@pytest.mark.parametrize("key", list(FIXED))
def test_oracle_golden_with_one_automorphism(golden, key, monkeypatch):
    # any subset of the automorphisms keeps the witness
    monkeypatch.setattr(rl.radio, "_AUTOMORPHISMS", 2)
    assert record(key) == golden[key]


# nodes the oracle spends on C_n, at vertex_limit=n, with symmetry pruning
CYCLE_NODES = {11: 2_744, 12: 3_270, 13: 5_131}


@pytest.mark.parametrize("n", list(CYCLE_NODES))
def test_symmetry_saves_nodes_on_cycles(n, monkeypatch):
    spent = []
    for automorphisms in (rl.radio._automorphisms, lambda need, budget: []):
        monkeypatch.setattr(rl.radio, "_automorphisms", automorphisms)
        budget = rl.SearchBudget()
        rl.radio_number_exact(rl.cycle(n), vertex_limit=n, deadline=budget)
        spent.append(budget.spent)
    assert spent[0] == CYCLE_NODES[n]
    assert 5 * spent[0] <= spent[1]


def test_memo_saves_nodes_on_cycle_11(monkeypatch):
    spent = []
    for entries in (rl.radio._MEMO_ENTRIES, 0):
        monkeypatch.setattr(rl.radio, "_MEMO_ENTRIES", entries)
        budget = rl.SearchBudget()
        rl.radio_number_exact(rl.cycle(11), deadline=budget)
        spent.append(budget.spent)
    assert spent[0] < spent[1]


if __name__ == "__main__":
    lines = [f" {json.dumps(key)}: {json.dumps(record(key))}" for key in KEYS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(lines)} records to {GOLDEN}", file=sys.stderr)
