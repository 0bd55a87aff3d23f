"""Golden verdicts of ``analyze``.

``analyze`` is deterministic: for a given graph it fires one rule and
returns one certificate.  This file pins the verdict's status, its rule,
the nodes its path search spent, and a sha256 of its certificate's JSON
(the labels of a graceful verdict, the antipodal components or the node
count of an obstruction) for

- each family graph of the geometry benchmark;
- the Petersen and Hoffman–Singleton graphs and the complement of C9;
- three seeded diameter-2 graphs whose antipodal graph is three chorded
  cycles at a cut vertex (the shape of the search benchmark's
  ``diameter2-*`` cases, answered at the root);
- three seeded random graphs whose antipodal graph the window search
  proves non-traceable.

The expected data lives in ``data/analyze_golden.json``.  After an
intended change of verdicts or certificates, regenerate it with

    PYTHONPATH=src python tests/test_analyze_golden.py

and review the diff of the data file entry by entry.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import radiolab as rl
from conftest import random_connected_graph

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.json"

BUILDERS = {  # family -> (constructor, orders)
    "pg": (rl.projective_plane_incidence, [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 23]),
    "gq": (rl.generalized_quadrangle_incidence, [2, 3, 4, 5]),
    "erq": (rl.erdos_renyi_polarity, [5, 7, 9, 11, 13]),
    "singer": (rl.singer_graph, [5, 7, 9, 11, 13]),
    "mms": (rl.mms_graph, [5, 9, 13]),
    "cycle": (rl.cycle, [601]),
    "path": (rl.path, [600]),
}
DIAMETER2_SEEDS = (0, 1, 2)
RANDOM_SEEDS = (46, 93, 124)  # their analyses search 17, 56 and 134 nodes


def chorded_cycles_complement(seed: int) -> rl.Graph:
    """The complement of three cycles through vertex 0, each with one
    random chord, relabelled at random; redrawn until it has diameter 2.
    Vertex 0 splits the complement three ways, so it has no Hamiltonian
    path, yet it has no vertex of degree one."""
    rng = random.Random(f"diameter2:{seed}")
    lengths = (6 + 2 * seed, 6 + 2 * seed, 7 + 2 * seed)
    while True:
        edges, n = [], 1
        for length in lengths:
            ring = [0] + list(range(n, n + length - 1))
            n += length - 1
            edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
            i = rng.randrange(length)
            edges.append((ring[i], ring[(i + rng.randrange(2, length - 1)) % length]))
        g = rl.complement(rl.Graph(n, edges))
        dist = rl.all_pairs_distances(g)
        if dist.min() >= 0 and dist.max() == 2:
            break
    perm = list(range(n))
    rng.shuffle(perm)
    return rl.Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])


def seeded_random_graph(seed: int) -> rl.Graph:
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    return random_connected_graph(n, rng.uniform(0.4, 0.8), rng)


OTHERS = {
    "petersen": rl.petersen,
    "hoffman-singleton": rl.hoffman_singleton,
    "complement-cycle-9": lambda: rl.complement(rl.cycle(9)),
    **{f"diameter2-{s}": lambda s=s: chorded_cycles_complement(s) for s in DIAMETER2_SEEDS},
    **{f"random-{s}": lambda s=s: seeded_random_graph(s) for s in RANDOM_SEEDS},
}

KEYS = [f"{name}-{q}" for name, (_, orders) in BUILDERS.items() for q in orders]
KEYS += list(OTHERS)


def build(key: str) -> rl.Graph:
    if key in OTHERS:
        return OTHERS[key]()
    name, q = key.rsplit("-", 1)
    return BUILDERS[name][0](int(q))


def record(key: str) -> dict:
    """The stored value for one key, computed from the library."""
    return record_of(build(key))


def record_of(g: rl.Graph) -> dict:
    verdict = rl.analyze(g).to_json_dict()
    cert = verdict["certificate"]
    text = json.dumps(cert, sort_keys=True, separators=(",", ":"))
    return {
        "status": verdict["status"],
        "rule": verdict["rule"],
        "nodes_searched": (cert or {}).get("nodes_searched"),
        "certificate_sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_keys(golden):
    assert list(golden) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_analyze_verdict(golden, key):
    assert record(key) == golden[key]


@pytest.mark.parametrize("key", ["diameter2-0", "random-46"])
def test_nodes_searched_counts_only_the_path_search(golden, key):
    # a shared budget charged before analyze: the three-way cut (0 nodes)
    # and the window search (17 nodes) report their own nodes only
    budget = rl.SearchBudget()
    budget.charge(1234)
    nodes = golden[key]["nodes_searched"]
    assert rl.analyze(build(key), budget).certificate.nodes_searched == nodes
    assert budget.spent == 1234 + nodes


@pytest.mark.parametrize("key", ["petersen", "pg-3", "erq-5", "mms-5",
                                 "complement-cycle-9", "diameter2-0", "random-124"])
def test_analyze_reads_one_antipodal_graph(golden, key, monkeypatch):
    # analyze builds antipodal(g) once and hands that Graph to the public
    # component and path functions
    g = build(key)
    calls = []
    for name in ("antipodal", "components", "dirac_hamiltonian_path",
                 "find_hamiltonian_path"):
        def spy(h, *args, _fn=getattr(rl.radio, name), _name=name):
            calls.append((_name, h))
            return _fn(h, *args)

        monkeypatch.setattr(rl.radio, name, spy)
    assert record_of(g) == golden[key]
    (first, source), (second, a), (path_search, b) = calls
    assert (first, second) == ("antipodal", "components") and source is g
    assert path_search in ("dirac_hamiltonian_path", "find_hamiltonian_path")
    assert a == rl.antipodal(g) and b is a


if __name__ == "__main__":
    records = {key: record(key) for key in KEYS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
