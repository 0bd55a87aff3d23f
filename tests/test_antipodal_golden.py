"""Golden antipodal graphs of the family graphs.

For each family graph of the geometry benchmark, and for the Petersen
graph, this stores a sha256 of ``[a.neighbors(v) for v in range(n)]``
where ``a = antipodal(g)``: the sorted neighbour list of every vertex,
which pins the antipodal edge set.

The expected data lives in ``data/antipodal_golden.json``.  After an
intended change of the antipodal graphs, regenerate it with

    PYTHONPATH=src python tests/test_antipodal_golden.py

and review the diff of the data file entry by entry.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import radiolab as rl

GOLDEN = Path(__file__).parent / "data" / "antipodal_golden.json"

BUILDERS = {  # family -> (constructor, orders)
    "pg": (rl.projective_plane_incidence, [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 23]),
    "gq": (rl.generalized_quadrangle_incidence, [2, 3, 4, 5, 8]),
    "erq": (rl.erdos_renyi_polarity, [5, 7, 9, 11, 13]),
    "singer": (rl.singer_graph, [5, 7, 9, 11, 13]),
    "mms": (rl.mms_graph, [5, 9, 13]),
    "cycle": (rl.cycle, [601]),
    "path": (rl.path, [600]),
}

KEYS = [f"{name}-{q}" for name, (_, orders) in BUILDERS.items() for q in orders]
KEYS.append("petersen")


def record(key: str) -> str:
    """The stored value for one key, computed from the library."""
    if key == "petersen":
        g = rl.petersen()
    else:
        name, q = key.rsplit("-", 1)
        g = BUILDERS[name][0](int(q))
    a = rl.antipodal(g)
    order = [a.neighbors(v) for v in range(a.n)]
    return hashlib.sha256(json.dumps(order).encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_keys(golden):
    assert list(golden) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_antipodal_neighbour_order(golden, key):
    assert record(key) == golden[key]


if __name__ == "__main__":
    records = {key: record(key) for key in KEYS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
