"""Golden vertex numbering of the finite-field families.

Labelings and stored benchmark sequences refer to vertices by index, so a
change to the field arithmetic or to a constructor must not renumber any
graph.  For each constructor and order this stores a sha256 of the
graph's edge list (the paper's three cages, built by name, included),
for each small field its reducing polynomial,
primitive element and canonical Singer difference set, and for each
small order a sha256 of the labels of the Singer recurrence labelings
of the Singer graph and of its complement.

The expected data lives in ``data/families_golden.json``.  After an
intended change of numbering, regenerate it with

    PYTHONPATH=src python tests/test_families_golden.py

and review the diff of the data file entry by entry.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import radiolab as rl

GOLDEN = Path(__file__).parent / "data" / "families_golden.json"

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

BUILDERS = {  # family -> (constructor, orders)
    "pg": (rl.projective_plane_incidence, PRIME_POWERS_16 + [17]),
    "gq": (rl.generalized_quadrangle_incidence, [2, 3, 4, 5]),
    "erq": (rl.erdos_renyi_polarity, PRIME_POWERS_16[:-1]),
    "singer": (rl.singer_graph, PRIME_POWERS_16[:-1]),
    "mms": (rl.mms_graph, [5, 9, 13]),
}

LABELERS = {
    "singer-label": rl.singer_label_erq,
    "singer-complement-label": rl.singer_label_erq_complement,
}

GRAPH_KEYS = [f"{name}-{q}" for name, (_, orders) in BUILDERS.items() for q in orders]
FIELD_KEYS = [f"field-{q}" for q in PRIME_POWERS_16]
LABEL_KEYS = [f"{name}-{q}" for name in LABELERS for q in PRIME_POWERS_16]
KEYS = GRAPH_KEYS + FIELD_KEYS + LABEL_KEYS + list(rl.BUILTIN_GRAPHS)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def record(key: str):
    """The stored value for one key, computed from the library."""
    if key in rl.BUILTIN_GRAPHS:
        return _sha256(rl.write_edge_list(rl.builtin_graph(key)))
    name, q = key.rsplit("-", 1)
    q = int(q)
    if name == "field":
        f = rl.make_field(q)
        return {
            "modulus": list(f.modulus),
            "primitive": rl.primitive_element(f),
            "singer": list(rl.singer_difference_set(q).elements),
        }
    if name in LABELERS:
        labels = LABELERS[name](q).labels
        return _sha256(json.dumps(list(labels)))
    g = BUILDERS[name][0](q)
    return _sha256(rl.write_edge_list(g))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_keys(golden):
    assert list(golden) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_family_golden(golden, key):
    assert record(key) == golden[key]


if __name__ == "__main__":
    records = {key: record(key) for key in KEYS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
