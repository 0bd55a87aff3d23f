"""Golden labelings of the cage window search.

``label_quadrangle_cage`` and ``label_hexagon_cage`` return the first
ordering their window search finds, and its candidate order (fewest
onward candidates first, ties by index) decides which.  Node counts alone
do not pin that order, so this file stores a sha256 of each labeling's
labels, for W(q) at q = 2, 3, 4, 5, 7, 8 and the builtin cage-4-8 (the
quadrangle search) and cage-3-12 (the hexagon search).  W(7) and W(8)
have 400 and 585 vertices per side, enough for the search to score the
first positions' candidates in one numpy batch.

The expected data lives in ``data/cage_golden.json``.  After an intended
change of the search order, regenerate it with

    PYTHONPATH=src python tests/test_cage_golden.py

and review the diff of the data file entry by entry.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import radiolab as rl

GOLDEN = Path(__file__).parent / "data" / "cage_golden.json"

KEYS = [f"w-{q}" for q in (2, 3, 4, 5, 7, 8)] + ["cage-4-8", "cage-3-12"]


def record(key: str) -> str:
    """The stored value for one key, computed from the library."""
    if key.startswith("w-"):
        g = rl.generalized_quadrangle_incidence(int(key[2:]))
    else:
        g = rl.builtin_graph(key)
    label = rl.label_hexagon_cage if key == "cage-3-12" else rl.label_quadrangle_cage
    labels = list(label(g).labels)
    return hashlib.sha256(json.dumps(labels).encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_keys(golden):
    assert list(golden) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_cage_labeling_golden(golden, key):
    assert record(key) == golden[key]


@pytest.mark.parametrize("key", ["w-2", "w-3", "w-4", "w-5", "cage-3-12"])
def test_batched_scoring_keeps_the_labeling(golden, key, monkeypatch):
    # below W(7) no position has enough candidates for the numpy batch, so
    # force it at every position
    monkeypatch.setattr(rl.hamsearch, "_BATCH_CANDIDATES", 0)
    assert record(key) == golden[key]


if __name__ == "__main__":
    records = {key: record(key) for key in KEYS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
