"""``scripts/scale_check.py``: the distance cases, ``k500-700`` and the
small oracle cases ``table16``, ``c13`` and ``tadpole66``, run
in-process, report the values the script pins."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "scale_check.py"
SPEC = importlib.util.spec_from_file_location("scale_check", PATH)
scale_check = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(scale_check)


@pytest.mark.parametrize("case", ["p600", "c1201", "lollipop", "grid40", "pg23", "k500-700",
                                  "table16", "c13", "tadpole66"])
def test_case_reports_its_pinned_values(case):
    result = scale_check.run_case(case)
    assert scale_check.PINNED[case]
    assert scale_check.mismatches(case, result) == []


def test_a_changed_value_is_a_mismatch():
    result = {"nodes": 1201, "labels_sha256": scale_check.PINNED["w13"]["labels_sha256"]}
    assert scale_check.mismatches("w13", result) == ["nodes"]
    # an unpinned case has nothing to mismatch
    assert "c15" not in scale_check.PINNED
    assert scale_check.mismatches("c15", {}) == []
