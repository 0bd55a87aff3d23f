"""``scripts/bench_pairs.py``: per-case ratios from the results files that
each side's bench writes."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def write_results(checkout: Path, cases: dict[str, float]) -> None:
    results = checkout / "bench" / "results"
    results.mkdir(parents=True)
    payload = {"metadata": {}, "cases": [
        {"name": name, "seconds": 0.9 * s, "seconds_median": s, "repeats": 3}
        for name, s in cases.items()]}
    (results / "geometry-seed7-trace0.json").write_text(json.dumps(payload))


def test_case_ratios_from_two_results_files(tmp_path):
    write_results(tmp_path / "parent", {"pg-2/build": 0.004, "singer-7/label": 0.010,
                                        "gone/build": 0.5})
    write_results(tmp_path / "change", {"pg-2/build": 0.001, "singer-7/label": 0.015})
    pair = {side: bench_pairs.case_seconds(tmp_path / side, "geometry", 7)
            for side in bench_pairs.SIDES}
    assert pair["parent"]["singer-7/label"] == 0.010
    # a case timed on one side only has no ratio
    assert bench_pairs.case_ratios([pair]) == {"pg-2/build": 0.25, "singer-7/label": 1.5}


def test_case_ratios_take_the_median_over_pairs():
    pairs = [{"parent": {"a": 1.0}, "change": {"a": c}} for c in (0.5, 2.0, 0.7)]
    assert bench_pairs.case_ratios(pairs) == {"a": pytest.approx(0.7)}
