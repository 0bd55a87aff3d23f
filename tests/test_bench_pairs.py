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


FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path(__file__).resolve().parents[1]
speed = float((root / "speed").read_text())
with open(root.parent / "runs.log", "a") as log:
    log.write(root.name + "\\n")
results = root / "bench" / "results"
results.mkdir(exist_ok=True)
meta = {k: None for k in %r}
cases = [{"name": "a", "seconds_median": 1 / speed}, {"name": "b", "seconds_median": 2 / speed}]
(results / f"{args['--workload']}-seed{args['--seed']}-trace0.json").write_text(
    json.dumps({"metadata": meta, "cases": cases}))
print(json.dumps({"metrics": {"cases_per_s": {"value": 100 * speed},
                              "peak_rss_mb": {"value": 40.0}}}))
''' % (bench_pairs.MACHINE_KEYS,)


def fake_checkout(path: Path, speed: float) -> Path:
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(FAKE_RUN)
    (path / "speed").write_text(str(speed))
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "cases_per_s", "better": "higher"},
        {"name": "peak_rss_mb", "better": "lower"}]}))
    return path


def test_control_runs_as_a_third_side_in_the_alternation(tmp_path, monkeypatch):
    parent = fake_checkout(tmp_path / "parent", 1.0)
    change = fake_checkout(tmp_path / "change", 2.0)
    control = fake_checkout(tmp_path / "control", 1.25)
    out = tmp_path / "pairs.json"
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", str(parent), "--change", str(change),
        "--control", str(control), "--workload", "search:1-3", "--seconds", "0.1",
        "--claim", "search:cases_per_s", "--out", str(out)])
    assert bench_pairs.main() == 0
    # forward, backward, forward: each side first or last in turn
    runs = (tmp_path / "runs.log").read_text().split()
    assert runs == ["parent", "change", "control", "control", "change", "parent",
                    "parent", "change", "control"]
    report = json.loads(out.read_text())
    search = report["workloads"]["search"]
    assert [p["first"] for p in search["pairs"]] == ["parent", "control", "parent"]
    assert search["summary"]["cases_per_s"]["change"]["median"] == 200.0
    assert search["summary"]["cases_per_s"]["change_wins"] == 3
    assert search["case_ratios"] == {"a": 0.5, "b": 0.5}
    aa = search["aa_summary"]["cases_per_s"]
    assert (aa["parent"]["median"], aa["control"]["median"]) == (100.0, 125.0)
    assert aa["control_wins"] == 3 and "change" not in aa
    assert search["aa_summary"]["peak_rss_mb"]["ties"] == 3
    assert search["aa_case_ratios"] == {"a": 0.8, "b": 0.8}
    assert report["claim"]["met"] and report["claim"]["above_aa_gap"]


def test_without_a_control_there_is_no_aa_summary(tmp_path, monkeypatch):
    parent = fake_checkout(tmp_path / "parent", 1.0)
    change = fake_checkout(tmp_path / "change", 1.0)
    out = tmp_path / "pairs.json"
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", str(parent), "--change", str(change),
        "--workload", "geometry:5", "--seconds", "0.1", "--out", str(out)])
    assert bench_pairs.main() == 0
    assert (tmp_path / "runs.log").read_text().split() == ["parent", "change"]
    geometry = json.loads(out.read_text())["workloads"]["geometry"]
    assert set(geometry) == {"summary", "case_ratios", "pairs"}
    assert geometry["summary"]["cases_per_s"]["ties"] == 1


def test_a_claim_inside_the_aa_gap_is_flagged(tmp_path, monkeypatch):
    # the change wins every pair, yet two copies of the parent differ more
    parent = fake_checkout(tmp_path / "parent", 1.0)
    change = fake_checkout(tmp_path / "change", 1.1)
    control = fake_checkout(tmp_path / "control", 0.8)
    out = tmp_path / "pairs.json"
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", str(parent), "--change", str(change),
        "--control", str(control), "--workload", "search:1-2", "--seconds", "0.1",
        "--claim", "search:cases_per_s", "--out", str(out)])
    assert bench_pairs.main() == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["met"] and not claim["above_aa_gap"]
