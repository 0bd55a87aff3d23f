#!/usr/bin/env python3
"""Run the benchmark in alternated parent/change pairs and summarise them.

Each pair runs the unchanged ``bench/run.py`` of two checkouts, the parent
and the change, on the same workload and seed, one process at a time; the
side that runs first alternates from pair to pair.  The result is written
in the layout of ``BENCH_6.json``: for every end-to-end metric of
``BENCHMARK.json``, each side's quartiles (q1, median, q3, inclusive
method) over the pairs, the number of pairs the change won and tied, and
every pair's raw numbers.  Per workload, ``case_ratios`` gives for every
case the median over pairs of change/parent ``seconds_median``, read from
the results file each side's bench writes.  The file is rewritten after
every pair, so an interrupted run keeps what it measured.

``--control DIR`` names a second extract of the parent, run as a third
side in the same alternation (parent, change, control forward in one pair
and backward in the next).  Each workload then also gets ``aa_summary``
and ``aa_case_ratios``: the same figures for control against parent, two
copies of one commit, so they show how far the bench moves with no change
at all.  A claim then also reports ``above_aa_gap``: whether the change's
median gap exceeds the control's, in either direction.

Make the parent checkout with, for example,

    git archive <parent-commit> | (mkdir -p ../parent && tar -x -C ../parent)

then, from the root of the change checkout,

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload geometry:101-110,20251001 --workload search:20251001 \\
        --claim geometry:cases_per_s --out BENCH_7.json

and, for the control, a second ``git archive`` of the parent into
``../control``, passed as ``--control ../control``.

``--workload NAME:SEEDS`` may repeat; SEEDS is a comma list of seeds and
inclusive ranges ``a-b``, one pair per seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 20251001
SIDES = ("parent", "change")
RULE = ("change better in at least 9 of 10 pairs, and median gap above the "
        "parent's interquartile range")
MACHINE_KEYS = ("default_seed", "machine", "platform", "processor", "nproc",
                "python", "numpy", "scipy", "radiolab")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the checkout's own bench; its last stdout line, with
    each metric reduced to its value."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def results(checkout: Path, workload: str, seed: int) -> dict:
    """The results file of the checkout's last untraced run."""
    return json.loads((checkout / "bench" / "results" /
                       f"{workload}-seed{seed}-trace0.json").read_text())


def machine(checkout: Path, workload: str, seed: int) -> dict:
    meta = results(checkout, workload, seed)["metadata"]
    return {**{k: meta[k] for k in MACHINE_KEYS}, "git_commit": None}


def case_seconds(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """Each case's ``seconds_median`` in the checkout's last run."""
    return {c["name"]: c["seconds_median"]
            for c in results(checkout, workload, seed)["cases"]}


def case_ratios(seconds: list[dict[str, dict[str, float]]],
                side: str = "change") -> dict[str, float]:
    """Per case timed on the parent and ``side`` in every pair, the median
    over pairs of side/parent seconds; ``seconds`` holds one {side: {case:
    seconds}} entry per pair."""
    names = [name for name in seconds[0]["parent"]
             if all(name in pair[s] for pair in seconds for s in ("parent", side))]
    return {name: round(statistics.median(
                pair[side][name] / pair["parent"][name] for pair in seconds), 4)
            for name in names}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list[dict], metrics: dict[str, str], side: str = "change") -> dict:
    """Per metric, the quartiles of the parent and ``side`` over the pairs,
    and the pairs ``side`` won and tied."""
    out = {}
    for name, better in metrics.items():
        sign = 1 if better == "higher" else -1
        gaps = [sign * (p[side]["metrics"][name] - p["parent"]["metrics"][name])
                for p in pairs]
        out[name] = {
            "better": better,
            **{s: quartiles([p[s]["metrics"][name] for p in pairs])
               for s in ("parent", side)},
            f"{side}_wins": sum(gap > 0 for gap in gaps),
            "ties": sum(gap == 0 for gap in gaps),
            "pairs": len(pairs),
        }
    return out


def median_gap(summary: dict, side: str = "change") -> float:
    """How far ``side``'s median is better than the parent's (negative
    when worse)."""
    sign = 1 if summary["better"] == "higher" else -1
    return sign * (summary[side]["median"] - summary["parent"]["median"])


def claim_met(summary: dict) -> bool:
    iqr = summary["parent"]["q3"] - summary["parent"]["q1"]
    return summary["change_wins"] >= 0.9 * summary["pairs"] and median_gap(summary) > iqr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--control", type=Path, metavar="DIR",
                        help="a second extract of the parent, run as a third side")
    parser.add_argument("--workload", action="append", required=True,
                        metavar="NAME:SEEDS")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--about", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = SIDES + (("control",) if args.control else ())
    checkout = {"parent": args.parent, "change": args.change, "control": args.control}
    report = {
        "about": args.about,
        "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g}",
        "machine": None,
        "claim": None,
        "workloads": {},
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        report["claim"] = {"workload": workload, "metric": metric, "rule": RULE,
                           "unseen_seed": DEFAULT_SEED}
    index = 0
    for item in args.workload:
        workload, seeds = item.split(":")
        pairs, seconds = [], []
        for seed in parse_seeds(seeds):
            order = sides if index % 2 == 0 else sides[::-1]
            index += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(checkout[side], workload, seed, args.seconds)
            pairs.append(pair)
            seconds.append({side: case_seconds(checkout[side], workload, seed)
                            for side in sides})
            report["machine"] = report["machine"] or machine(args.change, workload, seed)
            summary = summarise(pairs, metrics)
            entry = {"summary": summary, "case_ratios": case_ratios(seconds)}
            if args.control:
                entry["aa_summary"] = summarise(pairs, metrics, "control")
                entry["aa_case_ratios"] = case_ratios(seconds, "control")
            report["workloads"][workload] = {**entry, "pairs": pairs}
            claim = report["claim"]
            if claim and claim["workload"] == workload:
                claim["met"] = claim_met(summary[claim["metric"]])
                if args.control:
                    # two copies of the parent moved this far apart
                    aa_gap = median_gap(entry["aa_summary"][claim["metric"]], "control")
                    claim["above_aa_gap"] = median_gap(summary[claim["metric"]]) > abs(aa_gap)
            args.out.write_text(json.dumps(report, indent=1) + "\n")
            print(f"{workload} seed {seed} first {order[0]} ({' / '.join(sides)}): " + ", ".join(
                f"{k} " + " / ".join(f"{pair[side]['metrics'][k]:.4g}" for side in sides)
                for k in metrics), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
