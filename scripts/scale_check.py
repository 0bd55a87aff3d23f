#!/usr/bin/env python3
"""Time the large geometry cases and the slowest exact-oracle cases.

- ``w13``: ``generalized_quadrangle_incidence(13)`` (W(13), 4,760
  vertices), then ``label_quadrangle_cage`` on it;
- ``pg49``: ``analyze(projective_plane_incidence(49))`` (4,902 vertices),
  timed after the build;
- ``k500-700``: ``settle(complete_bipartite(500, 700))``, which closes
  rn = 1201 by the span-(n+1) search over the two antipodal components;
- ``c13`` and ``c15``: ``radio_number_exact(cycle(n), vertex_limit=n)``
  for n = 13 and 15, one and three past the oracle's default vertex
  limit; C15's memo fills (2^16 states), and rn must be 36, Liu and
  Zhu's closed form;
- ``tadpole66``: ``radio_number_exact(tadpole(6, 6))``;
- ``p200`` and ``k25``: ``radio_number_exact`` of ``path(200)`` and
  ``complete(25)`` with the vertex limit at n, above the path table's
  limit of 20: P200's greedy runs find no graceful labeling, so it ends
  in TooLarge (reported as its rn), while K25's first run is graceful
  (rn 25);
- ``p600``, ``c1201`` and ``lollipop``: ``all_pairs_distances`` of
  ``path(600)``, ``cycle(1201)`` and K_300 with a 600-vertex path hung
  from one of its vertices, high-diameter graphs whose breadth-first
  levels are mostly small (the lollipop's first ones are not), so that
  the search jumps 8 levels at a time past level 8;
- ``grid40``: ``all_pairs_distances`` of the 40 x 40 grid (1,600
  vertices, diameter 78), a high-diameter graph whose search keeps single
  levels: its level 8 takes the bitset step, and its balls of radius 8
  hold about 25 times the closed neighbourhoods;
- ``pg23``: ``all_pairs_distances`` of ``projective_plane_incidence(23)``
  (1,106 vertices, diameter 3), a dense graph whose levels 2 and 3 both
  take the bitset step;
- ``singer32``: ``singer_label_erq(32)`` and
  ``singer_label_erq_complement(32)`` (1,057 vertices), the Singer walk
  labelings of the largest polarity graph timed here, each verified.
- ``table16`` and ``table20``: the oracle's Held-Karp path table
  (``radio._path_table``) of the need matrices of ``cycle(16)`` and
  ``tadpole(10, 10)``, the latter at the table's vertex limit of 20;
  each reports ``table_s`` and a sha256 of the table read in [S, v]
  order, taken after ``peak_rss_mb``.

The oracle cases report rn, and ``k500-700`` the rn bounds, next to the
seconds and the search nodes, so a change of a search splits into fewer
nodes and cheaper nodes.

Each case runs in a fresh child process, so no distance matrix or table
is shared between them, and reports the child's peak resident set
(``peak_rss_mb``, from ``ru_maxrss``).  The script prints one JSON line:
per case the vertex count, the seconds of each step, the search nodes
spent and a sha256 of the labeling's labels (of the matrix's bytes for
the distance cases).  These must not change from one version of the
library to the next: ``PINNED`` holds them for the distance cases,
``k500-700``, ``w13``, ``c13``, ``tadpole66``, ``table16`` and
``table20``, and the script exits with status 1, after the
JSON line, when a case it ran reports another value.  It imports the
library from the ``src`` directory next to this script.  Run it from
anywhere, on every case or on the cases named:

    python3 scripts/scale_check.py
    python3 scripts/scale_check.py p600 c1201 lollipop grid40 pg23
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

CASES = ("w13", "pg49", "k500-700", "c13", "c15", "tadpole66", "p200", "k25", "p600",
         "c1201", "lollipop", "grid40", "pg23", "singer32", "table16", "table20")
ORACLE_CASES = {
    "c13": lambda rl: rl.cycle(13),
    "c15": lambda rl: rl.cycle(15),
    "tadpole66": lambda rl: rl.tadpole(6, 6),
    "p200": lambda rl: rl.path(200),
    "k25": lambda rl: rl.complete(25),
}
DISTANCE_CASES = {
    "p600": lambda rl: rl.path(600),
    "c1201": lambda rl: rl.cycle(1201),
    "lollipop": lambda rl: rl.Graph(900, [(u, v) for u in range(300) for v in range(u + 1, 300)]
                                    + [(v, v + 1) for v in range(299, 899)]),
    "grid40": lambda rl: rl.Graph(1600, [(v, v + 1) for v in range(1600) if v % 40 != 39]
                                  + [(v, v + 40) for v in range(1560)]),
    "pg23": lambda rl: rl.projective_plane_incidence(23),
}
TABLE_CASES = {
    "table16": lambda rl: rl.cycle(16),
    "table20": lambda rl: rl.tadpole(10, 10),
}

# the values a case must report, whatever the version of the library
PINNED = {
    "p600": {"matrix_sha256": "576078ae4704b8876ba423c4b0df8456a5723ac66fc0412843266c77abdf72e6"},
    "c1201": {"matrix_sha256": "3bdc64e344e7cb1e34042dc19781e951da9fb29d92ee48094f91e6b5d1d78929"},
    "lollipop": {
        "matrix_sha256": "44711de7deff9f00d4808a145de07128c7a05f68d0ea63429c268b3fed47f934"},
    "grid40": {"matrix_sha256": "b6daf32bef7e50360a2fd715fe49fe0573a841413b7cd0b5516d4c7eeaf8fa4b"},
    "pg23": {"matrix_sha256": "a175ddc2fd20642ba50ec30ff898e0cbf5a454a40036d8b31a44329a1aaa3e89"},
    "k500-700": {
        "nodes": 1200,
        "labels_sha256": "26282ba11b2bd91dc2af1d452c2de0adb739a73f592b265c5e2a1c5e6cbbd7aa"},
    "w13": {
        "nodes": 4760,
        "labels_sha256": "0924c9b89fb83d59b641f5a03745b0cf129057a60d949af0cd14c6de78e3de35"},
    "c13": {
        "rn": 25, "nodes": 5131,
        "labels_sha256": "27041f8f33ba7c97fbf8f259423b7bcb78c9e80e8a15b3ea7054e759eb00c2d3"},
    "tadpole66": {
        "rn": 54, "nodes": 3180,
        "labels_sha256": "6615667811d318473cd2ef99566f9ca814e0ac5318e9acc31366e09622489ca7"},
    "table16": {
        "table_sha256": "fdf2524e6f1edd6f2fa9cc2686fe539bf864a6910013ad90c13aca1cef842d03"},
    "table20": {
        "table_sha256": "6bcadc28a83485ec22565db37d3e9c2e33039526094fe0435b3f15e9ab66b43e"},
}


def mismatches(case: str, result: dict) -> list[str]:
    """The pinned keys of ``case`` whose value in ``result`` differs."""
    return [key for key, value in PINNED.get(case, {}).items() if result.get(key) != value]


def labels_sha256(labels) -> str:
    return hashlib.sha256(json.dumps(list(labels)).encode("ascii")).hexdigest()


def peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_case(case: str) -> dict:
    import radiolab as rl

    if case in DISTANCE_CASES:
        g = DISTANCE_CASES[case](rl)
        t0 = time.perf_counter()
        dist = rl.all_pairs_distances(g)
        t1 = time.perf_counter()
        return {"n": g.n, "distances_s": round(t1 - t0, 3), "peak_rss_mb": peak_rss_mb(),
                "matrix_sha256": hashlib.sha256(dist.tobytes()).hexdigest()}
    if case in TABLE_CASES:
        from radiolab.radio import _path_table

        g = TABLE_CASES[case](rl)
        need = rl.diameter(g) + 1 - rl.all_pairs_distances(g)
        t0 = time.perf_counter()
        table = _path_table(need)
        t1 = time.perf_counter()
        return {"n": g.n, "table_s": round(t1 - t0, 3), "peak_rss_mb": peak_rss_mb(),
                "table_sha256": hashlib.sha256(table.tobytes()).hexdigest()}
    if case == "singer32":
        t0 = time.perf_counter()
        labeling = rl.singer_label_erq(32)
        t1 = time.perf_counter()
        co_labeling = rl.singer_label_erq_complement(32)
        t2 = time.perf_counter()
        return {"n": labeling.n, "label_s": round(t1 - t0, 3),
                "complement_label_s": round(t2 - t1, 3), "peak_rss_mb": peak_rss_mb(),
                "labels_sha256": labels_sha256(labeling.labels),
                "complement_labels_sha256": labels_sha256(co_labeling.labels)}
    budget = rl.SearchBudget()
    t0 = time.perf_counter()
    if case == "w13":
        g = rl.generalized_quadrangle_incidence(13)
        t1 = time.perf_counter()
        labeling = rl.label_quadrangle_cage(g, budget)
        t2 = time.perf_counter()
        steps = {"build_s": t1 - t0, "label_s": t2 - t1}
    elif case in ORACLE_CASES:
        g = ORACLE_CASES[case](rl)
        t1 = time.perf_counter()
        try:
            rn, labeling = rl.radio_number_exact(g, vertex_limit=g.n, deadline=budget)
        except rl.TooLarge:
            rn, labeling = "TooLarge", None
        t2 = time.perf_counter()
        steps = {"build_s": t1 - t0, "oracle_s": t2 - t1, "rn": rn}
    elif case == "k500-700":
        g = rl.complete_bipartite(500, 700)
        t1 = time.perf_counter()
        verdict, labeling = rl.settle(g, budget)
        t2 = time.perf_counter()
        steps = {"build_s": t1 - t0, "settle_s": t2 - t1, "rn_lower": verdict.rn_lower,
                 "rn_upper": verdict.rn_upper}
    else:
        g = rl.projective_plane_incidence(49)
        t1 = time.perf_counter()
        verdict = rl.analyze(g, budget)
        t2 = time.perf_counter()
        steps = {"build_s": t1 - t0, "analyze_s": t2 - t1, "status": verdict.status,
                 "rule": verdict.rule}
        labeling = verdict.certificate
    return {"n": g.n, **{k: round(v, 5) if isinstance(v, float) else v
                         for k, v in steps.items()},
            "total_s": round(t2 - t0, 5), "nodes": budget.spent,
            "peak_rss_mb": peak_rss_mb(),
            "labels_sha256": labels_sha256(labeling.labels if labeling else ())}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child" and sys.argv[2] in CASES:
        print(json.dumps(run_case(sys.argv[2])))
        return 0
    cases = sys.argv[1:] or CASES
    if not set(cases) <= set(CASES):
        print(f"usage: {sys.argv[0]} [{' | '.join(CASES)}] ...", file=sys.stderr)
        return 2
    out = {}
    for case in cases:
        proc = subprocess.run([sys.executable, __file__, "--child", case], capture_output=True,
                              text=True, check=True)
        out[case] = json.loads(proc.stdout)
    print(json.dumps(out))
    wrong = {case: keys for case in out if (keys := mismatches(case, out[case]))}
    if wrong:
        print(f"values differ from PINNED: {json.dumps(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
