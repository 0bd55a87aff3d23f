#!/usr/bin/env python3
"""Time the two large geometry cases that the dense bitset kernels target.

- ``w13``: ``generalized_quadrangle_incidence(13)`` (W(13), 4,760
  vertices), then ``label_quadrangle_cage`` on it;
- ``pg49``: ``analyze(projective_plane_incidence(49))`` (4,902 vertices),
  timed after the build.

Each case runs in a fresh child process, so no distance matrix or table
is shared between them.  The script prints one JSON line: per case the
vertex count, the seconds of each step, the search nodes spent and a
sha256 of the labeling's labels, which must not change from one version
of the kernels to the next.  It imports the library from the ``src``
directory next to this script.  Run it from anywhere:

    python3 scripts/scale_check.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

CASES = ("w13", "pg49")


def labels_sha256(labels) -> str:
    return hashlib.sha256(json.dumps(list(labels)).encode("ascii")).hexdigest()


def run_case(case: str) -> dict:
    import radiolab as rl

    budget = rl.SearchBudget()
    t0 = time.perf_counter()
    if case == "w13":
        g = rl.generalized_quadrangle_incidence(13)
        t1 = time.perf_counter()
        labeling = rl.label_quadrangle_cage(g, budget)
        t2 = time.perf_counter()
        steps = {"build_s": t1 - t0, "label_s": t2 - t1}
    else:
        g = rl.projective_plane_incidence(49)
        t1 = time.perf_counter()
        verdict = rl.analyze(g, budget)
        t2 = time.perf_counter()
        steps = {"build_s": t1 - t0, "analyze_s": t2 - t1, "status": verdict.status,
                 "rule": verdict.rule}
        labeling = verdict.certificate
    return {"n": g.n, **{k: round(v, 3) if isinstance(v, float) else v
                         for k, v in steps.items()},
            "total_s": round(t2 - t0, 3), "nodes": budget.spent,
            "labels_sha256": labels_sha256(labeling.labels)}


def main() -> int:
    if len(sys.argv) == 2 and sys.argv[1] in CASES:
        print(json.dumps(run_case(sys.argv[1])))
        return 0
    if len(sys.argv) != 1:
        print(f"usage: {sys.argv[0]}", file=sys.stderr)
        return 2
    out = {}
    for case in CASES:
        proc = subprocess.run([sys.executable, __file__, case], capture_output=True,
                              text=True, check=True)
        out[case] = json.loads(proc.stdout)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
