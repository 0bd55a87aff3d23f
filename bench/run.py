"""Benchmark for radiolab: closed-loop workloads with refereed answers.

Usage, from the root of a checkout (no install needed, the library is
imported from ``src/``):

    python3 bench/run.py --workload geometry --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (reporting the median
set-up time), then runs whole passes over its fixed case list until the
next pass would overrun ``--seconds``, and reports the end-to-end metrics.
``--trace 1`` runs one untraced pass, then traced passes with spans around
every public radiolab function, and reports the per-layer metrics of one
set-up plus one pass, along with import and CLI start-up probes.  Every
answer goes to the independent referee in ``referee.py``; each case runs
under its own guard, so an exception counts as a failed case and never
ends the run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
with per-case entries and run metadata goes to ``bench/results/``.

End-to-end metrics, from per-case latencies that are each the best of the
run's passes, with every time scaled by ``SpeedGauge``:

- ``setup_s``: importing radiolab in a fresh interpreter plus building the
  case list, median of ``SETUP_REPEATS``;
- ``cases_per_s``: cases divided by the sum of their latencies;
- ``latency_p50_ms`` and ``latency_tail_ms``: the median case latency and
  the highest whole percentile with at least ten cases beyond it (the
  percentile and the case count are printed on the summary line);
- ``certified_ratio``: runs of a case that ended in a definite answer the
  referee re-checked, over runs attempted;
- ``ok_ratio``: one minus the failed share, where a failed run raised or
  gave a wrong answer (a timeout is neither);
- ``peak_rss_mb``: the program's peak resident set: the largest of the
  radiolab CLI processes on ``cli``, elsewhere this process's up to the end
  of the first pass (the referee holds no n-by-n matrix between checks, so
  the library sets the peak).

``correct`` is false when the referee rejects an answer, when a
case's node count or outcome does not repeat, or when a case raises an
exception other than the documented defect it is marked with.
"""

from __future__ import annotations

import os

# single-threaded: numpy's BLAS would otherwise start a thread per core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
DEFAULT_SEED = 20251001
SETUP_REPEATS = 5
PROBE_REPEATS = 3
PROBE_TIMEOUT_S = 120
FAILED = ("error", "wrong")
CALIBRATION_ITERS = 4000
CALIBRATION_UNIT_S = 0.0005  # the loop's nominal time, see SpeedGauge
CALIBRATION_REACH = 3  # samples on each side of a case that set its speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "certified_ratio": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
RATIO_LAYERS = ("hamsearch.us_per_node", "hamsearch.certified_per_search")


@dataclass
class Record:
    name: str
    layer: str
    seconds: float  # wall_seconds times the speed factor around the case
    wall_seconds: float
    nodes: int | None
    outcome: str
    detail: str
    known_defect: bool = False  # an error the case is documented to raise
    rss_kb: int | None = None  # peak resident set of the case's subprocess


def _calibration_loop():
    acc = 0
    table = {}
    for i in range(CALIBRATION_ITERS):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    return acc


class SpeedGauge:
    """How fast the machine runs now, from a fixed pure-Python loop timed
    between cases.

    A machine shared with other tenants changes speed by a third or more,
    over seconds and over minutes, with the load average near zero; it slows
    interpreted code, the library's C extensions and subprocess start-up
    alike.  Each measured time is multiplied by ``CALIBRATION_UNIT_S`` over
    the median of the loop times nearest to it (``CALIBRATION_REACH`` on each
    side), which reports it in units of the loop's nominal time.  That time
    is a convention, not a measurement of any machine: only runs on one
    machine are compared.  A single sample is too noisy, and a factor per
    pass or per run misses phases shorter than that.  Per-layer times use
    the median over the whole run.  Records keep the unscaled times.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        _calibration_loop()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    @staticmethod
    def factor(samples) -> float:
        return CALIBRATION_UNIT_S / statistics.median(samples)


def load_library():
    """Import radiolab from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "radiolab" / "__init__.py").is_file():
        sys.exit(f"bench: no radiolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import radiolab

    if not Path(radiolab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: radiolab imported from {radiolab.__file__}, not {SRC}")
    return radiolab


def run_pass(rl, cases, gauge, tracer=None) -> list[Record]:
    """One pass over the case list; only the library call is timed."""
    from referee import Mismatch

    state: dict = {}
    out = []
    samples = []
    for case in cases:
        samples.append(gauge.sample())
        budget = rl.SearchBudget(case.budget) if case.budget else None
        if tracer is not None:
            tracer.case = case.name
        known, answer = False, None
        start = time.perf_counter()
        try:
            answer = case.run(state, budget)
        except Exception as exc:  # a failed case never ends the run
            seconds = time.perf_counter() - start
            outcome, detail = "error", f"{type(exc).__name__}: {exc}"
            known = type(exc).__name__ == case.known_error
            if not known:
                traceback.print_exc(file=sys.stderr)
        else:
            seconds = time.perf_counter() - start
            try:
                outcome, detail = case.check(answer, state), ""
            except Mismatch as exc:
                outcome, detail = "wrong", str(exc)
            except Exception as exc:  # an answer the referee cannot read
                outcome, detail = "wrong", f"referee: {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
        nodes = budget.spent if budget is not None else None
        out.append(Record(case.name, case.layer, seconds, seconds, nodes, outcome, detail,
                          known, getattr(answer, "rss_kb", None)))
    samples.append(gauge.sample())
    for i, r in enumerate(out):
        r.seconds *= gauge.factor(samples[max(0, i - CALIBRATION_REACH):
                                         i + CALIBRATION_REACH + 1])
    return out


def measure(rl, cases, seconds, gauge, tracer=None, on_pass=None):
    """Whole passes until the next one would overrun ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        if on_pass is not None:
            on_pass(len(passes))
        passes.append(run_pass(rl, cases, gauge, tracer))
        took = time.perf_counter() - begin
        if time.perf_counter() - start + took > seconds:
            return passes


def determinism_errors(passes) -> list[str]:
    """Search cases must repeat their outcome and node count exactly.  The
    node count of a case that raised is left out: where a RecursionError
    strikes depends on the caller's stack depth, which tracing changes."""
    seen: dict[str, tuple] = {}
    errors = []
    for records in passes:
        for r in records:
            key = (r.outcome, None if r.outcome == "error" else r.nodes)
            if seen.setdefault(r.name, key) != key:
                errors.append(f"{r.name}: {seen[r.name]} then {key}")
    return errors


def tail_latency(latencies):
    """Highest whole percentile with at least ten cases beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]


def end_to_end(passes, setup_s, self_rss_kb):
    per_case: dict[str, list[float]] = {}
    for records in passes:
        for r in records:
            per_case.setdefault(r.name, []).append(r.seconds)
    # best of the passes per case: slowdowns from other tenants of the
    # machine only ever add time, so the minimum repeats best
    latencies = [min(v) for v in per_case.values()]
    pct, tail = tail_latency(latencies)
    runs = [r for records in passes for r in records]
    failed = sum(r.outcome in FAILED for r in runs)
    certified = sum(r.outcome == "certified" for r in runs)
    children = [r.rss_kb for r in runs if r.rss_kb is not None]
    rss_kb = max(children) if children else self_rss_kb
    metrics = {
        "setup_s": setup_s,
        "cases_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail,
        "certified_ratio": certified / len(runs),
        "ok_ratio": 1 - failed / len(runs),
        "peak_rss_mb": rss_kb / 1024,
    }
    info = {"tail_percentile": pct, "tail_samples": len(latencies),
            "failed_ratio": failed / len(runs)}
    return metrics, info


# ---------------------------------------------------------------------------
# subprocess probes: import and CLI start-up


def _child(args, env):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True, timeout=PROBE_TIMEOUT_S)


IMPORT_PROBE = """
import time
start = time.perf_counter()
import radiolab
print(time.perf_counter() - start)
"""


def child_import_s(env):
    """Seconds to import radiolab in a fresh interpreter."""
    return float(_child(["-c", IMPORT_PROBE], env).stdout)


def import_breakdown(env):
    """Seconds importing radiolab, and scipy and numpy inside it, from
    ``-X importtime`` (a package's time counts where no ancestor import
    belongs to the same package)."""
    stderr = _child(["-X", "importtime", "-c", "import radiolab"], env).stderr
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2][1:]
        entries.append((len(label) - len(label.lstrip()), label.strip(), int(parts[1]) / 1e6))
    totals = {"radiolab": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for group in totals:
            def member(m):
                return m == group or m.startswith(group + ".")
            if member(name) and not any(member(a) for _, a in stack):
                totals[group] += cumulative
        stack.append((depth, name))
    return totals


def probes(env):
    runs = [import_breakdown(env) for _ in range(PROBE_REPEATS)]
    calls = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _child(["-m", "radiolab", "construct", "petersen"], env)
        calls.append(time.perf_counter() - start)
    out = {f"import.{g}_s": statistics.median(r[g] for r in runs) for g in runs[0]}
    out["cli.call_s"] = statistics.median(calls)
    out["cli.import_share"] = out["import.radiolab_s"] / out["cli.call_s"]
    return out


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(rl, setup, args, workdir, env):
    gauge = SpeedGauge()
    imports, gens, setups = [], [], []
    for _ in range(SETUP_REPEATS):
        around = [gauge.sample() for _ in range(CALIBRATION_REACH)]
        imports.append(child_import_s(env))
        start = time.perf_counter()
        cases = setup(rl, args.seed, workdir)
        gens.append(time.perf_counter() - start)
        around += [gauge.sample() for _ in range(CALIBRATION_REACH)]
        setups.append((imports[-1] + gens[-1]) * gauge.factor(around))
    rss_kb = []

    def next_pass(i):
        if i == 1:  # later passes repeat the first, but the allocator may grow
            rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    passes = measure(rl, cases, args.seconds, gauge, on_pass=next_pass)
    if not rss_kb:  # a single pass
        next_pass(1)
    metrics, info = end_to_end(passes, statistics.median(setups), rss_kb[0])
    info.update(setup_import_s=imports, setup_generate_s=gens,
                speed_factor=gauge.factor(gauge.samples))
    return metrics, passes, info


def traced_run(rl, setup, args, workdir, env):
    from tracing import Tracer, layer_metrics, merged

    gauge = SpeedGauge()
    cases = setup(rl, args.seed, workdir)
    baseline = run_pass(rl, cases, gauge)
    tracer = Tracer(rl)
    tracer.install()
    pass_stats = []
    try:
        tracer.case = "setup"
        cases = setup(rl, args.seed, workdir)
        setup_stats = tracer.stats

        def next_pass(i):
            pass_stats.append(tracer.reset())
            tracer.keep_spans = i == 0

        traced = measure(rl, cases, args.seconds, gauge, tracer, next_pass)
        pass_stats.append(tracer.reset())
    finally:
        tracer.uninstall()
    pass_stats = pass_stats[1:]  # what next_pass collected belongs to the pass before

    setup_layers = layer_metrics(setup_stats)
    per_pass = [layer_metrics(s) for s in pass_stats]
    combined = layer_metrics(merged([setup_stats, *pass_stats]))
    metrics = {k: combined[k] if k in RATIO_LAYERS
               else setup_layers[k] + statistics.median(p[k] for p in per_pass)
               for k in setup_layers}
    metrics.update(probes(env))
    speed = gauge.factor(gauge.samples)
    for k in metrics:
        if layer_unit(k) in ("s", "us"):
            metrics[k] *= speed
    untraced_s = sum(r.seconds for r in baseline)
    traced_s = statistics.median(sum(r.seconds for r in p) for p in traced)
    info = {"tracing_overhead_s": traced_s - untraced_s,
            "tracing_overhead_share": (traced_s - untraced_s) / untraced_s,
            "traced_passes": len(traced),
            "speed_factor": speed,
            "spans": relative_spans(tracer.spans)}
    return metrics, [baseline, *traced], info


def relative_spans(spans):
    """Spans as [case, function, start, end, parent], times in seconds from
    the first span's start."""
    origin = spans[0][2] if spans else 0.0
    return [[case, name, start - origin, end - origin, parent]
            for case, name, start, end, parent in spans]


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "hamsearch.us_per_node":
        return "us"
    if name.endswith(("_share", "_per_search")):
        return "ratio"
    return "count"


def metadata(rl, args):
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "radiolab": rl.__version__,
        "git_commit": commit,
    }


def case_records(workload, passes):
    """One entry per case: seconds (min and median over passes, and the
    unscaled min), nodes, outcome."""
    by_name: dict[str, list[Record]] = {}
    for records in passes:
        for r in records:
            by_name.setdefault(r.name, []).append(r)
    out = []
    for name, rs in by_name.items():
        seconds = [r.seconds for r in rs]
        out.append({"name": name, "workload": workload, "layer": rs[0].layer,
                    "seconds": min(seconds), "seconds_median": statistics.median(seconds),
                    "wall_seconds": min(r.wall_seconds for r in rs),
                    "nodes": rs[0].nodes, "outcome": rs[0].outcome,
                    "detail": rs[0].detail, "repeats": len(rs)})
    return out


def main(argv=None):
    from workloads import WORKLOADS, child_env

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rl = load_library()
    env = child_env(rl)
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        run = traced_run if args.trace else timed_run
        metrics, passes, info = run(rl, WORKLOADS[args.workload], args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r for records in passes for r in records]
    determinism = determinism_errors(passes)
    wrong = [f"{r.name}: {r.detail}" for r in runs if r.outcome == "wrong"]
    unexpected = [f"{r.name}: {r.detail}" for r in runs
                  if r.outcome == "error" and not r.known_defect]
    failed = sum(r.outcome in FAILED for r in runs)
    correct = not wrong and not unexpected and not determinism
    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}

    report = {
        "metadata": metadata(rl, args),
        "info": {k: v for k, v in info.items() if k != "spans"},
        "correct": correct,
        "wrong": sorted(set(wrong)),
        "unexpected_errors": sorted(set(unexpected)),
        "determinism_errors": determinism,
        "metrics": metrics,
        "cases": case_records(args.workload, passes),
        "spans": info.get("spans", []),
    }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report) + "\n")

    for line in (report["wrong"] + [f"unexpected error: {u}" for u in report["unexpected_errors"]]
                 + [f"nondeterministic: {d}" for d in determinism]):
        print(f"bench: {line}", file=sys.stderr)
    summary = {k: v for k, v in report["info"].items()
               if not k.startswith("setup_")}
    print(f"# radiolab bench {args.workload} seed={args.seed} passes={len(passes)} "
          f"cases={len(passes[0])} {json.dumps(summary)} -> {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
