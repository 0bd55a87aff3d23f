"""Spans around the public functions of each radiolab module.

The wrappers live here, in the benchmark, and are installed by rebinding
every radiolab module attribute that refers to a public function, so calls
between library modules are traced as well as the benchmark's own calls.
Spans nest: a span's self time is its duration minus its child spans.  A
search function given a ``SearchBudget`` is charged the nodes the budget
spent during the call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("field", "families", "graphcore", "hamsearch", "radio")
NOT_BUILDS = ("families.load_edge_list", "families.read_edge_list",
              "families.write_edge_list", "families.builtin_sequence")
SEARCHES = ("hamsearch.find_hamiltonian_path", "hamsearch.find_cycle_power",
            "graphcore.are_isomorphic")


class LayerStats:
    __slots__ = ("calls", "inclusive_s", "self_s", "nodes", "definite",
                 "search_s", "vertices", "pairs")

    def __init__(self):
        self.calls = 0
        self.inclusive_s = 0.0  # outermost calls of this function only
        self.self_s = 0.0
        self.nodes = 0
        self.definite = 0  # searches that ended in a certificate or None
        self.search_s = 0.0  # inclusive time of calls that spent nodes
        self.vertices = 0  # vertices of graphs built (families)
        self.pairs = 0  # vertex pairs checked (verify)


class Tracer:
    """Records spans and per-function statistics while installed."""

    def __init__(self, rl):
        self.timeout = rl.TIMEOUT
        self.budget_type = rl.SearchBudget
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []  # (case, name, start, end, parent)
        self.keep_spans = True
        self.case = ""
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._active: dict[str, int] = {}
        self._originals: dict = {}

    def reset(self):
        """Start fresh statistics; return the ones gathered so far."""
        old, self.stats = self.stats, {}
        return old

    def _wrap(self, name, fn):
        stats_for = self._stats_for
        budget_type = self.budget_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            budget = next((a for a in (*args, *kwargs.values())
                           if isinstance(a, budget_type)), None)
            before = budget.spent if budget is not None else 0
            outer = self._active.get(name, 0) == 0
            self._active[name] = self._active.get(name, 0) + 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), time.perf_counter(), 0.0]
            if self.keep_spans:
                self.spans.append(None)
            self._stack.append(frame)
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._active[name] -= 1
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                if self.keep_spans:
                    self.spans[frame[0]] = (self.case, name, frame[1], end, parent)
                st = stats_for(name)
                st.calls += 1
                st.self_s += duration - frame[2]
                if outer:
                    st.inclusive_s += duration
                if budget is not None and budget.spent > before:
                    st.nodes += budget.spent - before
                    st.search_s += duration
                if name in SEARCHES and returned and result is not self.timeout:
                    st.definite += 1
                if name.startswith("families.") and hasattr(result, "n"):
                    st.vertices += result.n
                if name == "radio.verify" and args:
                    st.pairs += args[0].n * (args[0].n - 1) // 2

        return traced

    def _stats_for(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        return st

    def install(self):
        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"radiolab.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in self._library_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._originals[(mod, attr)] = value
                    setattr(mod, attr, wrapped[value])

    def uninstall(self):
        for (mod, attr), fn in self._originals.items():
            setattr(mod, attr, fn)
        self._originals = {}

    @staticmethod
    def _library_modules():
        return [m for k, m in list(sys.modules.items())
                if k == "radiolab" or k.startswith("radiolab.")]


def merged(many: list[dict[str, LayerStats]]) -> dict[str, LayerStats]:
    out: dict[str, LayerStats] = {}
    for stats in many:
        for name, st in stats.items():
            acc = out.setdefault(name, LayerStats())
            for field in LayerStats.__slots__:
                setattr(acc, field, getattr(acc, field) + getattr(st, field))
    return out


def _total(stats, prefix, field):
    return sum(getattr(st, field) for name, st in stats.items() if name.startswith(prefix))


def layer_metrics(stats: dict[str, LayerStats]) -> dict[str, float]:
    """Per-layer metric values from one traced set-up or pass."""
    def get(name):
        return stats.get(name) or LayerStats()

    ham = get("hamsearch.find_hamiltonian_path")
    cyc = get("hamsearch.find_cycle_power")
    iso = get("graphcore.are_isomorphic")
    search_nodes = ham.nodes + cyc.nodes
    search_calls = ham.calls + cyc.calls
    families = [st for name, st in stats.items()
                if name.startswith("families.") and name not in NOT_BUILDS]
    return {
        "field.calls": _total(stats, "field.", "calls"),
        "field.self_s": _total(stats, "field.", "self_s"),
        "families.build_calls": sum(st.calls for st in families),
        "families.build_s": sum(st.inclusive_s for st in families),
        "families.vertices_built": sum(st.vertices for st in families),
        "graphcore.all_pairs_distances_s": get("graphcore.all_pairs_distances").inclusive_s,
        "graphcore.all_pairs_distances_calls": get("graphcore.all_pairs_distances").calls,
        "graphcore.antipodal_s": get("graphcore.antipodal").inclusive_s,
        "graphcore.components_s": get("graphcore.components").inclusive_s,
        "graphcore.girth_s": get("graphcore.girth").inclusive_s,
        "graphcore.are_isomorphic_s": iso.inclusive_s,
        "graphcore.are_isomorphic_nodes": iso.nodes,
        "hamsearch.find_hamiltonian_path_s": ham.inclusive_s,
        "hamsearch.find_hamiltonian_path_nodes": ham.nodes,
        "hamsearch.find_cycle_power_s": cyc.inclusive_s,
        "hamsearch.find_cycle_power_nodes": cyc.nodes,
        "hamsearch.us_per_node": (
            1e6 * (ham.search_s + cyc.search_s) / search_nodes if search_nodes else 0.0),
        "hamsearch.certified_per_search": (
            (ham.definite + cyc.definite) / search_calls if search_calls else 0.0),
        "radio.verify_s": get("radio.verify").inclusive_s,
        "radio.verify_pairs": get("radio.verify").pairs,
        "radio.radio_number_exact_s": get("radio.radio_number_exact").inclusive_s,
        "radio.radio_number_exact_calls": get("radio.radio_number_exact").calls,
        "radio.analyze_self_s": get("radio.analyze").self_s,
        "radio.label_cage_self_s": (get("radio.label_quadrangle_cage").self_s
                                    + get("radio.label_hexagon_cage").self_s),
        "radio.singer_label_s": (get("radio.singer_label_erq").inclusive_s
                                 + get("radio.singer_label_erq_complement").inclusive_s),
    }
