"""Radio labelings: verification, constructions, analysis, exact oracle.

A radio labeling of a connected graph assigns distinct positive integers
to vertices so that ``|f(u)-f(v)| + d(u,v) >= diam(G)+1`` for every pair
of distinct vertices.  The span is the largest label used; the radio
number rn(G) is the minimum achievable span, and a graph is radio
graceful when rn(G) = |V(G)| (labels exactly 1..n, taking 1 as the
smallest label).

Every definite answer produced here is certified: graceful verdicts carry
a labeling that passes :func:`verify`, non-graceful verdicts carry a
machine-checkable obstruction.

The Singer labelings of polarity graphs walk Z_n, n = q^2+q+1 odd, by
v_0 = s and v_t = step_t - v_{t-1}, the steps alternating a, b, a, ...
Then v_2j = s + j(b-a) and v_2j+1 = a - s - j(b-a), so the walk visits
every residue exactly once iff gcd(a-b, n) = 1 and 2s = b (mod n): the
steps are chosen in closed form, with no search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import combinations
from math import gcd
from typing import Optional

import numpy as np

from .budget import TIMEOUT, SearchBudget, as_budget
from .errors import (
    BadCertificate,
    BadPermutation,
    ConstructionFailed,
    Disconnected,
    NotInjective,
    PreconditionFailed,
    TooLarge,
    UnsupportedDiameter,
)
from .families import _difference_set_graph
from .field import DifferenceSet, singer_difference_set
from .graphcore import (
    Graph,
    _bit_rows,
    _odd_levels,
    all_pairs_distances,
    antipodal,
    bipartition,
    complement,
    components,
    diameter,
)
from .hamsearch import (
    PathCertificate,
    _window_ordering,
    dirac_hamiltonian_path,
    find_hamiltonian_path,
)

__all__ = [
    "RadioLabeling",
    "Obstruction",
    "AnalysisVerdict",
    "RADIO_GRACEFUL",
    "NOT_RADIO_GRACEFUL",
    "UNKNOWN",
    "verify",
    "label_from_antipodal_path",
    "label_quadrangle_cage",
    "label_hexagon_cage",
    "singer_label_erq",
    "singer_label_erq_complement",
    "radio_number_exact",
    "analyze",
    "settle",
    "require_antipodal_path_diameter",
    "labeling_to_json",
    "labeling_from_json",
]


@dataclass(frozen=True)
class RadioLabeling:
    """labels[v] is the positive integer assigned to vertex v."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if any(x < 1 for x in self.labels):
            raise ValueError("labels must be positive integers")

    @property
    def span(self) -> int:
        return max(self.labels) if self.labels else 0

    @property
    def n(self) -> int:
        return len(self.labels)


RADIO_GRACEFUL = "RadioGraceful"
NOT_RADIO_GRACEFUL = "NotRadioGraceful"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Obstruction:
    """Machine-checkable evidence that a graph is not radio graceful.

    ``antipodal-disconnected`` carries the antipodal components;
    ``no-hamiltonian-path`` records that an exhaustive search of the
    antipodal graph found none (valid for diameter 2 and bipartite
    diameter 3, where traceability of the antipodal graph is equivalent
    to gracefulness) and the nodes that search spent, not those a shared
    budget spent before it.  ``no-span-n+1-labeling`` (from :func:`settle`
    only) records the same for its exhausted two-component search: rn >= n+2.
    """

    kind: str
    antipodal_components: Optional[tuple[tuple[int, ...], ...]] = None
    nodes_searched: Optional[int] = None


@dataclass(frozen=True)
class AnalysisVerdict:
    status: str
    rule: str
    certificate: RadioLabeling | Obstruction | None
    rn_lower: int
    rn_upper: Optional[int]

    def to_json_dict(self) -> dict:
        cert: dict | None
        if isinstance(self.certificate, RadioLabeling):
            cert = {"type": "labeling", "labels": list(self.certificate.labels)}
        elif isinstance(self.certificate, Obstruction):
            cert = {"type": "obstruction", "kind": self.certificate.kind}
            if self.certificate.antipodal_components is not None:
                cert["antipodal_components"] = [
                    list(c) for c in self.certificate.antipodal_components
                ]
            if self.certificate.nodes_searched is not None:
                cert["nodes_searched"] = self.certificate.nodes_searched
        else:
            cert = None
        return {
            "status": self.status,
            "rule": self.rule,
            "rn_lower": self.rn_lower,
            "rn_upper": self.rn_upper,
            "certificate": cert,
        }


# ---------------------------------------------------------------------------
# verification


def verify(g: Graph, labeling: RadioLabeling) -> list[tuple[int, int, int]]:
    """All violating pairs (u, v, slack), u < v, sorted by (u, v); an empty
    list means the labeling is a valid radio labeling.
    slack = |f(u)-f(v)| + d(u,v) - (diam+1) < 0.

    Labels are distinct, so vertices k places apart in label order differ
    by at least k in label and at least 1 in distance: only pairs fewer
    than diam places apart can violate.  The vertices are sorted by label
    once; then for k = 1..diam-1 every vertex is compared with the one k
    places later by a numpy gather on ``dist``, O(n) memory per step.
    Label gaps are taken in Python and capped at diam+1 before numpy sees
    them (a gap that large satisfies every pair it spans), so labels of
    any size are fine.  Once every k-step gap reaches diam+1, larger
    steps cannot violate and the loop stops.
    """
    if labeling.n != g.n:
        raise ValueError(f"labeling covers {labeling.n} vertices, graph has {g.n}")
    if len(set(labeling.labels)) != g.n:
        raise NotInjective("labels are not pairwise distinct")
    diam = diameter(g)  # raises Disconnected
    dist = all_pairs_distances(g)
    need = diam + 1
    f = labeling.labels
    order = sorted(range(g.n), key=f.__getitem__)
    gaps = [min(f[b] - f[a], need) for a, b in zip(order, order[1:])]
    reach = np.concatenate(([0], np.cumsum(gaps, dtype=np.int64)))
    position = np.asarray(order, dtype=np.intp)
    found = []
    for k in range(1, min(diam, g.n)):
        gap = reach[k:] - reach[:-k]
        if gap.min() >= need:
            break
        lo, hi = position[:-k], position[k:]
        slack = gap + dist[lo, hi] - need
        bad = slack < 0
        if bad.any():
            lo, hi = lo[bad], hi[bad]
            found.append((np.minimum(lo, hi), np.maximum(lo, hi), slack[bad]))
    if not found:
        return []
    us, vs, slacks = (np.concatenate(parts) for parts in zip(*found))
    by_pair = np.lexsort((vs, us))
    return list(zip(us[by_pair].tolist(), vs[by_pair].tolist(),
                    slacks[by_pair].tolist()))


# ---------------------------------------------------------------------------
# constructive labelings


def require_antipodal_path_diameter(g: Graph) -> int:
    """Raise UnsupportedDiameter unless diam(g) <= 2, or diam(g) = 3 with g
    bipartite: the only cases where a Hamiltonian path of the antipodal
    graph yields a graceful labeling.  Returns diam(g)."""
    diam = diameter(g)
    if not (diam <= 2 or (diam == 3 and bipartition(g) is not None)):
        raise UnsupportedDiameter(
            f"antipodal-path labeling proven only for diameter <= 2 or bipartite "
            f"diameter 3; got diameter {diam}"
        )
    return diam


def label_from_antipodal_path(g: Graph, cert: PathCertificate) -> RadioLabeling:
    """Graceful labeling from a Hamiltonian path of the antipodal graph.

    Sound exactly when :func:`require_antipodal_path_diameter` holds: the
    vertex at path position i receives label i+1.  The path is checked on
    the distance matrix: consecutive vertices must lie at distance diam(g).
    """
    diam = require_antipodal_path_diameter(g)
    if cert.kind != "path":
        raise BadCertificate(f"need a path certificate, got {cert.kind!r}")
    if sorted(cert.ordering) != list(range(g.n)):
        raise BadPermutation("ordering is not a permutation of the vertex set")
    order = np.asarray(cert.ordering, dtype=np.intp)
    if (all_pairs_distances(g)[order[:-1], order[1:]] != diam).any():
        raise BadCertificate("ordering is not a Hamiltonian path of the antipodal graph")
    labels = [0] * g.n
    for pos, v in enumerate(cert.ordering):
        labels[v] = pos + 1
    labeling = RadioLabeling(tuple(labels))
    if verify(g, labeling):
        raise AssertionError("antipodal-path labeling failed verification")
    return labeling


def _distance_rows(g: Graph, diam: int) -> dict[int, list[int]]:
    """The bitset rows of ``dist >= t`` for t = 2..diam; those of t = diam
    are the antipodal graph's."""
    dist = all_pairs_distances(g)
    return {t: _bit_rows(dist >= t) for t in range(2, diam + 1)}


def _label_two_components(g: Graph, comps, budget: SearchBudget, rows=None):
    """Span-(n+1) labeling of a graph whose antipodal graph has the two
    components ``comps``, vertex 0 in the first, over the
    :func:`_distance_rows` of its diameter (built here unless the caller
    has them): one exact window search
    orders the a vertices of the first (labels 1..a), then the second
    (a+2..n+1), so that labels g < diam apart, the pairs across the
    skipped a+1 included, lie at distance >= diam+1-g.  Returns the
    labeling, TIMEOUT when the budget runs out, or None when the search is
    exhausted, or at once when a component is bipartite in the antipodal
    graph with sides differing by more than 1.

    None proves that no span-(n+1) labeling exists.  One would skip a
    label s with 1 < s < n+1 (g is not graceful), and consecutive labels
    need distance diam, so each of the two runs of consecutive labels lies
    in one antipodal component and is all of it: a Hamiltonian path of
    that component in the antipodal graph, which alternates the sides of
    a bipartite one.  The mirror f -> n+2-f swaps the runs, so the first
    component may take the first run.
    """
    if rows is None:
        rows = _distance_rows(g, diameter(g))
    diam = max(rows)
    a = len(comps[0])
    for comp in comps:  # rows[diam] is the antipodal graph
        levels = _odd_levels(rows[diam], comp[0])
        if levels is not None and abs(len(comp) - 2 * levels[1].bit_count()) > 1:
            return None
    first, second = (sum(1 << v for v in comp) for comp in comps)
    allowed = [first] * a + [second] * (g.n - a)
    label = list(range(1, a + 1)) + list(range(a + 2, g.n + 2))
    constraints = [[(j, diam + 1 - label[k] + label[j])
                    for j in range(max(0, k - diam), k) if label[k] - label[j] < diam]
                   for k in range(g.n)]
    order = _window_ordering(rows, constraints, allowed, budget)
    if order is None or order is TIMEOUT:
        return order
    # order is a permutation of the vertices: sorted by vertex, its labels
    labeling = RadioLabeling(tuple(f for _, f in sorted(zip(order, label))))
    if verify(g, labeling):
        raise AssertionError("span-(n+1) labeling failed verification")
    return labeling


def _label_cage(g: Graph, deadline, diam: int):
    g_diam = diameter(g)  # raises Disconnected
    if g_diam != diam:
        raise PreconditionFailed(f"diameter is {g_diam}, need {diam}")
    rows = _distance_rows(g, diam)
    comps = components(Graph._trusted(tuple(rows[diam])))
    if len(comps) != 2:
        raise PreconditionFailed(f"the antipodal graph has {len(comps)} components, need 2")
    return _label_two_components(g, comps, as_budget(deadline), rows)


def label_quadrangle_cage(g: Graph, deadline: int | SearchBudget | None = None):
    """Span-(n+1) radio labeling of a diameter-4 graph with two antipodal
    components, such as a (q+1,8)-cage (points and lines), by
    :func:`_label_two_components`: None when none exists, TIMEOUT when the
    node budget runs out first."""
    return _label_cage(g, deadline, 4)


def label_hexagon_cage(g: Graph, deadline: int | SearchBudget | None = None):
    """:func:`label_quadrangle_cage` for diameter 6, such as a
    (q+1,12)-cage."""
    return _label_cage(g, deadline, 6)


# ---------------------------------------------------------------------------
# Singer recurrence labelings


def _singer_steps(ds: DifferenceSet, of_complement: bool) -> tuple[int, int]:
    """The steps (a, b) of the Singer walk from s = b/2, which covers the
    odd modulus n iff gcd(a-b, n) = 1 (see the module docstring).

    Consecutive walk vertices sum to a or b: both in D makes the walk a
    path of the Singer graph (the antipodal graph of its complement), both
    outside D a path of its complement.  For the complement the steps are
    the first two elements of D in order with a coprime difference (the
    canonical D starts 0, 1); for the graph, the first d0 < d1 in D and
    j >= 1 with a = d0 - j and b = d1 - 2 outside D and coprime difference.
    """
    n, dset = ds.modulus, ds.member_set()
    if of_complement:
        candidates = combinations(ds.elements, 2)
    else:
        candidates = (((d0 - j) % n, (d1 - 2) % n)
                      for d0, d1 in combinations(ds.elements, 2)
                      if (d1 - 2) % n not in dset
                      for j in range(1, n + 1) if (d0 - j) % n not in dset)
    for a, b in candidates:
        if gcd(a - b, n) == 1:
            return a, b
    raise ConstructionFailed(f"no Singer walk steps for modulus {n}")


def _singer_label(q: int, of_complement: bool) -> RadioLabeling:
    """Label position i of the Singer walk with i+1: a Hamiltonian path of
    the antipodal graph of singer_graph(q) or of its complement."""
    ds = singer_difference_set(q)
    g = _difference_set_graph(ds)
    if of_complement:
        g = complement(g)
        if diameter(g) != 2:
            raise UnsupportedDiameter(
                f"complement of the Singer graph for q={q} does not have diameter 2"
            )
    a, b = _singer_steps(ds, of_complement)
    n = ds.modulus
    labels = [0] * n
    v = b * (n + 1) // 2 % n  # b/2 mod the odd n
    for pos in range(n):
        labels[v] = pos + 1
        v = ((a, b)[pos % 2] - v) % n
    labeling = RadioLabeling(tuple(labels))
    if verify(g, labeling):
        raise ConstructionFailed("Singer walk failed radio verification")
    return labeling


def singer_label_erq(q: int) -> RadioLabeling:
    """Graceful radio labeling of singer_graph(q) (hence, via isomorphism,
    of the order-q polarity graph).

    Walks a Hamiltonian path of the complement by the alternating
    recurrence v_i = a - v_{i-1} / b - v_{i-1}, whose consecutive sums a
    and b avoid the difference set, then labels path position i with i+1.
    """
    return _singer_label(q, of_complement=False)


def singer_label_erq_complement(q: int) -> RadioLabeling:
    """Graceful radio labeling of complement(singer_graph(q)).

    The recurrence v_i = a - v_{i-1} / b - v_{i-1} with a, b in the
    difference set keeps consecutive sums inside it, giving a Hamiltonian
    path of the Singer graph itself, which is the antipodal graph of its
    diameter-2 complement."""
    return _singer_label(q, of_complement=True)


# ---------------------------------------------------------------------------
# exact oracle

ORACLE_VERTEX_LIMIT = 12
PATH_TABLE_VERTEX_LIMIT = 20  # 2^20 * 20 int16 entries: 40 MiB
_UNSET = np.iinfo(np.int16).max // 2  # above any path total, with room to add a need
# search states the oracle's memo keeps; once full it only updates them
_MEMO_ENTRIES = 1 << 16
# automorphisms of the need matrix the oracle's sibling rule keeps
_AUTOMORPHISMS = 1 << 8
# entries in the largest temporary of one path-table block
_PATH_BLOCK_ENTRIES = 1 << 18


def _automorphisms(need: list[list[int]], budget: SearchBudget):
    """Permutations s other than the identity with need[s[u]][s[v]] =
    need[u][v] for all u, v, in lexicographic order, at most
    ``_AUTOMORPHISMS`` of them (the identity counted).

    A backtracking search maps the vertices in index order.  The images of
    u start as the vertices whose sorted need row equals u's; mapping u to
    w keeps, for each later x, only the images z with need[z][w] =
    need[x][u], so every image tried agrees with every earlier one, and a
    later vertex left without images ends the branch.  One budget node
    per image tried.  Returns [] at once when no two rows sort alike, and
    TIMEOUT when the budget runs out.
    """
    n = len(need)
    shape = [tuple(sorted(row)) for row in need]
    if len(set(shape)) == n:
        return []
    top = max(map(max, need))
    # equal[w][k]: the vertices z with need[z][w] = k
    equal = [[0] * (top + 1) for _ in range(n)]
    for z, row in enumerate(need):
        for w, k in enumerate(row):
            equal[w][k] |= 1 << z
    image = [0] * n
    found: list[tuple[int, ...]] = []

    def extend(u: int, cand: list[int]) -> bool:
        # cand[x]: the images x may still take; False at the cap or budget
        if u == n:
            found.append(tuple(image))
            return len(found) < _AUTOMORPHISMS
        c = cand[u]
        while c:
            b = c & -c
            c ^= b
            if not budget.charge():
                return False
            w = image[u] = b.bit_length() - 1
            eq = equal[w]
            nxt = cand[:]
            for x in range(u + 1, n):
                nxt[x] &= eq[need[x][u]]  # need[x][u] < need[w][w]: w drops out
                if not nxt[x]:
                    break
            else:
                if not extend(u + 1, nxt):
                    return False
        return True

    extend(0, [sum(1 << w for w in range(n) if shape[w] == shape[u]) for u in range(n)])
    return TIMEOUT if budget.remaining < 0 else found[1:]  # found[0] is the identity


def _path_table(need: np.ndarray) -> np.ndarray:
    """Held-Karp table for a symmetric ``need``: H[S, v] is the least total
    need over the steps of a path that covers exactly the vertex bitmask S
    and ends at v (v in S; the other entries hold ``_UNSET``).

    The table is an (n, 2^n) buffer H[v, S], returned transposed so that
    it reads H[S, v].  It is filled one popcount layer at a time by
    pushing: for every set T of layer k-1, ext[v] = min over u of
    H[u, T] + need[u, v] goes to H[v, T | 1 << v] for v not in T, and
    H[v, T] goes back unchanged for v in T, so one scatter writes the
    whole block.  The sets of a layer go in blocks whose n x n x block
    sum holds at most ``_PATH_BLOCK_ENTRIES`` entries.  Raises TooLarge
    above PATH_TABLE_VERTEX_LIMIT vertices, before allocating.
    """
    n = len(need)
    if n > PATH_TABLE_VERTEX_LIMIT:
        raise TooLarge(
            f"the path-bound table of {n} vertices exceeds the limit of "
            f"{PATH_TABLE_VERTEX_LIMIT}"
        )
    size = np.bitwise_count(np.arange(1 << n))
    order = np.argsort(size, kind="stable")  # the sets, layer by layer
    ends = np.cumsum(np.bincount(size, minlength=n + 1))
    verts = np.arange(n)
    bits = (1 << verts)[:, None]
    lead = verts[:, None] << n | bits  # H[v, T | 1 << v] is flat[lead | T]
    table = np.full((n, 1 << n), _UNSET, dtype=np.int16)
    table[verts, bits[:, 0]] = 0
    flat = table.reshape(-1)
    need = need.astype(np.int16)[:, :, None]
    block = max(1, _PATH_BLOCK_ENTRIES // n ** 2)
    for k in range(1, n):
        layer = order[ends[k - 1]:ends[k]]
        for first in range(0, len(layer), block):
            sets = layer[first:first + block]
            prev = table[:, sets]
            ext = (prev[:, None, :] + need).min(axis=0)
            flat[lead | sets] = np.where(sets & bits, prev, ext)
    return table.T


def radio_number_exact(
    g: Graph,
    vertex_limit: int = ORACLE_VERTEX_LIMIT,
    deadline: int | SearchBudget | None = None,
):
    """Exact rn(g) and an optimal witness, by branch and bound, or TIMEOUT
    when the node budget runs out first (one node per entry of the search,
    the root included; a child cut by a bound or the memo costs none).

    Consecutive labels of x then y differ by at least need(x, y) = diam +
    1 - d(x, y) >= 1.  The incumbent comes from n + 1 greedy runs: one
    places the vertices in index order, the others start from each vertex
    in turn and place next the one with the smallest lower label.  Each
    takes the smallest label compatible with everything placed.  A run
    stops once its label f at position i has f + (n - i) reaching the
    incumbent, since every later label adds at least 1, and only a
    strictly smaller span replaces the incumbent, so it is the first
    minimum over the runs.  A graceful incumbent is returned at once,
    since rn >= n.  Above ``PATH_TABLE_VERTEX_LIMIT`` vertices the
    incumbent starts at n + 1, so only a graceful run finishes.

    Otherwise the path table of :func:`_path_table` is built once (it
    raises TooLarge above its limit) and a depth-first search places the
    vertices in increasing label order, in index order among siblings,
    each at the smallest compatible label.  A child v placed at label f,
    with R the unplaced vertices (v among them), ends at a span of at
    least f + H[R, v]: the least total need along a path that covers
    exactly R and ends at v, read at v << n | R from the table's flat
    (n, 2^n) buffer.  The child is cut when that bound reaches the
    incumbent.  Only a strictly smaller span replaces the incumbent, so
    the witness is the first optimum in search order whatever the bound
    cuts.

    A memo merges repeated search states.  Below a child placed at f, the
    search depends only on the unplaced set and the offsets lower(u) - f,
    each in 1..diam; both are packed into one int key.  Once the child's
    subtree is done, every completion of that state spans at least the
    incumbent, so the memo keeps incumbent - f, and a later child with the
    same key at f' is cut when f' plus that reaches the incumbent.  Such a
    cut never passes over a strict improvement, so the incumbents and the
    witness are those of the search without the memo.  The memo holds at
    most ``_MEMO_ENTRIES`` states; once full it only updates the ones it
    holds.

    Siblings that are images of each other under an automorphism are
    searched once.  Each search node carries the automorphisms s of the
    need matrix found by :func:`_automorphisms` that fix every placed
    vertex; a child v is skipped when one of them has s(v) < v, and v's
    child keeps only those with s(v) = v.  Such an s maps the subtree
    below v onto the one below its earlier sibling s(v), fixing the placed
    vertices, so label for label it keeps the lower labels, the bound and
    every span: nothing below v spans less than the incumbent after s(v)'s
    subtree, and since only a strict improvement replaces the incumbent,
    the incumbents and the witness are again those of the plain search.
    Any subset of the automorphisms keeps this true.  The automorphisms
    are searched at the first child that passes the bound, so a graph
    whose root children the bound cuts never pays for them; that search
    charges one budget node per image it tries, to the same budget.
    """
    n = g.n
    if n > vertex_limit:
        raise TooLarge(f"{n} vertices exceeds the oracle limit {vertex_limit}")
    diam = diameter(g)  # raises Disconnected
    need_np = diam + 1 - all_pairs_distances(g)
    need = need_np.tolist()
    budget = as_budget(deadline)

    # each greedy label is at most diam above the one before, so the first
    # run always finishes below the table's limit
    best_span = n + 1 if n > PATH_TABLE_VERTEX_LIMIT else (n - 1) * diam + 2
    for start, adaptive in [(0, False)] + [(start, True) for start in range(n)]:
        # places start, then the next vertex in index order or, adaptive,
        # the one with the smallest lower label (the lowest index on ties)
        labels = [0] * n
        bound = [1] * n
        rest = list(range(n))
        v = start
        for i in range(1, n + 1):
            f = bound[v]
            if f + n - i >= best_span:
                break
            labels[v] = f
            rest.remove(v)
            row = need[v]
            v = rest[0] if rest else None
            for u in rest:
                if f + row[u] > bound[u]:
                    bound[u] = f + row[u]
                if adaptive and bound[u] < bound[v]:
                    v = u
        else:
            best_span, best_labels = f, labels
            if f == n:
                return n, RadioLabeling(tuple(labels))

    tab = memoryview(_path_table(need_np).T.ravel())  # tab[v << n | rest]
    labels = [0] * n
    # offset field of vertex u in a memo key, above the n bits of `left`
    shift = [n + u * diam.bit_length() for u in range(n)]
    memo: dict[int, int] = {}

    def dfs(last_label: int, rest: int, lower: list[int],
            syms: Optional[list[tuple[int, ...]]]):
        # rest: bitmask of the vertices still to place; lower[u]: the
        # smallest label unplaced u could still take; syms: automorphisms
        # fixing every placed vertex (None at the root until computed)
        nonlocal best_span, best_labels
        if not budget.charge():
            return TIMEOUT
        if not rest:
            if last_label < best_span:
                best_span, best_labels = last_label, labels[:]
            return
        r = rest
        while r:
            bit = r & -r
            r ^= bit
            v = bit.bit_length() - 1
            f = lower[v]
            if f + tab[v << n | rest] >= best_span:
                continue
            if syms is None:  # only the root gets here without them
                syms = _automorphisms(need, budget)
                if syms is TIMEOUT:
                    return TIMEOUT
            if syms and any(s[v] < v for s in syms):
                continue
            left = rest ^ bit
            child = lower[:]
            row = need[v]
            key = todo = left
            while todo:
                b = todo & -todo
                todo ^= b
                u = b.bit_length() - 1
                nb = f + row[u]
                if nb > child[u]:
                    child[u] = nb
                key |= (child[u] - f) << shift[u]
            seen = memo.get(key)
            if seen is not None and f + seen >= best_span:
                continue
            labels[v] = f
            if dfs(f, left, child, [s for s in syms if s[v] == v] if syms else syms) is TIMEOUT:
                return TIMEOUT
            if seen is not None or len(memo) < _MEMO_ENTRIES:
                memo[key] = best_span - f

    if dfs(0, (1 << n) - 1, [1] * n, None) is TIMEOUT:
        return TIMEOUT
    return best_span, RadioLabeling(tuple(best_labels))


# ---------------------------------------------------------------------------
# analyzer


def analyze(
    g: Graph, deadline: int | SearchBudget | None = None
) -> AnalysisVerdict:
    """Theorem-driven gracefulness decision with a certified verdict.

    Rules fire in order: trivial diameter; bipartite even diameter;
    disconnected antipodal graph; bounded-degree diameter 2 (guaranteed
    path); antipodal path search for diameter 2 or bipartite diameter 3
    (where traceability is equivalent to gracefulness); otherwise Unknown
    with honest bounds.  Every rule reads the one antipodal graph built
    from ``dist == diam``: its components, the Dirac construction and the
    path search.
    """
    n = g.n
    if n == 0:
        raise Disconnected("empty graph")
    diam = diameter(g)  # raises Disconnected

    def graceful(rule: str, labeling: RadioLabeling) -> AnalysisVerdict:
        return AnalysisVerdict(RADIO_GRACEFUL, rule, labeling, n, n)

    def not_graceful(rule: str, obstruction: Obstruction) -> AnalysisVerdict:
        return AnalysisVerdict(NOT_RADIO_GRACEFUL, rule, obstruction, n + 1, None)

    if diam <= 1:
        labeling = RadioLabeling(tuple(range(1, n + 1)))
        return graceful("trivial-diameter", labeling)

    parts = bipartition(g)
    a = antipodal(g)
    comps = tuple(map(tuple, components(a)))
    if parts is not None and diam % 2 == 0:
        return not_graceful(
            "bipartite-even-diameter",
            Obstruction("antipodal-disconnected", antipodal_components=comps),
        )
    if len(comps) > 1:
        return not_graceful(
            "antipodal-disconnected",
            Obstruction("antipodal-disconnected", antipodal_components=comps),
        )
    if not (diam == 2 or diam == 3 and parts is not None):
        return AnalysisVerdict(UNKNOWN, "no-decisive-rule", None, n, None)

    if diam == 2 and 2 * max(g.degrees()) <= n - 1:
        labeling = label_from_antipodal_path(g, dirac_hamiltonian_path(a))
        return graceful("diameter-2-bounded-degree", labeling)

    budget = as_budget(deadline)
    spent = budget.spent  # a shared budget may have been charged before
    result = find_hamiltonian_path(a, budget)
    if isinstance(result, PathCertificate):
        labeling = label_from_antipodal_path(g, result)
        return graceful("antipodal-path-found", labeling)
    if result is None:
        return not_graceful(
            "antipodal-not-traceable",
            Obstruction("no-hamiltonian-path", nodes_searched=budget.spent - spent),
        )
    return AnalysisVerdict(UNKNOWN, "search-budget-exhausted", None, n, None)


def settle(g: Graph, deadline: int | SearchBudget | None = None):
    """The analysis policy: :func:`analyze`'s verdict and best labeling,
    with rn closed where the oracle or a span-(n+1) labeling closes it.

    A graceful verdict is closed already.  Otherwise, up to the oracle's
    vertex limit the exact rn closes both bounds and decides an Unknown
    verdict (rule ``exact-oracle``); above it, a non-graceful verdict with
    two antipodal components gets :func:`_label_two_components`' labeling
    as its upper bound.  The labeling is a RadioLabeling, TIMEOUT (the
    oracle or the search ran out of the one node budget that all three
    share and returned it; the verdict is analyze's), a
    ``no-span-n+1-labeling`` Obstruction when that search was exhausted,
    or None when none ran.  A component that is bipartite in the antipodal
    graph, with sides more than 1 apart in size, ends the search at once
    (the join of K5 + K7 with 3 independent vertices, whose components
    are K_{5,7} and K_3, spends no node); other negatives are proved by
    exhausting it.
    """
    budget = as_budget(deadline)
    verdict = analyze(g, budget)
    if verdict.status == RADIO_GRACEFUL:
        return verdict, verdict.certificate
    if g.n <= ORACLE_VERTEX_LIMIT:
        exact = radio_number_exact(g, deadline=budget)
        if exact is TIMEOUT:
            return verdict, TIMEOUT
        rn, witness = exact
        if verdict.status == UNKNOWN:
            status = RADIO_GRACEFUL if rn == g.n else NOT_RADIO_GRACEFUL
            verdict = replace(verdict, status=status, rule="exact-oracle")
        return replace(verdict, rn_lower=rn, rn_upper=rn), witness
    comps = getattr(verdict.certificate, "antipodal_components", None)
    if comps is None or len(comps) != 2:
        return verdict, None
    spent = budget.spent
    labeling = _label_two_components(g, comps, budget)
    if labeling is None:
        return verdict, Obstruction("no-span-n+1-labeling", comps, budget.spent - spent)
    if isinstance(labeling, RadioLabeling):
        verdict = replace(verdict, rn_upper=labeling.span)
    return verdict, labeling


# ---------------------------------------------------------------------------
# labeling file format


def dump_json(payload: dict) -> str:
    """The canonical JSON line of ``payload``: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def labeling_to_json(g: Graph, labeling: RadioLabeling) -> str:
    """Serialize as the interchange labeling format (stable byte output)."""
    return dump_json({
        "n": g.n,
        "diameter": diameter(g),
        "labels": list(labeling.labels),
        "span": labeling.span,
    })


def labeling_from_json(text: str) -> tuple[int, int, RadioLabeling]:
    """Parse the labeling format; returns (n, diameter, labeling)."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("labeling file: not a JSON object")
    missing = sorted({"diameter", "labels", "n", "span"} - payload.keys())
    if missing:
        raise ValueError(f"labeling file: missing {', '.join(missing)}")
    labels, diam = payload["labels"], payload["diameter"]
    # bool is an int subclass: JSON true/false must not pass as integers
    if not isinstance(labels, list) or any(
            type(x) is not int for x in [payload["n"], diam, payload["span"], *labels]):
        raise ValueError("labeling file: n, diameter, labels and span must be integers")
    labeling = RadioLabeling(tuple(labels))
    if payload["n"] != len(labels):
        raise ValueError("labeling file: n does not match labels length")
    if payload["span"] != labeling.span:
        raise ValueError("labeling file: span does not match labels")
    return len(labels), diam, labeling
