"""Shared corpora and independent oracles for the test suite.

The oracles here are deliberately naive (permutation enumeration,
Floyd-Warshall, breadth-first search from each source, label-vector
search) and never share code with the implementations they check.
"""

import itertools
from collections import deque

import pytest

import radiolab as rl


def atlas_connected(max_n=7):
    """All connected graphs on 1..max_n vertices, from the graph atlas."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n < 1 or n > max_n:
            continue
        if n > 1 and not nx.is_connected(G):
            continue
        mapping = {v: i for i, v in enumerate(sorted(G.nodes()))}
        out.append(
            rl.Graph(n, [(mapping[u], mapping[v]) for u, v in G.edges()])
        )
    return out


# diameter 4 and antipodal components of 11 and 3 vertices, yet rn = 22:
# no span-(n+1) labeling exists
NO_SPAN_N1_EDGES = [(0, 5), (0, 9), (0, 10), (1, 3), (1, 5), (1, 7), (2, 4), (2, 6),
                    (3, 5), (3, 7), (3, 11), (4, 9), (4, 10), (4, 13), (5, 13), (6, 12),
                    (7, 12), (8, 11), (8, 13), (9, 10), (11, 13)]


@pytest.fixture
def distance_matrix_calls(monkeypatch):
    """The order of every graph whose distance matrix is computed during
    the test, in computation order; calls answered from a graph's kept
    matrix are not counted."""
    original = rl.graphcore._bfs_distances
    calls = []

    def counted(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(rl.graphcore, "_bfs_distances", counted)
    return calls


@pytest.fixture(scope="session")
def atlas7():
    return atlas_connected(7)


@pytest.fixture(scope="session")
def atlas6():
    return atlas_connected(6)


def random_graph(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return rl.Graph(n, edges)


def random_connected_graph(n, p, rng):
    """Random graph forced connected by chaining components together."""
    g = random_graph(n, p, rng)
    comps = rl.components(g)
    extra = [(comps[i][0], comps[i + 1][0]) for i in range(len(comps) - 1)]
    if extra:
        g = rl.Graph(n, list(g.edges()) + extra)
    return g


def spider(legs: str) -> rl.Graph:
    """Paths of the given lengths joined at vertex 0."""
    edges, n = [], 1
    for length in map(int, legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return rl.Graph(n, edges)


# ---------------------------------------------------------------------------
# independent oracles


def floyd_warshall(g):
    """Naive O(n^3) all-pairs distances; INF encoded as None."""
    n = g.n
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def bfs_distances(n, edges):
    """All-pairs distances of the graph on 0..n-1 with the given edges, by
    one queue-driven breadth-first search per source over adjacency lists
    built here; -1 marks pairs in different components."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] == -1:
                    row[w] = row[u] + 1
                    queue.append(w)
        out.append(row)
    return out


def brute_has_ham_path(g):
    """Permutation enumeration with no heuristics beyond prefix pruning."""
    n = g.n
    if n == 1:
        return True

    def extend(prefix, used):
        if len(prefix) == n:
            return True
        for v in range(n):
            if v not in used and g.is_edge(prefix[-1], v):
                if extend(prefix + [v], used | {v}):
                    return True
        return False

    return any(extend([s], {s}) for s in range(n))


def brute_has_ham_cycle(g):
    n = g.n
    if n < 3:
        return False
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        if all(g.is_edge(order[i], order[(i + 1) % n]) for i in range(n)):
            return True
    return False


def brute_radio_number(g):
    """Smallest span by label-vector search, completely independent of the
    branch-and-bound oracle.  Only sane for n <= 5."""
    n = g.n
    dist = floyd_warshall(g)
    diam = max(max(row) for row in dist)
    assert diam != float("inf")

    def exists_with_span(s):
        def assign(vertex, labels):
            if vertex == n:
                return True
            for f in range(1, s + 1):
                if f in labels:
                    continue
                ok = all(
                    abs(f - labels[u]) + dist[u][vertex] >= diam + 1
                    for u in range(vertex)
                )
                if ok and assign(vertex + 1, labels + [f]):
                    return True
            return False

        return assign(0, [])

    s = n
    while not exists_with_span(s):
        s += 1
    return s


def brute_radio_number_by_orderings(g):
    """Smallest span over every vertex ordering of the greedy labeling that
    gives each vertex, in order, the least label every earlier vertex
    allows.  An optimal labeling read in label order is one such ordering,
    and greedy labels never exceed it, so the minimum is rn.  Enumerates
    all n! orderings with no pruning; sane for n <= 8."""
    n = g.n
    dist = floyd_warshall(g)
    diam = max(max(row) for row in dist)
    assert diam != float("inf")
    best = float("inf")

    def extend(order, labels):
        nonlocal best
        if len(order) == n:
            best = min(best, labels[-1])
            return
        for v in range(n):
            if v in order:
                continue
            f = max([1] + [fu + diam + 1 - dist[u][v]
                           for u, fu in zip(order, labels)])
            extend(order + [v], labels + [f])

    extend([], [])
    return best
