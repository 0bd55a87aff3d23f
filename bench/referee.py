"""Independent referee for the benchmark's answers.

Nothing here imports radiolab: distances, the radio condition, antipodal
components, non-traceability proofs, certificate and isomorphism checks and
the closed forms are re-derived from the vertex count and edge list alone,
so a defect in the library cannot hide behind a shared helper.  Every check
raises :class:`Mismatch` when the library's answer is wrong.
"""

from __future__ import annotations

from collections import deque

import numpy as np


DP_LIMIT = 12
BLOCK = 128  # rows of the n-by-n work done at once


class Mismatch(Exception):
    """The library's answer disagrees with the referee."""


class RefGraph:
    """Plain adjacency sets built from a vertex count and an edge list.

    Distances are not cached: each check computes them once, in the
    smallest integer type that holds them, and drops them, so the referee
    holds no n-by-n matrix between checks."""

    __slots__ = ("n", "adj", "m")

    def __init__(self, n, edges):
        self.n = n
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.m = sum(len(s) for s in self.adj) // 2

    @classmethod
    def parse_edge_list(cls, text):
        edges, top = [], -1
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                u, v = (int(t) for t in line.split())
                edges.append((u, v))
                top = max(top, u, v)
        return cls(top + 1, edges)

    def edge_key(self):
        return tuple(sorted((u, v) for u in range(self.n) for v in self.adj[u] if u < v))

    def distances(self):
        """All-pairs BFS distances, -1 for unreachable pairs."""
        if self.n <= 64 or 2 * self.m <= 3 * self.n:
            return self._bfs_distances()
        return self._frontier_distances()

    def _dtype(self):
        return np.int8 if self.n < 128 else np.int16 if self.n < 32768 else np.int32

    def _bfs_distances(self):
        n = self.n
        dist = np.full((n, n), -1, dtype=self._dtype())
        for s in range(n):
            row = [-1] * n
            row[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if row[w] < 0:
                        row[w] = row[u] + 1
                        queue.append(w)
            dist[s] = row
        return dist

    def _frontier_distances(self):
        # a block of sources at a time; one BFS level is a gather over a
        # neighbour table padded with the always-empty column n
        n = self.n
        width = max(len(s) for s in self.adj)
        nbr = np.full((n, width), n, dtype=np.intp)
        for u, s in enumerate(self.adj):
            nbr[u, :len(s)] = list(s)
        dist = np.full((n, n), -1, dtype=self._dtype())
        for lo in range(0, n, BLOCK):
            rows = np.arange(lo, min(n, lo + BLOCK))
            block = dist[lo:lo + len(rows)]
            frontier = np.zeros((len(rows), n + 1), dtype=bool)
            frontier[np.arange(len(rows)), rows] = True
            reach = frontier[:, :n].copy()
            block[reach] = 0
            d = 0
            while True:
                d += 1
                nxt = frontier[:, nbr].any(axis=2) & ~reach
                if not nxt.any():
                    break
                block[nxt] = d
                reach |= nxt
                frontier[:, :n] = nxt
        return dist

    def diameter(self, dist=None):
        dist = self.distances() if dist is None else dist
        if (dist < 0).any():
            raise Mismatch("graph is disconnected")
        return int(dist.max())

    def degrees(self):
        return [len(s) for s in self.adj]

    def two_coloring(self):
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if color[w] < 0:
                        color[w] = 1 - color[u]
                        stack.append(w)
                    elif color[w] == color[u]:
                        return None
        return color

    def antipodal(self):
        dist = self.distances()
        us, vs = np.nonzero(np.triu(dist == self.diameter(dist), 1))
        return RefGraph(self.n, zip(us.tolist(), vs.tolist()))


def components(n, adj, removed=-1):
    seen = [False] * n
    if removed >= 0:
        seen[removed] = True
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [s], [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


# ---------------------------------------------------------------------------
# certificates


def violations(g: RefGraph, labels, dist=None):
    """Every pair u < v with |f(u)-f(v)| + d(u,v) < diam+1, as (u, v, slack)."""
    dist = g.distances() if dist is None else dist
    need = g.diameter(dist) + 1
    f = np.asarray(labels, dtype=np.int64)
    out = []
    for lo in range(0, g.n, BLOCK):
        slack = np.abs(f[lo:lo + BLOCK, None] - f[None, :]) + dist[lo:lo + BLOCK] - need
        us, vs = np.nonzero(slack < 0)
        keep = us + lo < vs
        out += zip((us[keep] + lo).tolist(), vs[keep].tolist(), slack[us[keep], vs[keep]].tolist())
    return out


def check_labeling(g: RefGraph, labels, span=None):
    """The radio condition |f(u)-f(v)| + d(u,v) >= diam+1 on every pair."""
    if len(labels) != g.n:
        raise Mismatch(f"labeling covers {len(labels)} vertices, graph has {g.n}")
    if g.n and min(labels) < 1:
        raise Mismatch("labels must be positive")
    if len(set(labels)) != g.n:
        raise Mismatch("labels are not distinct")
    if span is not None and max(labels) != span:
        raise Mismatch(f"labeling span {max(labels)}, expected {span}")
    bad = violations(g, labels)
    if bad:
        raise Mismatch(f"pair ({bad[0][0]},{bad[0][1]}) violates the radio condition")


def break_labeling(g: RefGraph, labels):
    """A valid labeling with two labels swapped so that it is no longer valid,
    and its violations.

    The vertex u whose label has the nearest other label t (gap below the
    diameter in every labeling here) keeps its label; its smallest neighbour
    v trades labels with the vertex holding t, so the edge uv ends with
    labels closer than the diameter allows."""
    f = list(labels)
    order = sorted(range(g.n), key=f.__getitem__)
    i = min(range(g.n - 1), key=lambda i: f[order[i + 1]] - f[order[i]])
    u, w = order[i], order[i + 1]
    v = min(g.adj[u] - {w})
    f[v], f[w] = f[w], f[v]
    bad = violations(g, f)
    if (min(u, v), max(u, v)) not in {(a, b) for a, b, _ in bad}:
        raise Mismatch(f"swapping labels of {v} and {w} leaves edge {u}{v} valid")
    return f, bad


def check_antipodal_split(g: RefGraph, claimed):
    """The claimed antipodal components are exactly the true ones, and more
    than one, so no Hamiltonian path of the antipodal graph exists."""
    truth = set(antipodal_components(g))
    if len(truth) < 2:
        raise Mismatch("antipodal graph is connected")
    if claimed is not None and {frozenset(c) for c in claimed} != truth:
        raise Mismatch("claimed antipodal components differ from the true ones")


def antipodal_components(g: RefGraph):
    """Components of the graph joining pairs at maximum distance, grown a
    whole BFS level at a time from the boolean antipodal matrix."""
    dist = g.distances()
    far = dist == g.diameter(dist)
    del dist
    seen = np.zeros(g.n, dtype=bool)
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = np.zeros(g.n, dtype=bool)
        comp[s] = True
        frontier = comp.copy()
        while frontier.any():
            frontier = far[frontier].any(axis=0) & ~comp
            comp |= frontier
        seen |= comp
        out.append(frozenset(np.flatnonzero(comp).tolist()))
    return out


def decisive_rule_applies(g: RefGraph):
    """Whether one of the paper's decisive rules covers a connected graph:
    diameter at most 2, bipartite with even diameter or diameter 3, or a
    disconnected antipodal graph.  No theorem settles the others."""
    dist = g.distances()
    diam = g.diameter(dist)
    if diam <= 2 or (g.two_coloring() is not None and (diam % 2 == 0 or diam == 3)):
        return True
    return len(antipodal_components(g)) > 1


def has_hamiltonian_path_dp(n, adj):
    """Bitmask dynamic programme over (visited set, endpoint); small n only."""
    if n <= 1:
        return True
    nbr = [sum(1 << w for w in adj[v]) for v in range(n)]
    ends = [0] * (1 << n)  # ends[mask]: bitset of possible path endpoints
    for v in range(n):
        ends[1 << v] = 1 << v
    for mask in range(1, 1 << n):
        e = ends[mask]
        while e:
            low = e & -e
            v = low.bit_length() - 1
            e ^= low
            fresh = nbr[v] & ~mask
            while fresh:
                wb = fresh & -fresh
                fresh ^= wb
                ends[mask | wb] |= wb
    return ends[(1 << n) - 1] != 0


def prove_not_traceable(g: RefGraph):
    """A reason no Hamiltonian path exists, or None when none is found.

    Disconnected graphs, three or more vertices of degree below two, a vertex
    whose removal leaves three or more components, or exhaustive dynamic
    programming up to ``DP_LIMIT`` vertices."""
    n, adj = g.n, g.adj
    if len(components(n, adj)) > 1:
        return "disconnected"
    if n > 2 and sum(1 for s in adj if len(s) < 2) > 2:
        return "three or more vertices of degree < 2"
    for v in range(n):
        if len(adj[v]) >= 3 and len(components(n, adj, removed=v)) >= 3:
            return f"removing vertex {v} leaves three or more components"
    if n <= DP_LIMIT and not has_hamiltonian_path_dp(n, adj):
        return "exhaustive dynamic programme"
    return None


def check_cycle_power(g: RefGraph, order, power):
    n = g.n
    if sorted(order) != list(range(n)):
        raise Mismatch("ordering is not a permutation")
    for i in range(n):
        for d in range(1, power + 1):
            j = (i + d) % n
            if j != i and order[j] not in g.adj[order[i]]:
                raise Mismatch(f"positions {i} and {j} are not adjacent")


def check_isomorphism(g: RefGraph, h: RefGraph, mapping):
    if sorted(mapping) != list(range(h.n)) or g.n != h.n:
        raise Mismatch("mapping is not a bijection")
    image = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edge_key()}
    if image != set(h.edge_key()):
        raise Mismatch("mapping does not carry edges onto edges")


# ---------------------------------------------------------------------------
# expected values


def rn_path(n):
    """Liu & Zhu (2005), shifted to labels starting at 1."""
    k = n // 2
    return 2 * k * k - 2 * k + 2 if n % 2 == 0 else 2 * k * k + 3


def rn_cycle(n):
    """Liu & Zhu (2005), shifted to labels starting at 1."""
    k, r = divmod(n, 4)
    phi = k + 1 if r == 1 else k + 2
    zero_based = (n - 2) // 2 * phi + 1 if r in (0, 2) else (n - 1) // 2 * phi
    return zero_based + 1


def check_family(g: RefGraph, family, q):
    """Order, degrees, diameter and parts of a family graph.

    A (q+1)-regular bipartite graph of diameter 3 (4) on the bipartite Moore
    bound's vertex count is the incidence graph of a projective plane
    (generalized quadrangle), so these checks identify the geometry."""
    degs = g.degrees()
    if family == "pg":
        want_n, want_deg, want_diam, bip = 2 * (q * q + q + 1), {q + 1}, 3, True
    elif family == "gq":
        want_n, want_deg, want_diam, bip = 2 * (q + 1) * (q * q + 1), {q + 1}, 4, True
    elif family in ("erq", "singer"):
        want_n, want_deg, want_diam, bip = q * q + q + 1, {q, q + 1}, 2, False
        if degs.count(q) != q + 1:
            raise Mismatch(f"{family} {q}: {degs.count(q)} absolute points, want {q + 1}")
    elif family == "mms":
        want_n, want_deg, want_diam, bip = 2 * q * q, {(3 * q - 1) // 2}, 2, False
    elif family == "cycle":
        want_n, want_deg, want_diam, bip = q, {2}, q // 2, q % 2 == 0
    elif family == "petersen":
        want_n, want_deg, want_diam, bip = 10, {3}, 2, False
    elif family == "path":
        want_n, want_deg, want_diam, bip = q, {1, 2}, q - 1, True
    else:
        raise ValueError(family)
    if g.n != want_n:
        raise Mismatch(f"{family} {q}: {g.n} vertices, want {want_n}")
    if not set(degs) <= want_deg:
        raise Mismatch(f"{family} {q}: degrees {sorted(set(degs))}, want {sorted(want_deg)}")
    diam = g.diameter()
    if diam != want_diam:
        raise Mismatch(f"{family} {q}: diameter {diam}, want {want_diam}")
    if bip and g.two_coloring() is None:
        raise Mismatch(f"{family} {q}: not bipartite")
