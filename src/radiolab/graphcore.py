"""Simple undirected graphs and the metric machinery built on them.

Vertices are dense integers ``0..n-1``.  Graphs are immutable after
construction, so they are safe to share between concurrent searches; the
one thing filled in later is the graph's distance matrix, computed on the
first :func:`all_pairs_distances` call and kept on the graph as a
read-only array.  Every metric here reads that one matrix.  Distance
matrices are numpy int arrays using :data:`UNREACHABLE` (= -1) for
cross-component pairs; disconnected inputs are not an error for distance
queries because antipodal-component analysis needs them.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .budget import TIMEOUT, SearchBudget, as_budget
from .errors import Disconnected

__all__ = [
    "UNREACHABLE",
    "Graph",
    "all_pairs_distances",
    "diameter",
    "girth",
    "antipodal",
    "antipodal_components",
    "complement",
    "bipartition",
    "components",
    "regularity",
    "moore_bound",
    "bipartite_moore_bound",
    "are_isomorphic",
]

UNREACHABLE = -1


class Graph:
    """Simple undirected graph with optional bipartition labels.

    ``parts``, when given, is a 0/1 label per vertex and every edge must
    join the two sides; constructors of incidence graphs use it to keep
    the point/line split around.
    """

    __slots__ = ("n", "parts", "num_edges", "_adj", "_distances")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        parts: Optional[Sequence[int]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self.n = n
        self.num_edges = m
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        if parts is not None:
            parts = tuple(int(x) for x in parts)
            if len(parts) != n or any(x not in (0, 1) for x in parts):
                raise ValueError("parts must be one 0/1 label per vertex")
            for u in range(n):
                for v in self._adj[u]:
                    if parts[u] == parts[v]:
                        raise ValueError(f"edge ({u},{v}) does not cross parts")
        self.parts = parts
        self._distances: Optional[np.ndarray] = None

    @classmethod
    def _trusted(
        cls, n: int, adj: tuple[frozenset[int], ...], num_edges: int
    ) -> "Graph":
        """A graph from adjacency sets the caller guarantees to be simple
        and symmetric, with no per-edge checks."""
        g = cls.__new__(cls)
        g.n = n
        g.num_edges = num_edges
        g._adj = adj
        g.parts = None
        g._distances = None
        return g

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self._adj]

    def is_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph on ``vertices``; new vertex i is old vertices[i]."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("vertex list for induced subgraph has repeats")
        edges = [
            (index[u], index[v])
            for u in vertices
            for v in self._adj[u]
            if u < v and v in index
        ]
        parts = None
        if self.parts is not None:
            parts = tuple(self.parts[v] for v in vertices)
        return Graph(len(vertices), edges, parts=parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self._adj == other._adj
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.n, self._adj, self.parts))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


# ---------------------------------------------------------------------------
# metrics


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Degrees and the concatenated neighbour lists, in iteration order."""
    degree = np.fromiter(map(len, g._adj), dtype=np.intp, count=g.n)
    neighbours = np.fromiter(
        chain.from_iterable(g._adj), dtype=np.intp, count=2 * g.num_edges
    )
    return degree, neighbours


def all_pairs_distances(g: Graph) -> np.ndarray:
    """BFS-exact all-pairs distances; UNREACHABLE marks cross-component pairs.

    Computed once per graph and kept on it: every later call returns the
    same read-only int32 array.
    """
    if g._distances is None:
        dist = _bfs_distances(g)
        dist.flags.writeable = False
        g._distances = dist
    return g._distances


def _bfs_distances(g: Graph) -> np.ndarray:
    """The distance matrix of ``g``, computed afresh.

    The breadth-first searches from all sources advance together, one
    level per step.  Row s of ``balls`` is the ball of radius k around s,
    bit-packed into uint64 words (vertex v is bit v % 64 of word v // 64).
    As the graph is undirected, the ball of radius k+1 around s is the
    union of the radius-k balls of s and of its neighbours: one
    ``bitwise_or.reduceat`` over the CSR neighbour lists.  Isolated
    vertices are left out of it, because ``reduceat`` returns the element
    at the start of an empty segment instead of nothing.  The bits new at
    level k are written as distance k.
    """
    n = g.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    degree, neighbours = _csr(g)
    has_neighbours = degree > 0
    if not has_neighbours.any():
        return dist
    starts = (np.cumsum(degree) - degree)[has_neighbours]
    vertices = np.arange(n)
    balls = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    balls[vertices, vertices >> 6] = np.left_shift(
        np.uint64(1), (vertices & 63).astype(np.uint64)
    )
    level = 0
    while True:
        level += 1
        grown = balls.copy()
        grown[has_neighbours] |= np.bitwise_or.reduceat(
            balls[neighbours], starts, axis=0
        )
        new = grown & ~balls
        rows, words = np.nonzero(new)
        if rows.size == 0:
            return dist
        bits = new[rows, words]
        first_column = words * 64
        while bits.size:
            lowest = bits & -bits
            # a power of two is exact in float64, so frexp gives its index
            columns = first_column + np.frexp(lowest.astype(np.float64))[1] - 1
            dist[rows, columns] = level
            bits ^= lowest
            left = bits != 0
            rows, first_column, bits = rows[left], first_column[left], bits[left]
        balls = grown


def diameter(g: Graph) -> int:
    if g.n == 0:
        raise Disconnected("diameter of the empty graph is undefined")
    dist = all_pairs_distances(g)
    if (dist == UNREACHABLE).any():
        raise Disconnected("graph is disconnected")
    return int(dist.max())


# entries in the largest temporary of one girth block
_GIRTH_BLOCK_ENTRIES = 1 << 18


def girth(g: Graph) -> Optional[int]:
    """Length of the shortest cycle, or None for acyclic graphs.

    Read from the distance matrix, root by root.  Seen from root s, an
    edge whose ends both lie at distance d closes a cycle of length at
    most 2d+1, and a vertex at distance d with two neighbours at distance
    d-1 closes one of length at most 2d.  A shortest cycle of length 2d+1
    (or 2d) shows exactly this pattern from any of its vertices, so the
    least such length over all roots is the girth.  UNREACHABLE entries
    never match.

    In a bipartite graph (``g.parts``, else :func:`bipartition`) every
    cycle alternates sides and no edge has both ends at one distance, so
    the roots are only the vertices on the side of vertex 0 and the odd
    test is skipped.  Roots go in blocks of ``max(1, 2**18 // (2m))``
    rows.  Every temporary holds the block's rows at no more than one
    column per neighbour-list entry, so it holds at most max(2**18, 2m)
    entries whatever n is.
    """
    if g.num_edges == 0:
        return None
    dist = all_pairs_distances(g)
    parts = g.parts if g.parts is not None else bipartition(g)
    degree, neighbours = _csr(g)
    owner = np.repeat(np.arange(g.n), degree)
    active = np.flatnonzero(degree)  # reduceat needs non-empty segments
    starts = (np.cumsum(degree) - degree)[active]
    forward = owner < neighbours
    ends_u, ends_v = owner[forward], neighbours[forward]
    if parts is None:
        roots, shortest = np.arange(g.n), 3
    else:
        roots, shortest = np.flatnonzero(np.asarray(parts) == parts[0]), 4
    rows = max(1, _GIRTH_BLOCK_ENTRIES // len(neighbours))
    best: Optional[int] = None
    for first in range(0, len(roots), rows):
        block = dist[roots[first:first + rows]]
        if parts is None:
            du, dv = block[:, ends_u], block[:, ends_v]
            level = du[(du == dv) & (du >= 0)]
            if level.size:
                odd = 2 * int(level.min()) + 1
                best = odd if best is None else min(best, odd)
        closer = block[:, neighbours] == np.repeat(block - 1, degree, axis=1)
        twice = np.add.reduceat(closer, starts, axis=1, dtype=np.int32) >= 2
        if twice.any():
            even = 2 * int(block[:, active][twice].min())
            best = even if best is None else min(best, even)
        if best == shortest:
            break
    return best


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum vertex."""
    return _row_components(_adjacency_rows(g))


def antipodal(g: Graph) -> Graph:
    """Graph joining exactly the vertex pairs at distance diam(g).

    Row v of ``dist == diam`` is the neighbour list of v; beyond the
    distance matrix this needs the n-by-n boolean mask and one row's
    index list at a time.  Each row becomes ``frozenset(set(ascending
    list))``, the way ``Graph.__init__`` builds it from sorted edges, so
    neighbour iteration order is that of the edge-list constructor.
    """
    diam = diameter(g)
    mask = all_pairs_distances(g) == diam
    np.fill_diagonal(mask, False)
    adj = tuple(frozenset(set(np.flatnonzero(row).tolist())) for row in mask)
    return Graph._trusted(g.n, adj, sum(map(len, adj)) // 2)


def _bit_rows(mask: np.ndarray) -> list[int]:
    """Row v of a boolean matrix as a Python-int bitset (bit w = column w)."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(x: int) -> list[int]:
    """Indices of the set bits of x, in increasing order."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _adjacency_rows(g: Graph) -> list[int]:
    """Row v is the neighbourhood of v as a Python-int bitset."""
    return [sum(1 << w for w in nbrs) for nbrs in g._adj]


def _antipodal_rows(g: Graph) -> list[int]:
    """Row v of ``dist == diam(g)`` as a Python-int bitset: the adjacency
    rows of the antipodal graph whenever g has an edge."""
    return _bit_rows(all_pairs_distances(g) == diameter(g))


def _row_components(rows: list[int]) -> list[list[int]]:
    """Connected components of the symmetric relation ``rows`` (bitset
    rows), as sorted vertex lists ordered by minimum vertex: a
    depth-first search in which each vertex reached ORs in its row once.
    """
    seen = 0
    out = []
    for start in range(len(rows)):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        comp = [start]
        stack = [start]
        while stack:
            new = rows[stack.pop()] & ~seen
            seen |= new
            for v in _bits(new):
                comp.append(v)
                stack.append(v)
        out.append(sorted(comp))
    return out


def antipodal_components(g: Graph) -> list[list[int]]:
    """``components(antipodal(g))``, read from the distance matrix
    without building the antipodal graph."""
    return _row_components(_antipodal_rows(g))


def complement(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.is_edge(u, v)
    ]
    return Graph(g.n, edges)


def bipartition(g: Graph) -> Optional[tuple[int, ...]]:
    """A 0/1 two-coloring, or None when an odd cycle exists.

    Deterministic: component roots are taken in increasing vertex order
    and always colored 0.
    """
    color: list[Optional[int]] = [None] * g.n
    for start in range(g.n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u):
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return tuple(color)  # type: ignore[arg-type]


def regularity(g: Graph) -> Optional[int]:
    degs = set(g.degrees())
    if len(degs) == 1:
        return degs.pop()
    return None


def moore_bound(delta: int, diam: int) -> int:
    """Largest possible order of a graph with max degree delta and diameter diam."""
    if delta < 1 or diam < 1:
        raise ValueError("need delta >= 1 and diameter >= 1")
    return 1 + delta * sum((delta - 1) ** i for i in range(diam))


def bipartite_moore_bound(delta: int, diam: int) -> int:
    """Largest possible order of a bipartite graph with max degree delta and diameter diam."""
    if delta < 1 or diam < 1:
        raise ValueError("need delta >= 1 and diameter >= 1")
    return 2 * sum((delta - 1) ** i for i in range(diam))


# ---------------------------------------------------------------------------
# isomorphism


def _renumber(keys: np.ndarray) -> np.ndarray:
    """Colour ids 0..k-1 for the rows of ``keys``: equal rows share one,
    and ids follow the lexicographic order of the rows."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    colours = np.zeros(len(keys), dtype=np.intp)
    colours[order[1:]] = np.cumsum((ranked[1:] != ranked[:-1]).any(axis=1))
    return colours


def _neighbour_table(g: Graph, width: int, offset: int) -> np.ndarray:
    """Row v lists the neighbours of v shifted by ``offset``, padded to
    ``width`` columns with the index ``-1``."""
    rows = [[w + offset for w in nbrs] + [-1] * (width - len(nbrs)) for nbrs in g._adj]
    return np.array(rows, dtype=np.intp).reshape(g.n, width)


def _refine(colours: np.ndarray, table: np.ndarray) -> Optional[np.ndarray]:
    """The stable refinement of a joint colouring of g (first half) and h
    (second half): each round splits classes by the multiset of
    neighbour colours.  None when some class has different sizes in the
    two graphs, which no isomorphism respecting the colouring allows."""
    n = len(colours) // 2
    while True:
        classes = int(colours.max()) + 1
        if not np.array_equal(np.bincount(colours[:n], minlength=classes),
                              np.bincount(colours[n:], minlength=classes)):
            return None
        # padding entries (index -1) read the appended colour -1
        around = np.sort(np.append(colours, -1)[table], axis=1)
        refined = _renumber(np.column_stack((colours, around)))
        if refined.max() + 1 == classes:
            return colours
        colours = refined


def are_isomorphic(
    g: Graph, h: Graph, deadline: int | SearchBudget | None = None
):
    """A vertex bijection g -> h preserving adjacency, None, or TIMEOUT.

    Individualization-refinement (B. D. McKay and A. Piperno, "Practical
    graph isomorphism, II", J. Symbolic Comput. 60, 2014) on one joint
    colouring of both graphs.  Vertices start coloured by their sorted
    distance rows and are refined by neighbour colours.  Each search
    node takes the smallest class with more than one vertex (ties by
    colour id), individualizes its least vertex x of g against each
    vertex y of h in that class in ascending order, splits every class
    by distance from x in g and from y in h, and refines again; a class
    whose sizes in g and h differ prunes the node.  A discrete colouring
    is returned as the bijection it defines, and only after an adjacency
    check.  Every isomorphism that respects a colouring survives in one
    of its children, so None is returned only after the whole search is
    exhausted: a proof of non-isomorphism.  One node is charged per
    individualization tried, on an explicit stack.
    """
    if g.n != h.n or g.num_edges != h.num_edges:
        return None
    if sorted(g.degrees()) != sorted(h.degrees()):
        return None
    budget = as_budget(deadline)
    n = g.n
    if n == 0:
        return ()
    dist_g, dist_h = all_pairs_distances(g), all_pairs_distances(h)
    width = max(g.degrees())
    table = np.concatenate((_neighbour_table(g, width, 0),
                            _neighbour_table(h, width, n)))
    adj_h = _adjacency_rows(h)
    frames: list[tuple[np.ndarray, int, Iterator[int]]] = []

    def enter(colours: Optional[np.ndarray]) -> Optional[tuple[int, ...]]:
        """Push the branches of a refined colouring, or return the
        bijection of a discrete one if it preserves adjacency."""
        if colours is None:
            return None
        sizes = np.bincount(colours[:n])
        if len(sizes) < n:
            cls = int(np.argmin(np.where(sizes > 1, sizes, n + 1)))
            x = int(np.flatnonzero(colours[:n] == cls)[0])
            frames.append((colours, x, iter(np.flatnonzero(colours[n:] == cls).tolist())))
            return None
        vertex_of = np.empty(n, dtype=np.intp)
        vertex_of[colours[n:]] = np.arange(n)
        mapping = vertex_of[colours[:n]].tolist()
        for u in range(n):
            if sum(1 << mapping[w] for w in g.neighbors(u)) != adj_h[mapping[u]]:
                return None
        return tuple(mapping)

    rows = np.sort(np.concatenate((dist_g, dist_h)), axis=1)
    mapping = enter(_refine(_renumber(rows), table))
    while mapping is None and frames:
        colours, x, candidates = frames[-1]
        y = next(candidates, None)
        if y is None:
            frames.pop()
            continue
        if not budget.charge():
            return TIMEOUT
        split = np.column_stack((colours, np.concatenate((dist_g[x], dist_h[y]))))
        mapping = enter(_refine(_renumber(split), table))
    return mapping
