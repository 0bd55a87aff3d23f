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

from operator import index
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
    """Simple undirected graph.

    The adjacency is one bitset row per vertex, read as is by every
    search: ``_rows[v]`` is a Python int whose bit w is set when w is a
    neighbour of v.  Rows take up to n²/8 bytes, 1/32 of the int32
    distance matrix every analysis builds; the search that builds it also
    holds an n x n byte mask, bitsets the size of the rows and one bitset
    gather of at most 512 KB (the columns of a block of rows, or a block
    of the longer lists' remaining entries; a single list when it alone
    is larger), so the rows are a small share of the peak.
    A search that jumps (see ``_bfs_distances``) also holds ball lists of
    at most 8(2m+n) entries of 12 bytes, and one jump gathers at most 8
    times the top-down limit, 2.8(2m+n)·ceil(n/64) entries.  But a
    sparse graph of more than about 10^5 vertices costs more to build
    than as neighbour sets, a row being as long as its highest
    neighbour's index.

    The distance matrix and the diameter (UNREACHABLE when the graph is
    disconnected) are kept on the graph once computed.
    """

    __slots__ = ("n", "num_edges", "_rows", "_distances", "_diameter")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        rows = [0] * n
        for u, v in edges:
            u, v = index(u), index(v)  # a numpy integer would wrap in 1 << v
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.num_edges = sum(map(int.bit_count, rows)) // 2
        self._rows: tuple[int, ...] = tuple(rows)
        self._distances: Optional[np.ndarray] = None
        self._diameter: Optional[int] = None

    @classmethod
    def _trusted(cls, rows: tuple[int, ...]) -> "Graph":
        """A graph from bitset rows the caller guarantees to be symmetric
        and free of diagonal bits, with no per-edge checks."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g.num_edges = sum(map(int.bit_count, rows)) // 2
        g._rows = rows
        g._distances = None
        g._diameter = None
        return g

    def neighbors(self, v: int) -> list[int]:
        """The neighbours of v in increasing order."""
        return _bits(self._rows[v])

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self._rows]

    def is_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in sorted order."""
        for u, row in enumerate(self._rows):
            for w in _bits(row >> u + 1):
                yield (u, u + 1 + w)

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph on ``vertices``; new vertex i is old vertices[i]."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("vertex list for induced subgraph has repeats")
        if not all(0 <= v < self.n for v in index):
            raise ValueError(f"induced subgraph vertex outside 0..{self.n - 1}")
        edges = [
            (index[u], index[v])
            for u in vertices
            for v in _bits(self._rows[u])
            if u < v and v in index
        ]
        return Graph(len(vertices), edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


# ---------------------------------------------------------------------------
# metrics


def _words(rows: Sequence[int]) -> np.ndarray:
    """Bitset rows over ``len(rows)`` vertices as an n x ceil(n/64) array
    of little-endian uint64 words: vertex v is bit v % 64 of word v // 64."""
    width = (len(rows) + 63) // 64 * 8
    return np.frombuffer(
        b"".join(row.to_bytes(width, "little") for row in rows), dtype="<u8"
    ).reshape(len(rows), width // 8)


def _csr(rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The sizes and the concatenation of the lists of set bits of bitset
    rows over ``len(rows)`` vertices, each list ascending: the sizes are
    the rows' bit counts, the lists the flat indices of the rows'
    unpacked bool mask, modulo n."""
    n = len(rows)
    words = _words(rows)
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")
    return (np.bitwise_count(words).sum(axis=1, dtype=np.intp),
            np.flatnonzero(bits.view(bool)) % n)


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


# a level whose top-down step would gather more entries than this share of
# the words one bitset step gathers takes the bitset step.  Paths need more
# than 128/n to stay top-down (0.21 at n = 600), and the second level of
# W(8), at 0.49, is faster by bitset.  Re-scanned with the column step: at
# shares of 0.2 to 0.4, P600, C601, PG(2,13..23), W(5..8) and ER(23) each
# take within 10% of their best time, P600 and C601 take 4.5-5 times it at
# 0.1, and W(8) 1.33 times it at 0.5.
_TOP_DOWN_SHARE = 0.35

# words of balls that one block of a bitset step gathers at most.  A
# block of 2**16 words (512 KB) keeps its gather and its new rows in a
# core's 2 MB L2 cache (a 2-core Xeon): a bitset level of PG(2,49) takes
# 12 ms at 2**15 or 2**16 and 17-18 ms at 2**18 or 2**20, and PG(2,23) and
# W(8) take their least time at 2**15 to 2**16.
_BITSET_BLOCK_WORDS = 1 << 16

# levels one ball jump advances.  With no cap, R = 4 takes P600, C1201 and
# the 900-vertex lollipop in 2.0, 1.1 and 1.4 times the time of R = 8, and
# R = 16 in 0.93, 0.94 and 0.74 times it; but R = 16 doubles the lists,
# puts a path's balls over the cap, and helps only graphs whose search runs
# past level 16.
_JUMP_RADIUS = 8

# the ball lists are built only when they hold at most this many times the
# entries of the closed lists.  The w x 1200/w grids hold 5.3, 7.7 and 10.2
# times as many at w = 1, 2, 3, and with no cap they jump in 0.54, 0.81
# and 1.10 of the time of single levels.
_BALL_CAP = 8

# a value above any distance: unreached pairs start from it when a jump
# keeps each pair's least candidate
_ABOVE = np.iinfo(np.int32).max


def _bfs_distances(g: Graph) -> np.ndarray:
    """The distance matrix of ``g``, computed afresh.

    The breadth-first searches from all sources advance together, one
    level per step, over closed neighbourhoods: the list of v holds v
    and its neighbours, so no list is empty (``reduceat`` would return
    the element at the start of an empty segment instead of nothing).
    Levels 0 and 1 are read straight from the lists: one scatter writes
    1 at ``s*n + w`` for every w in the list of s, and the diagonal is
    then rewritten as 0.  Each later level takes one of two steps:

    - top-down: the frontier is the list of flat indices ``s*n + v`` of
      the pairs at the last distance k, and each pair (s, w) with w in
      the list of v is a candidate, kept while UNREACHABLE.  Duplicates
      are removed in place, with no n x n scratch and no sort: the
      candidates write distinct tags below UNREACHABLE into ``dist``,
      and those that read their own tag back are kept, one per pair;
    - bitset: row s of ``balls`` is the ball of radius k around s,
      bit-packed into uint64 words (vertex v is bit v % 64 of word
      v // 64), and the ball of radius k+1 is the OR of the balls in the
      list of s.  With c the median list length, entry j of every list,
      for each j < c, makes one column, a list shorter than c repeating
      its last entry (an OR takes a ball twice as it takes it once).  A
      block of ``max(1, 2**16 // (c * ceil(n/64)))`` rows gathers the
      balls of all its columns into one buffer, and
      ``bitwise_or.reduce`` ORs them, one column after another, into the
      block's new balls.  The entries past c, in the longer lists only,
      go through one ``bitwise_or.reduceat`` per block of
      ``max(1, 2**16 // (t * ceil(n/64)))`` of those lists, t the
      longest such remainder.  No gather holds more than 2**16 words, or
      one list.  A regular graph has no remainder at all, and stars and
      lollipops, whose median list is short, take most of their step
      there.  The new bits are unpacked whole into an n x n mask
      (little-endian words, so the ``uint8`` view puts vertex v at bit v
      of its row) and written in one go.

    A top-down step gathers the list sizes of its frontier's columns, a
    bitset step about (2m+n) * ceil(n/64) words.  A level whose top-down
    step would gather more than ``_TOP_DOWN_SHARE`` of the bitset step's
    words takes the bitset step: ``balls`` is packed from ``dist >= 0``
    when it follows a top-down level, and the frontier is read back from
    the mask's bool view by ``np.flatnonzero`` when a top-down level
    follows it.  Paths and cycles, with two pairs per row and level,
    stay top-down; on dense graphs every level after the first takes
    the bitset step.

    Every step counts the pairs it writes, and the search stops once no
    pair is left UNREACHABLE: a connected graph ends with the level that
    writes its last pair, and no step runs after it.  A disconnected
    graph ends after the first level that finds nothing.

    A third step, the ball jump, advances R = ``_JUMP_RADIUS`` levels at
    once.  Once R levels are written, row v of ``dist`` is the ball of
    radius R around v with each vertex's distance, and one
    ``np.flatnonzero`` reads it as the ball list of v: the (w, j) with
    1 <= j = d(v, w) <= R.  The lists are built once, at level R, and
    only if that level did not take the bitset step and they hold at
    most ``_BALL_CAP`` times the entries of the closed lists.  From then
    on a level that would take the top-down step jumps instead while the
    jump gathers at most R times the top-down limit: each pair (s, w)
    with (w, j) in the ball list of v, for a pair (s, v) at the
    frontier's distance K, is a candidate at K + j.  The UNREACHABLE
    candidates are de-duplicated by tags, which counts the pairs the
    jump writes; when no pair has two, each is written directly, and
    otherwise each keeps its least (``np.minimum.at`` from a value above
    any distance).  The pairs at K + R are the next frontier.  This is
    exact.  A shortest s-w path of length K + j, 1 <= j <= R, passes
    a vertex v with d(s, v) = K and d(v, w) = j, so (s, w) has a
    candidate at d(s, w); and no candidate lies below it, since
    d(s, w) <= d(s, v) + d(v, w) by the triangle inequality.  No pair
    beyond K + R has a candidate, and the pairs within K are written
    already.  Paths, cycles and the tail of a lollipop jump.  A graph
    whose level R takes the bitset step keeps the single levels: on P9
    to P12 and the small tadpoles, building the lists there cost 8-20%
    more than it saved.  A 40 x 40 grid keeps them too.
    """
    n = g.n
    size, closed = _csr([row | 1 << v for v, row in enumerate(g._rows)])
    dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(size, out=bounds[1:])
    limit = _TOP_DOWN_SHARE * len(closed) * ((n + 63) // 64)
    owner = np.repeat(np.arange(n), size)
    near = owner * n + closed
    dist.reshape(-1)[near] = 1
    np.fill_diagonal(dist, 0)
    # the pairs at distance 1 in column v are the neighbours of v
    work, left, level = (size - 1) @ size, n * n - len(closed), 1
    frontier = balls = plan = ball_lists = None
    while work and left:
        # the lists are built only at a level R that no bitset step wrote
        if level == _JUMP_RADIUS and balls is None:
            ball_lists = _ball_lists(dist, len(closed))
        if work <= limit:
            if frontier is None:
                # read from level 1's scatter, or from the last bitset level
                frontier = (near[owner != closed] if balls is None
                            else np.flatnonzero(mask.view(bool)))
                v, balls = frontier % n, None
                count = size[v]
            reach = None if ball_lists is None else ball_lists[0][v]
            if reach is not None and reach.sum() <= _JUMP_RADIUS * limit:
                level += _JUMP_RADIUS
                frontier, v, written = _top_down(dist, level, frontier, v, reach,
                                                 *ball_lists[1:])
            else:
                level += 1
                frontier, v, written = _top_down(dist, level, frontier, v, count, bounds,
                                                 closed)
            count = size[v]
            work = count.sum()
        else:
            level += 1
            if balls is None:
                balls = _pack(dist >= 0)
                if plan is None:
                    plan = _bitset_plan(size, closed, bounds, balls.shape[1])
            frontier = None
            grown = _bitset_level(balls, *plan)
            new = np.bitwise_xor(grown, balls, out=balls)
            balls = grown
            found = np.bitwise_count(new).sum(axis=1, dtype=np.intp)
            # the pairs at one distance are symmetric: row counts are column counts
            written, work = found.sum(), found @ size
            if written:
                mask = np.unpackbits(new.view(np.uint8), axis=1, count=n, bitorder="little")
                np.copyto(dist, level, where=mask.view(bool))
        left -= written
    return dist


def _ball_lists(dist, closed_entries):
    """The ball lists of a matrix written up to distance R =
    ``_JUMP_RADIUS``: their sizes, offsets, vertices and the distances
    less R, the (w, d(v, w) - R) with d(v, w) >= 1 in row-major order;
    None when they hold more than ``_BALL_CAP * closed_entries``
    entries."""
    inside = dist > 0
    if np.count_nonzero(inside) > _BALL_CAP * closed_entries:
        return None
    flat = np.flatnonzero(inside)
    owner, lists = np.divmod(flat, len(dist))
    sizes = np.bincount(owner, minlength=len(dist))
    bounds = np.zeros(len(dist) + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    return sizes, bounds, lists, dist.reshape(-1)[flat] - _JUMP_RADIUS


def _top_down(dist, level, frontier, v, count, bounds, lists, gaps=None):
    """Write ``level`` at the UNREACHABLE pairs (s, w) with w in the list
    of v (``lists[bounds[v]:bounds[v + 1]]``) for a pair (s, v) of
    ``frontier`` (flat indices ``s*n + v``; ``count`` the sizes of the
    lists), and return their flat indices, their columns and how many
    pairs were written.

    With ``gaps``, the ball lists of a jump, entry e puts its pair at
    ``level + gaps[e]``: each pair keeps its least candidate, and only
    the pairs at ``level`` are returned, while the count takes in every
    pair written."""
    flat = dist.reshape(-1)
    ends = np.cumsum(count)
    entry = np.repeat(bounds[1:][v] - ends, count) + np.arange(ends[-1])
    candidates = np.repeat(frontier - v, count) + lists[entry]
    unreached = flat[candidates] == UNREACHABLE
    candidates = candidates[unreached]
    tags = np.arange(-2, -2 - len(candidates), -1, dtype=np.int32)
    flat[candidates] = tags
    pairs = candidates[flat[candidates] == tags]
    if gaps is None:
        flat[pairs] = level
        return pairs, pairs % len(dist), len(pairs)
    gaps = gaps[entry[unreached]]
    if len(pairs) == len(candidates):
        # one candidate per pair: its distance
        flat[pairs] = level + gaps
        last = pairs[gaps == 0]
    else:
        flat[pairs] = _ABOVE
        np.minimum.at(flat, candidates, level + gaps)
        # a pair's candidates lie at or above its distance: those of the
        # pairs at ``level`` all have gap 0
        last = pairs[flat[pairs] == level]
    return last, last % len(dist), len(pairs)


def _pack(member: np.ndarray) -> np.ndarray:
    """The rows of a boolean n x n matrix as little-endian uint64 words."""
    n = len(member)
    packed = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
    packed[:, :(n + 7) // 8] = np.packbits(member, axis=1, bitorder="little")
    return packed.view("<u8")


def _bitset_plan(size, closed, bounds, width):
    """The gathers of a bitset step over balls of ``width`` words, laid
    out once per search from the lists (sizes ``size``, offsets
    ``bounds``, entries ``closed``).  The heads: for each block of rows,
    entry j of their lists for each j below c, the median list length,
    one column per j, a shorter list repeating its last entry.  The
    tails: for each block of the longer lists, their rows, their entries
    past c and the offsets of those in the block, for ``reduceat``.  No
    block gathers more than ``_BITSET_BLOCK_WORDS`` words, or one
    list."""
    n = len(size)
    # the least length that more than half the lists do not exceed
    c = int(np.searchsorted(np.cumsum(np.bincount(size)), n // 2, side="right"))
    columns = closed[np.minimum(bounds[:-1] + np.arange(c)[:, None], bounds[1:] - 1)]
    longer = np.flatnonzero(size > c)
    rows = max(1, _BITSET_BLOCK_WORDS // (c * width))
    heads = [columns[:, first:first + rows] for first in range(0, n, rows)]
    if not len(longer):
        return heads, []
    extra = size[longer] - c
    ends = np.cumsum(extra)
    starts = ends - extra
    rest = closed[np.repeat(bounds[longer] + c - starts, extra) + np.arange(ends[-1])]
    rows = max(1, _BITSET_BLOCK_WORDS // (int(extra.max()) * width))
    tails = [(longer[first:first + rows],
              rest[starts[first]:ends[min(first + rows, len(longer)) - 1]],
              starts[first:first + rows] - starts[first])
             for first in range(0, len(longer), rows)]
    return heads, tails


def _bitset_level(balls, heads, tails):
    """The balls one level wider: row s is the OR of the rows of ``balls``
    in the list of s, gathered as :func:`_bitset_plan` lays out.  A head
    block's columns are gathered together into one reused buffer and
    ORed one column after another by ``bitwise_or.reduce`` into the
    block's new rows; then each tail block's entries are ORed by one
    ``reduceat`` into the rows of its lists."""
    width = balls.shape[1]
    grown = np.empty_like(balls)
    gathered = np.empty(heads[0].size * width, dtype=balls.dtype)
    first = 0
    for block in heads:
        part = gathered[:block.size * width].reshape(*block.shape, width)
        # the indices are valid; "clip" lets ``take`` write straight into
        # ``part``, where "raise" would gather into a buffer first
        balls.take(block, axis=0, out=part, mode="clip")
        np.bitwise_or.reduce(part, axis=0, out=grown[first:first + block.shape[1]])
        first += block.shape[1]
    for rows, entries, starts in tails:
        grown[rows] |= np.bitwise_or.reduceat(balls[entries], starts, axis=0)
    return grown


def diameter(g: Graph) -> int:
    """The largest distance, read from the distance matrix once and kept
    on the graph; Disconnected for a disconnected or empty graph."""
    if g.n == 0:
        raise Disconnected("diameter of the empty graph is undefined")
    if g._diameter is None:
        dist = all_pairs_distances(g)
        g._diameter = UNREACHABLE if (dist == UNREACHABLE).any() else int(dist.max())
    if g._diameter == UNREACHABLE:
        raise Disconnected("graph is disconnected")
    return g._diameter


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

    In a bipartite graph (one with a :func:`bipartition`) every cycle
    alternates sides and no edge has both ends at one distance, so
    the roots are only the vertices on the side of vertex 0 and the odd
    test is skipped.  Roots go in blocks of ``max(1, 2**18 // (2m))``
    rows.  Every temporary holds the block's rows at no more than one
    column per neighbour-list entry, so it holds at most max(2**18, 2m)
    entries whatever n is.
    """
    if g.num_edges == 0:
        return None
    dist = all_pairs_distances(g)
    parts = bipartition(g)
    degree, neighbours = _csr(g._rows)
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
    """Connected components as sorted vertex lists, ordered by minimum
    vertex: one :func:`_reach` from the least vertex not yet reached."""
    out = []
    left = (1 << g.n) - 1
    while left:
        reached = _reach(g._rows, left & -left)[0]
        out.append(_bits(reached))
        left ^= reached
    return out


def _reach(rows: Sequence[int], start: int, within: int = -1) -> tuple[int, int]:
    """The vertices a breadth-first search over bitset rows reaches from
    the vertex set ``start`` inside the vertex set ``within`` (``start``
    included), and those of them at odd level: one level per step, the
    OR of the frontier's rows, read directly for a single vertex."""
    reached = frontier = start
    odd = level = 0
    while frontier:
        if frontier & (frontier - 1):
            step = 0
            for v in _bits(frontier):
                step |= rows[v]
        else:
            step = rows[frontier.bit_length() - 1]
        frontier = step & within & ~reached
        reached |= frontier
        level += 1
        if level & 1:
            odd |= frontier
    return reached, odd


def antipodal(g: Graph) -> Graph:
    """Graph joining exactly the vertex pairs at distance diam(g).

    Its bitset rows are those of the boolean mask ``dist == diam`` with
    the diagonal cleared (which matters only for a single vertex, whose
    diameter is 0): beyond the distance matrix this needs the n-by-n mask
    and its packed bits, and builds no neighbour sets.
    """
    mask = all_pairs_distances(g) == diameter(g)
    np.fill_diagonal(mask, False)
    return Graph._trusted(tuple(_bit_rows(mask)))


def _bit_rows(mask: np.ndarray) -> list[int]:
    """Row v of a boolean matrix as a Python-int bitset (bit w = column w)."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(x: int) -> list[int]:
    """Indices of the set bits of x, in increasing order: peeled from the
    top, so the int shrinks at every step, then reversed once."""
    out = []
    while x:
        b = x.bit_length() - 1
        out.append(b)
        x ^= 1 << b
    out.reverse()
    return out


def complement(g: Graph) -> Graph:
    everyone = (1 << g.n) - 1
    return Graph._trusted(
        tuple(everyone ^ row ^ (1 << v) for v, row in enumerate(g._rows))
    )


def bipartition(g: Graph) -> Optional[tuple[int, ...]]:
    """A 0/1 two-coloring, or None when an odd cycle exists.

    Each vertex is coloured by the parity of its breadth-first level from
    the least vertex of its component, which is colored 0
    (:func:`_odd_levels`).
    """
    left = (1 << g.n) - 1
    odd = 0
    while left:
        levels = _odd_levels(g._rows, (left & -left).bit_length() - 1)
        if levels is None:
            return None
        left ^= levels[0]
        odd |= levels[1]
    return tuple(odd >> v & 1 for v in range(g.n))


def _odd_levels(rows: Sequence[int], start: int) -> Optional[tuple[int, int]]:
    """The component of ``start`` and its vertices at odd breadth-first
    level from ``start``, as bitsets over ``rows``: one level per step,
    as in :func:`_reach`; None at the first level with an edge inside it.
    Every edge joins one level or two consecutive ones, so such an edge
    closes an odd cycle, and without one the parity of the level is a
    proper two-colouring of the component."""
    reached = frontier = 1 << start
    odd = 0
    at_odd = False
    while frontier:
        if frontier & (frontier - 1):
            step = 0
            for v in _bits(frontier):
                step |= rows[v]
        else:
            step = rows[frontier.bit_length() - 1]
        if step & frontier:
            return None
        frontier = step & ~reached
        reached |= frontier
        at_odd = not at_odd
        if at_odd:
            odd |= frontier
    return reached, odd


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
    rows = [[w + offset for w in _bits(row)] + [-1] * (width - row.bit_count())
            for row in g._rows]
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
            if sum(1 << mapping[w] for w in _bits(g._rows[u])) != h._rows[mapping[u]]:
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
