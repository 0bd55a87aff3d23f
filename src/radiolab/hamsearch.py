"""Exact, deadline-bounded searches for Hamiltonian paths and for l-th
powers of Hamiltonian cycles.

The searches are complete: ``None`` is returned only after the whole
search space has been exhausted, so callers may treat it as a proof of
non-existence.  An exhausted node budget yields :data:`TIMEOUT` instead.
One exact window-ordering search stands behind Hamiltonian paths, cycle
powers and the span-(n+1) labelings; it returns None and TIMEOUT itself,
and its callers pass both on.  Hamiltonian paths first rule out more
than two degree-one vertices, then try a constructive rotation-extension
path, then rule out a vertex whose removal leaves three components,
found by one lowpoint depth-first search; neither rule spends a search
node.  Every search reads the bitset rows of the ``Graph`` it is
given; the gracefulness analyzer hands it the antipodal graph.  Results
are deterministic: the window search tries fewest onward candidates
first, ties by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .budget import TIMEOUT, SearchBudget, as_budget
from .errors import BadPermutation, PreconditionFailed
from .graphcore import Graph, _bits, _reach, _words

__all__ = [
    "PathCertificate",
    "find_hamiltonian_path",
    "find_cycle_power",
    "dirac_hamiltonian_path",
    "verify_certificate",
]


@dataclass(frozen=True)
class PathCertificate:
    """A vertex ordering certifying a Hamiltonian path (kind ``path``) or
    the ``power``-th power of a Hamiltonian cycle (kind ``cycle_power``,
    where every two vertices at cyclic index distance <= power must be
    adjacent)."""

    ordering: tuple[int, ...]
    kind: str = "path"
    power: int = 1


def verify_certificate(g: Graph, cert: PathCertificate) -> bool:
    """Check a certificate against a graph, a cycle power below 1 being a
    ValueError; used verbatim on stored sequences and on found ones."""
    if sorted(cert.ordering) != list(range(g.n)):
        raise BadPermutation("ordering is not a permutation of the vertex set")
    order = cert.ordering
    n = g.n
    if cert.kind == "path":
        return all(g.is_edge(order[i], order[i + 1]) for i in range(n - 1))
    if cert.kind == "cycle_power":
        if cert.power < 1:
            raise ValueError("power must be >= 1")
        return n >= 3 and all(
            g.is_edge(order[i], order[(i + d) % n])
            for i in range(n) for d in range(1, min(cert.power, n - 1) + 1)
        )
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


# ---------------------------------------------------------------------------
# the window-ordering search


def _connected(mask: int, table: Sequence[int]) -> bool:
    """Whether the vertices of ``mask`` induce a connected subgraph of the
    symmetric relation ``table``; read directly from the least vertex's
    row when ``mask`` holds at most two vertices."""
    low = mask & -mask
    rest = mask ^ low
    if not rest & (rest - 1):
        return not rest or bool(table[low.bit_length() - 1] & rest)
    return _reach(table, low, mask)[0] == mask


# positions with more candidates than this score them in one numpy batch
_BATCH_CANDIDATES = 256


def _window_ordering(rows, constraints, allowed, budget: SearchBudget):
    """Distinct vertices for positions 0..len(allowed)-1: the one at k lies
    in ``allowed[k]`` and in ``rows[t][order[j]]`` for every ``(j, t)`` in
    ``constraints[k]`` (j < k); all sets are Python-int bitsets.

    Candidates go fewest onward candidates (the next position's candidate
    set once they are placed) first, ties by index; one that leaves the
    next position empty is skipped.  The tables that tie position k+1 to k
    are ANDed into one bare tie table per distinct set of them, built on
    first use and kept for the search, with the diagonal cleared so that
    no candidate counts itself.  The AND of no tables, for a position
    that nothing ties to the next, is every vertex of ``allowed``: a
    candidate counts the next position's set without itself.  A
    candidate's score is the integer ``count << shift | vertex``, where
    ``shift`` is the bit length of the vertex count, so the least score
    is the least (count, index).

    Head first: a position first computes only its least candidate, and
    its frame yields that one alone; a search that never backtracks reads
    nothing else.  On the first backtrack into the position, the frame
    scores every candidate again (the placed prefix and the free set are
    what they were then) and yields the rest of the full ranking.  No
    frame holds a ranking before that.  A position with more than
    ``_BATCH_CANDIDATES`` candidates scores them all at once: its tie
    table is packed on first use into an n x words array of little-endian
    uint64 rows, the candidates' rows are gathered and ANDed with the next
    position's set, and ``np.bitwise_count`` counts the rest; the least
    score gives the head, and the sorted scores the same ranking as the
    loop on smaller sets.

    When one table ties every position k >= 1 to k-1 and the positions
    take every vertex of ``allowed``, the ordering is a Hamiltonian path of
    that table, taken to be symmetric (adjacency rows are; the span-(n+1)
    labelings tie the labels on either side of the skipped one through
    another table, or none, and skip this rule).  The unplaced vertices
    must then induce a connected subgraph of it: checked at the root, and
    after each placement c.  The unplaced set was connected with c in it,
    so every unplaced vertex reaches an unplaced neighbour of c without
    passing through c; when those neighbours induce a connected subgraph,
    so does the whole unplaced set.  Only when they do not does a bitset
    search over the whole set decide.

    An explicit stack, one node charged per placement.  Returns the
    ordering, None (search space exhausted) or TIMEOUT (budget spent).
    """
    size = len(allowed)
    order: list[int] = []
    free = 0
    for mask in allowed:
        free |= mask
    ties = [frozenset(t for j, t in constraints[k] if j == k - 1) for k in range(1, size)]
    chain = None
    if ties and free.bit_count() == size:
        chain = next((rows[t] for t in ties[0] if all(t in s for s in ties)), None)
    if chain is not None and not _connected(free, chain):
        return None
    everyone = free
    shift = free.bit_length().bit_length()
    low = (1 << shift) - 1  # a score's vertex; a score up to ``low`` has count 0

    @cache
    def tie_table(s: frozenset) -> list[int]:
        """The AND of the tables in s (every vertex when s is empty),
        diagonal cleared, built on first use."""
        first, *rest = [rows[t] for t in s] or [[everyone] * everyone.bit_length()]
        table = [row & ~(1 << v) for v, row in enumerate(first)]
        for other in rest:
            table = [row & more for row, more in zip(table, other)]
        return table

    @cache
    def pack(s: frozenset) -> np.ndarray:
        """Tie table s as little-endian uint64 words, packed on first use."""
        return _words(tie_table(s))

    def scored(k: int, full: bool):
        """Position k's least candidate (None if there is none), or with
        ``full`` all its candidates in order."""
        cand = allowed[k] & free
        for j, t in constraints[k]:
            cand &= rows[t][order[j]]
        if k + 1 == size:
            if full:
                return _bits(cand)
            return (cand & -cand).bit_length() - 1 if cand else None
        base = allowed[k + 1] & free
        for j, t in constraints[k + 1]:
            if j < k:
                base &= rows[t][order[j]]
        if cand.bit_count() > _BATCH_CANDIDATES:
            # the same scores for all candidates at once, on packed rows
            table = pack(ties[k])
            width = table.shape[1] * 8
            cs = np.flatnonzero(np.unpackbits(
                np.frombuffer(cand.to_bytes(width, "little"), dtype=np.uint8),
                bitorder="little").view(bool))
            onward = np.frombuffer(base.to_bytes(width, "little"), dtype="<u8") & table[cs]
            keys = np.bitwise_count(onward).sum(axis=1, dtype=np.int64) << shift | cs
            keys = keys[keys > low]
            if full:
                return (np.sort(keys) & low).tolist()
            return int(keys.min()) & low if keys.size else None
        else:
            table = tie_table(ties[k])
            live = [key for c in _bits(cand)
                    if (key := (base & table[c]).bit_count() << shift | c) > low]
        if full:
            live.sort()
            return [key & low for key in live]
        return min(live) & low if live else None

    def candidates(k: int):
        """Position k's frame: the least candidate, then, on the first
        backtrack into k, the rest of the full ranking."""
        head = scored(k, False)
        if head is not None:
            yield head
            yield from scored(k, True)[1:]

    frames = [candidates(0)]
    while frames:
        c = next(frames[-1], None)
        if c is None:
            frames.pop()
            if order:
                free |= 1 << order.pop()
            continue
        if not budget.charge():
            return TIMEOUT
        order.append(c)
        free &= ~(1 << c)
        if len(order) == size:
            return order
        if (chain is not None and not _connected(chain[c] & free, chain)
                and not _connected(free, chain)):
            free |= 1 << order.pop()
            continue
        frames.append(candidates(len(order)))
    return None


# ---------------------------------------------------------------------------
# Hamiltonian path


def _rotation_extension_path(rows: Sequence[int]) -> list[int] | None:
    """Cheap deterministic constructive attempt (greedy growth plus
    rotations) on adjacency bitset rows.  Any returned list is a genuine
    Hamiltonian path; None just means the heuristic gave up.

    The path starts at the least vertex of least degree and grows at an
    end by its fresh neighbour of least (degree, index): the lowest set
    bit of ``fresh & cls`` for the first degree-class mask ``cls`` that
    meets the fresh neighbours, one AND per class instead of a walk over
    every fresh bit."""
    n = len(rows)
    if n == 0:
        return []
    # one bitset per degree class, in ascending degree, once per search
    by_degree: dict[int, int] = {}
    for v, row in enumerate(rows):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    classes = [by_degree[d] for d in sorted(by_degree)]
    start = (classes[0] & -classes[0]).bit_length() - 1
    path = [start]
    on_path = 1 << start
    while len(path) < n:
        extended = False
        for _ in range(2):
            fresh = rows[path[-1]] & ~on_path
            if fresh:
                for cls in classes:
                    pick = fresh & cls
                    if pick:
                        break
                w = (pick & -pick).bit_length() - 1
                path.append(w)
                on_path |= 1 << w
                extended = True
                break
            path.reverse()
        if extended:
            continue
        # both endpoints stuck: breadth-first search over rotation-reachable
        # endpoints, in both orientations
        improved = False
        for _ in range(2):
            seen = {path[-1]}
            queue = [path]
            while queue and not improved:
                cur = queue.pop(0)
                pos = {v: i for i, v in enumerate(cur)}
                for x in _bits(rows[cur[-1]]):
                    i = pos[x]
                    if i + 1 >= len(cur):
                        continue
                    rotated = cur[: i + 1] + cur[i + 1 :][::-1]
                    new_head = rotated[-1]
                    if rows[new_head] & ~on_path:
                        path = rotated
                        improved = True
                        break
                    if new_head not in seen:
                        seen.add(new_head)
                        queue.append(rotated)
            if improved:
                break
            path.reverse()
        if not improved:
            return None
    return path


def _splits_three_ways(rows: Sequence[int]) -> bool:
    """Whether removing some vertex splits its component into three or
    more pieces (adjacency bitset rows): one iterative lowpoint
    depth-first search.

    Removing u cuts off each child subtree of u whose lowpoint does not
    reach above u; unless u is a root, one more piece holds its parent."""
    n = len(rows)
    order = [-1] * n
    low = [0] * n
    pieces = [0] * n
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        pieces[root] = -1  # no piece holds the root's parent
        stack = [(root, iter(_bits(rows[root])))]
        while stack:
            v, rest = stack[-1]
            w = next(rest, None)
            if w is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= order[u]:
                        pieces[u] += 1
                        if pieces[u] >= 2:
                            return True
            elif order[w] < 0:
                order[w] = low[w] = count
                count += 1
                stack.append((w, iter(_bits(rows[w]))))
            else:
                low[v] = min(low[v], order[w])
    return False


def find_hamiltonian_path(g: Graph, deadline: int | SearchBudget | None = None):
    """A Hamiltonian path certificate, None (proof of non-existence), or
    TIMEOUT when the node budget runs out first.

    Two root rules answer None without search: more than two vertices of
    degree one, and, once the constructive attempt has failed, a vertex
    whose removal leaves three or more components (removing one vertex
    from a Hamiltonian path leaves at most two subpaths)."""
    rows, n = g._rows, g.n
    degree_one = [v for v in range(n) if rows[v].bit_count() == 1]
    if len(degree_one) > 2:
        return None

    constructed = _rotation_extension_path(rows)
    if constructed is not None:
        return PathCertificate(tuple(constructed), "path")
    if _splits_three_ways(rows):
        return None

    everyone = (1 << n) - 1
    # a path endpoint must be a degree-1 vertex whenever one exists
    allowed = [1 << min(degree_one) if degree_one else everyone] + [everyone] * (n - 1)
    constraints = [[]] + [[(k - 1, 0)] for k in range(1, n)]
    order = _window_ordering([rows], constraints, allowed, as_budget(deadline))
    if order is None or order is TIMEOUT:
        return order
    return PathCertificate(tuple(order), "path")


def dirac_hamiltonian_path(g: Graph) -> PathCertificate:
    """Constructive Hamiltonian path for min degree >= (n-1)/2.

    Adds a virtual universal vertex (making every non-adjacent pair satisfy
    the Ore degree-sum bound), repairs an arbitrary closed tour by the
    classic crossover exchange until it is a genuine Hamiltonian cycle,
    then removes the virtual vertex.  O(n^2), no search tree, total.
    """
    rows, n = g._rows, g.n
    if n == 0:
        return PathCertificate((), "path")
    if n == 1:
        return PathCertificate((0,), "path")
    if 2 * min(row.bit_count() for row in rows) < n - 1:
        raise PreconditionFailed("minimum degree below (n-1)/2")
    univ = n
    size = n + 1

    def adj(a: int, b: int) -> bool:
        return a == univ or b == univ or rows[a] >> b & 1

    tour = list(range(size))
    while True:
        bad = next(
            (i for i in range(size) if not adj(tour[i], tour[(i + 1) % size])), None
        )
        if bad is None:
            break
        # re-root so the non-edge is the closing pair of the list
        t = tour[bad + 1 :] + tour[: bad + 1]
        first, last = t[0], t[-1]
        for j in range(size - 1):
            if adj(t[j], last) and adj(t[j + 1], first):
                tour = t[: j + 1] + t[j + 1 :][::-1]
                break
        else:
            raise AssertionError("crossover pair must exist under the degree bound")
    k = tour.index(univ)
    ordering = tuple(tour[k + 1 :] + tour[:k])
    return PathCertificate(ordering, "path")


# ---------------------------------------------------------------------------
# powers of Hamiltonian cycles


def find_cycle_power(
    g: Graph, power: int, deadline: int | SearchBudget | None = None
):
    """The power-th power of a Hamiltonian cycle, None, or TIMEOUT.

    A cyclic window search over the adjacency rows: the vertex at
    position k must be adjacent to every vertex at cyclic index distance
    at most ``power`` among positions 0..k-1, wrap-around pairs included.
    Position 0 is pinned to the minimum-(degree, index) vertex, which
    loses no generality for a cycle.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    n = g.n
    if n < 3:
        return None
    needed = min(2 * power, n - 1)
    if min(g.degrees()) < needed:
        return None

    start = min(range(n), key=lambda v: (g.degree(v), v))
    allowed = [1 << start] + [(1 << n) - 1] * (n - 1)
    order = _window_ordering([g._rows], _cycle_power_constraints(n, power), allowed,
                             as_budget(deadline))
    if order is None or order is TIMEOUT:
        return order
    return PathCertificate(tuple(order), "cycle_power", power)


def _cycle_power_constraints(n: int, power: int) -> list[list[tuple[int, int]]]:
    """The window search's pairs for the power-th power of a Hamiltonian
    cycle on n positions: the last ``power`` positions before k, then, for
    the last ``power`` positions only, the wrap-around pairs (j, k) with
    n - k + j <= power not already in that window."""
    pairs = [(j, 0) for j in range(n)]
    constraints = [pairs[max(0, k - power):k] for k in range(n)]
    for k in range(max(0, n - power), n):
        constraints[k] += pairs[:max(0, min(k + power - n + 1, k - power))]
    return constraints
