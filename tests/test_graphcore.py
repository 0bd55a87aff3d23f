import math
import random

import numpy as np
import pytest

import radiolab as rl
from radiolab import (
    UNREACHABLE,
    Disconnected,
    Graph,
    all_pairs_distances,
    antipodal,
    are_isomorphic,
    bipartite_moore_bound,
    bipartition,
    complement,
    components,
    diameter,
    girth,
    moore_bound,
    regularity,
)
from radiolab.graphcore import _bits, _reach

from conftest import (
    atlas_connected,
    bfs_distances,
    floyd_warshall,
    random_connected_graph,
    random_graph,
)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


def test_induced_subgraph_rejects_vertices_outside_the_graph():
    # -1 would otherwise index the last row and alias vertex 3
    for vertices in ([-1, 2], [0, 7]):
        with pytest.raises(ValueError):
            rl.path(4).induced_subgraph(vertices)


def test_graph_dedupes_edges():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_graph_takes_numpy_integer_edges():
    ends = np.arange(100)
    g = Graph(101, zip(ends, ends + 1))
    assert g == rl.path(101) and g.is_edge(99, 100)
    with pytest.raises(TypeError):
        Graph(3, [(0, 1.0)])


def test_distances_path3():
    g = Graph(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(g)
    assert d[0, 2] == 2 and d[0, 1] == 1 and d[0, 0] == 0


def test_distances_petersen_max_two():
    d = all_pairs_distances(rl.petersen())
    assert d.max() == 2


def test_distances_unreachable_sentinel():
    d = all_pairs_distances(Graph(4, [(0, 1), (2, 3)]))
    assert d[0, 2] == UNREACHABLE and d[1, 3] == UNREACHABLE


def _seeded_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 64)
    return random_graph(n, rng.uniform(0.05, 0.5), rng)


def _sparse_graph(n):
    # about two neighbours per vertex: several components, several levels
    return random_graph(n, 2 / max(n, 1), random.Random(n))


def _with_isolated_vertices():
    # every fifth vertex of a sparse random graph on 90 vertices is isolated
    rng = random.Random(90)
    edges = random_graph(90, 0.06, rng).edges()
    return Graph(90, [(u, v) for u, v in edges if u % 5 and v % 5])


def _dense_graph(n):
    # G(n, 1/2): every BFS level after the first takes the bitset step
    return random_graph(n, 0.5, random.Random(f"dense-{n}"))


def _lollipop():
    # K_40 on 0..39 with a 100-vertex tail from vertex 39: the second level
    # reaches nearly the whole clique from every row and takes the bitset
    # step, the last ones grow only the rows of far-apart vertices and hand
    # their frontier back to the top-down step
    clique = [(u, v) for u in range(40) for v in range(u + 1, 40)]
    return Graph(140, clique + [(v, v + 1) for v in range(39, 139)])


# rows of the bitset step are packed into 64-vertex words: the inputs below
# cross word boundaries, reach diameters above 64, and take both steps of
# the kernel (small levels top-down, large ones by bitset)
DISTANCE_INPUTS = (
    [pytest.param(lambda s=s: _seeded_graph(s), id=str(s)) for s in range(12)]
    + [
        pytest.param(lambda n=n: _sparse_graph(n), id=f"n{n}")
        for n in (0, 1, 63, 64, 65, 128, 129)
    ]
    + [
        pytest.param(lambda n=n: _dense_graph(n), id=f"dense{n}")
        for n in (63, 64, 65, 129)
    ]
    + [
        pytest.param(_with_isolated_vertices, id="isolated"),
        pytest.param(lambda: rl.path(70), id="path70"),
        pytest.param(lambda: rl.cycle(140), id="cycle140"),
        pytest.param(lambda: rl.projective_plane_incidence(7), id="pg7"),
        pytest.param(_lollipop, id="lollipop"),
    ]
)

# a share of 0 sends every level to the bitset step, an infinite one every
# level to the top-down step
FORCED_SHARES = (0.0, math.inf)

# ball jump radii forced with no cap on the ball lists: the lists are built
# at level 1 or 2, and with an infinite share every later level jumps
FORCED_RADII = (1, 2)

# the kernels as the module defines them, for spies that must not wrap spies
TOP_DOWN, BITSET_LEVEL = rl.graphcore._top_down, rl.graphcore._bitset_level
DEFAULT_SHARE = rl.graphcore._TOP_DOWN_SHARE


def _assert_distances(g, want, monkeypatch):
    """The kept matrix of g, and the matrices computed with every level
    forced to one step, or with the jump forced at small radii, all
    equal ``want``."""
    ours = all_pairs_distances(g)
    assert ours.dtype == np.int32 and ours.shape == (g.n, g.n)
    assert np.array_equal(ours, want)
    for share in FORCED_SHARES:
        monkeypatch.setattr(rl.graphcore, "_TOP_DOWN_SHARE", share)
        forced = rl.graphcore._bfs_distances(g)
        assert forced.dtype == np.int32 and np.array_equal(forced, want), share
    monkeypatch.setattr(rl.graphcore, "_BALL_CAP", math.inf)
    for radius in FORCED_RADII:
        monkeypatch.setattr(rl.graphcore, "_JUMP_RADIUS", radius)
        for share in (DEFAULT_SHARE, math.inf):
            monkeypatch.setattr(rl.graphcore, "_TOP_DOWN_SHARE", share)
            forced, steps = _distances_and_steps(g, monkeypatch)
            assert forced.dtype == np.int32 and np.array_equal(forced, want), (radius, share)
            if share == math.inf:
                # a jump runs when a level past R is left to write, or, in a
                # disconnected graph, to find that level R was the last
                connected = not (want == UNREACHABLE).any()
                assert ("jump" in steps) == (want.max(initial=0) >= radius + connected), steps


@pytest.mark.parametrize("make_graph", DISTANCE_INPUTS)
def test_distances_match_floyd_warshall(make_graph, monkeypatch):
    g = make_graph()
    want = np.array([[UNREACHABLE if d == float("inf") else d for d in row]
                     for row in floyd_warshall(g)], dtype=np.int32).reshape(g.n, g.n)
    _assert_distances(g, want, monkeypatch)
    # every level by bitset, one row per gathered block
    monkeypatch.setattr(rl.graphcore, "_BITSET_BLOCK_WORDS", 1)
    monkeypatch.setattr(rl.graphcore, "_TOP_DOWN_SHARE", 0.0)
    assert np.array_equal(rl.graphcore._bfs_distances(g), want)


def _clique_with_tail(k, tail):
    return ([(u, v) for u in range(k) for v in range(u + 1, k)]
            + [(v, v + 1) for v in range(k - 1, k + tail - 1)])


def _sparse_with_isolated_vertices():
    # 600 vertices, about 1.5 neighbours each, every seventh vertex isolated
    rng = random.Random(600)
    edges = {tuple(sorted(rng.sample(range(600), 2))) for _ in range(450)}
    return [(u, v) for u, v in sorted(edges) if u % 7 and v % 7]


# graphs too large for Floyd-Warshall: long paths of levels, one vertex of
# degree 300, a dense block before a long tail, many small components
LARGE_DISTANCE_INPUTS = (
    pytest.param(600, [(v, v + 1) for v in range(599)], id="path600"),
    pytest.param(601, [(v, (v + 1) % 601) for v in range(601)], id="cycle601"),
    pytest.param(301, [(0, v) for v in range(1, 301)], id="star300"),
    pytest.param(360, _clique_with_tail(60, 300), id="k60-tail300"),
    pytest.param(600, _sparse_with_isolated_vertices(), id="sparse600"),
)


@pytest.mark.parametrize("n, edges", LARGE_DISTANCE_INPUTS)
def test_distances_match_breadth_first_reference(n, edges, monkeypatch):
    want = np.array(bfs_distances(n, edges), dtype=np.int32).reshape(n, n)
    _assert_distances(Graph(n, edges), want, monkeypatch)


def _distances_and_steps(g, monkeypatch):
    """The distances of g, and the steps, in order, that computing them
    takes.  No step may start once every pair is written; each top-down
    step and each jump must return its frontier without repeats, every
    pair of it at the level written, and count every pair it wrote."""
    steps = []

    def top_down(dist, level, frontier, v, count, bounds, lists, gaps=None):
        steps.append("top-down" if gaps is None else "jump")
        unwritten = np.count_nonzero(dist == UNREACHABLE)
        assert unwritten
        out = TOP_DOWN(dist, level, frontier, v, count, bounds, lists, gaps)
        assert len(np.unique(out[0])) == len(out[0])
        assert (dist.reshape(-1)[out[0]] == level).all()
        assert out[2] == unwritten - np.count_nonzero(dist == UNREACHABLE)
        return out

    def bitset_level(balls, *plan):
        steps.append("bitset")
        # ``balls`` holds a bit for every pair written so far
        assert np.bitwise_count(balls).sum() < len(balls) ** 2
        return BITSET_LEVEL(balls, *plan)

    monkeypatch.setattr(rl.graphcore, "_top_down", top_down)
    monkeypatch.setattr(rl.graphcore, "_bitset_level", bitset_level)
    return rl.graphcore._bfs_distances(g), steps


def test_each_level_takes_the_step_its_frontier_calls_for(monkeypatch):
    # level 1 comes from the lists.  A path's and a cycle's levels hold two
    # pairs per row: levels 2 to R top-down, then one jump per R levels, and
    # none after the one that writes the last pair, even when that jump's
    # own level is not empty (P601 and C592 end at a multiple of R)
    radius = rl.graphcore._JUMP_RADIUS
    for g, diam in ((rl.path(600), 599), (rl.path(601), 600),
                    (rl.cycle(600), 300), (rl.cycle(592), 296)):
        steps = _distances_and_steps(g, monkeypatch)[1]
        assert steps == ["top-down"] * (radius - 1) + ["jump"] * math.ceil(diam / radius - 1)
    # the plane's levels 2 and 3 reach 2m+n pairs per row each, and level 3
    # is its last
    assert _distances_and_steps(rl.projective_plane_incidence(7), monkeypatch)[1] == [
        "bitset", "bitset"]
    # the lollipop turns dense at the clique and sparse again along the tail
    steps = _distances_and_steps(_lollipop(), monkeypatch)[1]
    assert "top-down" in steps[steps.index("bitset"):]
    # a disconnected graph stops at the first level that finds nothing: its
    # level 2 writes (0, 2) and (2, 0), and level 3 finds nothing
    assert len(_distances_and_steps(Graph(6, [(0, 1), (1, 2), (3, 4)]), monkeypatch)[1]) == 2


def _wide_spread_graph(seed):
    # three hubs joined to a quarter to a half of a sparse random graph:
    # closed lists from 1 to about n/2 + 3 entries
    rng = random.Random(f"spread-{seed}")
    n = rng.randint(70, 200)
    edges = set(random_graph(n, 1.5 / n, rng).edges())
    for hub in rng.sample(range(n), 3):
        edges.update((min(hub, v), max(hub, v))
                     for v in rng.sample(range(n), rng.randint(n // 4, n // 2)) if v != hub)
    return n, sorted(edges)


# the bitset step ORs its columns (entry j of every list, short lists
# padded) and hands the longer lists' remaining entries to ``reduceat``:
# these inputs have one list far longer than the rest, a dense block
# before a tail, and lists of many lengths
COLUMN_INPUTS = (
    [pytest.param(301, [(0, v) for v in range(1, 301)], id="star300"),
     pytest.param(140, list(_lollipop().edges()), id="lollipop")]
    + [pytest.param(*_wide_spread_graph(seed), id=f"spread{seed}") for seed in range(6)]
)


@pytest.mark.parametrize("block", [1, 64, rl.graphcore._BITSET_BLOCK_WORDS])
@pytest.mark.parametrize("n, edges", COLUMN_INPUTS)
def test_bitset_step_matches_breadth_first_reference_in_every_block_size(n, edges, block,
                                                                        monkeypatch):
    monkeypatch.setattr(rl.graphcore, "_BITSET_BLOCK_WORDS", block)
    monkeypatch.setattr(rl.graphcore, "_TOP_DOWN_SHARE", 0.0)
    want = np.array(bfs_distances(n, edges), dtype=np.int32).reshape(n, n)
    assert np.array_equal(rl.graphcore._bfs_distances(Graph(n, edges)), want)


@pytest.mark.parametrize("block", [1, 64, 1 << 10, rl.graphcore._BITSET_BLOCK_WORDS])
def test_no_bitset_gather_holds_more_than_a_block(block, monkeypatch):
    # or one list, when a single list is longer than the block
    monkeypatch.setattr(rl.graphcore, "_BITSET_BLOCK_WORDS", block)
    graphs = [Graph(*param.values) for param in COLUMN_INPUTS]
    for g in graphs + [rl.projective_plane_incidence(23)]:
        size, closed = rl.graphcore._csr([row | 1 << v for v, row in enumerate(g._rows)])
        bounds = np.concatenate(([0], np.cumsum(size)))
        width = (g.n + 63) // 64
        heads, tails = rl.graphcore._bitset_plan(size, closed, bounds, width)
        assert np.concatenate([h[0] for h in heads]).shape == (g.n,)
        for h in heads:
            assert h.size * width <= block or h.shape[1] == 1
        for rows, entries, starts in tails:
            assert len(entries) * width <= block or len(rows) == 1


def test_diameter_girth_examples():
    assert diameter(rl.petersen()) == 2
    assert girth(rl.petersen()) == 5
    heawood = rl.projective_plane_incidence(2)
    assert diameter(heawood) == 3 and girth(heawood) == 6
    assert girth(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None  # tree
    with pytest.raises(Disconnected):
        diameter(Graph(4, [(0, 1), (2, 3)]))


def test_diameter_is_kept_on_the_graph(monkeypatch):
    g, split, empty = rl.cycle(9), Graph(4, [(0, 1), (2, 3)]), Graph(0, [])
    assert diameter(g) == 4
    # a graph from trusted rows starts with no diameter kept
    assert diameter(complement(rl.cycle(5))) == 2
    for h in (split, empty):
        with pytest.raises(Disconnected):
            diameter(h)

    def unread(h):
        raise AssertionError("distance matrix read again")

    monkeypatch.setattr(rl.graphcore, "all_pairs_distances", unread)
    assert diameter(g) == 4
    # the disconnected outcome is kept too, and n = 0 still raises
    for h in (split, empty):
        with pytest.raises(Disconnected):
            diameter(h)


def test_girth_more_cases():
    assert girth(rl.cycle(9)) == 9
    assert girth(rl.complete(4)) == 3
    assert girth(rl.complete_bipartite(2, 3)) == 4
    assert girth(rl.path(6)) is None


def reference_girth(g):
    """Girth by a dict BFS from every root: the first non-tree edge seen
    from root r closes a cycle of length d(r,u)+d(r,v)+1."""
    best = None
    for root in range(g.n):
        depth = {root: 0}
        parent = {root: -1}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if best is not None and depth[u] * 2 >= best:
                break
            for v in g.neighbors(u):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    cycle = depth[u] + depth[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def girth_corpus(count, seed):
    """Seeded random graphs on 0..70 vertices: sparse and dense G(n,p),
    forests with a few extra edges, bipartite graphs (even girth only) and
    disjoint unions padded with isolated vertices."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 70)
        kind = i % 4
        if kind == 0:
            sparse = rng.choice((0.5, 1.5, 3.0)) / max(n, 1)
            yield random_graph(n, rng.choice((sparse, rng.uniform(0.05, 0.5))), rng)
        elif kind == 1:
            edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9]
            for _ in range(rng.randint(0, 2) if n > 2 else 0):
                u, v = rng.sample(range(n), 2)
                edges.append((min(u, v), max(u, v)))
            yield Graph(n, edges)
        elif kind == 2:
            half = n // 2
            p = rng.uniform(0.5, 4.0) / max(half, 1)
            yield Graph(n, [(u, v) for u in range(half) for v in range(half, n)
                            if rng.random() < p])
        else:
            # cycles and paths side by side, the rest isolated vertices
            edges, offset = [], 0
            for _ in range(3):
                size = rng.randint(0, n // 3)
                closed = size >= 3 and rng.random() < 0.7
                edges += [(offset + j, offset + (j + 1) % size)
                          for j in range(size if closed else size - 1)]
                offset += size
            yield Graph(n, edges)


def test_girth_matches_reference_on_random_graphs():
    seen = set()
    for g in girth_corpus(2000, seed=2025):
        got = girth(g)
        assert got == reference_girth(g), (g.n, list(g.edges()))
        seen.add(None if got is None else got % 2)
        seen.add("disconnected" if g.n and len(components(g)) > 1 else "connected")
    assert seen == {None, 0, 1, "disconnected", "connected"}


@pytest.mark.parametrize("make", [
    *(lambda q=q: rl.generalized_quadrangle_incidence(q) for q in (2, 3, 4, 5)),
    lambda: rl.builtin_graph("cage-3-12"),
    rl.petersen,
    rl.hoffman_singleton,
    lambda: rl.cycle(9),
    lambda: rl.complete(4),
    lambda: rl.complete_bipartite(2, 3),
], ids=["W2", "W3", "W4", "W5", "cage-3-12", "petersen", "hoffman-singleton",
        "C9", "K4", "K2,3"])
def test_girth_matches_reference_on_families(make):
    g = make()
    assert girth(g) == reference_girth(g)


def bipartite_corpus(count, seed):
    """Seeded bipartite graphs: up to three random bipartite blocks side
    by side; some vertices stay isolated."""
    rng = random.Random(seed)
    for _ in range(count):
        edges, offset = [], 0
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(1, 12), rng.randint(0, 12)
            p = rng.uniform(0.5, 3.0) / max(a, b, 1)
            edges += [(offset + u, offset + a + v) for u in range(a) for v in range(b)
                      if rng.random() < p]
            offset += a + b
        yield Graph(offset, edges)


def test_girth_on_one_side_matches_reference_on_bipartite_graphs():
    girths = set()
    for g in bipartite_corpus(800, seed=13):
        got = girth(g)
        assert got == reference_girth(g), (g.n, list(g.edges()))
        girths.add(got)
    assert {None, 4, 6} <= girths


def antipodal_components_corpus():
    yield from atlas_connected(7)
    yield from (rl.projective_plane_incidence(q) for q in (2, 3, 4, 5))
    yield from (rl.generalized_quadrangle_incidence(q) for q in (2, 3, 4))
    yield from (rl.erdos_renyi_polarity(q) for q in (2, 3, 4, 5))
    yield from (rl.singer_graph(q) for q in (2, 3, 4))
    yield from (rl.mms_graph(q) for q in (5, 9))
    yield from (rl.petersen(), rl.hoffman_singleton(), rl.builtin_graph("cage-3-12"))
    yield from (rl.path(600), rl.cycle(601), rl.cycle(600), rl.tadpole(4, 6))
    yield from (rl.complete_bipartite(3, 4), rl.complete(5))


def test_antipodal_components_match_networkx():
    import networkx as nx

    sizes = set()
    for g in antipodal_components_corpus():
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        dist = dict(nx.all_pairs_shortest_path_length(h))
        diam = max(max(row.values()) for row in dist.values())
        far = nx.Graph((u, v) for u in range(g.n) for v, d in dist[u].items()
                       if u < v and d == diam)
        far.add_nodes_from(range(g.n))
        want = sorted(sorted(c) for c in nx.connected_components(far))
        got = components(antipodal(g))
        assert got == want, (g.n, list(g.edges()))
        sizes.add(min(len(got), 3))
    assert sizes == {1, 2, 3}  # connected and disconnected antipodal graphs


def test_distance_matrix_is_kept_read_only_on_its_graph(distance_matrix_calls):
    g = rl.petersen()
    d = all_pairs_distances(g)
    assert all_pairs_distances(g) is d
    assert d.dtype == np.int32
    with pytest.raises(ValueError):
        d[0, 1] = 5
    assert diameter(g) == 2 and girth(g) == 5
    assert distance_matrix_calls == [10]
    # derived graphs are new graphs, each with its own matrix
    for derived in (complement(g), g.induced_subgraph(range(5)), antipodal(g)):
        assert all_pairs_distances(derived) is not d
    assert distance_matrix_calls == [10, 10, 5, 10]
    # the kept matrix takes no part in equality or hashing
    fresh = rl.petersen()
    assert fresh == g and hash(fresh) == hash(g)


def test_quadrangle_build_computes_one_distance_matrix(distance_matrix_calls):
    for q in (2, 3, 4):
        distance_matrix_calls.clear()
        g = rl.generalized_quadrangle_incidence(q)
        assert distance_matrix_calls == [g.n]


def test_antipodal_c6_is_perfect_matching():
    a = antipodal(rl.cycle(6))
    assert sorted(a.edges()) == [(0, 3), (1, 4), (2, 5)]
    assert len(components(a)) == 3


def test_antipodal_of_diameter_two_is_complement():
    for g in (rl.petersen(), rl.erdos_renyi_polarity(3), rl.complete_bipartite(3, 4)):
        assert antipodal(g) == complement(g)


def test_antipodal_complete_graph_identity():
    k5 = rl.complete(5)
    assert antipodal(k5) == k5
    assert antipodal(antipodal(k5)) == k5


def test_antipodal_requires_connected():
    with pytest.raises(Disconnected):
        antipodal(Graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("seed", range(10))
def test_complement_involution(seed):
    rng = random.Random(100 + seed)
    g = random_graph(rng.randint(1, 20), rng.random(), rng)
    assert complement(complement(g)) == g


def test_complement_examples():
    assert complement(rl.complete(4)).num_edges == 0
    # C5 is self-complementary
    c5 = rl.cycle(5)
    assert are_isomorphic(c5, complement(c5)) is not None
    # complement of C4 = two disjoint edges
    assert sorted(complement(rl.cycle(4)).edges()) == [(0, 2), (1, 3)]


def test_bipartition_and_regularity():
    assert bipartition(rl.cycle(5)) is None
    parts = bipartition(rl.complete_bipartite(3, 3))
    assert parts is not None and sum(parts) == 3
    assert regularity(rl.petersen()) == 3
    assert regularity(rl.path(3)) is None


def test_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert components(g) == [[0, 1], [2], [3, 4]]


def test_moore_bounds():
    # independent evaluation of the defining sums
    assert moore_bound(3, 2) == 1 + 3 * (1 + 2) == 10  # Petersen order
    assert moore_bound(7, 2) == 1 + 7 * (1 + 6) == 50  # Hoffman-Singleton order
    assert bipartite_moore_bound(3, 3) == 2 * (1 + 2 + 4) == 14  # Heawood order
    assert moore_bound(2, 3) == 7  # C7
    assert bipartite_moore_bound(2, 4) == 8  # C8
    with pytest.raises(ValueError):
        moore_bound(0, 2)


def check_reach_within(g, h, rng):
    """``_reach`` from a random vertex inside a random vertex mask of g
    against networkx on the subgraph of h (g's edges) that the mask
    induces: the start's component, and its vertices at odd BFS level."""
    import networkx as nx

    within = sum(1 << v for v in range(g.n) if rng.random() < 0.7)
    if not within:
        return
    start = rng.choice(_bits(within))
    reached, odd = _reach(g._rows, 1 << start, within)
    sub = h.subgraph(_bits(within))
    assert _bits(reached) == sorted(nx.node_connected_component(sub, start))
    levels = nx.single_source_shortest_path_length(sub, start)
    assert _bits(odd) == sorted(v for v, level in levels.items() if level % 2)


def test_components_match_networkx_on_random_graphs():
    import networkx as nx

    rng, masks = random.Random(2026), random.Random(2126)
    for _ in range(200):
        g = random_graph(rng.randint(0, 30), rng.uniform(0.0, 0.2), rng)
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        expected = sorted(sorted(c) for c in nx.connected_components(h))
        assert components(g) == expected
        check_reach_within(g, h, masks)


def _edge_feed(n, p, rng):
    """A seeded random graph on n vertices: its edge list, and the same
    edges fed in shuffled order, each either way round, a third of them
    twice.  Half the graphs only join two random sides, so that many are
    bipartite."""
    side = [rng.randint(0, 1) for _ in range(n)]
    crossing = rng.random() < 0.5
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if (side[u] != side[v] or not crossing) and rng.random() < p
    ]
    fed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    fed += rng.sample(fed, len(fed) // 3)
    rng.shuffle(fed)
    return edges, fed


def _nx_graph(n, edges):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def _sorted_edges(h):
    return sorted(tuple(sorted(e)) for e in h.edges())


def test_graph_layer_matches_networkx_on_shuffled_duplicated_edges():
    import networkx as nx

    rng = random.Random(2027)
    for _ in range(150):
        n = rng.randint(0, 24)
        edges, fed = _edge_feed(n, rng.uniform(0.0, 0.5), rng)
        g, h = Graph(n, fed), _nx_graph(n, fed)
        assert list(g.edges()) == _sorted_edges(h)
        assert g.num_edges == h.number_of_edges()
        assert g.degrees() == [h.degree(v) for v in range(n)]
        degree, neighbours = rl.graphcore._csr(g._rows)
        assert degree.tolist() == g.degrees()
        assert neighbours.tolist() == [v for u in range(n) for v in sorted(h[u])]
        for u in range(n):
            assert g.neighbors(u) == sorted(h[u])
            assert [g.is_edge(u, v) for v in range(n)] == [h.has_edge(u, v) for v in range(n)]
        chosen = rng.sample(range(n), rng.randint(0, n))
        sub = nx.relabel_nodes(h.subgraph(chosen), {v: i for i, v in enumerate(chosen)})
        induced = g.induced_subgraph(chosen)
        assert induced.n == len(chosen)
        assert list(induced.edges()) == _sorted_edges(sub)
        co = complement(g)
        assert co.n == n and list(co.edges()) == _sorted_edges(nx.complement(h))
        same = Graph(n, edges)
        assert same == g and hash(same) == hash(g)


def test_bipartition_matches_networkx_level_parity():
    import networkx as nx

    rng, masks = random.Random(2028), random.Random(2128)
    seen = set()
    for _ in range(300):
        n = rng.randint(0, 24)
        _, fed = _edge_feed(n, rng.uniform(0.0, 0.4), rng)
        g, h = Graph(n, fed), _nx_graph(n, fed)
        check_reach_within(g, h, masks)
        colour = bipartition(g)
        seen.add(colour is None)
        if not nx.is_bipartite(h):
            assert colour is None
            continue
        expected = [None] * n
        for comp in nx.connected_components(h):
            levels = nx.single_source_shortest_path_length(h, min(comp))
            for v, level in levels.items():
                expected[v] = level % 2
        assert colour == tuple(expected)
    assert seen == {True, False}


def bipartite_regular_corpus():
    """Connected bipartite k-regular graphs, k >= 2: from the atlas, the
    paper's incidence graphs, the bundled cages, K_{k,k}, even cycles, and
    hypercubes and even prisms (girth 4 at diameter above 2)."""
    import networkx as nx

    def from_nx(h):
        index = {v: i for i, v in enumerate(h.nodes())}
        return Graph(len(index), [(index[u], index[v]) for u, v in h.edges()])

    for g in atlas_connected(7):
        k = regularity(g)
        if k is not None and k >= 2 and bipartition(g) is not None:
            yield g
    yield from (rl.generalized_quadrangle_incidence(q) for q in (2, 3, 4, 5))
    yield from (rl.projective_plane_incidence(q) for q in (2, 3, 4, 5, 7))
    yield from (rl.builtin_graph(name) for name in rl.BUILTIN_GRAPHS)
    yield from (rl.complete_bipartite(k, k) for k in range(2, 7))
    yield from (rl.cycle(n) for n in range(4, 21, 2))
    yield from (from_nx(nx.hypercube_graph(d)) for d in (3, 4, 5))
    yield from (from_nx(nx.circular_ladder_graph(m)) for m in (4, 6, 8))


def test_bipartite_girth_is_twice_the_diameter_exactly_at_the_moore_order():
    # a bipartite k-regular graph of diameter d has at most
    # bipartite_moore_bound(k, d) vertices, and girth 2d forces as many
    seen = set()
    for g in bipartite_regular_corpus():
        k, d = regularity(g), diameter(g)
        at_order = g.n == bipartite_moore_bound(k, d)
        assert at_order == (girth(g) == 2 * d), (g.n, k, d)
        seen.add(at_order)
    assert seen == {True, False}


def test_isomorphism_negative_cases():
    assert are_isomorphic(rl.complete(3), rl.path(3)) is None
    assert are_isomorphic(rl.cycle(6), rl.cycle(5)) is None
    # same degree sequence, different graphs: C6 vs 2 triangles
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert are_isomorphic(rl.cycle(6), two_triangles) is None


def test_isomorphism_petersen_models():
    # pentagon + pentagram model, built by hand
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    pent = Graph(10, edges)
    mapping = are_isomorphic(rl.petersen(), pent)
    assert mapping is not None
    g = rl.petersen()
    for u in range(10):
        for v in range(u + 1, 10):
            assert g.is_edge(u, v) == pent.is_edge(mapping[u], mapping[v])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_isomorphism_singer_vs_polarity(q):
    mapping = are_isomorphic(rl.singer_graph(q), rl.erdos_renyi_polarity(q))
    assert mapping is not None


def _assert_isomorphism(g, h, mapping):
    assert sorted(mapping) == list(range(g.n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.is_edge(u, v) == h.is_edge(mapping[u], mapping[v])


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_isomorphism_singer_vs_polarity_within_budget(q):
    s, e = rl.singer_graph(q), rl.erdos_renyi_polarity(q)
    for g, h in ((s, e), (complement(s), complement(e))):
        mapping = are_isomorphic(g, h, rl.SearchBudget(2000))
        assert mapping is not None and mapping is not rl.TIMEOUT
        _assert_isomorphism(g, h, mapping)


def _rook_and_shrikhande():
    """Two strongly regular graphs with parameters (16, 6, 2, 2): colour
    refinement alone cannot tell them apart."""
    cells = [(a, b) for a in range(4) for b in range(4)]
    rook = Graph(16, [(i, j) for i, (a, b) in enumerate(cells)
                      for j, (c, d) in enumerate(cells)
                      if i < j and (a == c) != (b == d)])
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = Graph(16, [(i, j) for i, (a, b) in enumerate(cells)
                            for j, (c, d) in enumerate(cells)
                            if i < j and ((c - a) % 4, (d - b) % 4) in steps])
    return rook, shrikhande


def test_isomorphism_rook_vs_shrikhande_is_exhausted():
    rook, shrikhande = _rook_and_shrikhande()
    assert rook.degrees() == shrikhande.degrees() == [6] * 16
    budget = rl.SearchBudget(10**4)
    assert are_isomorphic(rook, shrikhande, budget) is None
    # 16 images of vertex 0, each with the 6 images of its least neighbour
    # pruned at once: the common neighbours of an edge are adjacent in the
    # rook's graph and not in Shrikhande's
    assert budget.spent == 16 * 7


def test_isomorphism_none_only_between_atlas_classes(atlas6):
    # the atlas lists each isomorphism class once: distinct entries are
    # never isomorphic, and each maps to a relabelled copy of itself
    rng = random.Random(41)
    for i, g in enumerate(atlas6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        _assert_isomorphism(g, h, are_isomorphic(g, h))
        for other in atlas6[i + 1:]:
            assert are_isomorphic(g, other) is None


def test_isomorphism_leaf_check_alone_keeps_answers_exact(atlas6, monkeypatch):
    # a discrete colouring that refinement leaves stable is always an
    # isomorphism; with refinement switched off, the adjacency check at
    # the leaves must reject the bijections that are not
    def balanced(colours, table):
        n = len(colours) // 2
        sizes = [np.bincount(half, minlength=colours.max() + 1)
                 for half in (colours[:n], colours[n:])]
        return colours if np.array_equal(*sizes) else None

    monkeypatch.setattr(rl.graphcore, "_refine", balanced)
    test_isomorphism_none_only_between_atlas_classes(atlas6)


@pytest.mark.parametrize("seed", range(12))
def test_isomorphism_relabelled_random_graphs(seed):
    rng = random.Random(40 + seed)
    g = random_connected_graph(rng.randint(5, 40), 0.3, rng)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    mapping = are_isomorphic(g, h)
    assert mapping is not None
    for u, v in g.edges():
        assert h.is_edge(mapping[u], mapping[v])


def test_isomorphism_timeout_sentinel():
    # a long cycle and a shift of it: refinement cannot split the single
    # class, and two individualizations make the colouring discrete
    g = rl.cycle(40)
    h = Graph(40, [((u + 7) % 40, (v + 7) % 40) for u, v in rl.cycle(40).edges()])
    assert are_isomorphic(g, h, deadline=1) is rl.TIMEOUT
    budget = rl.SearchBudget(10**6)
    mapping = are_isomorphic(g, h, budget)
    assert budget.spent == 2
    assert sorted(mapping) == list(range(40))
    assert all(h.is_edge(mapping[u], mapping[v]) for u, v in g.edges())


def test_isomorphism_long_cycle_has_no_recursion_limit():
    # the search keeps its branches on an explicit stack; 1200 positions
    # once overflowed the interpreter's recursion limit
    n = 1200
    g = rl.cycle(n)
    h = Graph(n, [((u + 7) % n, (v + 7) % n) for u, v in g.edges()])
    budget = rl.SearchBudget(10**6)
    mapping = are_isomorphic(g, h, budget)
    assert budget.spent == 2
    assert sorted(mapping) == list(range(n))
    assert all(h.is_edge(mapping[u], mapping[v]) for u, v in g.edges())


def test_bipartite_even_diameter_has_disconnected_antipodal():
    corpus = [rl.complete_bipartite(n, n) for n in range(2, 7)]
    corpus += [rl.cycle(2 * n) for n in range(2, 9)]
    corpus += [rl.generalized_quadrangle_incidence(2)]
    for g in corpus:
        if diameter(g) % 2 == 0 and bipartition(g) is not None:
            assert len(components(antipodal(g))) >= 2


@pytest.mark.parametrize("q", [2, 3])
def test_bipartite_diameter3_antipodal_structure(q):
    """For bipartite diameter-3 graphs the antipodal graph is bipartite on
    the same parts, and each cross pair is an edge of exactly one of the
    two graphs."""
    g = rl.projective_plane_incidence(q)
    parts = bipartition(g)
    a = antipodal(g)
    for u, v in a.edges():
        assert parts[u] != parts[v]
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if parts[u] != parts[v]:
                assert g.is_edge(u, v) != a.is_edge(u, v)


def test_distance_matrix_basic_invariants():
    g = rl.projective_plane_incidence(3)
    d = all_pairs_distances(g)
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    for u, v in g.edges():
        assert d[u, v] == 1


def test_bits_matches_a_plain_scan():
    # peeled from the top bit and reversed: increasing order at any size
    def plain(x):
        return [i for i in range(x.bit_length()) if x >> i & 1]

    rng = random.Random(8100)
    values = [0, (1 << 5000) - 1]
    values += [1 << b for b in (0, 1, 7, 63, 64, 65, 312, 4095, 4999)]
    for width in (2, 64, 65, 312, 1200, 4760, 5000):
        values.append(1 << (width - 1))  # the top bit alone
        for density in (0.005, 0.1, 0.5, 0.97):
            values.append(sum(1 << i for i in range(width) if rng.random() < density)
                          | 1 << (width - 1))
    for x in values:
        assert _bits(x) == plain(x)
