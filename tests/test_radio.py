import functools
import itertools
import random

import numpy as np
import pytest

import radiolab as rl
from radiolab import (
    NOT_RADIO_GRACEFUL,
    RADIO_GRACEFUL,
    TIMEOUT,
    UNKNOWN,
    BadCertificate,
    BadPermutation,
    Disconnected,
    Graph,
    NotInjective,
    Obstruction,
    PathCertificate,
    PreconditionFailed,
    RadioLabeling,
    SearchBudget,
    TooLarge,
    UnsupportedDiameter,
    all_pairs_distances,
    analyze,
    antipodal,
    complement,
    find_hamiltonian_path,
    label_from_antipodal_path,
    label_hexagon_cage,
    label_quadrangle_cage,
    labeling_from_json,
    labeling_to_json,
    radio_number_exact,
    singer_label_erq,
    singer_label_erq_complement,
    verify,
)
from radiolab.radio import _label_two_components, _path_table

from conftest import (
    NO_SPAN_N1_EDGES,
    brute_radio_number,
    brute_radio_number_by_orderings,
    floyd_warshall,
    random_connected_graph,
    spider,
)


# ---------------------------------------------------------------------------
# verify


def test_verify_complete_graph_any_injection():
    g = rl.complete(4)
    assert verify(g, RadioLabeling((3, 1, 4, 2))) == []


def test_verify_c4_consecutive_labels_fail():
    # diameter 2: adjacent vertices need a label gap of at least 2
    g = rl.cycle(4)
    violations = verify(g, RadioLabeling((1, 2, 3, 4)))
    assert violations == [(0, 1, -1), (1, 2, -1), (2, 3, -1)]


def test_verify_rejects_non_injective():
    with pytest.raises(NotInjective):
        verify(rl.cycle(4), RadioLabeling((1, 2, 2, 4)))


def test_verify_requires_connected():
    with pytest.raises(Disconnected):
        verify(Graph(4, [(0, 1), (2, 3)]), RadioLabeling((1, 2, 3, 4)))


def reference_verify(g, labeling):
    """Every pair by a double loop over the vertex indices."""
    dist = all_pairs_distances(g)
    need = int(dist.max()) + 1
    f = labeling.labels
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            slack = abs(f[u] - f[v]) + int(dist[u, v]) - need
            if slack < 0:
                out.append((u, v, slack))
    return out


def swap_nearest_labels(g, labels):
    """A labeling with two labels swapped: the vertex u with the nearest
    other label keeps its label, and its smallest neighbour trades labels
    with the holder of that nearest label."""
    f = list(labels)
    order = sorted(range(g.n), key=f.__getitem__)
    i = min(range(g.n - 1), key=lambda i: f[order[i + 1]] - f[order[i]])
    u, w = order[i], order[i + 1]
    v = next(x for x in g.neighbors(u) if x != w)
    f[v], f[w] = f[w], f[v]
    return RadioLabeling(tuple(f))


def verify_matches_reference(g, labeling):
    got = verify(g, labeling)
    assert got == reference_verify(g, labeling)
    assert all(type(x) is int for pair in got for x in pair)
    return got


def test_verify_matches_reference_on_random_labelings():
    rng = random.Random(4242)
    violating = 0
    for _ in range(400):
        n = rng.randint(3, 40)
        g = random_connected_graph(n, rng.uniform(0.05, 0.5), rng)
        labels = rng.sample(range(1, n + rng.randint(1, 2 * n) + 1), n)
        violating += bool(verify_matches_reference(g, RadioLabeling(tuple(labels))))
    assert violating > 300


@pytest.mark.parametrize("make", [
    rl.petersen,
    lambda: rl.projective_plane_incidence(3),
    lambda: rl.erdos_renyi_polarity(5),
    lambda: rl.mms_graph(5),
    lambda: rl.cycle(7),
], ids=["petersen", "pg-3", "erq-5", "mms-5", "C7"])
def test_verify_matches_reference_on_swapped_labelings(make):
    g = make()
    _, labeling = rl.settle(g)
    assert verify_matches_reference(g, labeling) == []
    assert verify_matches_reference(g, swap_nearest_labels(g, labeling.labels))


@pytest.mark.parametrize("g", [rl.path(70), rl.cycle(140)], ids=["P70", "C140"])
def test_verify_matches_reference_at_large_diameter(g):
    rng = random.Random(g.n)
    for spread in (1, 2, 10, 100):
        labels = rng.sample(range(1, spread * g.n + 1), g.n)
        verify_matches_reference(g, RadioLabeling(tuple(labels)))


def test_verify_matches_reference_on_tiny_and_complete_graphs():
    assert verify_matches_reference(Graph(1, []), RadioLabeling((5,))) == []
    assert verify_matches_reference(rl.path(2), RadioLabeling((2, 1))) == []
    assert verify_matches_reference(rl.path(3), RadioLabeling((1, 2, 3))) == [
        (0, 1, -1), (1, 2, -1)]
    for n in (3, 6, 11):
        labels = tuple(random.Random(n).sample(range(1, n + 1), n))
        assert verify_matches_reference(rl.complete(n), RadioLabeling(labels)) == []


def test_verify_accepts_labels_beyond_64_bits():
    g = rl.cycle(7)  # diameter 3
    big = 10**30
    labels = (1, big, 2, big + 2, 3, 7, big - 1)
    got = verify_matches_reference(g, RadioLabeling(labels))
    assert got == [(0, 2, -1), (1, 6, -1), (2, 4, -1)]


def test_labeling_requires_positive_labels():
    with pytest.raises(ValueError):
        RadioLabeling((0, 1, 2))


# ---------------------------------------------------------------------------
# antipodal-path labelings


def test_heawood_labeling_structure():
    g = rl.projective_plane_incidence(2)
    cert = find_hamiltonian_path(antipodal(g))
    lab = label_from_antipodal_path(g, cert)
    assert lab.span == 14
    assert verify(g, lab) == []
    dist = all_pairs_distances(g)
    pos = sorted(range(g.n), key=lambda v: lab.labels[v])
    parts = rl.bipartition(g)
    for i in range(g.n - 1):
        # consecutive labels sit at maximum distance
        assert dist[pos[i], pos[i + 1]] == 3
    for i in range(g.n - 2):
        # gap-2 labels share a part, hence distance exactly 2
        assert parts[pos[i]] == parts[pos[i + 2]]
        assert dist[pos[i], pos[i + 2]] == 2


def test_petersen_labeling_via_complement_path():
    g = rl.petersen()
    cert = find_hamiltonian_path(antipodal(g))
    lab = label_from_antipodal_path(g, cert)
    assert lab.span == 10
    assert verify(g, lab) == []


def test_label_from_antipodal_path_rejects_diameter_4():
    g = rl.generalized_quadrangle_incidence(2)
    fake = PathCertificate(tuple(range(g.n)), "path")
    with pytest.raises(UnsupportedDiameter):
        label_from_antipodal_path(g, fake)


def test_label_from_antipodal_path_rejects_bad_certificate():
    g = rl.petersen()
    with pytest.raises(BadCertificate):
        label_from_antipodal_path(g, PathCertificate(tuple(range(10)), "path"))


def test_label_from_antipodal_path_rejects_non_permutation():
    g = rl.petersen()
    cert = find_hamiltonian_path(antipodal(g))
    repeated = cert.ordering[:-1] + cert.ordering[:1]
    with pytest.raises(BadPermutation):
        label_from_antipodal_path(g, PathCertificate(repeated, "path"))
    with pytest.raises(BadPermutation):
        label_from_antipodal_path(g, PathCertificate(cert.ordering[:-1], "path"))
    with pytest.raises(BadCertificate):
        label_from_antipodal_path(g, PathCertificate(cert.ordering, "cycle_power", 2))


# ---------------------------------------------------------------------------
# cage window-search labelings


def test_quadrangle_cage_q2():
    g = rl.generalized_quadrangle_incidence(2)
    lab = label_quadrangle_cage(g)
    assert lab.span == 31  # 2*15 + 1
    assert verify(g, lab) == []


def test_quadrangle_cage_q2_slack_structure():
    g = rl.generalized_quadrangle_incidence(2)
    lab = label_quadrangle_cage(g)
    dist = all_pairs_distances(g)
    by_label = {lab.labels[v]: v for v in range(g.n)}
    labels = sorted(by_label)
    for i, fu in enumerate(labels):
        for fv in labels[i + 1 :]:
            gap = fv - fu
            d = int(dist[by_label[fu], by_label[fv]])
            if gap == 1:
                assert d == 4
            elif gap == 2:
                assert d >= 3
            elif gap == 3:
                assert d >= 2
            else:
                break  # gap >= 4 needs nothing beyond d >= 1


def test_quadrangle_cage_q3():
    g = rl.generalized_quadrangle_incidence(3)
    lab = label_quadrangle_cage(g)
    assert lab.span == 81  # 2*40 + 1
    assert verify(g, lab) == []


def test_quadrangle_cage_builds_and_labels_without_a_girth_search(monkeypatch):
    # both the constructor and the precondition read girth 8 from the order
    def no_girth(g):
        raise AssertionError("girth computed")

    for module in (rl.graphcore, rl.families, rl.radio):
        monkeypatch.setattr(module, "girth", no_girth, raising=False)
    g = rl.generalized_quadrangle_incidence(3)
    lab = label_quadrangle_cage(g)
    assert lab.span == 81 and verify(g, lab) == []


def _hypercube(d):
    return Graph(1 << d, [(v, v | 1 << b) for v in range(1 << d)
                          for b in range(d) if not v >> b & 1])


def test_quadrangle_cage_rejects_wrong_shape():
    with pytest.raises(PreconditionFailed):
        label_quadrangle_cage(rl.projective_plane_incidence(2))
    with pytest.raises(PreconditionFailed):
        label_quadrangle_cage(rl.petersen())
    # the right diameter, but one antipodal component per antipodal pair
    with pytest.raises(PreconditionFailed, match="has 8 components, need 2"):
        label_quadrangle_cage(_hypercube(4))
    with pytest.raises(PreconditionFailed, match="has 32 components, need 2"):
        label_hexagon_cage(_hypercube(6))


def test_exhausted_two_component_search_is_a_proven_negative():
    g = Graph(14, NO_SPAN_N1_EDGES)
    comps = rl.components(antipodal(g))
    assert sorted(map(len, comps)) == [3, 11]
    # the 11-vertex component is bipartite 8/3 in the antipodal graph, so
    # it has no Hamiltonian path there and the search spends no node
    big = max(comps, key=len)
    sides = rl.bipartition(antipodal(g).induced_subgraph(big))
    assert sorted([sides.count(0), sides.count(1)]) == [3, 8]
    budget = SearchBudget(10**6)
    assert label_quadrangle_cage(g, budget) is None
    assert budget.spent == 0
    # settle runs the same search above the oracle's limit, leaves rn open
    # and returns the exhausted search as an obstruction
    budget = SearchBudget(10**6)
    v, lab = rl.settle(g, budget)
    assert (v.status, v.rn_lower, v.rn_upper) == (NOT_RADIO_GRACEFUL, 15, None)
    assert lab == Obstruction("no-span-n+1-labeling", tuple(map(tuple, comps)), 0)
    assert budget.spent == 0
    rn, witness = radio_number_exact(g, vertex_limit=14)
    assert rn == witness.span == 22 and verify(g, witness) == []


def test_two_component_search_cut_by_unbalanced_bipartite_component():
    # the join of K5 + K7 with 3 independent vertices: the antipodal
    # components are K_{5,7} and K_3, and K_{5,7} has no Hamiltonian path
    cliques = [(u, v) for part in (range(5), range(5, 12))
               for u, v in itertools.combinations(part, 2)]
    g = Graph(15, cliques + [(c, x) for c in range(12) for x in range(12, 15)])
    comps = rl.components(antipodal(g))
    assert list(map(len, comps)) == [12, 3]
    budget = SearchBudget(10**6)
    assert _label_two_components(g, comps, budget) is None
    assert budget.spent == 0
    budget = SearchBudget(10**6)
    v, lab = rl.settle(g, budget)
    assert (v.status, v.rn_lower, v.rn_upper) == (NOT_RADIO_GRACEFUL, 16, None)
    assert lab == Obstruction("no-span-n+1-labeling", tuple(map(tuple, comps)), 0)
    assert budget.spent == 0


def test_two_component_search_exhausts_past_the_bipartite_cut():
    # an atlas7 graph whose antipodal components (6 and 1 vertices) pass
    # the bipartite cut, yet rn = 9 > n+1: the window search must exhaust
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5),
                  (1, 6), (2, 3), (2, 4), (3, 4)])
    comps = rl.components(antipodal(g))
    assert sorted(map(len, comps)) == [1, 6]
    budget = SearchBudget(10**6)
    assert _label_two_components(g, comps, budget) is None
    assert budget.spent == 88
    assert radio_number_exact(g)[0] == 9


def test_quadrangle_cage_timeout():
    g = rl.builtin_graph("cage-4-8")
    assert label_quadrangle_cage(g, deadline=1) is TIMEOUT


def test_hexagon_cage_timeout_or_labeling():
    # the window search finds the span-127 labeling well inside the budget
    g = rl.builtin_graph("cage-3-12")
    out = label_hexagon_cage(g, deadline=20_000)
    assert isinstance(out, RadioLabeling)
    assert out.span == 127
    assert verify(g, out) == []


# every node places one vertex: n nodes means no backtracking at all
@pytest.mark.parametrize("case, nodes", [
    ("w-2", 35), ("w-3", 80), ("w-4", 170), ("w-5", 312), ("w-7", 800),
    ("w-8", 1170), ("cage-4-8", 80), ("cage-3-12", 365),
])
def test_cage_window_search_reaches_rn(case, nodes):
    if case.startswith("w-"):
        g = rl.generalized_quadrangle_incidence(int(case[2:]))
        label = label_quadrangle_cage
    else:
        g = rl.builtin_graph(case)
        label = label_hexagon_cage if case == "cage-3-12" else label_quadrangle_cage
    budget = SearchBudget(10**6)
    lab = label(g, budget)
    assert isinstance(lab, RadioLabeling)
    assert lab.span == g.n + 1  # the bipartite-even-diameter bound, so rn
    assert verify(g, lab) == []
    assert budget.spent == nodes <= 3 * g.n


def test_hexagon_cage_rejects_non_bipartite():
    with pytest.raises(PreconditionFailed):
        label_hexagon_cage(rl.petersen())


# ---------------------------------------------------------------------------
# Singer constructions


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_singer_labeling_graceful(q):
    g = rl.singer_graph(q)
    lab = singer_label_erq(q)
    assert lab.span == q * q + q + 1
    assert verify(g, lab) == []


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_singer_complement_labeling_graceful(q):
    g = complement(rl.singer_graph(q))
    lab = singer_label_erq_complement(q)
    assert lab.span == q * q + q + 1
    assert verify(g, lab) == []


@pytest.mark.parametrize("q", [2, 3, 5])
def test_singer_labeling_consecutive_nonadjacent(q):
    # consecutive path vertices have sums outside the difference set, so
    # they are never adjacent in the Singer graph
    g = rl.singer_graph(q)
    lab = singer_label_erq(q)
    order = sorted(range(g.n), key=lambda v: lab.labels[v])
    assert all(not g.is_edge(order[i], order[i + 1]) for i in range(g.n - 1))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_singer_complement_consecutive_adjacent_in_singer(q):
    # construction walks a Hamiltonian path of the Singer graph itself
    g = rl.singer_graph(q)
    lab = singer_label_erq_complement(q)
    order = sorted(range(g.n), key=lambda v: lab.labels[v])
    assert all(g.is_edge(order[i], order[i + 1]) for i in range(g.n - 1))


@pytest.mark.parametrize("label", [singer_label_erq, singer_label_erq_complement])
def test_singer_labeling_builds_one_difference_set(label, monkeypatch):
    # each difference set builds GF(q); GF(q^3) is walked without a field
    built = []
    make_field = rl.field.make_field
    monkeypatch.setattr(rl.field, "make_field", lambda q: built.append(q) or make_field(q))
    label(5)
    assert built == [5]


def test_singer_labelings_are_deterministic():
    assert singer_label_erq(3) == singer_label_erq(3)
    assert singer_label_erq_complement(3) == singer_label_erq_complement(3)


# ---------------------------------------------------------------------------
# exact oracle


def test_radio_number_examples():
    assert radio_number_exact(rl.cycle(4))[0] == 5
    assert radio_number_exact(rl.cycle(5))[0] == 5
    for n in range(2, 7):
        assert radio_number_exact(rl.complete(n))[0] == n


def test_radio_number_witness_is_optimal_and_valid():
    for g in (rl.cycle(6), rl.path(5), rl.tadpole(3, 2)):
        rn, wit = radio_number_exact(g)
        assert verify(g, wit) == []
        assert wit.span == rn


def test_radio_number_against_bruteforce(atlas6):
    small = [g for g in atlas6 if g.n <= 5]
    for g in small:
        assert radio_number_exact(g)[0] == brute_radio_number(g)


def test_radio_number_too_large():
    with pytest.raises(TooLarge):
        radio_number_exact(rl.complete(13))
    # explicit limit raise works
    rn, _ = radio_number_exact(rl.complete(13), vertex_limit=13)
    assert rn == 13


def test_radio_number_c6_against_bruteforce():
    assert radio_number_exact(rl.cycle(6))[0] == brute_radio_number(rl.cycle(6)) == 8


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _tree(n, rng):
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def _unicyclic(n, rng):
    edges = set(_tree(n, rng).edges())
    chords = [(u, v) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in edges]
    return Graph(n, sorted(edges) + [rng.choice(chords)])


def _tadpole(n, rng):
    cycle = rng.randint(3, n - 1)
    return rl.tadpole(cycle, n - cycle)


def _spider(n, rng):
    edges, v, left = [], 1, n - 1
    while left:
        leg = rng.randint(1, min(left, 3))
        left -= leg
        prev = 0
        for _ in range(leg):
            edges.append((prev, v))
            prev, v = v, v + 1
    return Graph(n, edges)


def _oracle_run(g, memo_entries, monkeypatch):
    monkeypatch.setattr(rl.radio, "_MEMO_ENTRIES", memo_entries)
    budget = SearchBudget()
    rn, witness = radio_number_exact(g, deadline=budget)
    return rn, witness, budget.spent


@pytest.mark.parametrize("family", [_tree, _unicyclic, _tadpole, _spider],
                         ids=["tree", "unicyclic", "tadpole", "spider"])
def test_radio_number_memo_against_ordering_bruteforce(family, monkeypatch):
    # seeded sparse graphs on 7-8 vertices, relabelled; only those where
    # the memo saves nodes count, so every compared search uses it
    entries, checked = rl.radio._MEMO_ENTRIES, 0
    for i in range(60):
        rng = random.Random(f"{family.__name__}-{i}")
        g = _relabelled(family(rng.choice((7, 8)), rng), rng)
        rn, witness, nodes = _oracle_run(g, entries, monkeypatch)
        plain = _oracle_run(g, 0, monkeypatch)
        assert (rn, witness) == plain[:2] and nodes <= plain[2]
        if nodes == plain[2]:
            continue
        assert rn == brute_radio_number_by_orderings(g)
        assert not verify(g, witness) and witness.span == rn
        checked += 1
        if checked == 3:
            return
    pytest.fail(f"the memo saved nodes on {checked} of 60 graphs")


SYMMETRIC = {  # graphs with automorphisms, on at most 9 vertices
    **{f"cycle-{n}": (lambda n=n: rl.cycle(n)) for n in range(5, 10)},
    **{f"path-{n}": (lambda n=n: rl.path(n)) for n in range(5, 9)},
    **{f"spider-{legs}": (lambda legs=legs: spider(legs))
       for legs in ("113", "1113", "222", "33", "1111")},
    **{f"k-2-{m}": (lambda m=m: rl.complete_bipartite(2, m)) for m in range(2, 7)},
    **{f"tadpole-{a}-{b}": (lambda a=a, b=b: rl.tadpole(a, b))
       for a, b in ((4, 2), (5, 2), (4, 4), (6, 2))},
}
# where the oracle's symmetry pruning must save nodes of the search
SYMMETRY_SAVES = {"cycle-7", "cycle-8", "cycle-9", "spider-1113", "spider-33"}


def _no_automorphisms(need, budget):
    return []


@pytest.mark.parametrize("key", list(SYMMETRIC))
def test_radio_number_symmetry_against_ordering_bruteforce(key, monkeypatch):
    # seeded relabellings, so that the automorphisms do not follow the
    # index order; rn does not depend on the numbering
    base = SYMMETRIC[key]()
    rn_brute = brute_radio_number_by_orderings(base)
    for seed in range(3):
        g = _relabelled(base, random.Random(f"{key}-{seed}"))
        budget = SearchBudget()
        rn, witness = radio_number_exact(g, deadline=budget)
        assert rn == rn_brute
        assert not verify(g, witness) and witness.span == rn
        with monkeypatch.context() as patched:
            patched.setattr(rl.radio, "_automorphisms", _no_automorphisms)
            plain = SearchBudget()
            assert radio_number_exact(g, deadline=plain) == (rn, witness)
        if key in SYMMETRY_SAVES:
            assert budget.spent < plain.spent


def test_automorphisms_of_the_need_matrix():
    automorphisms = rl.radio._automorphisms

    def need(g):
        return (rl.diameter(g) + 1 - all_pairs_distances(g)).tolist()

    def check(g):
        rows = need(g)
        found = automorphisms(rows, SearchBudget())
        assert len(set(found)) == len(found)
        for s in found:
            assert sorted(s) == list(range(g.n)) and list(s) != list(range(g.n))
            assert all(rows[s[u]][s[v]] == rows[u][v]
                       for u in range(g.n) for v in range(g.n))
        return found

    # the dihedral group of C_8, its identity left out
    g = _relabelled(rl.cycle(8), random.Random(1))
    assert len(check(g)) == 15
    # K_{2,6} has 2 * 6! automorphisms: the search stops at the cap
    assert len(check(rl.complete_bipartite(2, 6))) == rl.radio._AUTOMORPHISMS - 1
    # no two rows sort alike: no search, no node
    g = spider("123")
    budget = SearchBudget()
    assert automorphisms(need(g), budget) == [] and budget.spent == 0


def test_radio_number_path_table_too_large():
    # the path-bound table is refused before it is allocated
    with pytest.raises(TooLarge, match="path-bound table"):
        radio_number_exact(rl.path(30), vertex_limit=30)
    # a greedy incumbent of |V| ends the search before any table is built
    assert radio_number_exact(rl.complete(25), vertex_limit=25)[0] == 25


def test_radio_number_above_the_table_limit_stops_greedy_early():
    # only a graceful incumbent can be returned above the table's limit, so
    # each greedy run stops at its first label above its position
    with pytest.raises(TooLarge, match="path-bound table"):
        radio_number_exact(rl.path(200), vertex_limit=200)
    rn, witness = radio_number_exact(rl.complete(25), vertex_limit=25)
    assert rn == 25 and witness.labels == tuple(range(1, 26))


def test_radio_number_honours_the_budget():
    assert radio_number_exact(rl.cycle(12), deadline=1) is TIMEOUT
    budget = SearchBudget(10**6)
    rn, _ = radio_number_exact(rl.cycle(12), deadline=budget)
    assert rn == 27 and 0 < budget.spent < 40_000
    # complete graphs need no search node: the greedy incumbent is graceful
    budget = SearchBudget(1)
    assert radio_number_exact(rl.complete(6), deadline=budget)[0] == 6
    assert budget.spent == 0


def _spy_path_table(monkeypatch):
    built = []

    def spy(need):
        built.append(len(need))
        return _path_table(need)

    monkeypatch.setattr(rl.radio, "_path_table", spy)
    return built


@pytest.mark.parametrize("g, limit", [
    (rl.complete(6), 12),
    (rl.petersen(), 12),
    (rl.erdos_renyi_polarity(2), 12),
    (rl.singer_graph(2), 12),
    (rl.path(1), 12),
    (rl.complete(25), 25),
], ids=["K6", "Petersen", "ER(2)", "Singer(2)", "P1", "K25"])
def test_graceful_greedy_builds_no_table_and_spends_no_node(g, limit, monkeypatch):
    built = _spy_path_table(monkeypatch)
    budget = SearchBudget()
    rn, witness = radio_number_exact(g, vertex_limit=limit, deadline=budget)
    assert rn == g.n and not verify(g, witness)
    assert built == [] and budget.spent == 0


@pytest.mark.parametrize("g", [rl.cycle(11), rl.path(12)], ids=["C11", "P12"])
def test_the_search_builds_one_path_table(g, monkeypatch):
    built = _spy_path_table(monkeypatch)
    rn, witness = radio_number_exact(g)
    assert rn > g.n and witness.span == rn and not verify(g, witness)
    assert built == [g.n]


def reference_greedy(g):
    """The first minimum span, with its labels, over n + 1 full greedy
    runs: index order, then from each start the vertex with the smallest
    lower label next (the lowest index on ties)."""
    n, dist = g.n, floyd_warshall(g)
    diam = max(map(max, dist))
    runs = []
    for start, adaptive in [(0, False)] + [(s, True) for s in range(n)]:
        labels, order = {}, [start]
        while len(labels) < n:
            v = order[-1]
            labels[v] = max([1] + [f + diam + 1 - dist[u][v] for u, f in labels.items()])
            rest = [u for u in range(n) if u not in labels]
            if rest:
                lower = {u: max(f + diam + 1 - dist[w][u] for w, f in labels.items())
                         for u in rest}
                order.append(min(rest, key=lambda u: (lower[u], u)) if adaptive else rest[0])
        runs.append((max(labels.values()), tuple(labels[v] for v in range(n))))
    return min(runs, key=lambda run: run[0])


def test_radio_number_starts_from_the_first_minimum_greedy_run():
    rng = random.Random(2025)
    equal = 0
    for _ in range(60):
        g = random_connected_graph(rng.randint(1, 11), rng.uniform(0.15, 0.7), rng)
        span, labels = reference_greedy(g)
        rn, witness = radio_number_exact(g)
        assert rn <= span
        if rn == span:
            assert witness.labels == labels
            equal += 1
    assert equal >= 10


def test_radio_number_budget_runs_out_in_the_automorphism_search(monkeypatch):
    # C11: the root costs one node, and its first child starts the search
    # for automorphisms, which tries 11 images of vertex 0, 2 of vertex 1
    # for each, then one of every later vertex: 2 * 11^2 - 11 = 231 nodes
    automorphisms, ran_out = rl.radio._automorphisms, []

    def spy(need, budget):
        syms = automorphisms(need, budget)
        if syms is TIMEOUT:
            ran_out.append(budget.spent)
        return syms

    monkeypatch.setattr(rl.radio, "_automorphisms", spy)
    for nodes in range(1, 240):
        assert radio_number_exact(rl.cycle(11), deadline=nodes) is TIMEOUT
    assert ran_out == list(range(2, 233))


def liu_zhu_path(n):
    """rn(P_n), Liu & Zhu (SIAM J. Discrete Math. 2005), labels from 1."""
    k = n // 2
    return 2 * k * k + 3 if n % 2 else 2 * k * k - 2 * k + 2


def liu_zhu_cycle(n):
    """rn(C_n), Liu & Zhu (SIAM J. Discrete Math. 2005), labels from 1.

    With n = 4k + r, their phi(n) is k + 1 when r = 1 and k + 2 otherwise;
    rn - 1 is (n - 2)/2 * phi(n) + 1 for even n and (n - 1)/2 * phi(n)
    for odd n."""
    k, r = divmod(n, 4)
    phi = k + 1 if r == 1 else k + 2
    if n % 2 == 0:
        return (n - 2) // 2 * phi + 2
    return (n - 1) // 2 * phi + 1


@pytest.mark.parametrize("n", range(4, 13))
def test_radio_number_matches_liu_zhu(n):
    assert radio_number_exact(rl.path(n))[0] == liu_zhu_path(n)
    assert radio_number_exact(rl.cycle(n))[0] == liu_zhu_cycle(n)


def brute_path_table(need):
    """H[S][v] by enumerating every ordering of every vertex subset."""
    n = len(need)
    best = {}
    for k in range(1, n + 1):
        for order in itertools.permutations(range(n), k):
            mask = sum(1 << v for v in order)
            cost = sum(need[a][b] for a, b in zip(order, order[1:]))
            key = (mask, order[-1])
            best[key] = min(best.get(key, cost), cost)
    return best


@pytest.mark.parametrize("n", range(1, 8))
def test_path_table_matches_enumeration(n):
    rng = random.Random(n)
    for _ in range(3):
        diam = rng.randint(1, 6)
        need = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                need[u][v] = need[v][u] = rng.randint(1, diam)
        table = _path_table(np.array(need))
        for (mask, v), cost in brute_path_table(need).items():
            assert int(table[mask, v]) == cost


def held_karp(need):
    """{(S, v): least total need of a path covering exactly S, ending at v},
    by the textbook recurrence over the bitmasks S in increasing order."""
    n = len(need)
    best = {(1 << v, v): 0 for v in range(n)}
    for mask in range(1, 1 << n):
        for v in range(n):
            rest = mask ^ 1 << v
            if mask >> v & 1 and rest:
                best[mask, v] = min(best[rest, u] + need[u][v]
                                    for u in range(n) if rest >> u & 1)
    return best


@functools.cache
def held_karp_cases():
    rng = random.Random(24)
    cases = [[[1]]]
    for n in range(8, 14):
        diam = rng.randint(1, 6)
        need = [[diam + 1] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                need[u][v] = need[v][u] = rng.randint(1, diam)
        cases.append(need)
    for g in (rl.cycle(11), rl.path(12), rl.petersen()):
        dist = floyd_warshall(g)
        diam = max(map(max, dist))
        cases.append([[diam + 1 - d for d in row] for row in dist])
    return [(need, held_karp(need)) for need in cases]


@pytest.mark.parametrize("block_entries", [None, 1], ids=["default-blocks", "one-set-blocks"])
def test_path_table_matches_held_karp(monkeypatch, block_entries):
    # one-set blocks split every layer of more than one set across blocks
    if block_entries is not None:
        monkeypatch.setattr(rl.radio, "_PATH_BLOCK_ENTRIES", block_entries)
    for need, best in held_karp_cases():
        n = len(need)
        table = _path_table(np.array(need)).tolist()
        for mask in range(1 << n):
            for v in range(n):
                assert table[mask][v] == best.get((mask, v), rl.radio._UNSET)


def diameter_two_graphs():
    graphs = [rl.petersen(), rl.erdos_renyi_polarity(2), rl.erdos_renyi_polarity(3)]
    rng = random.Random(2)
    while len(graphs) < 40:
        g = random_connected_graph(rng.randint(4, 10), rng.uniform(0.3, 0.8), rng)
        if rl.diameter(g) == 2:
            graphs.append(g)
    return graphs


def test_diameter_two_radio_number_is_one_plus_shortest_path_cover():
    # at diameter <= 2 every gap can be exactly its need, so the table
    # alone gives rn: the least total need over Hamiltonian paths, plus 1
    for g in diameter_two_graphs():
        need = 3 - all_pairs_distances(g)
        table = _path_table(need)
        assert radio_number_exact(g, g.n)[0] == 1 + int(table[-1].min())


# ---------------------------------------------------------------------------
# analyzer


def test_analyze_complete_bipartite_not_graceful():
    v = analyze(rl.complete_bipartite(3, 3))
    assert v.status == NOT_RADIO_GRACEFUL
    assert v.rule == "bipartite-even-diameter"
    assert isinstance(v.certificate, Obstruction)
    assert v.rn_lower == 7


def test_analyze_er5_graceful_by_bounded_degree():
    v = analyze(rl.erdos_renyi_polarity(5))
    assert v.status == RADIO_GRACEFUL
    assert v.rule == "diameter-2-bounded-degree"
    assert v.certificate.span == 31


def test_analyze_mms5_graceful():
    v = analyze(rl.mms_graph(5))
    assert v.status == RADIO_GRACEFUL
    assert v.certificate.span == 50
    assert verify(rl.mms_graph(5), v.certificate) == []


def test_analyze_trivial_diameter():
    v = analyze(rl.complete(6))
    assert v.status == RADIO_GRACEFUL and v.rule == "trivial-diameter"


def test_analyze_odd_cycle_honestly_unknown():
    v = analyze(rl.cycle(7))
    assert v.status == UNKNOWN
    assert (v.rn_lower, v.rn_upper) == (7, None)


def test_analyze_star_not_graceful():
    # bipartite with even diameter 2, so the parity rule fires first
    v = analyze(rl.complete_bipartite(1, 4))
    assert v.status == NOT_RADIO_GRACEFUL
    assert v.rule == "bipartite-even-diameter"


def test_analyze_antipodal_disconnected_rule_non_bipartite():
    # K4 plus a pendant: diameter 2, contains triangles, complement leaves
    # the dominating vertex isolated
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    v = analyze(g)
    assert v.status == NOT_RADIO_GRACEFUL
    assert v.rule == "antipodal-disconnected"


def test_analyze_requires_connected():
    with pytest.raises(Disconnected):
        analyze(Graph(4, [(0, 1), (2, 3)]))


def test_analyze_near_complete_regular_bipartite():
    # (m-2)-regular bipartite on 2m vertices whose antipodal graph is one
    # cycle: the constructive path heuristic walks that cycle without
    # spending the budget, so even a budget of one node settles it
    for m in range(5, 12):
        edges = [
            (i, m + j)
            for i in range(m)
            for j in range(m)
            if j not in (i, (i + 1) % m)
        ]
        g = Graph(2 * m, edges)
        assert rl.regularity(g) == m - 2
        a = antipodal(g)
        assert rl.regularity(a) == 2 and len(rl.components(a)) == 1
        v = analyze(g, deadline=1)
        assert v.status == RADIO_GRACEFUL
        assert v.rule == "antipodal-path-found"
        assert verify(g, v.certificate) == []


def test_analyze_near_complete_disconnected_antipodal():
    # (m-1)-regular bipartite: antipodal graph is a perfect matching
    g = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])
    v = analyze(g)
    assert v.status == NOT_RADIO_GRACEFUL
    assert v.rule == "antipodal-disconnected"


def test_analyze_unknown_on_budget_exhaustion():
    # diameter-2 graph above the degree bound with a searchable antipodal
    # graph: with a tiny budget the verdict must stay honest
    g = complement(rl.cycle(9))
    v = analyze(g, deadline=1)
    assert v.status in (RADIO_GRACEFUL, UNKNOWN)
    if v.status == UNKNOWN:
        assert v.rule == "search-budget-exhausted"
        assert (v.rn_lower, v.rn_upper) == (9, None)


def test_settle_closes_the_girth_8_cage():
    # analyze leaves rn open above; the cage labeling closes it at |V|+1
    g = rl.builtin_graph("cage-3-8")
    assert analyze(g).rn_upper is None
    v, lab = rl.settle(g)
    assert (v.status, v.rule) == (NOT_RADIO_GRACEFUL, "bipartite-even-diameter")
    assert v.rn_lower == v.rn_upper == lab.span == 31
    assert verify(g, lab) == []


def test_settle_closes_the_girth_12_cage():
    # diameter 6 picks the hexagon-cage labeling: rn = |V|+1 = 127
    g = rl.builtin_graph("cage-3-12")
    v, lab = rl.settle(g)
    assert (v.status, v.rule) == (NOT_RADIO_GRACEFUL, "bipartite-even-diameter")
    assert v.rn_lower == v.rn_upper == lab.span == 127
    assert verify(g, lab) == []


def test_settle_cage_search_timeout_leaves_rn_open():
    v, lab = rl.settle(rl.builtin_graph("cage-3-8"), deadline=1)
    assert lab is TIMEOUT
    assert (v.rn_lower, v.rn_upper) == (31, None)


def test_settle_oracle_timeout_leaves_rn_open():
    v, lab = rl.settle(rl.cycle(12), 1)
    assert lab is TIMEOUT
    assert v == analyze(rl.cycle(12))
    assert (v.rule, v.rn_lower, v.rn_upper) == ("bipartite-even-diameter", 13, None)


def test_settle_small_graphs_use_the_oracle():
    v, lab = rl.settle(rl.cycle(7))
    assert (v.status, v.rule) == (NOT_RADIO_GRACEFUL, "exact-oracle")
    assert v.rn_lower == v.rn_upper == lab.span == 10
    # C8's antipodal graph has four components; the oracle settles it
    v, lab = rl.settle(rl.cycle(8))
    assert (v.status, v.rule) == (NOT_RADIO_GRACEFUL, "bipartite-even-diameter")
    assert v.rn_lower == v.rn_upper == lab.span == 14
    assert verify(rl.cycle(8), lab) == []
    # a graceful verdict keeps analyze's own certificate
    g = rl.petersen()
    v, lab = rl.settle(g)
    assert lab == analyze(g).certificate and v.rn_upper == 10


def test_settle_leaves_other_large_graphs_to_analyze():
    # C14, P40 and Q6 have three or more antipodal components: settle runs
    # no search of its own on them, as on C13 (Unknown) and PG(2,2) (graceful)
    for g in (rl.cycle(13), rl.projective_plane_incidence(2), rl.cycle(14), rl.path(40),
              _hypercube(6)):
        budget, alone = SearchBudget(10**6), SearchBudget(10**6)
        v, lab = rl.settle(g, budget)
        assert v == analyze(g, alone) and budget.spent == alone.spent
        assert lab == (v.certificate if v.status == RADIO_GRACEFUL else None)


@pytest.mark.parametrize("m, n", [(7, 7), (3, 20), (1, 30)])
def test_settle_closes_complete_bipartite_at_n_plus_1(m, n):
    # the antipodal components are the two sides, cliques of the antipodal
    # graph, so the search places every vertex once without backtracking
    g = rl.complete_bipartite(m, n)
    budget = SearchBudget(10**6)
    v, lab = rl.settle(g, budget)
    assert (v.status, v.rule) == (NOT_RADIO_GRACEFUL, "bipartite-even-diameter")
    assert v.rn_lower == v.rn_upper == lab.span == m + n + 1
    assert verify(g, lab) == []
    assert budget.spent == m + n


def test_settle_two_component_search_is_complete(atlas7, monkeypatch):
    # with the oracle switched off, settle's search finds a span-(n+1)
    # labeling exactly where the oracle's rn is n+1
    monkeypatch.setattr(rl.radio, "ORACLE_VERTEX_LIMIT", 0)
    checked = 0
    for g in atlas7:
        v = analyze(g)
        comps = getattr(v.certificate, "antipodal_components", None)
        if v.status != NOT_RADIO_GRACEFUL or comps is None or len(comps) != 2:
            continue
        checked += 1
        _, lab = rl.settle(g)
        rn, _ = radio_number_exact(g)
        if rn == g.n + 1:
            assert lab.span == g.n + 1 and verify(g, lab) == []
        else:
            assert lab == Obstruction("no-span-n+1-labeling", comps, lab.nodes_searched)
    assert checked == 188


def test_analyze_certificates_are_sound(atlas7):
    rng = random.Random(5)
    sample = rng.sample(atlas7, 120)
    for g in sample:
        v = analyze(g)
        if v.status == RADIO_GRACEFUL:
            assert isinstance(v.certificate, RadioLabeling)
            assert v.certificate.span == g.n
            assert verify(g, v.certificate) == []
            assert (v.rn_lower, v.rn_upper) == (g.n, g.n)
        elif v.status == NOT_RADIO_GRACEFUL:
            assert isinstance(v.certificate, Obstruction)
            assert v.rn_lower == g.n + 1
            if v.certificate.kind == "antipodal-disconnected":
                assert len(v.certificate.antipodal_components) >= 2


def test_analyze_agrees_with_oracle_on_random_8_vertex_corpus():
    # deterministic n=8 sample; together with the exhaustive <=7 atlas this
    # brings the cross-validated corpus to a few thousand graphs
    rng = random.Random(123)
    for _ in range(1500):
        g = random_connected_graph(8, rng.uniform(0.25, 0.8), rng)
        v = analyze(g)
        if v.status == UNKNOWN:
            continue
        rn, _ = radio_number_exact(g)
        assert (v.status == RADIO_GRACEFUL) == (rn == 8)


@pytest.mark.parametrize("m", range(5, 13))
def test_complement_cycles_graceful(m):
    v = analyze(complement(rl.cycle(m)))
    assert v.status == RADIO_GRACEFUL


@pytest.mark.parametrize("n", range(5, 13))
def test_complement_paths_graceful(n):
    v = analyze(complement(rl.path(n)))
    assert v.status == RADIO_GRACEFUL


def test_complement_tadpoles_graceful():
    for m in range(3, 10):
        for n in range(1, 10):
            if 7 <= m + n <= 12:
                v = analyze(complement(rl.tadpole(m, n)))
                assert v.status == RADIO_GRACEFUL, (m, n, v.rule)


def test_c5_and_complement_both_graceful():
    c5 = rl.cycle(5)
    assert analyze(c5).status == RADIO_GRACEFUL
    assert analyze(complement(c5)).status == RADIO_GRACEFUL


# ---------------------------------------------------------------------------
# labeling file format


def test_labeling_json_round_trip():
    g = rl.petersen()
    lab = analyze(g).certificate
    text = labeling_to_json(g, lab)
    n, diam, back = labeling_from_json(text)
    assert (n, diam) == (10, 2)
    assert back == lab
    # stable byte output
    assert text == labeling_to_json(g, lab)


def test_labeling_json_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        labeling_from_json('{"n": 3, "diameter": 1, "labels": [1, 2], "span": 2}')
    with pytest.raises(ValueError):
        labeling_from_json('{"n": 2, "diameter": 1, "labels": [1, 2], "span": 5}')


@pytest.mark.parametrize("text", [
    '{"n": 2, "diameter": true, "labels": [true, 3], "span": 3}',
    '{"n": 2, "diameter": 1, "labels": [1, false], "span": 1}',
    '{"n": true, "diameter": 1, "labels": [1], "span": 1}',
    '{"n": 1, "diameter": 1, "labels": [1], "span": true}',
])
def test_labeling_json_rejects_booleans(text):
    # JSON true/false parse as Python bools, which are ints
    with pytest.raises(ValueError, match="must be integers"):
        labeling_from_json(text)
