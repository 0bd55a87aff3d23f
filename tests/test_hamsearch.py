import itertools
import random
import sys

import pytest

import radiolab as rl
from radiolab import (
    TIMEOUT,
    BadPermutation,
    Graph,
    PathCertificate,
    PreconditionFailed,
    antipodal,
    complement,
    components,
    dirac_hamiltonian_path,
    find_cycle_power,
    find_hamiltonian_path,
    verify_certificate,
)

from radiolab.graphcore import _bit_rows
from radiolab.hamsearch import (
    _bits,
    _connected,
    _cycle_power_constraints,
    _rotation_extension_path,
    _splits_three_ways,
    _window_ordering,
)

from conftest import (
    brute_has_ham_cycle,
    brute_has_ham_path,
    random_connected_graph,
    random_graph,
)


def test_no_path_in_disjoint_edges():
    assert find_hamiltonian_path(Graph(6, [(0, 1), (2, 3), (4, 5)])) is None


def test_path_in_heawood_antipodal():
    a = antipodal(rl.projective_plane_incidence(2))
    cert = find_hamiltonian_path(a)
    assert isinstance(cert, PathCertificate)
    assert verify_certificate(a, cert)


def test_path_in_polarity_complement():
    g = complement(rl.erdos_renyi_polarity(2))
    cert = find_hamiltonian_path(g)
    assert isinstance(cert, PathCertificate)
    assert verify_certificate(g, cert)


def test_agreement_with_bruteforce_on_atlas(atlas6):
    for g in atlas6:
        got = find_hamiltonian_path(g)
        assert got is not TIMEOUT
        assert (got is not None) == brute_has_ham_path(g)
        if got is not None:
            assert verify_certificate(g, got)


@pytest.mark.parametrize("seed", range(20))
def test_agreement_with_bruteforce_random(seed):
    rng = random.Random(7000 + seed)
    n = rng.randint(7, 10)
    g = random_connected_graph(n, rng.uniform(0.2, 0.6), rng)
    got = find_hamiltonian_path(g)
    assert got is not TIMEOUT
    assert (got is not None) == brute_has_ham_path(g)


def test_exact_search_alone_agrees_with_bruteforce(atlas6, monkeypatch):
    # the constructive phase answers almost every positive case, so switch
    # it off and let the window search decide every graph by itself
    monkeypatch.setattr(rl.hamsearch, "_rotation_extension_path", lambda g: None)
    rng = random.Random(7100)
    graphs = list(atlas6)
    for _ in range(20):
        n = rng.randint(7, 10)
        graphs.append(random_connected_graph(n, rng.uniform(0.2, 0.6), rng))
    for g in graphs:
        got = find_hamiltonian_path(g)
        assert got is not TIMEOUT
        assert (got is not None) == brute_has_ham_path(g)
        if got is not None:
            assert verify_certificate(g, got)


def _rotation_extension_by_min(rows):
    """Reference for the degree-class masks: the constructive attempt that
    ranks every fresh neighbour by (degree, index) and takes the least."""
    n = len(rows)
    if n == 0:
        return []
    by_rank = sorted(range(n), key=lambda v: rows[v].bit_count())
    key = {v: i for i, v in enumerate(by_rank)}.__getitem__
    path = [by_rank[0]]
    on_path = 1 << path[0]
    while len(path) < n:
        extended = False
        for _ in range(2):
            fresh = rows[path[-1]] & ~on_path
            if fresh:
                w = min(_bits(fresh), key=key)
                path.append(w)
                on_path |= 1 << w
                extended = True
                break
            path.reverse()
        if extended:
            continue
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
                    if rows[rotated[-1]] & ~on_path:
                        path = rotated
                        improved = True
                        break
                    if rotated[-1] not in seen:
                        seen.add(rotated[-1])
                        queue.append(rotated)
            if improved:
                break
            path.reverse()
        if not improved:
            return None
    return path


@pytest.mark.parametrize("seed", range(4))
def test_rotation_extension_matches_least_ranked_rule(seed):
    # irregular graphs, most with several degree classes, some of which
    # defeat the heuristic; the antipodal graphs of PG(2,q) are regular
    rng = random.Random(7300 + seed)
    found = failed = 0
    for _ in range(60):
        n = rng.randint(1, 90)
        g = random_graph(n, rng.uniform(0.02, 0.5), rng)
        got = _rotation_extension_path(g._rows)
        assert got == _rotation_extension_by_min(g._rows)
        found += got is not None
        failed += got is None
    assert found and failed


def _cycles_at_a_vertex(lengths):
    """Cycles of the given lengths sharing vertex 0."""
    edges, n = [], 1
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, 0))
    return Graph(n, edges)


def test_three_cycles_at_a_cut_vertex_are_not_traceable():
    # removing the shared vertex leaves three paths; the unplaced vertices
    # lose connectivity as soon as a path walks through it
    g = _cycles_at_a_vertex((150, 150, 150))
    assert g.n == 448
    assert find_hamiltonian_path(g, deadline=10**5) is None


def test_three_long_cycles_at_a_cut_vertex_cost_no_search_node():
    g = _cycles_at_a_vertex((600, 600, 600))
    budget = rl.SearchBudget(10**7)
    assert find_hamiltonian_path(g, budget) is None
    assert budget.spent == 0


@pytest.mark.parametrize("seed", range(4))
def test_three_way_cut_vertex_matches_vertex_removal(seed):
    rng = random.Random(7200 + seed)
    for _ in range(40):
        g = random_graph(rng.randint(1, 14), rng.uniform(0.05, 0.4), rng)
        splits = any(
            len(components(g.induced_subgraph([u for u in comp if u != v]))) >= 3
            for comp in components(g) for v in comp
        )
        assert _splits_three_ways(g._rows) == splits


def _window_ordering_full_bfs(rows, constraints, allowed, budget):
    """Reference for the connectivity pre-test: the window search with one
    bitset search over the whole unplaced set after each placement of a
    vertex with two or more unplaced neighbours in the chain table."""
    size = len(allowed)
    order = []
    free = 0
    for mask in allowed:
        free |= mask
    ties = [{t for j, t in constraints[k] if j == k - 1} for k in range(1, size)]
    chain = None
    if ties and free.bit_count() == size:
        chain = next((rows[t] for t in ties[0] if all(t in s for s in ties)), None)
    if chain is not None and not _connected(free, chain):
        return None

    def ranked(k):
        cand = allowed[k] & free
        for j, t in constraints[k]:
            cand &= rows[t][order[j]]
        if k + 1 == size:
            return _bits(cand)
        base = allowed[k + 1] & free
        links = [rows[t] for j, t in constraints[k + 1] if j == k]
        for j, t in constraints[k + 1]:
            if j < k:
                base &= rows[t][order[j]]
        scored = []
        for c in _bits(cand):
            onward = base & ~(1 << c)
            for table in links:
                onward &= table[c]
            if onward:
                scored.append((onward.bit_count(), c))
        scored.sort()
        return [c for _, c in scored]

    frames = [iter(ranked(0))]
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
        if (chain is not None and (chain[c] & free).bit_count() > 1
                and not _connected(free, chain)):
            free |= 1 << order.pop()
            continue
        frames.append(iter(ranked(len(order))))
    return None


def _window_run(search, g, power, nodes, loops=False):
    """The ordering and node count of a path (power 0) or cycle-power
    window search over g's adjacency rows, each with its own bit when
    ``loops``; TIMEOUT past ``nodes``."""
    n = g.n
    adjacency = [sum(1 << w for w in g.neighbors(v)) | loops << v for v in range(n)]
    if power == 0:
        constraints = [[]] + [[(k - 1, 0)] for k in range(1, n)]
    else:
        constraints = [[(j, 0) for j in range(max(0, k - power), k)]
                       + [(j, 0) for j in range(min(k + power - n + 1, k - power))]
                       for k in range(n)]
    budget = rl.SearchBudget(nodes)
    order = search([adjacency], constraints, [(1 << n) - 1] * n, budget)
    return order, budget.spent


@pytest.mark.parametrize("seed", range(6))
def test_connectivity_pretest_keeps_every_node_count(seed):
    rng = random.Random(7400 + seed)
    for _ in range(12):
        g = random_graph(rng.randint(6, 22), rng.uniform(0.1, 0.45), rng)
        for power in (0, 1, 2):
            assert (_window_run(_window_ordering, g, power, 3000)
                    == _window_run(_window_ordering_full_bfs, g, power, 3000))


@pytest.mark.parametrize("seed", range(3))
def test_batched_scoring_keeps_every_ordering(seed, monkeypatch):
    # score every position in one numpy batch, whatever its candidate count
    # (a table with loops checks that a candidate does not count itself)
    monkeypatch.setattr(rl.hamsearch, "_BATCH_CANDIDATES", 0)
    rng = random.Random(7500 + seed)
    for _ in range(8):
        g = random_graph(rng.randint(6, 100), rng.uniform(0.05, 0.45), rng)
        for power, loops in itertools.product((0, 1, 2), (False, True)):
            assert (_window_run(_window_ordering, g, power, 500, loops)
                    == _window_run(_window_ordering_full_bfs, g, power, 500, loops))


def test_connectivity_pretest_keeps_the_long_square_search():
    n = 1200
    g = Graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    got = _window_run(_window_ordering, g, 2, 10**4)
    assert got == _window_run(_window_ordering_full_bfs, g, 2, 10**4)
    assert got[1] == 1204


class _DepthTrace(rl.SearchBudget):
    """A budget that records, at each charge, how many positions the
    calling search had filled (its ``order`` list) before the placement."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.depths = []

    def charge(self):
        self.depths.append(len(sys._getframe(1).f_locals["order"]))
        return super().charge()


def _two_component_instance(rng):
    """The ``dist >= t`` tables (t = 2..diam) of a random connected graph,
    and the constraints and allowed sets of a span-(n+1) search over them:
    labels 1..s-1 on a random set of s-1 vertices, then s+1..n+1 on the
    rest, labels g < diam apart at distance >= diam+1-g.  When s = n+1
    nothing is skipped.  Now and then every vertex is allowed at every
    position, or each position also allows random vertices of the other
    set."""
    n = rng.randint(4, 13)
    g = random_connected_graph(n, rng.uniform(0.15, 0.6), rng)
    dist = rl.all_pairs_distances(g)
    diam = int(dist.max())
    rows = [_bit_rows(dist >= t) if t >= 2 else None for t in range(diam + 1)]
    skip = rng.randint(2, n + 1)
    first = sum(1 << v for v in rng.sample(range(n), skip - 1))
    everyone = (1 << n) - 1
    allowed = [first] * (skip - 1) + [everyone ^ first] * (n + 1 - skip)
    mode = rng.random()
    if mode < 0.25:
        allowed = [everyone] * n
    elif mode < 0.5:
        allowed = [mask | rng.getrandbits(n) for mask in allowed]
    label = [f for f in range(1, n + 2) if f != skip]
    constraints = [[(j, diam + 1 - label[k] + label[j])
                    for j in range(max(0, k - diam), k) if label[k] - label[j] < diam]
                   for k in range(n)]
    return rows, constraints, allowed


def _traced_run(search, instance, nodes):
    """The result, nodes spent and per-charge depths of one search;
    TIMEOUT past ``nodes``."""
    budget = _DepthTrace(nodes)
    order = search(*instance, budget)
    return order, budget.spent, budget.depths


@pytest.mark.parametrize("batch", [0, None])
@pytest.mark.parametrize("seed", range(4))
def test_two_component_searches_match_the_reference(seed, batch, monkeypatch):
    # the head-first frames rebuild their ranking on the first backtrack:
    # the same orderings, node counts and TIMEOUT points as a search that
    # ranks every position in full, also with budgets that run out just
    # at and just after a backtrack, batched or not
    if batch is not None:
        monkeypatch.setattr(rl.hamsearch, "_BATCH_CANDIDATES", batch)
    rng = random.Random(7600 + seed)
    backtracks = 0
    for _ in range(25):
        instance = _two_component_instance(rng)
        got = _traced_run(_window_ordering, instance, 4000)
        assert got == _traced_run(_window_ordering_full_bfs, instance, 4000)
        depths = got[2]
        cuts = [i for i in range(1, len(depths)) if depths[i] <= depths[i - 1]][:6]
        backtracks += len(cuts)
        for i in cuts:
            for nodes in (i, i + 1, i + 2):
                assert (_traced_run(_window_ordering, instance, nodes)
                        == _traced_run(_window_ordering_full_bfs, instance, nodes))
    assert backtracks


@pytest.mark.parametrize("batch", [0, None])
def test_positions_with_no_tie_table_match_the_reference(batch, monkeypatch):
    # the label skipped between the two runs of a span-(n+1) search of
    # K_{a,b} leaves the last position of the first run with no table
    # tying it to the next: it scores over every vertex but the candidate,
    # in the numpy batch at 0, and at the default in a loop unless it has
    # more than 256 candidates (K_{1,300} with every vertex allowed); the
    # 300-vertex side takes the batch at the default too
    if batch is not None:
        monkeypatch.setattr(rl.hamsearch, "_BATCH_CANDIDATES", batch)
    for a, b in ((1, 300), (4, 300), (300, 4), (3, 5)):
        g = rl.complete_bipartite(a, b)
        n = a + b
        rows = {2: _bit_rows(rl.all_pairs_distances(g) >= 2)}
        first, second = (sum(1 << v for v in comp) for comp in components(antipodal(g)))
        label = list(range(1, a + 1)) + list(range(a + 2, n + 2))
        constraints = [[(j, 3 - label[k] + label[j])
                        for j in range(max(0, k - 2), k) if label[k] - label[j] < 2]
                       for k in range(n)]
        assert constraints[a] == []
        for allowed in ([first] * a + [second] * b, [(1 << n) - 1] * n):
            instance = rows, constraints, allowed
            got = _traced_run(_window_ordering, instance, 5000)
            assert got[0] is not None and got[0] is not TIMEOUT
            assert got == _traced_run(_window_ordering_full_bfs, instance, 5000)


def test_cycle_power_constraints_match_the_full_expression():
    # windows for every position, wrap-around pairs for the last ``power``
    for n in range(3, 31):
        for power in range(1, 5):
            assert _cycle_power_constraints(n, power) == [
                [(j, 0) for j in range(max(0, k - power), k)]
                + [(j, 0) for j in range(min(k + power - n + 1, k - power))]
                for k in range(n)
            ]


@pytest.mark.parametrize("seed", range(3))
def test_connected_matches_components(seed):
    # the single-vertex frontier reads its row directly
    rng = random.Random(7700 + seed)
    for _ in range(40):
        g = random_graph(rng.randint(1, 30), rng.uniform(0.02, 0.3), rng)
        mask = sum(1 << v for v in range(g.n) if rng.random() < 0.7) or 1
        sub = g.induced_subgraph(_bits(mask))
        assert _connected(mask, g._rows) == (len(components(sub)) == 1)


def test_disconnected_graph_costs_no_search_node():
    two_k4 = Graph(8, [(u + s, v + s) for s in (0, 4) for u in range(4)
                       for v in range(u + 1, 4)])
    budget = rl.SearchBudget(10)
    assert find_cycle_power(two_k4, 1, budget) is None
    assert find_hamiltonian_path(two_k4, budget) is None
    assert budget.spent == 0


def test_dirac_guarantee_small(atlas7):
    for g in atlas7:
        if 2 * min(g.degrees()) >= g.n - 1:
            cert = find_hamiltonian_path(g)
            assert isinstance(cert, PathCertificate)


def test_timeout_is_distinct_from_none():
    # unbalanced complete bipartite: no Hamiltonian path exists, and with a
    # one-node budget the search cannot prove it
    g = rl.complete_bipartite(4, 6)
    assert find_hamiltonian_path(g, deadline=1) is TIMEOUT
    assert find_hamiltonian_path(g) is None
    assert bool(TIMEOUT) is False


def test_cycle_power_complete_graph():
    k5 = rl.complete(5)
    cert = find_cycle_power(k5, 2)
    assert isinstance(cert, PathCertificate)
    assert cert.kind == "cycle_power" and cert.power == 2
    assert verify_certificate(k5, cert)


@pytest.mark.parametrize("power", [0, -3])
def test_verify_certificate_rejects_power_below_one(power):
    # 0 2 4 1 3 5 is no Hamiltonian cycle of C6; with no power >= 1 to
    # check, the certificate would otherwise pass vacuously
    c6 = rl.cycle(6)
    cert = PathCertificate((0, 2, 4, 1, 3, 5), "cycle_power", power)
    with pytest.raises(ValueError, match="power must be >= 1"):
        verify_certificate(c6, cert)
    assert not verify_certificate(c6, PathCertificate(cert.ordering, "cycle_power", 1))


def test_cycle_power_degree_obstruction():
    # a 2-regular graph cannot host the square of a Hamiltonian cycle
    assert find_cycle_power(rl.cycle(5), 2) is None


def test_cycle_power_in_gq2_antipodal_component():
    a = antipodal(rl.generalized_quadrangle_incidence(2))
    comp = components(a)[0]
    sub = a.induced_subgraph(comp)
    cert = find_cycle_power(sub, 2)
    assert isinstance(cert, PathCertificate)
    assert verify_certificate(sub, cert)


def test_cycle_power_one_is_hamiltonian_cycle(atlas6):
    for g in atlas6:
        if g.n > 8:
            continue
        got = find_cycle_power(g, 1)
        assert got is not TIMEOUT
        assert (got is not None) == brute_has_ham_cycle(g)
        if got is not None:
            assert verify_certificate(g, got)


@pytest.mark.parametrize("seed", range(6))
def test_cycle_power_one_matches_oracle_up_to_ten(seed):
    rng = random.Random(4200 + seed)
    n = rng.randint(9, 10)
    g = random_connected_graph(n, rng.uniform(0.25, 0.5), rng)
    got = find_cycle_power(g, 1)
    assert got is not TIMEOUT
    assert (got is not None) == brute_has_ham_cycle(g)


def test_cycle_power_explicit_square():
    # the square of C8 contains (by construction) the square of a
    # Hamiltonian cycle
    n = 8
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
    g = Graph(n, [(min(u, v), max(u, v)) for u, v in edges])
    cert = find_cycle_power(g, 2)
    assert isinstance(cert, PathCertificate)
    assert verify_certificate(g, cert)


def test_cycle_power_long_square_has_no_recursion_limit():
    # one placement per vertex on an explicit stack: 1200 positions used
    # to overflow the interpreter's recursion limit
    n = 1200
    g = Graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    cert = find_cycle_power(g, 2, deadline=10**5)
    assert isinstance(cert, PathCertificate)
    assert verify_certificate(g, cert)


def test_verify_certificate_reversal_and_corruption():
    g = rl.cycle(6)
    cert = PathCertificate((0, 1, 2, 3, 4, 5), "cycle_power", 1)
    assert verify_certificate(g, cert)
    rev = PathCertificate(tuple(reversed(cert.ordering)), "cycle_power", 1)
    assert verify_certificate(g, rev)
    swapped = PathCertificate((0, 2, 1, 3, 4, 5), "cycle_power", 1)
    assert not verify_certificate(g, swapped)


def test_verify_certificate_bad_permutation():
    with pytest.raises(BadPermutation):
        verify_certificate(rl.cycle(4), PathCertificate((0, 1, 2, 2), "path"))
    with pytest.raises(BadPermutation):
        verify_certificate(rl.cycle(4), PathCertificate((0, 1, 2), "path"))


def test_benchmark_sequences_on_bundled_cages():
    for cage, prefix in (("cage-3-8", "cage-3-8"), ("cage-4-8", "cage-4-8")):
        g = rl.builtin_graph(cage)
        a = antipodal(g)
        comps = components(a)
        for comp, which in zip(comps, ("points", "lines")):
            seq = rl.builtin_sequence(f"{prefix}-{which}")
            assert seq[0] == seq[-1]
            index = {v: i for i, v in enumerate(comp)}
            cert = PathCertificate(
                tuple(index[v] for v in seq[:-1]), "cycle_power", 2
            )
            assert verify_certificate(a.induced_subgraph(comp), cert)


def test_dirac_constructive_path():
    for seed in range(8):
        rng = random.Random(9000 + seed)
        n = rng.randint(4, 60)
        # random graph topped up to the Dirac path bound
        g = random_connected_graph(n, 0.5, rng)
        edges = set(g.edges())
        degs = g.degrees()
        for v in range(n):
            others = sorted(range(n), key=lambda u: (degs[u], u))
            for u in others:
                if degs[v] * 2 >= n - 1:
                    break
                if u != v and (min(u, v), max(u, v)) not in edges:
                    edges.add((min(u, v), max(u, v)))
                    degs[u] += 1
                    degs[v] += 1
        g = Graph(n, sorted(edges))
        cert = dirac_hamiltonian_path(g)
        assert verify_certificate(g, cert)


def test_dirac_constructive_rejects_sparse():
    with pytest.raises(PreconditionFailed):
        dirac_hamiltonian_path(rl.cycle(6))


def test_every_returned_certificate_verifies(atlas6):
    for g in atlas6[::5]:
        for result in (find_hamiltonian_path(g), find_cycle_power(g, 1)):
            if isinstance(result, PathCertificate):
                assert verify_certificate(g, result)
