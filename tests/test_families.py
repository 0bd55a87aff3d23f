from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import radiolab as rl
from radiolab import families
from radiolab.graphcore import _bit_rows
from radiolab import (
    BadParams,
    LoopError,
    NotPrimePower,
    ParseError,
    UnsupportedOrder,
    antipodal,
    bipartition,
    components,
    diameter,
    girth,
    load_edge_list,
    moore_bound,
    regularity,
    write_edge_list,
)


def test_classic_counts():
    assert rl.complete(4).num_edges == 6
    c5 = rl.cycle(5)
    assert regularity(c5) == 2 and girth(c5) == 5
    t = rl.tadpole(3, 2)
    assert (t.n, t.num_edges) == (5, 5)
    assert rl.path(1).n == 1
    assert rl.complete_bipartite(2, 3).num_edges == 6


def test_classic_bad_params():
    for call in (
        lambda: rl.complete(0),
        lambda: rl.cycle(2),
        lambda: rl.path(0),
        lambda: rl.complete_bipartite(0, 3),
        lambda: rl.tadpole(2, 1),
        lambda: rl.tadpole(3, 0),
    ):
        with pytest.raises(BadParams):
            call()


def test_tadpole_shape():
    t = rl.tadpole(4, 2)
    assert t.is_edge(0, 4)
    assert t.degree(5) == 1
    assert girth(t) == 4


def test_petersen_is_moore_graph():
    p = rl.petersen()
    assert (p.n, regularity(p), girth(p), diameter(p)) == (10, 3, 5, 2)
    assert p.n == moore_bound(3, 2)


def test_hoffman_singleton_is_moore_graph():
    hs = rl.hoffman_singleton()
    assert (hs.n, regularity(hs), girth(hs), diameter(hs)) == (50, 7, 5, 2)
    assert hs.n == moore_bound(7, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_plane_incidence_invariants(q):
    g = rl.projective_plane_incidence(q)
    m = q * q + q + 1
    assert g.n == 2 * m
    assert regularity(g) == q + 1
    assert diameter(g) == 3
    assert girth(g) == 6
    assert bipartition(g) == (0,) * m + (1,) * m


def reference_orthogonality(q, ncoords, form):
    """orth[i][j] from dot products taken one field_add/field_mul at a time,
    over the canonical points listed independently of the constructors."""
    f = rl.make_field(q)
    pts = [p for p in product(range(q), repeat=ncoords)
           if any(p) and p[next(i for i, x in enumerate(p) if x)] == 1]
    add = [[rl.field_add(f, a, b) for b in range(q)] for a in range(q)]
    mul = [[rl.field_mul(f, a, b) for b in range(q)] for a in range(q)]
    orth = []
    for u in pts:
        w = form(f, u)
        row = []
        for v in pts:
            s = 0
            for a, b in zip(w, v):
                s = add[s][mul[a][b]]
            row.append(s == 0)
        orth.append(row)
    return f, pts, orth


def symplectic(f, u):
    return (rl.field_neg(f, u[1]), u[0], rl.field_neg(f, u[3]), u[2])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 23])
def test_orthogonality_matches_dot_products_in_the_plane(q):
    f, pts, want = reference_orthogonality(q, 3, lambda f, u: u)
    assert families._pg_points(q, 3) == pts
    got = families._orthogonality(f, pts, lambda u: u)
    assert got.dtype == bool and got.tolist() == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_orthogonality_matches_dot_products_under_the_symplectic_form(q):
    f, pts, want = reference_orthogonality(q, 4, symplectic)
    assert families._pg_points(q, 4) == pts
    got = families._orthogonality(f, pts, lambda u: symplectic(f, u))
    assert got.tolist() == want


@pytest.mark.parametrize("q", [19, 23])
def test_plane_graphs_above_the_golden_orders_match_dot_products(q):
    # q is prime, so field sums and products are integers mod q
    pts = np.array(families._pg_points(q, 3))
    n = len(pts)
    first, second = np.nonzero(pts @ pts.T % q == 0)
    pairs = list(zip(first.tolist(), second.tolist()))
    incidence = rl.Graph(2 * n, [(i, n + j) for i, j in pairs])
    polarity = rl.Graph(n, [(i, j) for i, j in pairs if i < j])
    assert rl.projective_plane_incidence(q) == incidence
    assert rl.erdos_renyi_polarity(q) == polarity
    assert incidence.num_edges == n * (q + 1)


def test_projective_plane_q2_is_heawood():
    g = rl.projective_plane_incidence(2)
    assert (g.n, regularity(g)) == (14, 3)
    assert g.n == rl.bipartite_moore_bound(3, 3)


def test_projective_plane_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        rl.projective_plane_incidence(6)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_generalized_quadrangle_invariants(q):
    g = rl.generalized_quadrangle_incidence(q)
    m = (q + 1) * (q * q + 1)
    assert g.n == 2 * m
    assert regularity(g) == q + 1
    assert diameter(g) == 4
    assert girth(g) == 8
    assert bipartition(g) == (0,) * m + (1,) * m


def meets_quadrangle(q):
    """W(q) from the meets of the perps of all orthogonal point pairs: each
    distinct meet is listed once as a line, and the lines are numbered in
    the sorted order of their point tuples."""
    f = rl.make_field(q)
    pts = families._pg_points(q, 4)
    n = len(pts)
    orth = families._orthogonality(f, pts, lambda u: symplectic(f, u))
    perp = _bit_rows(orth)
    first, second = np.nonzero(np.triu(orth, 1))
    meets = {perp[i] & perp[j]: (i, j) for i, j in zip(first.tolist(), second.tolist())}
    assert len(meets) == n
    first, second = np.array(list(meets.values())).T
    lines = sorted(map(tuple, np.nonzero(orth[first] & orth[second])[1]
                       .reshape(n, q + 1).tolist()))
    return rl.Graph(2 * n, [(p, n + li) for li, line in enumerate(lines) for p in line])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_generalized_quadrangle_matches_the_meets_of_all_pairs(q):
    assert rl.generalized_quadrangle_incidence(q) == meets_quadrangle(q)


def test_gq2_is_tutte_coxeter():
    g = rl.generalized_quadrangle_incidence(2)
    assert g.n == 30 and regularity(g) == 3
    assert g.n == rl.bipartite_moore_bound(3, 4)


@pytest.mark.parametrize("q", [2, 3])
def test_gq_antipodal_two_regular_components(q):
    g = rl.generalized_quadrangle_incidence(q)
    a = antipodal(g)
    assert regularity(a) == q**3
    comps = components(a)
    assert len(comps) == 2
    m = g.n // 2
    assert sorted(len(c) for c in comps) == [m, m]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_polarity_graph_profile(q):
    g = rl.erdos_renyi_polarity(q)
    n = q * q + q + 1
    assert g.n == n
    assert diameter(g) == 2
    degs = Counter(g.degrees())
    # q+1 self-orthogonal (quadric) points of degree q, the rest q+1
    assert degs[q] == q + 1
    assert degs[q + 1] == n - (q + 1)


def test_polarity_graph_q2_degrees():
    degs = Counter(rl.erdos_renyi_polarity(2).degrees())
    assert degs == {2: 3, 3: 4}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_singer_graph_degree_profile(q):
    g = rl.singer_graph(q)
    n = q * q + q + 1
    assert g.n == n
    degs = Counter(g.degrees())
    assert degs[q] == q + 1  # loop positions lose one degree
    assert degs[q + 1] == n - (q + 1)


def test_singer_graph_q2_quadric_vertex():
    # with the canonical difference set {0,1,3} mod 7, 2*4 = 1 lies in the
    # set, so vertex 4 loses its loop and has degree 2
    g = rl.singer_graph(2)
    assert g.degree(4) == 2


@pytest.mark.parametrize("q", [2, 3, 4])
def test_singer_isomorphic_to_polarity(q):
    assert rl.are_isomorphic(rl.singer_graph(q), rl.erdos_renyi_polarity(q)) is not None


def test_mms_graph_q5():
    g = rl.mms_graph(5)
    assert g.n == 50
    assert regularity(g) == 7
    assert diameter(g) == 2
    # order formula in exact arithmetic: n = (8/9)(d + 1/2)^2 with d = 7
    assert Fraction(8, 9) * Fraction(15, 2) ** 2 == 50


def test_mms_graph_q13_order_and_degree():
    g = rl.mms_graph(13)
    assert g.n == 338
    assert regularity(g) == 19


@pytest.mark.parametrize("q", [3, 6, 7, 8])
def test_mms_rejects_bad_orders(q):
    with pytest.raises(UnsupportedOrder):
        rl.mms_graph(q)


def test_mms_within_part_rule_is_symmetric():
    # q = 1 mod 4 makes -1 an even power of the primitive element, so the
    # within-part difference sets are closed under negation
    f = rl.make_field(13)
    xi = rl.primitive_element(f)
    powers = [1]
    for _ in range(11):
        powers.append(rl.field_mul(f, powers[-1], xi))
    even = set(powers[0::2])
    assert all(rl.field_neg(f, x) in even for x in even)


def test_load_edge_list_basics():
    g = load_edge_list("0 1\n1 2")
    assert g.n == 3 and g.num_edges == 2
    g = load_edge_list("# comment\n0 1\n0 1")
    assert g.num_edges == 1


def test_load_edge_list_errors():
    with pytest.raises(LoopError):
        load_edge_list("0 0")
    with pytest.raises(ParseError) as err:
        load_edge_list("0 1\n0 1 2")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        load_edge_list("0 x")
    with pytest.raises(ParseError):
        load_edge_list("0 -1")


def test_edge_list_round_trip():
    for g in (rl.petersen(), rl.projective_plane_incidence(3), rl.tadpole(5, 2)):
        text = write_edge_list(g, ["header line"])
        back = load_edge_list(text)
        assert back.n == g.n
        assert list(back.edges()) == list(g.edges())


def test_builtin_cages_exist_with_expected_profiles():
    g38 = rl.builtin_graph("cage-3-8")
    assert (g38.n, regularity(g38), girth(g38), diameter(g38)) == (30, 3, 8, 4)
    g48 = rl.builtin_graph("cage-4-8")
    assert (g48.n, regularity(g48), girth(g48), diameter(g48)) == (80, 4, 8, 4)
    g312 = rl.builtin_graph("cage-3-12")
    assert (g312.n, regularity(g312), girth(g312), diameter(g312)) == (126, 3, 12, 6)
    assert bipartition(g312) is not None
    assert g312.n == rl.bipartite_moore_bound(3, 6)


def test_package_ships_only_python_modules():
    # the cages and sequences are built in code: a data file added here
    # would need packaging config that pyproject.toml does not have
    src = Path(rl.__file__).parent
    assert {p.suffix for p in src.iterdir() if p.name != "__pycache__"} == {".py"}
    pyproject = src.parents[1] / "pyproject.toml"
    assert "package-data" not in pyproject.read_text(encoding="utf-8")


def test_builtin_unknown_name():
    with pytest.raises(BadParams):
        rl.builtin_graph("cage-9-9")
