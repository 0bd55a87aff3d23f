"""Tour of the Moore-bound graph families the library can build.

The degree-diameter problem asks for the largest graph with maximum
degree D and diameter k; the Moore bound caps its order, and the rare
graphs attaining the cap are the Moore graphs.  Bipartite analogues
attain the bipartite Moore bound and are exactly the incidence graphs of
generalized polygons.  This script builds each family and checks it
against the bound it is supposed to meet.
"""

import radiolab as rl

print("=" * 64)
print("Moore bounds")
print("=" * 64)
for delta, diam in [(3, 2), (7, 2), (57, 2), (2, 3)]:
    print(f"  M(delta={delta}, diam={diam}) = {rl.moore_bound(delta, diam)}")
for delta, diam in [(3, 3), (3, 4), (3, 6), (4, 4)]:
    print(f"  M_b(delta={delta}, diam={diam}) = {rl.bipartite_moore_bound(delta, diam)}")

print()
print("=" * 64)
print("Classical Moore graphs (degree, diameter) -> order hits the bound")
print("=" * 64)
gallery = [
    ("K_6", rl.complete(6), 5, 1),
    ("C_7", rl.cycle(7), 2, 3),
    ("Petersen", rl.petersen(), 3, 2),
    ("Hoffman-Singleton", rl.hoffman_singleton(), 7, 2),
]
for name, g, delta, diam in gallery:
    bound = rl.moore_bound(delta, diam)
    # diameter and girth both read the graph's one distance matrix
    print(
        f"  {name:20s} n={g.n:3d}  degree={rl.regularity(g)}  "
        f"diameter={rl.diameter(g)}  girth={rl.girth(g)}  bound={bound}"
        f"  {'MEETS BOUND' if g.n == bound else 'below bound'}"
    )

print()
print("=" * 64)
print("Bipartite Moore graphs = incidence graphs of generalized polygons")
print("=" * 64)
for q in (2, 3, 4):
    g = rl.projective_plane_incidence(q)
    bound = rl.bipartite_moore_bound(q + 1, 3)
    print(
        f"  projective plane q={q}: n={g.n:3d} girth={rl.girth(g)} "
        f"diameter={rl.diameter(g)}  bipartite bound={bound}"
    )
for q in (2, 3):
    g = rl.generalized_quadrangle_incidence(q)
    bound = rl.bipartite_moore_bound(q + 1, 4)
    print(
        f"  gen. quadrangle q={q}: n={g.n:3d} girth={rl.girth(g)} "
        f"diameter={rl.diameter(g)}  bipartite bound={bound}"
    )
g = rl.builtin_graph("cage-3-12")
print(
    f"  gen. hexagon    q=2: n={g.n:3d} girth={rl.girth(g)} "
    f"diameter={rl.diameter(g)}  bipartite bound={rl.bipartite_moore_bound(3, 6)}"
)

print()
print("Every family above is a cage: the smallest regular graph of its")
print("degree and girth.  The (3,8)-cage, for instance, is the incidence")
print("graph of the generalized quadrangle of order 2:")
cage = rl.builtin_graph("cage-3-8")
w2 = rl.generalized_quadrangle_incidence(2)
print(f"  builtin (3,8)-cage is the W(2) incidence graph: {cage == w2}")
