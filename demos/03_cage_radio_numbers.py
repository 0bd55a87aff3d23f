"""Radio numbers of the cages arising from generalized polygons.

Three regimes:
  girth 6  -- radio graceful: the antipodal graph of a projective-plane
              incidence graph is dense regular bipartite, hence traceable.
  girth 8  -- never graceful (bipartite, even diameter), but the radio
              number is exactly |V|+1: the points take labels 1..m and the
              lines m+2..2m+1, in an order that one exact window search
              finds.  Labels g < diam apart need distance diam+1-g, so
              each placement is checked against the last diam-1 labels
              only, the pairs across the skipped label m+1 included.
  girth 12 -- never graceful either, and the same search with a window
              of 5 labels closes rn = |V|+1 = 127 for the (3,12)-cage.
"""

import radiolab as rl

print("girth 6: projective-plane incidence graphs are radio graceful")
for q in (2, 3, 4, 5):
    g = rl.projective_plane_incidence(q)
    verdict = rl.analyze(g)
    lab = verdict.certificate
    print(f"  q={q}: n={g.n:3d}  {verdict.status}  span={lab.span}"
          f"  verified={rl.verify(g, lab) == []}")

print()
print("girth 8: radio number closed exactly at 2m+1")
for q in (2, 3):
    g = rl.generalized_quadrangle_incidence(q)
    verdict = rl.analyze(g)
    lab = rl.label_quadrangle_cage(g)
    m = g.n // 2
    print(f"  q={q}: n={g.n:3d}  {verdict.status} ({verdict.rule});"
          f" lower bound {verdict.rn_lower}, window labeling span {lab.span}"
          f" -> rn = {lab.span}")
    assert verdict.rn_lower == lab.span == 2 * m + 1

print()
print("q=2 across the skipped label 16: each pair meets distance >= 5 - gap")
g = rl.generalized_quadrangle_incidence(2)
lab = rl.label_quadrangle_cage(g)
dist = rl.all_pairs_distances(g)
by_label = {lab.labels[v]: v for v in range(g.n)}
for f in (13, 14, 15):
    for h in range(17, f + 4):
        u, v = by_label[f], by_label[h]
        print(f"  labels {f:2d},{h:2d} (gap {h - f}) -> vertices {u:2d},{v:2d} at "
              f"distance {int(dist[u, v])}")

print()
print("girth 12: the same window search, 5 labels wide")
g = rl.builtin_graph("cage-3-12")
verdict = rl.analyze(g)
budget = rl.SearchBudget(200_000)
out = rl.label_hexagon_cage(g, deadline=budget)
print(f"  (3,12)-cage: n={g.n}, {verdict.status} via {verdict.rule}; "
      f"rn >= {verdict.rn_lower}")
print(f"  window search: verified span-{out.span} labeling in {budget.spent} nodes"
      f" -> rn = {out.span}")
assert verdict.rn_lower == out.span == g.n + 1 and rl.verify(g, out) == []
