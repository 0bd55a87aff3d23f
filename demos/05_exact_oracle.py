"""The exact radio-number oracle, and how it keeps the analyzer honest.

radio_number_exact() runs a branch-and-bound over vertex orderings: the
vertex placed next always takes the smallest label every earlier vertex
allows.  Consecutive labels of x then y differ by at least
diam + 1 - d(x, y), so a branch dies as soon as its label plus the least
such total along a path through the unplaced vertices cannot beat the
incumbent.  Those least totals form a Held-Karp table over (vertex
subset, end vertex), built only once a branch gets past the cheaper
one-label-per-vertex bound.  A memo merges repeated search states: once
the unplaced vertices and their smallest labels relative to the last one
match a state already searched, the span that state reached bounds the
new branch too.  It cuts only branches that cannot beat the incumbent,
so the witness is the one the search finds without it; the node budget
is charged once per search node, and a branch the memo cuts costs none.
The oracle is exact, so it doubles as the referee for the theorem-driven
analyzer on everything small enough to enumerate.
"""

import radiolab as rl

print("radio numbers of small standard graphs")
for name, g in [
    ("P_4", rl.path(4)),
    ("C_4", rl.cycle(4)),
    ("C_5", rl.cycle(5)),
    ("C_6", rl.cycle(6)),
    ("C_8", rl.cycle(8)),
    ("K_5", rl.complete(5)),
    ("K_{3,3}", rl.complete_bipartite(3, 3)),
    ("Petersen", rl.petersen()),
]:
    rn, witness = rl.radio_number_exact(g)
    graceful = "graceful" if rn == g.n else f"needs {rn - g.n} extra"
    print(f"  rn({name}) = {rn:2d}  ({graceful}); witness {witness.labels}")

print()
print("cross-validating the analyzer on every connected graph with <= 6")
print("vertices (all 143 isomorphism classes):")
import networkx as nx
from networkx.generators.atlas import graph_atlas_g

agree = unknown = 0
for G in graph_atlas_g():
    n = G.number_of_nodes()
    if not (1 <= n <= 6) or (n > 1 and not nx.is_connected(G)):
        continue
    mapping = {v: i for i, v in enumerate(sorted(G.nodes()))}
    g = rl.Graph(n, [(mapping[u], mapping[v]) for u, v in G.edges()])
    rn, _ = rl.radio_number_exact(g)
    verdict = rl.analyze(g)
    if verdict.status == "Unknown":
        unknown += 1
        continue
    assert (verdict.status == "RadioGraceful") == (rn == n)
    agree += 1
print(f"  {agree} definite verdicts, all agreeing with the oracle;")
print(f"  {unknown} graphs honestly left Unknown by the theorem tree")
