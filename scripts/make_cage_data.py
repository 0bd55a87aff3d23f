#!/usr/bin/env python3
"""Regenerate the bundled cage data files (deterministic).

The girth-8 cages ship in a vertex numbering aligned with the bundled
benchmark cycle sequences: we build the symplectic quadrangle incidence
graph, check a fixed square of a Hamiltonian cycle in each antipodal
component, and relabel so that the stored sequences trace exactly those
cycles.
The girth-12 cage is expanded from its LCF notation and validated against
the defining parameters (126 vertices, 3-regular, girth 12, diameter 6).

Run from the repository root:  python scripts/make_cage_data.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from radiolab.families import generalized_quadrangle_incidence, write_edge_list
from radiolab.graphcore import (
    Graph,
    antipodal,
    bipartition,
    components,
    diameter,
    girth,
    regularity,
)
from radiolab.hamsearch import PathCertificate, verify_certificate

DATA = Path(__file__).resolve().parents[1] / "src" / "radiolab" / "data"

# Benchmark squares of Hamiltonian cycles in the antipodal components of the
# girth-8 cages, in the target numbering (points 0..m-1, lines m..2m-1); the
# trailing entry repeats the first to mark a cycle.
SEQ_3_8_POINTS = [0, 1, 2, 4, 5, 6, 7, 14, 13, 12, 3, 8, 11, 9, 10, 0]
SEQ_3_8_LINES = [15, 19, 23, 25, 16, 18, 29, 22, 20, 26, 21, 17, 24, 28, 27, 15]
SEQ_4_8_POINTS = [
    0, 1, 2, 3, 5, 7, 8, 6, 9, 10, 12, 11, 13, 22, 4, 14, 16, 17, 15, 18,
    19, 21, 20, 24, 26, 25, 23, 27, 28, 31, 29, 30, 33, 34, 35, 32, 36, 37,
    39, 38, 0,
]
SEQ_4_8_LINES = [
    40, 45, 50, 43, 44, 49, 42, 47, 48, 41, 46, 51, 52, 57, 59, 55, 56, 61,
    64, 54, 58, 60, 53, 62, 67, 69, 72, 65, 63, 70, 71, 79, 75, 66, 77, 76,
    68, 78, 73, 74, 40,
]

# The squares of Hamiltonian cycles that the numbering follows, in indices
# local to each antipodal component of the symplectic quadrangle incidence
# graph (as ``components`` orders them).  They are the witnesses the
# original recursive cycle-power search returned, kept here so the bundled
# numbering does not depend on any search.
WITNESS_3_8_POINTS = [0, 1, 2, 4, 5, 6, 7, 14, 13, 12, 3, 8, 11, 9, 10]
WITNESS_3_8_LINES = [0, 4, 8, 10, 1, 3, 14, 7, 5, 11, 6, 2, 9, 13, 12]
WITNESS_4_8_POINTS = [
    0, 1, 2, 3, 5, 7, 8, 6, 9, 10, 12, 11, 13, 22, 4, 14, 16, 17, 15, 18,
    19, 21, 20, 24, 26, 25, 23, 27, 28, 31, 29, 30, 33, 34, 35, 32, 36, 37,
    39, 38,
]
WITNESS_4_8_LINES = [
    0, 5, 10, 3, 4, 9, 2, 7, 8, 1, 6, 11, 12, 17, 19, 15, 16, 21, 24, 14,
    18, 20, 13, 22, 27, 29, 32, 25, 23, 30, 31, 39, 35, 26, 37, 36, 28, 38,
    33, 34,
]

TUTTE_12_LCF = [
    17, 27, -13, -59, -35, 35, -11, 13, -53, 53, -27, 21, 57, 11, -21, -57,
    59, -17,
]


def relabeled_quadrangle_cage(q, point_seq, line_seq, witnesses):
    g = generalized_quadrangle_incidence(q)
    m = g.n // 2
    a = antipodal(g)
    point_comp, line_comp = components(a)
    assert point_comp == list(range(m)) and line_comp == list(range(m, 2 * m))

    mapping = [None] * g.n
    for vertices, seq, witness in zip((point_comp, line_comp), (point_seq, line_seq),
                                      witnesses):
        sub = a.induced_subgraph(vertices)
        found = PathCertificate(tuple(witness), "cycle_power", 2)
        assert verify_certificate(sub, found), f"witness is no cycle square for q={q}"
        for pos, local in enumerate(found.ordering):
            mapping[vertices[local]] = seq[pos]
    relabeled = Graph(g.n, [(mapping[u], mapping[v]) for u, v in g.edges()])

    # the benchmark sequences must now verify verbatim
    a2 = antipodal(relabeled)
    for vertices, seq in ((list(range(m)), point_seq), (list(range(m, 2 * m)), line_seq)):
        sub = a2.induced_subgraph(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        cert = PathCertificate(tuple(index[v] for v in seq[:-1]), "cycle_power", 2)
        assert verify_certificate(sub, cert), f"benchmark sequence invalid for q={q}"
    return relabeled


def tutte_12_cage():
    n = len(TUTTE_12_LCF) * 7
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        j = (i + TUTTE_12_LCF[i % len(TUTTE_12_LCF)]) % n
        edges.append((min(i, j), max(i, j)))
    g = Graph(n, edges)
    assert g.n == 126 and regularity(g) == 3
    assert girth(g) == 12 and diameter(g) == 6
    assert bipartition(g) is not None and len(components(g)) == 1
    return g


def write(name, text):
    path = DATA / name
    path.write_text(text, encoding="ascii")
    print(f"wrote {path}")


def main():
    for q, pts, lns, witnesses in (
        (2, SEQ_3_8_POINTS, SEQ_3_8_LINES, (WITNESS_3_8_POINTS, WITNESS_3_8_LINES)),
        (3, SEQ_4_8_POINTS, SEQ_4_8_LINES, (WITNESS_4_8_POINTS, WITNESS_4_8_LINES)),
    ):
        g = relabeled_quadrangle_cage(q, pts, lns, witnesses)
        m = g.n // 2
        header = [
            f"({q + 1},8)-cage: incidence graph of the generalized quadrangle of order {q}",
            f"points are vertices 0..{m - 1}, lines are vertices {m}..{2 * m - 1}",
            "numbering aligned with the bundled benchmark cycle sequences",
        ]
        write(f"cage_{q + 1}_8.el", write_edge_list(g, header))
        write(f"cage_{q + 1}_8_points.txt", " ".join(map(str, pts)) + "\n")
        write(f"cage_{q + 1}_8_lines.txt", " ".join(map(str, lns)) + "\n")

    g = tutte_12_cage()
    header = [
        "(3,12)-cage: incidence graph of the generalized hexagon of order 2",
        "expanded from LCF notation; bipartition is not index-aligned",
    ]
    write("cage_3_12.el", write_edge_list(g, header))


if __name__ == "__main__":
    main()
