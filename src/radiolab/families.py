"""Constructors for the graph families under study.

Every constructor documents its vertex numbering, because downstream
labelings and stored benchmark sequences refer to vertices by index.
Incidence graphs number their points before their lines, so the side
that :func:`~radiolab.graphcore.bipartition` colours 0 is the points.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable

import numpy as np

from .errors import BadParams, LoopError, NotPrimePower, ParseError, UnsupportedOrder
from .field import (
    DifferenceSet,
    FieldSpec,
    _add,
    field_add,
    field_mul,
    field_neg,
    make_field,
    singer_difference_set,
)
from .graphcore import Graph, _bit_rows, _bits, bipartite_moore_bound, diameter, regularity

__all__ = [
    "complete",
    "cycle",
    "path",
    "complete_bipartite",
    "tadpole",
    "petersen",
    "hoffman_singleton",
    "projective_plane_incidence",
    "generalized_quadrangle_incidence",
    "erdos_renyi_polarity",
    "singer_graph",
    "mms_graph",
    "load_edge_list",
    "read_edge_list",
    "write_edge_list",
    "builtin_graph",
    "builtin_sequence",
    "BUILTIN_GRAPHS",
    "BUILTIN_SEQUENCES",
]


# ---------------------------------------------------------------------------
# classic families


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParams("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise BadParams("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise BadParams("complete bipartite graph needs both sides >= 1")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def tadpole(m: int, n: int) -> Graph:
    """Cycle C_m (vertices 0..m-1) plus path P_n (vertices m..m+n-1),
    joined by the edge (0, m)."""
    if m < 3 or n < 1:
        raise BadParams("tadpole needs cycle size >= 3 and path size >= 1")
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + i + 1) for i in range(n - 1)]
    edges.append((0, m))
    return Graph(m + n, edges)


def petersen() -> Graph:
    """Kneser graph K(5,2): vertices are the 2-subsets of {0..4} in
    lexicographic order, adjacent iff disjoint."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return Graph(10, edges)


def hoffman_singleton() -> Graph:
    """Pentagon/pentagram model on 50 vertices.

    Vertex 5h+j is vertex j of pentagon h; vertex 25+5i+j is vertex j of
    pentagram i.  Pentagon h joins j ~ j+-1 (mod 5), pentagram i joins
    j ~ j+-2 (mod 5), and pentagon vertex (h, j) joins pentagram vertex
    (i, h*i + j mod 5).
    """
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
            edges.append((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return Graph(50, edges)


# ---------------------------------------------------------------------------
# projective geometry machinery


def _pg_points(q: int, ncoords: int) -> list[tuple[int, ...]]:
    """Canonical points of PG(ncoords-1, q): leftmost nonzero coordinate 1,
    sorted lexicographically by coordinate encodings."""
    return [
        (0,) * lead + (1,) + rest
        for lead in reversed(range(ncoords))
        for rest in product(range(q), repeat=ncoords - lead - 1)
    ]


def _orthogonality(
    f: FieldSpec,
    pts: list[tuple[int, ...]],
    form: Callable[[tuple[int, ...]], tuple[int, ...]],
) -> np.ndarray:
    """Boolean matrix whose entry (i, j) says form(pts[i]) . pts[j] = 0.

    The dot products of all pairs are accumulated one coordinate at a
    time, by a gather from one table: ``step[(s*q + w)*q + x]`` is the
    encoding of s + w*x.  Products come from the exp/log tables, sums from
    the field's digit-wise addition.  The running N-by-N array
    holds table indices, in the smallest dtype that holds q^3 - 1.
    """
    q = f.q
    dtype = np.min_scalar_type(q**3 - 1)
    values = np.arange(q)
    add = _add(f, values[:, None], values)
    log = np.asarray(f.log)
    mul = np.asarray(f.exp)[log[:, None] + log]
    mul[0, :] = mul[:, 0] = 0
    step = add[:, mul].reshape(-1).astype(dtype)
    points = np.array(pts, dtype=dtype)
    scaled = np.array([form(u) for u in pts], dtype=dtype) * dtype.type(q)
    dot = step[scaled[:, :1] + points[:, 0]]  # s = 0 for the first coordinate
    for c in range(1, points.shape[1]):
        dot *= dtype.type(q * q)
        dot += scaled[:, c:c + 1] + points[:, c]
        dot = step[dot]
    return dot == 0


def projective_plane_incidence(q: int) -> Graph:
    """Incidence graph of PG(2,q).

    Vertices 0..q^2+q are the canonical points, vertices q^2+q+1..2(q^2+q)+1
    are lines with line j having the same coordinate triple as point j;
    point i lies on line j iff the triples are orthogonal.
    """
    n = q * q + q + 1
    # the identity form makes the mask symmetric: row i lists point i's
    # lines and line i's points alike
    rows = _bit_rows(_orthogonality(make_field(q), _pg_points(q, 3), lambda u: u))
    return Graph._trusted(tuple(row << n for row in rows) + tuple(rows))


def generalized_quadrangle_incidence(q: int) -> Graph:
    """Incidence graph of the symplectic quadrangle W(q).

    Points are the canonical points of PG(3,q) (vertices 0..N-1, N =
    (q+1)(q^2+1)); lines are the totally isotropic lines of the form
    x0*y1 - x1*y0 + x2*y3 - x3*y2, numbered N..2N-1 sorted by their point
    index tuples.  The line through orthogonal points x and y is {x,y}^perp,
    the meet of their perps, taken as an AND of bitset rows.  Point i
    meets its lines one at a time, each through the least point j > i of
    perp(i) that no earlier one covers, and keeps those whose least point
    is i, so they come out sorted.  The construction is validated against
    the expected regularity, diameter 4 and girth 8 before returning; at
    diameter 4 girth 8 is the same as the bipartite Moore order.
    """
    f = make_field(q)
    pts = _pg_points(q, 4)
    n = len(pts)
    perp = _bit_rows(_orthogonality(
        f, pts, lambda u: (field_neg(f, u[1]), u[0], field_neg(f, u[3]), u[2])
    ))
    lines = []
    for i, row in enumerate(perp):
        rest = row >> i + 1 << i + 1  # the points of perp(i) above i
        while rest:
            line = row & perp[(rest & -rest).bit_length() - 1]
            rest &= ~line
            if not line & (1 << i) - 1:
                lines.append(line)
    on = [0] * n
    for li, line in enumerate(lines, n):
        for p in _bits(line):
            on[p] |= 1 << li
    g = Graph._trusted(tuple(on) + tuple(lines))
    if regularity(g) != q + 1:
        raise AssertionError(f"W({q}) incidence graph is not {q + 1}-regular")
    if diameter(g) != 4 or g.n != bipartite_moore_bound(q + 1, 4):
        raise AssertionError(f"W({q}) incidence graph failed diameter/girth checks")
    return g


def erdos_renyi_polarity(q: int) -> Graph:
    """Polarity graph on the canonical points of PG(2,q): distinct points
    adjacent iff orthogonal; self-orthogonal (quadric) points carry no loop."""
    orth = _orthogonality(make_field(q), _pg_points(q, 3), lambda u: u)
    np.fill_diagonal(orth, False)
    return Graph._trusted(tuple(_bit_rows(orth)))


def singer_graph(q: int) -> Graph:
    """Graph on Z_{q^2+q+1} with i ~ j (i != j) iff i+j mod q^2+q+1 lies in
    the canonical Singer difference set; the q+1 loop positions are dropped."""
    return _difference_set_graph(singer_difference_set(q))


def _difference_set_graph(ds: DifferenceSet) -> Graph:
    """The graph of :func:`singer_graph` on a given difference set."""
    n = ds.modulus
    rows = (sum(1 << ((d - i) % n) for d in ds.elements) for i in range(n))
    # bit i of row i is a loop position
    return Graph._trusted(tuple(row & ~(1 << i) for i, row in enumerate(rows)))


def mms_graph(q: int) -> Graph:
    """McKay-Miller-Siran graph on Z_2 x F_q x F_q for prime powers
    q = 1 (mod 4).

    Vertex (s, a, b) is numbered s*q^2 + a*q + b.  Within part 0, (0,x,y) ~
    (0,x,y') iff y-y' is a nonzero square (an even power of the primitive
    element); within part 1 the difference must be a non-square; across
    parts, (0,x,y) ~ (1,m,c) iff y = m*x + c.  The restriction to
    q = 1 (mod 4) makes -1 a square, so both within-part rules are
    symmetric.
    """
    try:
        f = make_field(q)
    except NotPrimePower as exc:
        raise UnsupportedOrder(str(exc)) from exc
    if q % 4 != 1:
        raise UnsupportedOrder(f"need q = 1 (mod 4), got q = {q}")
    even = frozenset(f.exp[0:q - 1:2])

    def vid(s: int, a: int, b: int) -> int:
        return s * q * q + a * q + b

    edges = []
    for b in range(q):
        for b2 in range(b + 1, q):
            # b - b2 is nonzero: a square joins part 0, a non-square part 1
            s = 0 if field_add(f, b, field_neg(f, b2)) in even else 1
            edges.extend((vid(s, a, b), vid(s, a, b2)) for a in range(q))
    for x in range(q):
        for m in range(q):
            mx = field_neg(f, field_mul(f, m, x))
            edges.extend((vid(0, x, y), vid(1, m, field_add(f, y, mx))) for y in range(q))
    g = Graph(2 * q * q, edges)
    if regularity(g) != (3 * q - 1) // 2:
        raise AssertionError(f"MMS graph for q={q} is not {(3 * q - 1) // 2}-regular")
    return g


# ---------------------------------------------------------------------------
# edge-list files


def load_edge_list(text: str) -> Graph:
    """Parse an edge list: one ``u v`` pair per line, 0-indexed, ``#``
    comments and blank lines allowed, duplicate edges collapsed."""
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two vertex indices, got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer vertex index in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex index in {line!r}", lineno)
        if u == v:
            raise LoopError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
        top = max(top, u, v)
    return Graph(top + 1, edges)


def read_edge_list(filename) -> Graph:
    with open(filename, "r", encoding="ascii") as fh:
        return load_edge_list(fh.read())


def write_edge_list(g: Graph, header: Iterable[str] = ()) -> str:
    """Render a graph in the edge-list format, one sorted ``u v`` pair per
    line, preceded by ``#`` header comments."""
    lines = [f"# {h}" for h in header]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the cages of the paper


def _tutte_12_cage() -> Graph:
    """Tutte's 12-cage (incidence graph of the generalized hexagon of order
    2): cycle 0..125 plus the LCF chords of R. Frucht, J. Graph Theory 1 (1977)."""
    lcf = (17, 27, -13, -59, -35, 35, -11, 13, -53, 53, -27, 21, 57, 11, -21, -57, 59, -17)
    return Graph(126, [(i, (i + d) % 126) for i in range(126) for d in (1, lcf[i % 18])])


_CAGES = {
    "cage-3-8": lambda: generalized_quadrangle_incidence(2),
    "cage-4-8": lambda: generalized_quadrangle_incidence(3),
    "cage-3-12": _tutte_12_cage,
}
_SEQUENCES = {
    "cage-3-8-points": (0, 1, 2, 4, 5, 6, 7, 14, 13, 12, 3, 8, 11, 9, 10, 0),
    "cage-3-8-lines": (15, 19, 23, 25, 16, 18, 29, 22, 20, 26, 21, 17, 24, 28, 27, 15),
    "cage-4-8-points": (0, 1, 2, 3, 5, 7, 8, 6, 9, 10, 12, 11, 13, 22,
                        4, 14, 16, 17, 15, 18, 19, 21, 20, 24, 26, 25, 23, 27,
                        28, 31, 29, 30, 33, 34, 35, 32, 36, 37, 39, 38, 0),
    "cage-4-8-lines": (40, 45, 50, 43, 44, 49, 42, 47, 48, 41, 46, 51, 52, 57,
                       59, 55, 56, 61, 64, 54, 58, 60, 53, 62, 67, 69, 72, 65,
                       63, 70, 71, 79, 75, 66, 77, 76, 68, 78, 73, 74, 40),
}
BUILTIN_GRAPHS = tuple(_CAGES)
BUILTIN_SEQUENCES = tuple(_SEQUENCES)


def builtin_graph(name: str) -> Graph:
    """One of the paper's cages: ``cage-3-8`` and ``cage-4-8`` are the
    incidence graphs of W(2) and W(3), ``cage-3-12`` is Tutte's 12-cage."""
    if name not in BUILTIN_GRAPHS:
        raise BadParams(f"unknown builtin graph {name!r}; have {BUILTIN_GRAPHS}")
    return _CAGES[name]()


def builtin_sequence(name: str) -> list[int]:
    """One of the benchmark squares of Hamiltonian cycles of the girth-8 cages'
    antipodal components, closed: the last vertex repeats the first."""
    if name not in BUILTIN_SEQUENCES:
        raise BadParams(f"unknown builtin sequence {name!r}; have {BUILTIN_SEQUENCES}")
    return list(_SEQUENCES[name])
