"""Command-line interface.

Subcommands: construct, analyze, label, verify, radio-number,
check-sequence.  Exit codes: 0 success/OK, 1 violations or a proven
negative, 2 search budget exhausted, 3 usage errors and inputs too large
for memory.  Node budgets come from --budget, then the
RADIOLAB_NODE_BUDGET environment variable, then the built-in default;
either one below 1, or an environment value that is not an integer, exits
3.  radio-number has no --budget flag and takes the other two.  There is no
randomness anywhere, so identical invocations give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from . import families
from .budget import TIMEOUT
from .errors import BadParams, RadioLabError
from .graphcore import (
    Graph,
    antipodal,
    are_isomorphic,
    components,
    complement,
    diameter,
)
from .hamsearch import PathCertificate, find_hamiltonian_path, verify_certificate
from .radio import (
    ORACLE_VERTEX_LIMIT,
    RadioLabeling,
    dump_json,
    label_from_antipodal_path,
    label_hexagon_cage,
    label_quadrangle_cage,
    labeling_from_json,
    labeling_to_json,
    radio_number_exact,
    require_antipodal_path_diameter,
    settle,
    singer_label_erq,
    singer_label_erq_complement,
    verify,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 3


# family name -> (arity, builder, numbering contract for the file header)
FAMILIES = {
    "complete": (1, families.complete, "vertices 0..n-1"),
    "cycle": (1, families.cycle, "vertices 0..n-1 around the cycle"),
    "path": (1, families.path, "vertices 0..n-1 along the path"),
    "complete-bipartite": (
        2,
        families.complete_bipartite,
        "part A = 0..a-1, part B = a..a+b-1",
    ),
    "tadpole": (
        2,
        families.tadpole,
        "cycle 0..m-1, path m..m+n-1, joined by edge (0, m)",
    ),
    "petersen": (
        0,
        families.petersen,
        "vertices are the 2-subsets of {0..4} in lexicographic order, adjacent iff disjoint",
    ),
    "hoffman-singleton": (
        0,
        families.hoffman_singleton,
        "5h+j is pentagon h vertex j; 25+5i+j is pentagram i vertex j",
    ),
    "pg-incidence": (
        1,
        families.projective_plane_incidence,
        "points 0..q^2+q in canonical order, lines follow in the same order; "
        "point i on line j iff their triples are orthogonal",
    ),
    "gq-incidence": (
        1,
        families.generalized_quadrangle_incidence,
        "points 0..N-1 in canonical order, lines N..2N-1 sorted by point sets, "
        "N=(q+1)(q^2+1)",
    ),
    "erq": (
        1,
        families.erdos_renyi_polarity,
        "vertices are canonical projective-plane points, adjacent iff orthogonal",
    ),
    "singer": (
        1,
        families.singer_graph,
        "vertices 0..q^2+q; i~j iff i+j mod q^2+q+1 lies in the canonical "
        "difference set",
    ),
    "mms": (
        1,
        families.mms_graph,
        "vertex s*q^2 + a*q + b encodes (s,a,b) in Z2 x Fq x Fq",
    ),
    "cage-3-8": (0, lambda: families.builtin_graph("cage-3-8"), "as gq-incidence 2"),
    "cage-4-8": (0, lambda: families.builtin_graph("cage-4-8"), "as gq-incidence 3"),
    "cage-3-12": (
        0,
        lambda: families.builtin_graph("cage-3-12"),
        "cycle 0..125 plus chords i~i+c mod 126, c entry i mod 18 of the LCF code "
        "[17,27,-13,-59,-35,35,-11,13,-53,53,-27,21,57,11,-21,-57,59,-17]",
    ),
}


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    if args.family not in FAMILIES:
        print(f"unknown family {args.family!r}; known: {', '.join(sorted(FAMILIES))}",
              file=sys.stderr)
        return EXIT_USAGE
    arity, builder, contract = FAMILIES[args.family]
    if len(args.params) != arity:
        print(f"family {args.family!r} takes {arity} parameter(s)", file=sys.stderr)
        return EXIT_USAGE
    g = builder(*args.params)
    header = [
        f"family: {args.family}"
        + ("" if not args.params else " " + " ".join(map(str, args.params))),
        f"numbering: {contract}",
    ]
    if args.complement:
        g = complement(g)
        header.append("complement of the family graph on the same vertices")
    header.append(f"vertices: {g.n}, edges: {g.num_edges}")
    if any(g.degree(v) == 0 for v in range(g.n)):
        print("warning: graph has isolated vertices, which an edge list "
              "cannot represent", file=sys.stderr)
    _write_or_print(families.write_edge_list(g, header), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = families.read_edge_list(args.graph)
    verdict, labeling = settle(g, args.budget)
    if not isinstance(labeling, RadioLabeling):  # none found; the verdict stands
        labeling = None
    payload = verdict.to_json_dict()
    payload.update({"n": g.n, "diameter": diameter(g)})
    if labeling is not None:
        payload["labeling"] = list(labeling.labels)
        payload["labeling_span"] = labeling.span
    if args.json:
        sys.stdout.write(dump_json(payload))
    else:
        hi = "?" if verdict.rn_upper is None else str(verdict.rn_upper)
        print(f"{verdict.status}; rule: {verdict.rule}; rn in [{verdict.rn_lower}, {hi}]")
        if labeling is not None:
            print(f"labeling span: {labeling.span}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(dump_json(payload))
    return EXIT_OK if verdict.status != "Unknown" else EXIT_TIMEOUT


def _infer_singer_q(n: int) -> int:
    q = 2
    while q * q + q + 1 < n:
        q += 1
    if q * q + q + 1 != n:
        raise BadParams(
            f"{n} vertices is not q^2+q+1 for any q; not a polarity-graph order"
        )
    return q


def _transport_labels(target: Graph, g: Graph, labeling: RadioLabeling, budget):
    """Carry a labeling of ``target`` over to the isomorphic graph ``g``."""
    if target == g:
        return labeling
    mapping = are_isomorphic(target, g, budget)
    if mapping is TIMEOUT:
        return TIMEOUT
    if mapping is None:
        return None
    labels = [0] * g.n
    for v, image in enumerate(mapping):
        labels[image] = labeling.labels[v]
    return RadioLabeling(tuple(labels))


def cmd_label(args) -> int:
    g = families.read_edge_list(args.graph)
    method = args.method
    if method == "auto":
        verdict, labeling = settle(g, args.budget)
        if labeling is None:
            print(f"no labeling method applies ({verdict.status}; {verdict.rule})",
                  file=sys.stderr)
            return EXIT_NEGATIVE
    elif method == "antipodal-path":
        require_antipodal_path_diameter(g)
        cert = find_hamiltonian_path(antipodal(g), args.budget)
        if cert is TIMEOUT:
            labeling = TIMEOUT
        elif cert is None:
            print("antipodal graph has no Hamiltonian path", file=sys.stderr)
            return EXIT_NEGATIVE
        else:
            labeling = label_from_antipodal_path(g, cert)
    elif method in ("quad-glue", "hex-glue"):
        label = label_quadrangle_cage if method == "quad-glue" else label_hexagon_cage
        labeling = label(g, args.budget)
    elif method in ("singer", "singer-complement"):
        q = _infer_singer_q(g.n)
        if method == "singer":
            target = families.singer_graph(q)
            base = singer_label_erq(q)
        else:
            target = complement(families.singer_graph(q))
            base = singer_label_erq_complement(q)
        labeling = _transport_labels(target, g, base, args.budget)
        if labeling is None:
            print("graph is not isomorphic to the Singer-construction target",
                  file=sys.stderr)
            return EXIT_NEGATIVE
    if labeling is TIMEOUT:
        print("search budget exhausted", file=sys.stderr)
        return EXIT_TIMEOUT
    if not isinstance(labeling, RadioLabeling):  # a span-(n+1) search was exhausted
        print("no span-(n+1) labeling of the two antipodal components", file=sys.stderr)
        return EXIT_NEGATIVE
    bad = verify(g, labeling)
    if bad:
        print(f"constructed labeling failed verification ({len(bad)} violations)",
              file=sys.stderr)
        return EXIT_NEGATIVE
    _write_or_print(labeling_to_json(g, labeling), args.out)
    if args.out:
        print(f"span {labeling.span} labeling written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = families.read_edge_list(args.graph)
    with open(args.labels, encoding="ascii") as fh:
        n, diam, labeling = labeling_from_json(fh.read())
    if n != g.n:
        print(f"labeling is for {n} vertices, graph has {g.n}", file=sys.stderr)
        return EXIT_USAGE
    graph_diam = diameter(g)
    if diam != graph_diam:
        print(f"labeling file records diameter {diam}, graph has {graph_diam}",
              file=sys.stderr)
        return EXIT_USAGE
    violations = verify(g, labeling)
    if args.json:
        sys.stdout.write(dump_json({
            "ok": not violations,
            "violations": [list(v) for v in violations],
        }))
    elif not violations:
        print(f"OK: valid radio labeling with span {labeling.span}")
    else:
        print(f"{len(violations)} violating pair(s):")
        for u, v, slack in violations[:20]:
            print(f"  ({u}, {v}) slack {slack}")
    return EXIT_OK if not violations else EXIT_NEGATIVE


def cmd_radio_number(args) -> int:
    if args.limit < 1:
        raise BadParams(f"--limit must be at least 1, got {args.limit}")
    g = families.read_edge_list(args.graph)
    # the oracle refuses graphs above --limit before it computes a distance
    exact = radio_number_exact(g, args.limit)
    if exact is TIMEOUT:
        print("search budget exhausted", file=sys.stderr)
        return EXIT_TIMEOUT
    rn, witness = exact
    if args.json:
        sys.stdout.write(dump_json({"rn": rn, "labels": list(witness.labels)}))
    else:
        print(rn)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(labeling_to_json(g, witness))
    return EXIT_OK


def cmd_check_sequence(args) -> int:
    g = families.read_edge_list(args.graph)
    with open(args.sequence, encoding="ascii") as fh:
        tokens = fh.read().split()
    try:
        seq = [int(t) for t in tokens]
    except ValueError:
        print("sequence file must contain only integers", file=sys.stderr)
        return EXIT_USAGE
    is_cycle = len(seq) > 1 and seq[0] == seq[-1]
    if is_cycle:
        seq = seq[:-1]
    if not is_cycle and args.power != 1:
        print("a non-cyclic sequence (no trailing repeat) only supports --power 1",
              file=sys.stderr)
        return EXIT_USAGE
    vertices = set(seq)
    if len(vertices) != len(seq):
        print("sequence repeats a vertex", file=sys.stderr)
        return EXIT_USAGE
    if vertices == set(range(g.n)):
        target, order = g, seq
    else:
        comp = sorted(vertices)
        a = antipodal(g)
        if comp not in components(a):
            print("sequence is neither all vertices nor one antipodal component",
                  file=sys.stderr)
            return EXIT_USAGE
        target = a.induced_subgraph(comp)
        index = {v: i for i, v in enumerate(comp)}
        order = [index[v] for v in seq]
    kind = "cycle_power" if is_cycle else "path"
    cert = PathCertificate(tuple(order), kind, args.power if is_cycle else 1)
    ok = verify_certificate(target, cert)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiolab",
        description="Construct Moore-type graph families, analyze radio "
        "gracefulness, and build/verify radio labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a family graph as an edge list")
    p.add_argument("family", help=f"one of: {', '.join(sorted(FAMILIES))}")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.add_argument("--complement", action="store_true",
                   help="write the complement instead")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="radio gracefulness verdict with bounds")
    p.add_argument("graph")
    p.add_argument("-o", "--out", help="write the certificate report as JSON")
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("label", help="construct a radio labeling")
    p.add_argument("graph")
    p.add_argument("--method", default="auto",
                   choices=["auto", "antipodal-path", "quad-glue", "hex-glue",
                            "singer", "singer-complement"])
    p.add_argument("-o", "--out", help="output labeling file (default stdout)")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="check a labeling file against a graph")
    p.add_argument("graph")
    p.add_argument("labels")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("radio-number", help="exact radio number (small graphs)")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=ORACLE_VERTEX_LIMIT, help="vertex limit")
    p.add_argument("-o", "--out", help="write an optimal labeling file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_radio_number)

    p = sub.add_parser("check-sequence",
                       help="validate a vertex sequence as a path or cycle power")
    p.add_argument("graph")
    p.add_argument("sequence")
    p.add_argument("--power", type=int, default=1)
    p.set_defaults(func=cmd_check_sequence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RadioLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # such as numpy's, for a huge vertex number
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
