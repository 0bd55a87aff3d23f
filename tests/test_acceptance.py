"""Acceptance suite: one test per shipping criterion.

Every check is exact (combinatorial, tolerance zero); runtime limits are
asserted where the criterion states one.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see one line per criterion.
"""

import time

import radiolab as rl
from radiolab import (
    NOT_RADIO_GRACEFUL,
    RADIO_GRACEFUL,
    TIMEOUT,
    Obstruction,
    PathCertificate,
    RadioLabeling,
)

from conftest import atlas_connected


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_girth6_cages_radio_graceful():
    t0 = time.time()
    spans = {}
    for q in (2, 3, 4, 5):
        g = rl.projective_plane_incidence(q)
        verdict = rl.analyze(g)
        assert verdict.status == RADIO_GRACEFUL, q
        lab = verdict.certificate
        assert isinstance(lab, RadioLabeling)
        assert rl.verify(g, lab) == []
        assert lab.span == 2 * (q * q + q + 1)
        spans[q] = lab.span
    elapsed = time.time() - t0
    assert spans == {2: 14, 3: 26, 4: 42, 5: 62}
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(1, f"girth-6 cages graceful with spans {spans} in {elapsed:.1f}s")


def test_criterion_2_benchmark_sequences_verbatim():
    checked = 0
    for cage, m in (("cage-3-8", 15), ("cage-4-8", 40)):
        g = rl.builtin_graph(cage)
        assert g.n == 2 * m
        a = rl.antipodal(g)
        comps = rl.components(a)
        assert [len(c) for c in comps] == [m, m]
        assert comps[0] == list(range(m))  # points part
        for comp, which in zip(comps, ("points", "lines")):
            seq = rl.builtin_sequence(f"{cage}-{which}")
            assert seq[0] == seq[-1] and len(seq) == m + 1
            index = {v: i for i, v in enumerate(comp)}
            cert = PathCertificate(
                tuple(index[v] for v in seq[:-1]), "cycle_power", 2
            )
            assert rl.verify_certificate(a.induced_subgraph(comp), cert)
            checked += 1
    assert checked == 4
    report(2, "all four benchmark cycle squares verify on the bundled cages")


def test_criterion_3_girth8_radio_numbers():
    t0 = time.time()
    for q, span in ((2, 31), (3, 81)):
        g = rl.generalized_quadrangle_incidence(q)
        lab = rl.label_quadrangle_cage(g)
        assert isinstance(lab, RadioLabeling)
        assert lab.span == span == 2 * (q + 1) * (q * q + 1) + 1
        assert rl.verify(g, lab) == []
        verdict = rl.analyze(g)
        assert verdict.status == NOT_RADIO_GRACEFUL
        assert verdict.rule == "bipartite-even-diameter"
        assert isinstance(verdict.certificate, Obstruction)
        # obstruction lower bound and labeling upper bound close rn exactly
        assert verdict.rn_lower == g.n + 1 == lab.span
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(3, f"rn of girth-8 cages closed to 31 and 81 in {elapsed:.1f}s")


def test_criterion_4_polarity_graph_labelings():
    t0 = time.time()
    for q in (2, 3, 4, 5, 7):
        n = q * q + q + 1
        lab = rl.singer_label_erq(q)
        assert lab.span == n
        assert rl.verify(rl.singer_graph(q), lab) == []
        clab = rl.singer_label_erq_complement(q)
        assert clab.span == n
        assert rl.verify(rl.complement(rl.singer_graph(q)), clab) == []
    elapsed = time.time() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(4, f"Singer labelings graceful for q in 2,3,4,5,7 in {elapsed:.1f}s")


def test_criterion_5_singer_polarity_isomorphism():
    for q in (2, 3, 4):
        s, er = rl.singer_graph(q), rl.erdos_renyi_polarity(q)
        mapping = rl.are_isomorphic(s, er)
        assert mapping is not None and mapping is not TIMEOUT
        for u in range(s.n):
            for v in range(u + 1, s.n):
                assert s.is_edge(u, v) == er.is_edge(mapping[u], mapping[v])
    report(5, "explicit isomorphisms found for q = 2, 3, 4")


def test_criterion_6_mms_graph():
    g = rl.mms_graph(5)
    assert g.n == 50
    assert rl.regularity(g) == 7
    assert rl.diameter(g) == 2
    # order formula at degree 7, in exact arithmetic: 8*(7.5)^2/9 = 50
    assert 8 * 15 * 15 == 9 * 4 * g.n
    verdict = rl.analyze(g)
    assert verdict.status == RADIO_GRACEFUL
    lab = verdict.certificate
    assert lab.span == 50 and rl.verify(g, lab) == []
    report(6, "MMS graph at q=5: 50 vertices, degree 7, graceful span 50")


def test_criterion_7_even_diameter_obstructions():
    corpus = [("K_{%d,%d}" % (n, n), rl.complete_bipartite(n, n)) for n in range(2, 7)]
    corpus += [("C_%d" % (2 * n), rl.cycle(2 * n)) for n in range(2, 9)]
    corpus += [
        ("GQ(2) incidence", rl.generalized_quadrangle_incidence(2)),
        ("GQ(3) incidence", rl.generalized_quadrangle_incidence(3)),
    ]
    for name, g in corpus:
        verdict = rl.analyze(g)
        assert verdict.status == NOT_RADIO_GRACEFUL, name
        cert = verdict.certificate
        assert isinstance(cert, Obstruction) and cert.kind == "antipodal-disconnected"
        assert len(cert.antipodal_components) >= 2
        # the certificate is checkable: its parts really partition the
        # antipodal graph into components
        assert sorted(sum(map(list, cert.antipodal_components), [])) == list(range(g.n))
    report(7, f"{len(corpus)} even-diameter/bipartite graphs all obstructed")


def test_criterion_8_oracle_cross_validation():
    t0 = time.time()
    corpus = atlas_connected(7)
    assert len(corpus) == 996  # exhaustive over isomorphism classes, n <= 7
    definite = 0
    for g in corpus:
        rn, witness = rl.radio_number_exact(g)
        assert rl.verify(g, witness) == []
        verdict = rl.analyze(g)
        if verdict.status == RADIO_GRACEFUL:
            assert rn == g.n
            definite += 1
        elif verdict.status == NOT_RADIO_GRACEFUL:
            assert rn > g.n
            definite += 1
    assert rl.radio_number_exact(rl.cycle(4))[0] == 5
    assert rl.radio_number_exact(rl.cycle(5))[0] == 5
    for n in range(2, 8):
        assert rl.radio_number_exact(rl.complete(n))[0] == n
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(
        8,
        f"analyze vs exact oracle agree on all 996 graphs "
        f"({definite} definite verdicts) in {elapsed:.1f}s",
    )


def test_criterion_9_complement_families():
    for m in range(5, 13):
        assert rl.analyze(rl.complement(rl.cycle(m))).status == RADIO_GRACEFUL
    for n in range(5, 13):
        assert rl.analyze(rl.complement(rl.path(n))).status == RADIO_GRACEFUL
    count = 0
    for m in range(3, 10):
        for n in range(1, 10):
            if 7 <= m + n <= 12:
                v = rl.analyze(rl.complement(rl.tadpole(m, n)))
                assert v.status == RADIO_GRACEFUL, (m, n)
                count += 1
    c5 = rl.cycle(5)
    assert rl.analyze(c5).status == RADIO_GRACEFUL
    assert rl.analyze(rl.complement(c5)).status == RADIO_GRACEFUL
    report(9, f"complement families graceful (cycles, paths, {count} tadpoles, C5)")


def test_criterion_10_girth12_desk_scale_honesty():
    g = rl.builtin_graph("cage-3-12")
    assert g.n == 126
    verdict = rl.analyze(g)
    assert verdict.status == NOT_RADIO_GRACEFUL
    assert verdict.rn_lower == 127
    assert isinstance(verdict.certificate, Obstruction)
    outcome = rl.label_hexagon_cage(g, deadline=200_000)
    assert isinstance(outcome, RadioLabeling)
    assert outcome.span == 127
    assert rl.verify(g, outcome) == []
    report(10, "12-cage obstructed (rn >= 127); span-127 labeling closes rn = 127")
