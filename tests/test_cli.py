import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import radiolab as rl
from radiolab.cli import main

from conftest import NO_SPAN_N1_EDGES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# construct <family> <params> for each family at its smallest parameter,
# then analyze -> label -> verify must round-trip
SMALLEST = [
    ("complete", ["3"]),
    ("cycle", ["3"]),
    ("path", ["2"]),
    ("complete-bipartite", ["1", "1"]),
    ("tadpole", ["3", "1"]),
    ("petersen", []),
    ("hoffman-singleton", []),
    ("pg-incidence", ["2"]),
    ("gq-incidence", ["2"]),
    ("erq", ["2"]),
    ("singer", ["2"]),
    ("mms", ["5"]),
]


@pytest.mark.parametrize("family,params", SMALLEST)
def test_round_trip_all_families(tmp_path, capsys, family, params):
    graph_file = str(tmp_path / "g.el")
    labels_file = str(tmp_path / "g-labels.json")
    code, _, _ = run(capsys, "construct", family, *params, "-o", graph_file)
    assert code == 0
    code, _, _ = run(capsys, "analyze", graph_file)
    assert code == 0
    code, _, _ = run(capsys, "label", graph_file, "-o", labels_file)
    assert code == 0
    code, out, _ = run(capsys, "verify", graph_file, labels_file)
    assert code == 0
    assert out.startswith("OK")


def test_construct_writes_header_and_edges(tmp_path, capsys):
    out_file = tmp_path / "pg2.el"
    code, _, _ = run(capsys, "construct", "pg-incidence", "2", "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# family: pg-incidence 2")
    g = rl.load_edge_list(text)
    assert g.n == 14 and g.num_edges == 21


def test_construct_erq3_counts(tmp_path, capsys):
    out_file = tmp_path / "er3.el"
    code, _, _ = run(capsys, "construct", "erq", "3", "-o", str(out_file))
    assert code == 0
    assert rl.load_edge_list(out_file.read_text()).n == 13


def test_construct_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "construct", "gq-incidence", "6")
    assert code == 3
    assert "prime" in err


def test_construct_rejects_unknown_family_and_arity(capsys):
    assert run(capsys, "construct", "moebius")[0] == 3
    assert run(capsys, "construct", "cycle")[0] == 3
    assert run(capsys, "construct", "cycle", "2")[0] == 3


def test_construct_complement_flag(tmp_path, capsys):
    plain = tmp_path / "c5.el"
    comp = tmp_path / "c5c.el"
    run(capsys, "construct", "cycle", "5", "-o", str(plain))
    run(capsys, "construct", "cycle", "5", "--complement", "-o", str(comp))
    g = rl.load_edge_list(plain.read_text())
    h = rl.load_edge_list(comp.read_text())
    assert rl.complement(g) == h


def test_analyze_cage_closes_radio_number(tmp_path, capsys):
    graph_file = str(tmp_path / "cage.el")
    run(capsys, "construct", "cage-3-8", "-o", graph_file)
    code, out, _ = run(capsys, "analyze", graph_file)
    assert code == 0
    assert "NotRadioGraceful" in out
    assert "rn in [31, 31]" in out


def test_analyze_heawood_text(tmp_path, capsys):
    graph_file = str(tmp_path / "heawood.el")
    run(capsys, "construct", "pg-incidence", "2", "-o", graph_file)
    code, out, _ = run(capsys, "analyze", graph_file)
    assert code == 0
    assert "RadioGraceful" in out and "[14, 14]" in out


def test_analyze_json_deterministic(tmp_path, capsys):
    graph_file = str(tmp_path / "g.el")
    run(capsys, "construct", "erq", "3", "-o", graph_file)
    _, first, _ = run(capsys, "analyze", graph_file, "--json")
    _, second, _ = run(capsys, "analyze", graph_file, "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["status"] == "RadioGraceful"
    assert payload["rn_lower"] == payload["rn_upper"] == 13


def test_analyze_writes_certificate_file(tmp_path, capsys):
    graph_file = str(tmp_path / "g.el")
    cert_file = tmp_path / "cert.json"
    run(capsys, "construct", "petersen", "-o", graph_file)
    code, _, _ = run(capsys, "analyze", graph_file, "-o", str(cert_file))
    assert code == 0
    payload = json.loads(cert_file.read_text())
    assert payload["certificate"]["type"] == "labeling"
    assert sorted(payload["certificate"]["labels"]) == list(range(1, 11))


def test_analyze_c4_closed_by_oracle(tmp_path, capsys):
    graph_file = str(tmp_path / "c4.el")
    run(capsys, "construct", "cycle", "4", "-o", graph_file)
    code, out, _ = run(capsys, "analyze", graph_file)
    assert code == 0
    assert "NotRadioGraceful" in out and "rn in [5, 5]" in out


def test_analyze_c7_settled_by_oracle(tmp_path, capsys):
    # the theorem tree alone leaves C7 unknown; the CLI closes it exactly
    graph_file = str(tmp_path / "c7.el")
    run(capsys, "construct", "cycle", "7", "-o", graph_file)
    code, out, _ = run(capsys, "analyze", graph_file)
    assert code == 0
    assert "exact-oracle" in out
    assert rl.analyze(rl.cycle(7)).status == "Unknown"


def test_label_quad_glue_explicit(tmp_path, capsys):
    graph_file = str(tmp_path / "cage.el")
    labels_file = str(tmp_path / "labels.json")
    run(capsys, "construct", "gq-incidence", "2", "-o", graph_file)
    code, _, _ = run(capsys, "label", graph_file, "--method", "quad-glue", "-o", labels_file)
    assert code == 0
    n, diam, lab = rl.labeling_from_json(open(labels_file).read())
    assert (n, diam, lab.span) == (30, 4, 31)


def test_label_singer_method(tmp_path, capsys):
    graph_file = str(tmp_path / "s3.el")
    labels_file = str(tmp_path / "labels.json")
    run(capsys, "construct", "singer", "3", "-o", graph_file)
    code, _, _ = run(capsys, "label", graph_file, "--method", "singer", "-o", labels_file)
    assert code == 0
    _, _, lab = rl.labeling_from_json(open(labels_file).read())
    assert lab.span == 13


def test_label_singer_transports_to_isomorphic_graph(tmp_path, capsys):
    graph_file = str(tmp_path / "er3.el")
    labels_file = str(tmp_path / "labels.json")
    run(capsys, "construct", "erq", "3", "-o", graph_file)
    code, _, _ = run(capsys, "label", graph_file, "--method", "singer", "-o", labels_file)
    assert code == 0
    g = rl.read_edge_list(graph_file)
    _, _, lab = rl.labeling_from_json(open(labels_file).read())
    assert rl.verify(g, lab) == []


def test_label_singer_reaches_erq7_with_the_default_budget(tmp_path, capsys):
    graph_file = str(tmp_path / "erq7.el")
    labels_file = str(tmp_path / "erq7.lab.json")
    run(capsys, "construct", "erq", "7", "-o", graph_file)
    code, _, _ = run(capsys, "label", graph_file, "--method", "singer", "-o", labels_file)
    assert code == 0
    _, _, lab = rl.labeling_from_json(open(labels_file).read())
    assert lab.span == 57
    code, out, _ = run(capsys, "verify", graph_file, labels_file)
    assert code == 0
    assert out.startswith("OK")


def test_label_singer_complement_method(tmp_path, capsys):
    graph_file = str(tmp_path / "s2c.el")
    labels_file = str(tmp_path / "labels.json")
    run(capsys, "construct", "singer", "2", "--complement", "-o", graph_file)
    code, _, _ = run(capsys, "label", graph_file, "--method", "singer-complement",
                     "-o", labels_file)
    assert code == 0
    _, _, lab = rl.labeling_from_json(open(labels_file).read())
    assert lab.span == 7


@pytest.mark.parametrize("method", ["singer", "singer-complement"])
@pytest.mark.parametrize("family", [["complete", "3"], ["path", "3"]])
def test_label_singer_rejects_three_vertices(tmp_path, capsys, method, family):
    # 3 = q^2+q+1 only at q = 1, which is no field order
    graph_file = str(tmp_path / "g.el")
    run(capsys, "construct", *family, "-o", graph_file)
    code, _, err = run(capsys, "label", graph_file, "--method", method)
    assert code == 3
    assert "3 vertices is not q^2+q+1 for any q" in err


def test_label_hex_glue_budget_exhaustion(tmp_path, capsys):
    graph_file = str(tmp_path / "cage312.el")
    run(capsys, "construct", "cage-3-12", "-o", graph_file)
    code, _, err = run(capsys, "label", graph_file, "--method", "hex-glue",
                       "--budget", "10")
    assert code == 2
    assert "budget" in err


def test_label_quad_glue_exhausted_search_is_a_proven_negative(tmp_path, capsys):
    # the search is exhausted, which proves that no span-15 labeling exists
    graph_file = tmp_path / "g.el"
    graph_file.write_text("".join(f"{u} {v}\n" for u, v in NO_SPAN_N1_EDGES))
    code, out, err = run(capsys, "label", str(graph_file), "--method", "quad-glue")
    assert (code, out) == (1, "")
    assert err == "no span-(n+1) labeling of the two antipodal components\n"


def test_label_auto_reports_the_exhausted_two_component_search(tmp_path, capsys):
    # settle runs the same search and returns its exhaustion, so label
    # says what quad-glue says rather than that no method applies
    graph_file = tmp_path / "g.el"
    graph_file.write_text("".join(f"{u} {v}\n" for u, v in NO_SPAN_N1_EDGES))
    code, out, err = run(capsys, "label", str(graph_file))
    assert (code, out) == (1, "")
    assert err == "no span-(n+1) labeling of the two antipodal components\n"


def test_budget_env_var_and_flag_precedence(tmp_path, capsys, monkeypatch):
    graph_file = str(tmp_path / "cage312.el")
    run(capsys, "construct", "cage-3-12", "-o", graph_file)
    monkeypatch.setenv("RADIOLAB_NODE_BUDGET", "10")
    code, _, _ = run(capsys, "label", graph_file, "--method", "hex-glue")
    assert code == 2  # env var alone caps the search
    monkeypatch.setenv("RADIOLAB_NODE_BUDGET", "99999999")
    code, _, _ = run(capsys, "label", graph_file, "--method", "hex-glue",
                     "--budget", "10")
    assert code == 2  # flag overrides the generous env var


@pytest.mark.parametrize("env,flag", [("garbage", []), ("-5", []), (None, ["--budget", "-5"])])
def test_invalid_budget_is_a_usage_error(tmp_path, capsys, monkeypatch, env, flag):
    graph_file = str(tmp_path / "cage38.el")
    run(capsys, "construct", "cage-3-8", "-o", graph_file)
    if env is not None:
        monkeypatch.setenv("RADIOLAB_NODE_BUDGET", env)
    code, out, err = run(capsys, "label", graph_file, "--method", "quad-glue", *flag)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("RADIOLAB_NODE_BUDGET" in err) == (env is not None)


@pytest.mark.parametrize("family", [["gq-incidence", "2"], ["cycle", "13"]])
def test_antipodal_path_checks_diameter_before_searching(tmp_path, capsys,
                                                         monkeypatch, family):
    graph_file = str(tmp_path / "g.el")
    run(capsys, "construct", *family, "-o", graph_file)

    def no_search(*args, **kwargs):
        raise AssertionError("searched a graph outside the method's precondition")

    monkeypatch.setattr("radiolab.cli.find_hamiltonian_path", no_search)
    code, _, err = run(capsys, "label", graph_file, "--method", "antipodal-path")
    assert code == 3
    assert "antipodal-path labeling proven only for diameter <= 2" in err


@pytest.mark.parametrize("command,stem", [
    ("analyze", "petersen"), ("analyze", "c7"), ("analyze", "cage38"),
    ("label", "petersen"), ("label", "heawood"), ("label", "cage38"),
    ("radio-number", "c7"),
])
def test_one_distance_matrix_per_command(tmp_path, capsys, distance_matrix_calls,
                                         command, stem):
    family = {"petersen": ["petersen"], "c7": ["cycle", "7"], "cage38": ["cage-3-8"],
              "heawood": ["pg-incidence", "2"]}[stem]
    graph_file = str(tmp_path / f"{stem}.el")
    run(capsys, "construct", *family, "-o", graph_file)
    distance_matrix_calls.clear()
    code, _, _ = run(capsys, command, graph_file, "-o", str(tmp_path / "out.json"))
    assert code == 0
    assert len(distance_matrix_calls) == 1


def test_singer_transport_reuses_the_commands_matrix(tmp_path, capsys,
                                                     distance_matrix_calls):
    # the command's graph, the Singer graph the recurrence labels, and that
    # graph once more inside the isomorphism test
    graph_file = str(tmp_path / "erq3.el")
    run(capsys, "construct", "erq", "3", "-o", graph_file)
    distance_matrix_calls.clear()
    code, _, _ = run(capsys, "label", graph_file, "--method", "singer",
                     "-o", str(tmp_path / "out.json"))
    assert code == 0
    assert distance_matrix_calls == [13, 13, 13]


def test_verify_detects_violations(tmp_path, capsys):
    graph_file = str(tmp_path / "c4.el")
    labels_file = tmp_path / "bad.json"
    run(capsys, "construct", "cycle", "4", "-o", graph_file)
    labels_file.write_text('{"n":4,"diameter":2,"labels":[1,2,3,4],"span":4}')
    code, out, _ = run(capsys, "verify", graph_file, str(labels_file))
    assert code == 1
    assert "violating" in out


def test_verify_rejects_mismatched_diameter(tmp_path, capsys):
    graph_file = str(tmp_path / "c4.el")
    labels_file = tmp_path / "bad.json"
    run(capsys, "construct", "cycle", "4", "-o", graph_file)
    labels_file.write_text('{"n":4,"diameter":3,"labels":[1,3,5,7],"span":7}')
    assert run(capsys, "verify", graph_file, str(labels_file))[0] == 3


@pytest.mark.parametrize("body", [
    "{}",
    "[]",
    '{"n":6,"labels":null,"span":1,"diameter":3}',
    '{"n":6,"labels":[1,3,5,7,9,11],"span":11}',
    '{"n":1,"labels":[null],"span":1,"diameter":3}',
    '{"n": 2, "diameter": true, "labels": [true, 3], "span": 3}',
    '{"n":true,"labels":[1],"span":1,"diameter":3}',
    '{"n":6,"labels":[1,3,5,7,9,11],"span":11.0,"diameter":3}',
], ids=["empty-object", "array", "null-labels", "no-diameter", "null-label",
        "boolean-labels", "boolean-n", "float-span"])
def test_verify_rejects_malformed_labeling_file(tmp_path, capsys, body):
    graph_file = str(tmp_path / "c6.el")
    labels_file = tmp_path / "bad.json"
    run(capsys, "construct", "cycle", "6", "-o", graph_file)
    labels_file.write_text(body)
    src = str(Path(rl.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "radiolab", "verify", graph_file, str(labels_file)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: labeling file")
    assert "Traceback" not in proc.stderr


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a vertex number of 100000 asks for a 10^10-entry distance matrix;
    # the allocation is simulated, never made
    graph_file = tmp_path / "far.el"
    graph_file.write_text("0 1\n1 100000\n")

    def unable(g):
        raise MemoryError(f"Unable to allocate an array with shape ({g.n}, {g.n})")

    monkeypatch.setattr(rl.graphcore, "_bfs_distances", unable)
    code, out, err = run(capsys, "analyze", str(graph_file))
    assert code == 3 and out == ""
    assert err == "error: out of memory: Unable to allocate an array with shape (100001, 100001)\n"


def test_file_reading_commands_close_their_files(tmp_path, capsys):
    graph_file = str(tmp_path / "c4.el")
    labels_file = tmp_path / "c4.json"
    seq_file = tmp_path / "seq.txt"
    run(capsys, "construct", "cycle", "4", "-o", graph_file)
    labels_file.write_text('{"n":4,"diameter":2,"labels":[1,3,5,7],"span":7}')
    seq_file.write_text("0 1 2 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(capsys, "verify", graph_file, str(labels_file))[0] == 0
        assert run(capsys, "check-sequence", graph_file, str(seq_file))[0] == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_radio_number_command(tmp_path, capsys):
    graph_file = str(tmp_path / "c4.el")
    run(capsys, "construct", "cycle", "4", "-o", graph_file)
    code, out, _ = run(capsys, "radio-number", graph_file)
    assert code == 0 and out.strip() == "5"
    big = str(tmp_path / "k13.el")
    run(capsys, "construct", "complete", "13", "-o", big)
    assert run(capsys, "radio-number", big)[0] == 3  # exceeds the limit
    code, out, _ = run(capsys, "radio-number", big, "--limit", "13")
    assert code == 0 and out.strip() == "13"


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_radio_number_rejects_a_limit_below_one(tmp_path, capsys, limit):
    graph_file = str(tmp_path / "c4.el")
    run(capsys, "construct", "cycle", "4", "-o", graph_file)
    code, out, err = run(capsys, "radio-number", graph_file, "--limit", limit)
    assert (code, out) == (3, "") and "--limit" in err and "oracle limit" not in err


def test_radio_number_budget_and_table_limit(tmp_path, capsys, monkeypatch):
    c12 = str(tmp_path / "c12.el")
    run(capsys, "construct", "cycle", "12", "-o", c12)
    monkeypatch.setenv("RADIOLAB_NODE_BUDGET", "1")
    code, out, err = run(capsys, "radio-number", c12)
    assert (code, out) == (2, "") and "search budget exhausted" in err
    monkeypatch.delenv("RADIOLAB_NODE_BUDGET")
    p30 = str(tmp_path / "p30.el")
    run(capsys, "construct", "path", "30", "-o", p30)
    code, _, err = run(capsys, "radio-number", p30, "--limit", "30")
    assert code == 3 and "path-bound table" in err


def test_check_sequence_benchmark_data(tmp_path, capsys):
    graph_file = str(tmp_path / "cage.el")
    run(capsys, "construct", "cage-3-8", "-o", graph_file)
    seq_file = tmp_path / "seq.txt"
    seq = rl.builtin_sequence("cage-3-8-points")
    seq_file.write_text(" ".join(map(str, seq)) + "\n")
    code, out, _ = run(capsys, "check-sequence", graph_file, str(seq_file),
                       "--power", "2")
    assert code == 0 and out.strip() == "true"
    # corrupt it: swap two interior vertices
    bad = seq[:-1]
    bad[1], bad[2] = bad[2], bad[1]
    seq_file.write_text(" ".join(map(str, bad + [bad[0]])) + "\n")
    code, out, _ = run(capsys, "check-sequence", graph_file, str(seq_file),
                       "--power", "2")
    assert code == 1 and out.strip() == "false"


def test_check_sequence_whole_graph_path(tmp_path, capsys):
    graph_file = str(tmp_path / "p4.el")
    run(capsys, "construct", "path", "4", "-o", graph_file)
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0 1 2 3\n")
    code, out, _ = run(capsys, "check-sequence", graph_file, str(seq_file))
    assert code == 0 and out.strip() == "true"


def test_check_sequence_usage_errors(tmp_path, capsys):
    graph_file = str(tmp_path / "p4.el")
    run(capsys, "construct", "path", "4", "-o", graph_file)
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0 1 2 3\n")
    # power > 1 without a trailing repeat is not a cycle claim
    assert run(capsys, "check-sequence", graph_file, str(seq_file), "--power", "2")[0] == 3
    seq_file.write_text("0 1 99 3\n")
    assert run(capsys, "check-sequence", graph_file, str(seq_file))[0] == 3


def test_check_sequence_rejects_power_below_one(tmp_path, capsys):
    # 0 2 4 1 3 5 is no Hamiltonian cycle of C6: --power below 1 must not
    # pass it vacuously
    graph_file = str(tmp_path / "c6.el")
    run(capsys, "construct", "cycle", "6", "-o", graph_file)
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0 2 4 1 3 5 0\n")
    code, out, _ = run(capsys, "check-sequence", graph_file, str(seq_file), "--power", "1")
    assert (code, out.strip()) == (1, "false")
    for power in ("0", "-3"):
        code, out, err = run(capsys, "check-sequence", graph_file, str(seq_file),
                             "--power", power)
        assert (code, out) == (3, "") and err == "error: power must be >= 1\n"


def test_parse_error_maps_to_usage_exit(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("0 zebra\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 3 and "error" in err


def test_edge_list_output_deterministic(tmp_path, capsys):
    f1, f2 = str(tmp_path / "a.el"), str(tmp_path / "b.el")
    run(capsys, "construct", "mms", "5", "-o", f1)
    run(capsys, "construct", "mms", "5", "-o", f2)
    assert open(f1).read() == open(f2).read()


def test_scipy_is_never_imported():
    # distances come from numpy alone; importing scipy.sparse would cost
    # most of a short CLI call's start-up
    src = str(Path(rl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run(
        [sys.executable, "-c",
         "import radiolab, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert probe.stdout.strip() == "[]"
    # -X importtime logs every module the command imports to stderr
    cli = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "radiolab", "construct", "petersen"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert cli.stdout.startswith("# family: petersen")
    imported = [line.rsplit("|", 1)[-1].strip() for line in cli.stderr.splitlines()
                if line.startswith("import time:")]
    assert "radiolab.graphcore" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
