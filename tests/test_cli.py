"""Tests for the command-line frontend: output shapes and exit codes."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iharazeta
from iharazeta import cli, families, multigraph, zeta
from iharazeta.cli import run
from iharazeta.families import (
    gen_family,
    parse_family_spec,
    tree_count_closed_form,
)
from iharazeta.intpoly import IntPoly
from iharazeta.multigraph import (
    format_edge_list,
    kirchhoff_tree_count,
    parse_edge_list_text,
)
from iharazeta.smallgraphs import connected_multigraphs

TRIANGLE = "n 3\n0 1\n1 2\n2 0\n"


def write_graph(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- zeta ---

def test_zeta_human_triangle(tmp_path, capsys):
    path = write_graph(tmp_path, TRIANGLE)
    assert run(["zeta", "--graph", path]) == 0
    assert capsys.readouterr().out == "1 - 2u^3 + u^6\n"


def test_zeta_all_engines(tmp_path, capsys):
    path = write_graph(tmp_path, TRIANGLE)
    assert run(["zeta", "--graph", path, "--engine", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1 - 2u^3 + u^6", "agreement: bass linedet enum"]


def test_zeta_json_round_trips(tmp_path, capsys):
    path = write_graph(tmp_path, TRIANGLE)
    assert run(["zeta", "--graph", path, "--format", "json"]) == 0
    raw = capsys.readouterr().out
    obj = json.loads(raw)
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == raw
    assert obj["graph"] == {"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
    assert obj["engine"] == "bass"
    assert obj["coeffs"] == ["1", "0", "0", "-2", "0", "0", "1"]
    assert obj["invariants"] == {
        "degree": 6,
        "leading_coeff": "1",
        "girth_readout": 3,
        "even": False,
        "bipartite": False,
        "rank": 1,
    }


def test_zeta_json_invariants_of_a_bipartite_graph(tmp_path, capsys):
    path = write_graph(tmp_path, "n 5\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n")  # K(2,3)
    assert run(["zeta", "--graph", path, "--engine", "all",
                "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["coeffs"] == ["1", "0", "0", "0", "-6", "0", "0", "0", "9",
                             "0", "0", "0", "-4"]
    assert obj["invariants"] == {
        "degree": 12,
        "leading_coeff": "-4",
        "girth_readout": 4,
        "even": True,
        "bipartite": True,
        "rank": 2,
    }


def test_identical_invocations_are_bit_identical(tmp_path, capsys):
    path = write_graph(tmp_path, TRIANGLE)
    run(["zeta", "--graph", path, "--format", "json"])
    first = capsys.readouterr().out
    run(["zeta", "--graph", path, "--format", "json"])
    assert capsys.readouterr().out == first


def test_zeta_csv(tmp_path, capsys):
    path = write_graph(tmp_path, TRIANGLE)
    code = run(["zeta", "--graph", path, "--engine", "all", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "engine,power,coeff"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 7
    assert rows[0] == ["bass", "0", "1"]
    assert rows[3] == ["bass", "3", "-2"]
    assert rows[7] == ["linedet", "0", "1"]


def test_zeta_engine_disagreement(tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, TRIANGLE)
    monkeypatch.setitem(cli._ENGINES, "linedet", lambda g: IntPoly((1, 1)))
    assert run(["zeta", "--graph", path, "--engine", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: linedet != bass\n"
    # engines that agree on a wrong polynomial fail the invariant checks
    for name in ("bass", "enum"):
        monkeypatch.setitem(cli._ENGINES, name,
                            lambda g, cap=None: IntPoly((1, 1)))
    assert run(["zeta", "--graph", path, "--engine", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree check failed: 1 != 2|E| = 6\n"


# --- family ---

def test_family_verify(capsys):
    assert run(["family", "--spec", "G(3,4)", "--verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("1 - ")
    assert out[-1] == "verify: MATCH (exact match)"


def test_family_json(capsys):
    code = run(["family", "--spec", "BQ(2)", "--format", "json", "--verify"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["spec"] == "BQ(2)"
    assert obj["closed_form"]["type"] == "polynomial"
    assert obj["closed_form"]["coeffs"] == ["1", "-4", "2", "4", "-3"]
    assert obj["verify"] == "match"


def test_family_moebius_paths(tmp_path, capsys):
    path = write_graph(tmp_path, format_edge_list(
        gen_family(parse_family_spec("M(8)"))))
    assert run(["zeta", "--graph", path, "--engine", "bass",
                "--format", "json"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["coeffs"]
    assert run(["family", "--spec", "M(8)", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["closed_form"] == {"type": "polynomial", "coeffs": coeffs}
    assert run(["family", "--spec", "M(8)", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == ["power,coeff"] + [f"{k},{c}" for k, c in enumerate(coeffs)]
    assert run(["family", "--spec", "M(8)"]) == 0
    human = capsys.readouterr().out
    assert human == f"{IntPoly([int(c) for c in coeffs])}\n"


def test_family_csv(capsys):
    assert run(["family", "--spec", "C(2)", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["power,coeff", "0,1", "1,0", "2,-2", "3,0", "4,1"]


def test_family_verify_failure_prints_no_closed_form(monkeypatch, capsys):
    real = families.closed_form

    def wrong(spec):
        return real(spec) + IntPoly.from_terms([(2, 1)])

    monkeypatch.setattr(families, "closed_form", wrong)
    monkeypatch.setattr(cli, "closed_form", wrong)
    for fmt in ("human", "csv", "json"):
        argv = ["family", "--spec", "C(4)", "--verify", "--format", fmt]
        assert run(argv) == 1, fmt
        captured = capsys.readouterr()
        assert captured.out == "", fmt
        assert "closed form disagrees with engine at u^2" in captured.err


# --- trees ---

def test_trees_spec_complete_four(capsys):
    assert run(["trees", "--spec", "K(4)"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "closed-form: 16",
        "zeta-derivative: 16",
        "kirchhoff: 16",
    ]


def test_trees_graph_file_rank_one(tmp_path, capsys):
    path = write_graph(tmp_path, TRIANGLE)
    assert run(["trees", "--graph", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["kirchhoff: 3"]


def test_trees_spec_without_closed_form(capsys):
    assert run(["trees", "--spec", "BQ(3)"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "zeta-derivative: 1",
        "kirchhoff: 1",
    ]


def test_trees_json(capsys):
    assert run(["trees", "--spec", "G(3,4)", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["agree"] is True
    assert obj["kappa"] == "12"
    assert obj["methods"] == {
        "closed-form": "12",
        "zeta-derivative": "12",
        "kirchhoff": "12",
    }


@pytest.mark.parametrize("spec, vertices, edges", [
    ("C(4)", 4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
    ("G(2,3)", 4, [(0, 1), (0, 1), (0, 2), (0, 3), (2, 3)]),
    ("Gp(3,4,1)", 5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]),
    ("H(2,3,2)", 6,
     [(0, 2), (0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (4, 5)]),
])
def test_trees_json_family_vertex_numbering(capsys, spec, vertices, edges):
    # the printed edge list numbers the anchors first, then each path's
    # inner vertices in order
    assert run(["trees", "--spec", spec, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["graph"] == {"vertices": vertices,
                            "edges": [list(e) for e in edges]}


def test_trees_disagreement(monkeypatch, capsys):
    real = cli.kirchhoff_tree_count
    monkeypatch.setattr(cli, "kirchhoff_tree_count", lambda g: real(g) + 1)
    for fmt in ("human", "json", "csv"):
        assert run(["trees", "--spec", "G(3,4)", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert "13" in captured.out
        assert captured.err == "error: kirchhoff != closed-form\n"


def test_trees_requires_exactly_one_source(tmp_path, capsys):
    path = write_graph(tmp_path, TRIANGLE)
    with pytest.raises(SystemExit) as exc:
        run(["trees", "--graph", path, "--spec", "K(4)"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run(["trees"])
    capsys.readouterr()


# --- rank2 ---

def test_rank2_table(capsys):
    assert run(["rank2", "--max-edges", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("9 canonical rank-two graphs with at most 4 edges; "
                      "all zeta polynomials distinct")
    assert len(out) == 11  # summary, header, nine rows


def test_rank2_csv(capsys):
    assert run(["rank2", "--max-edges", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "spec,edges,leading_coeff,girth_readout,tree_count,poly_hash"
    # spec fields carry commas, so they come back quoted
    assert lines[1].startswith('"G(1,1)",2,-3,1,1,')
    rows = list(csv.reader(lines[1:]))
    assert [r[0] for r in rows] == ["G(1,1)", "G(1,2)", "Gp(2,2,1)", "H(1,1,1)"]
    for r in rows:
        assert len(r[-1]) == 12  # truncated sha256 hex


def test_rank2_json(capsys):
    assert run(["rank2", "--max-edges", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "max_edges": 3,
        "count": 4,
        "rows": [
            {"spec": "G(1,1)", "edges": 2, "leading_coeff": "-3",
             "girth_readout": 1, "tree_count": "1", "poly_hash": "09dc982cbace"},
            {"spec": "G(1,2)", "edges": 3, "leading_coeff": "-3",
             "girth_readout": 1, "tree_count": "2", "poly_hash": "41b382cef2c4"},
            {"spec": "Gp(2,2,1)", "edges": 3, "leading_coeff": "-4",
             "girth_readout": 2, "tree_count": "3", "poly_hash": "20e74563115a"},
            {"spec": "H(1,1,1)", "edges": 3, "leading_coeff": "-4",
             "girth_readout": 1, "tree_count": "1", "poly_hash": "9d44d5c52e7d"},
        ],
    }


def test_rank2_columns_match_independent_counts(capsys):
    # every column is read off the polynomial; check the edge and tree
    # counts against the graph itself
    assert run(["rank2", "--max-edges", "12", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 214
    for row in rows:
        spec = parse_family_spec(row["spec"])
        g = gen_family(spec)
        assert row["edges"] == g.edge_count
        assert (int(row["tree_count"]) == kirchhoff_tree_count(g)
                == tree_count_closed_form(spec)), row["spec"]


# --- verify ---

def test_verify_sweep(capsys):
    assert run(["verify", "--max-edges", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "checked 8 multigraphs with at most 3 edges (8 also via enum)"
    assert out[1] == "all engines agree"


def test_verify_json(capsys):
    assert run(["verify", "--max-edges", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "max_edges": 2,
        "graphs": 3,
        "enum_checked": 3,
        "failures": [],
    }


def test_verify_computes_one_reference_determinant_per_graph(
        monkeypatch, capsys):
    # the three engines' output checks share one value at u = 2 per graph;
    # an engine call on an equal graph built anew computes its own
    calls = []
    real = multigraph.bareiss_int_det

    def counting(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(multigraph, "bareiss_int_det", counting)
    assert run(["verify", "--max-edges", "4", "--format", "json"]) == 0
    sweep = connected_multigraphs(4)
    assert json.loads(capsys.readouterr().out)["graphs"] == len(sweep)
    assert calls == [g.n for g in sweep]
    zeta.zeta_bass(sweep[-1])
    assert len(calls) == len(sweep) + 1


def test_verify_reports_engine_mismatch(monkeypatch, capsys):
    monkeypatch.setitem(cli._ENGINES, "linedet", lambda g: IntPoly((1,)))
    assert run(["verify", "--max-edges", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    # the lines after a FAIL line are the graph's edge-list file
    block = out.split("FAIL linedet != bass\n")[1].split("FAIL")[0]
    assert parse_edge_list_text(block) in connected_multigraphs(2)


def test_verify_failure_label_replays_the_graph(monkeypatch, capsys):
    target = connected_multigraphs(3)[5]
    real = cli._ENGINES["enum"]

    def wrong_for_target(g, cap):
        poly = real(g, cap=cap)
        return -poly if g == target else poly

    monkeypatch.setitem(cli._ENGINES, "enum", wrong_for_target)
    assert run(["verify", "--max-edges", "3", "--format", "json"]) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert len(failures) == 1
    label, reason = failures[0].split(": ", 1)
    assert reason == "enum != bass"
    assert parse_edge_list_text(label) == target


def test_verify_reports_an_engine_fault_as_a_replayable_failure(
        tmp_path, monkeypatch, capsys):
    # a kernel coefficient off by one fails the output check of bass and
    # linedet on every graph; the sweep records each fault and goes on
    real = zeta.reversed_charpoly

    def off_by_one(matrix):
        cs = list(real(matrix).coeffs)
        cs[len(cs) // 2] += 1
        return IntPoly(cs)

    monkeypatch.setattr(zeta, "reversed_charpoly", off_by_one)
    assert run(["verify", "--max-edges", "2", "--format", "json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert (obj["graphs"], obj["enum_checked"]) == (3, 3)
    sweep = connected_multigraphs(2)
    replayed = []
    for failure in obj["failures"]:
        label, reason = failure.split(": ", 1)
        assert "at u = 2" in reason
        replayed.append(parse_edge_list_text(label))
        assert replayed[-1] in sweep
    assert len(replayed) == 2 * len(sweep)
    assert set(replayed) == set(sweep)
    # zeta --engine all reports both faults too, not only the first
    path = write_graph(tmp_path, TRIANGLE)
    assert run(["zeta", "--graph", path, "--engine", "all"]) == 1
    captured = capsys.readouterr()
    errors = captured.err.splitlines()
    assert captured.out == ""
    assert [e.split(": ")[:2] for e in errors] == [["error", "bass"],
                                                    ["error", "linedet"]]
    assert all("at u = 2" in e for e in errors)


# --- exit codes ---

def test_input_error_exit_codes(tmp_path, capsys):
    assert run(["zeta", "--graph", str(tmp_path / "missing.txt")]) == 2
    path = write_graph(tmp_path, "n 2\n0 1\n")  # a degree-1 vertex
    assert run(["zeta", "--graph", path]) == 2
    assert run(["family", "--spec", "Nope(3)"]) == 2
    assert run(["family", "--spec", "K(2)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_zeta_graph_is_validated_once_per_engine_run(tmp_path, monkeypatch):
    # reading the file only parses it; the engine checks the hypotheses
    calls = []
    real = multigraph.validate_zeta_input

    def counting(g):
        calls.append(g)
        real(g)

    for module in (multigraph, zeta, cli):
        monkeypatch.setattr(module, "validate_zeta_input", counting)
    path = write_graph(tmp_path, TRIANGLE)
    assert run(["zeta", "--engine", "bass", "--graph", path]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("text", [TRIANGLE, "n 2\n0 1\n0 1\n0 1\n0 0\n"],
                         ids=["rank-1", "rank-3"])
def test_trees_graph_is_validated_once(tmp_path, monkeypatch, text):
    # at rank >= 2 zeta_bass checks the hypotheses; below it the command
    calls = []
    real = multigraph.validate_zeta_input

    def counting(g):
        calls.append(g)
        real(g)

    for module in (multigraph, zeta, cli):
        monkeypatch.setattr(module, "validate_zeta_input", counting)
    assert run(["trees", "--graph", write_graph(tmp_path, text)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["zeta", "trees"])
@pytest.mark.parametrize("text, message", [
    ("n 4\n0 1\n0 1\n2 3\n2 3\n", "graph is not connected"),
    ("n 4\n0 1\n1 2\n2 0\n2 3\n",
     "graph has a vertex of degree 1; min degree 2 required"),
], ids=["disconnected", "degree-1"])
def test_graph_files_outside_the_hypotheses_are_refused(
        tmp_path, capsys, command, text, message):
    # both files have rank 1: trees runs no zeta engine on them, and
    # Kirchhoff alone would count the degree-1 graph's trees
    path = write_graph(tmp_path, text)
    assert run([command, "--graph", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["zeta", "trees"])
def test_graph_file_that_is_not_utf8_is_refused(tmp_path, capsys, command):
    path = tmp_path / "g.txt"
    path.write_bytes(b"n 3\n0 1\n1 2\n2 0\n\xff\n")
    assert run([command, "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"error: cannot read {path}: ")


def test_more_vertices_than_edges_is_rejected(tmp_path, capsys):
    # min degree 2 forces |V| <= |E|; the file is refused on its header
    # count, naming both counts, before any |V| x |V| table exists
    path = write_graph(tmp_path, "n 3000\n")
    assert run(["zeta", "--graph", path]) == 2
    err = capsys.readouterr().err
    assert "3000 vertices" in err and "0 edges" in err
    path = write_graph(tmp_path, "n 4\n0 1\n1 2\n2 0\n", name="t.txt")
    assert run(["trees", "--graph", path]) == 2
    err = capsys.readouterr().err
    assert "4 vertices" in err and "3 edges" in err


def test_bad_sweep_sizes_are_rejected_before_generation(
        tmp_path, monkeypatch, capsys):
    def no_sweep(max_edges):
        raise AssertionError("sweep generated for a rejected size")

    def no_catalogue(max_edges):
        raise AssertionError("catalogue built for a rejected size")

    monkeypatch.setattr(cli, "connected_multigraphs", no_sweep)
    monkeypatch.setattr(cli, "completeness_check", no_catalogue)
    path = write_graph(tmp_path, TRIANGLE)
    for argv, message in (
        (["verify", "--max-edges", "0"], "--max-edges: must be >= 1, got 0"),
        (["verify", "--max-edges", "-3"], "--max-edges: must be >= 1, got -3"),
        # sizes are read as graph files and specs are: int() would take
        # these as 10, 3, 64 and 12
        (["verify", "--max-edges", "1_0"],
         "--max-edges: invalid int value: '1_0'"),
        (["verify", "--max-edges", "\u0663"],
         "--max-edges: invalid int value: '\u0663'"),
        (["zeta", "--graph", path, "--enum-cap", "6_4"],
         "--enum-cap: invalid int value: '6_4'"),
        (["rank2", "--max-edges", "1_2"],
         "--max-edges: invalid int value: '1_2'"),
        (["rank2", "--max-edges", "0"], "--max-edges: must be >= 1, got 0"),
        # the enum cap belongs to zeta; verify runs under the default
        (["verify", "--max-edges", "3", "--enum-cap", "-1"],
         "unrecognized arguments: --enum-cap"),
        (["zeta", "--graph", path, "--enum-cap", "-2"],
         "--enum-cap: must be >= 0, got -2"),
        # verify has no csv form; refused, not printed as human text
        (["verify", "--max-edges", "2", "--format", "csv"],
         "--format: invalid choice: 'csv'"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_enum_cap_exit_code(tmp_path, monkeypatch, capsys):
    k9 = "n 9\n" + "\n".join(
        f"{i} {j}" for i in range(9) for j in range(i + 1, 9)
    ) + "\n"
    path = write_graph(tmp_path, k9)
    assert run(["zeta", "--graph", path, "--engine", "enum"]) == 3
    err = capsys.readouterr().err
    assert "capped" in err and "--enum-cap 72" in err
    path3 = write_graph(tmp_path, TRIANGLE, name="c3.txt")
    assert run(["zeta", "--graph", path3, "--engine", "enum",
                "--enum-cap", "5"]) == 3
    capsys.readouterr()
    # verify runs enum under the default cap, and refuses a sweep that
    # would reach it before generating one
    def never(max_edges):
        raise AssertionError("verify generated an over-cap sweep")

    monkeypatch.setattr(cli, "DEFAULT_ENUM_CAP", 4)
    monkeypatch.setattr(cli, "connected_multigraphs", never)
    assert run(["verify", "--max-edges", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: enumeration engine capped at 4 "
                            "line-graph vertices, verify --max-edges 3 "
                            "reaches 6; --max-edges 2 stays under it\n")


def test_enum_cap_is_checked_before_the_other_engines(
        tmp_path, monkeypatch, capsys):
    def never(g):
        raise AssertionError("an engine ran before the enum cap check")

    monkeypatch.setitem(cli._ENGINES, "bass", never)
    monkeypatch.setitem(cli._ENGINES, "linedet", never)
    path = write_graph(tmp_path, format_edge_list(
        gen_family(parse_family_spec("K(9)"))))
    assert run(["zeta", "--graph", path, "--engine", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: enumeration engine capped at 64 "
                            "line-graph vertices, this graph has 72; "
                            "--enum-cap 72 allows it\n")


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_closed_stdout_exits_quietly():
    # 347 kB of json, more than a pipe buffer holds, so the writer is still
    # writing when the reader closes its end after one line
    env = dict(os.environ,
               PYTHONPATH=str(Path(iharazeta.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "iharazeta.cli", "family", "--spec", "K(40)",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    status = proc.wait(timeout=60)
    proc.stderr.close()
    assert err == b""
    assert status != 1
