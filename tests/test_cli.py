import errno
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decgraph.cli import main
from decgraph.enumeration import enumerate_graphs
from decgraph.scenarios import (
    ScenarioError,
    _checked,
    _write_text,
    builtin_scenarios,
    export_graphs,
    load_scenario,
    parse_scenario_text,
    ruled_general_scenario,
    run_scenario,
)


def test_builtin_scenarios_are_consistent():
    scenarios = builtin_scenarios()
    assert set(scenarios) == {"cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4"}
    for s in scenarios.values():
        spec = s.enumeration_spec()
        s.required_classes(spec.final_omega.model)
        assert spec.sizes == s.sizes


def test_pinned_builtin_fields():
    s = builtin_scenarios()["cp2-six"]
    assert s.sizes == (F(1, 4), F(1, 4), F(1, 4), F(3, 16), F(1, 8))
    assert s.base_deltas == (F(1, 2),) and s.lam == 1
    assert s.required == (("E1-E2", 2), ("L-E3-E4", 2), ("E5-E6", 2))
    assert s.n == 2 and s.mode == "stabilizer"
    r = builtin_scenarios()["ruled-three"]
    assert r.sizes == (F(3, 5), F(7, 20), F(3, 10))
    assert r.required == (("E2-E3", 2),) and r.mode == "integrable"


def test_export_empty_result_writes_manifest_only(tmp_path):
    from decgraph.enumeration import EnumerationResult
    from decgraph.scenarios import export_graphs

    export_graphs(EnumerationResult((), ()), tmp_path / "empty")
    assert sorted(p.name for p in (tmp_path / "empty").iterdir()) == ["manifest.json"]


def test_ruled_general_size_formula():
    s = ruled_general_scenario(4)
    assert s.sizes == (
        F(129, 256), F(65, 256), F(33, 256), F(17, 256), F(1, 16),
    )
    assert s.n == 4 and s.advisory
    assert ("E4-E5", 4) in s.required and ("E2-E3", 2) in s.required
    with pytest.raises(ScenarioError):
        ruled_general_scenario(3)
    with pytest.raises(ScenarioError):
        ruled_general_scenario(2)


# Scenario files for builtins; between them they name every key the parser
# reads, each builtin's fields plus an expected count.
CP2_SIX_TEXT = """# cp2-six, with every optional key of the plane model spelt out
name cp2-six
kind rational
lam 1
base-sizes 1/2
sizes 1/4 1/4 1/4 3/16 1/8
required E1-E2@2 L-E3-E4@2 E5-E6@2
n 2
mode stabilizer
reps 1,1 1,2 2,1
permute-equal-sizes on
generators plane-six
audit-curves on
membership
picard-prefix 7
witness-family six-blowup
classify-types off
advisory off
expected-count 26
"""
RULED_THREE_TEXT = """name ruled-three
kind ruled
lam-f 1
lam-b 1
genus 2
sizes 3/5 7/20 3/10
required E2-E3
n 2
mode integrable
generators ruled-three
membership F B
classify-types on
expected-count 9
"""
RULED_GENERAL_4_TEXT = """name ruled-general-4
kind ruled
lam-f 1
lam-b 1
sizes 129/256 65/256 33/256 17/256 1/16
required E4-E5@4 E2-E3@2
n 4
mode integrable
permute-equal-sizes off
advisory on
expected-count 0
"""


def test_parse_scenario_text_reads_every_key():
    from dataclasses import fields, replace

    for text, name, count, permute in (
        (CP2_SIX_TEXT, "cp2-six", 26, True),
        (RULED_THREE_TEXT, "ruled-three", 9, True),
        (RULED_GENERAL_4_TEXT, "ruled-general-4", 0, False),
    ):
        want = replace(
            builtin_scenarios()[name], expected_final_count=count, permute_equal_sizes=permute
        )
        got = parse_scenario_text(text)
        for f in fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), (name, f.name)
        assert got == want


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "custom.scenario"
    path.write_text(RULED_THREE_TEXT)
    s = load_scenario(str(path))
    assert s.sizes == (F(3, 5), F(7, 20), F(3, 10))


def test_malformed_scenario_exits_2(tmp_path):
    path = tmp_path / "broken.scenario"
    path.write_text("kind nonsense\n")
    assert main(["verify", "--scenario", str(path)]) == 2
    assert main(["verify", "--scenario", str(tmp_path / "missing")]) == 2


def test_a_scenario_file_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "b.scenario"
    path.write_bytes(b"\xff\xfe\n")
    assert main(["verify", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"scenario error: no builtin or readable scenario {str(path)!r}:"
        " 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_a_scenario_path_that_is_no_regular_file_exits_2_with_one_line(tmp_path, kind):
    """A FIFO that no process writes would block the read: it is refused
    unread, as is a directory.  The CLI runs in a subprocess with a timeout,
    so that a hang fails the test."""
    path = tmp_path / "s.scenario"
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.mkdir()
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "decgraph", "verify", "--scenario", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"scenario error: no builtin or readable scenario {str(path)!r}: {path}: not a regular file\n"
    )


def test_cli_enumerate(capsys):
    assert main(["enumerate", "--scenario", "ruled-three"]) == 0
    out = capsys.readouterr().out
    assert "final: 9 graphs" in out


def test_cli_verify_writes_self_contained_report(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["verify", "--scenario", "ruled-three", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is True
    assert (out_dir / "graphs" / "manifest.json").exists()
    # re-running the verdicts on the saved graphs reproduces them
    assert main(
        ["verify", "--scenario", "ruled-three", "--graphs", str(out_dir / "graphs")]
    ) == 0
    replay = json.loads(capsys.readouterr().out)
    assert replay["all_obstructed"] is True
    assert len(replay["graphs"]) == report["enumeration"]["final_count"]


def test_cli_verify_fails_without_required_classes(tmp_path):
    lines = [l for l in RULED_THREE_TEXT.splitlines() if not l.startswith("required")]
    path = tmp_path / "empty-required.scenario"
    path.write_text("\n".join(lines) + "\nrequired\n")
    assert main(["verify", "--scenario", str(path)]) == 1


def test_cli_nakai(capsys):
    assert main(["nakai", "--scenario", "cp2-six"]) == 0
    out = capsys.readouterr().out
    assert "square 131/256" in out and "PASS" in out


def test_cli_cone(capsys):
    assert main(["cone", "--scenario", "ruled-three"]) == 0
    out = capsys.readouterr().out
    assert "F: member" in out and "B: member" in out


def test_cli_cone_tests_the_extra_classes_after_the_scenarios_targets(capsys):
    assert main(["cone", "--scenario", "ruled-three"]) == 0
    targets = capsys.readouterr().out
    assert main(["cone", "--scenario", "ruled-three", "E1", "E2-E3"]) == 0
    assert capsys.readouterr().out == targets + (
        "E1: member = 1*(E2-E3) + 1*(E3) + 1*(E1-E2)\n"
        "E2-E3: member = 1*(E2-E3)\n"
    )
    assert main(["cone", "--scenario", "ruled-three", "B-2F"]) == 1
    assert capsys.readouterr().out == targets + (
        "B-2F: not a member; separating functional (0, 1, 0, 0, 0)\n"
    )


def test_cli_negcurves(capsys):
    assert main(["negcurves", "--kind", "rational", "--k", "1", "--bound", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["E1  [minus_one]"]


def test_cli_export_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["export", "--scenario", "ruled-three", "--out", str(a)]) == 0
    assert main(["export", "--scenario", "ruled-three", "--out", str(b)]) == 0
    for root, _, files in os.walk(a):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), a)
            with open(os.path.join(a, rel), "rb") as fa, open(
                os.path.join(b, rel), "rb"
            ) as fb:
                assert fa.read() == fb.read(), rel
    depth3 = sorted(os.listdir(a / "depth-3"))
    assert "manifest.json" in depth3
    assert sum(1 for n in depth3 if n.endswith(".dot")) == 9


def test_mode_override_changes_the_verdict(tmp_path):
    # stabilizer-only certification cannot obstruct the pattern whose third
    # blowup sits at the point the second one created
    assert main(["verify", "--scenario", "ruled-three", "--mode", "stabilizer"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["nakai", "--scenario", "cp2-six", "--out", "d"],
        ["nakai", "--scenario", "cp2-six", "--mode", "integrable"],
        ["nakai", "--scenario", "cp2-six", "--permute-equal-sizes", "off"],
        ["cone", "--scenario", "ruled-three", "--out", "d"],
        ["cone", "--scenario", "ruled-three", "--mode", "integrable"],
        ["cone", "--scenario", "ruled-three", "--permute-equal-sizes", "off"],
        ["enumerate", "--scenario", "ruled-three", "--mode", "integrable"],
        ["export", "--scenario", "ruled-three", "--out", "d", "--mode", "integrable"],
        ["export", "--scenario", "ruled-three"],
        # A replay reads no dedup policy.
        ["verify", "--scenario", "ruled-three", "--graphs", "d", "--permute-equal-sizes", "off"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[3:]),
)
def test_an_option_the_subcommand_does_not_read_exits_2(tmp_path, monkeypatch, capsys, argv):
    """Each subcommand accepts only the options it reads; export needs --out."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err
    assert not (tmp_path / "d").exists()


def test_cli_cone_reports_a_non_member(capsys):
    assert main(["cone", "--scenario", "cp2-six", "L", "E1-L"]) == 1
    out = capsys.readouterr().out
    assert "L: member = " in out
    assert "E1-L: not a member; separating functional" in out


def test_verify_graphs_without_graph_files_exits_2(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text('{"count": 0, "files": []}\n')
    assert main(["verify", "--scenario", "ruled-three", "--graphs", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "no .txt graph file" in captured.err


def test_verify_graphs_of_another_model_exits_2(tmp_path, capsys):
    assert main(["verify", "--scenario", "ruled-three", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    graphs = tmp_path / "run" / "graphs"
    assert main(["verify", "--scenario", "cp2-six", "--graphs", str(graphs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("graph error: ") and "graph-000.txt: " in captured.err
    assert "ruled genus=2 k=3" in captured.err and "rational k=6" in captured.err


def test_verify_graphs_of_other_sizes_on_the_same_model_exits_2(tmp_path, capsys):
    assert main(["verify", "--scenario", "ruled-three", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    other = tmp_path / "other-sizes.scenario"
    other.write_text(RULED_THREE_TEXT.replace("sizes 3/5 7/20 3/10", "sizes 3/5 7/20 1/4"))
    graphs = tmp_path / "run" / "graphs"
    assert main(["verify", "--scenario", str(other), "--graphs", str(graphs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("graph error: ") and "graph-000.txt: " in captured.err
    assert "(1,1;3/5,7/20,3/10)" in captured.err and "(1,1;3/5,7/20,1/4)" in captured.err


def test_verify_graphs_with_an_invalid_graph_exits_2(tmp_path, capsys):
    assert main(["verify", "--scenario", "ruled-three", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    graph = tmp_path / "run" / "graphs" / "graph-000.txt"
    text = graph.read_text()
    assert "V 2 1/20 isolated\n" in text
    # The moment moves off the area rule of both edges at the vertex; the
    # file still parses.
    graph.write_text(text.replace("V 2 1/20 isolated\n", "V 2 1/10 isolated\n"))
    assert main(["verify", "--scenario", "ruled-three", "--graphs", str(graph.parent)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err == (
        f"graph error: {graph}: invalid graph:"
        " edge E2(2) breaks the area rule (gap != label * area)\n"
    )


@pytest.mark.parametrize(
    "content",
    [
        b"garbage\n",
        b"MODEL ruled k=1 genus=2\nOMEGA (1,1;x)\n",
        b"MODEL ruled k=one\n",
        b"V 0 0 isolated\n",
        b"\xff\xfe\x00garbage",
        # Edits of the saved file that alone break it:
        pytest.param(lambda text: text + b"BOGUS record\n", id="unknown-tag"),
        pytest.param(lambda text: text.replace(b"LEDGER", b"LEDGR"), id="misspelt-ledger"),
        pytest.param(
            lambda text: text.replace(b"V 2 1/20 ", b"V 2 1/30 "), id="off-lattice-moment"
        ),
        pytest.param(
            lambda text: text.replace(b"\nOMEGA", b"\nV 9 0 isolated\nOMEGA"),
            id="vertex-before-omega",
        ),
        # A class is parsed only after OMEGA, whose length checks MODEL's k: a
        # huge k would otherwise size a coefficient list.
        pytest.param(
            lambda text: text.replace(b"k=3", b"k=100000000000000000000")
            .replace(b"FIBER F\n", b"").replace(b"\nOMEGA", b"\nFIBER F\nOMEGA"),
            id="huge-k-fiber-before-omega",
        ),
        pytest.param(
            lambda text: text.replace(b"k=3", b"k=100000000000000000000")
            .replace(b"E 2 3 2 E2\n", b"").replace(b"\nOMEGA", b"\nE 2 3 2 E2\nOMEGA"),
            id="huge-k-edge-before-omega",
        ),
        pytest.param(lambda text: text + b"LEDGER E3:surface:min\n", id="second-ledger"),
        pytest.param(lambda text: text + b"FIBER F\n", id="second-fiber"),
        pytest.param(
            lambda text: text.replace(b"\nV 0", b"\nOMEGA (1,1;3/5,7/20,3/10)\nV 0"),
            id="second-omega",
        ),
        # The OMEGA record is the scenario's class vector, spelt as it spells it.
        pytest.param(lambda text: text.replace(b"7/20,3/10)", b"7/20,6/20)"), id="omega-6/20"),
        pytest.param(lambda text: text.replace(b";3/5,", b";+3/5,"), id="omega-+3/5"),
        pytest.param(
            lambda text: re.sub(rb"LEDGER .*", b"LEDGER E3:surface:min", text),
            id="short-ledger",
        ),
        pytest.param(lambda text: text.replace(b"FIBER F", b"FIBER BF"), id="unsigned-term"),
        # A fixed surface's size and genus are its class's area and genus.
        pytest.param(
            lambda text: text.replace(b"size=1 genus=2 class=B\n", b"size=1 genus=7 class=B\n"),
            id="fat-genus",
        ),
        pytest.param(
            lambda text: text.replace(b"size=1 genus=2 class=B\n", b"size=2 genus=2 class=B\n"),
            id="fat-size",
        ),
        # Step i of an s-step ledger on k classes names E(k-s+i), written so.
        pytest.param(
            lambda text: text.replace(b"E3:surface:max", b"E7:surface:max"), id="ledger-index"
        ),
        pytest.param(
            lambda text: text.replace(b"E1:surface:max", b"EEE1:surface:max"),
            id="ledger-index-EEE1",
        ),
        pytest.param(
            lambda text: text.replace(b"E1:surface:max", b"E01:surface:max"),
            id="ledger-index-E01",
        ),
        pytest.param(
            lambda text: text.replace(b"E2:interior:1", b"2:surface:max"),
            id="ledger-index-no-E",
        ),
        # Every chain from the minimum sums, label times class, to the fiber.
        pytest.param(lambda text: text.replace(b"FIBER F", b"FIBER 7B-E3"), id="fiber"),
        pytest.param(
            lambda text: re.sub(rb"(V 4 .*\n)", rb"\1\1", text), id="second-vertex-4"
        ),
        # A ledger entry names a site kind, and the end or the birth step it has.
        pytest.param(
            lambda text: text.replace(b"E1:surface:max", b"E1:bogus:nowhere"), id="ledger-kind"
        ),
        pytest.param(
            lambda text: text.replace(b"E3:surface:max", b"E3:surface:top"), id="ledger-end"
        ),
        pytest.param(
            lambda text: text.replace(b"E3:surface:max", b"E3:extremum:1"), id="extremum-end"
        ),
        pytest.param(
            lambda text: text.replace(b"E2:interior:1", b"E2:interior:2"), id="late-birth"
        ),
        pytest.param(
            lambda text: text.replace(b"E2:interior:1", b"E2:interior:-1"), id="signed-birth"
        ),
        pytest.param(
            lambda text: text.replace(b"E2:interior:1", b"E2:interior:min"), id="birth-text"
        ),
        # An isolated vertex is three words; a vertex is isolated or fat.
        pytest.param(
            lambda text: text.replace(b"V 2 1/20 isolated\n", b"V 2 1/20 isolated x\n"),
            id="isolated-extra-word",
        ),
        pytest.param(
            lambda text: text.replace(b"V 2 1/20 isolated\n", b"V 2 1/20 banana\n"),
            id="vertex-kind",
        ),
        # A fat vertex has size=, genus= and class=, each once.
        pytest.param(
            lambda text: text.replace(
                b"size=1 genus=2 class=B\n", b"size=7 size=1 genus=2 class=B\n"
            ),
            id="fat-repeated-key",
        ),
        pytest.param(
            lambda text: text.replace(b"size=1 genus=2 class=B\n", b"size=1 class=B\n"),
            id="fat-missing-key",
        ),
        pytest.param(
            lambda text: text.replace(
                b"size=1 genus=2 class=B\n", b"size=1 genus=2 class=B x=1\n"
            ),
            id="fat-unknown-key",
        ),
        # A ruled MODEL has genus= and k=, each once.
        pytest.param(
            lambda text: text.replace(
                b"MODEL ruled genus=2 k=3", b"MODEL ruled genus=2 k=3 colour=red"
            ),
            id="model-unknown-key",
        ),
        pytest.param(
            lambda text: text.replace(b"MODEL ruled genus=2 k=3", b"MODEL ruled genus=2 k=3 k=3"),
            id="model-repeated-key",
        ),
        # Indices, ends, labels, k and genera are plain ASCII digits; int() takes more.
        pytest.param(lambda text: text.replace(b"V 2 1/20", b"V +2 1/20"), id="signed-index"),
        pytest.param(lambda text: text.replace(b"E 2 3 2 E2", b"E 2 3 0_2 E2"), id="label-0_2"),
        pytest.param(lambda text: text.replace(b"E 2 3 2 E2", b"E +2 3 2 E2"), id="signed-end"),
        pytest.param(
            lambda text: text.replace(b"E 2 3 2 E2", "E 2 3 \u0662 E2".encode()),
            id="arabic-indic-label",
        ),
        pytest.param(
            lambda text: text.replace(b"MODEL ruled genus=2 k=3", b"MODEL ruled genus=+2 k=0_3"),
            id="model-numbers",
        ),
        pytest.param(
            lambda text: text.replace(b"size=1 genus=2 class=B\n", b"size=1 genus=+2 class=B\n"),
            id="fat-signed-genus",
        ),
        # A record is accepted only as it is written back: each of these
        # spells a record of the same graph another way.
        pytest.param(lambda text: text.replace(b"V 2 1/20", b"V 02 1/20"), id="index-02"),
        pytest.param(lambda text: text.replace(b"E 2 3 2 E2", b"E 2 3 02 E2"), id="label-02"),
        pytest.param(lambda text: text.replace(b"V 2 1/20 ", b"V 2 2/40 "), id="moment-2/40"),
        pytest.param(lambda text: text.replace(b"E 2 3 2 E2", b"E 2 3 2 1E2"), id="class-1E2"),
        pytest.param(lambda text: text.replace(b"E 2 3 2 E2", b"E 2 3 2 +E2"), id="class-+E2"),
        pytest.param(lambda text: text.replace(b"FIBER F", b"FIBER +F"), id="fiber-+F"),
        pytest.param(
            lambda text: text.replace(b"MODEL ruled genus=2 k=3", b"MODEL ruled k=3 genus=2"),
            id="model-key-order",
        ),
        pytest.param(
            lambda text: text.replace(b"size=1 genus=2 class=B\n", b"class=B size=1 genus=2\n"),
            id="fat-key-order",
        ),
        pytest.param(
            lambda text: text.replace(b"size=1 genus=2 class=B\n", b"size=2/2 genus=2 class=B\n"),
            id="fat-size-2/2",
        ),
        pytest.param(
            lambda text: text.replace(b"V 2 1/20 isolated", b"V 2  1/20 isolated"),
            id="vertex-double-space",
        ),
        pytest.param(
            lambda text: text.replace(b"E1:surface:max E2", b"E1:surface:max  E2"),
            id="ledger-double-space",
        ),
        pytest.param(
            lambda text: text.replace(b"V 2 1/20 isolated\n", b"V 2 1/20 isolated \n"),
            id="trailing-space",
        ),
        pytest.param(
            lambda text: text.replace(b"\nV 2 1/20 isolated", b"\n V 2 1/20 isolated"),
            id="indented-record",
        ),
        # V i is the i-th V record, as the writer numbers them: the same graph
        # with a vertex renamed is refused.
        pytest.param(
            lambda text: text.replace(b"V 2 1/20", b"V -1 1/20")
            .replace(b"E 0 2 1", b"E 0 -1 1").replace(b"E 2 3 2", b"E -1 3 2"),
            id="vertex-renamed--1",
        ),
        pytest.param(
            lambda text: text.replace(b"V 2 1/20", b"V 99 1/20")
            .replace(b"E 0 2 1", b"E 0 99 1").replace(b"E 2 3 2", b"E 99 3 2"),
            id="vertex-renamed-99",
        ),
        # The file is laid out as the writer lays it out: the first five read
        # the same graph from lines in another order or with a line more or less.
        pytest.param(
            lambda text: re.sub(rb"(C\n(?:E .*\n)+)(C\n(?:E .*\n)+)", rb"\2\1", text),
            id="blocks-swapped",
        ),
        pytest.param(
            lambda text: text.replace(
                b"E 0 2 1 F-E1-E2\nE 2 3 2 E2\n", b"E 2 3 2 E2\nE 0 2 1 F-E1-E2\n"
            ),
            id="edges-reversed",
        ),
        pytest.param(lambda text: re.sub(rb"(?m)^C\n", b"", text), id="no-c-line"),
        pytest.param(lambda text: text.replace(b"\nFIBER", b"\n\nFIBER"), id="blank-line"),
        pytest.param(
            lambda text: re.sub(rb"(OMEGA .*\n)((?:.*\n)*)(FIBER .*\n)", rb"\1\3\2", text),
            id="fiber-after-omega",
        ),
        pytest.param(lambda text: text.rstrip(b"\n"), id="no-last-newline"),
        pytest.param(
            lambda text: text.replace(b"1/20 isolated\n", "1/20 isolated\u2028\n".encode()),
            id="line-separator",
        ),
        pytest.param(lambda text: text.replace(b"\nC\n", b"\nC \n", 1), id="c-space"),
        # The file is read with its line ends as written, not as universal
        # newlines would turn them into \n.
        pytest.param(lambda text: text.replace(b"\n", b"\r\n"), id="crlf"),
        pytest.param(lambda text: text.replace(b"\n", b"\r"), id="lone-cr"),
    ],
)
def test_verify_graphs_with_a_garbage_file_exits_2(tmp_path, capsys, content):
    assert main(["verify", "--scenario", "ruled-three", "--out", str(tmp_path / "run")]) == 0
    graphs = tmp_path / "run" / "graphs"
    path = graphs / "graph-000.txt"
    path.write_bytes(content(path.read_bytes()) if callable(content) else content)
    capsys.readouterr()
    assert main(["verify", "--scenario", "ruled-three", "--graphs", str(graphs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("graph error: ") and "graph-000.txt" in captured.err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("size=1 genus=2 class=B\n", "size=1 genus=7 class=B\n",
         "line 3: malformed V record: '0 0 fat size=1 genus=7 class=B'"
         " is written '0 0 fat size=1 genus=2 class=B'"),
        ("size=1 genus=2 class=B\n", "size=1/2 genus=2 class=B\n",
         "line 3: malformed V record: '0 0 fat size=1/2 genus=2 class=B'"
         " is written '0 0 fat size=1 genus=2 class=B'"),
        ("E3:surface:max", "E7:surface:max",
         "line 16: malformed LEDGER record: 'E1:surface:max E2:interior:1 E7:surface:max'"
         " is written 'E1:surface:max E2:interior:1 E3:surface:max'"),
        ("E1:surface:max", "E1:bogus:nowhere",
         "line 16: malformed LEDGER record: step 1: unknown blowup kind 'bogus'"),
        ("FIBER F\n", "FIBER 7B-E3\n", "FIBER 7B-E3 is not the chain sum F"),
    ],
    ids=["genus", "size", "ledger", "ledger-kind", "fiber"],
)
def test_verify_graphs_names_a_record_that_disagrees_with_its_class(
    tmp_path, capsys, old, new, message
):
    assert main(["verify", "--scenario", "ruled-three", "--out", str(tmp_path / "run")]) == 0
    graph = tmp_path / "run" / "graphs" / "graph-000.txt"
    text = graph.read_text()
    assert old in text
    graph.write_text(text.replace(old, new))
    capsys.readouterr()
    assert main(["verify", "--scenario", "ruled-three", "--graphs", str(graph.parent)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"graph error: {graph}: {message}\n"


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        # E2 and E3 both have size 1/4, so every area and every moment stays,
        # and the graph passes validate; the chain's sum is no longer the fiber.
        ("cp2-six", "E 0 4 1 L-E1-E2\n", "E 0 4 1 L-E1-E3\n",
         "FIBER L-E1 is not the chain sum L-E1+E2-E3"),
        ("ruled-three", "V 4 7/10 isolated\n", "V 4 7/10 isolated\nV 4 7/10 isolated\n",
         "line 8: V 4 record where V 5 comes"),
    ],
    ids=["equal-size-class", "second-vertex"],
)
def test_verify_graphs_rejects_an_edit_that_keeps_every_area(
    tmp_path, capsys, name, old, new, message
):
    assert main(["verify", "--scenario", name, "--out", str(tmp_path / "run")]) == 0
    graph = tmp_path / "run" / "graphs" / "graph-000.txt"
    text = graph.read_text()
    assert text.count(old) == 1
    graph.write_text(text.replace(old, new))
    capsys.readouterr()
    assert main(["verify", "--scenario", name, "--graphs", str(graph.parent)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"graph error: {graph}: {message}\n"


def test_verify_graphs_names_the_first_block_sum_that_is_not_the_fiber(tmp_path, capsys):
    """With E2 swapped for E3 (both of size 1/4) in one edge, the third of
    cp2-six's four C blocks sums to L-E1+E2-E3 and the others to L-E1.  With
    FIBER set to the edited block's sum, the replay names the first block's
    (``test_verify_graphs_rejects_an_edit_that_keeps_every_area`` keeps
    FIBER and is named the edited block's)."""
    assert main(["verify", "--scenario", "cp2-six", "--out", str(tmp_path / "run")]) == 0
    graph = tmp_path / "run" / "graphs" / "graph-000.txt"
    text = graph.read_text()
    assert text.count("\nC\n") == 4 and text.count("E 0 4 1 L-E1-E2\n") == 1
    text = text.replace("E 0 4 1 L-E1-E2\n", "E 0 4 1 L-E1-E3\n")
    graph.write_text(text.replace("FIBER L-E1\n", "FIBER L-E1+E2-E3\n"))
    capsys.readouterr()
    assert main(["verify", "--scenario", "cp2-six", "--graphs", str(graph.parent)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"graph error: {graph}: FIBER L-E1+E2-E3 is not the chain sum L-E1\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("kind", ["fifo", "link-to-devnull"])
@pytest.mark.parametrize("name", ["graph-000.txt", "manifest.json"])
def test_verify_graphs_reads_regular_files_only(tmp_path, name, kind):
    """A FIFO that no process writes would block the read, and a device may
    never end: each is refused unread, with one line.  The replay runs in a
    subprocess with a timeout, so that a hang fails the test."""
    assert main(["verify", "--scenario", "ruled-three", "--out", str(tmp_path / "run")]) == 0
    graphs = tmp_path / "run" / "graphs"
    path = graphs / name
    path.unlink()
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.symlink_to(os.devnull)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "decgraph", "verify", "--scenario", "ruled-three",
         "--graphs", str(graphs)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"graph error: {path}: not a regular file\n"


def _unlink(name):
    return lambda graphs: (graphs / name).unlink()


def _manifest(text):
    return lambda graphs: (graphs / "manifest.json").write_text(text)


def _rewrite_manifest(edit):
    def damage(graphs):
        path = graphs / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    return damage


def _files(edit):  # the file list becomes edit(files); the count stays
    return _rewrite_manifest(lambda m: m.update(files=edit(m["files"])))


def _count(value):  # equal to the number of files, but no JSON integer
    return _rewrite_manifest(lambda m: m.update(count=value))


@pytest.mark.parametrize(
    "damage, message",
    [
        (_unlink("graph-004.txt"), "No such file or directory: "),
        (_unlink("manifest.json"), "No such file or directory: "),
        (_manifest('{"count": 8, "files": ["graph-000.txt"]}'), "count 8 but 1 files listed"),
        (_manifest('{"count": 1, "files": "graph-000.txt"}'), "malformed manifest"),
        (_manifest('{"files": []}'), "malformed manifest"),
        (_manifest("not json"), "malformed manifest"),
        # A manifest counts its files in a JSON integer and lists each one
        # once, by its plain name in the directory.
        (_files(lambda files: files[:1] + files[:1] + files[2:]),
         "malformed manifest: 'graph-000.txt' is listed twice"),
        (_files(lambda files: ["../graphs/" + files[0]] + files[1:]),
         "malformed manifest: '../graphs/graph-000.txt' is no file name"),
        (_files(lambda files: ["/etc/hostname"] + files[1:]),
         "malformed manifest: '/etc/hostname' is no file name"),
        (_files(lambda files: ["graph\0.txt"] + files[1:]), "is no file name"),
        (_count(9.0), "malformed manifest: count 9.0 is no integer"),
        (_manifest('{"count": true, "files": ["graph-000.txt"]}'),
         "malformed manifest: count True is no integer"),
        # Not UTF-8: the message names the byte's position, not the file's bytes.
        (lambda graphs: (graphs / "manifest.json").write_bytes(
            b'{"count": 1, "files": ["\xff' + b"x" * 5000 + b'"]}'),
         "malformed manifest: 'utf-8' codec can't decode byte 0xff in position 24: invalid start byte"),
    ],
    ids=[
        "deleted-graph", "no-manifest", "count", "files", "no-count", "not-json",
        "listed-twice", "parent-path", "absolute-path", "nul", "float-count", "bool-count",
        "not-utf8",
    ],
)
def test_verify_graphs_with_a_broken_manifest_exits_2(tmp_path, capsys, damage, message):
    assert main(["verify", "--scenario", "ruled-three", "--out", str(tmp_path / "run")]) == 0
    graphs = tmp_path / "run" / "graphs"
    damage(graphs)
    capsys.readouterr()
    assert main(["verify", "--scenario", "ruled-three", "--graphs", str(graphs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("graph error: ") and message in captured.err


def test_verify_graphs_follows_the_manifest_order(tmp_path, capsys):
    """Verdicts come in the manifest's order, not in name order."""
    argv = ["verify", "--scenario", "ruled-three", "--mode", "stabilizer"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    report = json.loads(capsys.readouterr().out)
    verdicts = [g["verdict"] for g in report["graphs"]]
    assert len(set(verdicts)) == 2  # both verdicts occur, so order shows
    graphs = tmp_path / "run" / "graphs"
    manifest = json.loads((graphs / "manifest.json").read_text())
    assert manifest["files"] == sorted(manifest["files"])
    manifest["files"].reverse()
    (graphs / "manifest.json").write_text(json.dumps(manifest))
    assert main(argv + ["--graphs", str(graphs)]) == 1
    replay = json.loads(capsys.readouterr().out)
    assert [g["verdict"] for g in replay["graphs"]] == verdicts[::-1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cone", "--scenario", "cp2-six", "FOO"], "'F' not in basis of rational k=6"),
        (["negcurves", "--k", "-1"], "k must be >= 0"),
        (["negcurves", "--kind", "ruled", "--k", "1", "--genus", "0"],
         "ruled model requires genus >= 1"),
        (["negcurves", "--k", "1", "--bound", "0"], "coefficient bound must be >= 1"),
        (["negcurves", "--k", "100000000000000000000"],
         "a box of 3^100000000000000000001 candidates is more than 10,000,000"),
        (["negcurves", "--k", "1", "--bound", "100000000000000000000"],
         "a box of 200000000000000000001^2 candidates is more than 10,000,000"),
    ],
    ids=["cone-class", "negative-k", "ruled-genus-0", "bound-0", "huge-k", "huge-bound"],
)
def test_bad_lattice_arguments_exit_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"argument error: {message}\n"


@pytest.mark.parametrize("where", ["file", "under-a-file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["export", "--scenario", "ruled-three", "--out"],
        ["enumerate", "--scenario", "ruled-three", "--out"],
        ["verify", "--scenario", "ruled-three", "--out"],
        ["verify-paper", "--out"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_output_directory_that_cannot_be_made_exits_2_with_one_line(
    tmp_path, capsys, argv, where
):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "x"
    assert main(argv + [str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("output error: ")
    assert str(out) in err
    assert blocker.read_text() == ""


def test_a_replay_whose_output_directory_cannot_be_made_exits_2(tmp_path, capsys):
    argv = ["verify", "--scenario", "ruled-three"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    graphs = str(tmp_path / "run" / "graphs")
    capsys.readouterr()
    assert main(argv + ["--graphs", graphs, "--out", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("output error: ")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("kind", ["fifo", "link-to-devnull", "directory"])
@pytest.mark.parametrize("name", ["report.json", "graphs/graph-000.txt"])
def test_an_output_file_that_is_no_regular_file_exits_2_with_one_line(tmp_path, name, kind):
    """A FIFO that no process reads would block the write, and a device would
    swallow it: each is refused before a byte is written, with one line, as
    is a directory.  The CLI runs in a subprocess with a timeout, so that a
    hang fails the test."""
    out = tmp_path / "run"
    path = out / name
    path.parent.mkdir(parents=True)
    if kind == "fifo":
        os.mkfifo(path)
        message = f"[Errno {errno.ENXIO}] {os.strerror(errno.ENXIO)}: {str(path)!r}"
    elif kind == "link-to-devnull":
        path.symlink_to(os.devnull)
        message = f"{path}: not a regular file"
    else:
        path.mkdir()
        message = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(path)!r}"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "decgraph", "verify", "--scenario", "ruled-three",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 2
    assert done.stderr == f"output error: {message}\n"
    # The report goes to stdout only once report.json is written.
    assert (done.stdout == "") == (name == "report.json")


def _exported(result, out_dir):
    """Export ``result``'s graphs to ``out_dir``; its listed files' bytes."""
    names = export_graphs(result, str(out_dir)) + ["manifest.json"]
    return {n: (out_dir / n).read_bytes() for n in names}


def test_an_export_over_old_output_writes_the_fresh_bytes(tmp_path):
    """Each listed file written over a longer or a shorter old file holds the
    bytes of an export into a new directory; files that no listed name
    covers are left as they were."""
    shared = tmp_path / "shared"
    sizes = []  # (old size, new size) of each file written over
    for name in ("ruled-general-4", "ruled-three", "cp2-six"):
        result = enumerate_graphs(load_scenario(name).enumeration_spec())
        fresh = _exported(result, tmp_path / name)
        sizes += [((shared / n).stat().st_size, len(data))
                  for n, data in fresh.items() if (shared / n).exists()]
        assert _exported(result, shared) == fresh
    assert any(old > new for old, new in sizes) and any(old < new for old, new in sizes)
    left = {p.name for p in shared.iterdir()} - set(fresh)
    assert len(left) == 317 - 26
    assert all(
        (shared / n).read_bytes() == (tmp_path / "ruled-general-4" / n).read_bytes()
        for n in left
    )


def test_verify_out_over_old_output_writes_the_same_report(tmp_path):
    """``verify --out`` into its own earlier output, and into a larger run's,
    writes the bytes of its first run."""
    out = tmp_path / "run"

    def verify(name):
        assert main(["verify", "--scenario", name, "--out", str(out)]) == 0
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    first = verify("ruled-three")
    assert verify("ruled-three") == first
    verify("cp2-six")
    again = verify("ruled-three")
    assert {n: again[n] for n in first} == first


def test_the_writer_writes_the_whole_text_through_short_writes(tmp_path, monkeypatch):
    """``os.write`` may write less than it is given: the writer goes on until
    every byte is written, then cuts the longer old file to the new length."""
    path = tmp_path / "out.txt"
    path.write_bytes(b"x" * 1000)
    text = "\u03c9 = 3/10 \u2014 " * 20 + "\n"
    calls = []
    real_write = os.write

    def short_write(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:7]))

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", short_write)
        _write_text(str(path), text)
    data = text.encode("utf-8")
    assert path.read_bytes() == data
    assert len(calls) == -(-len(data) // 7) and calls[0] == len(data)


def test_cross_check_failure_sets_its_gate_false(monkeypatch):
    from decgraph import scenarios
    from decgraph.enumeration import EnumerationError

    def unsound(*args):
        raise EnumerationError("site-kind trees differ")

    monkeypatch.setattr(scenarios, "cross_check_instantiation", unsound)
    outcome = scenarios.run_scenario(builtin_scenarios()["cp2-six"])
    assert outcome.report["cross_check"] is False
    assert outcome.report["gates"]["cross_check"] is False
    assert outcome.report["cross_check_error"] == "site-kind trees differ"
    assert not outcome.passed


def test_cross_check_bug_is_not_read_as_a_failed_gate(monkeypatch):
    from decgraph import scenarios

    def broken(*args):
        raise TypeError("a bug, not a verdict")

    monkeypatch.setattr(scenarios, "cross_check_instantiation", broken)
    with pytest.raises(TypeError):
        scenarios.run_scenario(builtin_scenarios()["cp2-six"])


RULED_HEAD = "kind ruled\nlam-f 1\nlam-b 1\ngenus 2\nn 2\n"
RULED_OK = RULED_HEAD + "mode integrable\nsizes 3/5 7/20 3/10\n"
PLANE_HEAD = "kind rational\nn 2\nsizes 1/4 1/4 1/4\n"
RULED_EIGHTHS = RULED_HEAD + "mode integrable\nsizes 1/2 1/4 1/8\n"


@pytest.mark.parametrize(
    "scenario, message",
    [
        ("ruled-general-foo", "needs an integer r"),
        (RULED_HEAD + "mode bogus\nsizes 3/5 7/20 3/10\nrequired E2-E3@2\n", "unknown mode"),
        (RULED_HEAD + "mode integrable\nsizes 3/5 7/20\nrequired E9@2\n", "'E9' not in basis"),
        (RULED_HEAD + "mode integrable\nsizes 3/5 -7/20 3/10\n", "sizes must be positive"),
        (RULED_HEAD + "mode integrable\nsizes 1/2\n", "reducedness check needs k >= 2"),
        (RULED_HEAD + "mode integrable\nsizes 3/5 7/20 3/10\ngenerators bogus\n",
         "unknown generator list 'bogus'"),
        (RULED_HEAD + "mode integrable\nsizes 3/5 7/20 3/10\nwitness-family bogus\n",
         "unknown witness family 'bogus'"),
        (RULED_HEAD + "mode integrable\nsizes 3/5 7/20 3/10\nexpected-count -1\n",
         "expected-count must be a non-negative integer, not '-1'"),
        (RULED_HEAD + "mode integrable\nsizes 3/5 7/20 3/10\nexpected-count 2.0\n",
         "expected-count must be a non-negative integer, not '2.0'"),
        (RULED_OK.replace("n 2\n", "n 1\n"), "the cyclic order n must be at least 2, not 1"),
        (RULED_OK.replace("n 2\n", "n 0\n"), "the cyclic order n must be at least 2, not 0"),
        (RULED_OK.replace("lam-f 1\n", "lam-f -1\n"), "lam-f must be positive, not -1"),
        (RULED_OK.replace("lam-b 1\n", "lam-b 0\n"), "lam-b must be positive, not 0"),
        (PLANE_HEAD + "lam -1\nbase-sizes 1/2\n", "lam must be positive, not -1"),
        (PLANE_HEAD + "lam 1\nbase-sizes 2\n",
         "the base size must lie strictly between 0 and lam = 1, not 2"),
        (PLANE_HEAD + "lam 1\nbase-sizes 0\n",
         "the base size must lie strictly between 0 and lam = 1, not 0"),
        (PLANE_HEAD + "lam 1\nbase-sizes 1/2 1/4\n",
         "a plane scenario needs exactly one base size, not 2"),
        (PLANE_HEAD + "lam 1\nbase-sizes\n",
         "a plane scenario needs exactly one base size, not 0"),
        (PLANE_HEAD + "lam 1\nbase-sizes 1/2\nreps 1\n",
         "each reps entry must be a c,d pair"),
        (PLANE_HEAD + "lam 1\nbase-sizes 1/2\nreps 1,1 2,2\n",
         "reps entry 2,2 is no coprime pair of positive labels"),
        (PLANE_HEAD + "lam 1\nbase-sizes 1/2\nreps 0,1\n",
         "reps entry 0,1 is no coprime pair of positive labels"),
        (PLANE_HEAD + "lam 1\nbase-sizes 1/2\ngenerators ruled-two\n",
         "generator list 'ruled-two' is on the ruled genus=2 k=2 model,"
         " the scenario on the rational k=4 model"),
        (RULED_OK + "generators ruled-three\nmembership FOO\n",
         "membership target 'FOO': "),
        (RULED_OK + "generators ruled-three\npicard-prefix 3\n",
         "picard-prefix must be the rank 5 of ruled genus=2 k=3"),
        (RULED_OK + "membership F\n", "membership and picard-prefix need a generators line"),
        (RULED_OK + "picard-prefix 5\n", "membership and picard-prefix need a generators line"),
        (RULED_EIGHTHS.replace("lam-f 1\n", "lam-f 1/0\n"), "zero denominator"),
        (RULED_HEAD + "mode integrable\nsizes 1/2 1/0 1/8\n", "zero denominator"),
        (RULED_EIGHTHS + "required E2@0\n",
         "the cyclic order of required class E2 must be at least 2, not 0"),
        (RULED_EIGHTHS + "required E2@-3\n",
         "the cyclic order of required class E2 must be at least 2, not -3"),
        (RULED_EIGHTHS + "required E1E2@2\n", "cannot parse class 'E1E2'"),
        (RULED_HEAD + "mode integrable\nsizes 1/2 1E9 1/8\n", "not a rational p or p/q: '1E9'"),
        # The plane model has no base curve, so no genus.
        (PLANE_HEAD + "lam 1\nbase-sizes 1/2\ngenus 0\ngenerators plane-six\n",
         "a rational scenario has no key 'genus'"),
        (RULED_OK.replace("genus 2\n", "genus 0\n"), "genus must be at least 1, not 0"),
        # Lines the parser would otherwise drop or misread.
        (RULED_THREE_TEXT + "permute-equal-size off\n", "line 14: unknown key 'permute-equal-size'"),
        (RULED_THREE_TEXT + "sizes 3/5 7/20\n", "line 14: a second 'sizes' line"),
        (RULED_THREE_TEXT.replace("classify-types on", "classify-types yes"),
         "line 12: classify-types must be on or off, not 'yes'"),
        (RULED_THREE_TEXT + "advisory\n", "line 14: advisory must be on or off, not ''"),
        (RULED_THREE_TEXT + "lam 1\n", "a ruled scenario has no key 'lam'"),
        (RULED_THREE_TEXT + "base-sizes 1/2\n", "a ruled scenario has no key 'base-sizes'"),
        (RULED_THREE_TEXT + "reps 1,1\n", "a ruled scenario has no key 'reps'"),
        (CP2_SIX_TEXT + "lam-f 1\n", "a rational scenario has no key 'lam-f'"),
        (CP2_SIX_TEXT + "lam-b 1\n", "a rational scenario has no key 'lam-b'"),
        # Each value is read on its line; a missing or foreign key is named.
        (RULED_HEAD + "mode integrable\n", "scenario error: a ruled scenario needs a 'sizes' line"),
        ("lam 1\n" + RULED_OK, "scenario error: line 1: a ruled scenario has no key 'lam'"),
        (RULED_OK.replace("n 2\n", "n two\n"), "line 5: n must be an integer, not 'two'"),
        # An integer is an optional '-' then ASCII digits, as int() alone does not hold.
        (RULED_OK.replace("n 2\n", "n 1_0\n"), "line 5: n must be an integer, not '1_0'"),
        (RULED_OK.replace("genus 2\n", "genus +2\n"),
         "line 4: genus must be an integer, not '+2'"),
        (RULED_OK.replace("genus 2\n", "genus \u0662\n"),
         "line 4: genus must be an integer, not '\u0662'"),
        (RULED_EIGHTHS + "required E2-E3@\u0662\n",
         "line 8: required must be an integer, not '\u0662'"),
        (PLANE_HEAD + "lam 1\nbase-sizes 1/2\nreps 1,1_0\n",
         "line 6: reps must be an integer, not '1_0'"),
        (RULED_OK + "generators ruled-three\npicard-prefix 0_5\n",
         "line 9: picard-prefix must be an integer, not '0_5'"),
        ("ruled-general-0_4", "ruled-general-<r> needs an integer r, not '0_4'"),
        ("ruled-general-\u0664", "ruled-general-<r> needs an integer r, not '\u0664'"),
        ("ruled-general- 4", "ruled-general-<r> needs an integer r, not ' 4'"),
        # More digits than int() reads are no integer either.
        ("ruled-general-" + "4" * 5000, "ruled-general-<r> needs an integer r, not '444"),
        (RULED_OK.replace("n 2\n", f"n {'9' * 5000}\n"), "line 5: n must be an integer, not '999"),
    ],
    ids=[
        "name-suffix", "mode", "required-class", "negative-size", "one-size-ruled",
        "generator-key", "witness-family", "negative-count", "non-integer-count",
        "n-one", "n-zero", "negative-lam-f", "zero-lam-b", "negative-lam",
        "base-size-above-lam", "zero-base-size", "two-base-sizes", "no-base-size",
        "reps-not-a-pair", "reps-not-coprime", "reps-not-positive",
        "generators-on-another-model", "membership-target",
        "picard-prefix-not-the-rank", "membership-without-generators",
        "picard-prefix-without-generators", "zero-denominator-lam-f",
        "zero-denominator-size", "required-order-zero", "required-order-negative",
        "required-class-missing-sign", "exponent-size", "plane-generators-genus-0",
        "ruled-genus-0",
        "unknown-key", "repeated-key", "flag", "empty-flag", "ruled-lam", "ruled-base-sizes",
        "ruled-reps", "plane-lam-f", "plane-lam-b", "no-sizes", "foreign-key-first", "n-two",
        "n-underscore", "genus-plus", "genus-arabic-indic", "required-order-arabic-indic",
        "reps-underscore", "picard-prefix-underscore", "name-suffix-underscore",
        "name-suffix-arabic-indic", "name-suffix-space", "name-suffix-5000-digits",
        "n-5000-digits",
    ],
)
def test_malformed_scenario_exits_2_with_one_line(tmp_path, capsys, scenario, message):
    if "\n" in scenario:
        path = tmp_path / "bad.scenario"
        path.write_text(scenario)
        scenario = str(path)
    assert main(["verify", "--scenario", scenario]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("scenario error: ") and message in captured.err


CP2_SIX_ALT_TEXT = (
    CP2_SIX_TEXT.replace("name cp2-six\n", "name cp2-six-alt\n")
    .replace("required E1-E2@2 L-E3-E4@2 E5-E6@2", "required E1@2 E5-E6@2 L-E2-E3-E4@2")
    .replace("generators plane-six\n", "generators plane-six-alt\n")
    .replace("picard-prefix 7\n", "")
    .replace("witness-family six-blowup\n", "")
)
FUZZ_BASES = (
    CP2_SIX_TEXT,
    CP2_SIX_ALT_TEXT,
    RULED_THREE_TEXT,
    RULED_GENERAL_4_TEXT,
    (Path(__file__).parents[1] / "perfbench" / "ruled-deep.scenario").read_text(),
)
VALUE_ALPHABET = "0123456789/-@,ELBF "
# Free text from the value alphabet, and small numbers in it, which parse.
VALUES = st.one_of(
    st.text(VALUE_ALPHABET, max_size=24),
    st.integers(-3, 9).map(str),
    st.tuples(st.integers(-3, 9), st.integers(0, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)


@st.composite
def mutated_scenario_texts(draw):
    """A builtin's text or the deep scenario's, with lines dropped,
    duplicated or given a new value."""
    lines = draw(st.sampled_from(FUZZ_BASES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "duplicate", "rewrite")))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            key = lines[i].partition(" ")[0]
            lines[i] = f"{key} {draw(VALUES)}"
    return "\n".join(lines) + "\n"


def test_the_fuzz_bases_load():
    loaded = [_checked(parse_scenario_text(text)) for text in FUZZ_BASES]
    builtins = builtin_scenarios()
    for scenario in loaded[:4]:
        assert scenario.required == builtins[scenario.name].required
    assert [s.name for s in loaded] == [*builtins, "ruled-deep"]


@settings(max_examples=300, deadline=None)
@given(mutated_scenario_texts())
def test_a_mutated_scenario_text_loads_or_raises_scenario_error(text):
    """The load path only: any text either checks out or is a ScenarioError."""
    try:
        scenario = _checked(parse_scenario_text(text))
    except ScenarioError:
        return
    assert scenario.sizes and scenario.n >= 2


def test_every_builtin_and_ruled_general_loads():
    for name, scenario in builtin_scenarios().items():
        assert load_scenario(name) == scenario
    for r in (4, 6, 8):
        assert load_scenario(f"ruled-general-{r}") == ruled_general_scenario(r)
    with pytest.raises(ScenarioError):
        load_scenario("ruled-general-5")


# A reduced, valid scenario with no admissible blowup: it enumerates no graph.
EMPTY = "kind ruled\nlam-f 1\nlam-b 1/2\nsizes 1/2 1/8\nrequired E1-E2@2\n"


@pytest.mark.parametrize("advisory", [False, True], ids=["gated", "advisory"])
def test_empty_enumeration_never_passes(tmp_path, capsys, advisory):
    path = tmp_path / "empty.scenario"
    path.write_text(EMPTY + ("advisory on\n" if advisory else ""))
    assert main(["verify", "--scenario", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["enumeration"]["final_count"] == 0
    assert report["reduced"] is True
    assert report["obstruction"]["vacuous"] is True
    assert report["obstruction"]["all_obstructed"] is True
    assert report["gates"]["nonvacuous"] is False
    assert report["passed"] is False
    if advisory:
        assert report["obstruction"]["advisory_verdict"] == "inconclusive"


def test_empty_enumeration_passes_when_expected():
    from dataclasses import replace

    scenario = replace(parse_scenario_text(EMPTY), expected_final_count=0)
    outcome = run_scenario(scenario)
    assert "nonvacuous" not in outcome.report["gates"]
    assert outcome.report["gates"]["final_count"] is True
    assert outcome.passed


def test_expected_count_from_a_scenario_file(tmp_path, capsys):
    path = tmp_path / "empty.scenario"
    path.write_text(EMPTY + "expected-count 0\n")
    assert main(["verify", "--scenario", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gates"]["final_count"] is True
    assert "nonvacuous" not in report["gates"]
    assert report["passed"] is True

    path.write_text(EMPTY + "expected-count 1\n")
    assert main(["verify", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert '"final_count": false' in out
    assert json.loads(out)["passed"] is False


# A valid plane scenario whose enumeration reaches a surface site that the
# blowup rules get wrong (see test_blowup.py's strict xfail): the rewrite
# fails its own validation.
FIBER_DEFECT = (
    "kind rational\nlam 1\nbase-sizes 1/2\nsizes 1/4 1/8 1/16\nrequired E1-E2@2\n"
)


@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_a_rejected_rewrite_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "fiber.scenario"
    path.write_text(FIBER_DEFECT)
    assert main([command, "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("blowup error: ")
    assert "not an embedded-sphere class" in captured.err


def test_python_dash_m_runs_the_command_line():
    import decgraph

    src = os.path.dirname(os.path.dirname(os.path.abspath(decgraph.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "decgraph", "verify", "--scenario", "ruled-three"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True
