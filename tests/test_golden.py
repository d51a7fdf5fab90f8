"""Golden oracle: per-level counts and digests pinned for eight scenarios.

Each record in ``tests/golden/<scenario>.json`` holds the per-level
``(sites, kept, merged)``, the final graph count, the SHA-256 of the sorted
dedup keys of the final graphs and the SHA-256 of ``report.json`` as
``decgraph verify --out`` writes it.  A kernel change that alters any count,
any canonical key or any byte of the report fails here.

``tests/golden/ruled-general-4-files.json`` pins the directory format: the
SHA-256 of every graph file and of ``manifest.json`` that ``verify --out``
writes for ruled-general-4, and of the report that ``verify --graphs`` writes
on them, its ``source`` path masked.

``tests/golden/cli-text.json`` pins the text the other subcommands print: the
exit code and the SHA-256 of the standard output of ``enumerate``, ``nakai``
and ``cone`` on each builtin scenario, of ``verify-paper`` and of two
``negcurves`` searches, and the SHA-256 of every DOT file that ``export``
writes for ruled-three.

Regenerate (only for an intended change of output) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from decgraph.cli import main
from decgraph.enumeration import dedup_key
from decgraph.graphs import canonical_text, parse_graph
from decgraph.scenarios import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BUILTINS = ("cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4")
SCENARIOS = BUILTINS + ("ruled-deep", "ruled-multi", "ruled-equal", "cp2-six-strict")
# Scenarios read from a file rather than built in.  ruled-deep is the
# benchmark's deep workload, the first six sizes of ruled-general-6;
# ruled-multi starts from three ruled bases, and descendants of different
# bases reach obstruction.  ruled-equal blows up twice at one size, so its
# keys range over relabelings on a ruled model, whose exceptional
# coefficients start at position 2; cp2-six-strict is cp2-six keyed without
# relabelings, on a model that has equal sizes.
FILES = {
    "ruled-deep": ROOT / "perfbench" / "ruled-deep.scenario",
    "ruled-multi": GOLDEN / "ruled-multi.scenario",
    "ruled-equal": GOLDEN / "ruled-equal.scenario",
    "cp2-six-strict": GOLDEN / "cp2-six-strict.scenario",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_record(name: str) -> dict:
    scenario = load_scenario(str(FILES.get(name, name)))
    outcome = run_scenario(scenario)
    keys = sorted(
        dedup_key(g, scenario.permute_equal_sizes) for g in outcome.result.graphs
    )
    return {
        "scenario": name,
        "levels": [[lv.sites, lv.kept, lv.merged] for lv in outcome.result.branch_log],
        "final_count": len(outcome.result.graphs),
        "dedup_keys_sha256": _sha256(json.dumps(keys)),
        "report_sha256": _sha256(json.dumps(outcome.report, indent=2, sort_keys=True) + "\n"),
    }


def files_record(workdir: Path) -> dict:
    """Digests of ruled-general-4's graph files, manifest and replay report."""
    run, replay = workdir / "run", workdir / "replay"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--scenario", "ruled-general-4", "--out", str(run)]) == 0
        code = main(
            ["verify", "--scenario", "ruled-general-4", "--graphs", str(run / "graphs"),
             "--out", str(replay)]
        )
    report = (replay / "report.json").read_text(encoding="utf-8")
    masked = report.replace(json.dumps(str(run / "graphs")), '"GRAPHS"', 1)
    assert masked != report
    return {
        "scenario": "ruled-general-4",
        "files": {
            p.name: _sha256(p.read_text(encoding="utf-8"))
            for p in sorted((run / "graphs").iterdir())
        },
        "replay_exit_code": code,
        "replay_report_sha256": _sha256(masked),
    }


# Subcommands that read no scenario, pinned by their argument line.
UNSCOPED = (
    "verify-paper",
    "negcurves --kind rational --k 6 --bound 1",
    "negcurves --kind ruled --k 2 --genus 2 --bound 1",
)


def cli_record(workdir: Path) -> dict:
    """Exit codes and stdout digests of the text subcommands, DOT digests."""
    commands = [
        f"{command} --scenario {name}"
        for name in BUILTINS
        for command in ("enumerate", "nakai", "cone")
    ]
    stdout = {}
    for line in commands + list(UNSCOPED):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(line.split())
        key = line.replace(" --scenario ", " ")
        stdout[key] = {"exit_code": code, "stdout_sha256": _sha256(out.getvalue())}
    export = workdir / "export"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["export", "--scenario", "ruled-three", "--out", str(export)]) == 0
    dot = {
        p.relative_to(export).as_posix(): _sha256(p.read_text(encoding="utf-8"))
        for p in sorted(export.rglob("*.dot"))
    }
    return {"stdout": stdout, "export ruled-three": dot}


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_record(name):
    pinned = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert golden_record(name) == pinned


def test_golden_files(tmp_path):
    pinned = json.loads(
        (GOLDEN / "ruled-general-4-files.json").read_text(encoding="utf-8")
    )
    assert files_record(tmp_path) == pinned
    assert len(pinned["files"]) == 318  # 317 graphs and the manifest


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_exported_file_replays(tmp_path, name):
    """``verify --graphs`` on the files ``verify --out`` wrote exits as the run
    did, and every file is its own canonical text, read back on the run's
    class vector."""
    scenario, run = str(FILES.get(name, name)), tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--scenario", scenario, "--out", str(run)])
        assert main(["verify", "--scenario", scenario, "--graphs", str(run / "graphs")]) == code
    omega = load_scenario(scenario).enumeration_spec().final_omega
    paths = sorted((run / "graphs").glob("graph-*.txt"))
    pinned = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert len(paths) == pinned["final_count"]
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert canonical_text(parse_graph(text, omega)) == text


def test_golden_cli_text(tmp_path):
    pinned = json.loads((GOLDEN / "cli-text.json").read_text(encoding="utf-8"))
    assert cli_record(tmp_path) == pinned
    assert len(pinned["stdout"]) == 12 + len(UNSCOPED)
    assert len(pinned["export ruled-three"]) == 1 + 1 + 3 + 9  # levels 0-3


def test_golden_reference_counts():
    """The counts quoted in the roadmap, read from the pinned records."""
    six = json.loads((GOLDEN / "cp2-six.json").read_text(encoding="utf-8"))
    assert [kept for _, kept, _ in six["levels"]] == [19, 15, 2, 7, 26]
    r4 = json.loads((GOLDEN / "ruled-general-4.json").read_text(encoding="utf-8"))
    assert r4["final_count"] == 317
    deep = json.loads((GOLDEN / "ruled-deep.json").read_text(encoding="utf-8"))
    assert [kept for _, kept, _ in deep["levels"]] == [1, 3, 12, 60, 360, 2520]
    # The benchmark pins the same report for its ruled-deep workload.
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    assert deep["report_sha256"] == pins["ruled-deep"]["ruled-deep"]["report_sha256"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in SCENARIOS:
        text = json.dumps(golden_record(name), indent=2, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}")
    with tempfile.TemporaryDirectory() as workdir:
        record = files_record(Path(workdir))
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "ruled-general-4-files.json").write_text(text, encoding="utf-8")
    print("wrote ruled-general-4-files")
    with tempfile.TemporaryDirectory() as workdir:
        record = cli_record(Path(workdir))
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "cli-text.json").write_text(text, encoding="utf-8")
    print("wrote cli-text")
