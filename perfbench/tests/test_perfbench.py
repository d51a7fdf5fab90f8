"""Tests of the benchmark itself: pins, seeds, tracing and the command's contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
import spans
import workloads
from pins import load_pins, mismatches
from decgraph import scenarios

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def one_pass(name: str, seed: int, workdir: Path) -> dict:
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    return workload.answers(workload.run_pass())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pins_match_the_program(name, tmp_path):
    assert mismatches(one_pass(name, 0, tmp_path), load_pins()[name]) == []


@pytest.mark.parametrize("name", ["paper", "replay"])
def test_two_seeds_give_the_same_answers(name, tmp_path):
    first = one_pass(name, 1, tmp_path / "a")
    assert one_pass(name, 2, tmp_path / "b") == first


def test_ruled_deep_seeds_permute_lines_of_one_scenario(tmp_path):
    loaded = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        workload = workloads.RuledDeep(seed, tmp_path / str(seed))
        loaded.append((workload.path.read_text(), scenarios.load_scenario(str(workload.path))))
    (text1, s1), (text2, s2) = loaded
    assert text1 != text2
    assert s1 == s2
    assert s1.name == "ruled-deep" and len(s1.sizes) == 6


def test_an_altered_pin_is_a_mismatch():
    pins = load_pins()["paper"]
    altered = json.loads(json.dumps(pins))
    altered["cp2-six"]["levels"][0][1] += 1
    assert mismatches(pins, altered) == [
        "/cp2-six/levels: [[21, 19, 2], [28, 15, 13], [3, 2, 1], [10, 7, 3], [34, 26, 8]]"
        " != [[21, 20, 2], [28, 15, 13], [3, 2, 1], [10, 7, 3], [34, 26, 8]]"
    ]


def test_a_wrong_parse_is_a_mismatch(tmp_path, monkeypatch):
    workload = workloads.Replay(1, tmp_path)
    workload.setup()
    output = workload.run_pass()
    original = workloads.graphs.parse_graph

    def misread(text):
        return original(text.replace("/", "/1", 1))

    monkeypatch.setattr(workloads.graphs, "parse_graph", misread)
    bad = mismatches(workload.answers(output), load_pins()["replay"])
    assert bad and bad[0].startswith("/parsed_sha256:")


def test_a_pass_that_raises_is_counted_and_reported(tmp_path, monkeypatch, capsys):
    class Raising(workloads.Paper):
        def run_pass(self):
            raise ValueError("broken pass")

    monkeypatch.setattr(workloads, "WORKLOADS", {**workloads.WORKLOADS, "paper": Raising})
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", "paper", "--seed", "1", "--seconds", "0", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    result = json.loads(out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert "ValueError: broken pass" in err


@pytest.mark.parametrize("enabled", [True, False])
def test_reference_samples_run_without_the_collector(enabled):
    probe = run.SpeedProbe()
    was = gc.isenabled()
    seen = []
    real = run.reference_unit
    try:
        (gc.enable if enabled else gc.disable)()
        run.reference_unit = lambda: seen.append(gc.isenabled())
        probe._sample()
        assert gc.isenabled() is enabled
    finally:
        run.reference_unit = real
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_speed_scale_leaves_out_the_extreme_tenths_of_the_window():
    probe = run.SpeedProbe()
    took = [0.002] + [0.001] * 4 + [0.003] * 4 + [0.05, 0.0001]
    for at, t in enumerate(took):
        probe.at.append(float(at))
        probe.took.append(t)
    assert probe.scale(0.0, 10.0) == pytest.approx(run.REFERENCE_S / 0.002)


def decgraph_attributes() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "decgraph" or name.startswith("decgraph.")
        for attr, value in vars(module).items()
    }


def traced(name: str, seed: int, workdir: Path) -> dict:
    workload = workloads.WORKLOADS[name](seed, workdir)
    checker = run.Checker(workload, load_pins()[name])
    values = run.traced_metrics(workload, checker, 0, 0.0, workdir / "trace.json.gz")
    assert (checker.attempted, checker.failed) == (4, 0)
    return values


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    before = decgraph_attributes()
    values = traced("replay", 1, tmp_path)
    assert spans.leftover_wrappers() == []
    after = decgraph_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert values["graphs.parse_calls"] == 317
    assert values["obstruct.graphs"] == values["obstruct.obstructed"] == 317


def test_call_counts_repeat_across_traced_runs(tmp_path):
    first = traced("paper", 1, tmp_path / "a")
    second = traced("paper", 2, tmp_path / "b")
    counts = [name for name, unit in metrics.PER_LAYER_UNITS.items() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["enumeration.dedup_calls"] == 614
    assert first["graphs.normal_form_calls"] == 1140
    assert set(first) == set(metrics.PER_LAYER_UNITS)


def checkout_copy(tmp_path: Path, with_program: bool) -> Path:
    """A checkout holding the benchmark, and the program's sources if asked."""
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def run_command(root: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def test_command_fails_on_an_altered_pin(tmp_path):
    root = checkout_copy(tmp_path, with_program=True)
    pins_path = root / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["replay"]["verdicts"][5] = "unobstructed"
    pins_path.write_text(json.dumps(pins))
    proc = run_command(root, "replay")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1
    assert "/verdicts" in proc.stderr


def test_command_fails_without_the_program(tmp_path):
    root = checkout_copy(tmp_path, with_program=False)
    proc = run_command(root, "paper")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOAD_NAMES)
    assert set(metrics.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
