"""A split level is the level one process makes, and leaves no process behind.

``enumeration._level`` hands the second share of a large level's parents to
a forked worker.  Forcing every level of two or more children to split
(``SPLIT_CHILDREN = 2``), each scenario must give the same levels (keys,
logs, ledgers, canonical texts) and the same ``report.json`` bytes as on one
CPU.  A blowup that raises in either share raises the one-CPU error, and
afterwards this process has no child left to reap.
"""

import json
import os
from pathlib import Path

import pytest

from decgraph import enumeration
from decgraph.blowup import BlowupError
from decgraph.enumeration import dedup_key, enumerate_graphs, enumerate_levels
from decgraph.graphs import canonical_text
from decgraph.scenarios import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ["cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4"] + sorted(
    str(p) for p in [*(ROOT / "tests" / "golden").glob("*.scenario"), ROOT / "perfbench" / "ruled-deep.scenario"]
)


def levels_and_report(name: str):
    spec = load_scenario(name).enumeration_spec()
    levels = [
        (
            level.branch_log,
            [dedup_key(g, spec.permute_equal_sizes) for g in level.graphs],
            [g.ledger for g in level.graphs],
            [canonical_text(g) for g in level.graphs],
        )
        for level in enumerate_levels(spec)
    ]
    report = run_scenario(load_scenario(name)).report
    return levels, json.dumps(report, indent=2, sort_keys=True)


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture(scope="module")
def serial_runs():
    """Each scenario's levels and report on one CPU, computed once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return {name: levels_and_report(name) for name in SCENARIOS}


@pytest.mark.parametrize("name", SCENARIOS, ids=lambda n: Path(n).stem)
def test_a_split_run_is_the_one_cpu_run(name, serial_runs, two_cpus, monkeypatch):
    monkeypatch.setattr(enumeration, "SPLIT_CHILDREN", 2)
    assert levels_and_report(name) == serial_runs[name]
    assert two_cpus, "no level was split"
    assert no_child_is_left()


def test_one_cpu_or_a_small_level_forks_no_worker(monkeypatch, request):
    shares = request.getfixturevalue("two_cpus")
    enumerate_graphs(load_scenario("cp2-six").enumeration_spec())  # 34 children at most
    assert shares == []
    request.getfixturevalue("one_cpu")
    monkeypatch.setattr(enumeration, "SPLIT_CHILDREN", 2)
    enumerate_graphs(load_scenario("cp2-six").enumeration_spec())
    assert shares == []


def planted(monkeypatch, target):
    """Make ``apply_blowup`` raise on the parent whose canonical text is
    ``target``'s, in whichever process blows it up."""
    depth, text = len(target.ledger), canonical_text(target)
    apply_blowup = enumeration.apply_blowup

    def failing(g, vertex, delta):
        if len(g.ledger) == depth and canonical_text(g) == text:
            raise BlowupError(f"planted at the parent with ledger {g.ledger}")
        return apply_blowup(g, vertex, delta)

    monkeypatch.setattr(enumeration, "apply_blowup", failing)


def raised(name: str) -> str:
    with pytest.raises(BlowupError) as info:
        enumerate_graphs(load_scenario(name).enumeration_spec())
    return str(info.value)


@pytest.mark.parametrize("where", [0, -1], ids=["in-this-share", "in-the-workers-share"])
def test_a_raise_in_either_share_is_the_one_cpu_raise(where, monkeypatch, request):
    """ruled-general-4's last level (60 parents, 317 children) splits; its
    first parent is in this process's share, its last in the worker's.  A
    worker that fails leaves its share to be redone here, which raises."""
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        parents = enumerate_levels(load_scenario("ruled-general-4").enumeration_spec())[-2].graphs
        planted(mp, parents[where])
        expected = raised("ruled-general-4")
    shares = request.getfixturevalue("two_cpus")
    planted(monkeypatch, parents[where])
    assert raised("ruled-general-4") == expected
    assert len(shares) == 1 and len(shares[0]) < len(parents)
    assert no_child_is_left()


def test_a_worker_that_dies_is_redone_here(two_cpus, monkeypatch, serial_runs):
    """A worker killed mid-share (here it exits at its first blowup) is
    reaped, and its share is made and keyed here."""
    here = os.getpid()
    apply_blowup = enumeration.apply_blowup

    def dying(g, vertex, delta):
        if os.getpid() != here:
            os._exit(3)
        return apply_blowup(g, vertex, delta)

    monkeypatch.setattr(enumeration, "apply_blowup", dying)
    assert levels_and_report("ruled-general-4") == serial_runs["ruled-general-4"]
    assert len(two_cpus) == 2  # one split level in each of the two enumerations
    assert no_child_is_left()
