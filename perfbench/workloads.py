"""The benchmark workloads: inputs made from a seed, one timed pass, pinned answers.

Every workload drives decgraph only through its public entry points
(``builtin_scenarios``, ``load_scenario``, ``run_scenario``,
``enumerate_graphs``, ``export_graphs`` and ``cli.main``), looked up as module
attributes at call time so that a traced run can wrap them.  Checking a
``replay`` pass also reads the graph files back with ``parse_graph`` and
``canonical_text``, untimed.

The seed only permutes input order where the answer cannot depend on it, and
``answers`` undoes every permutation, so the answers are the same for every
seed and can be compared with the pins in ``pins.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

from decgraph import cli, enumeration, graphs, scenarios
from metrics import PAPER_SCENARIOS

HERE = Path(__file__).resolve().parent
REPLAY_SCENARIO = "ruled-general-4"


def report_digest(report: dict) -> str:
    """SHA-256 of the report as ``report.json`` holds it (sorted keys)."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_answers(report: dict) -> dict:
    """The pinned answers of one ``run_scenario`` report."""
    verdicts = Counter(g["verdict"] for g in report["graphs"])
    return {
        "levels": [
            [lv["sites"], lv["kept"], lv["merged"]]
            for lv in report["enumeration"]["levels"]
        ],
        "final_count": report["enumeration"]["final_count"],
        "obstructed": verdicts["obstructed"],
        "unobstructed": verdicts["unobstructed"],
        "gates": report["gates"],
        "passed": report["passed"],
        "report_sha256": report_digest(report),
    }


class Paper:
    """The four builtins through ``run_scenario``, in a seeded order."""

    name = "paper"
    setup_batch = 3000

    def __init__(self, seed: int, workdir: Path):
        self.order = list(PAPER_SCENARIOS)
        random.Random(seed).shuffle(self.order)

    def setup(self) -> None:
        self.scenarios = scenarios.builtin_scenarios()

    def run_pass(self):
        return [scenarios.run_scenario(self.scenarios[n]) for n in self.order]

    def answers(self, outcomes) -> dict:
        return {o.report["scenario"]: scenario_answers(o.report) for o in outcomes}


class RuledDeep:
    """The first six sizes of ruled-general-6, read from a scenario file.

    The seed shuffles the lines of the file, which the key/value format
    ignores.
    """

    name = "ruled-deep"
    setup_batch = 4000

    def __init__(self, seed: int, workdir: Path):
        lines = (HERE / "ruled-deep.scenario").read_text(encoding="utf-8").splitlines()
        random.Random(seed).shuffle(lines)
        self.path = workdir / "ruled-deep.scenario"
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def setup(self) -> None:
        self.scenario = scenarios.load_scenario(str(self.path))

    def run_pass(self):
        return [scenarios.run_scenario(self.scenario)]

    def answers(self, outcomes) -> dict:
        return {o.report["scenario"]: scenario_answers(o.report) for o in outcomes}


class Replay:
    """``decgraph verify --graphs DIR`` on the saved graphs of ruled-general-4.

    Set-up enumerates the scenario and writes its graphs with
    ``export_graphs``, over the files of the previous set-up; the seed
    decides which graph goes to which file.
    """

    name = "replay"
    setup_batch = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.graph_dir = workdir / "graphs"
        self.perm: list[int] = []

    def setup(self) -> None:
        scenario = scenarios.load_scenario(REPLAY_SCENARIO)
        result = enumeration.enumerate_graphs(scenario.enumeration_spec())
        if not self.perm:
            self.perm = list(range(len(result.graphs)))
            self.rng.shuffle(self.perm)
        shuffled = enumeration.EnumerationResult(
            tuple(result.graphs[i] for i in self.perm), result.branch_log
        )
        scenarios.export_graphs(shuffled, str(self.graph_dir))

    def run_pass(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(
                ["verify", "--scenario", REPLAY_SCENARIO, "--graphs", str(self.graph_dir)]
            )
        return code, out.getvalue()

    def answers(self, output) -> dict:
        code, text = output
        report = json.loads(text)
        # File i holds graph perm[i]; put the verdicts back in enumeration order.
        ordered = [None] * len(report["graphs"])
        for i, entry in zip(self.perm, report["graphs"]):
            ordered[i] = entry
        report["graphs"] = ordered
        report["source"] = "GRAPHS"
        return {
            "exit_code": code,
            "verdicts": [g["verdict"] for g in ordered],
            "report_sha256": report_digest(report),
            "parsed_sha256": self.parsed_digest(),
        }

    def parsed_digest(self) -> str:
        """SHA-256 of the canonical texts of the graph files as parsed.

        The verdicts alone cannot show a wrong parse of a graph that stays
        obstructed; the texts, taken in enumeration order, can.
        """
        manifest = json.loads((self.graph_dir / "manifest.json").read_text(encoding="utf-8"))
        texts = [""] * len(self.perm)
        for i, name in zip(self.perm, manifest["files"]):
            parsed = graphs.parse_graph((self.graph_dir / name).read_text(encoding="utf-8"))
            texts[i] = graphs.canonical_text(parsed)
        return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()


WORKLOADS = {w.name: w for w in (Paper, RuledDeep, Replay)}
