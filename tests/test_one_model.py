"""One model object per run: every class a run meets is on it.

A run parses its required classes, generator lists, membership targets and
replayed graphs on the model of its enumeration's final class vector, which
the base graphs' model reaches by ``extend``.  So a run holds one model
object per lattice, every class it meets is that model's one object for its
coefficients, and two classes are equal exactly when they are one object.
The checks below spy on the stage functions the pipeline calls and collect
every class and model handed across: the bases and the final graphs'
vertex, edge and fiber classes, required and certified classes, generator
and membership classes, witness classes.  The label cross-check of a plane
run walks the run's own bases, so it builds no lattice of its own.  A model
of the same shape is
another lattice, which ``pair``, ``intersect`` and the obstruction search
refuse.
"""

import contextlib
import dataclasses
import io
from collections import Counter
from pathlib import Path

import pytest

from decgraph import cli, cone, enumeration, scenarios
from decgraph.lattice import (
    HomologyClass,
    LatticeError,
    SurfaceModel,
    intersect,
    pair,
)
from decgraph.obstruct import RequiredClass, check_nonextension

ROOT = Path(__file__).resolve().parents[1]
RUNS = (
    "cp2-six",
    "cp2-six-alt",
    "ruled-three",
    "ruled-general-4",
    str(ROOT / "perfbench" / "ruled-deep.scenario"),
    str(ROOT / "tests" / "golden" / "ruled-multi.scenario"),
)


def collect(x, classes: dict, models: dict) -> None:
    """Every class and model in ``x``, through containers and dataclasses."""
    if isinstance(x, HomologyClass):
        classes[id(x)] = x
        models[id(x.model)] = x.model
    elif isinstance(x, SurfaceModel):
        models[id(x)] = x
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            collect(getattr(x, f.name), classes, models)
    elif isinstance(x, (list, tuple, set, frozenset)):
        for y in x:
            collect(y, classes, models)
    elif isinstance(x, dict):
        for key, value in x.items():
            collect(key, classes, models)
            collect(value, classes, models)


def spy(monkeypatch, targets, classes: dict, models: dict) -> dict:
    """Wrap each (module, name) so its arguments and result are collected;
    return each name's results, call by call."""
    results = {name: [] for _, name in targets}
    for module, name in targets:
        original = getattr(module, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            out = _original(*args, **kwargs)
            collect((args, kwargs, out), classes, models)
            results[_name].append(out)
            return out

        monkeypatch.setattr(module, name, wrapper)
    return results


STAGES = [
    (scenarios, name)
    for name in (
        "cross_check_instantiation", "enumerate_graphs", "check_nonextension",
        "last_blowup_classes", "classify_sequence_types", "nakai_check", "cone_membership",
    )
] + [(cone, "curve_list_audit"), (cone, "verify_picard_basis")]


def assert_one_model(classes: dict, models: dict) -> SurfaceModel:
    """One chain of models, each class its model's table object; the last
    model of the chain, which every class not on a base graph is on."""
    chain = sorted(models.values(), key=lambda m: m.k)
    model = chain[0]
    for wider in chain[1:]:
        while model is not wider and model.k < wider.k:
            model = model.extend()
        assert model is wider, sorted(map(str, models.values()))
    for c in classes.values():
        assert c is c.model.intern(c.coeffs), c
    return model


def assert_twin_is_refused(model, omega, graphs, scenario) -> None:
    """A model of the same shape is another lattice."""
    twin = SurfaceModel(model.kind, model.k, model.genus)
    with pytest.raises(LatticeError, match="model mismatch"):
        pair(omega, twin.zero())
    with pytest.raises(LatticeError, match="model mismatch"):
        intersect(model.zero(), twin.zero())
    required = [RequiredClass(twin.parse(text), order) for text, order in scenario.required]
    with pytest.raises(LatticeError, match="model mismatch"):
        check_nonextension(graphs, required, scenario.mode)


@pytest.mark.parametrize("name", RUNS, ids=lambda n: Path(n).stem)
def test_every_class_a_run_meets_is_on_its_one_model(monkeypatch, name):
    scenario = scenarios.load_scenario(name)
    classes, models = {}, {}
    spy(monkeypatch, STAGES, classes, models)
    outcome = scenarios.run_scenario(scenario)
    monkeypatch.undo()
    graphs = outcome.result.graphs
    certificates = [v["certificate"] for v in outcome.report["graphs"] if v["certificate"]]
    assert graphs and certificates
    model = assert_one_model(classes, models)
    assert model.as_json() == outcome.report["model"]
    omega = graphs[0].omega
    assert all(g.omega is omega for g in graphs) and omega.model is model
    # The final graphs' classes and the certificates' classes were met.
    held = {id(v.fat) for g in graphs for v in g.vertices if v.fat is not None}
    held |= {id(e.cls) for g in graphs for e in g.edges} | {id(g.fiber) for g in graphs}
    assert held <= classes.keys()
    met = {str(c) for c in classes.values()}
    assert {c["certified"] for c in certificates} <= met
    assert {c["required"] for c in certificates} <= met
    if scenario.generator_key:
        gens = scenario.generator_list(model)
        assert {str(c) for c in gens.generators} <= met
    assert set(outcome.report.get("witness_classes", ())) <= met
    assert_twin_is_refused(model, omega, graphs, scenario)


PLANE_RUNS = RUNS[:2] + (str(ROOT / "tests" / "golden" / "cp2-six-strict.scenario"),)


@pytest.mark.parametrize("name", PLANE_RUNS, ids=lambda n: Path(n).stem)
def test_a_plane_run_builds_one_model_per_k(monkeypatch, name):
    """The bases' model and one ``extend`` per size: k = 1 to 6, once each,
    the label cross-check included."""
    scenario = scenarios.load_scenario(name)
    made = Counter()
    check = SurfaceModel.__post_init__

    def counted(model):
        made[model.kind, model.k] += 1
        check(model)

    monkeypatch.setattr(SurfaceModel, "__post_init__", counted)
    outcome = scenarios.run_scenario(scenario)
    monkeypatch.undo()
    assert outcome.report["cross_check"] is True
    assert made == Counter({("rational", k): 1 for k in range(1, 7)})


def test_every_class_a_replay_meets_is_on_its_one_model(monkeypatch, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--scenario", "ruled-general-4", "--out", str(tmp_path)]) == 0
    classes, models = {}, {}
    targets = [(cli, "read_graphs"), (cli, "check_nonextension")]
    results = spy(monkeypatch, targets, classes, models)
    replay = ["verify", "--scenario", "ruled-general-4", "--graphs", str(tmp_path / "graphs")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(replay) == 0
    monkeypatch.undo()
    model = assert_one_model(classes, models)
    (graphs,) = results["read_graphs"]
    (report,) = results["check_nonextension"]
    assert len(graphs) == 317 and all(g.model is model for g in graphs)
    assert all(v.certificate for v in report.verdicts)
    omega = graphs[0].omega
    assert all(g.omega is omega for g in graphs)
    assert_twin_is_refused(model, omega, graphs, scenarios.load_scenario("ruled-general-4"))


def test_replays_onto_two_vectors_share_no_class(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--scenario", "ruled-three", "--out", str(tmp_path)]) == 0
    scenario = scenarios.load_scenario("ruled-three")
    runs = []
    for _ in range(2):
        omega = scenario.enumeration_spec().final_omega
        graphs = scenarios.read_graphs(tmp_path / "graphs", omega)
        assert len(graphs) == 9 and all(g.omega is omega for g in graphs)
        runs.append(graphs)
    first, second = runs
    assert first[0].omega is not second[0].omega
    with pytest.raises(LatticeError, match="model mismatch"):
        intersect(first[0].fiber, second[0].fiber)


def vectors_from(omega):
    """``omega`` and every vector extended from it."""
    yield omega
    for wider in omega._extensions.values():
        yield from vectors_from(wider)


def test_relabeling_tables_start_empty_and_return_the_models_classes(monkeypatch):
    """cp2-six keys its graphs over relabelings of equal sizes, each through a
    class table kept on the level's class vector.  Each run starts cold: at
    its first key, on the bases' vector, no vector of the run has a table.
    Every class a table returns is its model's one object."""
    scenario = scenarios.load_scenario("cp2-six")
    runs = []
    for _ in range(2):
        seen = {}
        original = enumeration.dedup_key

        def spy(g, *args, _seen=seen, _original=original):
            if not _seen:
                assert all(v._relabelings == {} for v in vectors_from(g.omega))
            _seen[id(g.omega)] = g.omega
            return _original(g, *args)

        monkeypatch.setattr(enumeration, "dedup_key", spy)
        outcome = scenarios.run_scenario(scenario)
        monkeypatch.undo()
        runs.append((outcome, list(seen.values())))
    for outcome, vectors in runs:
        assert vectors[-1] is outcome.result.graphs[0].omega
        images = 0
        for omega in vectors:
            for tables in omega._relabelings.values():
                assert tables[0] is None and None not in tables[1:]  # the identity first
                for table in tables:
                    for c, image in (table or {}).items():
                        assert c.model is image.model is omega.model
                        assert image is image.model.intern(image.coeffs)
                        images += 1
        assert images > 100
    first, second = (set(map(id, vectors)) for _, vectors in runs)
    assert not first & second
