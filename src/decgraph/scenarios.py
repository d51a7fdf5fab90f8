"""Scenario definitions and the end-to-end verification pipeline.

A scenario bundles a blowup class vector, an ordered size list, the classes
the cyclic action fixes, a certification mode, and the curve lists for the
positivity checks.  Running one enumerates every circle action with that
class vector, then certifies that each enumerated action meets a fixed class
negatively, and finally replays the positivity and cone computations that
justify the construction itself.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from . import cone as cone_mod
from .cone import GENERATOR_LISTS, GeneratorList, cone_membership, nakai_check
from .enumeration import (
    EnumerationError,
    EnumerationResult,
    EnumerationSpec,
    _base_family_params,
    classify_sequence_types,
    cross_check_instantiation,
    enumerate_graphs,
    hirzebruch_base_graphs,
    ruled_base_graphs,
)
from .graphs import (
    GraphError,
    _check_fiber,
    _drop_caches,
    _ledger_texts,
    canonical_text,
    parse_graph,
    render_dot,
    validate,
)
from .lattice import (
    RATIONAL,
    RULED,
    CohomologyVector,
    HomologyClass,
    LatticeError,
    SurfaceModel,
    is_reduced,
    rat,
    rat_str,
    volume,
)
from .obstruct import (
    INTEGRABLE_BLOWUP,
    STABILIZER_ONLY,
    RequiredClass,
    check_nonextension,
    last_blowup_classes,
)

DEFAULT_REPS = ((1, 1), (1, 2), (2, 1))


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    kind: str  # 'rational' | 'ruled'
    lam: Fraction  # lam for the plane, lam_f for the ruled model
    sizes: tuple[Fraction, ...]
    name: str = "custom"
    lam_b: Fraction | None = None  # the ruled model's
    base_deltas: tuple[Fraction, ...] = ()  # the plane model's one base size
    required: tuple[tuple[str, int], ...] = ()  # (class text, cyclic order)
    n: int = 2
    mode: str = STABILIZER_ONLY
    genus: int = 2
    reps: tuple[tuple[int, int], ...] = DEFAULT_REPS
    permute_equal_sizes: bool = True
    generator_key: str | None = None
    audit_curves: bool = False  # gate on every generator being a (-1)/(-2) class
    membership_targets: tuple[str, ...] = ()
    picard_prefix: int | None = None
    witness_family: str | None = None  # key into WITNESS_FAMILIES
    classify_types: bool = False
    advisory: bool = False
    expected_final_count: int | None = None

    def required_classes(self, model: SurfaceModel) -> list[RequiredClass]:
        """The required classes, parsed on the run's model."""
        return [
            RequiredClass(model.parse(text), fixed_by) for text, fixed_by in self.required
        ]

    def enumeration_spec(self) -> EnumerationSpec:
        """A new run's bases and sizes.  ``final_omega`` of the spec is the
        run's class vector and its model the run's one model object."""
        if self.kind == RATIONAL:
            if len(self.base_deltas) != 1:
                raise ScenarioError("plane scenarios start from one base size")
            bases = hirzebruch_base_graphs(self.lam, self.base_deltas[0], self.reps)
        elif self.base_deltas:
            raise ScenarioError("ruled scenarios start from the unblown surface")
        else:
            bases = ruled_base_graphs(self.lam, self.lam_b, self.genus)
        return EnumerationSpec(tuple(bases), self.sizes, self.permute_equal_sizes)

    def generator_list(self, model: SurfaceModel) -> GeneratorList | None:
        """The named curve list, parsed on the run's model, or None."""
        if self.generator_key is None:
            return None
        return GeneratorList.parse(model, GENERATOR_LISTS[self.generator_key][2])


def _witness_in_six_blowup_family(c: HomologyClass) -> bool:
    """The hand-derived case list for the cp2-six scenario.

    E5; E1-Ei-E5 (i in 2..4); E1-Ei-E6 (i in 2..5); L minus three of
    E2..E5; L minus four of E2..E6.
    """
    coeffs = c.coeffs
    lead, exc = coeffs[0], coeffs[1:]
    if any(x not in (0, -1, 1) for x in coeffs):
        return False
    neg = {i for i, x in enumerate(exc, start=1) if x == -1}
    pos = {i for i, x in enumerate(exc, start=1) if x == 1}
    if lead == 0 and pos == {5} and not neg:
        return True
    if lead == 0 and pos == {1} and len(neg) == 2:
        if 5 in neg and neg - {5} <= {2, 3, 4}:
            return True
        if 6 in neg and neg - {6} <= {2, 3, 4, 5}:
            return True
        return False
    if lead == 1 and not pos:
        if len(neg) == 3 and neg <= {2, 3, 4, 5}:
            return True
        if len(neg) == 4 and neg <= {2, 3, 4, 5, 6}:
            return True
    return False


WITNESS_FAMILIES = {"six-blowup": _witness_in_six_blowup_family}


def _ruled_general_sizes(r: int) -> tuple[Fraction, ...]:
    if r <= 2 or r % 2 != 0:
        raise ScenarioError("the generalized ruled scenario needs an even r > 2")
    sizes = [Fraction(2 ** (2 * r - i) + 1, 2 ** (2 * r)) for i in range(1, r + 1)]
    sizes.append(Fraction(1, 2**r))
    return tuple(sizes)


CP2_SIX_SIZES = (
    Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(3, 16), Fraction(1, 8),
)


def _cp2_six() -> Scenario:
    return Scenario(
        name="cp2-six",
        kind=RATIONAL,
        lam=Fraction(1),
        base_deltas=(Fraction(1, 2),),
        sizes=CP2_SIX_SIZES,
        required=(("E1-E2", 2), ("L-E3-E4", 2), ("E5-E6", 2)),
        generator_key="plane-six",
        audit_curves=True,
        picard_prefix=7,
        witness_family="six-blowup",
    )


def _cp2_six_alt() -> Scenario:
    return Scenario(
        name="cp2-six-alt",
        kind=RATIONAL,
        lam=Fraction(1),
        base_deltas=(Fraction(1, 2),),
        sizes=CP2_SIX_SIZES,
        required=(("E1", 2), ("E5-E6", 2), ("L-E2-E3-E4", 2)),
        generator_key="plane-six-alt",
        audit_curves=True,
    )


def _ruled_three() -> Scenario:
    return Scenario(
        name="ruled-three",
        kind=RULED,
        lam=Fraction(1),
        lam_b=Fraction(1),
        sizes=(Fraction(3, 5), Fraction(7, 20), Fraction(3, 10)),
        required=(("E2-E3", 2),),
        mode=INTEGRABLE_BLOWUP,
        generator_key="ruled-three",
        membership_targets=("F", "B"),
        classify_types=True,
    )


BUILTINS = {
    "cp2-six": _cp2_six,
    "cp2-six-alt": _cp2_six_alt,
    "ruled-three": _ruled_three,
    "ruled-general-4": lambda: ruled_general_scenario(4),
}


def builtin_scenarios() -> dict[str, Scenario]:
    return {name: make() for name, make in BUILTINS.items()}


def ruled_general_scenario(r: int) -> Scenario:
    sizes = _ruled_general_sizes(r)
    required = [(f"E{r}-E{r + 1}", r)]
    required += [(f"E{2 * i}-E{2 * i + 1}", 2) for i in range(1, r // 2)]
    return Scenario(
        name=f"ruled-general-{r}",
        kind=RULED,
        lam=Fraction(1),
        lam_b=Fraction(1),
        sizes=sizes,
        required=tuple(required),
        n=r,
        mode=INTEGRABLE_BLOWUP,
        advisory=True,
    )


def load_scenario(name_or_path: str) -> Scenario:
    """A builtin, ``ruled-general-<r>``, or a scenario file, checked.

    Raises ScenarioError for anything the pipeline would reject later.
    """
    make = BUILTINS.get(name_or_path)
    if make is not None:
        scenario = make()
    elif name_or_path.startswith("ruled-general-"):
        suffix = name_or_path.removeprefix("ruled-general-")
        try:
            r = _count(suffix)
        except ValueError:
            raise ScenarioError(f"ruled-general-<r> needs an integer r, not {suffix!r}") from None
        scenario = ruled_general_scenario(r)
    else:
        try:
            with open(name_or_path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:  # a decode error names the byte's position
            raise ScenarioError(f"no builtin or readable scenario {name_or_path!r}: {exc}")
        scenario = parse_scenario_text(text)
    return _checked(scenario)


def _checked(s: Scenario) -> Scenario:
    """Return ``s`` if the pipeline can run it; raise ScenarioError if not."""
    if s.mode not in (STABILIZER_ONLY, INTEGRABLE_BLOWUP):
        raise ScenarioError(
            f"unknown mode {s.mode!r}: use {STABILIZER_ONLY} or {INTEGRABLE_BLOWUP}"
        )
    if any(x <= 0 for x in s.sizes):
        raise ScenarioError("blowup sizes must be positive")
    if s.n < 2:
        raise ScenarioError(f"the cyclic order n must be at least 2, not {s.n}")
    for text, order in s.required:
        if order < 2:
            raise ScenarioError(
                f"the cyclic order of required class {text} must be at least 2, not {order}"
            )
    if s.kind == RULED and s.genus < 1:
        raise ScenarioError(f"genus must be at least 1, not {s.genus}")
    if any(len(rep) != 2 for rep in s.reps):
        raise ScenarioError("each reps entry must be a c,d pair of edge labels")
    # A pair the base families reject would be skipped, and the families with it.
    for c, d in s.reps:
        if c < 1 or d < 1 or math.gcd(c, d) != 1:
            raise ScenarioError(f"reps entry {c},{d} is no coprime pair of positive labels")
    if s.kind == RATIONAL:
        if s.lam <= 0:
            raise ScenarioError(f"lam must be positive, not {rat_str(s.lam)}")
        if len(s.base_deltas) != 1:
            raise ScenarioError(
                f"a plane scenario needs exactly one base size, not {len(s.base_deltas)}"
            )
        if not 0 < s.base_deltas[0] < s.lam:
            raise ScenarioError(
                f"the base size must lie strictly between 0 and lam = {rat_str(s.lam)},"
                f" not {rat_str(s.base_deltas[0])}"
            )
    else:
        for name, value in (("lam-f", s.lam), ("lam-b", s.lam_b)):
            if value <= 0:
                raise ScenarioError(f"{name} must be positive, not {rat_str(value)}")
    k = len(s.base_deltas) + len(s.sizes)
    need = 3 if s.kind == RATIONAL else 2
    if k < need:
        raise ScenarioError(
            f"the reducedness check needs k >= {need} exceptional classes"
            f" on the {s.kind} model, and this scenario has k = {k}"
        )
    # The classes are parsed on a model of the run's shape, which no run uses.
    model = SurfaceModel(s.kind, k, s.genus if s.kind == RULED else 0)
    try:
        s.required_classes(model)
    except LatticeError as exc:
        raise ScenarioError(str(exc)) from None
    if s.generator_key is not None:
        if s.generator_key not in GENERATOR_LISTS:
            raise ScenarioError(
                f"unknown generator list {s.generator_key!r}:"
                f" use one of {', '.join(GENERATOR_LISTS)}"
            )
        kind, size, _ = GENERATOR_LISTS[s.generator_key]
        if (kind, size) != (s.kind, k):
            shape = SurfaceModel(kind, size, s.genus if kind == RULED else 0)
            raise ScenarioError(
                f"generator list {s.generator_key!r} is on the {shape} model,"
                f" the scenario on the {model} model"
            )
        try:
            for name in s.membership_targets:
                model.parse(name)
        except LatticeError as exc:
            raise ScenarioError(f"membership target {name!r}: {exc}") from None
        if s.picard_prefix is not None and s.picard_prefix != model.rank:
            raise ScenarioError(f"picard-prefix must be the rank {model.rank} of {model}")
    elif s.membership_targets or s.picard_prefix is not None:
        raise ScenarioError("membership and picard-prefix need a generators line")
    if s.witness_family is not None and s.witness_family not in WITNESS_FAMILIES:
        raise ScenarioError(
            f"unknown witness family {s.witness_family!r}:"
            f" use one of {', '.join(WITNESS_FAMILIES)}"
        )
    return s


def _rational(word: str) -> Fraction:
    try:
        return rat(word)
    except ZeroDivisionError:
        raise ValueError(f"has a zero denominator in {word!r}") from None
    except LatticeError as exc:
        raise ValueError(f"is {exc}") from None


def _integer(word: str) -> int:
    """An optional '-' then ASCII digits; ``int`` alone reads '1_0', '+2' and '٢'."""
    try:
        return -_count(word[1:]) if word.startswith("-") else _count(word)
    except ValueError:
        raise ValueError(f"must be an integer, not {word!r}") from None


def _count(word: str) -> int:
    if word.isascii() and word.isdigit():
        with contextlib.suppress(ValueError):  # more digits than ``int`` reads
            return int(word)
    raise ValueError(f"must be a non-negative integer, not {word!r}")


def _one_of(table: dict):
    """The reader of a word that names a key of ``table``: its value."""

    def read(word: str):
        if word not in table:
            raise ValueError(f"must be {' or '.join(table)}, not {word!r}")
        return table[word]

    return read


def _rationals(value: str) -> tuple[Fraction, ...]:
    return tuple(map(_rational, value.split()))


def _pairs(value: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(map(_integer, item.split(","))) for item in value.split())


def _required(value: str) -> tuple[tuple[str, int | None], ...]:
    """Each ``class@order``; a bare class's order is None until n is known."""
    items = (item.partition("@") for item in value.split())
    return tuple((text, _integer(order) if order else None) for text, _, order in items)


_flag = _one_of({"on": True, "off": False})

# Each key's Scenario field, the reader of its value, and the one model whose
# files may name it (None: both).
_KEYS = {
    "name": ("name", str, None),
    "kind": ("kind", _one_of({RATIONAL: RATIONAL, RULED: RULED}), None),
    "lam": ("lam", _rational, RATIONAL),
    "base-sizes": ("base_deltas", _rationals, RATIONAL),
    "reps": ("reps", _pairs, RATIONAL),
    "lam-f": ("lam", _rational, RULED),
    "lam-b": ("lam_b", _rational, RULED),
    "genus": ("genus", _integer, RULED),
    "sizes": ("sizes", _rationals, None),
    "required": ("required", _required, None),
    "n": ("n", _integer, None),
    "mode": ("mode", str, None),
    "generators": ("generator_key", lambda word: word or None, None),
    "membership": ("membership_targets", lambda value: tuple(value.split()), None),
    "picard-prefix": ("picard_prefix", _integer, None),
    "witness-family": ("witness_family", lambda word: word or None, None),
    "expected-count": ("expected_final_count", _count, None),
    "permute-equal-sizes": ("permute_equal_sizes", _flag, None),
    "audit-curves": ("audit_curves", _flag, None),
    "classify-types": ("classify_types", _flag, None),
    "advisory": ("advisory", _flag, None),
}
# The keys a file of each model must name.
_NEEDED = {RATIONAL: ("lam", "base-sizes", "sizes"), RULED: ("lam-f", "lam-b", "sizes")}


def parse_scenario_text(text: str) -> Scenario:
    """Parse the line-oriented key/value scenario format: each key known, of
    the file's model and given once, and its value read on its line."""
    values: dict[str, object] = {}
    line_of: dict[str, int] = {}  # the line number of each key read
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key not in _KEYS:
            raise ScenarioError(f"line {number}: unknown key {key!r}")
        if key in line_of:
            raise ScenarioError(f"line {number}: a second {key!r} line")
        field, read, _ = _KEYS[key]
        try:
            values[field] = read(value.strip())
        except ValueError as exc:
            raise ScenarioError(f"line {number}: {key} {exc}") from None
        line_of[key] = number
    if "kind" not in line_of:
        raise ScenarioError("a scenario needs a 'kind' line")
    kind = values["kind"]
    for key, number in line_of.items():
        if _KEYS[key][2] not in (None, kind):
            raise ScenarioError(f"line {number}: a {kind} scenario has no key {key!r}")
    for key in _NEEDED[kind]:
        if key not in line_of:
            raise ScenarioError(f"a {kind} scenario needs a {key!r} line")
    n, required = values.get("n", Scenario.n), values.get("required", ())
    values["required"] = tuple((t, n if order is None else order) for t, order in required)
    return Scenario(**values)


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class RunOutcome:
    report: dict
    result: EnumerationResult
    passed: bool

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def _certificate_json(cert) -> dict:
    """The report's JSON object for one certificate.

    ``run_scenario`` builds one per distinct certificate and shares it among
    the graphs that carry it (``json.dumps`` writes it once per reference), so
    a report's certificate dicts must not be mutated.
    """
    return {
        "certified": str(cert.certified.cls),
        "certified_coeffs": list(cert.certified.cls.coeffs),
        "justification": cert.certified.justification,
        "stabilizer": cert.certified.label,
        "required": str(cert.required.cls),
        "required_coeffs": list(cert.required.cls.coeffs),
        "fixed_by": cert.required.fixed_by,
        "intersection": cert.intersection,
        "rule": cert.rule,
    }


def run_scenario(scenario: Scenario) -> RunOutcome:
    """Full pipeline: reducedness, enumeration, obstruction, cone checks.

    Every class of the run is on the model of the spec's final class vector.
    """
    spec = scenario.enumeration_spec()
    omega = spec.final_omega
    model = omega.model
    report: dict = {
        "scenario": scenario.name,
        "model": model.as_json(),
        "omega": str(omega),
        "sizes": [rat_str(s) for s in scenario.sizes],
        "mode": scenario.mode,
        "n": scenario.n,
        "advisory": scenario.advisory,
    }
    gates: dict[str, bool] = {}

    report["reduced"] = gates["reduced"] = is_reduced(omega)
    report["square"] = rat_str(volume(omega))
    gates["positive_square"] = volume(omega) > 0

    if scenario.kind == RATIONAL:
        cross_ok = True
        params = _base_family_params(*spec.bases[0].omega.entries, scenario.reps)
        try:
            cross_check_instantiation(spec.bases, params, spec.sizes)
        except EnumerationError as exc:  # loud failure: instantiation unsound
            cross_ok = False
            report["cross_check_error"] = str(exc)
        report["cross_check"] = gates["cross_check"] = cross_ok

    result = enumerate_graphs(spec)
    report["enumeration"] = {
        "levels": [
            {
                "depth": lv.depth,
                "size": rat_str(lv.size),
                "sites": lv.sites,
                "kept": lv.kept,
                "merged": lv.merged,
            }
            for lv in result.branch_log
        ],
        "final_count": len(result.graphs),
    }
    if scenario.expected_final_count is not None:
        gates["final_count"] = len(result.graphs) == scenario.expected_final_count

    obstruction = check_nonextension(
        result.graphs, scenario.required_classes(model), scenario.mode
    )
    # Graphs repeat few ledger steps and certificates, so each distinct one
    # gets one text or dict, shared.  A certificate is keyed on its interned
    # classes and scalars, not on its nested dataclasses, whose hash is costly.
    ledger_texts: dict = {}
    certificates: dict = {}
    graphs = []
    for v in obstruction.verdicts:
        cert = v.certificate
        if cert is not None:
            c, r = cert.certified, cert.required
            key = (
                c.cls, c.label, c.justification, r.cls, r.fixed_by, cert.intersection, cert.rule
            )
            shared = certificates.get(key)
            if shared is None:
                shared = certificates[key] = _certificate_json(cert)
            cert = shared
        ledger = _ledger_texts(v.graph, ledger_texts)
        graphs.append({"ledger": ledger, "verdict": v.verdict, "certificate": cert})
    report["graphs"] = graphs
    report["obstruction"] = {
        "all_obstructed": obstruction.all_obstructed,
        "vacuous": obstruction.vacuous,
    }
    # An empty enumeration obstructs every graph vacuously, so it certifies
    # nothing unless the scenario expects no graphs.
    vacuous = obstruction.vacuous and scenario.expected_final_count != 0
    if vacuous:
        gates["nonvacuous"] = False
    if scenario.advisory:
        report["obstruction"]["advisory_verdict"] = (
            "extension excluded"
            if obstruction.all_obstructed and not vacuous
            else "inconclusive"
        )
    else:
        gates["all_obstructed"] = obstruction.all_obstructed

    if scenario.classify_types:
        buckets = classify_sequence_types(result.graphs)
        report["types"] = {k: len(v) for k, v in buckets.items()}
        gates["types_total"] = not buckets["unclassified"]

    if scenario.witness_family:
        family = WITNESS_FAMILIES[scenario.witness_family]
        witnesses = last_blowup_classes(result.graphs, scenario.mode)
        report["witness_classes"] = sorted(str(c) for c in witnesses)
        gates["witness_family"] = all(family(c) for c in witnesses)

    gens = scenario.generator_list(model)
    if gens is not None:
        nakai = nakai_check(omega, gens)
        report["nakai"] = {
            "square": rat_str(nakai.square),
            "pairings": [
                {"class": str(c), "pairing": rat_str(p)} for c, p in nakai.pairings
            ],
            "passed": nakai.passed,
        }
        gates["nakai"] = nakai.passed
        audit = cone_mod.curve_list_audit(gens)
        report["curve_audit"] = {
            "minus_one": audit.count("minus_one"),
            "minus_two": audit.count("minus_two"),
            "flagged": [str(e.cls) for e in audit.flagged],
        }
        if scenario.audit_curves:
            gates["curve_audit"] = not audit.flagged
        if scenario.picard_prefix:
            ok = cone_mod.verify_picard_basis(
                list(gens.generators[: scenario.picard_prefix])
            )
            report["picard_basis"] = gates["picard_basis"] = ok
        if scenario.membership_targets:
            memberships = {}
            ok = True
            for name in scenario.membership_targets:
                target = model.parse(name)
                outcome = cone_membership(target, gens)
                if isinstance(outcome, cone_mod.ConeWitness):
                    memberships[name] = {
                        "member": True,
                        "witness": [rat_str(a) for a in outcome.coefficients],
                    }
                else:
                    ok = False
                    memberships[name] = {
                        "member": False,
                        "separating": [rat_str(a) for a in outcome.functional],
                    }
            report["membership"] = memberships
            gates["membership"] = ok

    report["gates"] = gates
    passed = all(gates.values())
    report["passed"] = passed
    return RunOutcome(report, result, passed)


# ---------------------------------------------------------------------------
# graph directories


def export_graphs(result: EnumerationResult, out_dir, as_dot: bool = False) -> list[str]:
    """Write one file per graph plus a manifest; deterministic names."""
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for i, g in enumerate(result.graphs):
        name = f"graph-{i:03d}." + ("dot" if as_dot else "txt")
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(render_dot(g) if as_dot else canonical_text(g))
        _drop_caches(g)  # writing indexed it; a held result keeps values only
        names.append(name)
    manifest = {
        "count": len(result.graphs),
        "files": names,
        "levels": [
            {"depth": lv.depth, "size": rat_str(lv.size), "kept": lv.kept}
            for lv in result.branch_log
        ],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return names


def read_graphs(directory, omega: CohomologyVector) -> list:
    """Parse the graph files that ``export_graphs`` wrote, in manifest order.

    Raises GraphError (or OSError) unless the manifest's integer ``count``
    is the number of its ``files``, which are distinct plain file names in
    ``directory`` (no path, so a manifest cannot point outside it), all of
    them present, parsed and valid graphs on ``omega``, the scenario's class
    vector (which names its model), each with one ledger entry per blowup
    size and with every chain from the minimum summing, label times class,
    to the stated fiber.  An empty replay would certify nothing, so it is an
    error too.

    The graphs are parsed onto ``omega``'s model object, so their classes
    are the run's, and onto ``omega`` itself, so one replay shares one table
    of parsed V and E records: each distinct line is parsed and checked once.
    """
    path = os.path.join(directory, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
            names, count = manifest["files"], manifest["count"]
        except UnicodeDecodeError as exc:  # its repr would hold the whole file
            raise GraphError(f"{path}: malformed manifest: {exc}") from None
        except (ValueError, KeyError, TypeError) as exc:
            raise GraphError(f"{path}: malformed manifest: {exc!r}") from None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise GraphError(f"{path}: malformed manifest: files is no list of names")
    if type(count) is not int:  # JSON's true is an int to isinstance
        raise GraphError(f"{path}: malformed manifest: count {count!r} is no integer")
    listed = set()
    for name in names:
        if name in ("", ".", "..") or "\0" in name or os.path.basename(name) != name:
            raise GraphError(f"{path}: malformed manifest: {name!r} is no file name")
        if name in listed:
            raise GraphError(f"{path}: malformed manifest: {name!r} is listed twice")
        listed.add(name)
    if count != len(names):
        raise GraphError(f"{path}: count {count!r} but {len(names)} files listed")
    if not names:
        raise GraphError(f"no .txt graph file listed in {path}")
    # A plane scenario starts from one base size, a ruled one from none.
    model = omega.model
    steps = model.k - (model.kind == RATIONAL)
    graphs = []
    for name in names:
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
                g = parse_graph(text, omega)
                if g.omega is not omega:  # another spelling or another model
                    written = next(
                        line.strip() for line in text.splitlines()
                        if line.strip().startswith("OMEGA ")
                    )
                    raise GraphError(
                        f"{written} on the {g.model} model is not the scenario's"
                        f" OMEGA {omega} on the {omega.model} model"
                    )
                if len(g.ledger) != steps:
                    raise GraphError(
                        f"ledger has {len(g.ledger)} entries, the scenario {steps} sizes"
                    )
                problems = validate(g)
                if problems:
                    raise GraphError(f"invalid graph: {problems[0]}")
                _check_fiber(g)
            except (UnicodeDecodeError, GraphError) as exc:
                raise GraphError(f"{path}: {exc}") from None
        graphs.append(g)
    return graphs
