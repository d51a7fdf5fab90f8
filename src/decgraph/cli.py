"""Command-line surface: enumeration, verification, positivity, and export."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .blowup import BlowupError
from .cone import ConeWitness, cone_membership, nakai_check
from .enumeration import enumerate_graphs, enumerate_levels
from .graphs import GraphError
from .lattice import (
    LatticeError,
    SurfaceModel,
    classify_negative,
    enumerate_negative_classes,
    rat_str,
)
from .obstruct import check_nonextension
from .scenarios import (
    Scenario,
    ScenarioError,
    _write_text,
    builtin_scenarios,
    export_graphs,
    load_scenario,
    read_graphs,
    run_scenario,
)


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "permute_equal_sizes", None):
        overrides["permute_equal_sizes"] = args.permute_equal_sizes == "on"
    if overrides:
        from dataclasses import replace

        scenario = replace(scenario, **overrides)
    return scenario


def _write_report(report: dict, out_dir: str | None) -> str:
    """The report's text, also written to ``out_dir``/report.json if given."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "report.json"), text)
    return text


def cmd_enumerate(args) -> int:
    scenario = _load(args)
    result = enumerate_graphs(scenario.enumeration_spec())
    for lv in result.branch_log:
        print(
            f"depth {lv.depth} size {rat_str(lv.size)}:"
            f" {lv.sites} sites, {lv.kept} graphs kept, {lv.merged} merged"
        )
    print(f"final: {len(result.graphs)} graphs")
    if args.out:
        export_graphs(result, args.out)
        print(f"wrote {len(result.graphs)} graphs to {args.out}")
    return 0


def cmd_verify(args) -> int:
    scenario = _load(args)
    if args.graphs:
        omega = scenario.enumeration_spec().final_omega
        try:
            graphs = read_graphs(args.graphs, omega)
        except (OSError, GraphError) as exc:
            print(f"graph error: {exc}", file=sys.stderr)
            return 2
        required = scenario.required_classes(omega.model)
        obstruction = check_nonextension(graphs, required, scenario.mode)
        report = {
            "scenario": scenario.name,
            "source": args.graphs,
            "graphs": [
                {"verdict": v.verdict} for v in obstruction.verdicts
            ],
            "all_obstructed": obstruction.all_obstructed,
        }
        sys.stdout.write(_write_report(report, args.out))
        return 0 if obstruction.all_obstructed or scenario.advisory else 1
    outcome = run_scenario(scenario)
    sys.stdout.write(_write_report(outcome.report, args.out))
    if args.out:
        export_graphs(outcome.result, os.path.join(args.out, "graphs"))
    return outcome.exit_code


def cmd_nakai(args) -> int:
    scenario = _load(args)
    omega = scenario.enumeration_spec().final_omega
    gens = scenario.generator_list(omega.model)
    if gens is None:
        print("scenario names no generator list", file=sys.stderr)
        return 2
    report = nakai_check(omega, gens)
    print(f"square {rat_str(report.square)}")
    for cls, p in report.pairings:
        print(f"  <omega, {cls}> = {rat_str(p)}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_cone(args) -> int:
    scenario = _load(args)
    gens = scenario.generator_list(scenario.enumeration_spec().final_omega.model)
    if gens is None:
        print("scenario names no generator list", file=sys.stderr)
        return 2
    targets = list(scenario.membership_targets) + args.classes
    if not targets:
        print("no membership targets", file=sys.stderr)
        return 2
    try:
        classes = [gens.model.parse(name) for name in targets]
    except LatticeError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    ok = True
    for name, cls in zip(targets, classes):
        outcome = cone_membership(cls, gens)
        if isinstance(outcome, ConeWitness):
            combo = " + ".join(
                f"{rat_str(a)}*({g})"
                for a, g in zip(outcome.coefficients, gens.generators)
                if a != 0
            )
            print(f"{name}: member = {combo}")
        else:
            ok = False
            print(f"{name}: not a member; separating functional"
                  f" ({', '.join(rat_str(a) for a in outcome.functional)})")
    return 0 if ok else 1


def cmd_negcurves(args) -> int:
    try:
        model = SurfaceModel(args.kind, args.k, args.genus if args.kind == "ruled" else 0)
        classes = enumerate_negative_classes(model, args.bound)
    except LatticeError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    for cls in classes:
        print(f"{cls}  [{classify_negative(cls)}]")
    return 0


def cmd_export(args) -> int:
    scenario = _load(args)
    spec = scenario.enumeration_spec()
    os.makedirs(args.out, exist_ok=True)
    for depth, result in enumerate(enumerate_levels(spec)):
        export_graphs(result, os.path.join(args.out, f"depth-{depth}"), as_dot=True)
    print(f"wrote DOT levels 0..{len(spec.sizes)} under {args.out}")
    return 0


def cmd_verify_paper(args) -> int:
    failures = []
    for name, scenario in builtin_scenarios().items():
        outcome = run_scenario(scenario)
        status = "PASS" if outcome.passed else "FAIL"
        extra = ""
        if scenario.advisory:
            extra = f" (advisory: {outcome.report['obstruction']['advisory_verdict']})"
        print(f"{name}: {status}{extra}")
        if not outcome.passed:
            failures.append(name)
        if args.out:
            _write_report(outcome.report, os.path.join(args.out, name))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decgraph",
        description="Enumerate circle-action decorated graphs on symplectic"
        " blowups and certify non-extension of cyclic actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *extra):
        """``--scenario``, plus those of mode, permute and out in ``extra``."""
        p.add_argument("--scenario", required=True,
                       help="builtin name or scenario file path")
        if "mode" in extra:
            p.add_argument("--mode", choices=["stabilizer", "integrable"])
        if "permute" in extra:
            p.add_argument("--permute-equal-sizes", choices=["on", "off"])
        if "out" in extra:
            p.add_argument("--out", help="output directory")

    p = sub.add_parser("enumerate", help="run the blowup enumeration")
    common(p, "permute", "out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="full pipeline; exit 0 iff every gate passes")
    common(p, "mode", "out")
    # A replay reads the saved graphs as they are; no dedup policy applies.
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graphs", help="re-verify saved graphs instead of enumerating")
    source.add_argument("--permute-equal-sizes", choices=["on", "off"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nakai", help="positivity report for the scenario's curve list")
    common(p)
    p.set_defaults(func=cmd_nakai)

    p = sub.add_parser("cone", help="effective-cone membership certificates")
    common(p)
    p.add_argument("classes", nargs="*", help="extra classes to test")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("negcurves", help="bounded search for negative classes")
    p.add_argument("--kind", choices=["rational", "ruled"], default="rational")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--bound", type=int, default=1)
    p.set_defaults(func=cmd_negcurves)

    p = sub.add_parser("export", help="DOT files for every enumeration level")
    common(p, "permute")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify-paper", help="run all builtin scenarios")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_verify_paper)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except BlowupError as exc:
        # A rewrite that fails its own validation: the scenario reaches a
        # graph shape the blowup rules do not cover, not a verdict.
        print(f"blowup error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Reads report their own errors, so this is a write: an --out path.
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
