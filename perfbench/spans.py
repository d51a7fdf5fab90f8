"""Span tracing from outside the program, for the benchmark's traced run.

A hook names one public function of decgraph and the span name it records
under.  Installing a hook replaces the function at every module attribute
that holds it, which is the name each caller looks up, so calls between
modules and within one module are both seen.  Wrappers exist only between
``install`` and ``restore``; untraced passes never run through them.

Each call records a span (name, start, end, parent span) in flat arrays and
updates per-segment counters: calls, total time of the outermost call of
that name, and self time (duration minus the time covered by child spans).
A segment is one phase of the run, such as set-up or one pass.
"""

from __future__ import annotations

import gzip
import json
import sys
import tracemalloc
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def level_key(args):
    """("level", d) for a call whose graph argument carries d blowups.

    The argument is the first positional one, or the first graph of a list
    of graphs (as for dedup).
    """
    arg = args[0] if args else None
    if isinstance(arg, (list, tuple)):
        arg = arg[0] if arg else None
    ledger = getattr(arg, "ledger", None)
    return None if ledger is None else ("level", len(ledger))


def scenario_key(args):
    return ("scenario", args[0].name)


def count_levels(result, stats) -> None:
    for lv in result.branch_log:
        stats[("count", "enumeration.children")] += lv.sites
        stats[("count", "enumeration.kept")] += lv.kept
        stats[("count", "enumeration.merged")] += lv.merged


def count_verdicts(report, stats) -> None:
    stats[("count", "obstruct.graphs")] += len(report.verdicts)
    stats[("count", "obstruct.obstructed")] += sum(
        v.verdict == "obstructed" for v in report.verdicts
    )


def count_certified(classes, stats) -> None:
    stats[("count", "obstruct.certified")] += len(classes)


@dataclass(frozen=True)
class Hook:
    span: str
    module: str  # submodule of decgraph that defines the function
    attr: str
    key: Callable | None = None  # args -> stats key for time grouped by argument
    under: str | None = None  # group only calls whose parent span has this name
    post: Callable | None = None  # (result, stats) -> None, for counts


HOOKS = (
    Hook("scenarios.load", "scenarios", "load_scenario"),
    Hook("scenarios.load", "scenarios", "builtin_scenarios"),
    Hook("scenarios.run", "scenarios", "run_scenario", key=scenario_key),
    Hook("cli.main", "cli", "main"),
    Hook("enumeration.total", "enumeration", "enumerate_graphs", post=count_levels),
    Hook("enumeration.dedup", "enumeration", "_dedup",
         key=level_key, under="enumeration.total"),
    Hook("enumeration.dedup_key", "enumeration", "dedup_key"),
    Hook("enumeration.cross_check", "enumeration", "cross_check_instantiation"),
    Hook("blowup.sites", "blowup", "blowup_sites", key=level_key, under="enumeration.total"),
    Hook("blowup.apply", "blowup", "apply_blowup", key=level_key, under="enumeration.total"),
    Hook("blowup.validate", "graphs", "validate"),
    Hook("graphs.generic_form", "graphs", "generic_form",
         key=level_key, under="enumeration.total"),
    Hook("graphs.normal_form", "graphs", "normal_form"),
    Hook("graphs.canonical_text", "graphs", "canonical_text"),
    Hook("graphs.permute", "graphs", "permute_exceptionals"),
    Hook("graphs.parse", "graphs", "parse_graph"),
    Hook("graphs.export", "scenarios", "export_graphs"),
    Hook("lattice.pair", "lattice", "pair"),
    Hook("lattice.intersect", "lattice", "intersect"),
    Hook("obstruct.total", "obstruct", "check_nonextension", post=count_verdicts),
    Hook("obstruct.certify", "obstruct", "certified_classes", post=count_certified),
    Hook("obstruct.search", "obstruct", "find_certificate"),
    Hook("cone.nakai", "cone", "nakai_check"),
    Hook("cone.audit", "cone", "curve_list_audit"),
    Hook("cone.picard", "cone", "verify_picard_basis"),
    Hook("cone.membership", "cone", "cone_membership"),
)

PACKAGE = "decgraph"
MARK = "__perfbench_span__"


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def patch(original, wrapper) -> list[tuple]:
    """Replace ``original`` by ``wrapper`` at every attribute of the package."""
    patched = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    return patched


def unpatch(patched: list[tuple]) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


def leftover_wrappers() -> list[str]:
    """Attributes of the package that still hold a benchmark wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in list(vars(module).items())
        if hasattr(value, MARK)
    ]


class Tracer:
    """Records spans and per-segment counters while its hooks are installed."""

    def __init__(self):
        self.missing: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.segments: list[str] = []
        self.stats: list[defaultdict] = []
        self.parent = array("l")
        self.name = array("H")
        self.segment = array("H")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span id, span name, child time]
        self._active: defaultdict = defaultdict(int)
        self._patched: list[tuple] = []
        self.begin_segment("init")

    def begin_segment(self, label: str) -> None:
        self.segments.append(label)
        self.stats.append(defaultdict(float))

    def install(self) -> None:
        for hook in HOOKS:
            home = sys.modules.get(f"{PACKAGE}.{hook.module}")
            original = getattr(home, hook.attr, None)
            if not callable(original):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            self._patched += patch(original, self._wrap(hook, original))

    def restore(self) -> None:
        unpatch(self._patched)
        self._patched = []

    def _wrap(self, hook: Hook, fn):
        tracer = self
        span = hook.span
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = len(tracer.start)
            tracer.parent.append(parent[0] if parent else -1)
            tracer.name.append(name_id)
            tracer.segment.append(len(tracer.segments) - 1)
            tracer.end.append(0.0)
            frame = [sid, span, 0.0]
            stack.append(frame)
            tracer._active[span] += 1
            start = perf_counter()
            tracer.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.end[sid] = end
                duration = end - start
                stats = tracer.stats[-1]
                stats[(span, "calls")] += 1
                stats[(span, "self")] += duration - frame[2]
                tracer._active[span] -= 1
                if not tracer._active[span]:
                    stats[(span, "total")] += duration
                if parent is not None:
                    parent[2] += duration
                if hook.key and (hook.under is None or (parent and parent[1] == hook.under)):
                    key = hook.key(args)
                    if key is not None:
                        stats[key] += duration
            if hook.post:
                hook.post(result, tracer.stats[-1])
            return result

        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, span)
        return wrapper

    def write(self, path, meta: dict) -> None:
        """Write every span, columnar and gzip-compressed, with ``meta``."""
        t0 = self.start[0] if self.start else 0.0
        doc = dict(meta)
        doc.update(
            names=self.names,
            segments=self.segments,
            missing_hooks=self.missing,
            spans={
                "parent": self.parent.tolist(),
                "name": self.name.tolist(),
                "segment": self.segment.tolist(),
                "start_s": [t - t0 for t in self.start],
                "end_s": [t - t0 for t in self.end],
            },
        )
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def enumeration_peak_mb(run_pass):
    """Run one pass under tracemalloc; return (peak MB, the pass's output).

    The peak is the largest rise of traced memory above its level at entry,
    over the ``enumerate_graphs`` calls of the pass (0 when there are none).
    """
    home = sys.modules[f"{PACKAGE}.enumeration"]
    original = getattr(home, "enumerate_graphs", None)
    if original is None:
        return 0.0, run_pass()
    peaks = []

    def wrapper(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    setattr(wrapper, MARK, "enumeration.peak")
    patched = patch(original, wrapper)
    tracemalloc.start()
    try:
        output = run_pass()
    finally:
        tracemalloc.stop()
        unpatch(patched)
    return max(peaks, default=0) / 2**20, output
