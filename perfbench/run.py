"""decgraph benchmark: time to verdict, set-up time and peak memory per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed.  Rounds of one set-up sample and one pass run back to back in this
one process, on one thread, for ``--seconds`` seconds, and every pass is
checked against ``pins.json``.

Times are speed-corrected: the machine's speed drifts by more than the
bounds, so a ``SpeedProbe`` times a small fixed piece of pure-Python work
every 0.1 s, and each timed interval is rescaled to the nominal speed
``REFERENCE_S`` of that work.  The raw wall medians go to stderr.

``--trace 0`` measures the end-to-end metrics with no wrapper installed:

* ``verdict_s``: median over the rounds of one pass's time, from the
  pipeline call to its verdict (checking the answers is not timed);
* ``setup_s``: median over the rounds of the set-up a user pays before the
  first verdict: building or parsing the scenario and, for ``replay``,
  enumerating and writing the graph files.  Each sample averages a fixed
  batch of set-ups.  Interpreter start and ``import decgraph`` are left out,
  because their spread from one start to the next is wider than the bound;
  the traced run reports the import, uncorrected, as ``setup.import_s``;
* ``peak_rss_mb``: the process high-water mark from ``getrusage``.

``--trace 1`` runs untraced rounds for half the time, then installs the
wrappers of ``spans.py``, runs at least two rounds of set-up and pass traced,
removes the wrappers, and runs one more pass under tracemalloc.  It reports
the per-layer metrics, and writes every span to ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every pass matched its pins, 1 when one did not, and 2 when the program
cannot be found or imported.  A pass that raises is a failed pass: the run
stops there, prints the traceback on stderr and the result line without the
metrics it could not measure, and exits 1.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from metrics import (
    END_TO_END,
    PASS_COUNTS,
    PASS_TIMES,
    PER_LAYER_UNITS,
    SETUP_TIMES,
    WORKLOAD_NAMES,
)
from pins import load_pins, mismatches

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> float:
    """Import decgraph from this checkout's ``src/``; return the import time."""
    if not (SRC / "decgraph" / "__init__.py").is_file():
        fail(f"no decgraph sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import decgraph

    elapsed = perf_counter() - start
    if Path(decgraph.__file__).resolve().parent != (SRC / "decgraph").resolve():
        fail(f"imported decgraph from {decgraph.__file__}, not from {SRC}")
    return elapsed


class Aborted(Exception):
    """A pass raised an exception; it was counted as attempted and failed."""


class Checker:
    """Counts passes and the ones whose answers differ from the pins."""

    def __init__(self, workload, pins: dict):
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.failed = 0

    def check(self, output) -> None:
        bad = mismatches(self.workload.answers(output), self.pins)
        self.attempted += 1
        if bad:
            self.failed += 1
            print(f"pass {self.attempted} differs from the pins:", file=sys.stderr)
            for line in bad[:10]:
                print(f"  {line}", file=sys.stderr)

    @contextlib.contextmanager
    def guard(self):
        """Count an exception in the block as a failed pass; raise ``Aborted``.

        ``SystemExit`` is caught too: ``cli.main`` raises it on bad arguments.
        """
        try:
            yield
        except (Exception, SystemExit) as exc:
            self.attempted += 1
            self.failed += 1
            print(f"pass {self.attempted} raised:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
            raise Aborted from exc


# Nominal seconds of one reference unit (``reference_unit``), about its mean
# while decgraph runs on the 2-vCPU machine the benchmark was defined on.
# Reported times are wall times rescaled to this speed.
REFERENCE_S = 0.001


def reference_unit():
    """Fixed pure-Python work, independent of decgraph, used to gauge machine speed.

    It uses what the program's inner loops use: exact fractions, small
    tuples, strings and a dict.
    """
    total = Fraction(0)
    seen = {}
    for i in range(1, 150):
        f = Fraction(i, i + 1)
        total += f * f
        seen[str(i)] = (i, f)
    return total, len(seen)


class SpeedProbe:
    """Samples machine speed while the benchmark runs.

    Every ``PERIOD`` seconds a SIGALRM handler times one reference unit.
    ``spent`` is the total time of the handler, to subtract from a timed
    interval.  ``scale(t0, t1)`` is ``REFERENCE_S`` over the mean time of the
    units sampled from ``WINDOW`` seconds before ``t0`` to ``WINDOW`` seconds
    after ``t1``, leaving out the slowest and the fastest tenth of them so
    that one disturbed sample cannot move the figure: multiplying the
    interval's time by it rescales the time to the nominal speed.
    """

    PERIOD = 0.1
    WINDOW = 0.5

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        # The collector is off while the unit runs, so that collections whose
        # cost depends on the program's heap never land in a reference sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_unit()
            took = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.at.append(start)
        self.took.append(took)
        self.spent += took

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW)
        window = sorted(self.took[lo:hi] or self.took)
        cut = len(window) // 10
        kept = window[cut:len(window) - cut]
        return REFERENCE_S * len(kept) / sum(kept)


@dataclass(frozen=True)
class Round:
    setup_s: float  # one set-up, wall time without the probe's handler
    pass_s: float
    setup_scale: float
    pass_scale: float


def timed_rounds(workload, checker, seconds, min_rounds=1, before=None) -> list[Round]:
    """Run rounds of set-up sample and checked pass until ``seconds`` are up.

    A round times one set-up sample (a batch of ``setup_batch`` set-ups,
    averaged) and then one pass, so both are sampled across the whole run.
    ``before(label)`` is called as each phase of a round begins.  A round that
    raises ends the run with ``Aborted``.
    """
    intervals = []
    deadline = perf_counter() + seconds
    with SpeedProbe() as probe:
        while len(intervals) < min_rounds or perf_counter() < deadline:
            with checker.guard():
                if before:
                    before("setup")
                spent, t0 = probe.spent, perf_counter()
                for _ in range(workload.setup_batch):
                    workload.setup()
                t1 = perf_counter()
                setup = (t0, t1, (t1 - t0 - (probe.spent - spent)) / workload.setup_batch)
                gc.collect()
                if before:
                    before("pass")
                spent, t0 = probe.spent, perf_counter()
                output = workload.run_pass()
                t1 = perf_counter()
                intervals.append((setup, (t0, t1, t1 - t0 - (probe.spent - spent))))
                if before:
                    before("check")
                checker.check(output)
                del output
    return [
        Round(s[2], p[2], probe.scale(s[0], s[1]), probe.scale(p[0], p[1]))
        for s, p in intervals
    ]


def scaled_median(values, scales) -> float:
    return statistics.median(v * k for v, k in zip(values, scales))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_metrics(workload, checker, seconds) -> dict:
    rounds = timed_rounds(workload, checker, seconds)
    passes = [r.pass_s for r in rounds]
    setups = [r.setup_s for r in rounds]
    print(
        f"{len(rounds)} rounds; wall medians: pass {statistics.median(passes)} s,"
        f" set-up {statistics.median(setups)} s;"
        f" median speed scale {statistics.median(r.pass_scale for r in rounds)}",
        file=sys.stderr,
    )
    return {
        "verdict_s": scaled_median(passes, [r.pass_scale for r in rounds]),
        "setup_s": scaled_median(setups, [r.setup_scale for r in rounds]),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_metrics(workload, checker, seconds, import_s, trace_path) -> dict:
    from spans import Tracer, enumeration_peak_mb, leftover_wrappers

    untraced = timed_rounds(workload, checker, seconds / 2)

    tracer = Tracer()
    segments: dict[str, list[int]] = {"setup": [], "pass": [], "check": []}

    def begin(label):
        tracer.begin_segment(label)
        segments[label].append(len(tracer.segments) - 1)

    tracer.install()
    try:
        traced = timed_rounds(workload, checker, seconds / 2, 2, begin)
    finally:
        tracer.restore()
    left = leftover_wrappers()
    if left:
        checker.failed += 1
        print(f"wrappers left installed: {', '.join(left)}", file=sys.stderr)
    if tracer.missing:
        print(f"hooks with no function: {', '.join(tracer.missing)}", file=sys.stderr)

    gc.collect()
    with checker.guard():
        peak_alloc_mb, output = enumeration_peak_mb(workload.run_pass)
        checker.check(output)
    del output

    passes = [tracer.stats[i] for i in segments["pass"]]
    setups = [tracer.stats[i] for i in segments["setup"]]
    pass_scales = [r.pass_scale for r in traced]
    metrics = {
        name: scaled_median([sum(s[k] for k in keys) for s in passes], pass_scales)
        for name, keys in PASS_TIMES.items()
    }
    for name, key in PASS_COUNTS.items():
        values = [s[key] for s in passes]
        if len(set(values)) > 1:
            print(f"{name} differs between traced passes: {values}", file=sys.stderr)
        metrics[name] = int(values[0])
    for name, key in SETUP_TIMES.items():
        metrics[name] = scaled_median(
            [s[key] / workload.setup_batch for s in setups], [r.setup_scale for r in traced]
        )
    children = metrics["enumeration.children"]
    metrics["enumeration.kept_ratio"] = metrics["enumeration.kept"] / children if children else 0.0
    metrics["enumeration.peak_alloc_mb"] = peak_alloc_mb
    metrics["trace.overhead_ratio"] = scaled_median(
        [r.pass_s for r in traced], pass_scales
    ) / scaled_median([r.pass_s for r in untraced], [r.pass_scale for r in untraced])
    metrics["setup.import_s"] = import_s
    print(
        f"{len(untraced)} untraced and {len(traced)} traced rounds,"
        f" {len(tracer.start)} spans written to {trace_path}",
        file=sys.stderr,
    )
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, {"workload": workload.name})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    from workloads import WORKLOADS

    pins = load_pins()[args.workload]
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker(workload, pins)
        units = PER_LAYER_UNITS if args.trace else END_TO_END
        try:
            if args.trace:
                trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
                values = traced_metrics(workload, checker, args.seconds, import_s, trace_path)
            else:
                values = untraced_metrics(workload, checker, args.seconds)
        except Aborted:
            values = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
