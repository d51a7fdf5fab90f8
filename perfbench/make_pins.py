"""Write ``pins.json``: the answers of one pass of every workload.

The pins were taken once from the commit that introduced the benchmark and
must not be rewritten to make a later change pass.  Run from the root of a
checkout:

    python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import shutil
import sys

from pins import PINS
from run import WORK, import_program


def main() -> None:
    import_program()
    from workloads import WORKLOADS

    pins = {}
    workdir = WORK / "make-pins"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(0, workdir)
            workload.setup()
            pins[name] = workload.answers(workload.run_pass())
            print(f"{name}: pinned", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
