"""The pinned answers in ``pins.json`` and their comparison with a pass's answers."""

from __future__ import annotations

import json
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(answers, pins, path: str = "") -> list[str]:
    """Paths at which ``answers`` differ from ``pins``; empty when they agree."""
    if isinstance(answers, dict) and isinstance(pins, dict):
        out = []
        for key in sorted(set(answers) | set(pins)):
            sub = f"{path}/{key}"
            if key not in answers or key not in pins:
                out.append(f"{sub}: missing on one side")
            else:
                out += mismatches(answers[key], pins[key], sub)
        return out
    return [] if answers == pins else [f"{path or '/'}: {answers!r} != {pins!r}"]
