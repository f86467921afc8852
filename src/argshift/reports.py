"""Canonical JSON reports.

Reports must be byte-identical across seeded reruns, so wall-clock fields
and engine counters (anything named in VOLATILE_KEYS) are stripped before
canonicalization; they stay in the emitted files for humans but never reach
the canonical text, so an engine change that does more or less work leaves
every canonical report and golden file as it was.
"""

from __future__ import annotations

import json

VOLATILE_KEYS = frozenset({"gb_seconds", "stats"})


def fractions_json(values) -> list[str]:
    """Exact rationals as "n/d" strings, the denominator always written."""
    return [f"{c.numerator}/{c.denominator}" for c in values]


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in sorted(obj.items()) if k not in VOLATILE_KEYS}
    if isinstance(obj, (list, tuple)):
        return [strip_volatile(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(strip_volatile(obj), sort_keys=True, separators=(",", ":"))


def dump_report(obj, path: str | None = None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
