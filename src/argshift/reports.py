"""Canonical JSON reports and content digests.

Reports must be byte-identical across seeded reruns, so wall-clock fields
and engine counters (anything named in VOLATILE_KEYS) are stripped before
canonicalization and digesting; they stay in the emitted files for humans
but never influence a digest comparison, so an engine change that does more
or less work leaves every digest and golden file as it was.
"""

from __future__ import annotations

import hashlib
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


def report_digest(obj) -> str:
    """Content hash of the canonical (volatile-free) JSON form."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def dump_report(obj, path: str | None = None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
