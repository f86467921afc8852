"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of argshift that the benchmark's
workloads reach, so that every call records a span: its name, start, end,
parent span and the phase (one set-up or one pass) it ran in.  Spans stay in
memory, in flat arrays, and are written out once when the run ends.

A layer's self time is a span's duration minus the time its direct children
cover; the calls are single-threaded and properly nested, so the children of
a span never overlap.

Wrapping happens by replacing module attributes (and two methods of Poly), so
the program itself is unchanged and the untraced run executes none of this.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name); a dotted attribute names a method
SPAN_TARGETS = [
    ("liealg", "build_classical", "liealg.build"),
    ("liealg", "index_of", "liealg.index"),
    ("liealg", "principal_sl2", "liealg.principal"),
    ("liealg", "draw_regular_dual_point", "liealg.regular_point"),
    ("invariants", "invariant_generators", "invariants.generators"),
    ("groebner", "regular_sequence_verdict", "groebner.verdict"),
    ("groebner", "buchberger", "groebner.basis"),
    ("groebner", "ideal_dimension", "groebner.dimension"),
    ("poisson", "commutativity_report", "poisson.commute"),
    ("shift", "mf_generators", "shift.family"),
    ("bicone", "bicone_dimension_check", "bicone.full"),
    ("bicone", "bicone_fiber_check", "bicone.fiber"),
    ("bicone", "smoothness_crosscheck", "bicone.smoothness"),
    ("centralizer_lab", "conjecture_check", "centralizer_lab.conjecture"),
    ("exactpoly", "Poly.__mul__", "exactpoly.mul"),
    ("exactpoly", "Poly.substitute", "exactpoly.substitute"),
    ("linalg", "rank", "linalg.rank"),
    ("reports", "canonical_json", "reports.json"),
]

MODULES = [
    "exactpoly", "linalg", "liealg", "invariants", "shift", "poisson",
    "groebner", "bicone", "centralizer_lab", "reports",
]


def _basis_counts(gb) -> dict:
    bits = 0
    terms = 0
    for p in gb.basis:
        terms += len(p.terms)
        for c in p.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"groebner.basis_size": len(gb.basis), "groebner.basis_terms": terms,
            "groebner.coeff_bits_max": bits}


# counters read off a traced call's result; summed, except *_max which keeps the maximum
COUNTERS = {
    "liealg.regular_point": lambda r: {"liealg.regular_point_attempts": r[1]},
    "groebner.basis": _basis_counts,
    "poisson.commute": lambda r: {"poisson.pairs": r.pair_count},
    "shift.family": lambda r: {"shift.family_terms": sum(len(p.terms) for _, _, p in r.entries)},
    "bicone.smoothness": lambda r: {"bicone.samples": r.sample_count},
}


# per-layer metrics: a *_s name is the self time of the span of that name
LAYER_METRICS = [
    ("liealg.build_s", "s"),
    ("liealg.index_s", "s"),
    ("liealg.principal_s", "s"),
    ("liealg.regular_point_s", "s"),
    ("liealg.regular_point_attempts", "count"),
    ("invariants.generators_s", "s"),
    ("groebner.verdict_s", "s"),
    ("groebner.basis_s", "s"),
    ("groebner.dimension_s", "s"),
    ("groebner.basis_size", "count"),
    ("groebner.basis_terms", "count"),
    ("groebner.coeff_bits_max", "bits"),
    ("poisson.commute_s", "s"),
    ("poisson.pairs", "count"),
    ("shift.family_s", "s"),
    ("shift.family_terms", "count"),
    ("bicone.full_s", "s"),
    ("bicone.fiber_s", "s"),
    ("bicone.smoothness_s", "s"),
    ("bicone.samples", "count"),
    ("centralizer_lab.conjecture_s", "s"),
    ("exactpoly.mul_s", "s"),
    ("exactpoly.substitute_s", "s"),
    ("linalg.rank_s", "s"),
    ("reports.json_s", "s"),
]


class Tracer:
    """In-memory span recorder with per-phase counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.phase_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.phase = -1
        self.phases: list[tuple[str, float, float]] = []  # (kind, start, end)
        self.counts: list[dict[str, int]] = []  # one dict per phase

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def phase_scope(self, kind: str):
        """Attribute the spans and counts recorded inside to one phase."""
        self.phase = len(self.phases)
        self.counts.append({})
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases.append((kind, t0, time.perf_counter()))
            self.phase = -1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        stack, perf = self._stack, time.perf_counter
        name_of, parent, phase_of, start, end = (
            self.name_of, self.parent, self.phase_of, self.start, self.end)

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            phase_of.append(self.phase)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if counter is not None and self.phase >= 0:
                self._count(counter(result))
            return result

        return traced

    def _count(self, values: dict) -> None:
        bucket = self.counts[self.phase]
        for key, v in values.items():
            if key.endswith("_max"):
                bucket[key] = max(bucket.get(key, 0), v)
            else:
                bucket[key] = bucket.get(key, 0) + v

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        mods = [importlib.import_module(f"argshift.{m}") for m in MODULES]
        restore = []
        for mod_name, attr, span in SPAN_TARGETS:
            owner = importlib.import_module(f"argshift.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self.wrap(span, orig)
                # a reflected alias such as __rmul__ = __mul__ is the same function
                for key, val in list(cls.__dict__.items()):
                    if val is orig:
                        restore.append((cls, key, val))
                        setattr(cls, key, wrapper)
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(span, orig)
            # functions imported by name into other modules are rebound too
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        restore.append((mod, key, val))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, val in reversed(restore):
                setattr(owner, key, val)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the direct children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= own[idx]
        return out

    def layer_totals(self) -> tuple[dict, dict]:
        """Self time per span name and counts, each per set-up plus per pass.

        Totals over the set-up phases are divided by the number of set-ups and
        totals over the passes by the number of passes, so a value is what one
        set-up plus one pass spend in that layer.
        """
        kinds = [k for k, _, _ in self.phases]
        n_kind = {k: kinds.count(k) for k in set(kinds)}
        times = {name: 0.0 for name in self.names}
        for idx, st in enumerate(self.self_times()):
            ph = self.phase_of[idx]
            if ph >= 0:
                times[self.names[self.name_of[idx]]] += st / n_kind[kinds[ph]]
        counts: dict[str, float] = {}
        for ph, bucket in enumerate(self.counts):
            for key, v in bucket.items():
                if key.endswith("_max"):
                    counts[key] = max(counts.get(key, 0), v)
                else:
                    counts[key] = counts.get(key, 0) + v / n_kind[kinds[ph]]
        return times, counts

    def per_layer_metrics(self) -> dict:
        """Every entry of LAYER_METRICS; a layer the workload never reaches reads 0."""
        times, counts = self.layer_totals()
        out = {}
        for name, unit in LAYER_METRICS:
            if name.endswith("_s"):
                value = times.get(name[:-2], 0.0)
            else:
                value = counts.get(name, 0)
                value = int(value) if float(value).is_integer() else value
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: phases first, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for ph, (kind, t0, t1) in enumerate(self.phases):
                fh.write(json.dumps({"phase": ph, "kind": kind, "start": t0, "end": t1,
                                     "counts": self.counts[ph]}) + "\n")
            names = self.names
            for idx in range(len(self.start)):
                fh.write(
                    f'{{"id":{idx},"name":"{names[self.name_of[idx]]}",'
                    f'"parent":{self.parent[idx]},"phase":{self.phase_of[idx]},'
                    f'"start":{self.start[idx]!r},"end":{self.end[idx]!r}}}\n'
                )
