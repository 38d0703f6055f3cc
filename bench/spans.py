"""In-memory spans recorded around calls into each dp4sieve layer, and the
per-layer metrics derived from them.

A span is {id, name, start, end, parent, run_id}; ``parent`` is the id of the
span that was open when it started.  Spans are kept in a list and written
once, as JSON lines, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name).  The attribute is looked up in the module
# that makes the call, so the span covers exactly the calls from that caller.
# A name a later version no longer has is skipped and its metrics read 0.
WRAPS = (
    ("dp4sieve.cli", "asymptotic_report", "harness.asymptotic_report"),
    ("dp4sieve.cli", "counting_function", "harness.counting_function"),
    ("dp4sieve.cli", "write_outputs", "harness.write_outputs"),
    ("dp4sieve.harness", "counting_function", "harness.counting_function"),
    ("dp4sieve.harness", "count_morphisms", "secenum.count_morphisms"),
    ("dp4sieve.harness", "choose_marking", "nslattice.choose_marking"),
    ("dp4sieve.harness", "enumerate_nef_points", "nslattice.enumerate_nef_points"),
    ("dp4sieve.harness", "nef_cone_volume_level1", "nslattice.nef_cone_volume_level1"),
    ("dp4sieve.harness", "tamagawa", "heightzeta.tamagawa"),
    ("dp4sieve.nslattice", "ShrunkenCone.contains", "nslattice.ShrunkenCone.contains"),
    ("ledger", "count_morphisms", "secenum.count_morphisms"),
    ("ledger", "choose_marking", "nslattice.choose_marking"),
    ("ledger", "enumerate_nef_points", "nslattice.enumerate_nef_points"),
    ("ledger", "prediction", "sieve.prediction"),
    ("ledger", "expected_section_count", "heightzeta.expected_section_count"),
    ("ledger", "limit_formula_check", "heightzeta.limit_formula_check"),
    ("ledger", "tamagawa", "heightzeta.tamagawa"),
    ("ledger", "write_ledger", "harness.write_outputs"),
)

ENTRY = "harness.main"
# spans whose own time (not covered by a child span) is harness work
HARNESS_SPANS = (ENTRY, "harness.asymptotic_report", "harness.counting_function")

# per-layer metric -> unit; trace.* come from the wall clocks of the runs
LAYER_UNITS = {
    "secenum.count_s": "s",
    "secenum.class_max_s": "s",
    "secenum.class_p50_ms": "ms",
    "secenum.calls": "count",
    "nslattice.cone_volume_s": "s",
    "nslattice.choose_marking_s": "s",
    "nslattice.nef_points_s": "s",
    "nslattice.shrunken_s": "s",
    "sieve.prediction_s": "s",
    "sieve.prediction_max_s": "s",
    "sieve.calls": "count",
    "heightzeta.tamagawa_s": "s",
    "heightzeta.expected_s": "s",
    "heightzeta.limit_check_s": "s",
    "harness.self_s": "s",
    "harness.emit_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._open[-1] if self._open else None,
               "run_id": self.run_id}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner, dotted: str, name: str) -> bool:
        """Replace owner.<dotted> by a traced wrapper; False if it is absent."""
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return False
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))
        return True

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_jsonl(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that its children cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            iv for iv in clipped if iv[1] > iv[0])
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics (all but trace.*) from one traced run's spans."""
    durs: dict = {}
    for s in spans:
        durs.setdefault(s["name"], []).append(s["end"] - s["start"])

    def total(name):
        return sum(durs.get(name, ()), 0.0)

    def longest(name):
        return max(durs.get(name, ()), default=0.0)

    own = self_times(spans)
    count_durs = durs.get("secenum.count_morphisms", ())
    return {
        "secenum.count_s": total("secenum.count_morphisms"),
        "secenum.class_max_s": longest("secenum.count_morphisms"),
        "secenum.class_p50_ms": 1000 * statistics.median(count_durs) if count_durs else 0.0,
        "secenum.calls": len(count_durs),
        "nslattice.cone_volume_s": total("nslattice.nef_cone_volume_level1"),
        "nslattice.choose_marking_s": total("nslattice.choose_marking"),
        "nslattice.nef_points_s": total("nslattice.enumerate_nef_points"),
        "nslattice.shrunken_s": total("nslattice.ShrunkenCone.contains"),
        "sieve.prediction_s": total("sieve.prediction"),
        "sieve.prediction_max_s": longest("sieve.prediction"),
        "sieve.calls": len(durs.get("sieve.prediction", ())),
        "heightzeta.tamagawa_s": total("heightzeta.tamagawa"),
        "heightzeta.expected_s": total("heightzeta.expected_section_count"),
        "heightzeta.limit_check_s": total("heightzeta.limit_formula_check"),
        "harness.self_s": sum(own[s["id"]] for s in spans if s["name"] in HARNESS_SPANS),
        "harness.emit_s": total("harness.write_outputs"),
    }
