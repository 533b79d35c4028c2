"""Spans and counters around the public entry points of each module.

The package is not edited: install() replaces module and class attributes
with timing wrappers for the length of a traced pass, and the returned
undo function puts the originals back.  Spans are [name, start, end,
parent index, request id] lists kept in memory; self time is a span's
duration minus the durations of its direct children (the program is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) runs outside the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def wrap_generator(self, name: str, fn, on_item):
        """A span per resumption, so consumer time between items is excluded."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                on_item(item)
                yield item
        return wrapper

    def count(self, name: str, fn):
        """fn counted per call, without a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def totals(self) -> dict:
        """{name: (calls, inclusive seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         own + end - start - child[i])
        return out

    def precision_escalations(self) -> int:
        """intervals.log calls directly under each hyperbolic_dilatation,
        minus the one a certificate needs without escalation."""
        logs = Counter(parent for name, _, _, parent, _ in self.spans
                       if name == "intervals.log" and parent >= 0)
        return sum(max(logs[i] - 1, 0) for i, span in enumerate(self.spans)
                   if span[0] == "rep.hyperbolic_dilatation")

    def write(self, path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": names,
                       "fields": ["name", "start_s", "end_s", "parent",
                                  "request"]}, fh)
            fh.write("\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"[{code[name]},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{request}]\n")


def install(tracer: Tracer):
    """Wrap every layer's entry points; returns the undo function."""
    from multitwist import (bounds, families, intervals, johnson, quadratic,
                            rep, search, verify, words)

    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def span(owner, attr, name, after=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    span(search, "orbit_representative", "search.orbit_representative")

    def kept(_item):
        tracer.counts["search.classes_kept"] += 1

    patch(search, "enumerate_classes", tracer.wrap_generator(
        "search.enumerate_classes", search.enumerate_classes, kept))
    patch(words.Word, "__post_init__", tracer.count(
        "words.Word.constructed", words.Word.__post_init__))
    span(words, "nested_commutator", "words.nested_commutator")

    span(rep, "evaluate", "rep.evaluate", lambda args, _r: tracer.counts.update(
        {"rep.evaluate.letters": len(args[0])}))

    def classified(_args, result):
        tracer.counts["rep.hyperbolic"] += result == rep.HYPERBOLIC

    span(rep, "classify", "rep.classify", classified)
    span(rep, "hyperbolic_dilatation", "rep.hyperbolic_dilatation")
    span(quadratic.QuadReal, "to_interval", "quadratic.to_interval")
    for fn in ("sqrt_fraction", "sqrt", "log", "cbrt"):
        span(intervals, fn, f"intervals.{fn}")

    def pf_done(_args, result):
        tracer.counts["families.pf_iterations"] += result.iterations

    span(families, "pf_eigenvalue", "families.pf_eigenvalue", pf_done)
    for fn in ("surgery_lower", "punctured_surgery_lower", "torelli_cubic_root",
               "torelli_lower", "congruence_lower", "brunnian_lower",
               "filling_intersection_lower", "tau_cc_upper",
               "tau_cc_infs_upper", "hk_upper", "m_of_k"):
        span(bounds, fn, "bounds")

    span(johnson, "tau_bounding_pair", "johnson.tau_bounding_pair")
    span(johnson.Wedge3Coset, "reduce", "johnson.coset_reduce")
    patch(johnson._EchelonLattice, "__init__", tracer.count(
        "johnson.lattice_builds", johnson._EchelonLattice.__init__))

    span(verify, "brute_force_min_abs_trace", "verify.oracle")
    # run_all reads the check functions from the CHECKS list, not the module
    checks = list(verify.CHECKS)
    step = {"minimality": "verify.minimality",
            "property-suite": "verify.property_suite"}
    verify.CHECKS[:] = [(key, text, tracer.wrap(step[key], fn) if key in step
                         else fn) for key, text, fn in checks]

    def restore():
        verify.CHECKS[:] = checks
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float) -> dict:
    """Every per-layer metric, per traced pass (ratios are unscaled)."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    per_pass = {
        "search.orbit_representative.calls": calls("search.orbit_representative"),
        "search.orbit_representative.self_s": self_s("search.orbit_representative"),
        "search.enumerate_classes.self_s": self_s("search.enumerate_classes"),
        "search.classes_kept": counts["search.classes_kept"],
        "words.Word.constructed": counts["words.Word.constructed"],
        "words.nested_commutator.self_s": self_s("words.nested_commutator"),
        "rep.evaluate.calls": calls("rep.evaluate"),
        "rep.evaluate.self_s": self_s("rep.evaluate"),
        "rep.evaluate.letters": counts["rep.evaluate.letters"],
        "rep.classify.calls": calls("rep.classify"),
        "rep.classify.self_s": self_s("rep.classify"),
        "rep.hyperbolic_dilatation.calls": calls("rep.hyperbolic_dilatation"),
        "rep.hyperbolic_dilatation.self_s": self_s("rep.hyperbolic_dilatation"),
        "rep.precision_escalations": tracer.precision_escalations(),
        "quadratic.to_interval.calls": calls("quadratic.to_interval"),
        "quadratic.to_interval.self_s": self_s("quadratic.to_interval"),
        "intervals.sqrt_fraction.calls": calls("intervals.sqrt_fraction"),
        "intervals.sqrt_fraction.self_s": self_s("intervals.sqrt_fraction"),
        "intervals.sqrt.self_s": self_s("intervals.sqrt"),
        "intervals.log.calls": calls("intervals.log"),
        "intervals.log.self_s": self_s("intervals.log"),
        "intervals.cbrt.self_s": self_s("intervals.cbrt"),
        "families.pf_eigenvalue.calls": calls("families.pf_eigenvalue"),
        "families.pf_eigenvalue.self_s": self_s("families.pf_eigenvalue"),
        "families.pf_iterations": counts["families.pf_iterations"],
        "bounds.calls": calls("bounds"),
        "bounds.self_s": self_s("bounds"),
        "johnson.tau_bounding_pair.calls": calls("johnson.tau_bounding_pair"),
        "johnson.tau_bounding_pair.self_s": self_s("johnson.tau_bounding_pair"),
        "johnson.coset_reduce.self_s": self_s("johnson.coset_reduce"),
        "johnson.lattice_builds": counts["johnson.lattice_builds"],
        "cli.requests": calls("cli"),
        "cli.self_s": self_s("cli"),
        "verify.oracle_s": total_s("verify.oracle"),
        "verify.minimality_s": total_s("verify.minimality"),
        "verify.property_suite_s": total_s("verify.property_suite"),
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out["search.dedup_ratio"] = ratio(counts["search.classes_kept"],
                                      calls("search.orbit_representative"))
    out["rep.letters_per_s"] = ratio(counts["rep.evaluate.letters"],
                                     self_s("rep.evaluate"))
    out["rep.hyperbolic_ratio"] = ratio(counts["rep.hyperbolic"],
                                        calls("rep.classify"))
    out["trace.overhead_ratio"] = overhead_ratio
    return out
