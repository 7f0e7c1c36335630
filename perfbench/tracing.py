"""Spans around the calls between hyperaut's modules, recorded from outside.

The tracer swaps each boundary function for a timing wrapper wherever a
hyperaut module holds it (the defining module and every module that imported
it by name), so calls between modules and calls from the benchmark are both
caught.  It is installed for the timed part of a traced round only, so the
benchmark's checks record nothing.  Spans stay in memory and are written out
when the run ends.

A span is [name, parent, round, start, duration, tag].  A span's self time
is its duration minus the durations of its child spans; calls are strictly
nested on one thread, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from statistics import fmean
from time import perf_counter

BOUNDARIES = (
    ("harness", "audit_theorem"),
    ("harness", "delta_supports"),
    ("geometry", "smoothness"),
    ("geometry", "fixed_locus"),
    ("geometry", "galois_by_theorem"),
    ("autgrp", "symmetry_group"),
    ("autgrp", "enumerate_elements"),
    ("autgrp", "parse_diag"),
    ("autgrp", "multiplier"),
    ("classify", "classify_instances"),
    ("classify", "classify_case"),
    ("poly", "parse"),
    ("cli", "main"),
)

GENERATORS = {"autgrp.enumerate_elements"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.round = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installing the wrappers --------------------------------------------------

    def install(self) -> None:
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "hyperaut" or name.startswith("hyperaut."))
        ]
        for mod_name, func_name in BOUNDARIES:
            orig = getattr(sys.modules["hyperaut." + mod_name], func_name)
            name = f"{mod_name}.{func_name}"
            wrapper = (
                self._wrap_generator(name, orig) if name in GENERATORS
                else self._wrap(name, orig)
            )
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.round, perf_counter(), 0.0, None])
        self.stack.append(idx)
        return idx

    def _wrap(self, name, fn):
        tracer = self
        smoothness = name == "geometry.smoothness"

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            span = tracer.spans[idx]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter() - span[3]
                tracer.stack.pop()
            if smoothness:
                F = args[0]
                span[5] = (result.verdict, tuple(sorted(F.terms)))
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        # The generator's work happens while it is consumed, so the span
        # accumulates the time spent inside each next() call.
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            idx = tracer._open(name)
            tracer.stack.pop()
            span = tracer.spans[idx]
            while True:
                tracer.stack.append(idx)
                t0 = perf_counter()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    span[4] += perf_counter() - t0
                    tracer.stack.pop()
                yield value

        return wrapper

    # -- reading the spans --------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[4] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[4]
        return out

    def layer_metrics(self, rounds: int, cases_per_round: dict[int, int]) -> dict:
        """Per-round calls, seconds and self seconds at each boundary, plus ratios."""
        self_s = self.self_times()
        calls, total, own, by_verdict = Counter(), Counter(), Counter(), Counter()
        audit_supports: dict[int, list] = {}    # round -> support of each smoothness call
        audit_classify: Counter = Counter()     # round -> classify_instances calls
        for i, (name, parent, rnd, _, dur, tag) in enumerate(self.spans):
            calls[name] += 1
            total[name] += dur
            own[name] += self_s[i]
            under_audit = parent >= 0 and self.spans[parent][0] == "harness.audit_theorem"
            if name == "geometry.smoothness":
                by_verdict[tag[0]] += dur
                if under_audit:
                    audit_supports.setdefault(rnd, []).append(tag[1])
            elif name == "classify.classify_instances" and under_audit:
                audit_classify[rnd] += 1
        out = {}
        for mod_name, func_name in BOUNDARIES:
            name = f"{mod_name}.{func_name}"
            out[f"{name}.calls"] = (calls[name] / rounds, "count")
            out[f"{name}.s"] = (total[name] / rounds, "s")
            out[f"{name}.self_s"] = (own[name] / rounds, "s")
        out["geometry.smoothness.smooth_s"] = (by_verdict["smooth"] / rounds, "s")
        out["geometry.smoothness.singular_s"] = (by_verdict["singular"] / rounds, "s")
        out["harness.audit.smoothness_per_support"] = (_mean(
            [len(keys) / len(set(keys)) for keys in audit_supports.values()]), "ratio")
        out["harness.audit.classify_per_case"] = (_mean(
            [n / cases_per_round[rnd] for rnd, n in audit_classify.items()
             if cases_per_round.get(rnd)]), "ratio")
        out["trace.self_sum_s"] = (sum(s[4] for s in self.spans if s[1] < 0) / rounds, "s")
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[name], parent, rnd, round(start, 7), round(dur, 7),
             tag[0] if tag else None]
            for name, parent, rnd, start, dur, tag in self.spans
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "columns": ["name", "parent", "round", "start", "dur", "verdict"],
                       "spans": rows}, fh, separators=(",", ":"))


def _mean(values) -> float:
    """0 when the workload makes no audit call."""
    return fmean(values) if values else 0.0
