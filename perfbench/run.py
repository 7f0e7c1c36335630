#!/usr/bin/env python3
"""hyperaut benchmark: one workload per process, timed or traced.

    python3 perfbench/run.py --workload audit-grid --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; hyperaut is imported from its src/.  Set-up
(importing hyperaut and generating the inputs) is repeated SETUP_REPEATS
times and its median reported.  A run then repeats whole rounds of the
workload's operations until their summed time reaches --seconds.  Every
round after the first imports hyperaut afresh and draws new inputs from the
seeded generator, outside the timing, so no round reuses what an earlier
one computed.  After each round its outputs are checked against closed
forms; the run prints one JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics.  --trace 1 runs traced and
untraced rounds in turn and reports the per-layer metrics from the traced
ones, with the tracing overhead; it writes the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
SETUP_REPEATS = 31
MAX_REPORTED_FAILURES = 5
# A host whose cores are shared with other tenants can run for minutes at a
# time up to 40% slower or faster, which moves every workload together.  So
# a run also times a fixed exact elimination once per CALIBRATE_EVERY seconds
# of operations, and reports its timings at a reference host speed: scaled
# by CALIBRATION_REF_S / (median calibration time of the run).
CALIBRATE_EVERY = 0.2
CALIBRATION_REF_S = 0.010

sys.path.insert(0, str(HERE))

from oracles import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def add_sources() -> bool:
    """Put this checkout's src/ first on the import path, if it holds hyperaut."""
    if not (SRC / "hyperaut" / "__init__.py").is_file():
        print(f"error: no hyperaut sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def import_hyperaut():
    """A fresh import of hyperaut from this checkout's src/."""
    for name in [n for n in sys.modules if n == "hyperaut" or n.startswith("hyperaut.")]:
        del sys.modules[name]
    hy = importlib.import_module("hyperaut")
    importlib.import_module("hyperaut.cli")
    return hy


def setup(workload, seed: int):
    """Import and input generation, timed SETUP_REPEATS times from scratch.

    Each set-up is followed by one calibration, and the reported time is the
    median of set-up / calibration at the reference host speed, so that a
    change of host speed during the set-ups cancels out.  Returns the last
    set-up's module, inputs and generator, and the scaled and raw times.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        hy = import_hyperaut()
        rng = random.Random(seed)
        ops = workload.make_ops(hy, rng)
        t = perf_counter() - t0
        raw.append(t)
        scaled.append(t * CALIBRATION_REF_S / calibrate())
    return hy, ops, rng, scaled, raw


def _calibration_matrix():
    rng = random.Random(20260218)
    rows = []
    for _ in range(36):
        row = {}
        for _ in range(4):
            row[rng.randrange(28)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        rows.append(row)
    return rows


CALIBRATION_MATRIX = _calibration_matrix()


def calibrate() -> float:
    """Seconds for the rank of CALIBRATION_MATRIX by sparse Fraction elimination."""
    t0 = perf_counter()
    pivots: dict = {}
    for row in sorted(CALIBRATION_MATRIX, key=len):
        r = dict(row)
        while (hit := next((c for c in r if c in pivots), None)) is not None:
            f = r.pop(hit)
            for c, v in pivots[hit].items():
                if c != hit:
                    cur = r.get(c, 0) - f * v
                    if cur:
                        r[c] = cur
                    else:
                        r.pop(c, None)
        if r:
            lead = min(r)
            pivots[lead] = {c: v / r[lead] for c, v in r.items()}
    return perf_counter() - t0


class Run:
    """Rounds of operations, their latencies, and the failed checks."""

    def __init__(self, workload, hy, ops, rng):
        self.workload = workload
        self.hy = hy
        self.ops = ops
        self.rng = rng
        self.fresh = True
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.calibration = [calibrate() for _ in range(5)]
        self._since_calibration = 0.0

    def round(self, latencies: list[float], tracer: Tracer | None = None) -> tuple[float, int]:
        """One pass over a round's operations; returns (summed seconds, cases).

        The first round runs the inputs made at set-up; each later one
        imports hyperaut afresh and draws new inputs first.  The outputs are
        checked after the round, with the tracer removed.
        """
        w = self.workload
        if not self.fresh:
            self.hy = import_hyperaut()
            self.ops = w.make_ops(self.hy, self.rng)
        self.fresh = False
        hy, ops = self.hy, self.ops
        # Only element-sweep takes inputs from hyperaut (its symmetry groups).
        validate = getattr(w, "validate_inputs", None)
        bad_inputs = validate(hy, ops) if validate else set()
        total = 0.0
        results, raised = [], {}
        if tracer:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                self.attempted += 1
                t0 = perf_counter()
                result = None
                try:
                    result = w.run(hy, op)
                except Exception:  # an operation that raises counts as failed
                    raised[i] = traceback.format_exc()
                finally:
                    results.append(result)
                    dt = perf_counter() - t0
                    total += dt
                    latencies.append(dt)
                    self._since_calibration += dt
                    while self._since_calibration >= CALIBRATE_EVERY:
                        self.calibration.append(calibrate())
                        self._since_calibration -= CALIBRATE_EVERY
        finally:
            if tracer:
                tracer.uninstall()
        cases = 0
        for i, (op, result) in enumerate(zip(ops, results)):
            if i in raised:
                self._fail(f"op {i} raised:\n{raised[i]}")
                continue
            cases += w.cases(result)
            if i in bad_inputs:
                self._fail(f"op {i}: its input failed the closed-form group check")
                continue
            try:
                w.check(hy, op, result)
            except CheckFailed as exc:
                self._fail(str(exc))
        return total, cases

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_FAILURES:
            self.errors.append(message)
            print("FAILED:", message, file=sys.stderr)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(run: Run, seconds: float, setup_s: float) -> tuple[dict, dict]:
    latencies: list[float] = []
    walls = []
    while not walls or sum(walls) < seconds:
        wall, _ = run.round(latencies)
        walls.append(wall)
    calibration = statistics.median(run.calibration)
    scale = CALIBRATION_REF_S / calibration
    raw = {
        "wall_s": statistics.median(walls),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
    }
    # p99 is kept in the run record only: on the two workloads with fewer
    # than a thousand samples it is the slowest call, which moves with the seed.
    info = {"rounds": len(walls), "ops_per_round": len(run.ops), "samples": len(latencies),
            "calibration_s": calibration, "calibration_samples": len(run.calibration),
            "raw": dict(raw, latency_p99_ms=percentile(latencies, 99) * 1e3)}
    units = {"wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
    metrics = {k: (v * scale, units[k]) for k, v in raw.items()}
    metrics["setup_s"] = (setup_s, "s")    # scaled by its own calibrations
    return metrics, info


def traced_run(run: Run, seconds: float, tracer: Tracer, seed: int) -> tuple[dict, dict]:
    """Traced and untraced rounds in turn; per-layer figures are per traced round."""
    latencies: list[float] = []
    plain, traced = [], []
    cases: dict[int, int] = {}
    while not plain or sum(plain) + sum(traced) < seconds:
        if len(traced) <= len(plain):
            tracer.round = len(traced)
            wall, cases[tracer.round] = run.round(latencies, tracer)
            traced.append(wall)
        else:
            plain.append(run.round(latencies)[0])
    rounds = len(traced)
    metrics = tracer.layer_metrics(rounds, cases)
    wall = sum(traced) / rounds
    untraced = sum(plain) / len(plain)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (wall - untraced, "s")
    metrics["trace.remainder_s"] = (wall - metrics["trace.self_sum_s"][0], "s")
    metrics["host.calibration_ms"] = (statistics.median(run.calibration) * 1e3, "ms")
    metrics.update(cyclo_micro(run.hy, seed))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{run.workload.name}-seed{seed}.json.gz")
    info = {"rounds": len(plain) + rounds, "traced_rounds": rounds,
            "ops_per_round": len(run.ops), "spans": len(tracer.spans)}
    return metrics, info


# CycloNum operations at the coefficient levels of analyze-cyclo, and
# root_order at eigenvalue levels its automorphisms reach.
MICRO_LEVELS = (3, 4, 5, 7, 8, 12)
ROOT_ORDER_LEVELS = (20, 36, 52, 63, 80, 104, 126)


def cyclo_micro(hy, seed: int) -> dict:
    CycloNum = hy.cyclo.CycloNum
    rng = random.Random(seed)
    values = []
    for N in MICRO_LEVELS:
        phi = hy.cyclo.euler_phi(N)
        for _ in range(8):
            coords = [rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(phi)]
            coords[rng.randrange(phi)] = rng.choice((1, 2))
            values.append(CycloNum(N, coords))
    pairs = [(a, b) for a in values for b in values if a.level == b.level]
    t0 = perf_counter()
    for a, b in pairs:
        a * b
    mul = (perf_counter() - t0) / len(pairs)
    t0 = perf_counter()
    for a in values:
        a.inverse()
    inv = (perf_counter() - t0) / len(values)
    roots = [hy.cyclo.root_of_unity(L, rng.choice([k for k in range(1, L) if gcd(k, L) == 1]))
             for L in ROOT_ORDER_LEVELS]
    t0 = perf_counter()
    for r in roots:
        r.root_order()
    root = (perf_counter() - t0) / len(roots)
    return {
        "cyclo.mul_us": (mul * 1e6, "us"),
        "cyclo.inverse_us": (inv * 1e6, "us"),
        "cyclo.root_order_ms": (root * 1e3, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not add_sources():
        return 2

    workload = WORKLOADS[args.workload]()
    hy, ops, rng, setup_times, setup_raw = setup(workload, args.seed)
    if Path(hy.__file__).resolve().parent != (SRC / "hyperaut").resolve():
        print(f"error: hyperaut was imported from {hy.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run = Run(workload, hy, ops, rng)

    if args.trace:
        metrics, info = traced_run(run, args.seconds, Tracer(), args.seed)
    else:
        metrics, info = timed_run(run, args.seconds, statistics.median(setup_times))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_times=setup_times, setup_raw=setup_raw,
                  errors=run.errors, **info)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
