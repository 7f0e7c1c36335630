#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs one small round of each workload, which must pass every check, then
feeds each check a wrong answer (a flipped smoothness verdict, an order off
by one, a dropped list entry, ...) and requires the check to reject it.
Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import run as bench
from oracles import A001372, CheckFailed, delta_classes, ks_smooth, theorem11_list
from workloads import AnalyzeCyclo, AuditGrid, ElementSweep


def without(value):
    """theorem11_list with one entry dropped."""
    def table(n, d, codim):
        return [x for x in theorem11_list(n, d, codim) if x != value]
    return table


def tiny_round(workload, seed=1):
    hy = bench.import_hyperaut()
    ops = workload.make_ops(hy, random.Random(seed))
    results = []
    for op in ops:
        result = workload.run(hy, op)
        workload.check(hy, op, result)
        results.append(result)
    return hy, ops, results


def rejects(label, check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except CheckFailed as exc:
        print(f"  rejected {label}: {exc}")
        return
    raise AssertionError(f"the check accepted {label}")


def test_oracles():
    for m in (4, 5):
        assert len(delta_classes(m)) == A001372[m]
    # Smooth delta supports on four vertices: chains and cycles, 10 classes.
    assert sum(ks_smooth(s) for s in delta_classes(4)) == 10
    print("oracles: A001372 counts and the Kreuzer-Skarke split hold")


def test_audit_grid():
    w = AuditGrid(rows=((2, 5),), claims=("thm-1.1-codim2",))
    hy, ops, (report,) = tiny_round(w)
    op = ops[0]
    print(f"audit-grid: {op} passed, {report.cases_examined} cases")
    name = report.supports_singular[0]
    rejects("a flipped smoothness verdict", w.check, hy, op, dataclasses.replace(
        report, supports_singular=report.supports_singular[1:],
        supports_smooth=report.supports_smooth + 1))
    rejects("a wrong support count", w.check, hy, op,
            dataclasses.replace(report, supports_total=report.supports_total - 1))
    rec = report.records[0]
    bad = dataclasses.replace(rec, order=rec.order + 1)
    rejects("an order off by one", w.check, hy, op,
            dataclasses.replace(report, records=(bad,) + report.records[1:]))
    rejects("a dropped case", w.check, hy, op, dataclasses.replace(
        report, records=report.records[1:], cases_examined=report.cases_examined - 1))
    rejects("a case examined twice", w.check, hy, op, dataclasses.replace(
        report, records=report.records[:1] + report.records[:-1]))
    rejects("a dropped theorem 1.1 entry (the cycle constant 51)", w.check, hy, op, report,
            table=without(51))
    rejects("a reported violation", w.check, hy, op,
            dataclasses.replace(report, violations=(name,)))
    rejects("a partial audit", w.check, hy, op, dataclasses.replace(report, partial=True))


def test_analyze_cyclo():
    w = AnalyzeCyclo(rows=((2, 5, 4, 4),))
    hy, ops, results = tiny_round(w, seed=3)
    print(f"analyze-cyclo: {len(ops)} operations passed")
    smooth = next(i for i, op in enumerate(ops) if ks_smooth(op["sigma"]))
    singular = next((i for i, op in enumerate(ops) if not ks_smooth(op["sigma"])), None)
    code, out = results[smooth]
    payload = json.loads(out)

    def with_change(edit):
        p = json.loads(out)
        edit(p)
        return code, json.dumps(p)

    rejects("exit code 3 on a smooth support", w.check, hy, ops[smooth], (3, out))
    rejects("a flipped smoothness verdict", w.check, hy, ops[smooth],
            with_change(lambda p: p["smoothness"].update(verdict="singular")))
    rejects("an order off by one", w.check, hy, ops[smooth],
            with_change(lambda p: p["automorphism"].update(order=p["automorphism"]["order"] + 1)))
    rejects("a changed rationality verdict", w.check, hy, ops[smooth],
            with_change(lambda p: p["rationality"].update(status="wrong")))
    codim = payload["fixed_locus"]["codim"]
    rejects("a wrong fixed-locus codimension", w.check, hy, ops[smooth],
            with_change(lambda p: p["fixed_locus"].update(codim=(codim or 0) + 1)))
    if singular is not None:
        rejects("exit code 0 on a singular support", w.check, hy, ops[singular],
                (0, results[singular][1]))


def test_element_sweep():
    w = ElementSweep(supports=(("fermat", 2, 6, (0, 1, 2, 3)),))
    hy, ops, cases = tiny_round(w)
    assert not w.validate_inputs(hy, ops), "the Fermat group failed the closed-form check"
    print(f"element-sweep: {len(ops)} elements of the Fermat sextic surface passed")
    i = next(k for k, c in enumerate(cases) if c.codim == 1 and c.order == 6 and c.galois.galois)
    case = cases[i]
    wrong = {
        "an order off by one": dict(order=case.order + 1),
        "a wrong fixed-locus codimension": dict(codim=2),
        "a wrong normal type": dict(normal_type="II"),
        "a wrong multiplier": dict(multiplier_t=hy.cyclo.root_of_unity(case.order, 1)),
        "a flipped Galois verdict": dict(galois=dataclasses.replace(case.galois, galois=False)),
        "a changed rationality verdict": dict(rationality=dataclasses.replace(
            case.rationality, status="unknown")),
        "a dropped branch claim": dict(claims=case.claims[1:]),
    }
    assert case.claims, "the chosen case has no branch claims"
    for label, change in wrong.items():
        rejects(label, w.check, hy, ops[i], dataclasses.replace(case, **change))
    rejects("a dropped theorem 1.1 entry (d)", w.check, hy, ops[i], case, table=without(6))
    short = ops[:5] + ops[6:]
    assert w.validate_inputs(hy, short), "a missing group element went unnoticed"
    doubled = ops + ops[:1]
    assert w.validate_inputs(hy, doubled), "a repeated group element went unnoticed"
    print("  rejected a group with one element missing, and one with an element twice")


def main() -> int:
    if not bench.add_sources():
        return 2
    test_oracles()
    test_audit_grid()
    test_analyze_cyclo()
    test_element_sweep()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
