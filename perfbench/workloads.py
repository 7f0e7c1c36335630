"""The three workloads: their inputs, one operation, and the checks on its output.

Each workload builds one round of operations with `make_ops(hy, rng)`; a run
calls it once per round, with the module freshly imported and the same
random.Random carried on, so every round draws new inputs.  `run` is the
timed call into hyperaut's public functions; `check` runs after the round,
outside the timing, and raises CheckFailed when an output disagrees with a
closed form from oracles.py.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
from math import gcd

from oracles import (
    A001372,
    canonical,
    character,
    check_case,
    delta_classes,
    delta_group_order,
    delta_monomials,
    expect,
    fermat_group_order,
    fixed_codim,
    group_elements,
    ks_smooth,
    normal_type,
    random_group_element,
    root_value,
    sigma_name,
    sigma_of_name,
    theorem11_list,
)


def monomial_text(mon) -> str:
    return "*".join(
        f"X{i}" if a == 1 else f"X{i}^{a}" for i, a in enumerate(mon) if a
    )


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


class AuditGrid:
    """harness.audit_theorem over the grid rows, both thm-1.1 claims per row.

    The grid is the whole input, so the seed only orders the calls, anew in
    every round.  The two 3:5 rows of the ROADMAP grid (about 60% of its
    time, 17 s each) are left out so that a round stays near 20 s and a run
    holds two of them.
    """

    name = "audit-grid"
    ROWS = ((2, 5), (2, 6), (3, 4))
    CLAIMS = ("thm-1.1-codim1", "thm-1.1-codim2")

    def __init__(self, rows=ROWS, claims=CLAIMS):
        self.rows = rows
        self.claims = claims
        self._expected = {}

    def make_ops(self, hy, rng):
        ops = [(n, d, c) for n, d in self.rows for c in self.claims]
        rng.shuffle(ops)
        return ops

    def run(self, hy, op):
        n, d, claim = op
        return hy.harness.audit_theorem(n, d, claim)

    def cases(self, result) -> int:
        return result.cases_examined

    def expected(self, n, d):
        """Delta classes, the singular names, and the cases by codimension.

        The cases are every (support, non-identity symmetry) pair of a smooth
        support, keyed by codimension of the fixed locus.
        """
        if (n, d) not in self._expected:
            classes = delta_classes(n + 2)
            singular = sorted(sigma_name(s) for s in classes if not ks_smooth(s))
            cases: dict = {}
            for sigma in filter(ks_smooth, classes):
                support = delta_monomials(sigma, d)
                for level, exps in group_elements(sigma, d):
                    if level > 1:
                        codim = fixed_codim(support, level, exps, n)
                        cases.setdefault(codim, set()).add((sigma_name(sigma), level, exps))
            self._expected[n, d] = (classes, singular, cases)
        return self._expected[n, d]

    def check(self, hy, op, report, table=theorem11_list):
        n, d, claim = op
        where = f"audit {n}:{d} {claim}"
        classes, singular, cases = self.expected(n, d)
        expect(len(classes) == A001372[n + 2], f"{where}: oracle class count")
        expect(report.supports_total == A001372[n + 2],
               f"{where}: {report.supports_total} delta supports, OEIS A001372 gives {A001372[n + 2]}")
        expect(sorted(report.supports_singular) == singular,
               f"{where}: singular supports differ from Kreuzer-Skarke")
        expect(report.supports_smooth == len(classes) - len(singular),
               f"{where}: {report.supports_smooth} smooth supports, Kreuzer-Skarke gives "
               f"{len(classes) - len(singular)}")
        expect(not report.supports_inconclusive, f"{where}: inconclusive supports")
        expect(not report.violations, f"{where}: {len(report.violations)} violations")
        expect(not report.partial, f"{where}: partial audit")
        codim = int(claim[-1])
        want = cases.get(codim, set())
        got = [(rec.support, *canonical(rec.level, rec.exps)) for rec in report.records]
        expect(report.cases_examined == len(got) == len(set(got)) and set(got) == want,
               f"{where}: {report.cases_examined} cases examined ({len(set(got))} distinct "
               f"records), the symmetry groups hold {len(want)} of codim {codim}; "
               f"{len(want - set(got))} missing, {len(set(got) - want)} unexpected")
        for rec in report.records:
            support = delta_monomials(sigma_of_name(rec.support), d)
            case = f"{where} {rec.support} {rec.exps}"
            expect(rec.codim == codim, f"{case}: codim {rec.codim} under the codim-{codim} claim")
            check_case(support, rec.level, rec.exps, n, d, rec.order, rec.codim, case, table)


class AnalyzeCyclo:
    """hyperaut analyze --json on delta polynomials with coefficients in Q(zeta_N).

    The supports and their coefficient levels are fixed, so that every seed
    and every round makes the same mix: each row takes every
    smooth_stride-th smooth and every singular_stride-th singular support
    (with a non-trivial group), and N cycles through LEVELS along the row.
    Each round draws new coefficients, a new automorphism per support (a
    uniformly random non-identity symmetry, computed here from the exponent
    matrix, not by hyperaut) and a new order of the operations.
    """

    name = "analyze-cyclo"
    ROWS = ((2, 5, 1, 1), (2, 6, 2, 2), (3, 4, 2, 4))   # n, d, smooth_stride, singular_stride
    LEVELS = (3, 4, 5, 7, 8, 12)

    def __init__(self, rows=ROWS):
        self.rows = rows

    def supports(self):
        """(n, d, sigma, N) for every operation of a round."""
        out = []
        for n, d, smooth_stride, singular_stride in self.rows:
            classes = [s for s in delta_classes(n + 2) if delta_group_order(s, d) > 1]
            chosen = ([s for s in classes if ks_smooth(s)][::smooth_stride]
                      + [s for s in classes if not ks_smooth(s)][::singular_stride])
            out.extend((n, d, sigma, self.LEVELS[j % len(self.LEVELS)])
                       for j, sigma in enumerate(chosen))
        return out

    def make_ops(self, hy, rng):
        ops = []
        for n, d, sigma, N in self.supports():
            mons = delta_monomials(sigma, d)
            poly = " + ".join(
                f"({self._coefficient(N, rng)})*{monomial_text(m)}" for m in mons
            )
            level, exps = 1, ()
            while level == 1:
                level, exps = random_group_element(sigma, d, rng)
            ops.append({
                "n": n, "d": d, "sigma": sigma, "N": N, "level": level, "exps": exps,
                "poly": poly, "unit": " + ".join(monomial_text(m) for m in mons),
                "aut": str(hy.autgrp.DiagAut(level, exps)),
            })
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _coefficient(N, rng) -> str:
        # Two distinct basis powers zeta^k, k < phi(N), so never zero; a fixed
        # number of terms keeps the elimination cost from moving with the seed.
        terms = []
        for k in sorted(rng.sample(range(euler_phi(N)), 2)):
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            power = "" if k == 0 else (f"*z{N}" if k == 1 else f"*z{N}^{k}")
            terms.append(f"{c}{power}")
        return " + ".join(terms)

    def run(self, hy, op):
        return _analyze(hy, op["poly"], op["aut"])

    def cases(self, result) -> int:
        return 0

    def check(self, hy, op, result, table=theorem11_list):
        code, out = result
        n, d, sigma = op["n"], op["d"], op["sigma"]
        where = f"analyze {n}:{d} {sigma_name(sigma)} N={op['N']} {op['aut']}"
        smooth = ks_smooth(sigma)
        expect(code == (0 if smooth else 3),
               f"{where}: exit code {code}, Kreuzer-Skarke says {'smooth' if smooth else 'singular'}")
        payload = json.loads(out)
        expect(payload["smoothness"]["verdict"] == ("smooth" if smooth else "singular"),
               f"{where}: smoothness verdict {payload['smoothness']['verdict']}")
        # A diagonal rescaling commutes with g and carries F to the unit-coefficient
        # polynomial (det((d-1)I + P_sigma) != 0), so every verdict must agree.
        ref_code, ref_out = _analyze(hy, op["unit"], op["aut"])
        ref = json.loads(ref_out)
        for p in (payload, ref):
            p["input"].pop("poly")
        expect(code == ref_code and payload == ref,
               f"{where}: verdicts differ from the unit-coefficient polynomial")
        if smooth:
            auto = payload["automorphism"]
            expect(auto["level"] == op["level"], f"{where}: level {auto['level']}")
            check_case(delta_monomials(sigma, d), op["level"], op["exps"], n, d,
                       auto["order"], payload["fixed_locus"]["codim"], where, table)


def _analyze(hy, poly, aut):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hy.cli.main(["analyze", "--poly", poly, "--aut", aut, "--json"])
    return code, out.getvalue()


class ElementSweep:
    """classify_case(F, g, fixed_locus(F, g)) for every non-identity symmetry.

    Smooth supports with large groups: Fermat surfaces and threefolds, delta
    loops and chains, and the order-d(d-1) witness.  Each round draws new
    nonzero rational coefficients and a new order of the elements; the
    elements come from hyperaut's symmetry_group, enumerated anew each
    round, and are checked against the closed-form group order.
    """

    name = "element-sweep"
    # (label, n, d, sigma); sigma = identity is the Fermat support.
    SUPPORTS = (
        ("fermat", 2, 6, (0, 1, 2, 3)),
        ("fermat", 2, 8, (0, 1, 2, 3)),
        ("fermat", 3, 5, (0, 1, 2, 3, 4)),
        ("fermat", 3, 6, (0, 1, 2, 3, 4)),
        ("loop", 2, 6, (1, 2, 3, 0)),
        ("chain", 2, 6, (0, 0, 1, 2)),
        ("loop", 3, 5, (1, 2, 3, 4, 0)),
        ("chain", 3, 5, (0, 0, 1, 2, 3)),
        ("witness", 3, 4, (0, 1, 2, 0, 1)),
    )
    COEFFICIENTS = ("1", "-1", "2", "-3", "1/2", "-2/3", "5/4")

    def __init__(self, supports=SUPPORTS):
        self.supports = supports
        # (support index, canonical element) -> the unit-coefficient verdicts
        self._reference: dict = {}

    def make_ops(self, hy, rng):
        self.inputs = []
        self._units = {}    # support index -> its unit-coefficient polynomial
        ops = []
        for label, n, d, sigma in self.supports:
            mons = delta_monomials(sigma, d)
            if label == "witness":
                witness, _ = hy.harness.example_witness(d)
                mons = sorted(witness.terms)
            text = " + ".join(
                f"({rng.choice(self.COEFFICIENTS)})*{monomial_text(m)}" for m in mons
            )
            F = hy.poly.parse(text, n + 2)
            group = hy.autgrp.symmetry_group(mons, n + 2)
            elements = [g for g in hy.autgrp.enumerate_elements(group) if not g.is_identity()]
            s = len(self.inputs)
            self.inputs.append((label, n, d, sigma, mons, group.order))
            ops.extend((s, F, g) for g in elements)
        rng.shuffle(ops)
        return ops

    def validate_inputs(self, hy, ops):
        """Closed-form group orders; every element a distinct symmetry."""
        counts, seen, bad = {}, set(), set()
        for i, (s, F, g) in enumerate(ops):
            counts[s] = counts.get(s, 0) + 1
            mons = self.inputs[s][4]
            key = (s, canonical(g.level, g.exps))
            if key in seen or character(mons, g.level, g.exps) is None:
                bad.add(i)
            seen.add(key)
        for s, (label, n, d, sigma, mons, order) in enumerate(self.inputs):
            want = fermat_group_order(n, d) if label == "fermat" else delta_group_order(sigma, d)
            if (sorted(mons) != sorted(delta_monomials(sigma, d)) or order != want
                    or counts.get(s, 0) != order - 1):
                bad.update(i for i, op in enumerate(ops) if op[0] == s)
        return bad

    def run(self, hy, op):
        _, F, g = op
        return hy.classify.classify_case(F, g, hy.geometry.fixed_locus(F, g))

    def cases(self, result) -> int:
        return 0

    def check(self, hy, op, case, table=theorem11_list):
        s, F, g = op
        label, n, d, sigma, mons, _ = self.inputs[s]
        where = f"sweep {label} {n}:{d} {g}"
        check_case(mons, g.level, g.exps, n, d, case.order, case.codim, where, table)
        want = normal_type(mons, g.level, g.exps, n)
        expect(case.normal_type == want, f"{where}: normal type {case.normal_type}, "
                                         f"eigen-blocks give {want}")
        t = case.multiplier_t
        value = sum(float(c) * root_value(t.level, k) for k, c in enumerate(t.coeffs))
        c = character(mons, g.level, g.exps)
        expect(cmath.isclose(value, root_value(g.level, c), abs_tol=1e-9),
               f"{where}: multiplier with coordinates {t.coeffs} at level {t.level}, "
               f"the monomials' character is zeta_{g.level}^{c}")
        # A diagonal rescaling commutes with g and carries F to the
        # unit-coefficient polynomial, so every verdict must agree with it.
        key = (s, canonical(g.level, g.exps))
        if key not in self._reference:
            if s not in self._units:
                self._units[s] = hy.poly.parse(" + ".join(monomial_text(m) for m in mons), n + 2)
            unit = self._units[s]
            self._reference[key] = verdicts(
                hy.classify.classify_case(unit, g, hy.geometry.fixed_locus(unit, g)))
        expect(verdicts(case) == self._reference[key],
               f"{where}: verdicts differ from the unit-coefficient polynomial")


def verdicts(case) -> str:
    """Every field of a classified case as text, so that rounds (each with its
    own import of hyperaut) compare by value.  The multiplier is written by
    its coordinates: its own text form looks the value up as a root of unity,
    which takes milliseconds."""
    t = case.multiplier_t
    return repr(dataclasses.replace(case, multiplier_t=(t.level, t.coeffs)))


WORKLOADS = {w.name: w for w in (AuditGrid, AnalyzeCyclo, ElementSweep)}
