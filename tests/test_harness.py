import os
import subprocess
import sys
from collections import Counter
from itertools import permutations
from math import comb
from pathlib import Path

import pytest

from hyperaut import geometry, harness
from hyperaut.autgrp import CapExceededError, DiagAut, enumerate_elements, symmetry_group
from hyperaut.classify import classify_instances, theorem11_divisors
from hyperaut.geometry import fixed_codims, fixed_loci, fixed_locus, smoothness
from hyperaut.harness import (
    AUDIT_CLAIM_IDS,
    audit_row,
    audit_theorem,
    delta_supports,
    example_witness,
)
from hyperaut.poly import HomogPoly, parse

from conftest import fermat
from oracles import brute_force_max_order, fixed_codim


def test_delta_support_counts():
    # mappings on unlabeled points (OEIS A001372): 3, 7, 19, 47, 130
    # classes for 2..6 vertices
    assert len(delta_supports(0, 4)) == 3
    assert len(delta_supports(1, 4)) == 7
    assert len(delta_supports(2, 5)) == 19
    assert len(delta_supports(3, 4)) == 47
    assert len(delta_supports(4, 4)) == 130
    with pytest.raises(CapExceededError):
        delta_supports(5, 3)


def test_delta_supports_two_vars():
    # Two pure powers; a power and a near-power chain; the two-cycle.
    sigmas = {s.sigma for s in delta_supports(0, 4)}
    assert sigmas == {(0, 1), (0, 0), (1, 0)}
    polys = {
        tuple(sorted(s.monomials())) for s in delta_supports(0, 4)
    }
    assert tuple(sorted([(4, 0), (0, 4)])) in polys
    assert tuple(sorted([(4, 0), (1, 3)])) in polys
    assert tuple(sorted([(3, 1), (1, 3)])) in polys


def test_fermat_support_is_a_delta_support():
    supports = delta_supports(2, 4)
    identity = next(s for s in supports if s.sigma == (0, 1, 2, 3))
    assert identity.poly() == fermat(4, 4)


def test_delta_supports_are_orbit_minima():
    # Each representative is the least relabeling of its map, and the
    # representatives come in strictly increasing order, so no class is
    # listed twice; the counts above show that none is missing.
    for n in range(5):
        m = n + 2
        sigmas = [s.sigma for s in delta_supports(n, 4)]
        assert sigmas == sorted(set(sigmas))
        for sigma in sigmas:
            for perm in permutations(range(m)):
                inv = [0] * m
                for i, p in enumerate(perm):
                    inv[p] = i
                relabeled = tuple(inv[sigma[perm[i]]] for i in range(m))
                assert sigma <= relabeled, (sigma, relabeled)


def test_example_witness_properties():
    for d in (3, 4, 5):
        F, g = example_witness(d)
        assert g.order_in_pgl() == d * (d - 1)
        assert F.degree == d and F.num_vars == 5
        fx = fixed_locus(F, g)
        assert fx.codim_in_x == 2
        assert fx.contains_line is True


def test_brute_force_max_order_examples(klein_quartic):
    assert brute_force_max_order(klein_quartic.support(), 3) == 7
    chain = parse("X0^3*X1 + X1^3*X2 + X2^4", 3)
    assert brute_force_max_order(chain.support(), 3) == 9
    quartic = fermat(4, 4)
    codim1 = brute_force_max_order(
        quartic.support(), 4, codim_filter=lambda fx: fx.codim_in_x == 1
    )
    assert codim1 == 4


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_max_order(fermat(5, 6).support(), 5, cap=100)


def test_audit_small_codim1():
    report = audit_theorem(2, 5, "thm-1.1-codim1")
    assert report.violations == ()
    assert not report.partial
    assert report.supports_total == 19
    assert report.cases_examined > 0
    for record in report.records:
        assert (
            any(x % record.order == 0 for x in (5, 4))
            or (3 % record.order == 0)
        )


def test_audit_small_codim2():
    report = audit_theorem(2, 5, "thm-1.1-codim2", keep_records=False)
    assert report.violations == ()
    assert report.cases_examined > 0
    bound = max(theorem11_divisors(2, 5, 2))
    for ntype, (order, _, _) in report.max_order_by_type.items():
        assert order <= bound


def test_audit_type_filter():
    report = audit_theorem(2, 5, "thm-3.18", keep_records=False)
    assert report.violations == ()
    assert report.cases_examined > 0
    report = audit_theorem(3, 4, "thm-3.3", keep_records=False)
    assert report.violations == ()


def test_audit_determinism():
    a = audit_theorem(2, 5, "thm-1.1-codim1")
    b = audit_theorem(2, 5, "thm-1.1-codim1")
    assert a.records == b.records
    assert a.max_order_by_type == b.max_order_by_type


def test_one_sweep_gives_each_claim_its_single_claim_report(monkeypatch):
    calls = []

    def counted(F, *args, **kwargs):
        calls.append(F)
        return smoothness(F, *args, **kwargs)

    monkeypatch.setattr(harness, "smoothness", counted)
    reports = audit_row(2, 5, AUDIT_CLAIM_IDS)
    # One certificate per support that sigma does not certify smooth.
    supports = delta_supports(2, 5)
    assert len(supports) == 19
    assert calls == [s.poly() for s in supports if not s.invertible]
    assert len(calls) == 9
    assert [r.claim for r in reports] == list(AUDIT_CLAIM_IDS)
    for claim, report in zip(AUDIT_CLAIM_IDS, reports):
        assert report == audit_row(2, 5, (claim,))[0], claim
        assert report.cases_examined > 0, claim


def _smooth_delta_groups():
    """(n, d, F, non-identity elements) for each smooth delta support through 4:5."""
    for n, d in ((2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (4, 5)):
        for support in delta_supports(n, d):
            F = support.poly()
            if support.invertible or smoothness(F).is_smooth:
                group = symmetry_group(support.monomials(), support.num_vars)
                yield n, d, F, [g for g in enumerate_elements(group) if not g.is_identity()]


def test_the_codim_rule_is_the_fixed_locus_codimension():
    # audit_row sends an element to fixed_loci only when fixed_codims puts
    # it in a claimed codimension, so the rule must be exact, on invertible
    # supports and the others alike, and agree with the oracle's restatement.
    elements = 0
    for n, d, F, moving in _smooth_delta_groups():
        codims = list(fixed_codims(F, moving))
        assert codims == [fix.codim_in_x for fix in fixed_loci(F, moving)], (n, d, F)
        assert codims == [fixed_codim(F, g) for g in moving], (n, d, F)
        elements += len(moving)
    assert elements > 50_000


def test_the_sweep_memo_changes_no_classification():
    # One memo per support, shared in sweep order by the codim 1 and 2 cases.
    cases = 0
    for n, d, F, moving in _smooth_delta_groups():
        memo: dict = {}
        for g, fix in zip(moving, fixed_loci(F, moving)):
            if fix.codim_in_x in (1, 2):
                shared = classify_instances(F, g, fix, n, d, memo)
                assert shared == classify_instances(F, g, fix, n, d), (F, g)
                cases += 1
    assert cases > 5_000


def test_audit_reads_the_incidence_profile_once_per_support(monkeypatch):
    # Smoothness may read F's profile first; after fixed_loci starts on F,
    # classification reads it at most once however many cases F has.
    supports = []
    calls = Counter()
    loci, queries = harness.fixed_loci, HomogPoly.support_queries

    def tracking(F, elements):
        supports.append(F)
        return loci(F, elements)

    def counted(F):
        if supports and F is supports[-1]:
            calls[len(supports)] += 1
        return queries(F)

    monkeypatch.setattr(harness, "fixed_loci", tracking)
    monkeypatch.setattr(HomogPoly, "support_queries", counted)
    reports = audit_row(3, 4, AUDIT_CLAIM_IDS)
    assert len(supports) == reports[0].supports_smooth == 16
    assert calls and max(calls.values()) == 1
    assert sum(r.cases_examined for r in reports) > 10 * len(calls)


def test_audit_counts_the_points_of_each_line_slice_once_per_support(monkeypatch):
    # The binary gcd runs once per (smooth support, two-coordinate block),
    # however many of the support's elements have that block.
    supports = []
    calls = Counter()
    loci, roots = harness.fixed_loci, geometry._distinct_binary_roots

    def tracking(F, elements):
        supports.append(F)
        return loci(F, elements)

    def counted(f, j, k):
        calls[len(supports), j, k] += 1
        return roots(f, j, k)

    monkeypatch.setattr(harness, "fixed_loci", tracking)
    monkeypatch.setattr(geometry, "_distinct_binary_roots", counted)
    report = audit_row(3, 4, ("thm-1.1-codim2",))[0]
    assert len(supports) == report.supports_smooth == 16
    assert calls and max(calls.values()) == 1
    assert len(calls) <= 16 * comb(5, 2)


def test_audit_rejects_bad_input():
    with pytest.raises(ValueError):
        audit_theorem(2, 5, "thm-9.9")
    with pytest.raises(ValueError):
        audit_row(2, 5, ("thm-1.1-codim1", "thm-9.9"))
    from hyperaut.classify import UnsupportedRangeError
    with pytest.raises(UnsupportedRangeError):
        audit_theorem(2, 4, "thm-1.1-codim1")


def test_no_hyperplane_sized_fixed_subspace():
    # Over smooth threefold delta supports, no symmetry fixes a full linear
    # slice of dimension n-1 (that would put a hyperplane-like slice inside
    # the hypersurface), and the unit eigenspace of any two-coordinate block
    # is never fully contained.
    from hyperaut.autgrp import enumerate_elements
    n, d = 3, 4
    for support in delta_supports(n, d):
        F = support.poly()
        if smoothness(F).verdict != "smooth":
            continue
        group = symmetry_group(support.monomials(), support.num_vars)
        for g in enumerate_elements(group):
            if g.is_identity():
                continue
            fx = fixed_locus(F, g)
            for s in fx.slices:
                if s.restriction_zero:
                    assert s.dim < n - 1, (support.name, g.exps, s)
                    if len(s.indices) >= n:
                        raise AssertionError((support.name, g.exps, s))


def test_oracle_agreement_with_divisor_lists():
    # The raw enumeration oracle, filtered by codimension, stays within the
    # aggregated divisor lists on every smooth delta support whose raw search
    # space fits the cap.
    for n, d in ((2, 5), (3, 4)):
        for support in delta_supports(n, d):
            F = support.poly()
            if smoothness(F).verdict != "smooth":
                continue
            for codim in (1, 2):
                try:
                    best = brute_force_max_order(
                        support.monomials(), support.num_vars,
                        codim_filter=lambda fx: fx.codim_in_x == codim,
                    )
                except CapExceededError:
                    continue
                if best == 1:
                    continue
                divisors = theorem11_divisors(n, d, codim)
                assert any(x % best == 0 for x in divisors), (
                    n, d, codim, support.name, best,
                )


def _run_audits(*argv):
    return subprocess.run(
        [sys.executable, "scripts/run_audits.py", *argv],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": "src"},
    )


def test_run_audits_reports_capped_pairs_as_skipped_and_fails():
    # Neither audit ran: 5:3 has 7 variables, over the delta-enumeration cap,
    # and 2:300 is over the degree cap.  Each gets skipped rows, no traceback.
    run = _run_audits("--pairs", "5:3", "2:300")
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[1] == " 5  3 thm-1.1-codim1   skipped: delta enumeration is capped at 6 variables"
    assert lines[-1] == " 2 300 thm-1.1-codim2   skipped: degree 300 exceeds the cap of 256"
    assert len(lines) == 5 and "Traceback" not in run.stdout + run.stderr


@pytest.mark.parametrize("argv, message", [
    (["--pairs", "2-5"], "argument --pairs: not an n:d pair: '2-5'"),
    (["--pairs", "2:5", "2:5:3"], "argument --pairs: not an n:d pair: '2:5:3'"),
    (["--pairs", "a:5"], "argument --pairs: not an n:d pair: 'a:5'"),
    (["--claims", "thm-9"], "argument --claims: invalid choice: 'thm-9'"),
])
def test_run_audits_refuses_malformed_pairs_and_unknown_claims(argv, message):
    run = _run_audits(*argv)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("usage: run_audits.py")
    assert message in run.stderr and "Traceback" not in run.stderr
