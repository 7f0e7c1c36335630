"""Desk-scale exhaustive verification over the delta support family.

A delta support assigns every variable exactly one monomial X_i^(d-1) *
X_sigma(i), with sigma(i) = i meaning the pure power X_i^d.  These supports
realize every vertex/near-power branch of the casework, so sweeping all of
them (up to relabeling) and all diagonal symmetries of each gives a
mechanical check of the order-divisor claims.  The family is a branch-cover
sample, not an exhaustive list of smooth hypersurfaces; audit reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product

from .autgrp import (
    CapExceededError,
    DEFAULT_ENUMERATION_CAP,
    DiagAut,
    enumerate_elements,
    symmetry_group,
)
from .classify import (
    UnsupportedRangeError,
    check_range,
    claims_satisfied,
    classify_instances,
    theorem11_claims,
)
from .geometry import fixed_locus, smoothness
from .poly import HomogPoly, Monomial

MAX_DELTA_VARS = 6

TYPE_CLAIM_IDS = {
    "thm-3.3": "I",
    "thm-3.7": "II",
    "thm-3.12": "III",
    "thm-3.14": "IV",
    "thm-3.18": "V",
    "thm-3.21": "VI",
}

AUDIT_CLAIM_IDS = ("thm-1.1-codim1", "thm-1.1-codim2") + tuple(TYPE_CLAIM_IDS)


@dataclass(frozen=True)
class DeltaSupport:
    """The support {X_i^(d-1) X_sigma(i)} of a functional digraph sigma."""

    num_vars: int
    degree: int
    sigma: tuple[int, ...]

    @property
    def name(self) -> str:
        return "sigma=" + "".join(str(s) for s in self.sigma)

    def monomials(self) -> tuple[Monomial, ...]:
        out = []
        for i, target in enumerate(self.sigma):
            mon = [0] * self.num_vars
            mon[i] += self.degree - 1
            mon[target] += 1
            out.append(tuple(mon))
        return tuple(out)

    def poly(self) -> HomogPoly:
        return HomogPoly.from_support(self.monomials(), self.num_vars)


def delta_supports(n: int, d: int):
    """All delta supports on n+2 variables, one per digraph isomorphism class.

    Each class is represented by the lexicographically least relabeling of
    its maps: the maps are walked in lexicographic order, so the first one
    met in a class is that minimum, and its whole relabeling orbit is then
    marked as seen.
    """
    m = n + 2
    if m > MAX_DELTA_VARS:
        raise CapExceededError(
            f"delta enumeration is capped at {MAX_DELTA_VARS} variables"
        )
    relabelings = []
    for perm in permutations(range(m)):
        inv = [0] * m
        for i, p in enumerate(perm):
            inv[p] = i
        relabelings.append((perm, inv))
    seen = set()
    out = []
    for sigma in product(range(m), repeat=m):
        if sigma in seen:
            continue
        seen.update(
            tuple(inv[sigma[perm[i]]] for i in range(m))
            for perm, inv in relabelings
        )
        out.append(DeltaSupport(num_vars=m, degree=d, sigma=sigma))
    return tuple(out)


def example_witness(d: int) -> tuple[HomogPoly, DiagAut]:
    """The order d(d-1) threefold witness with a line in its fixed locus.

    F = X0^d + X1^d + X2^d + X0 X3^(d-1) + X1 X4^(d-1) with the diagonal
    action (z^d, z^d, z, 1, 1) at level d(d-1).
    """
    if d < 3:
        raise UnsupportedRangeError("the witness family needs degree d >= 3")
    v = 5
    mons = []
    for i in range(3):
        mon = [0] * v
        mon[i] = d
        mons.append(tuple(mon))
    for i, j in ((0, 3), (1, 4)):
        mon = [0] * v
        mon[i] = 1
        mon[j] = d - 1
        mons.append(tuple(mon))
    F = HomogPoly.from_support(mons, v)
    g = DiagAut(d * (d - 1), (d, d, 1, 0, 0))
    return F, g


# -- audits ---------------------------------------------------------------------


@dataclass(frozen=True)
class CaseRecord:
    support: str
    level: int
    exps: tuple[int, ...]
    order: int
    codim: int | None
    checks: tuple[tuple[str, str, bool], ...]   # (scope, claim list, ok)
    passed: bool


@dataclass(frozen=True)
class Violation:
    support: str
    level: int
    exps: tuple[int, ...]
    order: int
    codim: int | None
    detail: str


@dataclass
class AuditReport:
    n: int
    d: int
    claim: str
    family: str = (
        "delta supports: one monomial X_i^(d-1) X_sigma(i) per variable, "
        "up to relabeling; a branch-cover sample, not all smooth hypersurfaces"
    )
    supports_total: int = 0
    supports_smooth: int = 0
    supports_singular: tuple[str, ...] = ()
    supports_inconclusive: tuple[str, ...] = ()
    cases_examined: int = 0
    violations: tuple[Violation, ...] = ()
    max_order_by_type: dict = field(default_factory=dict)
    records: tuple[CaseRecord, ...] = ()
    partial: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations and not self.partial


def audit_theorem(
    n: int,
    d: int,
    claim: str,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
    keep_records: bool = True,
) -> AuditReport:
    """Sweep all smooth delta supports and check one divisor claim family.

    claim is one of thm-1.1-codim1, thm-1.1-codim2 (filter by fixed-locus
    codimension, check the aggregate divisor list plus every component's
    branch claim) or thm-3.3 ... thm-3.21 (filter by normal-form type).
    """
    check_range(n, d)
    if claim not in AUDIT_CLAIM_IDS:
        raise ValueError(f"unknown claim id {claim!r}; use one of {AUDIT_CLAIM_IDS}")
    type_filter = TYPE_CLAIM_IDS.get(claim)
    codim_filter = {"thm-1.1-codim1": 1, "thm-1.1-codim2": 2}.get(claim)
    if codim_filter is not None:
        t11_claims = theorem11_claims(n, d, codim_filter)
        t11_listing = (
            "d, d-1, d-2 with side condition"
            if codim_filter == 1
            else ", ".join(str(c) for c in t11_claims)
        )

    singular = []
    inconclusive = []
    violations = []
    records = []
    max_orders: dict[str, tuple[int, str, tuple[int, ...]]] = {}
    cases = 0
    partial = False

    supports = delta_supports(n, d)
    smooth_count = 0
    for support in supports:
        F = support.poly()
        cert = smoothness(F)
        if cert.verdict == "singular":
            singular.append(support.name)
            continue
        if cert.verdict == "inconclusive":
            inconclusive.append(support.name)
            continue
        smooth_count += 1
        group = symmetry_group(support.monomials(), support.num_vars)
        try:
            elements = list(enumerate_elements(group, cap=enum_cap))
        except CapExceededError:
            partial = True
            continue
        for g in elements:
            if g.is_identity():
                continue
            fix = fixed_locus(F, g)
            if codim_filter is not None and fix.codim_in_x != codim_filter:
                continue
            order = g.order_in_pgl()
            instances = classify_instances(F, g, fix, n, d)
            if type_filter is not None and not any(
                inst.normal_type == type_filter for inst in instances
            ):
                continue
            cases += 1
            checks = []
            if codim_filter is not None:
                ok = claims_satisfied(t11_claims, order, n)
                checks.append((claim, t11_listing, ok))
            for inst in instances:
                if type_filter is not None and inst.normal_type != type_filter:
                    continue
                ok = claims_satisfied(inst.claims, order, n) if inst.claims else False
                listing = ", ".join(str(c) for c in inst.claims) or "(none)"
                checks.append((f"type-{inst.normal_type}", listing, ok))
                prev = max_orders.get(inst.normal_type)
                if prev is None or order > prev[0]:
                    max_orders[inst.normal_type] = (order, support.name, g.exps)
            passed = all(ok for _, _, ok in checks)
            if not passed:
                for scope, listing, ok in checks:
                    if not ok:
                        violations.append(
                            Violation(
                                support=support.name,
                                level=g.level,
                                exps=g.exps,
                                order=order,
                                codim=fix.codim_in_x,
                                detail=f"{scope}: order {order} divides none of [{listing}]",
                            )
                        )
            if keep_records:
                records.append(
                    CaseRecord(
                        support=support.name,
                        level=g.level,
                        exps=g.exps,
                        order=order,
                        codim=fix.codim_in_x,
                        checks=tuple(checks),
                        passed=passed,
                    )
                )
    return AuditReport(
        n=n,
        d=d,
        claim=claim,
        supports_total=len(supports),
        supports_smooth=smooth_count,
        supports_singular=tuple(singular),
        supports_inconclusive=tuple(inconclusive),
        cases_examined=cases,
        violations=tuple(violations),
        max_order_by_type={
            k: v for k, v in sorted(max_orders.items())
        },
        records=tuple(records),
        partial=partial,
    )
