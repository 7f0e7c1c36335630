"""Desk-scale exhaustive verification over the delta support family.

A delta support assigns every variable exactly one monomial X_i^(d-1) *
X_sigma(i), with sigma(i) = i meaning the pure power X_i^d.  These supports
realize every vertex/near-power branch of the casework, so sweeping all of
them (up to relabeling) and all diagonal symmetries of each gives a
mechanical check of the order-divisor claims.  The family is a branch-cover
sample, not an exhaustive list of smooth hypersurfaces; audit reports say so.

The audit sweep skips two kinds of work that need no arithmetic:

- A delta polynomial is the Thom-Sebastiani sum of its pieces over sigma's
  connected components.  When no vertex of sigma is the image of two other
  vertices, each piece is a Fermat term X^d, a chain X_1^(d-1) X_2 + ... +
  X_k^d or a loop X_1^(d-1) X_2 + ... + X_k^(d-1) X_1, and such a sum (an
  invertible polynomial, Berglund-Huebsch) is smooth for any nonzero
  coefficients (Kreuzer-Skarke, On the classification of quasihomogeneous
  functions, 1992).  Those supports are recorded smooth from sigma alone.
  Every other support still gets the exact certificate of
  geometry.smoothness, so a singular or inconclusive verdict never comes
  from sigma.
- g's fixed locus is the union of X cap P(V) over its eigenspaces V, each
  spanned by a block I of coordinates.  X cap P(V) is P(V), of dimension
  |I| - 1, when no monomial of F lies in the variables of I, and a
  hypersurface in it, of dimension |I| - 2, otherwise.  So the codimension
  in the n-fold X is read off the support (geometry.fixed_codims), and an
  element whose codimension no claim selects gets no fixed-locus report.
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
    check_degree,
    check_range,
    claims_satisfied,
    classify_instances,
    theorem11_claims,
)
from .geometry import fixed_codims, fixed_loci, smoothness
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

    @property
    def invertible(self) -> bool:
        """No vertex of sigma is the image of two others: a sum of Fermat,
        chain and loop pieces, smooth for any nonzero coefficients."""
        targets = [t for i, t in enumerate(self.sigma) if t != i]
        return len(targets) == len(set(targets))


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
    supports_capped: tuple[str, ...] = ()      # skipped by the enumeration cap
    cases_examined: int = 0
    violations: tuple[Violation, ...] = ()
    max_order_by_type: dict = field(default_factory=dict)
    records: tuple[CaseRecord, ...] = ()
    partial: bool = False                      # a support was capped or inconclusive

    @property
    def ok(self) -> bool:
        return not self.violations and not self.partial


@dataclass
class _ClaimAudit:
    """One claim id's rule and its running tally over a sweep.

    A case (a smooth support and a non-identity g) is selected when its
    fixed-locus codimension is in `codims` and, unless the claim has a
    `headline` list (theorem 1.1's, checked on every case it selects), it
    has a component instance of a type in `types`.  Its checks are the
    headline, then the branch claims of those instances, each as (scope,
    listing, claims).
    """

    claim: str
    n: int
    codims: frozenset[int]
    types: frozenset[str]
    headline: tuple[tuple[str, str, tuple], ...]
    keep_records: bool
    cases: int = 0
    violations: list = field(default_factory=list)
    records: list = field(default_factory=list)
    max_orders: dict = field(default_factory=dict)

    @classmethod
    def for_claim(cls, claim: str, n: int, d: int, keep_records: bool) -> "_ClaimAudit":
        if claim not in AUDIT_CLAIM_IDS:
            raise ValueError(f"unknown claim id {claim!r}; use one of {AUDIT_CLAIM_IDS}")
        if claim in TYPE_CLAIM_IDS:
            # Every instance comes from a slice of dimension n-2 .. n-1, so
            # its case has codim 1 or 2 (codim 0 is impossible on smooth X).
            types = frozenset({TYPE_CLAIM_IDS[claim]})
            return cls(claim, n, frozenset({1, 2}), types, (), keep_records)
        codim = int(claim[-1])
        claims = theorem11_claims(n, d, codim)
        listing = (
            "d, d-1, d-2 with side condition" if codim == 1
            else ", ".join(str(c) for c in claims)
        )
        types = frozenset(TYPE_CLAIM_IDS.values())
        return cls(claim, n, frozenset({codim}), types, ((claim, listing, claims),),
                   keep_records)

    def take(self, support: str, g: DiagAut, order: int, codim: int, instances) -> None:
        picked = [inst for inst in instances if inst.normal_type in self.types]
        if codim not in self.codims or not (self.headline or picked):
            return
        self.cases += 1
        lists = list(self.headline) + [
            (f"type-{inst.normal_type}",
             ", ".join(str(c) for c in inst.claims) or "(none)", inst.claims)
            for inst in picked
        ]
        checks = tuple(
            (scope, listing, claims_satisfied(claims, order, self.n))
            for scope, listing, claims in lists
        )
        for inst in picked:
            prev = self.max_orders.get(inst.normal_type)
            if prev is None or order > prev[0]:
                self.max_orders[inst.normal_type] = (order, support, g.exps)
        self.violations.extend(
            Violation(support, g.level, g.exps, order, codim,
                      f"{scope}: order {order} divides none of [{listing}]")
            for scope, listing, ok in checks if not ok
        )
        if self.keep_records:
            passed = all(ok for _, _, ok in checks)
            self.records.append(CaseRecord(support, g.level, g.exps, order, codim, checks, passed))


def audit_row(n: int, d: int, claims, enum_cap: int = DEFAULT_ENUMERATION_CAP,
              keep_records: bool = True) -> tuple[AuditReport, ...]:
    """Sweep the delta supports of one (n, d) once; one report per claim id.

    Each claim is one of thm-1.1-codim1, thm-1.1-codim2 (the cases of that
    fixed-locus codimension, checked against the aggregate divisor list and
    every component's branch claim) or thm-3.3 ... thm-3.21 (the cases with
    a component of that normal-form type, checked against its branch
    claims).  Smoothness, the group, the fixed loci and the classification
    are computed once and shared; only the elements some claim can select
    are classified.  A support left inconclusive by the smoothness
    certificate or skipped by the enumeration cap makes every report partial.

    An invertible support (DeltaSupport.invertible) is recorded smooth
    without geometry.smoothness; every other one gets its exact certificate.
    An element goes to fixed_loci only when its codimension, read off the
    support by geometry.fixed_codims, is one the claims select.  The
    classifications of one support share a memo of what depends on F alone.
    """
    check_range(n, d)
    check_degree(d)
    audits = [_ClaimAudit.for_claim(claim, n, d, keep_records) for claim in claims]
    codims = frozenset().union(*(audit.codims for audit in audits))

    supports = delta_supports(n, d)
    by_verdict: dict[str, list[str]] = {"smooth": [], "singular": [], "inconclusive": []}
    capped = []
    for support in supports:
        F = support.poly()
        verdict = "smooth" if support.invertible else smoothness(F).verdict
        by_verdict[verdict].append(support.name)
        if verdict != "smooth":
            continue
        group = symmetry_group(support.monomials(), support.num_vars)
        try:
            elements = list(enumerate_elements(group, cap=enum_cap))
        except CapExceededError:
            capped.append(support.name)
            continue
        picked = [g for g, c in zip(elements, fixed_codims(F, elements)) if c in codims]
        memo: dict = {}
        for g, fix in zip(picked, fixed_loci(F, picked)):
            order = g.order_in_pgl()
            instances = classify_instances(F, g, fix, n, d, memo)
            for audit in audits:
                audit.take(support.name, g, order, fix.codim_in_x, instances)
    inconclusive = tuple(by_verdict["inconclusive"])
    row = dict(
        n=n, d=d, supports_total=len(supports), supports_smooth=len(by_verdict["smooth"]),
        supports_singular=tuple(by_verdict["singular"]), supports_inconclusive=inconclusive,
        supports_capped=tuple(capped), partial=bool(inconclusive or capped),
    )
    return tuple(
        AuditReport(claim=audit.claim, cases_examined=audit.cases,
                    violations=tuple(audit.violations), records=tuple(audit.records),
                    max_order_by_type=dict(sorted(audit.max_orders.items())), **row)
        for audit in audits
    )


def audit_theorem(n: int, d: int, claim: str, enum_cap: int = DEFAULT_ENUMERATION_CAP,
                  keep_records: bool = True) -> AuditReport:
    """audit_row for the one claim id claim."""
    return audit_row(n, d, (claim,), enum_cap, keep_records)[0]
