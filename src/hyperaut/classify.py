"""Normal-form typing, branch casework, order bounds, rationality verdicts.

An automorphism with a fixed component of codimension at most two fits one
of six diagonal normal forms once the component's eigenvalue is rescaled to
one.  Each normal form carries a case analysis over which coordinate
vertices lie on the hypersurface and where their near-power partner
monomials point; every branch pins the order of the automorphism to a
divisor of an explicit integer.  This module encodes those branch tables,
the numeric bound generators, and the sufficient conditions under which the
cyclic quotient is known to be rational.

Theorem identifiers are stable string keys (thm-1.1, thm-2.3, thm-2.5-ii-b,
thm-3.18, thm-4.5-corrected, ...) used across reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .autgrp import DiagAut, smith_normal_form
from .cyclo import CycloNum, root_of_unity
from .geometry import FixedLocusReport, GaloisVerdict, galois_by_theorem
from .poly import MAX_DEGREE, MAX_VARS, CapExceededError, HomogPoly

TYPE_I = "I"
TYPE_II = "II"
TYPE_III = "III"
TYPE_IV = "IV"
TYPE_V = "V"
TYPE_VI = "VI"
OUT_OF_SCOPE = "out-of-scope"


class UnsupportedRangeError(ValueError):
    """The (n, d) pair falls outside the supported range."""


class VertexSmoothnessError(ValueError):
    """A vertex lies on the hypersurface with no near-power monomial."""


def check_range(n: int, d: int) -> None:
    if n < 2:
        raise UnsupportedRangeError("classification needs dimension n >= 2")
    if d < 3:
        raise UnsupportedRangeError("classification needs degree d >= 3")
    if (n, d) == (2, 4):
        raise UnsupportedRangeError("the pair (n, d) = (2, 4) is excluded")


def check_degree(d: int) -> None:
    """Refuse a degree above poly.MAX_DEGREE, the cap every parsed input obeys."""
    if d > MAX_DEGREE:
        raise CapExceededError(f"degree {d} exceeds the cap of {MAX_DEGREE}")


# -- the paper's order lists, read by the bound tables and the type-level claims --


def _product_bounds(d: int) -> tuple[int, ...]:
    return ((d - 1) * d, (d - 1) ** 2, (d - 2) * d)


def _threefold_bounds(d: int) -> tuple[int, ...]:
    return _product_bounds(d) + (d * d - 3 * d + 3, (d - 2) * (d - 1))


def _surface_bounds(d: int) -> tuple[int, ...]:
    """The six product bounds for surfaces and the length-four cycle constant.

    The published list omits the cycle constant (d-2)(d^2-2d+2) =
    ((d-1)^4 - 1)/d, the order of a symmetry of the smooth surface
    X0^(d-1)X1 + X1^(d-1)X2 + X2^(d-1)X3 + X3^(d-1)X0 with four fixed points.
    """
    q = d * d - 3 * d + 3
    return ((d - 1) ** 2 * d, (d - 1) ** 3, q * d, q * (d - 1), d * (d - 1) * (d - 2),
            (d - 2) * (d - 1) ** 2, (d - 2) * (d * d - 2 * d + 2))


# -- numeric bound generators ---------------------------------------------------


def badr_bars_divisors(d: int) -> frozenset[int]:
    """Extremal order bounds for smooth plane curves of degree d >= 4."""
    if d < 4:
        raise UnsupportedRangeError("plane-curve bounds need degree d >= 4")
    return frozenset(_product_bounds(d) + (d * d - 3 * d + 3,))


def zheng_integers(n: int, d: int) -> frozenset[int]:
    """Global order bounds for linear automorphisms in dimension n, degree d.

    Each nonempty set of distinct parts a <= n+1 with sum s <= n+2 gives the
    lcm of its chain integers |1 - (1-d)^a|, alone and with (d-1)^(b-1) for
    every b in 2..n+2-s.  Only those sets are walked, not all 2^(n+1).
    """
    if d < 3 or n < 1:
        raise UnsupportedRangeError("bounds need d >= 3 and n >= 1")
    if n + 2 > MAX_VARS:
        raise CapExceededError(f"{n + 2} variables exceed the cap of {MAX_VARS}")
    chain = [abs(1 - (1 - d) ** a) for a in range(n + 3)]
    out = {chain[n + 2] // d, (d - 1) ** (n + 1)}
    stack = [(0, 0, 1)]  # (largest part, sum, lcm) of a set of parts
    while stack:
        top, s, m = stack.pop()
        for a in range(top + 1, min(n + 1, n + 2 - s) + 1):
            head = lcm(m, chain[a])
            out.add(head)
            out.update(lcm(head, (d - 1) ** (b - 1)) for b in range(2, n + 3 - s - a))
            stack.append((a, s + a, head))
    return frozenset(out)


def theorem11_divisors(n: int, d: int, codim: int) -> frozenset[int]:
    """Order divisor lists by fixed-locus codimension (key thm-1.1)."""
    check_range(n, d)
    if codim == 1:
        return frozenset({d, d - 1, d - 2})
    if codim != 2:
        raise ValueError("codim must be 1 or 2")
    if n >= 4:
        return frozenset(_product_bounds(d))
    if n == 3:
        return frozenset(_threefold_bounds(d))
    return frozenset(_surface_bounds(d))


def theorem11_side_condition(codim: int) -> str | None:
    if codim == 1:
        return "an order of at least 3 dividing d-2 occurs only when n = 2"
    return None


# -- divisor claims ---------------------------------------------------------------


@dataclass(frozen=True)
class DivisorClaim:
    """The order divides `value`, possibly only in dimension `requires_n`."""

    value: int
    requires_n: int | None = None

    def satisfied(self, order: int, n: int) -> bool:
        if self.requires_n is not None and n != self.requires_n:
            return False
        return self.value % order == 0

    def __str__(self):
        if self.requires_n is None:
            return str(self.value)
        return f"{self.value} (n={self.requires_n})"


def claims_satisfied(claims, order: int, n: int) -> bool:
    return any(c.satisfied(order, n) for c in claims)


def theorem11_claims(n: int, d: int, codim: int) -> tuple[DivisorClaim, ...]:
    """theorem11_divisors as claims, with the codim-1 side condition on d-2.

    The side condition is stated for every order: orders 1 and 2 dividing
    d-2 also divide d or d-1, so only orders of at least 3 need n = 2.
    """
    side = {d - 2: 2} if codim == 1 else {}
    return tuple(
        DivisorClaim(x, side.get(x)) for x in sorted(theorem11_divisors(n, d, codim))
    )


def type_level_claims(normal_type: str, n: int, d: int) -> tuple[DivisorClaim, ...]:
    """Per-type divisor lists with no incidence refinement."""
    if normal_type == TYPE_I:
        return (DivisorClaim(d), DivisorClaim(d - 1))
    if normal_type == TYPE_II:
        return (DivisorClaim(d), DivisorClaim(d - 1), DivisorClaim(d - 2, 2))
    if normal_type == TYPE_IV:
        return (DivisorClaim(d - 1), DivisorClaim(d - 2, 4)) if n <= 4 else ()
    if normal_type == TYPE_III or (normal_type == TYPE_V and n == 2):
        values = _product_bounds(d)
    elif normal_type == TYPE_V and n == 3:
        values = _threefold_bounds(d)
    elif normal_type == TYPE_VI and n == 2:
        values = _surface_bounds(d)
    else:
        return ()
    return tuple(DivisorClaim(v) for v in values)


# -- normalized incidence ----------------------------------------------------------


@dataclass(frozen=True)
class NormalizedIncidence:
    """Vertex data for the non-unit block, in normal-form coordinate order.

    Positions 0..block_size-1 are the non-unit coordinates (larger eigenspace
    blocks first).  For each position: whether the vertex lies on the
    hypersurface, the partner positions inside the block, and whether a
    partner lives among the unit coordinates.  block_piece_zero records
    whether the part of F supported entirely on the block coordinates
    vanishes.
    """

    block_size: int
    on_vertices: tuple[int, ...]
    block_partners: tuple[tuple[int, ...], ...]
    unit_partner: tuple[bool, ...]
    block_piece_zero: bool


# The eigenvalue variable of each block position, per normal-form type.
_BLOCK_VARIABLES = {
    TYPE_I: (0,), TYPE_II: (0, 0), TYPE_III: (0, 1),
    TYPE_IV: (0, 0, 0), TYPE_V: (0, 0, 1), TYPE_VI: (0, 1, 2),
}


def _admissible_t_cases(normal_type: str, incidence: NormalizedIncidence):
    """(t as variable index or None for 1, required n, extra relation rows).

    These encode the structure lemmas that pin the multiplier per type: the
    multiplier is 1 for Types I and III, 1 or the block eigenvalue (surfaces
    only) for Type II, the block eigenvalue for Type IV together with the
    top-piece dichotomy, one of the block eigenvalues for Types V and VI with
    their dimension constraints.
    """
    if normal_type in (TYPE_I, TYPE_III):
        return [(None, None, [])]
    if normal_type == TYPE_II:
        return [(None, None, []), (0, 2, [])]
    if normal_type == TYPE_IV:
        # Top piece in the block variables nonzero forces multiplier a^d;
        # otherwise the degree-(d-1) piece is nonzero, which needs n = 4.
        if incidence.block_piece_zero:
            return [(0, 4, [(0, True)])]
        return [(0, None, [(0, False)])]
    if normal_type == TYPE_V:
        return [(0, None, []), (1, 2, [])]
    return [(v, None, []) for v in range(3)]  # Type VI


def _solution_exponent(rows: list[list[int]], nvars: int) -> int | None:
    """Exponent of {x in (Q/Z)^nvars : R x integral}, None when infinite."""
    if not rows:
        return None
    D, _ = smith_normal_form(rows, nvars)
    diag = [abs(D[i][i]) for i in range(min(len(rows), nvars))]
    nonzero = [x for x in diag if x]
    if len(nonzero) < nvars:
        return None
    return nonzero[-1]


@lru_cache(maxsize=4096)
def branch_claims(
    normal_type: str, n: int, d: int, incidence: NormalizedIncidence | None
) -> tuple[DivisorClaim, ...]:
    """Branch-specific divisor list derived from the certified relations.

    Every monomial certified by the incidence data (pure powers at vertices
    off the hypersurface, near-power partners at vertices on it) forces its
    character to equal the multiplier; together with the per-type multiplier
    lemma this pins the eigenvalue tuple inside a finite lattice, whose
    exponent is the divisor bound.  Running the lattice computation instead
    of a transcribed table keeps every branch constant exact.  The result
    depends on the arguments alone, all frozen, so it is memoised: a sweep
    meets the same few branches over and over (158 distinct calls among
    5,162 in both theorem 1.1 audits of 2:5, 2:6 and 3:4), and the bound
    keeps a long-lived process from growing without limit.
    """
    fallback = type_level_claims(normal_type, n, d)
    if incidence is None or not fallback:
        return fallback
    varof = _BLOCK_VARIABLES[normal_type]
    nvars = max(varof) + 1
    if incidence.block_size != len(varof):
        return fallback
    base_rows: list[list[int]] = []
    on = set(incidence.on_vertices)
    for pos in range(incidence.block_size):
        v = varof[pos]
        if pos not in on:
            row = [0] * nvars
            row[v] += d
            base_rows.append(row)
            continue
        for q in incidence.block_partners[pos]:
            row = [0] * nvars
            row[v] += d - 1
            row[varof[q]] += 1
            base_rows.append(row)
        if incidence.unit_partner[pos]:
            row = [0] * nvars
            row[v] += d - 1
            base_rows.append(row)
    if not base_rows:
        return fallback
    claims: list[DivisorClaim] = []
    for t_var, requires_n, extras in _admissible_t_cases(normal_type, incidence):
        rows = [list(r) for r in base_rows]
        for v, zero in extras:
            row = [0] * nvars
            row[v] += d - 1 if zero else d
            rows.append(row)
        for row in rows:
            if t_var is not None:
                row[t_var] -= 1
        exponent = _solution_exponent(rows, nvars)
        if exponent is None:
            return fallback
        claims.append(DivisorClaim(exponent, requires_n))
    return _absorb(claims)


def _absorb(claims: list[DivisorClaim]) -> tuple[DivisorClaim, ...]:
    # Drop a claim when another one with an equal or weaker side condition
    # has a value it divides; "ord | v" then follows from the survivor.
    unique = {(c.value, c.requires_n) for c in claims}
    out = []
    for value, req in unique:
        dominated = any(
            (ov, oreq) != (value, req)
            and ov % value == 0
            and (oreq is None or oreq == req)
            for ov, oreq in unique
        )
        if not dominated:
            out.append(DivisorClaim(value, req))
    return tuple(sorted(out, key=lambda c: (c.value, c.requires_n or 0)))


def divisor_claims(
    n: int, d: int, normal_type: str,
    incidence: NormalizedIncidence | None = None,
) -> tuple[DivisorClaim, ...]:
    """Public entry point for the branch tables, with range checking."""
    check_range(n, d)
    return branch_claims(normal_type, n, d, incidence)


# -- normal-form typing -------------------------------------------------------------


@dataclass(frozen=True)
class ComponentInstance:
    """One fixed component of codimension <= 2 and its normal-form data."""

    normal_type: str
    unit_indices: tuple[int, ...]          # original coordinates of the component block
    block_indices: tuple[int, ...]         # original coordinates, normal-form order
    slice_dim: int
    codim: int
    incidence: NormalizedIncidence | None
    claims: tuple[DivisorClaim, ...]


def _type_without(slices, unit) -> str:
    """The normal-form type of the eigenspace blocks other than unit."""
    sizes = [len(s.indices) for s in slices if s is not unit]
    total = sum(sizes)
    if total == 1:
        return TYPE_I
    if total == 2:
        return TYPE_II if len(sizes) == 1 else TYPE_III
    if total == 3:
        if len(sizes) == 1:
            return TYPE_IV
        if len(sizes) == 2:
            return TYPE_V
        return TYPE_VI
    return OUT_OF_SCOPE


def component_candidates(fix: FixedLocusReport):
    """Slices that can carry a fixed component of codimension at most two."""
    n = fix.n
    out = []
    for s in fix.slices:
        if s.dim < 0:
            continue
        if n >= 2 and s.dim < n - 2:
            continue
        out.append(s)
    return out


def normal_form_type(g: DiagAut, fix: FixedLocusReport) -> tuple[str, tuple[int, ...] | None, str | None]:
    """(type, unit block indices, reason-when-out-of-scope).

    The unit eigenvalue is chosen as the one whose eigenspace carries the
    largest fixed component; the remaining blocks determine the type.  For
    plane curves (n = 1) three distinct eigenvalues are typed VI with an
    empty unit block, matching the degenerate normal form there.
    """
    r = len(fix.slices)
    if g.is_identity():
        return OUT_OF_SCOPE, None, "identity automorphism"
    if r > 4:
        return OUT_OF_SCOPE, None, f"{r} distinct eigenvalues force codim > 2"
    if fix.n == 1:
        if r == 3:
            return TYPE_VI, (), None
        big = max(fix.slices, key=lambda s: (len(s.indices), -s.eigen_exp))
        return _type_without(fix.slices, big), big.indices, None
    candidates = component_candidates(fix)
    if not candidates:
        if fix.codim_in_x is None:
            return OUT_OF_SCOPE, None, "empty fixed locus"
        return OUT_OF_SCOPE, None, f"fixed locus has codimension {fix.codim_in_x} > 2"
    best = max(candidates, key=lambda s: (s.dim, len(s.indices), -s.eigen_exp))
    if best.dim >= fix.n:
        return OUT_OF_SCOPE, None, "the whole hypersurface is fixed"
    ntype = _type_without(fix.slices, best)
    if ntype == OUT_OF_SCOPE:
        return OUT_OF_SCOPE, None, "more than three non-unit coordinates"
    return ntype, best.indices, None


def _layout(g: DiagAut, slices, unit) -> tuple[int, ...]:
    """The coordinates in normal-form order for the component on the slice unit.

    Non-unit blocks come first, larger blocks first, ties by rescaled
    exponent; the unit coordinates come last.
    """
    others = [s for s in slices if s is not unit]
    others.sort(key=lambda s: (-len(s.indices), (s.eigen_exp - unit.eigen_exp) % g.level))
    return tuple(i for s in others for i in s.indices) + unit.indices


def _incidence(F: HomogPoly, profile, layout, m: int) -> NormalizedIncidence:
    """Normalized vertex data of F for the first m coordinates of a _layout;
    the rest are the unit block.  profile is F's incidence profile."""
    pos_of = {orig: pos for pos, orig in enumerate(layout)}
    on = []
    block_partners = []
    unit_partner = []
    for pos in range(m):
        orig = layout[pos]
        vertex_on = profile.on_hypersurface[orig]
        if vertex_on:
            on.append(pos)
            if not profile.partners[orig]:
                raise VertexSmoothnessError(
                    f"vertex P{orig} lies on the hypersurface with no "
                    "near-power monomial; the hypersurface is singular there"
                )
        bp = []
        up = False
        for j in profile.partners[orig]:
            p = pos_of[j]
            if p < m:
                bp.append(p)
            else:
                up = True
        block_partners.append(tuple(sorted(bp)))
        unit_partner.append(up)
    # The block piece (F with the unit coordinates set to zero) vanishes when
    # every monomial involves a unit coordinate.
    unit = layout[m:]
    block_piece_zero = all(any(mon[i] for i in unit) for mon in F.terms)
    return NormalizedIncidence(
        block_size=m,
        on_vertices=tuple(on),
        block_partners=tuple(block_partners),
        unit_partner=tuple(unit_partner),
        block_piece_zero=block_piece_zero,
    )


def classify_instances(
    F: HomogPoly, g: DiagAut, fix: FixedLocusReport, n: int, d: int,
    memo: dict | None = None,
) -> tuple[ComponentInstance, ...]:
    """One ComponentInstance per codim <= 2 fixed component of g.

    Calls on one F may share a memo dict of what depends on F alone: its
    incidence profile (key None) and each incidence by (layout, block size),
    since one layout can come from unit blocks of different sizes.
    """
    if g.is_identity():
        return ()
    if memo is None:
        memo = {}
    out = []
    for s in component_candidates(fix):
        if s.dim >= n:
            continue
        ntype = _type_without(fix.slices, s)
        if ntype == OUT_OF_SCOPE:
            continue
        layout = _layout(g, fix.slices, s)
        m = len(layout) - len(s.indices)
        incidence = memo.get((layout, m))
        if incidence is None:
            if None not in memo:
                memo[None] = F.support_queries()
            incidence = memo[layout, m] = _incidence(F, memo[None], layout, m)
        out.append(
            ComponentInstance(
                normal_type=ntype,
                unit_indices=s.indices,
                block_indices=layout[:m],
                slice_dim=s.dim,
                codim=n - s.dim,
                incidence=incidence,
                claims=branch_claims(ntype, n, d, incidence),
            )
        )
    return tuple(out)


# -- rationality ---------------------------------------------------------------------


RATIONAL_ISO_PN = "rational-iso-pn"
RATIONAL = "rational"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class RationalityReport:
    status: str
    primary: str | None
    fired: tuple[str, ...]
    warnings: tuple[str, ...] = ()


def rationality_verdict(
    n: int,
    d: int,
    order: int,
    fix: FixedLocusReport,
    normal_type: str,
    galois: GaloisVerdict,
) -> RationalityReport:
    """All rationality criteria that fire, strongest first.

    The quotient-is-projective-space conclusion outranks plain rationality.
    The thm-4.5-corrected warning marks the regime where the older
    Galois-point conclusion fails: order k(d-1) with k >= 2, a threefold,
    codimension-two fixed locus containing a line.
    """
    codim = fix.codim_in_x
    multiple_of_d = order % d == 0 and order // d >= 2
    multiple_of_d1 = order % (d - 1) == 0 and order // (d - 1) >= 2
    fired: list[tuple[str, str]] = []

    if d >= 4 and order == d and codim == 1:
        fired.append(("thm-2.5-ii-b", RATIONAL_ISO_PN))
    if galois.galois:
        fired.append(("thm-2.3", RATIONAL))
    if d >= 4 and order == d - 1 and n >= 3 and codim == 1:
        fired.append(("thm-2.5-i-c", RATIONAL))
    if n == 2 and d >= 5 and order == d - 2 and order >= 2 and codim == 1:
        fired.append(("thm-2.8-a", RATIONAL))
    if n == 2 and d >= 5 and order == d - 1 and fix.contains_line is True:
        fired.append(("thm-2.8-b", RATIONAL))
    if (
        n == 2 and d >= 5 and order == d and codim == 2
        and fix.point_count is not None and fix.point_count >= d + 3
    ):
        fired.append(("thm-2.8-c", RATIONAL))
    if normal_type == TYPE_I and order in (d, d - 1) and order >= 2:
        fired.append(("thm-3.3", RATIONAL))
    if normal_type == TYPE_II and order >= 3 and order in (d, d - 1, d - 2):
        fired.append(("thm-3.7", RATIONAL))
    if normal_type == TYPE_III and (multiple_of_d or multiple_of_d1):
        fired.append(("thm-3.12", RATIONAL))
    if normal_type == TYPE_IV and order >= 2 and order in (d - 1, d - 2):
        fired.append(("thm-3.14", RATIONAL))
    if normal_type == TYPE_V and (multiple_of_d or multiple_of_d1):
        fired.append(("thm-3.18", RATIONAL))
    if codim == 1 and order >= 3 and (
        order in (d, d - 1) or (order == d - 2 and d >= 5)
    ):
        fired.append(("thm-1.2-i", RATIONAL))
    if codim == 1 and (multiple_of_d or multiple_of_d1):
        fired.append(("thm-1.2-ii", RATIONAL))

    warnings = []
    if (
        n == 3 and codim == 2 and fix.contains_line is True
        and order % (d - 1) == 0 and order // (d - 1) >= 2
    ):
        warnings.append("thm-4.5-corrected")

    if not fired:
        return RationalityReport(UNKNOWN, None, (), tuple(warnings))
    status = RATIONAL_ISO_PN if fired[0][1] == RATIONAL_ISO_PN else RATIONAL
    return RationalityReport(
        status, fired[0][0], tuple(k for k, _ in fired), tuple(warnings)
    )


# -- the one-stop classifier -----------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedCase:
    n: int
    d: int
    order: int
    normal_type: str
    out_of_scope_reason: str | None
    multiplier_t: CycloNum | None
    codim: int | None
    component: ComponentInstance | None
    instances: tuple[ComponentInstance, ...]
    claims: tuple[DivisorClaim, ...]
    rationality: RationalityReport
    galois: GaloisVerdict
    warnings: tuple[str, ...]


def classify_case(
    F: HomogPoly, g: DiagAut, fix: FixedLocusReport
) -> ClassifiedCase:
    """Full classification of (F, g): type, branch claims, verdicts."""
    n = F.num_vars - 2
    d = F.degree
    check_range(n, d)
    t = root_of_unity(g.level, fix.character)
    order = g.order_in_pgl()
    instances = classify_instances(F, g, fix, n, d)
    ntype, unit, reason = normal_form_type(g, fix)
    component = next((inst for inst in instances if inst.unit_indices == unit), None)
    claims = component.claims if component else ()
    galois = galois_by_theorem(F, g, fix)
    rationality = rationality_verdict(n, d, order, fix, ntype, galois)
    return ClassifiedCase(
        n=n,
        d=d,
        order=order,
        normal_type=ntype,
        out_of_scope_reason=reason,
        multiplier_t=t,
        codim=fix.codim_in_x,
        component=component,
        instances=instances,
        claims=claims,
        rationality=rationality,
        galois=galois,
        warnings=rationality.warnings,
    )
