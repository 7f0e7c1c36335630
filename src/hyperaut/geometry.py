"""Geometric certificates: exact smoothness, fixed loci, projection degrees.

Smoothness is decided in two stages.  A cheap vertex screen catches
coordinate points that lie on the hypersurface with no near-power monomial
(all partials vanish there, an explicit singular point).  The full test
checks that the Jacobian ideal contains every form of degree
e = (n+2)(d-2)+1: for a smooth hypersurface the partials are a regular
sequence whose Artinian quotient has socle degree (n+2)(d-2), so the degree-e
graded piece of the ideal fills up exactly when the hypersurface is smooth
(characteristic zero).  Full rank of the sparse Macaulay matrix proves
smoothness; a rank deficit proves that a singular point exists (without
naming one).  One elimination kernel computes that rank along one of three
coefficient paths, recorded in the certificate's `path`:

- "rational": every coefficient is rational, and the matrix is eliminated
  exactly over Q with Fraction entries.  Sound in both directions.
- "modular": some coefficient is irrational.  With L the lcm of the
  coefficient levels, zeta_L is sent to an element of order L in F_p for a
  prime p = 1 (mod L).  A full rank mod p proves full rank in Q(zeta_L),
  so this path only ever certifies *smooth*.
- "cyclotomic": the exact elimination over Q(zeta_L) with CycloNum entries,
  run when the modular rank falls short, a denominator is divisible by p, or
  the modular fill-in hits its cap.  Sound in both directions.

So every *singular* verdict of the rank test comes from an exact path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import isqrt, lcm

from .autgrp import CapExceededError, DiagAut, character
from .cyclo import CycloNum, _frac_poly_divmod, rational
from .poly import HomogPoly, Monomial, NotSemiInvariantError, monomials_of_degree

DEFAULT_ENTRY_CAP = 200_000
_MODULAR_FLOOR = 2 ** 29


# -- smoothness ----------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCertificate:
    verdict: str                       # "smooth" | "singular" | "inconclusive"
    method: str | None                 # "vertex_screen" | "macaulay_rank"
    witness: tuple[int, ...] | None = None   # coordinate point, when known
    reason: str | None = None
    rank: int | None = None
    target_rank: int | None = None
    path: str | None = None            # "rational" | "modular" | "cyclotomic"

    @property
    def is_smooth(self) -> bool:
        return self.verdict == "smooth"

    def witness_str(self) -> str | None:
        if self.witness is None:
            return None
        return "[" + ":".join(str(c) for c in self.witness) + "]"


def smoothness(F: HomogPoly, entry_cap: int = DEFAULT_ENTRY_CAP) -> SmoothnessCertificate:
    """Exact smoothness certificate for the hypersurface F = 0."""
    if F.is_zero():
        raise ValueError("the zero polynomial does not define a hypersurface")
    profile = F.support_queries()
    for i in profile.missing_near_power:
        point = tuple(1 if j == i else 0 for j in range(F.num_vars))
        return SmoothnessCertificate(
            verdict="singular",
            method="vertex_screen",
            witness=point,
            reason=f"all partials vanish at the coordinate point P{i}",
        )
    return _macaulay_certificate(F, entry_cap)


def _macaulay_certificate(F: HomogPoly, entry_cap: int) -> SmoothnessCertificate:
    if F.degree < 2:
        return SmoothnessCertificate(
            verdict="smooth", method="macaulay_rank",
            reason="degree below 2, a linear form is smooth",
        )
    partials, gmons, e, target = _macaulay_system(F)
    entries = sum(len(p.terms) for p in partials) * len(gmons)
    if entries > entry_cap:
        return SmoothnessCertificate(
            verdict="inconclusive", method="macaulay_rank",
            reason=f"matrix would hold {entries} entries, cap is {entry_cap}",
        )
    fill_cap = max(16 * entry_cap, 10 ** 6)
    coeffs = [c for p in partials for c in p.terms.values()]
    path = "rational" if all(c.is_rational() for c in coeffs) else "modular"
    try:
        rank = _macaulay_rank(partials, gmons, target, path, fill_cap)
        if path == "modular" and rank != target:
            path = "cyclotomic"
            rank = _macaulay_rank(partials, gmons, target, path, fill_cap)
    except CapExceededError as exc:
        return SmoothnessCertificate(
            verdict="inconclusive", method="macaulay_rank", reason=str(exc),
            path=path,
        )
    if rank == target:
        return SmoothnessCertificate(
            verdict="smooth", method="macaulay_rank", rank=rank, target_rank=target,
            path=path,
        )
    return SmoothnessCertificate(
        verdict="singular", method="macaulay_rank",
        reason=(
            f"the partial derivatives only span {rank} of the {target} "
            f"degree-{e} forms"
        ),
        rank=rank, target_rank=target, path=path,
    )


def _macaulay_system(F: HomogPoly):
    """Partials, multiplier monomials, saturating degree e and the target rank."""
    v, d = F.num_vars, F.degree
    e = v * (d - 2) + 1
    partials = [p for p in (F.partial(i) for i in range(v)) if not p.is_zero()]
    gmons = monomials_of_degree(v, e - (d - 1))
    return partials, gmons, e, len(monomials_of_degree(v, e))


def _macaulay_rank(partials, gmons, target: int, path: str, fill_cap: int) -> int | None:
    """Rank of the Macaulay matrix, stopping at target, along one coefficient path.

    "rational" reads every coefficient as a Fraction, "cyclotomic" keeps the
    CycloNum values, and "modular" maps them into F_p (see _modular_map).
    The modular rank is a lower bound for the exact one; it is None when the
    map does not apply or the elimination hits fill_cap, so a caller can only
    take a full modular rank as an answer.
    """
    if path == "rational":
        prime, convert = None, lambda c: c.coeffs[0]
    elif path == "cyclotomic":
        prime, convert = None, lambda c: c
    else:
        prime, convert = _modular_map(
            [c for p in partials for c in p.terms.values()]
        )
    rows: list[dict[Monomial, object]] = []
    for p in partials:
        items = [(m, convert(c)) for m, c in p.terms.items()]
        if any(c is None for _, c in items):
            return None
        items = [(m, c) for m, c in items if c]
        for g in gmons:
            rows.append(
                {tuple(a + b for a, b in zip(g, m)): c for m, c in items}
            )
    try:
        return _sparse_rank(rows, stop_at=target, fill_cap=fill_cap, prime=prime)
    except CapExceededError:
        if prime is None:
            raise
        return None


def _modular_map(coeffs):
    """A prime p and a ring map from the coefficients' field into F_p.

    With L the lcm of the coefficient levels, p is a prime above 2^29 with
    p = 1 (mod L), so F_p holds an element omega of order L;
    zeta_L maps to omega and zeta_l to omega^(L/l).  This is a ring map
    Z[zeta_L] -> F_p, and it extends to every coefficient whose rational
    coordinates have denominators prime to p; the converter returns None on
    the others.  A nonzero minor mod p is the image of a nonzero minor.
    """
    level = reduce(lcm, (c.level for c in coeffs), 1)
    p, omega = _prime_with_root(level)

    def convert(c: CycloNum) -> int | None:
        step = level // c.level
        total = 0
        for k, q in enumerate(c.coeffs):
            if q:
                if q.denominator % p == 0:
                    return None
                total += q.numerator * pow(q.denominator, -1, p) * pow(omega, k * step, p)
        return total % p

    return p, convert


@lru_cache(maxsize=None)
def _prime_with_root(level: int) -> tuple[int, int]:
    """(p, omega): a prime p > 2^29 with p = 1 (mod level), omega of order level."""
    p = (_MODULAR_FLOOR // level + 1) * level + 1
    while not _is_prime(p):
        p += level
    factors = [q for q in range(2, level + 1) if level % q == 0 and _is_prime(q)]
    for base in range(2, p):
        omega = pow(base, (p - 1) // level, p)
        if all(pow(omega, level // q, p) != 1 for q in factors):
            return p, omega
    raise AssertionError("unreachable: F_p* is cyclic")


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % q for q in range(2, isqrt(m) + 1))


def _sparse_rank(rows, stop_at: int | None = None, fill_cap: int = 10 ** 7,
                 prime: int | None = None) -> int:
    """Rank of a sparse matrix given as row dicts over a field.

    Gaussian elimination without pivot search: each row, shortest first, is
    reduced against the pivot rows found so far, and what is left of it is
    stored as a new pivot row keyed by its least column.  A pivot row is
    normalized (scaled to lead 1, one inverse) only when it is first used,
    so a pivot that never reduces a row costs no division; a single-entry
    pivot reduces a row by deleting its column, with no arithmetic at all.
    Entries must be field elements (Fraction or CycloNum, both exact), or,
    when prime is given, ints in [1, prime) read in F_prime.  Plain int
    entries without a prime would divide into floats.  Raises
    CapExceededError if the pivot rows hold more than fill_cap entries.
    """
    pivots: dict = {}
    unscaled: set = set()
    rank = 0
    stored = 0
    for row in sorted(rows, key=len):
        r = dict(row)
        while True:
            hit = None
            for col in r:
                if col in pivots:
                    hit = col
                    break
            if hit is None:
                break
            factor = r.pop(hit)
            pivot = pivots[hit]
            if len(pivot) == 1:
                continue
            if hit in unscaled:
                unscaled.remove(hit)
                inv = 1 / pivot[hit] if prime is None else pow(pivot[hit], -1, prime)
                for col, val in pivot.items():
                    pivot[col] = val * inv if prime is None else val * inv % prime
            for col, val in pivot.items():
                if col == hit:
                    continue
                cur = r.get(col)
                cur = -factor * val if cur is None else cur - factor * val
                if prime is not None:
                    cur %= prime
                if cur:
                    r[col] = cur
                else:
                    r.pop(col, None)
        if not r:
            continue
        lead = min(r)
        pivots[lead] = r
        unscaled.add(lead)
        stored += len(r)
        if stored > fill_cap:
            raise CapExceededError(
                f"elimination fill-in exceeded {fill_cap} stored entries"
            )
        rank += 1
        if stop_at is not None and rank >= stop_at:
            break
    return rank


# -- fixed locus -----------------------------------------------------------------


@dataclass(frozen=True)
class SliceInfo:
    """One eigenspace slice P(W) of the fixed locus."""

    indices: tuple[int, ...]
    eigen_exp: int
    ambient_dim: int            # dim P(W)
    restriction_zero: bool
    dim: int                    # dim of P(W) meet X; -1 when empty
    point_count: int | None     # exact count when the slice is finite


@dataclass(frozen=True)
class FixedLocusReport:
    n: int
    slices: tuple[SliceInfo, ...]
    codim_in_x: int | None      # None when the fixed locus is empty
    contains_line: bool | None  # None means undecided
    point_count: int | None     # total, when the fixed locus is finite

    def slices_of_codim_le(self, bound: int) -> tuple[SliceInfo, ...]:
        return tuple(s for s in self.slices if s.dim >= 0 and self.n - s.dim <= bound)


def fixed_locus(F: HomogPoly, g: DiagAut) -> FixedLocusReport:
    """Per-eigenspace decomposition of the fixed point set on X.

    Requires g to act on F by a single scalar; raises NotSemiInvariantError
    otherwise.  Isolated fixed points on one-dimensional slices are counted
    without multiplicity; for a verified-smooth hypersurface a repeated root
    of the restricted binary form cannot occur, so the distinction only
    matters on unverified inputs.  Line containment is decided only for full
    linear slices; a positive-dimensional slice that is a hypersurface in
    its eigenspace leaves contains_line undecided (None).
    """
    character(F, g)
    n = F.num_vars - 2
    slices = []
    for block in g.eigen_structure().blocks:
        complement = [i for i in range(F.num_vars) if i not in block.indices]
        restriction = F.restrict(complement) if complement else F
        zero = restriction.is_zero()
        ambient = len(block.indices) - 1
        if zero:
            dim = ambient
            count = 1 if ambient == 0 else None
        elif ambient == 0:
            dim = -1
            count = 0
        else:
            dim = ambient - 1
            count = (
                _distinct_binary_roots(restriction, block.indices)
                if ambient == 1
                else None
            )
        slices.append(
            SliceInfo(
                indices=tuple(block.indices),
                eigen_exp=block.exp,
                ambient_dim=ambient,
                restriction_zero=zero,
                dim=dim,
                point_count=count,
            )
        )
    dims = [s.dim for s in slices if s.dim >= 0]
    codim = (n - max(dims)) if dims else None
    if any(s.restriction_zero and s.ambient_dim >= 1 for s in slices):
        line: bool | None = True
    elif all(s.dim <= 0 for s in slices):
        line = False
    else:
        line = None
    if dims and all(s.dim <= 0 for s in slices):
        total = sum(s.point_count for s in slices if s.dim == 0)
    else:
        total = None
    return FixedLocusReport(
        n=n,
        slices=tuple(slices),
        codim_in_x=codim,
        contains_line=line,
        point_count=total,
    )


def _distinct_binary_roots(restriction: HomogPoly, indices) -> int:
    """Distinct projective roots of a nonzero binary form, without multiplicity."""
    i, j = indices
    deg = restriction.degree
    coeffs = [rational(0)] * (deg + 1)
    for mon, c in restriction.terms.items():
        coeffs[mon[i]] = c
    # Dehomogenize with respect to X_j; the point with X_j = 0 is a root
    # exactly when the top coefficient vanishes.
    p = list(coeffs)
    while p and not p[-1]:
        p.pop()
    at_infinity = 1 if len(p) <= deg else 0
    dp = [p[k] * k for k in range(1, len(p))]
    # The last nonzero remainder of Euclid's algorithm on p and p' is their gcd.
    a, b = p, dp
    while b:
        a, b = b, _frac_poly_divmod(a, b)[1]
    distinct_finite = (len(p) - 1) - (len(a) - 1)
    return distinct_finite + at_infinity


# -- projections and the Galois criterion --------------------------------------


def projection_degree(F: HomogPoly, r_plane, complement) -> int:
    """Degree of the projection of X from the pair of coordinate subspaces.

    r_plane and complement are index sets spanning the two subspaces; they
    must partition the coordinates.  Each contained subspace (restriction of
    F identically zero on it) lowers the generic fiber count by one.
    """
    r_plane = sorted(set(r_plane))
    complement = sorted(set(complement))
    if sorted(r_plane + complement) != list(range(F.num_vars)):
        raise ValueError("index sets must partition the coordinates")
    if not r_plane or not complement:
        raise ValueError("both subspaces must be nonempty")
    first_in = F.restrict(complement).is_zero()
    second_in = F.restrict(r_plane).is_zero()
    return F.degree - int(first_in) - int(second_in)


@dataclass(frozen=True)
class GaloisVerdict:
    galois: bool
    m: int | None = None
    scaled_block: tuple[int, ...] | None = None   # coordinates carrying e_m
    unit_block: tuple[int, ...] | None = None
    galois_point: bool = False                    # projection from a single point
    theorem: str | None = None
    reason: str | None = None

    @classmethod
    def no(cls, reason: str) -> "GaloisVerdict":
        return cls(galois=False, reason=reason)


def galois_by_theorem(F: HomogPoly, g: DiagAut) -> GaloisVerdict:
    """Projection-is-Galois criterion for two-eigenvalue diagonal actions.

    Fires when g can be scaled to e_m on one coordinate block and 1 on the
    other with m equal to the degree of the induced projection; the quotient
    X / <g> is then rational (key thm-2.3).
    """
    try:
        character(F, g)
    except NotSemiInvariantError:
        return GaloisVerdict.no("not an automorphism of the hypersurface")
    structure = g.eigen_structure()
    if structure.r != 2:
        return GaloisVerdict.no(f"needs exactly 2 eigenvalues, found {structure.r}")
    m = g.order_in_pgl()
    if m < 2:
        return GaloisVerdict.no("the identity gives no projection")
    blocks = sorted(structure.blocks, key=lambda b: b.indices[0])
    for scaled, unit in ((blocks[0], blocks[1]), (blocks[1], blocks[0])):
        deg = projection_degree(F, scaled.indices, unit.indices)
        if deg == m:
            return GaloisVerdict(
                galois=True,
                m=m,
                scaled_block=tuple(scaled.indices),
                unit_block=tuple(unit.indices),
                galois_point=(len(scaled.indices) == 1),
                theorem="thm-2.3",
            )
    return GaloisVerdict.no(
        f"order {m} does not match the projection degree for either split"
    )
