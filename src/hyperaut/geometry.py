"""Geometric certificates: exact smoothness, fixed loci, projection degrees.

Smoothness is settled by the cheapest certificate that is sound for the
verdict it gives.  The steps run in this order, and `method` records the
one that decided:

- "vertex_screen" proves *singular* only.  A coordinate point on the
  hypersurface with no near-power monomial is an explicit singular point
  (all partials vanish there).
- "line_screen" proves *singular* only.  For each coordinate line, in
  lexicographic order, F and its partials are restricted to the line and the
  gcd of the binary forms is taken exactly (Euclid over Q or Q(zeta)).  A
  non-constant gcd, or every restriction vanishing identically, gives a
  common root on the line, a singular point (without naming it).  This
  catches the Kreuzer-Skarke singularities of delta polynomials, where some
  vertex is the image of two others.
- "macaulay_rank" decides both ways.  It checks that the Jacobian ideal
  contains every form of degree e = (n+2)(d-2)+1: for a smooth hypersurface
  the partials are a regular sequence whose Artinian quotient has socle
  degree (n+2)(d-2), so the degree-e graded piece of the ideal fills up
  exactly when the hypersurface is smooth (characteristic zero).  Full rank
  of the sparse Macaulay matrix proves smoothness; a rank deficit proves that
  a singular point exists.

One elimination kernel computes that rank along the coefficient path
recorded in the certificate's `path`:

- "modular", tried first for every input.  With L the lcm of the coefficient
  levels, zeta_L is sent to an element of order L in F_p for a prime
  p = 1 (mod L).  A full rank mod p proves full rank over Q(zeta_L), so this
  path only ever certifies *smooth*.
- "rational" (every coefficient rational) or "cyclotomic" (some coefficient
  irrational): the exact elimination with Fraction or CycloNum entries, run
  when the modular rank falls short, a denominator is divisible by p, or the
  modular fill-in hits its cap.  Sound in both directions.

So every *singular* verdict comes from an exact source: a screen or an
exact elimination.

The fixed locus of a diagonal automorphism splits into its eigenspace
slices; F is split into the matching pieces in one pass over its terms.  A
slice on a line is finite unless its piece vanishes, and its points are
counted by the binary gcd of the line screen: the distinct roots of the
piece f number deg f minus the degree of the gcd of its two partials, with
Fraction arithmetic when f is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, isqrt, lcm

from .autgrp import CapExceededError, DiagAut, character
from .cyclo import ZERO, CycloNum, _frac_poly_divmod
from .poly import HomogPoly, Monomial, NotSemiInvariantError, monomials_of_degree

DEFAULT_ENTRY_CAP = 200_000
_MODULAR_FLOOR = 2 ** 29


# -- smoothness ----------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCertificate:
    verdict: str                       # "smooth" | "singular" | "inconclusive"
    method: str | None    # "vertex_screen" | "line_screen" | "macaulay_rank"
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
    """Exact smoothness certificate for the hypersurface F = 0.

    The vertex and line screens can only prove *singular*; what they miss
    goes to the rank test (see the module docstring).
    """
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
    return _line_screen(F) or _macaulay_certificate(F, entry_cap)


def _line_screen(F: HomogPoly) -> SmoothnessCertificate | None:
    """A singular certificate from a common root on a coordinate line, or None."""
    forms = [F] + [F.partial(i) for i in range(F.num_vars)]
    rational_coeffs = all(c.is_rational() for c in F.terms.values())
    for j in range(F.num_vars):
        for k in range(j + 1, F.num_vars):
            deg = _line_gcd_degree(forms, j, k, rational_coeffs)
            if deg == 0:
                continue
            line = f"the line through P{j} and P{k}"
            return SmoothnessCertificate(
                verdict="singular", method="line_screen",
                reason=(
                    f"F and all its partials vanish on {line}" if deg is None
                    else f"F and all its partials share a degree-{deg} factor on {line}"
                ),
            )
    return None


def _line_gcd_degree(forms, j: int, k: int, rational_coeffs: bool) -> int | None:
    """Degree of the gcd of the forms restricted to the (j, k) line, None if all vanish.

    A restriction is a binary form in X_j, X_k.  It splits as a power of X_j
    times a power of X_k times a part with neither root; the gcd takes the
    least power of each and Euclid's gcd of the parts, read as polynomials
    in X_j / X_k.
    """
    zero = Fraction(0) if rational_coeffs else ZERO
    low = high = None
    gcd = None
    for p in forms:
        coeffs = {
            m[j]: c.coeffs[0] if rational_coeffs else c
            for m, c in p.terms.items() if m[j] + m[k] == p.degree
        }
        if not coeffs:
            continue
        lo, hi = min(coeffs), max(coeffs)
        part = [coeffs.get(e, zero) for e in range(lo, hi + 1)]
        if gcd is None:
            low, high, gcd = lo, p.degree - hi, part
        else:
            low, high = min(low, lo), min(high, p.degree - hi)
            # Euclid, stopping at a constant remainder: the gcd is then 1.
            while len(part) > 1:
                gcd, part = part, _frac_poly_divmod(gcd, part)[1]
            gcd = part or gcd
        if low == high == 0 and len(gcd) == 1:
            return 0
    return None if gcd is None else low + high + len(gcd) - 1


def _macaulay_certificate(F: HomogPoly, entry_cap: int) -> SmoothnessCertificate:
    if F.degree < 2:
        return SmoothnessCertificate(
            verdict="smooth", method="macaulay_rank",
            reason="degree below 2, a linear form is smooth",
        )
    try:
        partials, gmons, e, target = _macaulay_system(F, entry_cap)
    except CapExceededError as exc:
        return SmoothnessCertificate(
            verdict="inconclusive", method="macaulay_rank", reason=str(exc),
        )
    fill_cap = max(16 * entry_cap, 10 ** 6)
    rational_coeffs = all(c.is_rational() for p in partials for c in p.terms.values())
    path = "modular"
    try:
        rank = _macaulay_rank(partials, gmons, target, path, fill_cap)
        if rank != target:
            path = "rational" if rational_coeffs else "cyclotomic"
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


def _macaulay_system(F: HomogPoly, entry_cap: int = DEFAULT_ENTRY_CAP):
    """Partials, multiplier monomials, saturating degree e and the target rank.

    The matrix size is counted before any monomial is enumerated, and a
    matrix of more than entry_cap entries raises CapExceededError.
    """
    v, d = F.num_vars, F.degree
    e = v * (d - 2) + 1
    partials = [p for p in (F.partial(i) for i in range(v)) if not p.is_zero()]
    # There are comb(k + v - 1, v - 1) monomials of degree k in v variables.
    entries = sum(len(p.terms) for p in partials) * comb(e - d + v, v - 1)
    if entries > entry_cap:
        raise CapExceededError(f"matrix would hold {entries} entries, cap is {entry_cap}")
    return partials, monomials_of_degree(v, e - (d - 1)), e, comb(e + v - 1, v - 1)


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


def fixed_locus(F: HomogPoly, g: DiagAut) -> FixedLocusReport:
    """Per-eigenspace decomposition of the fixed point set on X.

    Requires g to act on F by a single scalar; raises NotSemiInvariantError
    otherwise.  F is split into its eigenspace pieces in one pass over its
    terms.  Isolated fixed points on one-dimensional slices are counted
    without multiplicity: the count is the degree of the piece, a binary
    form f, minus the degree of the gcd of its two partials (the repeated
    part of f, by Euler's relation), taken by the same exact binary gcd as
    the line screen.  For a verified-smooth hypersurface a repeated root
    cannot occur, so the distinction only matters on unverified inputs.
    Line containment is decided only for full linear slices; a
    positive-dimensional slice that is a hypersurface in its eigenspace
    leaves contains_line undecided (None).
    """
    character(F, g)
    n = F.num_vars - 2
    blocks = g.eigen_structure().blocks
    slices = []
    for block, piece in zip(blocks, _eigen_pieces(F, blocks)):
        zero = not piece
        ambient = len(block.indices) - 1
        if zero:
            dim = ambient
            count = 1 if ambient == 0 else None
        elif ambient == 0:
            dim = -1
            count = 0
        else:
            dim = ambient - 1
            count = None
            if ambient == 1:
                f = HomogPoly(F.num_vars, F.degree, piece)
                count = _distinct_binary_roots(f, *block.indices)
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


def _eigen_pieces(F: HomogPoly, blocks) -> list[dict[Monomial, CycloNum]]:
    """The terms of F restricted to each block's coordinates, in one pass.

    A monomial belongs to the block that holds its whole support, if any.
    """
    if F.degree == 0:  # a constant restricts to itself on every block
        return [dict(F.terms) for _ in blocks]
    owner = [0] * F.num_vars
    for b, block in enumerate(blocks):
        for i in block.indices:
            owner[i] = b
    pieces: list[dict[Monomial, CycloNum]] = [{} for _ in blocks]
    for mon, c in F.terms.items():
        held = {owner[i] for i, e in enumerate(mon) if e}
        if len(held) == 1:
            pieces[held.pop()][mon] = c
    return pieces


def _distinct_binary_roots(f: HomogPoly, j: int, k: int) -> int:
    """Distinct projective roots of a nonzero binary form f in X_j, X_k.

    In characteristic zero the gcd of the two partials is the repeated part
    of f: the product of l^(e-1) over the linear factors l^e of f, since
    Euler's relation deg(f) f = X_j f_j + X_k f_k makes every common factor
    of the partials divide f.  So the count is deg f minus the degree of
    gcd(f_j, f_k).  Both partials vanish only when f is a constant, which
    has no roots.
    """
    rational_coeffs = all(c.is_rational() for c in f.terms.values())
    repeated = _line_gcd_degree([f.partial(j), f.partial(k)], j, k, rational_coeffs)
    return f.degree - (repeated or 0)


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
