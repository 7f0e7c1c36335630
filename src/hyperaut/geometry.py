"""Geometric certificates: exact smoothness and fixed loci.

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
- The component split (Thom-Sebastiani) chooses what the rank test sees.
  Join two variables when a monomial of F uses both.  If that graph has
  several components, F = F_1 + ... + F_k in disjoint variables, and X is
  smooth iff every F_c with two or more variables is smooth in its own
  projective space: the partials of F vanish at a point exactly when each
  F_c's partials vanish at its coordinates in F_c's variables, and by
  Euler's relation F_c vanishes there too, so either a nonzero part is a
  singular point of F_c = 0 or all parts are zero, which no point is.  A
  one-variable part c*X_i^d has no singular point (a variable F does not
  use was already refused by the vertex screen).  Each part gets its own
  rank test, the certificate's `components` lists the ones that built a
  matrix, and a part's singular or inconclusive certificate is F's answer,
  its reason prefixed by the part's variables.  A connected F goes to the
  rank test whole.
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
Fraction arithmetic when f is rational.  A slice depends only on F and its
block of coordinates, so fixed_loci computes each block's slice once for all
the elements of one F.  The resulting FixedLocusReport is the one record of
g's eigenspaces: normal-form typing, the branch incidence and the Galois
criterion below all read blocks, exponents and containment from its slices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from math import comb, isqrt, lcm
from operator import add

from .autgrp import CapExceededError, DiagAut, character
from .cyclo import ZERO, CycloNum, _poly_divmod
from .poly import HomogPoly, Monomial, monomials_of_degree

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
    # (indices, path, rank, target_rank) of each component whose rank test
    # built a matrix, when F was split into components; empty otherwise.
    components: tuple[tuple[tuple[int, ...], str, int, int], ...] = ()

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
    goes to the rank test, one connected component of the support at a time
    (see the module docstring).
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
    return _line_screen(F) or _split_certificate(F, entry_cap)


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
                gcd, part = part, _poly_divmod(gcd, part)[1]
            gcd = part or gcd
        if low == high == 0 and len(gcd) == 1:
            return 0
    return None if gcd is None else low + high + len(gcd) - 1


def _components(F: HomogPoly) -> list[tuple[int, ...]]:
    """The variables of F grouped by shared monomials, by least index.

    One union-find pass over the terms; a variable F does not use is a
    component of its own.
    """
    parent = list(range(F.num_vars))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for mon in F.terms:
        used = [i for i, e in enumerate(mon) if e]
        for i in used[1:]:
            a, b = sorted((root(used[0]), root(i)))
            parent[b] = a
    groups: dict[int, list[int]] = {}
    for i in range(F.num_vars):
        groups.setdefault(root(i), []).append(i)
    return [tuple(g) for g in groups.values()]


def _split_certificate(F: HomogPoly, entry_cap: int) -> SmoothnessCertificate:
    """The rank test on each connected component of F's support.

    A connected F, or one of degree below 2, gets the rank test whole.
    Otherwise each component with two or more variables is tested in its
    own variables; one-variable components are smooth.  Every variable must
    occur in F, which the vertex screen ensures (see the module docstring).
    """
    components = _components(F)
    if F.degree < 2 or len(components) == 1:
        return _macaulay_certificate(F, entry_cap)
    built = []
    undecided = None
    for indices, piece in zip(components, _eigen_pieces(F, components)):
        if len(indices) == 1:
            continue
        part = HomogPoly(len(indices), F.degree, {
            tuple(mon[i] for i in indices): c for mon, c in piece.items()
        })
        cert = _macaulay_certificate(part, entry_cap)
        if cert.is_smooth:
            built.append((indices, cert.path, cert.rank, cert.target_rank))
            continue
        names = ", ".join(f"X{i}" for i in indices)
        cert = replace(cert, reason=f"on {names}: {cert.reason}")
        if cert.verdict == "singular":
            return cert
        undecided = undecided or cert
    return undecided or SmoothnessCertificate(
        verdict="smooth", method="macaulay_rank", components=tuple(built),
    )


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
    columns = _macaulay_columns(partials, gmons)
    path = "modular"
    try:
        rank = _macaulay_rank(partials, columns, target, path, fill_cap)
        if rank != target:
            path = "rational" if rational_coeffs else "cyclotomic"
            rank = _macaulay_rank(partials, columns, target, path, fill_cap)
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


def _macaulay_columns(partials, gmons) -> list[list[Monomial]]:
    """The column keys of the Macaulay rows: for each partial, its monomials
    shifted by each multiplier g in gmons, one run of keys per g.

    They are the same on every coefficient path, so a certificate builds
    them once and each path only converts the partials' coefficients.
    """
    return [[tuple(map(add, g, m)) for g in gmons for m in p.terms] for p in partials]


def _macaulay_rank(partials, columns, target: int, path: str, fill_cap: int) -> int | None:
    """Rank of the Macaulay matrix, stopping at target, along one coefficient path.

    "rational" reads every coefficient as a Fraction, "cyclotomic" keeps the
    CycloNum values, and "modular" maps them into F_p (see _modular_map).
    The modular rank is a lower bound for the exact one; it is None when the
    map does not apply or the elimination hits fill_cap, so a caller can only
    take a full modular rank as an answer.  columns holds the rows' keys,
    from _macaulay_columns.
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
    for p, keys in zip(partials, columns):
        coeffs = [convert(c) for c in p.terms.values()]
        if any(c is None for c in coeffs):
            return None
        nonzero = [bool(c) for c in coeffs]
        coeffs = list(compress(coeffs, nonzero))
        k = len(nonzero)
        rows.extend(
            dict(zip(compress(keys[i:i + k], nonzero), coeffs))
            for i in range(0, len(keys), k)
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
    character: int              # c with F(g x) = zeta_level^c F(x)


def fixed_locus(F: HomogPoly, g: DiagAut) -> FixedLocusReport:
    """Per-eigenspace decomposition of the fixed point set on X.

    This report is the record of g's eigenspaces that classification and the
    Galois test read: one slice per distinct exponent of g, ordered by its
    first coordinate.  Requires g to act on F by a single scalar
    zeta_level^c and keeps c as `character`; raises NotSemiInvariantError
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

    This is the one-element form of fixed_loci, which shares each block's
    slice data among many elements of one F.
    """
    return _fixed_locus(F, g, {})


def fixed_loci(F: HomogPoly, elements):
    """Yield fixed_locus(F, g) for each g in elements, in order.

    A slice's data (whether F's piece on the block vanishes, the dimension
    and the point count) depends only on F and the block of coordinates, not
    on g's exponent, so it is computed once per block and shared by every
    element with that block: at most 2^(n+2) blocks, however many elements.
    Every element is still checked for semi-invariance.
    """
    memo: dict[tuple[int, ...], tuple[int, bool, int, int | None]] = {}
    for g in elements:
        yield _fixed_locus(F, g, memo)


def _fixed_locus(F: HomogPoly, g: DiagAut, memo: dict) -> FixedLocusReport:
    """fixed_locus, reading and filling memo: block indices to
    (ambient, zero, dim, count), the block's SliceInfo fields after eigen_exp.
    """
    c = character(F, g)
    n = F.num_vars - 2
    blocks: dict[int, list[int]] = {}
    for i, e in enumerate(g.exps):
        blocks.setdefault(e, []).append(i)
    keys = [tuple(indices) for indices in blocks.values()]
    missing = [indices for indices in keys if indices not in memo]
    if missing:
        for indices, piece in zip(missing, _eigen_pieces(F, missing)):
            memo[indices] = _slice_data(F, indices, piece)
    slices = tuple(
        SliceInfo(indices, exp, *memo[indices]) for exp, indices in zip(blocks, keys)
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
        slices=slices,
        codim_in_x=codim,
        contains_line=line,
        point_count=total,
        character=c,
    )


def _slice_data(F: HomogPoly, indices: tuple[int, ...], piece):
    """(ambient_dim, restriction_zero, dim, point_count) of F's slice on a block."""
    ambient = len(indices) - 1
    if not piece:
        return ambient, True, ambient, 1 if ambient == 0 else None
    if ambient == 0:
        return ambient, False, -1, 0
    count = None
    if ambient == 1:
        count = _distinct_binary_roots(HomogPoly(F.num_vars, F.degree, piece), *indices)
    return ambient, False, ambient - 1, count


def _eigen_pieces(F: HomogPoly, blocks) -> list[dict[Monomial, CycloNum]]:
    """The terms of F restricted to each block of coordinates, in one pass.

    blocks lists disjoint index lists; they need not cover every coordinate.
    A monomial belongs to the block that holds its whole support, if any, so
    one that uses a coordinate in no block belongs to no piece.
    """
    if F.degree == 0:  # a constant restricts to itself on every block
        return [dict(F.terms) for _ in blocks]
    owner = [-1] * F.num_vars
    for b, indices in enumerate(blocks):
        for i in indices:
            owner[i] = b
    pieces: list[dict[Monomial, CycloNum]] = [{} for _ in blocks]
    for mon, c in F.terms.items():
        held = {owner[i] for i, e in enumerate(mon) if e}
        if len(held) == 1 and -1 not in held:
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


# -- the Galois criterion --------------------------------------------------------


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


def galois_by_theorem(F: HomogPoly, g: DiagAut, fix: FixedLocusReport) -> GaloisVerdict:
    """Projection-is-Galois criterion for two-eigenvalue diagonal actions.

    fix is fixed_locus(F, g).  Fires when g can be scaled to e_m on one
    coordinate block and 1 on the other with m equal to the degree of the
    induced projection; the quotient X / <g> is then rational (key thm-2.3).
    The projection from the two eigenspaces has degree deg F minus one for
    each eigenspace contained in X, which is the same for either split, so
    the block listed first is the scaled one.
    """
    if len(fix.slices) != 2:
        return GaloisVerdict.no(f"needs exactly 2 eigenvalues, found {len(fix.slices)}")
    m = g.order_in_pgl()
    if F.degree - sum(s.restriction_zero for s in fix.slices) != m:
        return GaloisVerdict.no(
            f"order {m} does not match the projection degree for either split"
        )
    scaled, unit = fix.slices
    return GaloisVerdict(
        galois=True,
        m=m,
        scaled_block=scaled.indices,
        unit_block=unit.indices,
        galois_point=(len(scaled.indices) == 1),
        theorem="thm-2.3",
    )
