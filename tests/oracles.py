"""Reference computations that the tests compare hyperaut against.

Each one works from the definitions by direct substitution or raw
enumeration, without the lattice or character shortcuts of the library.
"""

from collections import deque
from functools import reduce
from itertools import combinations, product
from math import gcd, isqrt, lcm

from hyperaut.autgrp import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    DiagAut,
    symmetry_group,
)
from hyperaut.cyclo import rational
from hyperaut.geometry import GaloisVerdict, fixed_locus
from hyperaut.poly import HomogPoly, IncidenceProfile


def apply_diagonal(F: HomogPoly, lambdas) -> HomogPoly:
    """Substitute X_i -> lambda_i * X_i; the support is unchanged."""
    if len(lambdas) != F.num_vars:
        raise ValueError("need one scale factor per variable")
    terms = {}
    for mon, coeff in F.terms.items():
        for lam, e in zip(lambdas, mon):
            coeff = coeff * lam ** e
        terms[mon] = coeff
    return HomogPoly(F.num_vars, F.degree, terms)


def restrict(F: HomogPoly, zero_set) -> HomogPoly:
    """Set the listed variables to zero; may give the zero polynomial."""
    zero_set = set(zero_set)
    if not zero_set <= set(range(F.num_vars)):
        raise ValueError("zero_set contains an unknown variable index")
    if len(zero_set) == F.num_vars:
        raise ValueError("cannot zero out every variable")
    terms = {
        mon: c
        for mon, c in F.terms.items()
        if all(mon[i] == 0 for i in zero_set)
    }
    return HomogPoly(F.num_vars, F.degree, terms)


def fixed_codim(F: HomogPoly, g: DiagAut) -> int | None:
    """Codimension in X of g's fixed locus, None when it is empty.

    The fixed locus is the union of X meet P(W) over g's eigenspaces W, each
    spanned by one block of coordinates with equal exponents.  Setting the
    other coordinates to zero restricts F to P(W): when that gives the zero
    polynomial, P(W) lies in X and has dimension |block| - 1; otherwise X
    meets P(W) in a hypersurface of it, of dimension |block| - 2 (-1, empty,
    when P(W) is a point).
    """
    blocks: dict[int, list[int]] = {}
    for i, e in enumerate(g.exps):
        blocks.setdefault(e, []).append(i)
    best = -1
    for block in blocks.values():
        outside = [i for i in range(F.num_vars) if i not in block]
        contained = restrict(F, outside).is_zero()
        best = max(best, len(block) - 1 if contained else len(block) - 2)
    return None if best < 0 else F.num_vars - 2 - best


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
    first_in = restrict(F, complement).is_zero()
    second_in = restrict(F, r_plane).is_zero()
    return F.degree - int(first_in) - int(second_in)


def two_split_galois(F: HomogPoly, g: DiagAut) -> GaloisVerdict:
    """The Galois criterion for two eigenvalues by trying both splits.

    g must be an automorphism of F with exactly two eigenvalues.  The blocks
    are grouped from g's exponents and ordered by first coordinate; each
    split in turn is tried as (scaled, unit), and the first whose projection
    degree equals the order of g fires.
    """
    blocks: dict[int, list[int]] = {}
    for i, e in enumerate(g.exps):
        blocks.setdefault(e, []).append(i)
    if len(blocks) != 2:
        raise ValueError("the oracle needs exactly two eigenvalues")
    first, second = sorted(blocks.values())
    m = g.order_in_pgl()
    for scaled, unit in ((first, second), (second, first)):
        if projection_degree(F, scaled, unit) == m:
            return GaloisVerdict(
                galois=True, m=m, scaled_block=tuple(scaled),
                unit_block=tuple(unit), galois_point=(len(scaled) == 1),
                theorem="thm-2.3",
            )
    return GaloisVerdict.no(
        f"order {m} does not match the projection degree for either split"
    )


def permute_variables(F: HomogPoly, perm) -> HomogPoly:
    """Relabel variables so that new position i carries old variable perm[i]."""
    terms = {
        tuple(mon[perm[i]] for i in range(F.num_vars)): c
        for mon, c in F.terms.items()
    }
    return HomogPoly(F.num_vars, F.degree, terms)


def support_components(F: HomogPoly) -> list[tuple[int, ...]]:
    """The connected components of the graph on F's variables where two
    variables are adjacent when some monomial of F uses both, by
    breadth-first search; each component sorted, listed by least index.
    """
    adjacent = [set() for _ in range(F.num_vars)]
    for mon in F.terms:
        used = {i for i, e in enumerate(mon) if e}
        for i in used:
            adjacent[i] |= used
    seen: set[int] = set()
    components = []
    for start in range(F.num_vars):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        found = []
        while queue:
            i = queue.popleft()
            found.append(i)
            for j in adjacent[i] - seen:
                seen.add(j)
                queue.append(j)
        components.append(tuple(sorted(found)))
    return components


def scalar_shift(g: DiagAut, c: int) -> DiagAut:
    """The same PGL class written with every exponent shifted by c."""
    return DiagAut(g.level, tuple(e + c for e in g.exps))


def permute(g: DiagAut, perm) -> DiagAut:
    return DiagAut(g.level, tuple(g.exps[p] for p in perm))


def compose(g: DiagAut, h: DiagAut) -> DiagAut:
    """The product g h, written at the lcm of the two levels."""
    level = lcm(g.level, h.level)
    return DiagAut(level, tuple(
        a * (level // g.level) + b * (level // h.level)
        for a, b in zip(g.exps, h.exps)
    ))


def brute_force_class_count(support, modulus: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Count scalar classes of exponent vectors mod modulus fixing the support.

    Raw enumeration: no lattice theory is used beyond the modulus choice, so
    this is an independent check on the Smith normal form computation.  One
    representative per scalar class is counted by pinning the first exponent
    to zero.
    """
    support = [tuple(m) for m in support]
    num_vars = len(support[0])
    base = support[0]
    rows = [tuple(m[i] - base[i] for i in range(num_vars)) for m in support[1:]]
    total = modulus ** (num_vars - 1)
    if total > cap:
        raise CapExceededError(f"{total} candidates exceed the cap {cap}")
    count = 0
    for rest in product(range(modulus), repeat=num_vars - 1):
        exps = (0,) + rest
        if all(sum(r * e for r, e in zip(row, exps)) % modulus == 0 for row in rows):
            count += 1
    return count


def brute_force_max_order(
    support,
    num_vars: int,
    codim_filter=None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """Max order over all diagonal symmetries, by raw modular enumeration.

    Only the search modulus (the group exponent) comes from the lattice
    computation; membership and orders are checked directly, so this is an
    independent oracle for the branch tables.  codim_filter, when given,
    receives the FixedLocusReport of each symmetry.
    """
    support = [tuple(m) for m in support]
    group = symmetry_group(support, num_vars)
    modulus = group.exponent
    if modulus == 1:
        return 1
    total = modulus ** (num_vars - 1)
    if total > cap:
        raise CapExceededError(f"{total} candidates exceed the cap {cap}")
    F = HomogPoly.from_support(support, num_vars)
    base = support[0]
    rows = [
        tuple(m[i] - base[i] for i in range(num_vars)) for m in support[1:]
    ]
    best = 1
    for rest in product(range(modulus), repeat=num_vars - 1):
        exps = (0,) + rest
        if any(
            sum(r * e for r, e in zip(row, exps)) % modulus for row in rows
        ):
            continue
        g = DiagAut(modulus, exps)
        if codim_filter is not None and not codim_filter(fixed_locus(F, g)):
            continue
        best = max(best, g.order_in_pgl())
    return best


def euclid_root_count(form: HomogPoly, j: int, k: int) -> int:
    """Distinct projective roots of a nonzero binary form in X_j, X_k.

    Dehomogenizes with respect to X_k and runs Euclid on p and p' with the
    CycloNum coefficients as they are: the distinct finite roots number
    deg p - deg gcd(p, p'), plus one when [1:0] is a root.
    """
    deg = form.degree
    coeffs = [rational(0)] * (deg + 1)
    for mon, c in form.terms.items():
        coeffs[mon[j]] = c
    p = list(coeffs)
    while p and not p[-1]:
        p.pop()
    at_infinity = 1 if len(p) <= deg else 0
    a, b = p, [p[e] * e for e in range(1, len(p))]
    while b:
        a, b = b, _remainder(a, b)
    return (len(p) - len(a)) + at_infinity


def _remainder(a, b):
    """a mod b by schoolbook long division, constant term first; a and b
    carry no trailing zeros, and neither does the result."""
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def binary_form_from_roots(num_vars: int, j: int, k: int, roots) -> HomogPoly:
    """The product of (s X_j - r X_k)^m over roots [r:s] with multiplicity m.

    roots lists ((r, s), m) with r, s CycloNum values, not both zero; the
    form vanishes exactly at the given points of the (j, k) line.
    """
    def mon(i):
        return tuple(1 if x == i else 0 for x in range(num_vars))

    form = HomogPoly(num_vars, 0, {(0,) * num_vars: rational(1)})
    for (r, s), m in roots:
        factor = HomogPoly(num_vars, 1, {mon(j): s, mon(k): -r})
        for _ in range(m):
            form = form * factor
    return form


def probe_support_queries(F: HomogPoly) -> IncidenceProfile:
    """Vertex membership and near-power partners by probing each monomial.

    For every vertex i, looks up X_i^d and every X_i^(d-1)*X_j in the terms.
    """
    d, v = F.degree, F.num_vars
    on_x = []
    partners = []
    for i in range(v):
        on_x.append(tuple(d if x == i else 0 for x in range(v)) not in F.terms)
        near = set()
        for j in range(v):
            if j == i:
                continue
            mon = tuple((d - 1 if x == i else 0) + (1 if x == j else 0) for x in range(v))
            if mon in F.terms:
                near.add(j)
        partners.append(frozenset(near))
    missing = tuple(i for i in range(v) if on_x[i] and not partners[i])
    return IncidenceProfile(tuple(on_x), tuple(partners), missing)


# -- integer matrices ---------------------------------------------------------------


def _int_det(mat) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * x * _int_det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j, x in enumerate(mat[0]) if x
    )


def minors_gcd(rows, k: int) -> int:
    """gcd of all k x k minors of an integer matrix, 0 when they all vanish."""
    g = 0
    for rs in combinations(range(len(rows)), k):
        for cs in combinations(range(len(rows[0])), k):
            g = gcd(g, _int_det([[rows[r][c] for c in cs] for r in rs]))
    return g


# -- the order lists, each written out in full -----------------------------------


def literal_badr_bars(d: int) -> frozenset[int]:
    return frozenset({(d - 1) * d, (d - 1) ** 2, (d - 2) * d, d * d - 3 * d + 3})


def literal_theorem11(n: int, d: int, codim: int) -> frozenset[int]:
    if codim == 1:
        return frozenset({d, d - 1, d - 2})
    if n >= 4:
        return frozenset({(d - 1) * d, (d - 1) ** 2, (d - 2) * d})
    if n == 3:
        return frozenset(
            {(d - 1) * d, (d - 1) ** 2, (d - 2) * d, d * d - 3 * d + 3, (d - 2) * (d - 1)}
        )
    q = d * d - 3 * d + 3
    return frozenset(
        {(d - 1) ** 2 * d, (d - 1) ** 3, q * d, q * (d - 1),
         (d - 2) * (d - 1) * d, (d - 2) * (d - 1) ** 2, (d - 2) * (d * d - 2 * d + 2)}
    )


def literal_type_level_claims(normal_type: str, n: int, d: int):
    """(value, requires_n) pairs of each type's list, in the listed order."""
    q = d * d - 3 * d + 3
    product3 = [((d - 1) * d, None), ((d - 1) ** 2, None), ((d - 2) * d, None)]
    if normal_type == "I":
        return ((d, None), (d - 1, None))
    if normal_type == "II":
        return ((d, None), (d - 1, None), (d - 2, 2))
    if normal_type == "III":
        return tuple(product3)
    if normal_type == "IV":
        return () if n > 4 else ((d - 1, None), (d - 2, 4))
    if normal_type == "V":
        if n == 2:
            return tuple(product3)
        if n == 3:
            return tuple(product3 + [(q, None), ((d - 2) * (d - 1), None)])
        return ()
    if normal_type == "VI" and n == 2:
        return (
            ((d - 1) ** 2 * d, None), ((d - 1) ** 3, None), (q * d, None),
            (q * (d - 1), None), ((d - 2) * (d - 1) * d, None),
            ((d - 2) * (d - 1) ** 2, None), ((d - 2) * (d * d - 2 * d + 2), None),
        )
    return ()


def subset_zheng_integers(n: int, d: int) -> frozenset[int]:
    """The global order bounds by running over every subset of the parts 1..n+1."""
    def chain(a: int) -> int:
        return abs(1 - (1 - d) ** a)

    out = {chain(n + 2) // d, (d - 1) ** (n + 1)}
    out.update(chain(a) for a in range(1, n + 2))
    heads = range(1, n + 2)
    for t in range(2, n + 3):
        for combo in combinations(heads, t):
            if sum(combo) <= n + 2:
                out.add(reduce(lcm, (chain(a) for a in combo)))
    for t in range(1, n + 3):
        for combo in combinations(heads, t):
            s = sum(combo)
            for b in range(2, n + 3 - s):
                out.add(reduce(lcm, (chain(a) for a in combo), (d - 1) ** (b - 1)))
    return frozenset(out)


def is_prime(m: int) -> bool:
    """Primality by trial division up to the square root."""
    return m > 1 and all(m % q for q in range(2, isqrt(m) + 1))
