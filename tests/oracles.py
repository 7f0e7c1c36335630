"""Reference computations that the tests compare hyperaut against.

Each one works from the definitions by direct substitution or raw
enumeration, without the lattice or character shortcuts of the library.
"""

from itertools import product
from math import lcm

from hyperaut.autgrp import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    DiagAut,
    symmetry_group,
)
from hyperaut.cyclo import _frac_poly_divmod, rational
from hyperaut.geometry import fixed_locus
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


def permute_variables(F: HomogPoly, perm) -> HomogPoly:
    """Relabel variables so that new position i carries old variable perm[i]."""
    terms = {
        tuple(mon[perm[i]] for i in range(F.num_vars)): c
        for mon, c in F.terms.items()
    }
    return HomogPoly(F.num_vars, F.degree, terms)


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
        a, b = b, _frac_poly_divmod(a, b)[1]
    return (len(p) - len(a)) + at_infinity


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
