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
from hyperaut.geometry import fixed_locus
from hyperaut.poly import HomogPoly


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
