"""Closed-form answers the benchmark checks the program's outputs against.

Nothing here imports hyperaut: every expected value comes from a formula
about the delta family or from theorem 1.1's lists, so a wrong answer from
the program cannot also be the expected one.

Delta supports are functional digraphs sigma on m = n + 2 vertices; variable
i carries the monomial X_i^(d-1) X_sigma(i).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

# Functional digraphs on m unlabeled vertices (OEIS A001372).
A001372 = {1: 1, 2: 3, 3: 7, 4: 19, 5: 47, 6: 130}


class CheckFailed(Exception):
    """An output of the program disagrees with a closed form."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- the delta family ------------------------------------------------------------


def delta_classes(m: int) -> list[tuple[int, ...]]:
    """One map per isomorphism class, the lexicographically least relabeling.

    Each new map's whole conjugation orbit is marked as seen, so every class
    is found once and its representative is the minimum of its orbit.
    """
    seen: set[tuple[int, ...]] = set()
    out = []
    for sigma in product(range(m), repeat=m):
        if sigma in seen:
            continue
        orbit = set()
        for perm in permutations(range(m)):
            inv = [0] * m
            for i, p in enumerate(perm):
                inv[p] = i
            orbit.add(tuple(inv[sigma[perm[i]]] for i in range(m)))
        seen |= orbit
        out.append(min(orbit))
    return sorted(out)


def sigma_name(sigma) -> str:
    return "sigma=" + "".join(str(s) for s in sigma)


def sigma_of_name(name: str) -> tuple[int, ...]:
    return tuple(int(c) for c in name.removeprefix("sigma="))


def delta_monomials(sigma, d: int) -> list[tuple[int, ...]]:
    m = len(sigma)
    out = []
    for i, j in enumerate(sigma):
        mon = [0] * m
        mon[i] += d - 1
        mon[j] += 1
        out.append(tuple(mon))
    return out


def ks_smooth(sigma) -> bool:
    """Kreuzer-Skarke (CMP 150, 1992) on a delta support.

    Smooth exactly when sigma splits into chains ending in a fixed point and
    cycles of length at least 2 with no trees attached, that is, when no
    vertex is the image of two other vertices.
    """
    preimages = [0] * len(sigma)
    for i, j in enumerate(sigma):
        if i != j:
            preimages[j] += 1
    return max(preimages) <= 1


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    size = len(a)
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, size):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, size):
                    a[r][k] -= f * a[c][k]
    return det


def exponent_matrix(sigma, d: int) -> list[list[int]]:
    """(d-1)I + P_sigma: row i is the exponent vector of variable i's monomial."""
    return [list(mon) for mon in delta_monomials(sigma, d)]


def delta_group_order(sigma, d: int) -> int:
    """|det((d-1)I + P_sigma)| / d, the diagonal symmetry group order mod scalars."""
    det = abs(_det(exponent_matrix(sigma, d)))
    expect(det % d == 0, f"determinant {det} is not a multiple of d = {d}")
    return int(det) // d


def fermat_group_order(n: int, d: int) -> int:
    return d ** (n + 1)


def random_group_element(sigma, d: int, rng) -> tuple[int, tuple[int, ...]]:
    """A uniformly random symmetry of the delta support, as (level, exponents).

    The symmetries are A^-1 Z^m / Z^m modulo scalars, with A the exponent
    matrix: A e is an integer vector exactly when every monomial has the
    same character.  The representative is shifted so that the first
    exponent is 0, which writes it at its order in PGL.
    """
    a = exponent_matrix(sigma, d)
    m = len(sigma)
    det = int(abs(_det(a)))
    k = [rng.randrange(det) for _ in range(m)]
    e = _solve(a, k)
    e = [(x - e[0]) % 1 for x in e]
    level = 1
    for x in e:
        level = lcm(level, x.denominator)
    return level, tuple(int(x * level) % level for x in e)


def group_elements(sigma, d: int) -> set[tuple[int, tuple[int, ...]]]:
    """Every symmetry of the delta support modulo scalars, identity included.

    The group A^-1 Z^m / Z^m modulo scalars is generated by the columns of
    A^-1; the closure is taken on representatives with first exponent 0.
    Each element is returned in canonical form (see `canonical`).
    """
    a = exponent_matrix(sigma, d)
    m = len(sigma)
    gens = [_solve(a, [int(i == j) for i in range(m)]) for j in range(m)]

    def shifted(e):
        return tuple((x - e[0]) % 1 for x in e)

    start = (Fraction(0),) * m
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for e in frontier:
            for gen in gens:
                f = shifted([x + y for x, y in zip(e, gen)])
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    expect(len(seen) == delta_group_order(sigma, d),
           f"{sigma_name(sigma)}: closure of {len(seen)} elements, determinant formula differs")
    out = set()
    for e in seen:
        level = 1
        for x in e:
            level = lcm(level, x.denominator)
        out.add((level, tuple(int(x * level) for x in e)))
    return out


def _solve(a, b) -> list[Fraction]:
    size = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for c in range(size):
        pivot = next(r for r in range(c, size) if m[r][c])
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(size):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                for k in range(c, size + 1):
                    m[r][k] -= f * m[c][k]
    return [m[i][size] / m[i][i] for i in range(size)]


# -- automorphisms -------------------------------------------------------------------


def pgl_order(level: int, exps) -> int:
    """Smallest k >= 1 with k (e_i - e_0) = 0 mod level for every i."""
    out = 1
    for e in exps:
        out = lcm(out, level // gcd(level, (e - exps[0]) % level))
    return out


def canonical(level: int, exps) -> tuple[int, tuple[int, ...]]:
    """The PGL class of diag(zeta_level^e): first exponent 0, level minimal."""
    e = [(x - exps[0]) % level for x in exps]
    g = level
    for x in e:
        g = gcd(g, x)
    return level // g, tuple(x // g for x in e)


def character(support, level: int, exps) -> int | None:
    """The common character exponent of the support's monomials, or None."""
    chars = {sum(a * e for a, e in zip(mon, exps)) % level for mon in support}
    return chars.pop() if len(chars) == 1 else None


def root_value(level: int, k: int) -> complex:
    return cmath.exp(2j * cmath.pi * k / level)


def _slices(support, level: int, exps) -> list[tuple[int, int]]:
    """(dimension of the slice on X, block size) for each eigen-block.

    On the eigenspace P(W_B) of a block B, F vanishes identically exactly
    when no monomial's variables all lie in B; the slice is then P(W_B)
    itself, of dimension |B| - 1, and otherwise a hypersurface in it, of
    dimension |B| - 2 (-1 means empty).
    """
    blocks: dict[int, set[int]] = {}
    for i, e in enumerate(exps):
        blocks.setdefault(e % level, set()).add(i)
    out = []
    for block in blocks.values():
        vanishes = not any(
            all(i in block for i, a in enumerate(mon) if a) for mon in support
        )
        out.append((len(block) - 1 if vanishes else len(block) - 2, len(block)))
    return out


def fixed_codim(support, level: int, exps, n: int) -> int | None:
    """Codimension in X of the fixed locus, None when it is empty."""
    best = max(dim for dim, _ in _slices(support, level, exps))
    return None if best < 0 else n - best


# Normal-form types by the eigenvalue multiplicities of the coordinates
# outside the unit block: one coordinate, two equal, two distinct, three
# equal, two plus one, three distinct.
TYPES_BY_SIZES = {(1,): "I", (2,): "II", (1, 1): "III", (3,): "IV", (2, 1): "V", (1, 1, 1): "VI"}
OUT_OF_SCOPE = "out-of-scope"


def normal_type(support, level: int, exps, n: int) -> str:
    """The normal-form type of a non-identity symmetry of a surface or higher.

    The unit block is the eigenspace carrying the largest fixed component of
    codimension at most 2 (ties to the larger block); the other blocks'
    sizes give the type.  Out of scope: more than four eigenvalues, no such
    component, X fixed pointwise, or more than three other coordinates.
    """
    slices = _slices(support, level, exps)
    if len(slices) == 1 or len(slices) > 4:
        return OUT_OF_SCOPE
    candidates = [(dim, size) for dim, size in slices if dim >= 0 and dim >= n - 2]
    if not candidates:
        return OUT_OF_SCOPE
    best = max(candidates)
    if best[0] >= n:
        return OUT_OF_SCOPE
    sizes = sorted((size for _, size in slices), reverse=True)
    sizes.remove(best[1])
    return TYPES_BY_SIZES.get(tuple(sizes), OUT_OF_SCOPE)


# -- theorem 1.1 ---------------------------------------------------------------------


def theorem11_list(n: int, d: int, codim: int) -> list[int]:
    """The closed-form divisor list of theorem 1.1 for a fixed-locus codimension.

    The surface list carries the length-four cycle constant (d-2)(d^2-2d+2),
    which the order-51 quintic attains.
    """
    if codim == 1:
        return [d, d - 1, d - 2]
    q = d * d - 3 * d + 3
    if n == 2:
        return [(d - 1) ** 2 * d, (d - 1) ** 3, q * d, q * (d - 1),
                (d - 2) * (d - 1) * d, (d - 2) * (d - 1) ** 2,
                (d - 2) * (d * d - 2 * d + 2)]
    if n == 3:
        return [(d - 1) * d, (d - 1) ** 2, (d - 2) * d, q, (d - 2) * (d - 1)]
    return [(d - 1) * d, (d - 1) ** 2, (d - 2) * d]


def order_allowed(order: int, n: int, d: int, codim: int, table=theorem11_list) -> bool:
    """Does the order divide an entry of the list, with the codim-1 side condition?

    In codimension 1 an order of at least 3 that divides only d-2 occurs
    only on surfaces.
    """
    entries = table(n, d, codim)
    if codim == 1 and order >= 3 and n != 2:
        entries = [x for x in entries if x != d - 2]
    return any(x % order == 0 for x in entries)


def check_case(support, level, exps, n, d, order, codim, where, table=theorem11_list):
    """The per-automorphism checks shared by every workload."""
    want = pgl_order(level, exps)
    expect(order == want, f"{where}: order {order}, closed form gives {want}")
    want = fixed_codim(support, level, exps, n)
    expect(codim == want, f"{where}: fixed-locus codim {codim}, eigen-blocks give {want}")
    if codim in (1, 2):
        expect(
            order_allowed(order, n, d, codim, table),
            f"{where}: order {order} divides no theorem 1.1 codim-{codim} entry",
        )
