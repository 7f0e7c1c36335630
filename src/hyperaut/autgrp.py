"""Diagonal projective automorphisms and the symmetry group of a support.

A diagonal automorphism is a class in PGL represented by the exponents of
its eigenvalues at a common root-of-unity level.  The full group of diagonal
symmetries of a monomial support is a finite abelian group computed from the
Smith normal form of the lattice of exponent differences; the all-ones
scalar direction lies in the kernel of that lattice automatically, so the
quotient by scalars needs no extra bookkeeping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import gcd, lcm

from .cyclo import CycloNum, root_of_unity
from .poly import (
    CapExceededError,
    HomogPoly,
    Monomial,
    NotSemiInvariantError,
    ParseError,
    parse_scalars,
)

DEFAULT_ENUMERATION_CAP = 10 ** 6


class InfiniteGroupError(ValueError):
    """The diagonal symmetry group has a positive-dimensional torus part."""


@dataclass(frozen=True, eq=False)
class DiagAut:
    """[D(zeta^e0, ..., zeta^e(m-1))] with zeta a primitive level-th root.

    Equality is equality of classes in PGL: exponent vectors differing by a
    constant shift, or written at compatible levels, compare equal.
    """

    level: int
    exps: tuple[int, ...]

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be positive")
        object.__setattr__(self, "exps", tuple(e % self.level for e in self.exps))

    def canonical(self) -> tuple[int, tuple[int, ...]]:
        """Class invariant: first exponent shifted to zero, level minimized."""
        shift = self.exps[0]
        e = [(x - shift) % self.level for x in self.exps]
        g = self.level
        for x in e:
            g = gcd(g, x)
        return (self.level // g, tuple(x // g for x in e))

    def __eq__(self, other):
        if not isinstance(other, DiagAut):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    @property
    def num_vars(self) -> int:
        return len(self.exps)

    @classmethod
    def identity(cls, num_vars: int) -> "DiagAut":
        return cls(1, (0,) * num_vars)

    @classmethod
    def from_eigenvalues(cls, values) -> "DiagAut":
        """Build from CycloNum eigenvalues, all of which must be roots of unity."""
        roots = []
        for v in values:
            v = CycloNum._coerce(v)
            r = v.as_root_of_unity()
            if r is None:
                raise ValueError(f"eigenvalue {v} is not a root of unity")
            roots.append(r)
        level = reduce(lcm, (m for m, _ in roots), 1)
        return cls(level, tuple(k * (level // m) for m, k in roots))

    def eigenvalues(self) -> tuple[CycloNum, ...]:
        return tuple(root_of_unity(self.level, e) for e in self.exps)

    def is_identity(self) -> bool:
        return len(set(self.exps)) <= 1

    def order_in_pgl(self) -> int:
        """Smallest m with the m-th power a scalar matrix."""
        g = 0
        for e in self.exps:
            g = gcd(g, e - self.exps[0])
        return self.level // gcd(self.level, g)

    def __str__(self):
        parts = []
        for e in self.exps:
            if e == 0:
                parts.append("1")
            elif e == 1:
                parts.append(f"z{self.level}")
            else:
                parts.append(f"z{self.level}^{e}")
        return "diag(" + ", ".join(parts) + ")"


def parse_diag(text: str) -> DiagAut:
    """Parse the diag(z12^4, z12^4, z12, 1, 1) text form."""
    text = text.strip()
    m = re.fullmatch(r"diag\((.*)\)", text, re.DOTALL)
    if not m:
        raise ParseError("expected diag(...)")
    body = m.group(1)
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if len(parts) == 1 and not parts[0].strip():
        raise ParseError("diag() needs at least one eigenvalue")
    values = parse_scalars(parts)
    try:
        return DiagAut.from_eigenvalues(values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -- action of a DiagAut on polynomials ---------------------------------------


def character_exponent(mon: Monomial, g: DiagAut) -> int:
    """Exponent of the character of g on a monomial, modulo g.level."""
    return sum(e * x for e, x in zip(mon, g.exps)) % g.level


def character(F: HomogPoly, g: DiagAut) -> int:
    """c with F(g x) = zeta_level^c F(x), or NotSemiInvariantError."""
    if F.is_zero():
        raise ValueError("the zero polynomial has no multiplier")
    if F.num_vars != g.num_vars:
        raise ValueError("variable count mismatch")
    mons = sorted(F.terms, reverse=True)
    c0 = character_exponent(mons[0], g)
    for mon in mons[1:]:
        if character_exponent(mon, g) != c0:
            raise NotSemiInvariantError(mons[0], mon)
    return c0


def multiplier(F: HomogPoly, g: DiagAut) -> CycloNum:
    """Semi-invariance multiplier of F under g, or NotSemiInvariantError."""
    return root_of_unity(g.level, character(F, g))


# -- Smith normal form ---------------------------------------------------------


def smith_normal_form(rows: list[list[int]], num_cols: int):
    """U @ A @ V == D with U, V unimodular and D in Smith normal form.

    A is given as a list of integer rows of length num_cols.  Returns
    (D, V) as lists of lists; no caller needs the row transform U, so it is
    not built.  D is diagonal with d1 | d2 | ... and nonnegative entries.
    """
    nr = len(rows)
    nc = num_cols
    D = [list(r) for r in rows]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        for k in range(nc):
            D[dst][k] += c * D[src][k]

    def add_col(src, dst, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(nr, nc):
        # Find the entry of smallest absolute value in the remaining block.
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if D[i][j] and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        D[t], D[pivot[0]] = D[pivot[0]], D[t]
        swap_cols(t, pivot[1])
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
        dirty = False
        for i in range(t + 1, nr):
            if D[i][t]:
                q = D[i][t] // D[t][t]
                add_row(t, i, -q)
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if D[t][j]:
                q = D[t][j] // D[t][t]
                add_col(t, j, -q)
                if D[t][j]:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot.
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if D[i][j] % D[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return D, V


@dataclass(frozen=True)
class SymGroup:
    """Finite abelian group of diagonal symmetries of a support, mod scalars."""

    num_vars: int
    invariant_factors: tuple[int, ...]
    generators: tuple[DiagAut, ...]

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def exponent(self) -> int:
        return reduce(lcm, self.invariant_factors, 1)

    def describe(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def symmetry_group(support, num_vars: int | None = None) -> SymGroup:
    """All diagonal scalings fixing every monomial character, mod scalars.

    The conditions are lambda^(v - v0) == 1 over the support; the solution
    group is read off the Smith normal form of the difference lattice, with
    explicit generators from the column transform.
    """
    support = [tuple(m) for m in support]
    if not support:
        raise ValueError("empty support")
    if num_vars is None:
        num_vars = len(support[0])
    if any(len(m) != num_vars for m in support):
        raise ValueError("support monomials have mixed lengths")
    degrees = {sum(m) for m in support}
    if len(degrees) != 1:
        raise ValueError("support monomials have mixed degrees")
    base = support[0]
    rows = [[m[i] - base[i] for i in range(num_vars)] for m in support[1:]]
    D, V = smith_normal_form(rows, num_vars)
    diag = [D[i][i] for i in range(min(len(rows), num_vars))]
    rank = sum(1 for d in diag if d)
    if num_vars - rank > 1:
        raise InfiniteGroupError(
            "the diagonal symmetry group is infinite for this support"
        )
    factors = []
    gens = []
    for i in range(rank):
        d = diag[i]
        if d <= 1:
            continue
        factors.append(d)
        gens.append(DiagAut(d, tuple(V[k][i] % d for k in range(num_vars))))
    return SymGroup(num_vars, tuple(factors), tuple(gens))


def enumerate_elements(group: SymGroup, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every element of the group exactly once as a DiagAut.

    Elements are produced at the lcm level of the invariant factors, in
    lexicographic order of generator exponents.  Raises CapExceededError
    when the group order exceeds the cap.
    """
    if group.order > cap:
        raise CapExceededError(
            f"group order {group.order} exceeds the enumeration cap {cap}"
        )
    if not group.invariant_factors:
        yield DiagAut.identity(group.num_vars)
        return
    level = group.exponent
    lifted = [
        tuple(e * (level // gen.level) for e in gen.exps)
        for gen in group.generators
    ]
    for combo in product(*(range(d) for d in group.invariant_factors)):
        exps = [0] * group.num_vars
        for x, gen_exps in zip(combo, lifted):
            if x:
                for k in range(group.num_vars):
                    exps[k] += x * gen_exps[k]
        yield DiagAut(level, tuple(exps))
