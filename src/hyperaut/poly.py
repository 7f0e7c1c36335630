"""Sparse homogeneous polynomials over cyclotomic coefficients.

A polynomial is a map from exponent tuples (one entry per variable, summing
to the common degree) to nonzero coefficients.  The module also provides the
text grammar shared by the command line tools:

    poly   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* atom ('^' ['-'] integer)?
    atom   := integer | 'z' integer | 'X' integer | '(' poly ')'

'zN' is a primitive N-th root of unity, 'Xi' the i-th variable, and '/' is
only allowed when the divisor is a scalar.  Whitespace is insignificant.

An expression lives in Q(zeta_L), L the lcm of its zN levels, and the
arithmetic on it builds tables of size about L * phi(L).  A text with L above
MAX_ROOT_LEVEL is refused with CapExceededError before any table is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cyclo import CycloNum, rational, root_of_unity

Monomial = tuple[int, ...]

# Admits the level of every delta-group element for n:d up to 2:8, 3:6 and
# 4:5 (1,280 at 4:5).  An analyze call at the largest prime below the cap,
# 2039, peaks at about 81 MB.
MAX_ROOT_LEVEL = 2048


class ParseError(ValueError):
    """The input text does not conform to the polynomial grammar."""


class CapExceededError(RuntimeError):
    """An input, enumeration or matrix size exceeded the configured cap."""


class NotHomogeneousError(ValueError):
    """Parsed terms do not share a common total degree."""

    def __init__(self, mon_a: Monomial, mon_b: Monomial):
        self.witness = (mon_a, mon_b)
        super().__init__(
            f"monomials of different degrees: {_format_monomial(mon_a)} "
            f"(degree {sum(mon_a)}) and {_format_monomial(mon_b)} (degree {sum(mon_b)})"
        )


class NotSemiInvariantError(Exception):
    """The diagonal action does not scale the polynomial by a single factor."""

    def __init__(self, mon_a: Monomial, mon_b: Monomial):
        self.witness = (mon_a, mon_b)
        super().__init__(
            "characters differ on monomials "
            f"{_format_monomial(mon_a)} and {_format_monomial(mon_b)}"
        )


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples with the given length and sum, in lex order."""
    if num_vars == 0:
        return ((),) if degree == 0 else ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


def _format_monomial(mon: Monomial) -> str:
    parts = [
        f"X{i}" if e == 1 else f"X{i}^{e}"
        for i, e in enumerate(mon)
        if e > 0
    ]
    return "*".join(parts) if parts else "1"


class HomogPoly:
    """A sparse homogeneous polynomial with CycloNum coefficients."""

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, degree: int, terms: dict[Monomial, CycloNum]):
        clean: dict[Monomial, CycloNum] = {}
        for mon, coeff in terms.items():
            if len(mon) != num_vars:
                raise ValueError("monomial length does not match num_vars")
            if any(e < 0 for e in mon):
                raise ValueError("negative exponent in monomial")
            if sum(mon) != degree:
                raise NotHomogeneousError(next(iter(terms)), mon)
            if coeff:
                clean[mon] = coeff
        self.num_vars = num_vars
        self.degree = degree
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> "HomogPoly":
        return cls(num_vars, degree, {})

    @classmethod
    def from_support(cls, support, num_vars: int) -> "HomogPoly":
        """Coefficient-1 polynomial on the given monomial set."""
        support = [tuple(m) for m in support]
        if not support:
            raise ValueError("empty support")
        degree = sum(support[0])
        return cls(num_vars, degree, {m: rational(1) for m in support})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> tuple[Monomial, ...]:
        return tuple(sorted(self.terms, reverse=True))

    def coeff(self, mon: Monomial) -> CycloNum:
        return self.terms.get(tuple(mon), rational(0))

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.num_vars != other.num_vars:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[m] == other.terms[m] for m in self.terms)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("mixed variable counts")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise NotHomogeneousError(
                next(iter(self.terms)), next(iter(other.terms))
            )
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            s = terms.get(mon)
            s = c if s is None else s + c
            if s:
                terms[mon] = s
            else:
                terms.pop(mon, None)
        return HomogPoly(self.num_vars, self.degree, terms)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "HomogPoly":
        c = CycloNum._coerce(c)
        if not c:
            return HomogPoly.zero(self.num_vars, self.degree)
        return HomogPoly(
            self.num_vars, self.degree,
            {m: coeff * c for m, coeff in self.terms.items()},
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.scale(other)
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise ValueError("mixed variable counts")
        terms: dict[Monomial, CycloNum] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = terms.get(mon)
                s = c if s is None else s + c
                if s:
                    terms[mon] = s
                else:
                    terms.pop(mon, None)
        return HomogPoly(self.num_vars, self.degree + other.degree, terms)

    __rmul__ = __mul__

    # -- support structure ---------------------------------------------------

    def support_queries(self) -> "IncidenceProfile":
        """Vertex membership and near-power partners, in one pass over the terms.

        A pure power X_i^d takes P_i off the hypersurface and X_i^(d-1)*X_j
        makes j a partner of i.  In degree 2 the monomial X_i*X_j is a near
        power for both i and j; in degree 1 the near powers of X_i are the
        other variables themselves.  A constant is X_i^0 for every i.
        """
        v, d = self.num_vars, self.degree
        on_x = [True] * v
        near: list[set[int]] = [set() for _ in range(v)]
        for mon in self.terms:
            support = [i for i, e in enumerate(mon) if e]
            if not support:
                on_x = [False] * v
            elif len(support) == 1:
                i = support[0]
                on_x[i] = False
                if d == 1:
                    for k in range(v):
                        if k != i:
                            near[k].add(i)
            elif len(support) == 2:
                i, j = support
                if mon[i] == d - 1:
                    near[i].add(j)
                if mon[j] == d - 1:
                    near[j].add(i)
        partners = tuple(frozenset(p) for p in near)
        flags = tuple(i for i in range(v) if on_x[i] and not partners[i])
        return IncidenceProfile(tuple(on_x), partners, flags)

    def restrict(self, zero_set) -> "HomogPoly":
        """Set the listed variables to zero; may give the zero polynomial."""
        zero_set = set(zero_set)
        if not zero_set <= set(range(self.num_vars)):
            raise ValueError("zero_set contains an unknown variable index")
        if len(zero_set) == self.num_vars:
            raise ValueError("cannot zero out every variable")
        terms = {
            mon: c
            for mon, c in self.terms.items()
            if all(mon[i] == 0 for i in zero_set)
        }
        return HomogPoly(self.num_vars, self.degree, terms)

    def partial(self, i: int) -> "HomogPoly":
        """Exact formal partial derivative with respect to X_i."""
        terms: dict[Monomial, CycloNum] = {}
        for mon, c in self.terms.items():
            e = mon[i]
            if e == 0:
                continue
            new = list(mon)
            new[i] = e - 1
            terms[tuple(new)] = c * e
        return HomogPoly(self.num_vars, max(self.degree - 1, 0), terms)

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon in sorted(self.terms, reverse=True):
            coeff = self.terms[mon]
            body = _format_monomial(mon)
            text = str(coeff)
            negative = text.startswith("-")
            mag = text[1:] if negative else text
            if body == "1":
                piece = mag
            elif mag == "1":
                piece = body
            else:
                if "+" in mag or " - " in mag:
                    mag = f"({mag})"
                piece = f"{mag}*{body}"
            if not parts:
                parts.append(f"-{piece}" if negative else piece)
            else:
                parts.append(f"- {piece}" if negative else f"+ {piece}")
        return " ".join(parts)

    def __repr__(self):
        return f"HomogPoly({self})"


@dataclass(frozen=True)
class IncidenceProfile:
    """Vertex membership and near-power partners read off the support.

    on_hypersurface[i] is True when the i-th coordinate point lies on the
    zero locus (no pure power X_i^d present).  partners[i] collects the j
    with X_i^(d-1)*X_j in the support.  missing_near_power lists vertices
    on the hypersurface with no such partner, which certifies a singular
    point there.
    """

    on_hypersurface: tuple[bool, ...]
    partners: tuple[frozenset[int], ...]
    missing_near_power: tuple[int, ...]


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z]\w*|\^|\*|/|\+|-|\(|\))")
_ROOT_RE = re.compile(r"[zZ](\d+)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def check_root_level(*texts: str) -> None:
    """Raise CapExceededError when the zN levels of the texts have an lcm
    above MAX_ROOT_LEVEL."""
    level = 1
    for text in texts:
        for tok in _tokenize(text):
            m = _ROOT_RE.fullmatch(tok)
            if m:
                level = lcm(level, int(m.group(1)))
    if level > MAX_ROOT_LEVEL:
        raise CapExceededError(
            f"root-of-unity level {level} (the lcm of the zN levels) exceeds "
            f"the cap of {MAX_ROOT_LEVEL}"
        )


class _Parser:
    def __init__(self, text: str, num_vars: int):
        check_root_level(text)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.num_vars = num_vars

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    # The parse value is a generic dict {exponent tuple: CycloNum}; the
    # homogeneity of the result is validated afterwards.

    def parse(self) -> dict[Monomial, CycloNum]:
        value = self._expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return value

    def _expr(self):
        value = self._term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self._term()
            value = _dict_add(value, rhs, -1 if op == "-" else 1)
        return value

    def _term(self):
        value = self._factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self._factor()
            if op == "*":
                value = _dict_mul(value, rhs, self.num_vars)
            else:
                scalar = _as_scalar(rhs)
                if scalar is None or not scalar:
                    raise ParseError("division is only allowed by a nonzero scalar")
                value = {m: c / scalar for m, c in value.items()}
        return value

    def _factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        value = self._atom()
        if self.peek() == "^":
            self.next()
            exp_sign = 1
            if self.peek() == "-":
                self.next()
                exp_sign = -1
            tok = self.next()
            if not tok.isdigit():
                raise ParseError(f"expected an integer exponent, got {tok!r}")
            value = _dict_pow(value, exp_sign * int(tok), self.num_vars)
        if sign < 0:
            value = {m: -c for m, c in value.items()}
        return value

    def _atom(self):
        tok = self.next()
        if tok == "(":
            value = self._expr()
            self.expect(")")
            return value
        if tok.isdigit():
            return {self._unit(): rational(int(tok))}
        m = _ROOT_RE.fullmatch(tok)
        if m:
            level = int(m.group(1))
            if level < 1:
                raise ParseError("root-of-unity level must be positive")
            return {self._unit(): root_of_unity(level, 1)}
        m = re.fullmatch(r"[xX](\d+)", tok)
        if m:
            idx = int(m.group(1))
            if idx >= self.num_vars:
                raise ParseError(
                    f"variable X{idx} out of range for {self.num_vars} variables"
                )
            mon = tuple(1 if i == idx else 0 for i in range(self.num_vars))
            return {mon: rational(1)}
        raise ParseError(f"unexpected token {tok!r}")

    def _unit(self) -> Monomial:
        return (0,) * self.num_vars


def _dict_add(a, b, sign):
    out = dict(a)
    for mon, c in b.items():
        s = out.get(mon)
        s = sign * c if s is None else s + sign * c
        if s:
            out[mon] = s
        else:
            out.pop(mon, None)
    return out


def _dict_mul(a, b, num_vars):
    out: dict[Monomial, CycloNum] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mon = tuple(x + y for x, y in zip(m1, m2))
            c = c1 * c2
            s = out.get(mon)
            s = c if s is None else s + c
            if s:
                out[mon] = s
            else:
                out.pop(mon, None)
    return out


def _dict_pow(a, k, num_vars):
    if k < 0:
        scalar = _as_scalar(a)
        if scalar is None or not scalar:
            raise ParseError("negative powers are only allowed for nonzero scalars")
        return {(0,) * num_vars if num_vars else (): scalar ** k}
    out = {(0,) * num_vars if num_vars else (): rational(1)}
    for _ in range(k):
        out = _dict_mul(out, a, num_vars)
    return out


def _as_scalar(value) -> CycloNum | None:
    unit_terms = {m: c for m, c in value.items() if any(m)}
    if unit_terms:
        return None
    if not value:
        return rational(0)
    return next(iter(value.values()))


def parse(text: str, num_vars: int) -> HomogPoly:
    """Parse a homogeneous polynomial in num_vars variables X0..X(num_vars-1)."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    value = _Parser(text, num_vars).parse()
    if not value:
        raise ParseError("the zero polynomial has no defined degree")
    degrees = {sum(m) for m in value}
    if len(degrees) > 1:
        by_degree = sorted(value, key=lambda m: (sum(m), m))
        raise NotHomogeneousError(by_degree[0], by_degree[-1])
    return HomogPoly(num_vars, degrees.pop(), value)


def parse_scalar(text: str) -> CycloNum:
    """Parse a scalar expression (integers, fractions, zN powers, + - *)."""
    value = _Parser(text, 0).parse()
    scalar = _as_scalar(value)
    if scalar is None:
        raise ParseError("expected a scalar expression")
    return scalar
