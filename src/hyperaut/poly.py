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
The parser refuses the same way, before expanding it, any product or power
of degree above MAX_DEGREE, any product of more than MAX_TERMS term pairs,
any sum of more than MAX_TERMS terms, any scalar power with an exponent
above MAX_ROOT_LEVEL, more than MAX_VARS variables, and a coefficient
product that would take one parse's work above COST_BUDGET.  A root power
zN^k is read off the level-N table and a single term with a rational
coefficient is powered termwise; neither makes a coefficient product, so
neither is charged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cyclo import CycloNum, euler_phi, rational, root_of_unity

Monomial = tuple[int, ...]

# Admits the level of every delta-group element for n:d up to 2:8, 3:6 and
# 4:5 (1,280 at 4:5).  An analyze call at the largest prime below the cap,
# 2039, peaks at about 81 MB.
MAX_ROOT_LEVEL = 2048
# The degree-200 Fermat surface is the largest input the tests use.  MAX_TERMS
# bounds the term pairs of each product the parser expands; `symmetry_group`
# takes 0.6 s and 33 MB on 4,096 random cubic terms in 32 variables.
MAX_DEGREE = 256
MAX_TERMS = 1024
MAX_VARS = 32
# Steps of about 0.1 us (_Parser._charge).  The largest parse in the tests
# costs 2.2e7.  On a 2-vCPU host steps run slowest, 0.16 us, in level-12
# binomial powers at the degree cap: two of them (4.1e7) take 6.8 s at 18 MB,
# and a parse that runs out of budget stops within about 11 s.
COST_BUDGET = 2 ** 26


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
            "not an automorphism of this hypersurface; witness monomials "
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
        return HomogPoly(self.num_vars, self.degree, _dict_add(dict(self.terms), other.terms))

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
        return HomogPoly(
            self.num_vars, self.degree + other.degree, _dict_mul(self.terms, other.terms)
        )

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


def _check_root_level(*parsers: "_Parser") -> None:
    """Raise CapExceededError when the zN levels of the parsers' texts have
    an lcm above MAX_ROOT_LEVEL."""
    level = lcm(*(p.root_level for p in parsers))
    if level > MAX_ROOT_LEVEL:
        raise CapExceededError(
            f"root-of-unity level {level} (the lcm of the zN levels) exceeds "
            f"the cap of {MAX_ROOT_LEVEL}"
        )


class _Parser:
    """One text, tokenized once; parse() only after _check_root_level."""

    def __init__(self, text: str, num_vars: int):
        self.tokens = _tokenize(text)
        self.root_level = lcm(*(
            int(m.group(1)) for m in map(_ROOT_RE.fullmatch, self.tokens) if m
        ))
        self.pos = 0
        self.num_vars = num_vars
        self.cost = 0

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
            sign = -1 if self.next() == "-" else 1
            _dict_add(value, self._term(), sign)
            if len(value) > MAX_TERMS:
                raise CapExceededError(
                    f"a sum of more than {MAX_TERMS} terms exceeds the term cap"
                )
        return value

    def _term(self):
        value = self._factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self._factor()
            if op == "*":
                value = self._mul(value, rhs)
            else:
                scalar = _as_scalar(rhs)
                if scalar is None or not scalar:
                    raise ParseError("division is only allowed by a nonzero scalar")
                # One inverse, charged as the divisor's square, then a product.
                self._charge(rhs, rhs)
                value = self._mul(value, {self._unit(): scalar.inverse()})
        return value

    def _factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        root = _ROOT_RE.fullmatch(self.peek() or "")
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
            value = self._pow(value, exp_sign * int(tok), int(root.group(1)) if root else 0)
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

    def _charge(self, a, b) -> None:
        """Charge the coefficient products of a * b against COST_BUDGET.

        A term pair at level L (the lcm of the levels) costs 32 (phi(L) + 4)
        steps, and a pair of irrational coefficients phi(L)^2 h_a h_b more,
        a dense product on h-limb ints; roots of unity count as dense.
        """
        phi = euler_phi(lcm(*(c.level for c in a.values()), *(c.level for c in b.values())))
        (dense_a, h_a), (dense_b, h_b) = _size(a), _size(b)
        self.cost += len(a) * len(b) * 32 * (phi + 4) + dense_a * dense_b * phi * phi * h_a * h_b
        if self.cost > COST_BUDGET:
            raise CapExceededError(
                f"coefficient work of {self.cost} steps exceeds the budget of {COST_BUDGET}"
            )

    def _mul(self, a, b):
        """The product of two term dicts, refused above the caps and the budget."""
        degree = _degree(a) + _degree(b)
        if degree > MAX_DEGREE:
            raise CapExceededError(f"degree {degree} exceeds the cap of {MAX_DEGREE}")
        if len(a) * len(b) > MAX_TERMS:
            raise CapExceededError(
                f"a product of {len(a)} by {len(b)} terms exceeds the cap of {MAX_TERMS}"
            )
        self._charge(a, b)
        return _dict_mul(a, b)

    def _pow(self, a, k, root_level=0):
        """a^k, refused above the caps and the budget; root_level is N when a
        is the bare token zN.

        A root power is read off the level-N table and a single term with a
        rational coefficient is powered termwise: neither makes a coefficient
        product, so neither is charged.  Other powers multiply out.
        """
        scalar = _as_scalar(a)
        # zN^k with k < N is the largest scalar power a diag(...) text needs.
        if scalar is not None and abs(k) > MAX_ROOT_LEVEL:
            raise CapExceededError(f"exponent {k} exceeds the cap of {MAX_ROOT_LEVEL}")
        if k < 0 and not scalar:
            raise ParseError("negative powers are only allowed for nonzero scalars")
        out = {self._unit(): rational(1)}
        if k == 0:
            return out
        if root_level:
            return {self._unit(): root_of_unity(root_level, k)}
        if scalar is None:
            degree = _degree(a) * k
            if degree > MAX_DEGREE:
                raise CapExceededError(f"degree {degree} exceeds the cap of {MAX_DEGREE}")
            if len(a) == 1:
                (mon, c), = a.items()
                if c.is_rational():
                    return {tuple(e * k for e in mon): c ** k}
            for _ in range(k):
                out = self._mul(out, a)
            return out
        if k < 0:
            self._charge(a, a)
            a = {self._unit(): scalar.inverse()}
        # Binary powering, each product charged with the heights it meets.
        for bit in bin(abs(k))[2:]:
            out = self._mul(out, out)
            if bit == "1":
                out = self._mul(out, a)
        return out


def _dict_add(out, b, sign=1):
    """Add sign * b into the term dict out, in place; returns out."""
    for mon, c in b.items():
        s = out.get(mon)
        s = sign * c if s is None else s + sign * c
        if s:
            out[mon] = s
        else:
            out.pop(mon, None)
    return out


def _dict_mul(a, b):
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


def _degree(a) -> int:
    return max(map(sum, a), default=0)


def _size(a) -> tuple[int, int]:
    """(irrational coefficients, 64-bit limbs of the largest numerator or denominator)."""
    bits = max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for c in a.values() for q in c.coeffs), default=0)
    return sum(not c.is_rational() for c in a.values()), 1 + bits // 64


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
        raise ParseError("need at least one variable")
    if num_vars > MAX_VARS:
        raise CapExceededError(f"{num_vars} variables exceed the cap of {MAX_VARS}")
    parser = _Parser(text, num_vars)
    _check_root_level(parser)
    value = parser.parse()
    if not value:
        raise ParseError("the zero polynomial has no defined degree")
    degrees = {sum(m) for m in value}
    if len(degrees) > 1:
        by_degree = sorted(value, key=lambda m: (sum(m), m))
        raise NotHomogeneousError(by_degree[0], by_degree[-1])
    return HomogPoly(num_vars, degrees.pop(), value)


def parse_scalar(text: str) -> CycloNum:
    """Parse a scalar expression (integers, fractions, zN powers, + - *)."""
    return parse_scalars([text])[0]


def parse_scalars(texts) -> list[CycloNum]:
    """Parse scalar expressions that share one root-of-unity level: the lcm
    of the zN levels of all the texts is refused before any is parsed."""
    parsers = [_Parser(text, 0) for text in texts]
    _check_root_level(*parsers)
    values = []
    for parser in parsers:
        scalar = _as_scalar(parser.parse())
        if scalar is None:
            raise ParseError("expected a scalar expression")
        values.append(scalar)
    return values
