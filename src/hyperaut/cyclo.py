"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as a level N together with its coordinates in the canonical
basis 1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N), obtained by reducing
power-basis expressions modulo the N-th cyclotomic polynomial.  The
representation is canonical: two values at the same level are equal as field
elements exactly when their coordinate tuples coincide.  Arithmetic on values
at different levels embeds both into the lcm level first.

Coordinates are `fractions.Fraction`, so everything is exact.  Every
univariate polynomial product and division, here and in `geometry`, runs
through `_poly_mul` and `_poly_divmod`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer."""
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_mul(a, b) -> list:
    """The product of two coefficient lists, constant term first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] += x * y
    return out


def _poly_divmod(a, b) -> tuple[list, list]:
    """(q, r) with a == q*b + r and len(r) < len(b), constant term first.

    Exact for Fraction and CycloNum entries, and for int entries when b is
    monic: an int leading coefficient must be 1, so the quotient is found
    without dividing and stays in the integers.  Trailing zeros of b and of
    r are dropped.
    """
    a = list(a)
    while b and not b[-1]:
        b = b[:-1]
    lead = b[-1]
    # Decided from the type: comparing a CycloNum lead with 1 would embed
    # the 1 at the lead's level on every call.
    monic = isinstance(lead, int)
    if monic and lead != 1:
        raise ValueError("an integer divisor must be monic")
    q = [0] * max(0, len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        top = a[k + len(b) - 1]
        if top:
            c = q[k] = top if monic else top / lead
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    while a and not a[-1]:
        a.pop()
    return q, a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rest = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rest:
                raise ArithmeticError("division is not exact")
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduced_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^k in the canonical basis, for 0 <= k < max(n, 2*phi(n) - 1)."""
    phi = euler_phi(n)
    top = cyclotomic_polynomial(n)
    rows: list[tuple[int, ...]] = []
    for k in range(phi):
        row = [0] * phi
        row[k] = 1
        rows.append(tuple(row))
    cur = list(rows[-1])
    for _ in range(phi, max(n, 2 * phi - 1)):
        nxt = [0] * phi
        carry = cur[phi - 1]
        for i in range(phi - 1):
            nxt[i + 1] = cur[i]
        if carry:
            for i in range(phi):
                nxt[i] -= carry * top[i]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


def _integral(coeffs) -> tuple[list[int], int]:
    # Fractions as integer numerators over their least common denominator.
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduce_power_vector(level: int, vec: list[int], den: int = 1) -> "CycloNum":
    # Fold the power-basis vector vec / den (vec of any length covered by the
    # table) into the canonical basis of length phi(level).  The arithmetic
    # is on ints; each coordinate becomes a Fraction once, at the end.
    table = _reduced_powers(level)
    out = [0] * len(table[0])
    for k, c in enumerate(vec):
        if c:
            for i, r in enumerate(table[k]):
                if r:
                    out[i] += c * r
    return _make(level, tuple(Fraction(c, den) for c in out))


@lru_cache(maxsize=None)
def _root_index(level: int) -> dict[tuple[int, ...], int]:
    """The coordinates of zeta_level^j -> j, for 0 <= j < level."""
    return {row: j for j, row in enumerate(_reduced_powers(level)[:level])}


class CycloNum:
    """An element of Q(zeta_N) in canonical reduced form.

    Instances are immutable.  Equality is mathematical equality of field
    elements, independent of the levels the operands happen to live at.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        if level < 1:
            raise ValueError("level must be a positive integer")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(level):
            raise ValueError("coefficient vector has the wrong length")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    # -- level handling ----------------------------------------------------

    def embed(self, m: int) -> "CycloNum":
        """The same field element viewed at a higher level m (level | m)."""
        if m == self.level:
            return self
        if m % self.level:
            raise ValueError("can only embed into a multiple of the level")
        step = m // self.level
        nums, den = _integral(self.coeffs)
        vec = [0] * ((len(nums) - 1) * step + 1)
        vec[::step] = nums
        return _reduce_power_vector(m, vec, den)

    @staticmethod
    def _coerce(x) -> "CycloNum":
        if isinstance(x, CycloNum):
            return x
        if isinstance(x, (int, Fraction)):
            return rational(x)
        raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")

    def _common(self, other) -> tuple["CycloNum", "CycloNum"]:
        other = self._coerce(other)
        m = lcm(self.level, other.level)
        return self.embed(m), other.embed(m)

    def _scale(self, q: Fraction) -> "CycloNum":
        return _make(self.level, tuple(q * c for c in self.coeffs))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        try:
            a, b = self._common(other)
        except TypeError:
            return NotImplemented
        return _make(a.level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.level, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        try:
            a, b = self._common(other)
        except TypeError:
            return NotImplemented
        return _make(a.level, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        m = lcm(self.level, other.level)
        if other.is_rational():
            return self.embed(m)._scale(other.coeffs[0])
        if self.is_rational():
            return other.embed(m)._scale(self.coeffs[0])
        xs, da = _integral(self.embed(m).coeffs)
        ys, db = _integral(other.embed(m).coeffs)
        return _reduce_power_vector(m, _poly_mul(xs, ys), da * db)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self.is_rational():
            return _make(self.level, (1 / self.coeffs[0],) + self.coeffs[1:])
        # Extended Euclid against the cyclotomic polynomial over Q.
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.level)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [0], [1]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                return _reduce_power_vector(self.level, *_integral([c / r1[0] for c in s1]))
            q, r = _poly_divmod(r0, r1)
            s = [x - y for x, y in zip_longest(s0, _poly_mul(q, s1), fillvalue=0)]
            r0, s0 = r1, s1
            r1, s1 = r, s

    def __truediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE.embed(self.level)
        base = self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        try:
            a, b = self._common(other)
        except TypeError:
            return NotImplemented
        return a.coeffs == b.coeffs

    __hash__ = None  # mathematical equality crosses levels; do not hash

    # -- roots of unity ----------------------------------------------------

    def as_root_of_unity(self) -> tuple[int, int] | None:
        """(m, k) with self == zeta_m^k, gcd(k, m) == 1, or None.

        The torsion of Q(zeta_N)* is the group of the +-zeta_N^j, and
        -zeta_N^j = zeta_2N^(2j + N), so at most two lookups decide.
        """
        index = _root_index(self.level)
        j = index.get(self.coeffs)
        if j is not None:
            e = 2 * j
        elif (j := index.get(tuple(-c for c in self.coeffs))) is not None:
            e = 2 * j + self.level
        else:
            return None
        m = 2 * self.level  # self == zeta_m^e
        g = gcd(e, m)
        return (m // g, e % m // g)

    def root_order(self) -> int | None:
        """Smallest m >= 1 with self**m == 1, or None if not a root of unity."""
        root = self.as_root_of_unity()
        return None if root is None else root[0]

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        root = self.as_root_of_unity()
        if root is not None:
            m, k = root
            return f"z{m}" if k == 1 else f"z{m}^{k}"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                power = f"z{self.level}" if k == 1 else f"z{self.level}^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"CycloNum({self})"


def _make(level: int, coeffs: tuple[Fraction, ...]) -> CycloNum:
    # Trusted constructor for the results of ring operations, whose coeffs
    # already are phi(level) Fractions: it skips the checks of __init__.
    x = object.__new__(CycloNum)
    _set_level(x, level)
    _set_coeffs(x, coeffs)
    return x


_set_level = CycloNum.level.__set__
_set_coeffs = CycloNum.coeffs.__set__


def root_of_unity(level: int, k: int = 1) -> CycloNum:
    """zeta_level^k in canonical form at the given level.

    >>> str(root_of_unity(4, 2))
    '-1'
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    return _make(level, tuple(Fraction(c) for c in _reduced_powers(level)[k % level]))


def rational(q) -> CycloNum:
    """A rational number as a level-1 cyclotomic value."""
    return _make(1, (Fraction(q),))


ZERO = rational(0)
ONE = rational(1)
