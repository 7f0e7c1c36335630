import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaut.cyclo import (
    CycloNum,
    _reduce_power_vector,
    cyclotomic_polynomial,
    euler_phi,
    rational,
    root_of_unity,
)


def test_root_of_unity_reads_the_reduced_power_table():
    # Row k of the table against folding the power vector zeta^k.
    for level in range(1, 41):
        for k in range(-level, 2 * level):
            got = root_of_unity(level, k)
            want = _reduce_power_vector(level, [0] * (k % level) + [1])
            assert got.level == want.level and got.coeffs == want.coeffs
            assert all(type(c) is Fraction for c in got.coeffs)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in (1, 2, 3, 8, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_roots_of_unity_basic():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1


def test_inverse_pair_and_zero():
    z = root_of_unity(12, 1)
    assert z * root_of_unity(12, 11) == 1
    w = root_of_unity(6, 1)
    diff = w - w
    assert diff.is_zero()
    assert not diff


def test_equality_across_levels():
    assert root_of_unity(3, 1) == root_of_unity(12, 4)
    assert root_of_unity(3, 1) != root_of_unity(12, 5)
    assert rational(Fraction(1, 2)) == root_of_unity(5, 0) / 2


def test_canonical_coefficients_unique():
    a = root_of_unity(5, 2) + root_of_unity(5, 3)
    b = -1 - root_of_unity(5, 1) - root_of_unity(5, 4)
    assert a.level == b.level == 5
    assert a.coeffs == b.coeffs


def test_prime_root_sum_is_zero():
    for p in (2, 3, 5, 7, 11):
        total = rational(0)
        for k in range(p):
            total = total + root_of_unity(p, k)
        assert total.is_zero()


def test_division():
    a = root_of_unity(5, 2)
    b = root_of_unity(5, 3)
    assert a / b == root_of_unity(5, 4)
    x = rational(3) + root_of_unity(7, 1)
    assert x / x == 1
    with pytest.raises(ZeroDivisionError):
        rational(1) / rational(0)


def test_root_order():
    assert root_of_unity(12, 4).root_order() == 3
    assert rational(1).root_order() == 1
    assert rational(2).root_order() is None
    assert rational(-1).root_order() == 2
    assert (-root_of_unity(3, 1)).root_order() == 6
    assert (rational(1) + root_of_unity(5, 1)).root_order() is None


def test_root_order_formula():
    for n in range(1, 61):
        for k in range(n):
            assert root_of_unity(n, k).root_order() == n // gcd(n, k)


def test_as_root_of_unity_against_powers():
    # Oracle: the order is the least m with value**m == 1, and k is the one
    # exponent prime to m with zeta_m^k == value.
    for n in range(1, 16):
        for j in range(n):
            for value in (root_of_unity(n, j), -root_of_unity(n, j)):
                for level in (n, 2 * n):
                    x = value.embed(level)
                    m, k = x.as_root_of_unity()
                    assert x ** m == 1
                    assert all(x ** e != 1 for e in range(1, m))
                    assert (m, k) == (1, 0) or (gcd(k, m) == 1 and 0 < k < m)
                    assert root_of_unity(m, k) == x
                    assert x.root_order() == m
    for x in (rational(2), 2 * root_of_unity(5), 1 + root_of_unity(5), rational(0)):
        assert x.as_root_of_unity() is None and x.root_order() is None


def test_results_keep_level_and_fraction_coordinates():
    z = root_of_unity(3)
    two = rational(2).embed(12)
    values = [z * two, two * z, z * 2, z + two, z - two, -z, (z + 1).inverse(),
              two.inverse(), z ** 3]
    assert [v.level for v in values] == [12, 12, 3, 12, 12, 3, 3, 12, 3]
    for v in values:
        assert len(v.coeffs) == euler_phi(v.level)
        assert all(type(c) is Fraction for c in v.coeffs)


def test_embed_is_ring_hom():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 6])
        m = n * rng.choice([2, 3])
        x = root_of_unity(n, rng.randrange(n)) + rng.randint(-2, 2)
        y = root_of_unity(n, rng.randrange(n)) * rng.randint(-2, 2)
        assert x.embed(m) * y.embed(m) == (x * y).embed(m)
        assert x.embed(m) + y.embed(m) == (x + y).embed(m)
        assert (x.embed(m) == y.embed(m)) == (x == y)


def test_string_forms():
    assert str(root_of_unity(12, 4)) == "z3"
    assert str(root_of_unity(4, 2)) == "-1"
    assert str(rational(Fraction(-2, 3))) == "-2/3"
    assert str(root_of_unity(7, 3)) == "z7^3"
    assert str(rational(2) * root_of_unity(3, 1)) == "2*z3"


small_elements = st.builds(
    lambda lvl, k, c, q: root_of_unity(lvl, k) * c + Fraction(q, 3),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-2, max_value=2),
)


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements, small_elements)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if x:
        assert x * x.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(small_elements)
def test_pow_matches_repeated_product(x):
    acc = rational(1)
    for k in range(4):
        assert x ** k == acc
        acc = acc * x


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # Binary powering: k.bit_length() - 1 squarings plus one product per set
    # bit, so x ** 1 costs one product and no squaring.
    calls = []
    mul = CycloNum.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(CycloNum, "__mul__", counted)
    x = root_of_unity(12) + Fraction(1, 3)
    for k in (1, 2, 3, 5, 8, 13, 64, 100):
        calls.clear()
        acc = rational(1)
        for _ in range(k):
            acc = mul(acc, x)
        assert x ** k == acc
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1"), k
    calls.clear()
    assert x ** 0 == 1 and not calls
