import cmath
import random
import time
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperaut.autgrp import DiagAut, multiplier, parse_diag
from hyperaut.cyclo import rational, root_of_unity
from hyperaut.poly import (
    COST_BUDGET,
    MAX_DEGREE,
    MAX_ROOT_LEVEL,
    MAX_TERMS,
    MAX_VARS,
    CapExceededError,
    HomogPoly,
    NotHomogeneousError,
    NotSemiInvariantError,
    ParseError,
    monomials_of_degree,
    parse,
    parse_scalar,
)

from conftest import fermat
from oracles import apply_diagonal, compose, permute_variables, probe_support_queries, restrict


def test_parse_fermat_cubic():
    F = parse("X0^3 + X1^3 + X2^3 + X3^3", 4)
    assert F.degree == 3 and F.num_vars == 4
    assert len(F.terms) == 4


def test_parse_klein_support(klein_quartic):
    assert klein_quartic.degree == 4
    assert set(klein_quartic.support()) == {(3, 1, 0), (0, 3, 1), (1, 0, 3)}


def test_parse_not_homogeneous():
    with pytest.raises(NotHomogeneousError) as info:
        parse("X0^2 + X1^3", 2)
    assert set(info.value.witness) == {(2, 0), (0, 3)}


def test_parse_coefficients_and_errors():
    F = parse("2/3*X0^2 - (1 + z3)*X0*X1 + X1^2", 2)
    assert F.terms[(2, 0)] == rational(2) / 3
    assert F.terms[(1, 1)] == -(rational(1) + root_of_unity(3, 1))
    with pytest.raises(ParseError):
        parse("X0^2 + X5^2", 2)
    with pytest.raises(ParseError):
        parse("X0^2 ++", 2)
    with pytest.raises(ParseError):
        parse("X0 / X1", 2)
    assert parse_scalar("z12^4") == root_of_unity(3, 1)
    assert parse_scalar("3/4 * z2") == rational(-3) / 4
    with pytest.raises(ParseError, match="root-of-unity level must be positive"):
        parse_scalar("z0^3")


def _monomial_text(mon):
    return "*".join(f"X{i}^{e}" for i, e in enumerate(mon) if e)


@pytest.mark.parametrize("text, num_vars, message", [
    ("X0^1000000 + X1^1000000", 4, f"degree 1000000 exceeds the cap of {MAX_DEGREE}"),
    ("X0^200 * X1^57", 2, f"degree 257 exceeds the cap of {MAX_DEGREE}"),
    ("(X0+X1+X2+X3)^40", 4, f"a product of 286 by 4 terms exceeds the cap of {MAX_TERMS}"),
    (" + ".join(_monomial_text(m) for m in monomials_of_degree(MAX_VARS, 3)[:MAX_TERMS + 1]),
     MAX_VARS, f"a sum of more than {MAX_TERMS} terms exceeds the term cap"),
    ("z3^3000 * X0", 1, f"exponent 3000 exceeds the cap of {MAX_ROOT_LEVEL}"),
    ("X0", MAX_VARS + 1, f"{MAX_VARS + 1} variables exceed the cap of {MAX_VARS}"),
    ("X99999999", 10 ** 8, f"100000000 variables exceed the cap of {MAX_VARS}"),
    ("z5^-3000 * X0", 1, f"exponent -3000 exceeds the cap of {MAX_ROOT_LEVEL}"),
    ("X0^257", 1, f"degree 257 exceeds the cap of {MAX_DEGREE}"),
    ("(X0*X1)^129", 2, f"degree 258 exceeds the cap of {MAX_DEGREE}"),
], ids=["exponent", "product-degree", "product-terms", "sum-terms", "scalar-exponent",
        "variables", "variable-index", "negative-root-exponent", "one-term-degree",
        "one-term-product-degree"])
def test_parse_refuses_inputs_above_the_caps_at_once(text, num_vars, message):
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as info:
        parse(text, num_vars)
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == message


def test_parse_admits_inputs_at_the_caps():
    assert parse(f"X0^{MAX_DEGREE} + X1^{MAX_DEGREE}", 2).degree == MAX_DEGREE
    assert parse(f"X{MAX_VARS - 1}", MAX_VARS).num_vars == MAX_VARS
    # 2 * (k + 1) term pairs at the step to (X0 + X1)^(k + 1).
    assert len(parse(f"(X0 + X1)^{MAX_DEGREE}", 2).terms) == MAX_DEGREE + 1
    assert parse_scalar(f"z{MAX_ROOT_LEVEL}^{MAX_ROOT_LEVEL - 1}") == root_of_unity(
        MAX_ROOT_LEVEL, MAX_ROOT_LEVEL - 1
    )
    assert parse_scalar("(1+z3)^-7") * parse_scalar("(1+z3)^7") == 1


@pytest.mark.parametrize("power", [16, 64, 256])
def test_parse_refuses_coefficient_work_above_the_budget(power):
    root_of_unity(2039)  # the level's table is built once per process, about 0.4 s
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"exceeds the budget of {COST_BUDGET}"):
        parse(f"(X0+z2039*X1)^{power}", 2)
    assert time.perf_counter() - start < 1


def test_parse_charges_dense_products_by_the_size_of_their_coefficients():
    # Each inverse has dense coordinates of about 2,000 bits; their product
    # would take seconds, and is refused before it is made.
    root_of_unity(2039)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"exceeds the budget of {COST_BUDGET}"):
        parse("(2+z2039)^-1 * (3+z2039)^-1 * X0", 1)
    assert time.perf_counter() - start < 2


def test_root_powers_and_one_term_powers_are_not_charged():
    # Both make no coefficient product.  Charged as dense products, the first
    # ran out of budget at 67,566,112 steps and the second at 69,226,176.
    root_of_unity(2039)
    start = time.perf_counter()
    value = parse_scalar("z2039^2038")
    assert time.perf_counter() - start < 0.5
    assert value.level == 2039 and value == root_of_unity(2039, -1)
    text = " + ".join(f"z2039^{k}*X0^{k}*X1^{256 - k}" for k in range(1, 11))
    start = time.perf_counter()
    F = parse(text, 2)
    assert time.perf_counter() - start < 2
    assert F.terms == {(k, 256 - k): root_of_unity(2039, k) for k in range(1, 11)}


@lru_cache(maxsize=None)
def _copies_of_root(N, j):
    """The product of |j| copies of zeta_N, of its inverse when j < 0,
    bracketed in halves so that level 2048 stays cheap; 1 when j == 0."""
    if j == 0:
        return rational(1)
    if abs(j) == 1:
        z = parse_scalar(f"z{N}")
        return rational(1) * z if j == 1 else rational(1) / z
    half = int(j / 2)
    return _copies_of_root(N, half) * _copies_of_root(N, j - half)


def _complex_value(c):
    return sum(float(q) * cmath.exp(2j * cmath.pi * i / c.level) for i, q in enumerate(c.coeffs))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 2048]), st.integers(-2048, 2048))
@example(12, 0)
def test_root_powers_match_repeated_products_and_the_complex_root(N, k):
    value = parse_scalar(f"z{N}^{k}")
    expected = _copies_of_root(N, k)
    assert (value.level, value.coeffs) == (expected.level, expected.coeffs)
    assert value.level == (N if k else 1)
    assert abs(_complex_value(value) - cmath.exp(2j * cmath.pi * k / N)) < 1e-9


RATIONAL_COEFFICIENTS = ["1", "-1", "2", "3/4", "(-2/5)", "(z3+1-z3)", "(z12^5-z12^5-7/3)"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RATIONAL_COEFFICIENTS),
       st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any),
       st.integers(0, 256))
@example("(z3+1-z3)", [1], 0)
def test_one_term_powers_match_repeated_products(c, mon, k):
    k %= MAX_DEGREE // sum(mon) + 1
    # Written without powers, so the base is made by the charged products.
    base_text = "*".join([c] + [f"X{i}" for i, e in enumerate(mon) for _ in range(e)])
    (base,) = parse(base_text, len(mon)).terms.values()
    expected = rational(1)
    for _ in range(k):
        expected = expected * base
    F = parse(f"({base_text})^{k}", len(mon))
    assert list(F.terms) == [tuple(e * k for e in mon)]
    (value,) = F.terms.values()
    assert (value.level, value.coeffs) == (expected.level, expected.coeffs)


def test_division_by_a_scalar_inverts_it_once():
    root_of_unity(2039)
    square = "(X0+X1+X2+X3+X4+X5+X6+X7)^2"
    start = time.perf_counter()
    quotient = parse(f"{square}/(1+z2039)", 8)
    assert time.perf_counter() - start < 0.5
    assert len(quotient.terms) == 36
    # quotient * (1 + z2039) == square, without 36 products of 2,000-bit
    # coordinates: inv inverts 1 + z2039, and each quotient term is the
    # square's term times inv.
    inv = 1 / (1 + root_of_unity(2039))
    assert inv * (1 + root_of_unity(2039)) == 1
    expected = parse(square, 8)
    assert quotient.terms.keys() == expected.terms.keys()
    for mon, c in expected.terms.items():
        assert quotient.terms[mon] == c * inv, mon


def test_scalar_powers_match_repeated_products():
    for text, base, k in [("(2+z12^5)^7", 2 + root_of_unity(12, 5), 7),
                          ("(1-z5)^-3", 1 - root_of_unity(5), -3),
                          ("(3/4)^0", rational(3) / 4, 0),
                          ("(z3+1-z3)^0", rational(1) + root_of_unity(3) - root_of_unity(3), 0)]:
        value = rational(1)
        for _ in range(abs(k)):
            value = value * base
        expected = value if k >= 0 else 1 / value
        got = parse_scalar(text)
        assert (got.level, got.coeffs) == (expected.level, expected.coeffs)


def test_str_round_trip():
    text = "X0^3*X1 - 2*X1^4 + z5^2*X2^4"
    F = parse(text, 3)
    assert parse(str(F), 3) == F


def test_apply_diagonal_identity_and_fermat():
    F = fermat(4, 4)
    g = DiagAut(4, (1, 0, 0, 0))
    assert multiplier(F, g) == 1
    assert apply_diagonal(F, g.eigenvalues()) == F
    assert apply_diagonal(F, [rational(1)] * 4) == F


def test_apply_diagonal_single_term():
    F = parse("X0*X3^3", 5)
    g = DiagAut(12, (4, 4, 1, 0, 0))
    assert multiplier(F, g) == root_of_unity(12, 4)
    G = apply_diagonal(F, g.eigenvalues())
    assert G.terms[(1, 0, 0, 3, 0)] == root_of_unity(12, 4)


def test_apply_diagonal_rejects_zero():
    # A diagonal action is written by roots of unity; zero is refused on input.
    with pytest.raises(ParseError):
        parse_diag("diag(0, 1, 1)")


def test_semi_invariance_multiplier():
    F = fermat(4, 4)
    assert multiplier(F, DiagAut(4, (1, 0, 0, 0))) == 1

    W = parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5)
    assert multiplier(W, DiagAut(12, (4, 4, 1, 0, 0))) == root_of_unity(12, 4)

    # diag(z3, z5, 1) at level 15.
    G = parse("X0^3 + X1^3", 3)
    with pytest.raises(NotSemiInvariantError) as info:
        multiplier(G, DiagAut(15, (5, 3, 0)))
    assert set(info.value.witness) == {(3, 0, 0), (0, 3, 0)}


def test_multiplier_round_trip():
    W = parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5)
    g = DiagAut(12, (4, 4, 1, 0, 0))
    assert apply_diagonal(W, g.eigenvalues()) == W * multiplier(W, g)


def test_scalars_act_by_degree_power():
    F = parse("X0^3*X1 + X2^4", 3)
    s = root_of_unity(8, 3)
    assert multiplier(F, DiagAut(8, (3, 3, 3))) == s ** 4


def test_support_queries(klein_quartic):
    prof = fermat(4, 4).support_queries()
    assert not any(prof.on_hypersurface)

    prof = klein_quartic.support_queries()
    assert all(prof.on_hypersurface)
    assert [sorted(p) for p in prof.partners] == [[1], [2], [0]]
    assert prof.missing_near_power == ()

    W = parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5)
    prof = W.support_queries()
    assert prof.on_hypersurface == (False, False, False, True, True)
    assert sorted(prof.partners[3]) == [0]
    assert sorted(prof.partners[4]) == [1]

    cone = parse("X0^3+X1^3+X2^3", 4)
    assert cone.support_queries().missing_near_power == (3,)


@st.composite
def supports_near_the_vertices(draw):
    # Random supports weighted towards pure and near powers, the monomials
    # the profile reads.
    v = draw(st.integers(1, 6))
    d = draw(st.integers(0, 7))
    vertex_mons = [
        tuple((d - 1 if x == i else 0) + (1 if x == j else 0) for x in range(v))
        for i in range(v) for j in range(v)
    ] if d else []
    picked = draw(st.sets(st.sampled_from(monomials_of_degree(v, d)), min_size=1, max_size=5))
    if vertex_mons:
        picked |= draw(st.sets(st.sampled_from(vertex_mons), max_size=2 * v))
    return HomogPoly.from_support(sorted(picked), v)


@settings(max_examples=200, deadline=None)
@given(supports_near_the_vertices())
def test_support_queries_match_monomial_probes(F):
    assert F.support_queries() == probe_support_queries(F)


def test_support_queries_in_low_degrees():
    # Degree 2: X0*X1 is a near power of both variables.  Degree 1: the near
    # powers of X_i are the other variables.
    prof = parse("X0*X1 + X2^2", 3).support_queries()
    assert prof.partners == (frozenset({1}), frozenset({0}), frozenset())
    assert prof.on_hypersurface == (True, True, False)
    prof = parse("X0 + X2", 3).support_queries()
    assert prof.on_hypersurface == (False, True, False)
    assert prof.partners == (frozenset({2}), frozenset({0, 2}), frozenset({0}))
    assert prof.missing_near_power == ()
    assert parse("3", 2).support_queries().on_hypersurface == (False, False)


def test_restrict():
    F = fermat(4, 4)
    R = restrict(F, {0})
    assert set(R.support()) == {(0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)}

    W = parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5)
    assert restrict(W, {0, 1, 2}).is_zero()

    P = parse("X0^3", 2)
    assert restrict(P, {1}) == P
    with pytest.raises(ValueError):
        restrict(P, {0, 1})


def test_partial():
    F = parse("X0^4", 2)
    assert F.partial(0) == parse("4*X0^3", 2)
    assert parse("X0^3*X1", 2).partial(1) == parse("X0^3", 2)
    assert parse("X1^4", 2).partial(0).is_zero()


def test_euler_relation():
    fixtures = [
        fermat(4, 4),
        parse("X0^3*X1 + X1^3*X2 + X2^3*X0", 3),
        parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5),
        parse("2*X0^2*X1 - z3*X1^3 + X2^3", 3),
    ]
    for F in fixtures:
        total = HomogPoly.zero(F.num_vars, F.degree)
        for i in range(F.num_vars):
            xi = [0] * F.num_vars
            xi[i] = 1
            mono = HomogPoly(F.num_vars, 1, {tuple(xi): rational(1)})
            total = total + mono * F.partial(i)
        assert total == F * rational(F.degree)


def test_permute_variables():
    F = parse("X0^2*X1 + X2^3", 3)
    G = permute_variables(F, (2, 0, 1))
    assert G == parse("X1^2*X2 + X0^3", 3)


def test_monomials_of_degree():
    assert len(monomials_of_degree(3, 2)) == 6
    assert monomials_of_degree(2, 3)[0] == (3, 0)
    for mon in monomials_of_degree(4, 5):
        assert sum(mon) == 5


@st.composite
def support_and_actions(draw):
    num_vars = draw(st.integers(min_value=2, max_value=4))
    degree = draw(st.integers(min_value=2, max_value=4))
    mons = draw(
        st.sets(
            st.sampled_from(monomials_of_degree(num_vars, degree)),
            min_size=1, max_size=4,
        )
    )
    def aut():
        lvl = draw(st.sampled_from([1, 2, 3, 4, 6]))
        exps = draw(st.tuples(*[st.integers(0, lvl - 1)] * num_vars))
        return DiagAut(lvl, exps)
    return HomogPoly.from_support(sorted(mons), num_vars), aut(), aut()


def _multiplier_or_none(F, g):
    try:
        return multiplier(F, g)
    except NotSemiInvariantError:
        return None


@settings(max_examples=40, deadline=None)
@given(support_and_actions())
def test_apply_diagonal_multiplicative(data):
    # The substitution oracle is multiplicative; multiplier agrees with it
    # wherever it is defined, and the characters add under products.
    F, g, h = data
    gh = compose(g, h)
    moved = apply_diagonal(F, gh.eigenvalues())
    assert apply_diagonal(apply_diagonal(F, g.eigenvalues()), h.eigenvalues()) == moved
    t = _multiplier_or_none(F, gh)
    if t is None:
        assert all(moved != F * (moved.terms[m] / F.terms[m]) for m in F.terms)
    else:
        assert moved == F * t
    tg, th = _multiplier_or_none(F, g), _multiplier_or_none(F, h)
    if tg is not None and th is not None:
        assert t == tg * th
