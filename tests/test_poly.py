import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaut.autgrp import DiagAut, multiplier, parse_diag
from hyperaut.cyclo import rational, root_of_unity
from hyperaut.poly import (
    HomogPoly,
    NotHomogeneousError,
    NotSemiInvariantError,
    ParseError,
    monomials_of_degree,
    parse,
    parse_scalar,
)

from conftest import fermat
from oracles import apply_diagonal, compose, permute_variables, probe_support_queries


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
    assert F.coeff((2, 0)) == rational(2) / 3
    assert F.coeff((1, 1)) == -(rational(1) + root_of_unity(3, 1))
    with pytest.raises(ParseError):
        parse("X0^2 + X5^2", 2)
    with pytest.raises(ParseError):
        parse("X0^2 ++", 2)
    with pytest.raises(ParseError):
        parse("X0 / X1", 2)
    assert parse_scalar("z12^4") == root_of_unity(3, 1)
    assert parse_scalar("3/4 * z2") == rational(-3) / 4


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
    assert G.coeff((1, 0, 0, 3, 0)) == root_of_unity(12, 4)


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
    R = F.restrict({0})
    assert set(R.support()) == {(0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)}

    W = parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5)
    assert W.restrict({0, 1, 2}).is_zero()

    P = parse("X0^3", 2)
    assert P.restrict({1}) == P
    with pytest.raises(ValueError):
        P.restrict({0, 1})


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
        assert all(moved != F * (moved.coeff(m) / F.coeff(m)) for m in F.terms)
    else:
        assert moved == F * t
    tg, th = _multiplier_or_none(F, g), _multiplier_or_none(F, h)
    if tg is not None and th is not None:
        assert t == tg * th
