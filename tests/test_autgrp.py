import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaut.autgrp import (
    CapExceededError,
    DiagAut,
    InfiniteGroupError,
    enumerate_elements,
    multiplier,
    parse_diag,
    smith_normal_form,
    symmetry_group,
)
from hyperaut.cyclo import root_of_unity
from hyperaut.geometry import fixed_locus
from hyperaut.harness import delta_supports, example_witness
from hyperaut.poly import NotSemiInvariantError, parse

from conftest import fermat
from oracles import (
    apply_diagonal,
    brute_force_class_count,
    minors_gcd,
    permute,
    scalar_shift,
)


def test_order_in_pgl():
    assert DiagAut(12, (4, 4, 1, 0, 0)).order_in_pgl() == 12
    assert DiagAut(6, (2, 4, 0)).order_in_pgl() == 3
    assert DiagAut(5, (0, 0, 0, 0)).order_in_pgl() == 1
    assert DiagAut(7, (3, 3, 3)).order_in_pgl() == 1


def test_order_invariance_under_scalar_shift_and_permutation():
    rng = random.Random(3)
    for _ in range(100):
        level = rng.choice([2, 3, 4, 6, 12, 30])
        exps = tuple(rng.randrange(level) for _ in range(rng.randint(2, 5)))
        g = DiagAut(level, exps)
        c = rng.randrange(level)
        assert scalar_shift(g, c).order_in_pgl() == g.order_in_pgl()
        perm = list(range(len(exps)))
        rng.shuffle(perm)
        assert permute(g, perm).order_in_pgl() == g.order_in_pgl()


def test_eigen_structure():
    # The fixed-locus report holds g's eigenspaces: one slice per distinct
    # exponent, ordered by first coordinate.
    F, g = example_witness(4)
    assert [(s.indices, s.eigen_exp) for s in fixed_locus(F, g).slices] == [
        ((0, 1), 4), ((2,), 1), ((3, 4), 0)
    ]

    ident = DiagAut(1, (0,) * 6)
    assert [s.indices for s in fixed_locus(fermat(6, 3), ident).slices] == [tuple(range(6))]

    g = DiagAut(11, (1, 2, 3, 4, 5))
    assert [(s.indices, s.eigen_exp) for s in fixed_locus(fermat(5, 11), g).slices] == [
        ((0,), 1), ((1,), 2), ((2,), 3), ((3,), 4), ((4,), 5)
    ]


def test_parse_and_format():
    g = parse_diag("diag(z12^4, z12^4, z12, 1, 1)")
    assert g == DiagAut(12, (4, 4, 1, 0, 0))
    assert parse_diag(str(g)) == g
    assert parse_diag("diag(-1, 1)") == DiagAut(2, (1, 0))
    with pytest.raises(Exception):
        parse_diag("diag(2, 1)")
    with pytest.raises(Exception):
        parse_diag("dig(1)")


def test_eigenvalues_and_action(klein_quartic):
    g = DiagAut(7, (1, 5, 0))
    assert multiplier(klein_quartic, g) == root_of_unity(7, 1)
    assert apply_diagonal(klein_quartic, g.eigenvalues()) == klein_quartic * root_of_unity(7, 1)
    with pytest.raises(NotSemiInvariantError):
        multiplier(fermat(3, 3), DiagAut(15, (5, 3, 0)))


# -- Smith normal form ----------------------------------------------------------


def _det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_smith_normal_form_properties(nr, nc, data):
    rows = [
        [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(nc)]
        for _ in range(nr)
    ]
    D, V = smith_normal_form(rows, nc)
    assert abs(_det(V)) == 1
    diag = [D[i][i] for i in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert D[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # d1 * ... * dk is the gcd of the k x k minors of A.
    prefix = 1
    for k, x in enumerate(diag, start=1):
        prefix *= x
        assert minors_gcd(rows, k) == prefix
    # A V = [W diag(d1..dr) | 0] with W primitive (its r x r minors coprime),
    # so W extends to a unimodular U^-1 and U A V = D.
    rank = sum(1 for x in diag if x)
    AV = _matmul(rows, V)
    assert all(row[j] == 0 for row in AV for j in range(rank, nc))
    assert all(row[j] % diag[j] == 0 for row in AV for j in range(rank))
    W = [[row[j] // diag[j] for j in range(rank)] for row in AV]
    assert rank == 0 or minors_gcd(W, rank) == 1


# -- symmetry groups --------------------------------------------------------------


def test_fermat_symmetry_groups():
    for d in (3, 4, 5):
        for v in (3, 4, 5):
            group = symmetry_group(fermat(v, d).support())
            assert group.order == d ** (v - 1)
            assert group.invariant_factors == (d,) * (v - 1)


def test_klein_symmetry_group(klein_quartic):
    group = symmetry_group(klein_quartic.support())
    assert group.invariant_factors == (7,)
    assert group.describe() == "Z/7"
    gen = group.generators[0]
    assert multiplier(klein_quartic, gen) is not None


def test_chain_symmetry_group():
    F = parse("X0^3*X1 + X1^3*X2 + X2^4", 3)
    group = symmetry_group(F.support())
    assert group.invariant_factors == (9,)
    gen = group.generators[0]
    assert gen.order_in_pgl() == 9
    target = DiagAut(9, (1, 6, 0))
    assert any(
        DiagAut(gen.level, tuple(k * e for e in gen.exps)) == target for k in range(1, 10)
    )


def test_symmetry_group_every_element_semi_invariant(klein_quartic):
    for F in (klein_quartic, fermat(4, 3), parse("X0^3*X1+X1^3*X2+X2^4", 3)):
        group = symmetry_group(F.support())
        for g in enumerate_elements(group):
            multiplier(F, g)  # raises if not semi-invariant


def test_infinite_group_rejected():
    with pytest.raises(InfiniteGroupError):
        symmetry_group([(3, 0, 0)], 3)


def test_enumerate_elements():
    group = symmetry_group(parse("X0^3*X1+X1^3*X2+X2^3*X0", 3).support())
    elements = list(enumerate_elements(group))
    assert len(elements) == 7
    assert sum(1 for g in elements if g.order_in_pgl() == 7) == 6

    # The full binary cubic admits only scalar diagonal symmetries.
    trivial = symmetry_group([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    assert trivial.order == 1
    assert [g.is_identity() for g in enumerate_elements(trivial)] == [True]

    group = symmetry_group(fermat(3, 3).support())
    assert len(list(enumerate_elements(group))) == 9
    with pytest.raises(CapExceededError):
        list(enumerate_elements(group, cap=8))


def test_enumerate_with_order_filter():
    group = symmetry_group(parse("X0^3*X1+X1^3*X2+X2^3*X0", 3).support())
    of_order_7 = [g for g in enumerate_elements(group) if g.order_in_pgl() == 7]
    assert len(of_order_7) == 6


def test_enumeration_no_duplicates():
    group = symmetry_group(fermat(4, 4).support())
    seen = set()
    for g in enumerate_elements(group):
        key = tuple((e - g.exps[0]) % g.level for e in g.exps)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 64


def test_order_divides_group_exponent():
    for F in (fermat(4, 5), parse("X0^3*X1+X1^3*X2+X2^4", 3)):
        group = symmetry_group(F.support())
        for g in enumerate_elements(group):
            assert group.exponent % g.order_in_pgl() == 0


def test_brute_force_agreement():
    cases = [
        fermat(3, 3).support(),
        fermat(3, 4).support(),
        fermat(4, 3).support(),
        parse("X0^3*X1+X1^3*X2+X2^3*X0", 3).support(),
        parse("X0^3*X1+X1^3*X2+X2^4", 3).support(),
        parse("X0^4*X1+X1^4*X2+X2^4*X3+X3^4*X0", 4).support(),
    ]
    for support in cases:
        group = symmetry_group(support)
        count = brute_force_class_count(support, group.exponent)
        assert count == group.order


def test_delta_support_group_orders_match_determinant():
    # Berglund-Huebsch / Krawitz: the diagonal maps fixing the delta
    # polynomial with exponent matrix A = (d-1)I + P_sigma form a group of
    # order |det A|; it holds the d scalar ones, so |det A| / d classes
    # remain in PGL.
    for n, d in ((2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (4, 5)):
        for support in delta_supports(n, d):
            m = support.num_vars
            A = [[(d - 1) * (i == j) + (support.sigma[i] == j) for j in range(m)]
                 for i in range(m)]
            expected = abs(_det(A)) / d
            group = symmetry_group(support.monomials(), m)
            assert group.order == expected, (n, d, support.name)
