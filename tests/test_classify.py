import pytest

from hyperaut import autgrp, geometry
from hyperaut.autgrp import DiagAut, enumerate_elements, multiplier, symmetry_group
from hyperaut.classify import (
    TYPE_I,
    TYPE_II,
    TYPE_III,
    TYPE_IV,
    TYPE_V,
    TYPE_VI,
    OUT_OF_SCOPE,
    DivisorClaim,
    UnsupportedRangeError,
    VertexSmoothnessError,
    badr_bars_divisors,
    branch_claims,
    claims_satisfied,
    classify_case,
    classify_instances,
    divisor_claims,
    normal_form_type,
    theorem11_claims,
    theorem11_divisors,
    type_level_claims,
    zheng_integers,
)
from hyperaut.geometry import fixed_locus
from hyperaut.harness import delta_supports, example_witness
from hyperaut.poly import CapExceededError, MAX_VARS, parse

from conftest import fermat
from oracles import (
    literal_badr_bars,
    literal_theorem11,
    literal_type_level_claims,
    restrict,
    subset_zheng_integers,
)


# -- normal-form typing ---------------------------------------------------------


def _typed(F, g):
    fx = fixed_locus(F, g)
    return normal_form_type(g, fx)


def test_type_i():
    ntype, unit, _ = _typed(fermat(5, 3), DiagAut(3, (1, 0, 0, 0, 0)))
    assert ntype == TYPE_I
    assert unit == (1, 2, 3, 4)


def test_type_v_witness():
    F, g = example_witness(4)
    ntype, unit, _ = _typed(F, g)
    assert ntype == TYPE_V
    assert unit == (3, 4)


def test_out_of_scope_many_eigenvalues():
    F = fermat(5, 5)
    g = DiagAut(5, (0, 1, 2, 3, 4))
    ntype, _, reason = _typed(F, g)
    assert ntype == OUT_OF_SCOPE
    assert "eigenvalues" in reason


def test_out_of_scope_identity():
    F = fermat(4, 3)
    ntype, _, reason = _typed(F, DiagAut(1, (0, 0, 0, 0)))
    assert ntype == OUT_OF_SCOPE


def test_klein_is_type_vi(klein_quartic):
    g = DiagAut(7, (1, 5, 0))
    fx = fixed_locus(klein_quartic, g)
    ntype, unit, _ = normal_form_type(g, fx)
    assert ntype == TYPE_VI
    # all three vertices lie on the curve, partnered in a cycle
    prof = klein_quartic.support_queries()
    assert all(prof.on_hypersurface)
    assert [sorted(p)[0] for p in prof.partners] == [1, 2, 0]


def test_type_ii_and_iii_and_iv():
    F = fermat(5, 4)
    assert _typed(F, DiagAut(4, (1, 1, 0, 0, 0)))[0] == TYPE_II
    assert _typed(F, DiagAut(4, (1, 2, 0, 0, 0)))[0] == TYPE_III
    # A threefold containing the line X0 = X1 = X2 = 0 with a three-fold
    # repeated eigenvalue: the line is a Type IV component, the plane slice
    # a Type II one; both instances must carry satisfiable claims.
    W = parse("X0^4 + X1^4 + X2^4 + X3^3*X0 + X4^3*X1", 5)
    g = DiagAut(3, (1, 1, 1, 0, 0))
    fx = fixed_locus(W, g)
    assert fx.codim_in_x == 2
    instances = classify_instances(W, g, fx, 3, 4)
    types = {inst.normal_type for inst in instances}
    assert TYPE_IV in types
    for inst in instances:
        assert claims_satisfied(inst.claims, g.order_in_pgl(), 3), inst


# -- branch claims -----------------------------------------------------------------


def test_type_i_claims():
    F = fermat(4, 5)
    g = DiagAut(5, (1, 0, 0, 0))
    case = classify_case(F, g, fixed_locus(F, g))
    assert case.normal_type == TYPE_I
    assert [c.value for c in case.claims] == [5]

    F2 = parse("X0^4*X1 + X1^5 + X2^5 + X3^5", 4)
    g2 = DiagAut(4, (1, 0, 0, 0))
    case2 = classify_case(F2, g2, fixed_locus(F2, g2))
    assert case2.normal_type == TYPE_I
    assert [c.value for c in case2.claims] == [4]


def test_witness_claims_and_warning():
    for d in (3, 4, 5):
        F, g = example_witness(d)
        case = classify_case(F, g, fixed_locus(F, g))
        assert case.normal_type == TYPE_V
        assert case.order == d * (d - 1)
        assert claims_satisfied(case.claims, case.order, 3)
        assert [c.value for c in case.claims] == [d * (d - 1)]
        assert case.multiplier_t == g.eigenvalues()[0]
        assert case.rationality.status == "rational"
        assert case.rationality.primary == "thm-3.18"
        assert "thm-4.5-corrected" in case.warnings


def test_semi_invariance_is_decided_once_per_element(monkeypatch):
    # fixed_locus keeps the character; classify_case reads it off the report
    # instead of deciding semi-invariance a second time.
    calls = []
    character = autgrp.character

    def counted(F, g):
        calls.append(g)
        return character(F, g)

    monkeypatch.setattr(autgrp, "character", counted)
    monkeypatch.setattr(geometry, "character", counted)
    F = fermat(4, 5)
    for g in enumerate_elements(symmetry_group(list(F.terms), 4)):
        calls.clear()
        case = classify_case(F, g, fixed_locus(F, g))
        assert calls == [g]
        assert case.multiplier_t == multiplier(F, g)


def test_divisor_claims_type_level():
    d = 5
    assert {c.value for c in divisor_claims(3, d, TYPE_V)} == {20, 16, 15, 13, 12}
    assert {c.value for c in divisor_claims(2, d, TYPE_I)} == {5, 4}
    vi = divisor_claims(2, d, TYPE_VI)
    assert {c.value for c in vi} == {80, 64, 65, 52, 60, 48, 51}
    assert divisor_claims(3, d, TYPE_VI) == ()
    with pytest.raises(UnsupportedRangeError):
        divisor_claims(2, 4, TYPE_I)
    with pytest.raises(UnsupportedRangeError):
        divisor_claims(1, 5, TYPE_I)


def test_branch_claims_spec_values():
    # Type V, n = 3, every vertex off the hypersurface: order divides d(d-1).
    F, g = example_witness(5)
    (inst,) = [
        i for i in classify_instances(F, g, fixed_locus(F, g), 3, 5) if i.unit_indices == (3, 4)
    ]
    assert inst.normal_type == TYPE_V and inst.block_indices == (0, 1, 2)
    assert [(c.value, c.requires_n) for c in branch_claims(TYPE_V, 3, 5, inst.incidence)] \
        == [(20, None)]


def test_four_cycle_claims_include_cycle_constant():
    # Smooth surface with an order-51 symmetry at d = 5: the Type VI branch
    # where the three block partners chain into the unit coordinate.
    F = parse("X0^4*X1 + X1^4*X2 + X2^4*X3 + X3^4*X0", 4)
    g = DiagAut(51, (1, 0, 4, 39))
    fx = fixed_locus(F, g)
    assert fx.codim_in_x == 2
    case = classify_case(F, g, fx)
    assert case.order == 51
    assert case.normal_type == TYPE_VI
    assert claims_satisfied(case.claims, 51, 2)
    assert any(x % 51 == 0 for x in theorem11_divisors(2, 5, 2))


def test_classify_instances_cover_multiple_components():
    # diag(a,a,a,1,1) on a threefold where both the plane slice and the line
    # can carry components: every instance must carry satisfiable claims.
    F = fermat(5, 4)
    g = DiagAut(4, (1, 1, 0, 0, 0))
    fx = fixed_locus(F, g)
    instances = classify_instances(F, g, fx, 3, 4)
    assert instances
    for inst in instances:
        assert claims_satisfied(inst.claims, g.order_in_pgl(), 3)


# -- numeric bound generators -------------------------------------------------------


def test_memoised_branch_claims_match_a_fresh_computation():
    # On the 2:5 and 3:4 delta groups every instance's claims equal the
    # uncached branch computation and its block piece the restriction of F;
    # the sweep meets the same branches over and over.
    branch_claims.cache_clear()
    instances = 0
    for n, d in ((2, 5), (3, 4)):
        for support in delta_supports(n, d):
            F = support.poly()
            for g in enumerate_elements(symmetry_group(support.monomials(), n + 2)):
                try:
                    found = classify_instances(F, g, fixed_locus(F, g), n, d)
                except VertexSmoothnessError:
                    continue
                for inst in found:
                    assert inst.claims == branch_claims.__wrapped__(
                        inst.normal_type, n, d, inst.incidence
                    )
                    assert inst.incidence.block_piece_zero == restrict(F, inst.unit_indices).is_zero()
                    instances += 1
    info = branch_claims.cache_info()
    assert info.hits + info.misses == instances
    assert info.hits > 10 * info.misses


def test_badr_bars():
    assert badr_bars_divisors(4) == frozenset({12, 9, 8, 7})
    assert badr_bars_divisors(5) == frozenset({20, 16, 15, 13})
    with pytest.raises(UnsupportedRangeError):
        badr_bars_divisors(3)


def test_zheng_integers_samples():
    z14 = zheng_integers(1, 4)
    assert 7 in z14        # |1-(1-d)^3| / d
    assert 9 in z14        # (d-1)^2
    assert 12 in z14       # lcm(|1-(1-d)|, d-1)
    assert 8 in z14        # |1-(1-d)^2|
    z25 = zheng_integers(2, 5)
    assert {51, 64, 5, 15, 65, 20, 80, 60}.issubset(z25)
    with pytest.raises(UnsupportedRangeError):
        zheng_integers(0, 5)


def test_order_lists_match_their_literal_transcription():
    types = [TYPE_I, TYPE_II, TYPE_III, TYPE_IV, TYPE_V, TYPE_VI, OUT_OF_SCOPE, "VII"]
    for d in range(3, 16):
        if d >= 4:
            assert badr_bars_divisors(d) == literal_badr_bars(d)
        for n in range(2, 7):
            for ntype in types:
                claims = type_level_claims(ntype, n, d)
                assert [(c.value, c.requires_n) for c in claims] == list(
                    literal_type_level_claims(ntype, n, d)
                )
            if (n, d) == (2, 4):
                continue
            for codim in (1, 2):
                assert theorem11_divisors(n, d, codim) == literal_theorem11(n, d, codim)


def test_zheng_integers_match_the_subset_enumeration():
    for n in range(1, 13):
        for d in range(3, 9):
            assert zheng_integers(n, d) == subset_zheng_integers(n, d)


def test_zheng_integers_refuse_more_variables_than_the_parser():
    assert zheng_integers(MAX_VARS - 2, 3)
    with pytest.raises(CapExceededError, match=f"{MAX_VARS + 1} variables exceed"):
        zheng_integers(MAX_VARS - 1, 3)


def test_theorem11_divisors():
    assert theorem11_divisors(4, 5, 2) == frozenset({20, 16, 15})
    assert theorem11_divisors(3, 5, 2) == frozenset({20, 16, 15, 13, 12})
    assert theorem11_divisors(2, 5, 1) == frozenset({5, 4, 3})
    assert 51 in theorem11_divisors(2, 5, 2)
    with pytest.raises(UnsupportedRangeError):
        theorem11_divisors(2, 4, 2)
    with pytest.raises(ValueError):
        theorem11_divisors(3, 5, 3)


def test_theorem11_claims_match_closed_form():
    # The closed form the audit used before the claims were built from
    # theorem11_divisors: codim 1 allows d, d-1, and d-2 only for orders
    # below 3 or on surfaces; codim 2 allows any divisor of a list entry.
    def codim1(order, n, d):
        if d % order == 0 or (d - 1) % order == 0:
            return True
        if (d - 2) % order == 0:
            return order < 3 or n == 2
        return False

    for n in range(2, 7):
        for d in range(3, 15):
            if (n, d) == (2, 4):
                continue
            one = theorem11_claims(n, d, 1)
            two = theorem11_claims(n, d, 2)
            assert [c.value for c in two] == sorted(theorem11_divisors(n, d, 2))
            for order in range(1, d ** 3):
                assert claims_satisfied(one, order, n) == codim1(order, n, d), (n, d, order)
                assert claims_satisfied(two, order, n) == any(
                    x % order == 0 for x in theorem11_divisors(n, d, 2)
                ), (n, d, order)


def test_badr_bars_divide_zheng():
    for d in range(4, 13):
        zheng = zheng_integers(1, d)
        for x in badr_bars_divisors(d):
            assert any(z % x == 0 for z in zheng), (d, x)


# -- rationality ---------------------------------------------------------------------


def test_fermat_rationality_iso_pn():
    F = fermat(4, 5)
    g = DiagAut(5, (1, 0, 0, 0))
    case = classify_case(F, g, fixed_locus(F, g))
    assert case.rationality.status == "rational-iso-pn"
    assert case.rationality.primary == "thm-2.5-ii-b"
    assert "thm-3.3" in case.rationality.fired
    assert case.galois.galois and case.galois.galois_point


def test_type_vi_generic_unknown():
    F = parse("X0^4*X1 + X1^4*X2 + X2^4*X3 + X3^4*X0", 4)
    g = DiagAut(51, (1, 0, 4, 39))
    case = classify_case(F, g, fixed_locus(F, g))
    assert case.rationality.status == "unknown"
    assert case.rationality.fired == ()


def test_claims_satisfied_semantics():
    claims = (DivisorClaim(6, None), DivisorClaim(8, 2))
    assert claims_satisfied(claims, 3, 5)       # 3 | 6
    assert claims_satisfied(claims, 8, 2)       # side condition met
    assert not claims_satisfied(claims, 8, 3)   # 8 | 8 needs n = 2
    assert not claims_satisfied(claims, 5, 2)
