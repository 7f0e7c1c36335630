"""Acceptance suite: one test per gate criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The bound-generator consistency criterion pins the two
codimension-two divisor-list entries for surfaces (n = 2) that divide no
global order bound, (d^2-3d+3)(d-1) and (d-2)(d-1)^2, and proves for small
degrees that no smooth surface attains them (see notes in the README).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hyperaut.autgrp import (
    DiagAut,
    character_exponent,
    enumerate_elements,
    multiplier,
    symmetry_group,
)
from hyperaut.classify import (
    badr_bars_divisors,
    classify_case,
    theorem11_divisors,
    zheng_integers,
)
from hyperaut.cyclo import rational, root_of_unity
from hyperaut.geometry import fixed_locus, smoothness
from hyperaut.harness import audit_row, delta_supports, example_witness
from hyperaut.poly import monomials_of_degree, parse

from conftest import fermat
from oracles import (
    apply_diagonal,
    brute_force_class_count,
    compose,
    permute,
    scalar_shift,
)


@contextmanager
def criterion(name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"{name} took {elapsed:.1f}s, budget {budget_seconds}s"
        )


def test_klein_quartic_extremal_order():
    """Cyclic group of order exactly 7 = d^2 - 3d + 3 at d = 4."""
    with criterion("klein-extremal-order", budget_seconds=1):
        F = parse("X0^3*X1 + X1^3*X2 + X2^3*X0", 3)
        group = symmetry_group(F.support())
        assert group.invariant_factors == (7,)
        assert group.order == 7 == 4 * 4 - 3 * 4 + 3
        assert group.describe() == "Z/7"


def test_fermat_symmetry_group_orders():
    """Diagonal symmetries of Fermat hypersurfaces: order d^(n+1) exactly."""
    with criterion("fermat-symmetry-groups", budget_seconds=10):
        for d in (3, 4, 5):
            for v in (3, 4, 5):
                group = symmetry_group(fermat(v, d).support())
                assert group.order == d ** (v - 1), (d, v)
        for v in (3, 4, 5):
            group = symmetry_group(fermat(v, 3).support())
            assert brute_force_class_count(fermat(v, 3).support(), 3) == group.order


def test_order_d_times_d_minus_one_witness():
    """The threefold witness: order d(d-1), multiplier = first eigenvalue,
    smooth, codim-2 fixed locus containing a line, rational with the
    corrected-criterion warning."""
    with criterion("witness-family", budget_seconds=30):
        for d in (3, 4, 5):
            F, g = example_witness(d)
            assert g.order_in_pgl() == d * (d - 1)
            cert = smoothness(F)
            assert cert.verdict == "smooth", (d, cert.reason)
            fx = fixed_locus(F, g)
            assert fx.codim_in_x == 2
            assert fx.contains_line is True
            case = classify_case(F, g, fx)
            assert case.multiplier_t == g.eigenvalues()[0]
            assert case.rationality.status == "rational"
            assert case.rationality.primary == "thm-3.18"
            assert "thm-4.5-corrected" in case.warnings


def test_exhaustive_divisor_audits():
    """Zero violations over all smooth delta supports, both codimensions."""
    with criterion("divisor-audits", budget_seconds=600):
        claims = ("thm-1.1-codim1", "thm-1.1-codim2")
        for n, d in ((2, 5), (2, 6), (3, 4), (3, 5)):
            for claim, report in zip(claims, audit_row(n, d, claims, keep_records=False)):
                assert report.claim == claim
                assert not report.partial, (n, d, claim)
                assert report.supports_inconclusive == (), (n, d, claim)
                assert report.violations == (), (n, d, claim, report.violations[:3])
                assert report.cases_examined > 0


def test_smoothness_certificates():
    """Fermat hypersurfaces certified smooth by the rank test; the cubic cone
    certified singular with the right witness point."""
    with criterion("smoothness-certificates", budget_seconds=60):
        for d in (3, 4, 5):
            for n in (1, 2):
                cert = smoothness(fermat(n + 2, d))
                assert cert.verdict == "smooth", (n, d)
                assert cert.method == "macaulay_rank"
        cone = smoothness(parse("X0^3+X1^3+X2^3", 4))
        assert cone.verdict == "singular"
        assert cone.witness_str() == "[0:0:0:1]"


def unattained_surface_entries(d):
    """The two surface codim-2 list entries that divide no global bound."""
    return frozenset({(d * d - 3 * d + 3) * (d - 1), (d - 2) * (d - 1) ** 2})


def test_bound_generator_consistency():
    """Cross-check of the codimension-two divisor lists against the global
    order bounds.

    Every extremal plane-curve bound divides a global bound, and so does
    every codimension-two list entry for n in {3, 4}.  For surfaces (n = 2)
    every entry divides a global bound except exactly (d^2-3d+3)(d-1) and
    (d-2)(d-1)^2, which divide none for any d: a multiple of d^2-3d+3 occurs
    only inside d(d^2-3d+3), which is 1 mod d-1, and the admissible lcm
    combinations on four variables cannot carry (d-1)^2 next to
    |1-(1-d)^2|.  Theorem 1.1 only bounds orders from above, so this is no
    contradiction: the two entries are sound divisor bounds that no smooth
    surface attains.

    The last part proves that for d = 5, 6, 7.  A smooth surface must contain
    X_i^d or some X_i^(d-1) X_j for every i, so its support contains a delta
    support whose symmetry group holds the automorphism.  For every element
    of either order in any delta-support group, the only degree-d monomials
    with the delta character are the four delta monomials, so the surface
    is a delta polynomial up to rescaling the variables, and every delta
    polynomial carrying such an element is certified singular.
    """
    with criterion("bound-generator-consistency"):
        for d in range(4, 13):
            zheng1 = zheng_integers(1, d)
            for x in badr_bars_divisors(d):
                assert any(z % x == 0 for z in zheng1), (d, x)
        for n in (2, 3, 4):
            for d in range(4, 13):
                if (n, d) == (2, 4):
                    continue
                zheng = zheng_integers(n, d)
                entries = theorem11_divisors(n, d, 2)
                unattained = unattained_surface_entries(d) if n == 2 else frozenset()
                assert unattained <= entries, (n, d)
                for x in entries:
                    divides = any(z % x == 0 for z in zheng)
                    assert divides == (x not in unattained), (n, d, x, divides)

        for d in (5, 6, 7):
            monomials = monomials_of_degree(4, d)
            for x in unattained_surface_entries(d):
                carriers = 0
                for support in delta_supports(2, d):
                    delta = support.monomials()
                    elements = [
                        g for g in enumerate_elements(symmetry_group(delta))
                        if g.order_in_pgl() == x
                    ]
                    if not elements:
                        continue
                    carriers += 1
                    for g in elements:
                        c = character_exponent(delta[0], g)
                        same = {m for m in monomials if character_exponent(m, g) == c}
                        assert same == set(delta), (d, x, support.name, str(g))
                    cert = smoothness(support.poly())
                    assert cert.verdict == "singular", (d, x, support.name)
                # The order occurs in some delta-support group, so the proof
                # above is never vacuous.
                assert carriers, (d, x)


def test_property_suites():
    """Field axioms on 1000 random small elements, Euler relation on the
    fixtures, character additivity under products with the substitution
    oracle, order invariances, lattice-vs-brute group order agreement."""
    with criterion("property-suites", budget_seconds=60):
        rng = random.Random(20240809)

        def small():
            lvl = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
            x = root_of_unity(lvl, rng.randrange(lvl)) * rng.randint(-3, 3)
            return x + Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))

        for _ in range(1000):
            x, y, z = small(), small(), small()
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * x.inverse() == 1

        fixtures = [
            fermat(4, 4),
            parse("X0^3*X1 + X1^3*X2 + X2^3*X0", 3),
            parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5),
            parse("2*X0^2*X1 - z3*X1^3 + X2^3", 3),
        ]
        from hyperaut.poly import HomogPoly
        for F in fixtures:
            total = HomogPoly.zero(F.num_vars, F.degree)
            for i in range(F.num_vars):
                xi = [0] * F.num_vars
                xi[i] = 1
                mono = HomogPoly(F.num_vars, 1, {tuple(xi): rational(1)})
                total = total + mono * F.partial(i)
            assert total == F * rational(F.degree)

        W = parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5)
        elements = list(enumerate_elements(symmetry_group(W.support())))
        for _ in range(30):
            g, h = rng.choice(elements), rng.choice(elements)
            gh = compose(g, h)
            assert multiplier(W, gh) == multiplier(W, g) * multiplier(W, h)
            assert apply_diagonal(W, gh.eigenvalues()) == W * multiplier(W, gh)

        for _ in range(120):
            level = rng.choice([2, 3, 4, 6, 12])
            exps = tuple(rng.randrange(level) for _ in range(rng.randint(2, 5)))
            g = DiagAut(level, exps)
            assert scalar_shift(g, rng.randrange(level)).order_in_pgl() == g.order_in_pgl()
            perm = list(range(len(exps)))
            rng.shuffle(perm)
            assert permute(g, perm).order_in_pgl() == g.order_in_pgl()

        supports = [
            fermat(3, 3).support(),
            fermat(3, 5).support(),
            fermat(4, 3).support(),
            parse("X0^3*X1+X1^3*X2+X2^3*X0", 3).support(),
            parse("X0^3*X1+X1^3*X2+X2^4", 3).support(),
            parse("X0^4*X1+X1^4*X2+X2^4*X3+X3^4*X0", 4).support(),
            parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5).support(),
        ]
        for support in supports:
            group = symmetry_group(support)
            modulus = group.exponent
            if modulus ** (len(support[0]) - 1) > 10 ** 6:
                continue
            assert brute_force_class_count(support, modulus) == group.order
