from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperaut import geometry
from hyperaut.autgrp import (
    CapExceededError,
    DiagAut,
    enumerate_elements,
    symmetry_group,
)
from hyperaut.cyclo import CycloNum, rational, root_of_unity
from hyperaut.geometry import (
    DEFAULT_ENTRY_CAP,
    _components,
    _distinct_binary_roots,
    _eigen_pieces,
    _line_screen,
    _macaulay_certificate,
    _macaulay_columns,
    _macaulay_rank,
    _macaulay_system,
    _prime_with_root,
    _sparse_rank,
    _split_certificate,
    fixed_loci,
    fixed_locus,
    galois_by_theorem,
    smoothness,
)
from hyperaut.harness import delta_supports, example_witness
from hyperaut.poly import HomogPoly, NotSemiInvariantError, monomials_of_degree, parse

from conftest import fermat
from oracles import (
    binary_form_from_roots,
    euclid_root_count,
    permute_variables,
    projection_degree,
    restrict,
    support_components,
    two_split_galois,
)


def test_fermat_cubic_surface_smooth():
    cert = smoothness(fermat(4, 3))
    assert cert.verdict == "smooth"
    assert cert.method == "macaulay_rank"
    assert cert.rank == cert.target_rank


def test_cone_singular_with_witness():
    cert = smoothness(parse("X0^3+X1^3+X2^3", 4))
    assert cert.verdict == "singular"
    assert cert.method == "vertex_screen"
    assert cert.witness_str() == "[0:0:0:1]"


def test_witness_family_smooth():
    for d in (3, 4, 5):
        F, _ = example_witness(d)
        assert smoothness(F).verdict == "smooth"


def test_macaulay_detects_hidden_singularity():
    # Singular away from the coordinate points, so the vertex screen passes.
    # The singular points lie on the line (1, 2), where every partial but
    # the first vanishes and the first restricts to X1^4 + X2^4: the line
    # screen catches them, and the rank computation must find the deficit.
    F = parse("X0^4*X1 + X0*X1^4 + X0*X2^4 + X2*X3^4", 4)
    cert = smoothness(F)
    assert cert.verdict == "singular"
    assert cert.method == "line_screen"
    assert cert.reason.endswith("degree-4 factor on the line through P1 and P2")
    rank_cert = _macaulay_certificate(F, DEFAULT_ENTRY_CAP)
    assert rank_cert.verdict == "singular"
    assert rank_cert.method == "macaulay_rank"
    assert rank_cert.rank < rank_cert.target_rank


# Loops X0^(d-1)*X1 + X1^(d-1)*X2 + ... + X3^(d-1)*X0: smooth, and with a
# connected support, so the rank test builds one matrix for the whole F.
LOOP_CUBIC = "X0^2*X1 + X1^2*X2 + X2^2*X3 + X3^2*X0"
LOOP_QUINTIC = "X0^4*X1 + X1^4*X2 + X2^4*X3 + X3^4*X0"


def test_smoothness_cap_is_honest():
    cert = smoothness(parse(LOOP_QUINTIC, 4), entry_cap=10)
    assert cert.verdict == "inconclusive"


def test_entry_cap_is_checked_before_enumerating_monomials():
    # The degree-200 loop surface passes both screens; its Macaulay matrix
    # is counted, not built, and refused without touching the monomial cache.
    F = parse("X0^199*X1 + X1^199*X2 + X2^199*X3 + X3^199*X0", 4)
    before = monomials_of_degree.cache_info()
    cert = smoothness(F)
    assert monomials_of_degree.cache_info() == before
    assert (cert.verdict, cert.method, cert.path) == ("inconclusive", "macaulay_rank", None)
    assert cert.reason == f"matrix would hold {8 * 35_284_690} entries, cap is {DEFAULT_ENTRY_CAP}"
    # The count is the size of the matrix that would be built.
    F = parse(LOOP_QUINTIC, 4)
    partials, gmons, _, target = _macaulay_system(F)
    entries = sum(len(p.terms) for p in partials) * len(gmons)
    assert target == len(monomials_of_degree(4, 13))
    assert smoothness(F, entry_cap=entries - 1).verdict == "inconclusive"
    assert smoothness(F, entry_cap=entries).verdict == "smooth"


def test_smoothness_with_cyclotomic_coefficients():
    # Hesse family: X0^3 + X1^3 + X2^3 + s*X0*X1*X2 is singular exactly when
    # s^3 = -27; a primitive cube root of unity is on the smooth side, and
    # s = -3 gives a singular member (s^3 = -27).
    smooth = parse("X0^3 + X1^3 + X2^3 + z3*X0*X1*X2", 3)
    assert smoothness(smooth).verdict == "smooth"
    singular = parse("X0^3 + X1^3 + X2^3 - 3*X0*X1*X2", 3)
    cert = smoothness(singular)
    assert cert.verdict == "singular"
    assert cert.method == "macaulay_rank"


def test_smoothness_permutation_equivariant():
    F = parse("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", 5)
    for perm in ((1, 0, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 1, 4, 3)):
        assert smoothness(permute_variables(F, perm)).verdict == "smooth"
    S = parse("X0^4*X1 + X0*X1^4 + X0*X2^4 + X2*X3^4", 4)
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0)):
        assert smoothness(permute_variables(S, perm)).verdict == "singular"


# -- the three coefficient paths of the rank test ----------------------------------

DELTA_GRID = ((2, 5), (2, 6), (3, 4), (3, 5))

# (polynomial, number of variables, smooth?) with irrational coefficients.
CYCLOTOMIC_FIXTURES = (
    ("X0^3 + X1^3 + X2^3 + z3*X0*X1*X2", 3, True),
    ("X0^3 + X1^3 + X2^3 - 3*z3*X0*X1*X2", 3, False),   # (-3 z3)^3 = -27
    ("z5*X0^4 + X1^4 + z5^3*X2^4 + (1+z5)*X3^4", 4, True),
    ("X0^4*X1 + z3*X0*X1^4 + X0*X2^4 + z4*X2*X3^4", 4, False),
    ("z8*X0^4*X1 + (1+z8^3)*X1^4*X2 + X2^4*X3 + z4*X3^4*X0", 4, True),
)

EXACT_PATHS = ("rational", "cyclotomic")


def _rank(F, path):
    partials, gmons, _, target = _macaulay_system(F)
    return _macaulay_rank(partials, _macaulay_columns(partials, gmons), target, path, 10 ** 7), target


def _ks_smooth(sigma):
    # Kreuzer-Skarke: no vertex is the image of two other vertices.
    return all(
        sum(1 for i, t in enumerate(sigma) if t == j and i != j) <= 1
        for j in range(len(sigma))
    )


def test_paths_agree_with_exact_elimination_on_delta_grid():
    for n, d in DELTA_GRID:
        for support in delta_supports(n, d):
            F = support.poly()
            exact, target = _rank(F, "cyclotomic")
            assert _rank(F, "rational") == (exact, target), support.name
            assert _rank(F, "modular") == (exact, target), support.name
            # The rank kernel: mod p settles the smooth supports, and the
            # rational elimination rechecks the singular ones.
            cert = _macaulay_certificate(F, DEFAULT_ENTRY_CAP)
            assert cert.path == ("modular" if exact == target else "rational")
            assert (cert.rank, cert.target_rank) == (exact, target)
            assert cert.is_smooth == (exact == target)
            # The line screen fires exactly on the rank-singular supports,
            # and smoothness takes its verdict.
            assert (_line_screen(F) is None) == (exact == target), support.name
            cert = smoothness(F)
            assert cert.is_smooth == (exact == target)
            assert cert.method == ("macaulay_rank" if exact == target else "line_screen")


def test_paths_agree_with_exact_elimination_on_cyclotomic_fixtures():
    for text, v, smooth in CYCLOTOMIC_FIXTURES:
        F = parse(text, v)
        exact, target = _rank(F, "cyclotomic")
        assert (exact == target) == smooth, text
        assert _rank(F, "modular") == (exact, target), text
        cert = _macaulay_certificate(F, DEFAULT_ENTRY_CAP)
        assert cert.is_smooth == smooth
        assert cert.path == ("modular" if smooth else "cyclotomic")
        assert (cert.rank, cert.target_rank) == (exact, target)
        assert _line_screen(F) is None or not smooth, text
        assert smoothness(F).is_smooth == smooth


def test_delta_grid_against_kreuzer_skarke():
    # The fourfold rows check the component split, not the whole-F matrix.
    for n, d in DELTA_GRID + ((4, 4), (4, 5)):
        for support in delta_supports(n, d):
            F = support.poly()
            expected = _ks_smooth(support.sigma)
            assert smoothness(F).is_smooth == expected, support.name
            if (n, d) in DELTA_GRID:
                rank, target = _rank(F, "modular")
                assert (rank == target) == expected, support.name


# -- the component split ----------------------------------------------------------


def _split_entries(F):
    # The (indices, path, rank, target) a smooth split certificate should list.
    entries = []
    for indices in support_components(F):
        if len(indices) > 1:
            part = HomogPoly(len(indices), F.degree, {
                tuple(m[i] for i in indices): c
                for m, c in F.terms.items() if any(m[i] for i in indices)
            })
            cert = _macaulay_certificate(part, DEFAULT_ENTRY_CAP)
            entries.append((indices, cert.path, cert.rank, cert.target_rank))
    return tuple(entries)


def test_components_match_the_bfs_oracle():
    inputs = [support.poly() for n, d in DELTA_GRID + ((4, 4), (4, 5))
              for support in delta_supports(n, d)]
    inputs += [fermat(4, 3), parse(LOOP_CUBIC, 4), parse("X0^3 + X2*X3^2", 5),
               parse("X3^2*X0 + X1^3 + X2*X4*X0 + X5^3", 6)]
    for F in inputs:
        assert _components(F) == support_components(F), str(F)


def test_split_matches_the_whole_rank_test_on_delta_grid():
    for n, d in DELTA_GRID:
        for support in delta_supports(n, d):
            F = support.poly()
            whole = _macaulay_certificate(F, DEFAULT_ENTRY_CAP)
            split = _split_certificate(F, DEFAULT_ENTRY_CAP)
            assert split.verdict == whole.verdict, support.name
            if len(_components(F)) == 1:
                # A connected support gets exactly today's certificate.
                assert split == whole, support.name
            elif split.is_smooth:
                assert (split.rank, split.target_rank, split.path) == (None, None, None)
                assert split.components == _split_entries(F), support.name
            else:
                assert split.path in EXACT_PATHS and split.reason.startswith("on X")


def test_split_certificate_names_the_deciding_component():
    # A loop cubic on X0..X3 whose matrix (160 entries) is over the cap, and
    # the singular Hesse cubic on X4..X6 (36 entries) under it: the singular
    # part decides, although the loop comes first and is inconclusive.
    F = parse(LOOP_CUBIC + " + X4^3 + X5^3 + X6^3 - 3*X4*X5*X6", 7)
    assert smoothness(F).verdict == "singular"
    cert = smoothness(F, entry_cap=100)
    assert (cert.verdict, cert.method, cert.path) == ("singular", "macaulay_rank", "rational")
    assert cert.reason == "on X4, X5, X6: the partial derivatives only span 12 of the 15 degree-4 forms"
    assert (cert.rank, cert.target_rank) == (12, 15)
    # Smooth parts: the loop is still over the cap, and its certificate is
    # F's answer.
    F = parse(LOOP_CUBIC + " + X4^3 + X5^2*X6 + X6^3", 7)
    cert = smoothness(F, entry_cap=100)
    assert (cert.verdict, cert.method) == ("inconclusive", "macaulay_rank")
    assert cert.reason == "on X0, X1, X2, X3: matrix would hold 160 entries, cap is 100"
    cert = smoothness(F)
    assert (cert.verdict, cert.method, cert.reason) == ("smooth", "macaulay_rank", None)
    assert (cert.rank, cert.target_rank, cert.path) == (None, None, None)
    assert cert.components == (((0, 1, 2, 3), "modular", 56, 56), ((5, 6), "modular", 4, 4))
    # One-variable parts build no matrix at all.
    cert = smoothness(fermat(4, 5), entry_cap=0)
    assert (cert.verdict, cert.components) == ("smooth", ())


_LEVELS = (3, 4, 5, 7, 8, 12)


@st.composite
def cyclotomic_sparse_polys(draw):
    v = draw(st.sampled_from((3, 4)))
    d = draw(st.integers(3, 5 if v == 3 else 3))
    # One near-power per variable, so the vertex screen usually passes and
    # the rank test decides, plus a few random monomials.
    mons = set()
    for i in range(v):
        mon = [0] * v
        mon[i] += d - 1
        mon[draw(st.integers(0, v - 1))] += 1
        mons.add(tuple(mon))
    for _ in range(draw(st.integers(0, 2))):
        cut = sorted(draw(st.integers(0, d)) for _ in range(v - 1))
        bounds = [0] + cut + [d]
        mons.add(tuple(bounds[k + 1] - bounds[k] for k in range(v)))
    # Coefficients a*zeta_N^k + b in one field Q(zeta_N).
    level = draw(st.sampled_from(_LEVELS))
    terms = {}
    for mon in sorted(mons):
        c = root_of_unity(level, draw(st.integers(0, level - 1)))
        c = c * draw(st.sampled_from((1, -1, 2, -3))) + draw(st.integers(-1, 1))
        terms[mon] = c
    return HomogPoly(v, d, terms)


@st.composite
def disjoint_sums(draw):
    """F_1 + ... + F_k, k = 2 or 3, in disjoint variables shuffled together.

    A part in one variable is a power; in two, a random sparse form with
    coefficients in one Q(zeta_N); in three, such a form or (in degree 3) a
    member of the Hesse pencil X^3 + Y^3 + Z^3 + s*XYZ, singular for s = -3
    and s = -3*z3, which the screens miss.
    """
    d = draw(st.sampled_from((3, 3, 4)))
    budget = 6 if d == 3 else 4
    count = draw(st.integers(2, 3))
    parts = []
    for left in range(count - 1, -1, -1):
        v = draw(st.integers(1, min(3, budget - left - sum(p.num_vars for p in parts))))
        level = draw(st.sampled_from(_LEVELS))
        if v == 1:
            parts.append(HomogPoly(1, d, {(d,): root_of_unity(level, draw(st.integers(0, level - 1)))}))
            continue
        if v == 3 and d == 3 and draw(st.booleans()):
            s = draw(st.sampled_from(("-3", "-3*z3", "z3", "1+z4")))
            parts.append(parse(f"X0^3 + X1^3 + X2^3 + ({s})*X0*X1*X2", 3))
            continue
        mons = set()
        for i in range(v):
            mon = [0] * v
            mon[i] += d - 1
            mon[draw(st.integers(0, v - 1))] += 1
            mons.add(tuple(mon))
        for _ in range(draw(st.integers(0, 2))):
            cut = sorted(draw(st.integers(0, d)) for _ in range(v - 1))
            bounds = [0] + cut + [d]
            mons.add(tuple(bounds[k + 1] - bounds[k] for k in range(v)))
        terms = {}
        for mon in sorted(mons):
            c = root_of_unity(level, draw(st.integers(0, level - 1)))
            terms[mon] = c * draw(st.sampled_from((1, -1, 2))) + draw(st.integers(-1, 1))
        parts.append(HomogPoly(v, d, terms))
    total = sum(part.num_vars for part in parts)
    F = HomogPoly.zero(total, d)
    offset = 0
    for part in parts:
        F = F + HomogPoly(total, d, {
            (0,) * offset + mon + (0,) * (total - offset - part.num_vars): c
            for mon, c in part.terms.items()
        })
        offset += part.num_vars
    return permute_variables(F, draw(st.permutations(range(total))))


@settings(max_examples=40, deadline=None)
@given(disjoint_sums())
@example(parse("X0^3 + X2^3 + X4^3 - 3*z3*X0*X2*X4 + z4*X1^3 + X3^2*X5 + X5^3", 6))
@example(parse("X1^3 + X3^3 + X5^3 + z3*X1*X3*X5 + X0^3 + z5*X2^3 + X4^3", 6))
def test_split_agrees_with_the_whole_rank_test_on_disjoint_sums(F):
    if F.is_zero():
        return
    assert _components(F) == support_components(F)
    cert = smoothness(F)
    whole = _macaulay_certificate(F, DEFAULT_ENTRY_CAP)
    if whole.verdict == "inconclusive":
        return
    assert cert.verdict == whole.verdict, str(F)
    if not F.support_queries().missing_near_power:  # every variable occurs
        assert _split_certificate(F, DEFAULT_ENTRY_CAP).verdict == whole.verdict, str(F)
    if cert.verdict == "singular" and cert.method == "macaulay_rank":
        assert cert.path in EXACT_PATHS


@settings(max_examples=50, deadline=None)
@given(cyclotomic_sparse_polys())
def test_modular_smooth_implies_exact_smooth(F):
    if F.is_zero():
        return
    exact, target = _rank(F, "cyclotomic")
    modular, _ = _rank(F, "modular")
    if modular is not None:
        assert modular <= exact
        if modular == target:
            assert exact == target
    cert = smoothness(F)
    if cert.method == "macaulay_rank":
        assert cert.is_smooth == (exact == target)
        if cert.verdict == "singular":
            assert cert.path in EXACT_PATHS


def test_denominator_divisible_by_p_falls_back_to_exact():
    for level, path in ((3, "cyclotomic"), (1, "rational")):
        p, _ = _prime_with_root(level)
        F = parse("X0^3 + X1^3 + X2^3", 3) + HomogPoly(
            3, 3, {(1, 1, 1): root_of_unity(level) * Fraction(1, p)}
        )
        assert _rank(F, "modular")[0] is None
        cert = smoothness(F)
        assert cert.verdict == "smooth"
        assert cert.path == path
        assert cert.rank == cert.target_rank


def test_rational_inputs_try_the_modular_rank_first():
    cert = smoothness(parse(LOOP_CUBIC, 4))
    assert (cert.verdict, cert.path) == ("smooth", "modular")
    assert cert.rank == cert.target_rank


def test_singular_verdicts_come_from_exact_paths():
    inputs = [support.poly() for n, d in DELTA_GRID[:3] for support in delta_supports(n, d)]
    inputs += [parse(text, v) for text, v, _ in CYCLOTOMIC_FIXTURES]
    inputs.append(parse("X0^3 + X1^3 + X2^3 - 3*X0*X1*X2", 3))
    singular = [(F, c) for F, c in ((F, smoothness(F)) for F in inputs)
                if c.verdict == "singular"]
    assert singular
    # Each singular verdict of smoothness is a screen or an exact rank.
    assert {c.method for _, c in singular} == {"line_screen", "macaulay_rank"}
    assert all(c.path in EXACT_PATHS for _, c in singular if c.method == "macaulay_rank")
    # The rank kernel, called directly, decides every one on an exact path.
    for F, _ in singular:
        cert = _macaulay_certificate(F, DEFAULT_ENTRY_CAP)
        assert cert.verdict == "singular" and cert.path in EXACT_PATHS


# -- the coordinate-line screen ------------------------------------------------------
# The delta grid and the cyclotomic fixtures are also checked against the
# rank kernel in the two test_paths_agree_* tests above.

HESSE_SINGULAR = (
    "X0^3 + X1^3 + X2^3 - 3*X0*X1*X2",
    "X0^3 + X1^3 + X2^3 - 3*z3*X0*X1*X2",
)


def test_line_screen_never_fires_on_rank_smooth_inputs():
    inputs = [fermat(v, d) for v in (3, 4, 5) for d in (2, 3, 4)]
    inputs += [example_witness(d)[0] for d in (3, 4, 5)]
    inputs += [parse(text, v) for text, v, smooth in CYCLOTOMIC_FIXTURES if smooth]
    for F in inputs:
        assert _macaulay_certificate(F, DEFAULT_ENTRY_CAP).is_smooth, str(F)
        assert _line_screen(F) is None, str(F)


def test_line_screen_agrees_with_kreuzer_skarke():
    for n, d in DELTA_GRID + ((4, 4), (4, 5)):
        for support in delta_supports(n, d):
            hit = _line_screen(support.poly())
            assert (hit is None) == _ks_smooth(support.sigma), support.name


def test_line_screen_misses_the_hesse_members_and_the_rank_test_decides():
    # The singular points of these cubics have all coordinates nonzero.
    for text in HESSE_SINGULAR:
        F = parse(text, 3)
        assert _line_screen(F) is None
        cert = smoothness(F)
        assert cert.verdict == "singular"
        assert cert.method == "macaulay_rank"
        assert cert.path in EXACT_PATHS


def test_line_screen_reports_a_line_inside_the_singular_locus():
    # F lies in (X2, X3)^2, so it is singular along the line through P0 and
    # P1.  Its coordinate points are singular too, and smoothness reports
    # the vertex screen, which runs first.
    F = parse("X0*X2^2 + X1*X3^2", 4)
    cert = _line_screen(F)
    assert cert.verdict == "singular"
    assert cert.reason == "F and all its partials vanish on the line through P0 and P1"
    assert smoothness(F).method == "vertex_screen"


@settings(max_examples=50, deadline=None)
@given(cyclotomic_sparse_polys())
def test_line_screen_against_rank_on_cyclotomic_family(F):
    # A screen hit must be rank-singular; a rank-smooth input gets no hit.
    if F.is_zero():
        return
    hit = _line_screen(F)
    if hit is not None:
        assert hit.verdict == "singular" and hit.method == "line_screen"
        assert _macaulay_certificate(F, DEFAULT_ENTRY_CAP).verdict == "singular"


# -- the elimination kernel against a dense reference -------------------------------


def _dense_rank(rows, prime=None):
    # Textbook Gaussian elimination with pivot search on a dense copy.
    cols = sorted({c for row in rows for c in row})
    mat = [[row.get(c, 0) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        found = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if found is None:
            continue
        mat[rank], mat[found] = mat[found], mat[rank]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            if not mat[i][j]:
                continue
            if prime is None:
                f = mat[i][j] / top[j]
                mat[i] = [a - f * b for a, b in zip(mat[i], top)]
            else:
                f = mat[i][j] * pow(top[j], -1, prime)
                mat[i] = [(a - f * b) % prime for a, b in zip(mat[i], top)]
        rank += 1
    return rank


_SMALL_PRIME = 7
_W = root_of_unity(5) + 2   # an irrational scale for the CycloNum copies

# Integer patterns; each test reads them over Q, F_7 and Q(zeta_5).
KERNEL_MATRICES = (
    # Single-entry pivots at columns 0 and 2 that delete their column from
    # every later row, and the two-entry pivot at 1 used by each of them.
    [{0: 2}, {1: 3, 2: 1}, {0: 1, 1: 1}, {0: 5, 1: 2}, {0: 1, 1: 4}, {0: 3, 1: 3}],
    # Fill-in: reduced rows gain entries and run through chains of pivots.
    [{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: 1, 3: 1}, {0: 2, 3: 1, 4: 1},
     {1: 3, 4: 2}, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}],
    # Rank-deficient: the last two rows are combinations of the first three.
    [{0: 1, 2: 2}, {1: 1, 2: 3}, {0: 2, 3: 1}, {0: 3, 1: 1, 2: 5, 3: 1},
     {1: 2, 2: 6}],
    [],
)


def _in_field(rows, field):
    if field == "rational":
        return [{c: Fraction(v) for c, v in row.items()} for row in rows], None
    if field == "modular":
        return [{c: v % _SMALL_PRIME for c, v in row.items() if v % _SMALL_PRIME}
                for row in rows], _SMALL_PRIME
    return [{c: _W * v for c, v in row.items()} for row in rows], None


@pytest.mark.parametrize("field", ("rational", "modular", "cyclotomic"))
def test_sparse_rank_matches_dense_reference(field):
    for pattern in KERNEL_MATRICES:
        rows, prime = _in_field(pattern, field)
        expected = _dense_rank(rows, prime)
        assert _sparse_rank(rows, prime=prime) == expected, pattern
        for k in range(1, expected + 1):
            assert _sparse_rank(rows, stop_at=k, prime=prime) == k


def test_sparse_rank_on_cyclotomic_macaulay_matrices():
    for text, v, smooth in CYCLOTOMIC_FIXTURES[:2]:
        partials, gmons, _, target = _macaulay_system(parse(text, v))
        rows = [
            {tuple(a + b for a, b in zip(g, m)): c for m, c in p.terms.items()}
            for p in partials for g in gmons
        ]
        rank = _dense_rank(rows)
        assert (rank == target) == smooth
        assert _sparse_rank(rows) == rank


@pytest.mark.parametrize("field", ("rational", "modular", "cyclotomic"))
def test_sparse_rank_fill_cap_counts_stored_pivot_entries(field):
    # Pivot rows as found: {0, 1} (2 entries), {0, 2} reduced to {1, 2} (2),
    # {1, 2, 3} reduced to {2, 3} (2): 6 stored entries, rank 3.
    rows, prime = _in_field([{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: 1, 3: 1}], field)
    assert _sparse_rank(rows, fill_cap=6, prime=prime) == 3
    with pytest.raises(CapExceededError):
        _sparse_rank(rows, fill_cap=5, prime=prime)
    # stop_at ends the elimination before the third pivot row is stored.
    assert _sparse_rank(rows, stop_at=2, fill_cap=4, prime=prime) == 2


def _count_inverses(monkeypatch):
    calls = []
    original = CycloNum.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CycloNum, "inverse", counting)
    return calls


def test_sparse_rank_inverts_each_used_multi_entry_pivot_once(monkeypatch):
    # The first matrix has one multi-entry pivot ({1, 2}, used by all four
    # later rows); the single-entry pivots at columns 0 and 2 need no inverse.
    rows, _ = _in_field(KERNEL_MATRICES[0], "cyclotomic")
    calls = _count_inverses(monkeypatch)
    assert _sparse_rank(rows) == 3
    assert len(calls) == 1


def test_singular_cyclotomic_certificate_inverts_fewer_than_rank(monkeypatch):
    # At most one inverse per multi-entry pivot that reduces a row.  The last
    # pivot found reduces no row, so there are fewer inverses than the rank.
    calls = _count_inverses(monkeypatch)
    for text, v, smooth in CYCLOTOMIC_FIXTURES:
        if smooth:
            continue
        calls.clear()
        cert = _macaulay_certificate(parse(text, v), DEFAULT_ENTRY_CAP)
        assert cert.verdict == "singular" and cert.path == "cyclotomic"
        assert 0 < len(calls) < cert.rank


@st.composite
def sparse_matrices(draw):
    field = draw(st.sampled_from(("rational", "modular", "cyclotomic")))
    prime = draw(st.sampled_from((2, 5, 2 ** 31 - 1))) if field == "modular" else None
    level = draw(st.sampled_from((3, 4, 5)))

    def entry():
        if field == "rational":
            return Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
        if field == "modular":
            return draw(st.integers(1, prime - 1))
        value = root_of_unity(level, draw(st.integers(0, level - 1)))
        value = value * draw(st.sampled_from((1, -1, 2))) + draw(st.integers(-1, 1))
        return value if value else rational(1)

    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=ncols))
        rows.append({c: entry() for c in sorted(cols)})
    return rows, prime


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_random_matrices(case):
    rows, prime = case
    expected = _dense_rank(rows, prime)
    assert _sparse_rank(rows, prime=prime) == expected
    for k in range(1, expected + 1):
        assert _sparse_rank(rows, stop_at=k, prime=prime) == k


# -- fixed locus -------------------------------------------------------------------


def test_fermat_fixed_locus():
    F = fermat(5, 4)
    g = DiagAut(4, (1, 0, 0, 0, 0))
    fx = fixed_locus(F, g)
    assert fx.codim_in_x == 1
    point = next(s for s in fx.slices if s.ambient_dim == 0)
    assert point.dim == -1  # the vertex is off the hypersurface
    plane = next(s for s in fx.slices if s.ambient_dim == 3)
    assert plane.dim == 2 and not plane.restriction_zero


def test_witness_fixed_locus_contains_line():
    F, g = example_witness(4)
    fx = fixed_locus(F, g)
    assert fx.codim_in_x == 2
    assert fx.contains_line is True
    line = next(s for s in fx.slices if s.indices == (3, 4))
    assert line.restriction_zero and line.dim == 1


def test_type_iii_point_count_at_least_d():
    # Plane-curve style slice on a surface: two separate eigenvalues, points
    # on the complementary line counted exactly.
    d = 5
    F = parse("X0^5 + X1^5 + X2^5 + X3^5 + X2*X3^4", 4)
    g = DiagAut(5, (1, 2, 0, 0))
    fx = fixed_locus(F, g)
    assert all(s.dim <= 0 for s in fx.slices)
    assert fx.point_count is not None
    assert fx.point_count >= d


def test_fixed_locus_counts_distinct_roots():
    F = parse("X0^3 + X1^3 + X2^3 + X3^3", 4)
    g = DiagAut(3, (1, 2, 0, 0))
    fx = fixed_locus(F, g)
    line = next(s for s in fx.slices if s.indices == (2, 3))
    assert line.point_count == 3  # X2^3 + X3^3 has three distinct roots
    points = [s for s in fx.slices if s.ambient_dim == 0]
    assert all(s.dim == -1 for s in points)
    assert fx.point_count == 3


def test_fixed_locus_requires_automorphism():
    # A report exists only for a semi-invariant pair, so the Galois test and
    # classification never meet one that is not.
    F = parse("X0^3*X1 + X1^4 + X2^4 + X3^4", 4)
    with pytest.raises(NotSemiInvariantError):
        fixed_locus(F, DiagAut(5, (1, 0, 0, 0)))
    with pytest.raises(ValueError):
        fixed_locus(fermat(4, 5), DiagAut(5, (1, 0, 0)))


def test_vertex_membership_matches_fix():
    # A coordinate point with a unique eigenvalue lies in Fix(g) iff it lies
    # on the hypersurface.
    F, g = example_witness(4)
    fx = fixed_locus(F, g)
    slice2 = next(s for s in fx.slices if s.indices == (2,))
    assert slice2.dim == -1  # P2 carries X2^4, hence off the hypersurface


def _projective_points_mod_p(k, p):
    # One representative per point of P^k over F_p: last nonzero coord is 1.
    for lead in range(k + 1):
        for tail in product(range(p), repeat=lead):
            yield tail + (1,) + (0,) * (k - lead)


def _count_slice_points_mod_p(F, indices, p):
    count = 0
    other = [i for i in range(F.num_vars) if i not in indices]
    for point in _projective_points_mod_p(len(indices) - 1, p):
        coords = [0] * F.num_vars
        for idx, val in zip(indices, point):
            coords[idx] = val
        total = 0
        for mon, c in F.terms.items():
            if any(mon[i] and not coords[i] for i in range(F.num_vars)):
                continue
            assert c.is_rational()
            v = c.coeffs[0]
            assert v.denominator == 1
            term = int(v)
            for i, e in enumerate(mon):
                if e:
                    term = term * pow(coords[i], e, p) % p
            total = (total + term) % p
        if total == 0:
            count += 1
    return count


def test_slice_dimensions_against_finite_field_counts():
    F, g = example_witness(4)
    fx = fixed_locus(F, g)
    for p in (5, 7, 11):
        for s in fx.slices:
            got = _count_slice_points_mod_p(F, s.indices, p)
            if s.dim == -1:
                assert got == 0
            elif s.restriction_zero:
                k = s.ambient_dim
                assert got == (p ** (k + 1) - 1) // (p - 1)
            elif s.ambient_dim == 1:
                assert got <= s.point_count


def _delta_group_cases(grid):
    for n, d in grid:
        for support in delta_supports(n, d):
            F = support.poly()
            group = symmetry_group(support.monomials(), support.num_vars)
            for g in enumerate_elements(group):
                yield F, g


def test_point_counts_match_the_euclid_oracle_on_delta_groups():
    # Every one-dimensional slice of every element of the delta groups: the
    # count from the gcd of the partials against Euclid on p and p' over
    # Q(zeta), and each slice's piece against the restriction of F.
    lines = 0
    for F, g in _delta_group_cases(DELTA_GRID):
        for s in fixed_locus(F, g).slices:
            complement = [i for i in range(F.num_vars) if i not in s.indices]
            restriction = restrict(F, complement) if complement else F
            assert s.restriction_zero == restriction.is_zero()
            if s.ambient_dim == 1 and not s.restriction_zero:
                assert s.point_count == euclid_root_count(restriction, *s.indices)
                lines += 1
    assert lines > 1000


def test_point_counts_need_no_cyclotomic_arithmetic_for_rational_forms(monkeypatch):
    # Over Q the slice counts run Euclid on Fractions: no CycloNum division
    # and no polynomial division with CycloNum entries.
    calls = {"division": 0, "divmod": 0}
    for name in ("__truediv__", "__rtruediv__", "inverse"):
        method = getattr(CycloNum, name)

        def counting(*args, _method=method):
            calls["division"] += 1
            return _method(*args)

        monkeypatch.setattr(CycloNum, name, counting)
    divmod_ = geometry._poly_divmod

    def counting_divmod(a, b):
        if any(isinstance(c, CycloNum) for c in list(a) + list(b)):
            calls["divmod"] += 1
        return divmod_(a, b)

    monkeypatch.setattr(geometry, "_poly_divmod", counting_divmod)
    counted = sum(
        1 for F, g in _delta_group_cases(DELTA_GRID[:2])
        for s in fixed_locus(F, g).slices if s.point_count is not None and s.ambient_dim == 1
    )
    assert counted > 100
    assert calls == {"division": 0, "divmod": 0}


# Distinct points of the line, as [r:s] pairs in Q(zeta_12): 0, infinity,
# rationals and roots of unity.
_LINE_POINTS = (
    (rational(0), rational(1)),
    (rational(1), rational(0)),
    (rational(1), rational(1)),
    (rational(-2), rational(3)),
    (root_of_unity(3, 1), rational(1)),
    (root_of_unity(4, 1), rational(1)),
    (root_of_unity(12, 5), rational(2)),
)


@st.composite
def forms_with_known_roots(draw):
    picked = draw(st.lists(st.sampled_from(range(len(_LINE_POINTS))),
                           min_size=1, max_size=4, unique=True))
    roots = [(_LINE_POINTS[i], draw(st.integers(1, 3))) for i in picked]
    if draw(st.booleans()):  # rational roots only
        roots = [((r, s), m) for (r, s), m in roots if r.is_rational()]
        if not roots:
            roots = [(_LINE_POINTS[0], 2)]
    j, k = draw(st.sampled_from(((0, 1), (1, 2), (0, 2))))
    scale = draw(st.sampled_from((rational(1), rational(-3), root_of_unity(12, 7) + 1)))
    return binary_form_from_roots(3, j, k, roots) * scale, j, k, len(roots)


@settings(max_examples=60, deadline=None)
@given(forms_with_known_roots())
def test_point_counts_of_forms_with_known_roots(case):
    form, j, k, distinct = case
    assert _distinct_binary_roots(form, j, k) == distinct
    assert euclid_root_count(form, j, k) == distinct


def test_fixed_locus_counts_known_roots_with_multiplicity():
    # f = -X0 X1^3 (X0 - X1)^2 (X0 + 2 X1): X0/X1 is 0, infinity, 1 or -2
    # at its roots; g acts trivially on it and on the Fermat part.
    f = binary_form_from_roots(4, 0, 1, [
        ((rational(0), rational(1)), 1), ((rational(1), rational(0)), 3),
        ((rational(1), rational(1)), 2), ((rational(-2), rational(1)), 1),
    ])
    F = f + parse("X2^7 + X3^7", 4)
    fx = fixed_locus(F, DiagAut(7, (1, 1, 0, 0)))
    line = next(s for s in fx.slices if s.indices == (0, 1))
    assert line.point_count == 4
    assert fx.point_count == 4 + 7


@st.composite
def binary_forms(draw):
    d = draw(st.integers(1, 7))
    j, k = draw(st.sampled_from(((0, 1), (1, 0), (0, 2), (2, 1))))
    level = draw(st.sampled_from((1, 3, 4, 5, 12)))
    terms = {}
    for e in draw(st.sets(st.integers(0, d), min_size=1, max_size=d + 1)):
        mon = [0, 0, 0]
        mon[j], mon[k] = e, d - e
        c = root_of_unity(level, draw(st.integers(0, level - 1))) * draw(
            st.sampled_from((1, -1, 2, Fraction(1, 3)))
        ) + draw(st.integers(-2, 2))
        terms[tuple(mon)] = c
    return HomogPoly(3, d, terms), j, k


@settings(max_examples=80, deadline=None)
@given(binary_forms())
def test_point_counts_against_the_euclid_oracle(case):
    form, j, k = case
    if form.is_zero():
        return
    assert _distinct_binary_roots(form, j, k) == euclid_root_count(form, j, k)


@st.composite
def forms_and_partitions(draw):
    v = draw(st.integers(1, 6))
    d = draw(st.integers(0, 7))
    mons = monomials_of_degree(v, d)
    picked = draw(st.sets(st.sampled_from(mons), min_size=1, max_size=8))
    labels = draw(st.lists(st.integers(0, v - 1), min_size=v, max_size=v))
    blocks = {}
    for i, label in enumerate(labels):
        blocks.setdefault(label, []).append(i)
    return HomogPoly.from_support(sorted(picked), v), list(blocks.values())


@settings(max_examples=80, deadline=None)
@given(forms_and_partitions())
def test_eigen_pieces_are_the_restrictions(case):
    # blocks[1:] leaves the first block's coordinates in no block, and a
    # monomial using one of them belongs to no piece.
    F, blocks = case
    for cover in (blocks, blocks[1:]):
        for indices, piece in zip(cover, _eigen_pieces(F, cover)):
            complement = [i for i in range(F.num_vars) if i not in indices]
            restriction = restrict(F, complement) if complement else F
            assert HomogPoly(F.num_vars, F.degree, piece) == restriction


def test_eigen_pieces_leave_out_monomials_on_unlisted_coordinates():
    # X3 is in no block: X3^5 and X1*X3^4 must not land in the piece of
    # (1, 2), the block listed first.
    F = parse("X0^5 + X1^5 + X1*X2^4 + X1*X3^4 + X3^5", 4)
    assert [HomogPoly(4, 5, piece) for piece in _eigen_pieces(F, [[1, 2], [0]])] == [
        parse("X1^5 + X1*X2^4", 4), parse("X0^5", 4),
    ]


def test_fixed_loci_equal_fixed_locus_and_the_oracles_on_smooth_delta_groups():
    # The shared per-block slices against one report per element, and each
    # slice against the restriction of F and Euclid's count on it.  The
    # oracles depend only on F and the block, so each is run once per block.
    elements = lines = 0
    for n, d in DELTA_GRID:
        for support in delta_supports(n, d):
            F = support.poly()
            if not smoothness(F).is_smooth:
                continue
            group = symmetry_group(support.monomials(), support.num_vars)
            els = [g for g in enumerate_elements(group) if not g.is_identity()]
            reports = list(fixed_loci(F, els))
            assert reports == [fixed_locus(F, g) for g in els]
            oracle = {}
            for s in (s for fix in reports for s in fix.slices):
                if s.indices not in oracle:
                    complement = [i for i in range(F.num_vars) if i not in s.indices]
                    restriction = restrict(F, complement) if complement else F
                    count = None
                    if s.ambient_dim == 1 and not restriction.is_zero():
                        count = euclid_root_count(restriction, *s.indices)
                        lines += 1
                    oracle[s.indices] = (restriction.is_zero(), count)
                zero, count = oracle[s.indices]
                assert s.restriction_zero == zero
                if count is not None:
                    assert s.point_count == count
            elements += len(els)
    assert elements > 5000 and lines > 100


def test_fixed_loci_check_every_element_after_the_blocks_are_shared():
    # bad has the blocks of the first good element, all shared by then, but
    # X0^5 has weight 3 * 5 = 1 (mod 7) and the other terms weight 0.
    F = fermat(4, 5)
    good = [DiagAut(5, (1, 0, 0, 0)), DiagAut(5, (1, 1, 0, 0)), DiagAut(5, (2, 0, 0, 0))]
    bad = DiagAut(7, (3, 0, 0, 0))
    loci = fixed_loci(F, good + [bad])
    assert [next(loci) for _ in good] == [fixed_locus(F, g) for g in good]
    with pytest.raises(NotSemiInvariantError):
        next(loci)


# -- projections and the Galois criterion ------------------------------------------


def test_projection_degrees():
    # The oracle behind the two-split Galois rule.
    F = fermat(4, 4)
    assert projection_degree(F, [0], [1, 2, 3]) == 4

    W, _ = example_witness(4)
    assert projection_degree(W, [3, 4], [0, 1, 2]) == 3
    assert projection_degree(W, [0, 1, 2], [3, 4]) == 3

    B = parse(
        "X0^2*X1*X3 + X1^2*X2*X4 + X2^2*X0*X3 + X3^2*X4*X0 + X4^2*X3*X1", 5
    )
    assert restrict(B, [0, 1, 2]).is_zero() and restrict(B, [3, 4]).is_zero()
    assert projection_degree(B, [3, 4], [0, 1, 2]) == 2

    with pytest.raises(ValueError):
        projection_degree(F, [0, 1], [1, 2, 3])


def test_galois_by_theorem():
    F = fermat(4, 5)
    g = DiagAut(5, (1, 0, 0, 0))
    verdict = galois_by_theorem(F, g, fixed_locus(F, g))
    assert verdict.galois and verdict.m == 5
    assert verdict.galois_point
    assert verdict.theorem == "thm-2.3"

    W, gw = example_witness(4)
    g4 = DiagAut(gw.level, tuple(4 * e for e in gw.exps))  # gw^4
    v4 = galois_by_theorem(W, g4, fixed_locus(W, g4))
    assert v4.galois and v4.m == 3
    assert v4.scaled_block == (0, 1, 2)

    three = galois_by_theorem(W, gw, fixed_locus(W, gw))
    assert not three.galois
    assert three.reason == "needs exactly 2 eigenvalues, found 3"
    ident = DiagAut(1, (0, 0, 0, 0))
    assert not galois_by_theorem(F, ident, fixed_locus(F, ident)).galois

    # The quartic B contains both eigenspaces of its one symmetry, so the
    # projection has degree 4 - 2 = 2, the order of the symmetry.
    B = parse(
        "X0^2*X1*X3 + X1^2*X2*X4 + X2^2*X0*X3 + X3^2*X4*X0 + X4^2*X3*X1", 5
    )
    g = DiagAut(2, (1, 1, 1, 0, 0))
    fix = fixed_locus(B, g)
    assert [s.restriction_zero for s in fix.slices] == [True, True]
    verdict = galois_by_theorem(B, g, fix)
    assert verdict == two_split_galois(B, g)
    assert verdict.galois and verdict.m == 2 and verdict.scaled_block == (0, 1, 2)


def test_galois_by_theorem_matches_the_two_split_rule():
    # Every two-eigenvalue element of the delta groups and of the witness
    # surfaces' groups: the verdict read off the slices equals the old rule
    # that restricts F to each block and tries both splits, and the oracle's
    # projection degree is the same for both splits.
    cases = list(_delta_group_cases(DELTA_GRID))
    for d in (4, 5, 6):
        W, _ = example_witness(d)
        cases += [(W, g) for g in enumerate_elements(symmetry_group(W.support()))]
    checked = fired = 0
    for F, g in cases:
        if len(set(g.exps)) != 2:
            continue
        first, second = sorted(
            [i for i in range(F.num_vars) if g.exps[i] == e] for e in set(g.exps)
        )
        assert projection_degree(F, first, second) == projection_degree(F, second, first)
        verdict = galois_by_theorem(F, g, fixed_locus(F, g))
        assert verdict == two_split_galois(F, g)
        checked += 1
        fired += verdict.galois
    assert checked > 1000 and fired > 100
