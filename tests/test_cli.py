import contextlib
import json
import random
import time
from datetime import timedelta
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaut import cli, harness
from hyperaut.autgrp import CapExceededError, parse_diag
from hyperaut.cli import main
from hyperaut.cyclo import _reduced_powers, root_of_unity
from hyperaut.geometry import (
    DEFAULT_ENTRY_CAP,
    SmoothnessCertificate,
    _macaulay_certificate,
    smoothness,
)
from hyperaut.harness import AuditReport, Violation
from hyperaut.poly import (
    COST_BUDGET,
    MAX_DEGREE,
    MAX_ROOT_LEVEL,
    MAX_TERMS,
    MAX_VARS,
    monomials_of_degree,
    parse,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fermat_quintic(capsys):
    code, out, _ = run(
        capsys, "analyze",
        "--poly", "X0^5+X1^5+X2^5+X3^5", "--aut", "diag(z5,1,1,1)",
    )
    assert code == 0
    assert "type: I" in out
    assert "order in PGL: 5" in out
    assert "codim 1" in out
    assert "thm-2.5-ii-b" in out


def test_analyze_witness(capsys):
    code, out, _ = run(
        capsys, "analyze",
        "--poly", "X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3",
        "--aut", "diag(z12^4, z12^4, z12, 1, 1)",
    )
    assert code == 0
    assert "type: V" in out
    assert "order in PGL: 12" in out
    assert "thm-4.5-corrected" in out
    assert "thm-3.18" in out


def test_analyze_mismatched_automorphism(capsys):
    code, _, err = run(
        capsys, "analyze",
        "--poly", "X0^3+X1^3+X2^3+X3^3", "--aut", "diag(z3,z5,1,1)",
    )
    assert code == 2
    assert "witness" in err
    assert "X0^3" in err and "X1^3" in err


def test_analyze_singular(capsys):
    code, out, _ = run(
        capsys, "analyze",
        "--poly", "X0^3+X1^3+X2^3", "--aut", "diag(z3,1,1,1)",
    )
    assert code == 3
    assert "[0:0:0:1]" in out


@pytest.mark.parametrize("poly, aut", [
    ("X0^3+X1^3+X2^3+X3^3", "diag(z123456, 1, 1, 1)"),
    ("X0^3+z123456*X1^3+X2^3+X3^3", "diag(z3, 1, 1, 1)"),
    # Levels under the cap whose lcm is above it, in one diag(...) or one poly.
    ("X0^3+X1^3+X2^3+X3^3", "diag(z1279, z1277, 1, 1)"),
    ("X0^3+z1279*X1^3+z1277*X2^3+X3^3", "diag(z3, 1, 1, 1)"),
])
def test_analyze_refuses_root_levels_above_the_cap(capsys, poly, aut):
    with contextlib.suppress(CapExceededError):
        parse_diag(aut)  # build first what an admitted diag(...) builds
    before = _reduced_powers.cache_info().misses
    code, out, err = run(capsys, "analyze", "--poly", poly, "--aut", aut)
    assert code == 4
    assert out == ""
    assert f"exceeds the cap of {MAX_ROOT_LEVEL}" in err
    assert _reduced_powers.cache_info().misses == before


def test_symmetries_refuses_root_levels_above_the_cap(capsys):
    code, _, err = run(capsys, "symmetries", "X0^3+z123456*X1^3+X2^3")
    assert code == 4
    assert f"exceeds the cap of {MAX_ROOT_LEVEL}" in err


@pytest.mark.parametrize("argv, message", [
    (["symmetries", "X99999999"], f"100000000 variables exceed the cap of {MAX_VARS}"),
    (["symmetries", "X0^3", "--vars", str(MAX_VARS + 1)],
     f"{MAX_VARS + 1} variables exceed the cap of {MAX_VARS}"),
    (["analyze", "--poly", "X0^1000000+X1^1000000", "--aut", "diag(z5,1,1,1)"],
     f"degree 1000000 exceeds the cap of {MAX_DEGREE}"),
    (["analyze", "--poly", "(X0+X1+X2+X3)^40", "--aut", "diag(1,1,1,1)"],
     f"a product of 286 by 4 terms exceeds the cap of {MAX_TERMS}"),
])
def test_size_caps_exit_with_code_4_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (4, "", f"error: {message}\n")


def _monomial_text(mon, coeff=1):
    return "*".join([str(coeff)] + [f"X{i}^{e}" for i, e in enumerate(mon) if e])


@st.composite
def inputs_under_the_caps(draw):
    """An (F, g) text pair that meets one of the parser caps from below.

    fermat: degree MAX_DEGREE or just under it; power: a power of a linear
    form whose last product has as many term pairs as the cap allows; sum:
    close to MAX_TERMS cubic monomials.  Up to MAX_VARS variables.
    """
    kind = draw(st.sampled_from(["fermat", "power", "sum"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    coeff = lambda: rng.choice((1, -1, 2, 3, "1/2", "z3", "(1+z4)"))
    if kind == "sum":
        v = draw(st.integers(18, MAX_VARS))
        mons = rng.sample(monomials_of_degree(v, 3), MAX_TERMS - draw(st.integers(0, 8)))
        poly = " + ".join(_monomial_text(m, coeff()) for m in mons)
        return poly, "diag(" + ", ".join(["1"] * v) + ")"
    k = 0 if kind == "fermat" else draw(st.integers(2, 4))
    v = draw(st.integers(max(4, k + 1), MAX_VARS))
    if kind == "fermat":
        d = MAX_DEGREE - draw(st.integers(0, 8))
        head = ""
    else:
        # (X0 + ... + X(k-1))^j has comb(j+k-1, k-1) terms; the step to the
        # d-th power multiplies comb(d+k-2, k-1) of them by k.
        d = max(j for j in range(1, MAX_DEGREE + 1) if comb(j + k - 2, k - 1) * k <= MAX_TERMS)
        head = "(" + " + ".join(f"{coeff()}*X{i}" for i in range(k)) + f")^{d} + "
    poly = head + " + ".join(f"{coeff()}*X{i}^{d}" for i in range(k, v))
    exps = [0] * k + [rng.randrange(d) for _ in range(k, v)]
    return poly, "diag(" + ", ".join(f"z{d}^{e}" for e in exps) + ")"


@settings(max_examples=10, deadline=timedelta(seconds=10))
@given(inputs_under_the_caps(), st.booleans())
def test_inputs_under_the_caps_are_admitted_and_answered(pair, skip_smoothness):
    poly, aut = pair
    g = parse_diag(aut)
    assert parse(poly, g.num_vars).num_vars == g.num_vars
    flags = ["--skip-smoothness"] if skip_smoothness else []
    assert main(["analyze", "--json", *flags, "--poly", poly, "--aut", aut]) in (0, 3)


def test_parsers_admit_the_largest_delta_group_level():
    # 1,280 is the largest element level of a delta group up to n:d = 4:5.
    assert parse_diag("diag(z1280, z1280^3, 1, 1, 1, 1)").level == 1280
    assert parse("z1280*X0^3 + X1^3", 2).terms[(3, 0)] == root_of_unity(1280)


def test_analyze_excluded_pair(capsys):
    code, _, err = run(
        capsys, "analyze",
        "--poly", "X0^4+X1^4+X2^4+X3^4", "--aut", "diag(z4,1,1,1)",
    )
    assert code == 2
    assert "excluded" in err


def test_analyze_skip_smoothness_is_conditional(capsys):
    code, out, _ = run(
        capsys, "analyze", "--skip-smoothness",
        "--poly", "X0^5+X1^5+X2^5+X3^5", "--aut", "diag(z5,1,1,1)",
    )
    assert code == 0
    assert "skipped" in out
    assert "conditional-rational-iso-pn" in out


def test_symmetries_klein(capsys):
    code, out, _ = run(capsys, "symmetries", "X0^3*X1 + X1^3*X2 + X2^3*X0")
    assert code == 0
    assert "Z/7" in out and "order 7" in out


def test_symmetries_fermat_cubic_curve(capsys):
    code, out, _ = run(capsys, "symmetries", "X0^3+X1^3+X2^3")
    assert code == 0
    assert "Z/3 x Z/3" in out


def test_symmetries_bad_input(capsys):
    code, _, err = run(capsys, "symmetries", "")
    assert code == 2
    # a single monomial in several variables has an infinite diagonal stabilizer
    code, _, err = run(capsys, "symmetries", "X0^3", "--vars", "3")
    assert code == 2
    assert "infinite" in err


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "1", "4")
    assert code == 0
    assert "7 8 9 12" in out

    code, out, _ = run(capsys, "bounds", "2", "5")
    assert code == 0
    assert "3 4 5" in out

    code, _, err = run(capsys, "bounds", "2", "4")
    assert code == 2


def test_bounds_json_round_trip(capsys):
    code, out, _ = run(capsys, "bounds", "2", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_analyze_json_round_trip_and_determinism(capsys):
    args = (
        "analyze", "--json",
        "--poly", "X0^5+X1^5+X2^5+X3^5", "--aut", "diag(z5,1,1,1)",
    )
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out1
    assert payload["rationality"]["primary"] == "thm-2.5-ii-b"
    assert payload["classification"]["normal_type"] == "I"


def test_audit_exit_codes(capsys):
    code, out, _ = run(capsys, "audit", "2", "5", "thm-1.1-codim1", "--no-records")
    assert code == 0
    assert "violations: 0" in out

    code, _, err = run(capsys, "audit", "2", "4", "thm-1.1-codim1")
    assert code == 2

    code, _, err = run(capsys, "audit", "2", "5", "thm-1.1-codim1", "--cap", "3")
    assert code == 4


def test_an_inconclusive_support_makes_the_audit_partial(capsys, monkeypatch):
    # A certificate that leaves 2 of the 19 supports at 2:5 undecided; sigma
    # certifies neither, so both reach smoothness.
    undecided = [s.poly() for s in harness.delta_supports(2, 5)
                 if s.name in ("sigma=0000", "sigma=1200")]

    def undecided_on_two(F, *args, **kwargs):
        if F in undecided:
            return SmoothnessCertificate(verdict="inconclusive", method="macaulay_rank")
        return smoothness(F, *args, **kwargs)

    monkeypatch.setattr(harness, "smoothness", undecided_on_two)
    report = harness.audit_theorem(2, 5, "thm-1.1-codim1", keep_records=False)
    assert len(report.supports_inconclusive) == 2
    assert report.partial and not report.ok
    code, out, _ = run(capsys, "audit", "2", "5", "thm-1.1-codim1")
    assert code == 4
    assert "2 inconclusive" in out
    assert out.splitlines()[-1] == (
        "PARTIAL: supports with an inconclusive smoothness certificate were skipped"
    )
    code, out, _ = run(capsys, "audit", "2", "5", "thm-1.1-codim1", "--json")
    assert code == 4
    assert json.loads(out)["partial"] is True


def test_audit_json(capsys):
    code, out, _ = run(capsys, "audit", "2", "5", "thm-3.3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["records"]
    assert all(rec["passed"] for rec in payload["records"])


def test_exit_code_table_names_no_catch_all():
    assert ValueError not in cli.EXIT_CODES and Exception not in cli.EXIT_CODES
    assert set(cli.EXIT_CODES.values()) == {2, 3, 4}


def test_a_plain_value_error_propagates_out_of_main(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "audit_theorem", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["audit", "2", "5", "thm-1.1-codim1"])
    monkeypatch.setattr(cli, "symmetry_group", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["symmetries", "X0^3+X1^3+X2^3"])


VIOLATION_REPORT = AuditReport(
    n=2, d=5, claim="thm-1.1-codim1", supports_total=1, supports_smooth=1,
    cases_examined=1,
    violations=(Violation("loop", 20, (0, 4, 1, 0), 20, 1,
                          "order 20 divides none of 5, 4, 3 (n=2)"),),
    max_order_by_type={"III": (20, "loop", (0, 4, 1, 0))},
)


def test_audit_reports_a_violation_with_exit_code_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "audit_theorem", lambda *args, **kwargs: VIOLATION_REPORT)
    code, out, err = run(capsys, "audit", "2", "5", "thm-1.1-codim1")
    assert (code, err) == (1, "")
    assert out.splitlines()[4:] == [
        "violations: 1",
        "  VIOLATION loop exps=(0, 4, 1, 0) order=20: order 20 divides none of 5, 4, 3 (n=2)",
        "max order, type III: 20 (loop, exps=(0, 4, 1, 0))",
    ]
    code, out, err = run(capsys, "audit", "2", "5", "thm-1.1-codim1", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["violations"] == [{
        "codim": 1, "detail": "order 20 divides none of 5, 4, 3 (n=2)",
        "exps": [0, 4, 1, 0], "level": 20, "order": 20, "support": "loop",
    }]


def test_analyze_applies_an_entry_cap_of_zero(capsys):
    # A loop: its support is connected, so the rank test builds one matrix.
    argv = ["analyze", "--poly", "X0^2*X1+X1^2*X2+X2^2*X3+X3^2*X0",
            "--aut", "diag(z5^4,z5,z5^2,1)"]
    for cap in ("0", "1"):
        code, out, _ = run(capsys, *argv, "--cap", cap)
        assert code == 0
        assert "smoothness: inconclusive" in out
    code, out, _ = run(capsys, *argv)
    assert "smoothness: smooth" in out


def test_analyze_proves_a_sum_of_disjoint_forms_smooth_past_the_entry_cap(capsys):
    # The whole Macaulay matrix of this Fermat surface is over the default
    # entry cap, which made the answer inconclusive; its parts X_i^60 are
    # one-variable forms, smooth without a matrix.
    poly = "X0^60+X1^60+X2^60+X3^60"
    whole = _macaulay_certificate(parse(poly, 4), DEFAULT_ENTRY_CAP)
    assert whole.verdict == "inconclusive"
    code, out, _ = run(capsys, "analyze", "--poly", poly, "--aut", "diag(z60,1,1,1)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["smoothness"] == {
        "verdict": "smooth", "method": "macaulay_rank", "witness": None, "reason": None,
    }
    assert payload["rationality"]["status"] == "rational-iso-pn"


def test_bounds_answer_up_to_the_variable_cap_and_refuse_beyond(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", str(MAX_VARS - 2), "3")
    assert code == 0 and "global order bounds" in out
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", str(MAX_VARS - 1), "3")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (4, "")
    assert err == f"error: {MAX_VARS + 1} variables exceed the cap of {MAX_VARS}\n"


def test_bounds_and_audit_answer_at_the_degree_cap_and_refuse_beyond(capsys):
    # d comes from argv, not from a parsed polynomial, so both commands check
    # it against MAX_DEGREE before any work.
    code, out, err = run(capsys, "bounds", "30", str(MAX_DEGREE))
    assert (code, err) == (0, "")
    assert "codim-2 divisors (thm-1.1):           65024 65025 65280" in out
    # The audit at the cap answers; its supports with big groups are skipped
    # by the enumeration cap, which makes the report partial.
    code, out, err = run(capsys, "audit", "4", str(MAX_DEGREE), "thm-1.1-codim1", "--no-records")
    assert (code, err) == (4, "")
    assert "supports: 130 total" in out and "violations: 0" in out
    assert out.splitlines()[-1] == "PARTIAL: some supports were skipped by the enumeration cap"
    for d in (MAX_DEGREE + 1, 10 ** 300):
        for argv in (("bounds", "30", str(d)), ("audit", "2", str(d), "thm-1.1-codim1")):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (4, "")
            assert err == f"error: degree {d} exceeds the cap of {MAX_DEGREE}\n"


@pytest.mark.parametrize("power", [64, 256])
def test_coefficient_work_above_the_budget_exits_with_code_4(capsys, power):
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "--poly", f"(X0+z2039*X1)^{power}",
                         "--aut", "diag(1,1)")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert f"exceeds the budget of {COST_BUDGET}" in err


QUINTIC = ("--poly", "X0^5+X1^5+X2^5+X3^5", "--aut", "diag(z5,1,1,1)")


def test_one_parser_serves_repeated_main_calls(capsys):
    parser = cli.build_parser()
    built = cli.build_parser.cache_info().misses
    for argv in (("bounds", "2", "5"), ("bounds", "2", "5", "--json"), ("analyze", *QUINTIC)):
        assert run(capsys, *argv)[0] == 0
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == built


def test_flags_of_one_call_do_not_reach_the_next(capsys):
    code, out, _ = run(capsys, "analyze", "--json", *QUINTIC)
    assert code == 0 and json.loads(out)["classification"]["normal_type"] == "I"
    code, out, _ = run(capsys, "analyze", *QUINTIC)
    assert code == 0 and "type: I" in out and not out.startswith("{")
    code, out, _ = run(capsys, "audit", "2", "5", "thm-3.3", "--no-records", "--json")
    assert code == 0 and json.loads(out)["records"] == []
    code, out, _ = run(capsys, "audit", "2", "5", "thm-3.3", "--json")
    assert code == 0 and json.loads(out)["records"]


def _exit(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_usage_errors_help_and_version_repeat_after_a_successful_call(capsys):
    calls = [("analyze", "--poly", "X0^3"), ("--help",), ("analyze", "--help"), ("--version",)]
    before = [_exit(capsys, *argv) for argv in calls]
    assert run(capsys, "analyze", "--json", *QUINTIC)[0] == 0
    assert [_exit(capsys, *argv) for argv in calls] == before
    assert before[0][0] == 2 and "required: --aut" in before[0][2]
    assert [code for code, _, _ in before[1:]] == [0, 0, 0]
    assert before[3][1] == f"{cli.__version__}\n"
