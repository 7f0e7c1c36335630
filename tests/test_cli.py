import json

import pytest

from hyperaut.autgrp import parse_diag
from hyperaut.cli import main
from hyperaut.cyclo import _reduced_powers, root_of_unity
from hyperaut.poly import MAX_ROOT_LEVEL, parse


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
    root_of_unity(3)  # the admitted diag(z3, ...) may build its table first
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


def test_audit_json(capsys):
    code, out, _ = run(capsys, "audit", "2", "5", "thm-3.3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["records"]
    assert all(rec["passed"] for rec in payload["records"])
