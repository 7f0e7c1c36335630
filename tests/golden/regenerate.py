"""Record the command line outputs that tests/test_golden.py compares against.

Run from the root of a checkout whose outputs are the reference:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case is an argument list for `hyperaut`; the script writes its exit
code, stdout and stderr to cli_outputs.json next to this file.  Regenerate
only on purpose, when an output is meant to change.
"""

import contextlib
import io
import json
from pathlib import Path

from hyperaut.cli import main
from hyperaut.harness import AUDIT_CLAIM_IDS

OUT = Path(__file__).with_name("cli_outputs.json")

# The (poly, aut) pairs of test_cli.py, then delta polynomials with
# coefficients in Q(zeta_N): a loop, a chain, a two-cycle pair, the
# order-d(d-1) witness, a Fermat surface and a singular support.
ANALYZE_PAIRS = [
    ("X0^5+X1^5+X2^5+X3^5", "diag(z5,1,1,1)"),
    ("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", "diag(z12^4, z12^4, z12, 1, 1)"),
    ("X0^3+X1^3+X2^3+X3^3", "diag(z3,z5,1,1)"),
    ("X0^3+X1^3+X2^3", "diag(z3,1,1,1)"),
    ("X0^3+X1^3+X2^3+X3^3", "diag(z123456, 1, 1, 1)"),
    ("X0^3+z123456*X1^3+X2^3+X3^3", "diag(z3, 1, 1, 1)"),
    ("X0^3+X1^3+X2^3+X3^3", "diag(z1279, z1277, 1, 1)"),
    ("X0^3+z1279*X1^3+z1277*X2^3+X3^3", "diag(z3, 1, 1, 1)"),
    ("X0^4+X1^4+X2^4+X3^4", "diag(z4,1,1,1)"),
    ("(1+z3)*X0^4*X1 + (2-z3)*X1^4*X2 + X2^4*X3 - z3^2*X0*X3^4",
     "diag(z51, 1, z51^4, z51^39)"),
    ("z4*X0^6 + (1-z4)*X0*X1^5 + 3*X1*X2^5 + z4^3*X2*X3^5",
     "diag(z25, z25, z25^6, 1)"),
    ("X0^4*X1 + z8*X0*X1^4 + (z8^3-1)*X2^4*X3 + X2*X3^4",
     "diag(1, 1, z15, z15^11)"),
    ("z12*X0^4+X1^4+(1-z12^5)*X2^4+X0*X3^3+z3*X1*X4^3",
     "diag(z12^4, z12^4, z12, 1, 1)"),
    ("X0^5 + z5*X1^5 + (1+z5^2)*X2^5 - X3^5", "diag(z5, z5, 1, 1)"),
    ("z7*X0^3*X1 + X1^3*X0 + (1+z7^3)*X2^4 + X3^4 + X4^4",
     "diag(1, 1, z4, 1, 1)"),
    ("z3*X0^4*X1 + X0*X1^4 + X0*X2^4 + X2*X3^4", "diag(z3, 1, 1, 1)"),
    # Root powers with exponents 0 and below 0, a one-term power, and a
    # negative exponent in each eigenvalue.
    ("z8^0*X0^5 + (2*X0)^4*X1 + z8^-3*X1^5 + X2^5 + X3^5",
     "diag(1, 1, z5, z5^-2)"),
    ("X0^4+X1^4+X2^4+X0*X3^3+X1*X4^3", "diag(z12^-4, z12^-4, z12^-1, 1, 1)"),
]

ANALYZE_FLAGS = [(), ("--json",), ("--skip-smoothness",)]

SYMMETRY_ARGS = [
    ("X0^3*X1 + X1^3*X2 + X2^3*X0",),
    ("X0^3+X1^3+X2^3",),
    ("",),
    ("X0^3", "--vars", "3"),
    ("X0^3+z123456*X1^3+X2^3",),
    ("(X0*X1)^2 + X0^4 + (-X1)^4 + X2^3*X0",),
]

# One call per row of the exit-code table in cli.main, and the audit's text
# and record outputs.
REFUSALS = [
    ["analyze", "--skip-smoothness", "--poly", "X0*X1*X2+X3^3",
     "--aut", "diag(z3,z3^2,1,1)"],
    ["analyze", "--poly", "X0^3+X1^2+X2^3+X3^3", "--aut", "diag(z3,1,1,1)"],
    ["analyze", "--poly", "X0^3+X1^3+X2^3+X3^3", "--aut", "diag(z3,1,1,1"],
    ["analyze", "--poly", "X0^3+X1^3+X2^3+X3^3", "--aut", "diag(0,1,1,1)"],
    ["symmetries", "X0^3 + X1^3", "--vars", "0"],
    ["symmetries", "X0^3 + X1^2"],
    ["bounds", "1", "3"],
    ["bounds", "0", "5"],
    ["audit", "2", "4", "thm-1.1-codim1"],
    ["audit", "7", "5", "thm-1.1-codim1"],
    ["audit", "2", "5", "thm-1.1-codim1", "--cap", "3"],
    ["audit", "2", "5", "thm-1.1-codim1"],
    ["audit", "2", "5", "thm-3.14", "--json"],
    ["audit", "2", "5", "thm-1.1-codim1", "--json"],
]


def cases():
    for poly, aut in ANALYZE_PAIRS:
        for flags in ANALYZE_FLAGS:
            yield ["analyze", *flags, "--poly", poly, "--aut", aut]
    for claim in AUDIT_CLAIM_IDS:
        yield ["audit", "2", "5", claim, "--json", "--no-records"]
    for n in (1, 2, 3):
        for d in (4, 5, 6):
            yield ["bounds", str(n), str(d)]
    for args in SYMMETRY_ARGS:
        yield ["symmetries", *args]
    yield from REFUSALS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    records = [run(argv) for argv in cases()]
    OUT.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(records)} cases to {OUT}")
