"""Command line front end.

Exit codes: 0 success, 1 the audit found violations, 2 the input was refused
(unparseable or non-homogeneous text, not an automorphism, an unsupported
(n, d), an infinite group), 3 the hypersurface is singular, 4 an input,
enumeration or size cap was exceeded.  Any other error is a bug and shows a
traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .autgrp import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    InfiniteGroupError,
    parse_diag,
    symmetry_group,
)
from .classify import (
    UnsupportedRangeError,
    VertexSmoothnessError,
    badr_bars_divisors,
    check_range,
    classify_case,
    theorem11_divisors,
    theorem11_side_condition,
    zheng_integers,
)
from .geometry import DEFAULT_ENTRY_CAP, fixed_locus, smoothness
from .harness import AUDIT_CLAIM_IDS, audit_theorem
from .poly import NotHomogeneousError, NotSemiInvariantError, ParseError, parse

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SINGULAR = 3
EXIT_CAP = 4

# The one map from errors to exit codes: the first class that matches
# decides.  Any other exception is a bug and propagates with its traceback.
EXIT_CODES = {
    CapExceededError: EXIT_CAP,
    VertexSmoothnessError: EXIT_SINGULAR,
    ParseError: EXIT_INPUT,
    NotHomogeneousError: EXIT_INPUT,
    NotSemiInvariantError: EXIT_INPUT,
    InfiniteGroupError: EXIT_INPUT,
    UnsupportedRangeError: EXIT_INPUT,
}


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _fix_to_dict(fix):
    return {
        "codim": fix.codim_in_x,
        "contains_line": fix.contains_line,
        "point_count": fix.point_count,
        "slices": [
            {
                "indices": list(s.indices),
                "ambient_dim": s.ambient_dim,
                "restriction_zero": s.restriction_zero,
                "dim": s.dim,
                "point_count": s.point_count,
            }
            for s in fix.slices
        ],
    }


def _smooth_to_dict(cert):
    return {
        "verdict": cert.verdict,
        "method": cert.method,
        "witness": cert.witness_str(),
        "reason": cert.reason,
    }


def cmd_analyze(args) -> int:
    g = parse_diag(args.aut)
    F = parse(args.poly, g.num_vars)
    n, d = F.num_vars - 2, F.degree
    check_range(n, d)

    conditional = False
    if args.skip_smoothness:
        cert_dict = {"verdict": "skipped", "method": None, "witness": None,
                     "reason": "smoothness check skipped on request"}
        conditional = True
    else:
        cert = smoothness(F, entry_cap=args.cap)
        cert_dict = _smooth_to_dict(cert)
        if cert.verdict == "singular":
            payload = {
                "schema_version": SCHEMA_VERSION,
                "input": {"poly": str(F), "aut": str(g), "n": n, "d": d},
                "smoothness": cert_dict,
            }
            _emit(payload, args.json, [
                f"hypersurface: {F}",
                f"smoothness: singular ({cert.reason})"
                + (f" at {cert.witness_str()}" if cert.witness else ""),
            ])
            return EXIT_SINGULAR
        if cert.verdict == "inconclusive":
            conditional = True

    fix = fixed_locus(F, g)
    case = classify_case(F, g, fix)

    rationality = case.rationality.status
    primary = case.rationality.primary
    if conditional and rationality != "unknown":
        rationality = f"conditional-{rationality}"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": {"poly": str(F), "aut": str(g), "n": n, "d": d},
        "smoothness": cert_dict,
        "automorphism": {
            "order": case.order,
            "r": len(fix.slices),
            "multiplier": str(case.multiplier_t),
            "eigen_blocks": [
                {"exp": s.eigen_exp, "indices": list(s.indices)}
                for s in fix.slices
            ],
            "level": g.level,
        },
        "fixed_locus": _fix_to_dict(fix),
        "classification": {
            "normal_type": case.normal_type,
            "out_of_scope_reason": case.out_of_scope_reason,
            "divisor_claims": [str(c) for c in case.claims],
        },
        "rationality": {
            "status": rationality,
            "primary": primary,
            "fired": list(case.rationality.fired),
        },
        "galois": {
            "galois": case.galois.galois,
            "m": case.galois.m,
            "scaled_block": list(case.galois.scaled_block or ()) or None,
            "galois_point": case.galois.galois_point,
            "theorem": case.galois.theorem,
            "reason": case.galois.reason,
        },
        "warnings": list(case.warnings),
    }
    lines = [
        f"hypersurface: {F}   (n = {n}, d = {d})",
        f"smoothness: {cert_dict['verdict']}"
        + (f" via {cert_dict['method']}" if cert_dict["method"] else ""),
        f"automorphism: {g}",
        f"order in PGL: {case.order}   multiplier t = {case.multiplier_t}",
        f"fixed locus: codim {fix.codim_in_x}, contains_line = {fix.contains_line}, "
        f"points = {fix.point_count}",
        f"normal form type: {case.normal_type}"
        + (f" ({case.out_of_scope_reason})" if case.out_of_scope_reason else ""),
        "order must divide one of: "
        + (", ".join(str(c) for c in case.claims) if case.claims else "(no claim)"),
        f"rationality: {rationality}"
        + (f" by {primary}" if primary else "")
        + (f" (all: {', '.join(case.rationality.fired)})" if case.rationality.fired else ""),
        f"galois projection: {case.galois.galois}"
        + (f" (m = {case.galois.m}, block {list(case.galois.scaled_block)})"
           if case.galois.galois else ""),
    ]
    if case.warnings:
        lines.append("warnings: " + ", ".join(case.warnings))
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_symmetries(args) -> int:
    guess_vars = args.vars
    if guess_vars is None:
        indices = [int(m) for m in re.findall(r"[xX](\d+)", args.poly)]
        if not indices:
            raise ParseError("no variables found in the support")
        guess_vars = max(indices) + 1
    F = parse(args.poly, guess_vars)
    group = symmetry_group(F.support(), F.num_vars)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": {"poly": str(F), "num_vars": F.num_vars},
        "group": {
            "invariant_factors": list(group.invariant_factors),
            "order": group.order,
            "structure": group.describe(),
            "generators": [str(gen) for gen in group.generators],
        },
    }
    lines = [
        f"support: {F}",
        f"diagonal symmetry group: {group.describe()} (order {group.order})",
    ] + [f"generator: {gen}" for gen in group.generators]
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_bounds(args) -> int:
    n, d = args.n, args.d
    if n < 1 or d < 3:
        raise UnsupportedRangeError("bounds need n >= 1 and d >= 3")
    zheng = sorted(zheng_integers(n, d))
    badr = sorted(badr_bars_divisors(d)) if n == 1 else None
    if n >= 2:
        check_range(n, d)
        t11_codim1 = sorted(theorem11_divisors(n, d, 1))
        t11_codim2 = sorted(theorem11_divisors(n, d, 2))
    else:
        t11_codim1 = t11_codim2 = None
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": {"n": n, "d": d},
        "plane_curve_extremal": badr,
        "global_order_bounds": zheng,
        "codim1_divisors": t11_codim1,
        "codim2_divisors": t11_codim2,
        "codim1_side_condition": theorem11_side_condition(1) if t11_codim1 else None,
    }
    fmt = lambda xs: " ".join(str(x) for x in xs) if xs else "-"
    lines = [
        f"n = {n}, d = {d}",
        f"plane-curve extremal orders (thm-2.1): {fmt(badr)}",
        f"global order bounds (thm-2.2):        {fmt(zheng)}",
        f"codim-1 divisors (thm-1.1):           {fmt(t11_codim1)}"
        + ("   [" + theorem11_side_condition(1) + "]" if t11_codim1 else ""),
        f"codim-2 divisors (thm-1.1):           {fmt(t11_codim2)}",
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_audit(args) -> int:
    report = audit_theorem(
        args.n, args.d, args.claim,
        enum_cap=args.cap,
        keep_records=not args.no_records,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": {"n": args.n, "d": args.d, "claim": args.claim},
        "family": report.family,
        "supports": {
            "total": report.supports_total,
            "smooth": report.supports_smooth,
            "singular": list(report.supports_singular),
            "inconclusive": list(report.supports_inconclusive),
        },
        "cases_examined": report.cases_examined,
        "violations": [
            {
                "support": v.support,
                "level": v.level,
                "exps": list(v.exps),
                "order": v.order,
                "codim": v.codim,
                "detail": v.detail,
            }
            for v in report.violations
        ],
        "max_order_by_type": {
            k: {"order": v[0], "support": v[1], "exps": list(v[2])}
            for k, v in report.max_order_by_type.items()
        },
        "partial": report.partial,
        "records": [
            {
                "support": r.support,
                "level": r.level,
                "exps": list(r.exps),
                "order": r.order,
                "codim": r.codim,
                "passed": r.passed,
                "checks": [
                    {"scope": s, "claims": c, "ok": ok} for s, c, ok in r.checks
                ],
            }
            for r in report.records
        ],
    }
    lines = [
        f"audit n = {report.n}, d = {report.d}, claim = {report.claim}",
        f"family: {report.family}",
        f"supports: {report.supports_total} total, {report.supports_smooth} smooth, "
        f"{len(report.supports_singular)} singular (skipped), "
        f"{len(report.supports_inconclusive)} inconclusive",
        f"cases examined: {report.cases_examined}",
        f"violations: {len(report.violations)}",
    ]
    for v in report.violations:
        lines.append(f"  VIOLATION {v.support} exps={v.exps} order={v.order}: {v.detail}")
    for k, v in report.max_order_by_type.items():
        lines.append(f"max order, type {k}: {v[0]} ({v[1]}, exps={v[2]})")
    if report.partial:
        lines.append("PARTIAL: some supports were skipped by the enumeration cap")
    _emit(payload, args.json, lines)
    if report.partial:
        return EXIT_CAP
    return EXIT_OK if not report.violations else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperaut",
        description=(
            "Exact analysis of diagonal automorphisms of smooth projective "
            "hypersurfaces: smoothness certificates, fixed loci, order "
            "divisor claims, rationality and Galois verdicts."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on one (F, g) pair")
    p.add_argument("--poly", required=True, help='e.g. "X0^5+X1^5+X2^5+X3^5"')
    p.add_argument("--aut", required=True, help='e.g. "diag(z5, 1, 1, 1)"')
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_ENTRY_CAP,
                   help="entry cap for the smoothness matrix")
    p.add_argument("--skip-smoothness", action="store_true",
                   help="skip the smoothness certificate; verdicts become conditional")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("symmetries", help="diagonal symmetry group of a support")
    p.add_argument("poly", help='e.g. "X0^3*X1 + X1^3*X2 + X2^3*X0"')
    p.add_argument("--vars", type=int, default=None,
                   help="number of variables (default: inferred)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_symmetries)

    p = sub.add_parser("bounds", help="order bound tables for (n, d)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("audit", help="exhaustive delta-family divisor audit")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("claim", choices=sorted(AUDIT_CLAIM_IDS))
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="group enumeration cap")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-records", action="store_true",
                   help="omit per-case records from the report")
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
