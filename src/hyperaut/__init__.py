"""Exact analysis of diagonal automorphisms of smooth projective hypersurfaces."""

__version__ = "0.1.0"

from .cyclo import CycloNum, rational, root_of_unity
from .poly import HomogPoly, parse, parse_scalar
from .autgrp import DiagAut, SymGroup, enumerate_elements, parse_diag, symmetry_group
from .geometry import fixed_loci, fixed_locus, galois_by_theorem, smoothness
from .classify import (
    badr_bars_divisors,
    classify_case,
    divisor_claims,
    normal_form_type,
    rationality_verdict,
    theorem11_divisors,
    zheng_integers,
)
from .harness import audit_row, audit_theorem, delta_supports, example_witness

__all__ = [
    "CycloNum", "rational", "root_of_unity",
    "HomogPoly", "parse", "parse_scalar",
    "DiagAut", "SymGroup", "enumerate_elements", "parse_diag", "symmetry_group",
    "fixed_loci", "fixed_locus", "galois_by_theorem", "smoothness",
    "badr_bars_divisors", "classify_case", "divisor_claims",
    "normal_form_type", "rationality_verdict", "theorem11_divisors",
    "zheng_integers",
    "audit_row", "audit_theorem", "delta_supports", "example_witness",
]
