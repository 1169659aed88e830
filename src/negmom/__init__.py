"""Exact bounded and negative moments of (Laurent bi)orthogonal polynomials,
verified against brute-force lattice-path and sequence oracles."""

from .matrix import Matrix, determinant
from .moments import (
    IllDefinedError,
    bounded_moment,
    forward_moments,
    negative_moment,
    negative_moments,
    orth_poly,
    transfer_matrix,
    usmani_inverse,
    v_inverse_closed_form,
    well_defined,
)
from .poly import MultiPoly, poly_div_exact, poly_gcd
from .ratfunc import RatFunc, cf_eval, series_expand
from .weights import WeightSpec, spec

__all__ = [
    "IllDefinedError",
    "Matrix",
    "MultiPoly",
    "RatFunc",
    "WeightSpec",
    "bounded_moment",
    "cf_eval",
    "determinant",
    "forward_moments",
    "negative_moment",
    "negative_moments",
    "orth_poly",
    "poly_div_exact",
    "poly_gcd",
    "series_expand",
    "spec",
    "transfer_matrix",
    "usmani_inverse",
    "v_inverse_closed_form",
    "well_defined",
]
