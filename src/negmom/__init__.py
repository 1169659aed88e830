"""Exact bounded and negative moments of (Laurent bi)orthogonal polynomials,
verified against brute-force lattice-path and sequence oracles."""

from .matrix import Matrix, determinant
from .moments import (
    IllDefinedError,
    bounded_moment,
    forward_moments,
    negative_moment,
    negative_moments,
    transfer_matrix,
    usmani_inverse,
    v_inverse_closed_form,
    well_defined,
)
from .poly import MultiPoly, poly_div_exact, poly_gcd
from .ratfunc import RatFunc
from .weights import WeightSpec, spec

__all__ = [
    "IllDefinedError",
    "Matrix",
    "MultiPoly",
    "RatFunc",
    "WeightSpec",
    "bounded_moment",
    "determinant",
    "forward_moments",
    "negative_moment",
    "negative_moments",
    "poly_div_exact",
    "poly_gcd",
    "spec",
    "transfer_matrix",
    "usmani_inverse",
    "v_inverse_closed_form",
    "well_defined",
]
