"""Exact argument-shift computations for classical Lie algebras.

Build algebras, produce invariant and shift families, certify Poisson
commutativity, and decide regular-sequence / dimension claims with an exact
Groebner kernel -- all over Q, no floating point anywhere.
"""

from .exactpoly import Poly, format_poly, parse_poly
from .groebner import (
    DimensionReport,
    GBTimeout,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    ideal_dimension,
    normal_form,
    regular_sequence_verdict,
)
from .invariants import InvariantFamily, invariant_generators, verify_invariance
from .liealg import (
    LieAlgebraData,
    SL2Triple,
    SliceChart,
    build_classical,
    centralizer,
    dual_of,
    index_of,
    is_regular_point,
    kostant_slice,
    principal_sl2,
)
from .poisson import CommutativityReport, commutativity_report, poisson_bracket
from .shift import MFGeneratorSet, bigraded_components, mf_generators, shift_derivative

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "format_poly",
    "parse_poly",
    "DimensionReport",
    "GBTimeout",
    "GroebnerBasis",
    "MonomialOrder",
    "buchberger",
    "ideal_dimension",
    "normal_form",
    "regular_sequence_verdict",
    "InvariantFamily",
    "invariant_generators",
    "verify_invariance",
    "LieAlgebraData",
    "SL2Triple",
    "SliceChart",
    "build_classical",
    "centralizer",
    "dual_of",
    "index_of",
    "is_regular_point",
    "kostant_slice",
    "principal_sl2",
    "CommutativityReport",
    "commutativity_report",
    "poisson_bracket",
    "MFGeneratorSet",
    "bigraded_components",
    "mf_generators",
    "shift_derivative",
]
