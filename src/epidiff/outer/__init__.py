"""The catalog of outer functions g with closed-form first- and second-order
objects: values, subdifferentials, subderivatives, second subderivatives,
parabolic subderivatives, second-order tangent membership, and critical cones."""

from .base import OuterFunction
from .indicators import NegSemidefIndicator
from .plq import (
    PlqFunction,
    PlqPiece,
    PolyhedralIndicator,
    absolute_value,
    nonpositive_orthant,
    second_order_tangent_cone,
    zero_set,
)
from .reprs import (
    CriticalConeRepr,
    PointRep,
    PolyhedralConeRepr,
    PolyhedronRep,
    PredicateConeRepr,
    SpectralRep,
    SubdiffRepr,
)
from .smooth import SmoothQuadratic, zero_function
from .spectral import EigSumFunction, alpha_eig, max_eig, sum_top_eig

__all__ = [
    "OuterFunction",
    "PolyhedralIndicator",
    "NegSemidefIndicator",
    "nonpositive_orthant",
    "zero_set",
    "second_order_tangent_cone",
    "PlqFunction",
    "PlqPiece",
    "absolute_value",
    "SmoothQuadratic",
    "zero_function",
    "EigSumFunction",
    "max_eig",
    "sum_top_eig",
    "alpha_eig",
    "SubdiffRepr",
    "PolyhedronRep",
    "SpectralRep",
    "PointRep",
    "CriticalConeRepr",
    "PolyhedralConeRepr",
    "PredicateConeRepr",
]
