"""Deterministic numerical kernels: symmetric eigendecomposition, the
eigenbasis pseudoinverse with a kill mask, polyhedra with tangent/normal
cones, vertex enumeration, a small LP solver, and seeded ball and sphere draws."""

from .sym import (
    sym_eig,
    sym_eigvals,
    eigen_pinv,
    cluster_tol,
    operator_norm,
    row_norms,
    svec,
    smat,
    svec_dim,
)
from .polyhedra import (
    Polyhedron,
    PolyCone,
    box,
    contains,
    cone_generators,
    dedupe,
    intersect,
    lp_max,
    min_norm_point,
    project,
    tangent_cone,
    vertices,
    vrep_to_hrep,
)
from .sampling import ball_steps, unit_rows

__all__ = [
    "sym_eig",
    "sym_eigvals",
    "eigen_pinv",
    "cluster_tol",
    "operator_norm",
    "row_norms",
    "svec",
    "smat",
    "svec_dim",
    "Polyhedron",
    "PolyCone",
    "box",
    "contains",
    "cone_generators",
    "dedupe",
    "intersect",
    "lp_max",
    "min_norm_point",
    "project",
    "tangent_cone",
    "vertices",
    "vrep_to_hrep",
    "ball_steps",
    "unit_rows",
]
