"""The central cross-check: every closed-form second subderivative in the
catalog, and every closed-form parabolic subderivative of the spectral
members, must agree with the brute-force difference-quotient estimate on
seeded random critical directions."""

import zlib

import numpy as np
import pytest

from epidiff.core import PolyMap
from epidiff.numkit import Polyhedron, svec
from epidiff.oracle import estimate_parabolic_subderivative
from epidiff.outer import (
    NegSemidefIndicator,
    PolyhedralIndicator,
    SmoothQuadratic,
    absolute_value,
    alpha_eig,
    max_eig,
    nonpositive_orthant,
    sum_top_eig,
)

from _instances import estimate_second_subderivative, half_square_plq, outer_sampled, psd_base_data

N_DIRECTIONS = 50
N_PARABOLIC = 6


def _tol(value: float) -> float:
    return max(0.05, 0.05 * abs(value))


def _critical_directions(g, z, y, rng, count):
    cone = g.critical_cone(z, y)
    dirs = []
    attempts = 0
    while len(dirs) < count and attempts < 60 * count:
        attempts += 1
        cand = rng.standard_normal(g.ambient_dim)
        cand /= np.linalg.norm(cand)
        if not cone.contains(cand):
            cand = cone.direction(cand)
            if cand is None or not cone.contains(cand):
                continue
        dirs.append(cand)
    return dirs


CASES = [
    ("plq_abs", absolute_value(), np.array([0.0]), np.array([1.0])),
    ("plq_half_square", half_square_plq(), np.array([0.0]), np.array([0.0])),
    ("ind_orthant", nonpositive_orthant(2), np.array([0.0, -1.0]), np.array([1.0, 0.0])),
    # the wedge {z2 <= 0, z1 + z2 <= 0} at its apex, y normal to the slanted
    # row: not axis-aligned, so restoration projects through the face search
    (
        "ind_polyhedron_wedge",
        PolyhedralIndicator(Polyhedron.make(2, G=np.array([[0.0, 1.0], [1.0, 1.0]]), h=np.zeros(2))),
        np.array([0.0, 0.0]),
        np.array([1.0, 1.0]),
    ),
    ("ind_negsemidef", NegSemidefIndicator(2), *psd_base_data()),
    ("max_eig", max_eig(2), svec(np.diag([2.0, 1.0])), svec(np.diag([1.0, 0.0]))),
    (
        "sum_top_eig",
        sum_top_eig(3, 2),
        svec(np.diag([3.0, 1.0, 0.0])),
        svec(np.diag([1.0, 1.0, 0.0])),
    ),
    (
        "alpha_eig",
        alpha_eig(2, 2, svec(np.diag([2.0, 1.0]))),
        svec(np.diag([2.0, 1.0])),
        svec(np.diag([0.0, 1.0])),
    ),
    # lambda_3's cluster {lambda_2, lambda_3} at diag(2, 1, 1): s = 1, count 2
    (
        "alpha_eig_cluster",
        alpha_eig(3, 3, svec(np.diag([2.0, 1.0, 1.0]))),
        svec(np.diag([2.0, 1.0, 1.0])),
        svec(np.diag([0.0, 1.0, 1.0])),
    ),
    (
        "twice_semidiff",
        SmoothQuadratic(
            PolyMap.from_strings([["x1^2", "0.5 x1 x2"]], 2),
            PolyMap.from_strings([["x2^2"]], 2),
        ),
        np.array([0.0, 0.0]),
        np.array([0.0, 0.0]),
    ),
]


@pytest.mark.parametrize("name,g,z,y", CASES, ids=[c[0] for c in CASES])
def test_closed_form_matches_oracle(name, g, z, y):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    f = outer_sampled(g)
    dirs = _critical_directions(g, z, y, rng, N_DIRECTIONS)
    assert len(dirs) >= N_DIRECTIONS // 2, f"{name}: too few critical directions found"
    worst = 0.0
    for w in dirs:
        closed = g.second_subderivative(z, y, w)
        est = estimate_second_subderivative(f, z, y, w)
        assert closed.is_finite and est.is_finite, name
        gap = abs(closed.value - est.value)
        worst = max(worst, gap - _tol(closed.value))
        assert gap <= _tol(closed.value), (name, w, closed.value, est.value)
    assert worst <= 0.0


def _cluster_directions(rng, count):
    """At A = I on S^2 with y = I / 2 the critical cone of max_eig is the line
    through I; its unit directions have a 2-dimensional E1."""
    return [rng.choice([-1.0, 1.0]) * svec(np.eye(2)) / np.sqrt(2.0) for _ in range(count)]


PARABOLIC_CASES = [
    ("ind_negsemidef", NegSemidefIndicator(2), *psd_base_data()),
    # A = 0: a 2-dimensional zero cluster
    ("ind_negsemidef_zero_cluster", NegSemidefIndicator(2), svec(np.zeros((2, 2))), np.zeros(3)),
    ("max_eig", max_eig(2), svec(np.diag([2.0, 1.0])), svec(np.diag([1.0, 0.0]))),
    ("max_eig_cluster", max_eig(2), svec(np.eye(2)), svec(0.5 * np.eye(2))),
    (
        "sum_top_eig",
        sum_top_eig(3, 2),
        svec(np.diag([3.0, 1.0, 0.0])),
        svec(np.diag([1.0, 1.0, 0.0])),
    ),
    (
        "alpha_eig",
        alpha_eig(2, 2, svec(np.diag([2.0, 1.0]))),
        svec(np.diag([2.0, 1.0])),
        svec(np.diag([0.0, 1.0])),
    ),
    (
        "alpha_eig_cluster",
        alpha_eig(3, 3, svec(np.diag([2.0, 1.0, 1.0]))),
        svec(np.diag([2.0, 1.0, 1.0])),
        svec(np.diag([0.0, 1.0, 1.0])),
    ),
]


@pytest.mark.parametrize("name,g,z,y", PARABOLIC_CASES, ids=[c[0] for c in PARABOLIC_CASES])
def test_parabolic_closed_form_matches_oracle(name, g, z, y):
    rng = np.random.default_rng(zlib.crc32(("parabolic " + name).encode()))
    f = outer_sampled(g)
    if name == "max_eig_cluster":
        dirs = _cluster_directions(rng, N_PARABOLIC)
    else:
        dirs = _critical_directions(g, z, y, rng, N_PARABOLIC)
    assert len(dirs) == N_PARABOLIC, name
    for w in dirs:
        u = rng.standard_normal(g.ambient_dim)
        closed = g.parabolic_subderivative(z, w, u)
        est = estimate_parabolic_subderivative(f, z, w, g.subderivative(z, w).value, u)
        assert closed.is_finite == est.is_finite, (name, w, u, closed, est)
        if closed.is_finite:
            assert abs(closed.value - est.value) <= _tol(closed.value), (name, w, u, closed, est)
