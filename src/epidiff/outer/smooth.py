"""Twice-semidifferentiable catalog members built from polynomial data.

The function is base(z) + 0.5 * h(z - center), with h a homogeneous quadratic
given as a polynomial.  Both parts have exact derivatives, so every
second-order object is closed form; when base is affine the second-order
objects reduce to h alone.
"""

from __future__ import annotations

import numpy as np

from ..core import PolyMap, gradient, hessian, poly_eval_batch
from ..errors import CriticalConePreconditionFailed, ValidationError
from ..extreal import ExtReal
from ..numkit import PolyCone
from .base import SUBGRADIENT_TOL, OuterFunction
from .reprs import PointRep, PolyhedralConeRepr


def _poly_gradient_bound(p: PolyMap, center: np.ndarray, radius: float) -> float:
    """Coefficient bound for |grad p| over the ball of given radius."""
    total = 0.0
    env = np.abs(center) + radius
    for coeff, exps in p.components[0]:
        for i, e in enumerate(exps):
            if e == 0:
                continue
            term = abs(coeff) * e
            for j, ej in enumerate(exps):
                power = ej - 1 if j == i else ej
                term *= env[j] ** power
            total += term
    return total


class SmoothQuadratic(OuterFunction):
    tag = "twice_semidiff"

    def __init__(self, base: PolyMap, h: PolyMap, center=None):
        base = base.scalar()
        h = h.scalar()
        if base.n_in != h.n_in:
            raise ValidationError("base and h must share the ambient dimension")
        for _, exps in h.components[0]:
            if sum(exps) != 2:
                raise ValidationError("h must be homogeneous of degree 2")
        self.base = base
        self.h = h
        self.ambient_dim = base.n_in
        self.center = (
            np.zeros(self.ambient_dim) if center is None else np.asarray(center, dtype=float)
        )
        # h is a polynomial quadratic form, so its Hessian is constant.
        self._h_hessian = hessian(h, np.zeros(self.ambient_dim))

    # -- exact calculus ------------------------------------------------------------

    def grad(self, z) -> np.ndarray:
        z = self._require_dim(z)
        return gradient(self.base, z) + 0.5 * gradient(self.h, z - self.center)

    def hess(self, z) -> np.ndarray:
        z = self._require_dim(z)
        return hessian(self.base, z) + 0.5 * self._h_hessian

    # -- catalog operations -----------------------------------------------------------

    def value_batch(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return (
            poly_eval_batch(self.base, Z)[:, 0]
            + 0.5 * poly_eval_batch(self.h, Z - self.center)[:, 0]
        )

    def subdifferential(self, z):
        return PointRep(self.grad(z))

    def subderivative(self, z, w) -> ExtReal:
        return ExtReal(float(self.grad(z) @ np.asarray(w, dtype=float)))

    def second_subderivative(self, z, y, u) -> ExtReal:
        self._require_subgradient(z, y)
        u = np.asarray(u, dtype=float)
        return ExtReal(float(u @ self.hess(z) @ u))

    def parabolic_subderivative(self, z, w, u) -> ExtReal:
        w = np.asarray(w, dtype=float)
        u = np.asarray(u, dtype=float)
        return ExtReal(float(w @ self.hess(z) @ w) + float(self.grad(z) @ u))

    def primal_value(self, z, J, u, H, v) -> ExtReal:
        """Closed form <hess u, u> + <grad, H>; needs adj(J) grad = v."""
        grad = self.grad(z)
        resid = float(np.linalg.norm(J.T @ grad - v))
        if resid > SUBGRADIENT_TOL * (1.0 + float(np.linalg.norm(v))):
            raise CriticalConePreconditionFailed(
                "smooth outer gradient does not match the pairing vector"
            )
        return ExtReal(float(u @ self.hess(z) @ u) + float(grad @ H))

    def second_order_matrix(self, z, y) -> np.ndarray:
        """The Hessian at z, for the one subgradient y = grad(z)."""
        return self.hess(z)

    def critical_cone(self, z, y, subdiff=None):
        self._require_subgradient(z, y, subdiff)
        return PolyhedralConeRepr(
            PolyCone.make_cone(self.ambient_dim),
            description="full space (smooth function, gradient multiplier)",
        )

    def lipschitz_bound(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return _poly_gradient_bound(self.base, z, 1.0) + 0.5 * _poly_gradient_bound(
            self.h, z - self.center, 1.0
        )

    def domain_project(self, z) -> np.ndarray:
        return np.asarray(z, dtype=float)


def zero_function(dim: int) -> SmoothQuadratic:
    return SmoothQuadratic(PolyMap.zero(dim), PolyMap.zero(dim))
