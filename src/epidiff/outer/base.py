"""Abstract interface of the outer-function catalog.

Every catalog member is a proper lsc function, convex except alpha_eig with
s > 0 (see spectral), with closed-form first- and second-order objects; none
of them calls the difference-quotient oracle, which exists to check them.
All operations are pure; instances are immutable after construction.

A new member implements ``value_batch`` (g at each row of an (N, dim)
stack, +inf off dom g, each row bit for bit the same whatever else the stack
holds; ``value`` at a point is its stack of one row, and no member overrides
it), ``subdifferential`` (one of the three shapes of ``reprs``, which builds
its own ``multiplier_set``), ``subderivative``, ``second_subderivative``,
``parabolic_subderivative``, ``critical_cone`` (a ``reprs`` cone, which
answers for its ``pullback``, ``project`` and ``directions``, given a ``lift``
toward the cone where sampling needs one), ``lipschitz_bound``,
``domain_project`` and, for its part of the composite chain rule,
``primal_value``: the closed-form minimum of the parabolic subderivative over
the pulled-back second-order directions (no default).
The other defaults fit a finite multiplier list and a full domain:

- ``dual_value`` maximizes over the materialized multipliers one by one; a
  member whose second-order term is the same for every multiplier on the
  critical cone (PLQ) overrides it with the best vertex of the multiplier
  polytope plus that term.
- ``domain_distance`` is the distance to ``domain_project(z)``.
- ``second_order_tangent_contains`` and ``basic_cq`` return True, since a
  full domain has every second-order tangent and the normal cone {0}; a
  member with a proper domain overrides both.
- ``second_order_matrix`` is None; a member whose second-order term is one
  quadratic form on the critical cone returns its matrix, which lets the
  optimality conditions take their exact minimum.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, NotASubgradient, PointNotInDomain
from ..extreal import PLUS_INF, ExtReal
from ..numkit import row_norms
from .reprs import CriticalConeRepr, SubdiffRepr

SUBGRADIENT_TOL = 1e-8


class OuterFunction:
    #: ambient dimension of the (vectorized) argument space
    ambient_dim: int
    tag: str = "outer"

    # -- required operations ---------------------------------------------------

    def value_batch(self, Z: np.ndarray) -> np.ndarray:
        """g at each row of an (N, dim) stack, +inf outside dom g."""
        raise NotImplementedError

    def value(self, z) -> ExtReal:
        """g at a point: the one row of value_batch of the point alone."""
        z = self._require_dim(z)
        return ExtReal(self.value_batch(z[None])[0])

    def subdifferential(self, z) -> SubdiffRepr:
        raise NotImplementedError

    def subderivative(self, z, w) -> ExtReal:
        raise NotImplementedError

    def second_subderivative(self, z, y, u) -> ExtReal:
        raise NotImplementedError

    def parabolic_subderivative(self, z, w, u) -> ExtReal:
        raise NotImplementedError

    def second_order_tangent_contains(self, z, w, u) -> bool:
        """Whether u lies in the second-order tangent set to dom g at z
        along w; always so for a full domain."""
        return True

    def critical_cone(self, z, y, subdiff: SubdiffRepr | None = None) -> CriticalConeRepr:
        """The critical cone at (z, y); subdiff, when given, is the
        subdifferential at z that the caller already built."""
        raise NotImplementedError

    def lipschitz_bound(self, z) -> float:
        """A Lipschitz constant of the function near z relative to its domain."""
        raise NotImplementedError

    # -- domain geometry ---------------------------------------------------------

    def domain_distance(self, z):
        """|z - domain_project(z)| at a point, or at each row of a (k, m)
        stack, each row bit for bit its distance alone; members with a
        cheaper closed form override."""
        z = np.asarray(z, dtype=float)
        dist = row_norms(z - self.domain_project(z))
        return float(dist) if z.ndim == 1 else dist

    def domain_project(self, z) -> np.ndarray:
        """The nearest point of dom g to z, or to each row of a (k, m) stack;
        raises PointNotInDomain when there is none."""
        raise NotImplementedError

    # -- the member's part of the composite chain rule ----------------------------
    #
    # z = F(x), J = dF(x), u = J w and H = d2F(x)(w, w) for the probed
    # direction w; multys is the composite's multiplier set.

    def dual_value(self, z, u, H, multys):
        """max over the multipliers y of <y, H> + d2 g(z, y)(u), with its
        argmax; PlusInf as soon as one second-order term is infinite."""
        best_val, best_y = None, None
        for y in multys.multipliers:
            term = self.second_subderivative(z, y, u)
            if term.is_plus_inf:
                return PLUS_INF, None
            val = float(np.asarray(y) @ H) + term.value
            if best_val is None or val > best_val + 1e-12:
                best_val, best_y = val, y
        return ExtReal(best_val), best_y

    def primal_value(self, z, J, u, H, v) -> ExtReal:
        """min over z' of d2 g(z)(u | J z' + H) - <z', v>."""
        raise NotImplementedError

    def second_order_matrix(self, z, y) -> np.ndarray | None:
        """The matrix M with d2 g(z, y)(u) = u^T M u for every u on the
        critical cone at (z, y), or None when the term is not one quadratic
        form there."""
        return None

    def basic_cq(self, z, J) -> bool:
        """Whether the normal cone to dom g at z meets ker adj(J) only at the
        origin; always so for a full domain."""
        return True

    # -- shared precondition helpers ----------------------------------------------

    def _require_dim(self, z) -> np.ndarray:
        """z as one float vector of length ambient_dim."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.ambient_dim,):
            raise DimensionMismatch(
                f"{self.tag}: expected a vector of length {self.ambient_dim}"
            )
        return z

    def _require_in_domain(self, z):
        if not self.value(z).is_finite:
            raise PointNotInDomain(f"{self.tag}: point outside dom g")

    def _require_subgradient(self, z, y, subdiff: SubdiffRepr | None = None) -> SubdiffRepr:
        """The subdifferential at z (subdiff when given), which must contain y."""
        rep = self.subdifferential(z) if subdiff is None else subdiff
        if not rep.contains(y, SUBGRADIENT_TOL):
            raise NotASubgradient(f"{self.tag}: y is not a subgradient at z")
        return rep

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.ambient_dim})"


def each_row(fn, z) -> np.ndarray:
    """fn at a point, or at each row of a stack of points."""
    z = np.asarray(z, dtype=float)
    return fn(z) if z.ndim == 1 else np.array([fn(row) for row in z]).reshape(z.shape)
