"""Representations of subdifferentials and critical cones.

Subdifferentials come in three shapes: explicit polyhedra (with both H- and
V-representation data, since downstream consumers need both), spectral sets
of the form smooth-part + E Theta E^T over a bounded trace-constrained Theta,
and singletons.  Critical cones are either explicit polyhedral cones or
membership predicates.

Each answers for its own shape, so the calculus never asks which one it
holds: a subdifferential builds its ``multiplier_set`` under J = dF(x), and a
critical cone gives its ``pullback`` under J, ``project``, ``directions`` and,
when it can, the exact ``min_quadratic`` of a quadratic form on its unit
sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ..errors import UnsupportedSpectralMultiplicity, UnsupportedTag
from ..numkit import (
    PolyCone, Polyhedron, box, cone_generators, intersect, project, row_norms, sym_eig, svec, smat, vertices,
)
from ..numkit.polyhedra import RANK_TOL, _rank, cone_face_spans, is_empty, residuals

AFFINE_TOL = 1e-8


def _affine_ok(J, v, y) -> bool:
    """Whether adj(J) y = v, to AFFINE_TOL relative to |v|."""
    return float(np.linalg.norm(J.T @ y - v)) <= AFFINE_TOL * (1.0 + np.linalg.norm(v))


def _unit(p) -> np.ndarray | None:
    """p normalized; None when p is None or vanishes."""
    nrm = 0.0 if p is None else float(np.linalg.norm(p))
    return None if nrm <= 1e-9 else p / nrm


class SubdiffRepr:
    def contains(self, y, tol: float = 1e-8) -> bool:
        raise NotImplementedError

    def multiplier_set(self, J, v, tau: float) -> dict:
        """The multipliers {y in this set : adj(J) y = v} for J = dF(x), as
        keyword fields of the composite's MultiplierSet."""
        raise UnsupportedTag(f"unknown subdifferential representation {type(self).__name__}")


@dataclass
class PolyhedronRep(SubdiffRepr):
    """conv(points) + cone(rays) + span(lines), with a matching H-representation."""

    polyhedron: Polyhedron
    points: list = field(default_factory=list)
    rays: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def contains(self, y, tol: float = 1e-8) -> bool:
        return residuals(self.polyhedron, np.asarray(y, dtype=float)) <= tol

    def multiplier_set(self, J, v, tau: float) -> dict:
        """The vertices of the multiplier polyhedron cut to the tau box,
        the box doubled (at most six times) while it cuts out nothing."""
        m = J.shape[0]
        core = intersect(self.polyhedron, Polyhedron.make(m, E=J.T, d=v))
        tau_eff, enlargements = max(tau, 1e-6), 0
        for _ in range(6):
            verts = vertices(intersect(core, box(m, tau_eff)))  # [] when empty
            if verts:
                break
            if is_empty(core):
                return dict(multipliers=[])
            tau_eff *= 2.0
            enlargements += 1
        kept = [y for y in verts if _affine_ok(J, v, y) and self.contains(y, 1e-7)]
        return dict(multipliers=kept, polyhedron=intersect(core, box(m, tau_eff)),
                    tau_enlargements=enlargements, vertices=verts)


@dataclass
class SpectralRep(SubdiffRepr):
    """The set {base + E Theta E^T : 0 <= Theta <= I, tr Theta = trace} when
    trace is set, or the cone {E Theta E^T : Theta >= 0} when trace is None.
    E has orthonormal columns spanning an eigenvalue cluster."""

    n: int
    base: np.ndarray
    basis: np.ndarray  # n x k, orthonormal columns
    trace: float | None

    def _to_matrix(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return smat(y) if y.ndim == 1 else y

    def contains(self, y, tol: float = 1e-8) -> bool:
        V = self._to_matrix(y) - self.base
        scale = 1.0 + float(np.linalg.norm(V))
        # range condition: V supported on the cluster eigenspace
        E = self.basis
        off = V - E @ (E.T @ V @ E) @ E.T
        if np.linalg.norm(off) > max(tol * scale, 1e-6 * scale):
            return False
        theta = E.T @ V @ E
        lams, _ = sym_eig(0.5 * (theta + theta.T))
        if lams.size and lams[-1] < -tol * scale:
            return False
        if self.trace is not None:
            if lams.size and lams[0] > 1.0 + tol * scale:
                return False
            if abs(float(np.trace(theta)) - self.trace) > tol * scale:
                return False
        return True

    def unique_element(self) -> np.ndarray | None:
        k = self.basis.shape[1]
        if self.trace is None:
            return svec(self.base) if k == 0 else None
        if abs(self.trace - k) <= 1e-12:
            # the trace constraint forces Theta = I on the cluster
            return svec(self.base + self.basis @ self.basis.T)
        return None

    def multiplier_set(self, J, v, tau: float) -> dict:
        """The unique element, or with a clustered spectrum the one y that
        an injective adjoint pins."""
        y = self.unique_element()
        if y is not None:
            return dict(multipliers=[y] if _affine_ok(J, v, y) else [])
        if _rank(J.T) < J.shape[0]:
            raise UnsupportedSpectralMultiplicity(
                "clustered leading eigenvalue with a non-unique multiplier candidate"
            )
        y, *_ = np.linalg.lstsq(J.T, v, rcond=None)
        ok = _affine_ok(J, v, y) and self.contains(y, 1e-7)
        return dict(multipliers=[y] if ok else [])


@dataclass
class PointRep(SubdiffRepr):
    point: np.ndarray

    def contains(self, y, tol: float = 1e-8) -> bool:
        y = np.asarray(y, dtype=float)
        return float(np.max(np.abs(y - self.point), initial=0.0)) <= tol * (
            1.0 + float(np.max(np.abs(self.point), initial=0.0))
        )

    def multiplier_set(self, J, v, tau: float) -> dict:
        return dict(multipliers=[self.point] if _affine_ok(J, v, self.point) else [])


class CriticalConeRepr:
    """A critical cone; the defaults know it by membership alone."""

    description: str = ""

    def contains(self, w) -> bool:
        raise NotImplementedError

    def pullback(self, J) -> CriticalConeRepr:
        """The cone {w : J w in this cone}."""
        raise NotImplementedError

    def project(self, w) -> np.ndarray | None:
        """The nearest cone point to w, normalized; None when it vanishes
        (by membership alone: w itself or no point)."""
        return _unit(w if self.contains(w) else None)

    def direction(self, w) -> np.ndarray | None:
        """The unit cone direction a sampled seed w leads to, or None."""
        return self.project(w)

    def directions(self, seeds=()) -> list[np.ndarray]:
        """The cone's own unit generators (none by default), then the
        direction of each seed that the cone contains."""
        return [p for p in map(self.direction, seeds) if p is not None and self.contains(p)]

    def min_quadratic(self, Q) -> tuple[float, np.ndarray | None, int] | None:
        """(least w^T Q w over the cone's unit sphere, a unit w that attains
        it, faces scanned), or None when the cone cannot say exactly."""
        return None


@dataclass
class PolyhedralConeRepr(CriticalConeRepr):
    cone: PolyCone
    description: str = "polyhedral critical cone"

    def contains(self, w) -> bool:
        w = np.asarray(w, dtype=float)
        return residuals(self.cone, w) <= 1e-8 * (1.0 + float(np.linalg.norm(w)))

    def pullback(self, J) -> PolyhedralConeRepr:
        """The rows times J, less each that J maps to rounding noise (at most
        RANK_TOL * max(1, |J|) times the row's norm): it says 0 <= 0, and row
        normalization would make a unit constraint of it."""
        K, tol = self.cone, RANK_TOL * max(1.0, float(np.linalg.norm(J)))
        G, E = K.G @ J, K.E @ J
        return PolyhedralConeRepr(
            PolyCone.make_cone(J.shape[1], G[row_norms(G) > tol * K.g_scales], E[row_norms(E) > tol * K.e_scales]),
            description="pullback of the outer critical cone",
        )

    def project(self, w) -> np.ndarray | None:
        return _unit(project(self.cone, w))

    @cached_property
    def _generators(self):  # (rays, lines), enumerated once per cone
        return cone_generators(self.cone)

    def directions(self, seeds=()) -> list[np.ndarray]:
        """Normalized extreme rays, with lineality contributing both signs,
        then the seeds' projections.  A polyhedral cone with no extreme ray
        and no lineality is {0} (Minkowski-Weyl: Rockafellar 1970, Thm 19.1),
        so then no seed is projected and there are no directions."""
        rays, lines = self._generators
        if not rays and not lines:
            return []
        signed = [sgn * l / np.linalg.norm(l) for l in lines for sgn in (1.0, -1.0)]
        return list(rays) + signed + super().directions(seeds)

    def min_quadratic(self, Q) -> tuple[float, np.ndarray | None, int]:
        """The exact minimum of w^T Q w over the cone's unit sphere, with a
        unit minimizer and the number of faces scanned; (inf, None, 0) when
        the cone is {0}.

        A minimizer lies in the relative interior of some face, where it is
        a unit eigenvector of Q compressed to the face's span; so the minimum
        is the least eigenvalue, over all faces, of a compression whose
        eigenvector (of either sign) the cone contains (Cottle, Habetler and
        Lemke 1970; Hadeler 1983).  An eigenvalue repeated on a face is found
        on a smaller one.  The faces come from ``cone_face_spans``, so the
        cone's dimension is capped at ``numkit.polyhedra.MAX_DIM``."""
        Q = np.asarray(Q, dtype=float)
        Q = 0.5 * (Q + Q.T)
        spans = cone_face_spans(self.cone, self._generators[0])
        best, arg = math.inf, None
        for N in spans:
            lams, V = sym_eig(N.T @ Q @ N)
            for lam, c in zip(lams[::-1], V.T[::-1]):  # ascending
                if lam >= best:
                    break
                u = N @ c
                w = u if self.contains(u) else -u if self.contains(-u) else None
                if w is not None:
                    best, arg = float(lam), w / np.linalg.norm(w)
                    break
        return best, arg, len(spans)


@dataclass
class PredicateConeRepr(CriticalConeRepr):
    """A cone known by a membership predicate; lift, when given, maps a seed
    the cone does not contain to a point near the cone."""

    predicate: Callable[[np.ndarray], bool]
    description: str = "critical cone membership predicate"
    lift: Callable[[np.ndarray], np.ndarray] | None = None

    def contains(self, w) -> bool:
        return bool(self.predicate(np.asarray(w, dtype=float)))

    def pullback(self, J) -> PredicateConeRepr:
        """Membership of J w; the lift takes the outer lift of J s back
        through J by least squares."""
        lift = self.lift and (lambda s: np.linalg.lstsq(J, self.lift(J @ s), rcond=None)[0])
        return PredicateConeRepr(
            lambda w: self.contains(J @ np.asarray(w, dtype=float)),
            "pullback membership of the outer critical cone",
            lift,
        )

    def direction(self, w) -> np.ndarray | None:
        p = self.project(w)
        if p is not None or self.lift is None:
            return p
        p = _unit(self.lift(w))
        return p if p is not None and self.contains(p) else None
