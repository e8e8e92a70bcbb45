"""Representations of subdifferentials and critical cones.

Subdifferentials come in three shapes: explicit polyhedra (with both H- and
V-representation data, since downstream consumers need both), spectral sets
of the form smooth-part + E Theta E^T over a bounded trace-constrained Theta,
and singletons.  Critical cones are either explicit polyhedral cones or
membership predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..numkit import PolyCone, Polyhedron, cone_generators, sym_eig, svec, smat
from ..numkit.polyhedra import residuals


class SubdiffRepr:
    def contains(self, y, tol: float = 1e-8) -> bool:
        raise NotImplementedError

    def unique_element(self) -> np.ndarray | None:
        raise NotImplementedError


@dataclass
class PolyhedronRep(SubdiffRepr):
    """conv(points) + cone(rays) + span(lines), with a matching H-representation."""

    polyhedron: Polyhedron
    points: list = field(default_factory=list)
    rays: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def contains(self, y, tol: float = 1e-8) -> bool:
        return residuals(self.polyhedron, np.asarray(y, dtype=float)) <= tol

    def unique_element(self) -> np.ndarray | None:
        if self.rays or self.lines:
            return None
        pts = [np.asarray(p, dtype=float) for p in self.points]
        if not pts:
            return None
        if all(np.max(np.abs(p - pts[0])) <= 1e-10 for p in pts):
            return pts[0]
        return None


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


@dataclass
class PointRep(SubdiffRepr):
    point: np.ndarray

    def contains(self, y, tol: float = 1e-8) -> bool:
        y = np.asarray(y, dtype=float)
        return float(np.max(np.abs(y - self.point), initial=0.0)) <= tol * (
            1.0 + float(np.max(np.abs(self.point), initial=0.0))
        )

    def unique_element(self) -> np.ndarray:
        return self.point


class CriticalConeRepr:
    description: str = ""

    def contains(self, w, tol: float = 1e-8) -> bool:
        raise NotImplementedError


@dataclass
class PolyhedralConeRepr(CriticalConeRepr):
    cone: PolyCone
    description: str = "polyhedral critical cone"

    def contains(self, w, tol: float = 1e-8) -> bool:
        w = np.asarray(w, dtype=float)
        return residuals(self.cone, w) <= tol * (1.0 + float(np.linalg.norm(w)))

    def directions(self) -> list[np.ndarray]:
        """Normalized extreme rays, with lineality contributing both signs."""
        rays, lines = cone_generators(self.cone)
        out = list(rays)
        for l in lines:
            out.append(l / np.linalg.norm(l))
            out.append(-l / np.linalg.norm(l))
        return out

    def dimension(self) -> int:
        rays, lines = cone_generators(self.cone)
        vecs = rays + lines
        if not vecs:
            return 0
        M = np.vstack(vecs)
        s = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(s > 1e-9 * max(1.0, s[0])))


@dataclass
class PredicateConeRepr(CriticalConeRepr):
    predicate: Callable[[np.ndarray], bool]
    description: str = "critical cone membership predicate"

    def contains(self, w, tol: float = 1e-8) -> bool:
        return bool(self.predicate(np.asarray(w, dtype=float)))
