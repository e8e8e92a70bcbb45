"""Representations answer for their own shape: the multiplier set, the
pulled-back critical cone and its directions come from methods of the
representation, and the composite calculus never asks which class it holds."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidiff.cli import run
from epidiff.composite import multipliers
from epidiff.core import CompositeProblem, PolyMap
from epidiff.errors import UnsupportedTag
from epidiff.numkit import PolyCone, polyhedra, unit_rows
from epidiff.optimality import sample_critical_directions
from epidiff.outer import (
    NegSemidefIndicator, PolyhedralConeRepr, PredicateConeRepr, SubdiffRepr, nonpositive_orthant, reprs,
)

from _instances import a1_problem, psd_base_data

SRC = Path(__file__).resolve().parent.parent / "src" / "epidiff"
FIXTURE = str(Path(__file__).resolve().parent / "fixtures" / "a1_parabola.json")


class _UnknownRep(SubdiffRepr):
    pass


def test_an_unknown_representation_raises_unsupported_tag(monkeypatch):
    prob = a1_problem()
    monkeypatch.setattr(type(prob.g), "subdifferential", lambda self, z: _UnknownRep())
    with pytest.raises(UnsupportedTag, match="_UnknownRep"):
        multipliers(prob, np.zeros(2), np.array([0.0, 1.0]))
    code, text = run(["analyze", FIXTURE])
    assert code == 2 and "_UnknownRep" in text


def test_a_pulled_back_cone_holds_w_exactly_when_the_cone_holds_j_w():
    rng = np.random.default_rng(7)
    G = rng.standard_normal((3, 3))
    outer = [PolyhedralConeRepr(PolyCone.make_cone(3, G)),
             PredicateConeRepr(lambda u: bool(np.all(G @ u <= 0.0)))]
    for cone in outer:
        J = rng.standard_normal((3, 2))
        back = cone.pullback(J)
        seen = set()
        for w in rng.standard_normal((300, 2)):
            held = back.contains(w)
            assert held == cone.contains(J @ w)
            seen.add(held)
        assert seen == {True, False}


def test_every_direction_of_a_pulled_back_semidefinite_cone_is_a_member():
    """The semidefinite critical cone is thin, so nearly every seed reaches
    it through the lift that the pulled-back cone solves back through J."""
    z, y = psd_base_data()
    rng = np.random.default_rng(3)
    J = rng.standard_normal((3, 3))
    cone = NegSemidefIndicator(2).critical_cone(z, y).pullback(J)
    seeds = rng.standard_normal((40, 3))
    seeds /= np.linalg.norm(seeds, axis=1, keepdims=True)
    assert not any(cone.contains(s) for s in seeds)
    dirs = cone.directions(seeds)
    assert len(dirs) >= 20
    for w in dirs:
        assert cone.contains(w)
        assert np.linalg.norm(w) == pytest.approx(1.0)


def _representation_classes() -> set[str]:
    return {name for name, obj in vars(reprs).items()
            if inspect.isclass(obj) and issubclass(obj, (reprs.SubdiffRepr, reprs.CriticalConeRepr))}


@pytest.mark.parametrize("module", ["composite.py", "optimality.py"])
def test_the_calculus_does_not_dispatch_on_representations(module):
    """No isinstance test on a representation class, and no getattr or
    hasattr probe of a catalog member (prob.g, or any .g), in the modules
    that apply the chain rule and the optimality conditions."""
    classes = _representation_classes()
    found = []
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args):
            continue
        if node.func.id == "isinstance" and len(node.args) == 2:
            named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if named & classes:
                found.append((node.lineno, ast.unparse(node)))
        if node.func.id in ("getattr", "hasattr"):
            target = node.args[0]
            if (isinstance(target, ast.Attribute) and target.attr == "g") or (
                    isinstance(target, ast.Name) and target.id == "g"):
                found.append((node.lineno, ast.unparse(node)))
    assert not found, found


def test_min_quadratic_finds_a_repeated_eigenvalue_on_a_smaller_face():
    """Q = I on the cone between the rays (1, 2) and (2, 1), which holds no
    coordinate axis.  On the whole cone the compression has the double
    eigenvalue 1, and the eigenvectors the solver returns for it (the axes)
    leave the cone; each ray face gives 1 with a direction in the cone."""
    cone = PolyhedralConeRepr(PolyCone.make_cone(2, [[-2.0, 1.0], [1.0, -2.0]]))
    assert not any(cone.contains(s * e) for e in np.eye(2) for s in (1.0, -1.0))
    value, w, faces = cone.min_quadratic(np.eye(2))
    assert value == pytest.approx(1.0, abs=1e-12) and faces == 3
    assert cone.contains(w) and np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def test_min_quadratic_is_the_least_value_on_the_cone():
    """The kernel's value is attained at its direction and no projected
    sample of the cone goes below it, on pointed cones, cones with a
    lineality space and the cone {0}."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        G = rng.standard_normal((int(rng.integers(1, 6)), n))
        E = rng.standard_normal((1, n)) if rng.random() < 0.2 else None
        cone = PolyhedralConeRepr(PolyCone.make_cone(n, G, E))
        A = rng.standard_normal((n, n))
        Q = A + A.T
        value, w, faces = cone.min_quadratic(Q)
        samples = [p for p in map(cone.project, rng.standard_normal((200, n))) if p is not None]
        if w is None:
            assert faces == 0 and value == np.inf and not samples
            continue
        assert cone.contains(w) and float(w @ Q @ w) == pytest.approx(value, abs=1e-9)
        assert min(float(p @ Q @ p) for p in samples) >= value - 1e-9


def test_a_predicate_cone_has_no_exact_minimum():
    assert PredicateConeRepr(lambda u: True).min_quadratic(np.eye(2)) is None


def test_a_zero_critical_cone_projects_no_seeds(monkeypatch):
    """All m constraints of an orthant problem on R^2 active, F linear plus
    quadratic terms and every multiplier strictly positive, for m = 3..8:
    the critical cone is {0}, it has no extreme ray and no lineality, so
    sampling its directions gives none and projects no seed."""
    calls = []

    def counted(P, u):
        calls.append(u)
        return project(P, u)

    project = polyhedra.project
    monkeypatch.setattr(polyhedra, "project", counted)
    monkeypatch.setattr(reprs, "project", counted)
    rng = np.random.default_rng(5)
    for m in range(3, 9):
        K = rng.standard_normal((m, 2))
        K[:, 0] = -rng.uniform(0.5, 1.0, m)
        F = PolyMap(2, [[(K[i, 0], (1, 0)), (K[i, 1], (0, 1)), (float(rng.standard_normal()), (1, 1))]
                        for i in range(m)])
        prob = CompositeProblem(PolyMap.zero(2), F, nonpositive_orthant(m))
        ms = multipliers(prob, np.zeros(2), K.T @ rng.uniform(0.125, 1.0, m))
        calls.clear()
        assert ms.cone.directions([]) == []
        assert sample_critical_directions(prob, ms, 8, seed=m) == []
        assert calls == []


@st.composite
def _cones_and_seeds(draw):
    """A cone {G w <= 0, E w = 0} in R^n, n <= 4, and unit seeds; mostly
    {0}, by rows with a vanishing positive combination or by equalities."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(1, 4))
    G = rng.standard_normal((draw(st.integers(0, 5)), n))
    if draw(st.integers(0, 3)):  # a positive combination of the rows vanishes
        G = np.vstack([G, -rng.uniform(0.1, 1.0, len(G)) @ G])
    E = rng.standard_normal((draw(st.integers(0, n)), n))
    return PolyCone.make_cone(n, G, E), list(unit_rows(rng, 8, n))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cones_and_seeds())
def test_a_cone_without_generators_has_no_seed_directions(case):
    """directions equals, bit for bit, the path that always projects the
    seeds (rays, signed lines, then every seed's projection the cone
    contains); when cone_generators finds neither rays nor lines, both are
    empty."""
    K, seeds = case
    cone = PolyhedralConeRepr(K)
    rays, lines = cone._generators
    signed = [sgn * line / np.linalg.norm(line) for line in lines for sgn in (1.0, -1.0)]
    projected = list(rays) + signed + reprs.CriticalConeRepr.directions(cone, seeds)
    got = cone.directions(seeds)
    assert len(got) == len(projected)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, projected))
    if not rays and not lines:
        assert got == [] and projected == []
