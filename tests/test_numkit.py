import ast
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epidiff.cli import run
from epidiff.errors import DimensionTooLarge, EmptyPolyhedron, JacobiNotConverged, PointNotInSet, Unbounded
from epidiff.numkit import sym
from epidiff.numkit import (
    PolyCone,
    Polyhedron,
    ball_steps,
    box,
    cone_generators,
    contains,
    dedupe,
    eigen_pinv,
    intersect,
    lp_max,
    min_norm_point,
    project,
    smat,
    svec,
    sym_eig,
    tangent_cone,
    unit_rows,
    vertices,
    vrep_to_hrep,
)
from epidiff.numkit.polyhedra import (
    _PIVOT_TOL,
    _PRED_TOL,
    FEAS_TOL,
    MAX_DIM,
    RANK_TOL,
    _basic_solution,
    _dedupe_sorted,
    _feasible_basis,
    _lex_less,
    _neighbours,
    _nullspace,
    _nullspace_line,
    _rank,
    _ray_slice,
    _walk,
    is_empty,
    residuals,
)

from _instances import jacobi_one_matrix


# -- eigensolver ----------------------------------------------------------------


def test_sym_eig_examples():
    lam, Q = sym_eig(np.diag([2.0, 1.0]))
    assert np.allclose(lam, [2.0, 1.0]) and np.allclose(Q, np.eye(2))
    lam, Q = sym_eig([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(lam, [1.0, -1.0])
    s = 1 / np.sqrt(2)
    assert np.allclose(np.abs(Q), [[s, s], [s, s]])
    lam, Q = sym_eig(np.eye(3))
    assert np.allclose(lam, 1.0)
    assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)


def test_sym_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        lam, Q = sym_eig(A)
        err = np.linalg.norm(A - Q @ np.diag(lam) @ Q.T)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(A))
        assert np.allclose(Q @ Q.T, np.eye(n), atol=1e-10)
        assert all(lam[i] >= lam[i + 1] - 1e-12 for i in range(n - 1))


def test_sym_eig_deterministic():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    A = 0.5 * (A + A.T)
    lam1, Q1 = sym_eig(A)
    lam2, Q2 = sym_eig(A.copy())
    assert np.array_equal(lam1, lam2) and np.array_equal(Q1, Q2)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(["generic", "diagonal", "zero_row", "zero", "repeated", "huge_ratio"]),
                   min_size=1, max_size=6),
    scale=st.sampled_from([1e-9, 1.0, 1e7]),
    seed=st.integers(0, 2 ** 16),
)
def test_stacked_sym_eig_matches_the_per_matrix_jacobi(n, kinds, scale, seed):
    """Every matrix of a stack gets, bit for bit, the eigenvalues and vectors
    the per-matrix loop gives it, also where the stack mixes matrices that
    need different sweep counts or skip rotations (zero off-diagonals)."""
    rng = np.random.default_rng(seed)
    mats = []
    for kind in kinds:
        A = rng.standard_normal((n, n)) * scale
        A = A + A.T
        if kind == "diagonal":
            A = np.diag(np.diag(A))
        elif kind == "zero_row":
            A[0, 1:] = A[1:, 0] = 0.0
        elif kind == "zero":
            A = np.zeros((n, n))
        elif kind == "repeated":
            A = scale * np.eye(n)
            A[0, -1] = A[-1, 0] = 1e-3 * scale
        elif kind == "huge_ratio":
            A = np.diag(np.arange(1.0, n + 1.0)) * scale
            A[0, -1] = A[-1, 0] = 1e-160 * scale
        mats.append(A)
    lams, vecs = sym_eig(np.array(mats))
    assert lams.shape == (len(mats), n) and vecs.shape == (len(mats), n, n)
    for A, lam, Q in zip(mats, lams, vecs):
        ref_lam, ref_Q = jacobi_one_matrix(A)
        one_lam, one_Q = sym_eig(A)
        assert _same_bits(lam, ref_lam) and _same_bits(Q, ref_Q)
        assert _same_bits(one_lam, ref_lam) and _same_bits(one_Q, ref_Q)


_TINY = np.finfo(float).tiny
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-150, 150)),
    st.floats(-_TINY, _TINY, allow_subnormal=True),
)
_ROW = st.one_of(st.tuples(_ENTRY, _ENTRY, _ENTRY), _ENTRY.map(lambda a: (a, 0.0, a)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, min_size=1, max_size=8))
@example([(1e308, 0.0, 1e308), (1e308, 5e307, 1e308), (-1e308, 0.0, 1e308)])
def test_two_by_two_eigenvalues_match_lapack_row_by_row(rows):
    """The closed form is within 4 eps |M|_F of LAPACK on every row, at any
    scale, at ties and on zero or subnormal entries (plus two units of the
    smallest subnormal, which halving a subnormal entry may round away).
    The example is finite where (a + c)/2 overflows.  Each row of a stack
    is bit for bit the matrix valued alone."""
    M = np.array([[[a, b], [b, c]] for a, b, c in rows])
    lams = sym.sym_eigvals(M)
    assert lams.shape == (len(rows), 2) and (lams[:, 0] <= lams[:, 1]).all()
    floor = 2.0 * np.finfo(float).smallest_subnormal
    for A, lam, (a, b, c) in zip(M, lams, rows):
        bound = 4.0 * np.finfo(float).eps * math.hypot(a, b, b, c) + floor
        assert np.abs(lam - np.linalg.eigvalsh(A)).max() <= bound
        assert _same_bits(lam, sym.sym_eigvals(A[None])[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_matrix_with_a_non_finite_entry_has_no_eigenvalues(n):
    """Every eigenvalue of a matrix with a NaN or infinite entry is NaN
    (LAPACK reads [[nan, 0], [0, 0]] as [0, -0]); the finite matrices of the
    stack keep the values they have alone."""
    rng = np.random.default_rng(n)
    M = rng.standard_normal((7, n, n))
    M = M + M.swapaxes(1, 2)
    for row, bad in zip((1, 3, 4, 6), (math.nan, math.inf, -math.inf, math.nan)):
        M[row, -1, 0] = M[row, 0, -1] = bad
    lams = sym.sym_eigvals(M)
    finite = np.isfinite(M).all(axis=(1, 2))
    assert list(finite) == [True, False, True, False, False, True, False]
    assert np.isnan(lams[~finite]).all()
    assert _same_bits(lams[finite], sym.sym_eigvals(M[finite]))
    assert np.allclose(lams[finite], np.linalg.eigvalsh(M[finite]), rtol=0.0, atol=1e-14)


def test_lapack_eigenvalues_are_called_only_in_the_kernel():
    """Every eigenvalue-only computation in the library goes through
    numkit.sym.sym_eigvals, so no other module calls eigvalsh."""
    src = Path(__file__).resolve().parent.parent / "src" / "epidiff"
    calls = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "eigvalsh":
                    calls.append((path.relative_to(src).as_posix(), node.lineno))
    assert calls and {file for file, _ in calls} == {"numkit/sym.py"}, calls


def test_sym_eig_raises_when_the_sweeps_run_out(monkeypatch, tmp_path):
    """After MAX_SWEEPS sweeps an unconverged matrix raises a typed error,
    alone or in a stack, and the CLI maps it to exit 2; with the default
    limit the same matrix converges."""
    A = np.array([[2.0, 1.0, 0.5], [1.0, -1.0, 0.3], [0.5, 0.3, 0.7]])
    lam, _ = sym_eig(A)
    assert np.allclose(lam, np.linalg.eigvalsh(A)[::-1])
    monkeypatch.setattr(sym, "MAX_SWEEPS", 1)
    with pytest.raises(JacobiNotConverged):
        sym_eig(A)
    with pytest.raises(JacobiNotConverged):
        sym_eig(np.array([np.diag([1.0, 2.0, 3.0]), A]))
    assert np.array_equal(sym_eig(np.diag([1.0, 2.0, 3.0]))[0], [3.0, 2.0, 1.0])
    # polyhedron_m6 with ell = 1, so that tau needs the operator norm of dF
    # (an indicator's own ell = 0 multiplies it away and skips the eigensolver)
    data = json.loads((Path(__file__).parent / "fixtures" / "polyhedron_m6.json").read_text())
    path = tmp_path / "polyhedron_m6_ell1.json"
    path.write_text(json.dumps({**data, "ell": 1.0}))
    code, text = run(["analyze", str(path)])
    assert code == 2 and text.startswith("error:") and "sweeps" in text


# -- pseudoinverse ----------------------------------------------------------------


def _pinv(A):
    """eigen_pinv with the eigenvalues at most 1e-10 * max(1, |A|_F) killed."""
    lams, Q = sym_eig(A)
    return eigen_pinv(lams, Q, np.abs(lams) <= 1e-10 * max(1.0, float(np.linalg.norm(A))))


def test_pinv_examples():
    assert np.allclose(_pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(_pinv(np.diag([0.0, -1.0])), np.diag([0.0, -1.0]))
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(_pinv(X), X, atol=1e-12)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n))
        lams = np.concatenate([np.zeros(k), rng.uniform(0.5, 3.0, n - k) * rng.choice([-1, 1], n - k)])
        M = rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(M)
        A = Q @ np.diag(lams) @ Q.T
        A = 0.5 * (A + A.T)
        Ad = _pinv(A)
        assert np.linalg.norm(A @ Ad @ A - A) <= 1e-8 * (1 + np.linalg.norm(A))
        assert np.linalg.norm(Ad @ A @ Ad - Ad) <= 1e-8 * (1 + np.linalg.norm(Ad))


# -- LP -----------------------------------------------------------------------------


def test_lp_max_examples():
    P = Polyhedron.make(1, G=[[1.0], [-1.0]], h=[2.0, 0.0])
    val, arg = lp_max([1.0], P)
    assert val == pytest.approx(2.0) and arg[0] == pytest.approx(2.0)
    bx = box(2, 0.5, center=[0.5, 0.5])
    val, arg = lp_max([0.0, 0.0], bx)
    assert val == 0.0 and np.allclose(arg, [0.0, 0.0])
    simplex = Polyhedron.make(2, G=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], h=[0.0, 0.0, 1.0])
    val, arg = lp_max([1.0, 1.0], simplex)
    assert val == pytest.approx(1.0)
    assert np.allclose(arg, [0.0, 1.0], atol=1e-9)  # lexicographic tie-break


def test_lp_max_dominates_random_feasible_points():
    rng = np.random.default_rng(7)
    for _ in range(8):
        dim = int(rng.integers(1, 4))
        P = intersect(
            box(dim, 1.0),
            Polyhedron.make(dim, G=rng.standard_normal((2, dim)), h=rng.uniform(0.5, 1.5, 2)),
        )
        c = rng.standard_normal(dim)
        try:
            val, _ = lp_max(c, P)
        except EmptyPolyhedron:
            continue
        found = 0
        while found < 100:
            y = rng.uniform(-1, 1, dim)
            if contains(P, y):
                found += 1
                assert val >= float(c @ y) - 1e-9
def test_lp_max_errors():
    with pytest.raises(EmptyPolyhedron):
        lp_max([1.0], Polyhedron.make(1, G=[[1.0], [-1.0]], h=[-1.0, 0.0]))
    with pytest.raises(Unbounded):
        lp_max([1.0], Polyhedron.make(1, G=[[-1.0]], h=[0.0]))


# -- tangent cones --------------------------------------------------------------------


def test_tangent_cone_examples():
    P = Polyhedron.make(1, G=[[1.0]], h=[0.0])
    T = tangent_cone(P, [0.0])
    assert T.n_ineq == 1 and contains(T, [-1.0]) and not contains(T, [1.0])
    T_free = tangent_cone(P, [-1.0])
    assert T_free.n_ineq == 0
    T_corner = tangent_cone(box(2, 0.5, center=[0.5, 0.5]), [1.0, 1.0])
    assert contains(T_corner, [-1.0, -1.0]) and not contains(T_corner, [1e-6, 0.0])
    with pytest.raises(PointNotInSet):
        tangent_cone(P, [1.0])


def test_box_vertex_tangent_cone_is_orthant():
    for dim in (1, 2, 3):
        T = tangent_cone(box(dim, 1.0), np.ones(dim))
        rows = sorted(tuple(np.round(r / np.linalg.norm(r), 12)) for r in T.G)
        expected = sorted(tuple(np.round(e, 12)) for e in np.eye(dim))
        assert rows == expected and T.n_eq == 0


# -- vertex enumeration -----------------------------------------------------------------


def test_vertices_examples():
    interval = Polyhedron.make(1, G=[[1.0], [-1.0]], h=[1.0, 0.0])
    assert [v[0] for v in vertices(interval)] == [0.0, 1.0]
    simplex = Polyhedron.make(2, G=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], h=[0.0, 0.0, 1.0])
    vs = vertices(simplex)
    assert len(vs) == 3
    diag = Polyhedron.make(
        2, G=[[1.0, 0.0], [-1.0, 0.0]], h=[1.0, 0.0], E=[[1.0, -1.0]], d=[0.0]
    )
    vs = vertices(diag)
    assert np.allclose(vs[0], [0.0, 0.0]) and np.allclose(vs[1], [1.0, 1.0])


def test_vertices_errors():
    with pytest.raises(Unbounded):
        vertices(Polyhedron.make(1, G=[[1.0]], h=[0.0]))
    with pytest.raises(DimensionTooLarge):
        vertices(box(9, 1.0))


# -- polarity and projections --------------------------------------------------------------


def test_vrep_to_hrep_roundtrip_interval():
    H = vrep_to_hrep([np.array([-1.0]), np.array([1.0])])
    assert contains(H, [0.99]) and contains(H, [-0.99])
    assert not contains(H, [1.01]) and not contains(H, [-1.01])


def test_vrep_to_hrep_with_rays_and_lines():
    # conv{0} + ray(e1) + span(e2) in R^2 = right half-plane
    H = vrep_to_hrep([np.zeros(2)], rays=[np.array([1.0, 0.0])], lines=[np.array([0.0, 1.0])])
    assert contains(H, [5.0, -7.0]) and not contains(H, [-0.1, 0.0])


def test_cone_generators_cover_membership():
    K = Polyhedron.make(2, G=[[1.0, -1.0], [-1.0, -1.0]], h=[0.0, 0.0])
    rays, lines = cone_generators(K)
    assert not lines and len(rays) == 2
    for r in rays:
        assert contains(K, r, 1e-9)


def test_projection_and_min_norm():
    bx = box(2, 0.5, center=[0.5, 0.5])
    assert np.allclose(project(bx, [2.0, 2.0]), [1.0, 1.0])
    assert np.allclose(project(bx, [0.2, 0.3]), [0.2, 0.3])
    simplex = Polyhedron.make(2, G=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], h=[0.0, 0.0, 1.0])
    assert np.allclose(min_norm_point(simplex), [0.0, 0.0])
    assert project(Polyhedron.make(1, G=[[1.0], [-1.0]], h=[-1.0, 0.0]), [0.0]) is None


# -- pivoting kernel against the subset enumeration it replaced --------------------------
#
# The reference below tries every row subset of the right size, exactly as the
# library did before the pivoting walk; the walk must give bitwise-equal
# results, including which exception is raised.


def _two_svd_line(M, dim):
    """The line {x : M x = 0} as a ray basis was solved before one SVD
    decided it: a rank test first, then the nullspace."""
    if _rank(M) != dim - 1:
        return None
    u = _nullspace(M, dim)
    return u[:, 0] if u.shape[1] == 1 else None


def _rays_of_basis(K, eqs, S):
    """The unit rays of K on the line of the basis S, and that line."""
    u = _two_svd_line(np.vstack([eqs, K.G[list(S)]]), K.dim)
    if u is None:
        return [], None
    rays = [c / np.linalg.norm(c) for c in (u, -u) if K.n_ineq == 0 or np.max(K.G @ c) <= FEAS_TOL]
    return rays, u


def _pointed_part(K):
    L = _nullspace(np.vstack([K.G, K.E]), K.dim)
    eqs = np.vstack([K.E, L.T])
    return [L[:, j] for j in range(L.shape[1])], eqs, K.dim - 1 - _rank(eqs)


def _enum_cone_generators(K):
    if K.dim > 8:
        raise DimensionTooLarge("reference")
    lines, eqs, need = _pointed_part(K)
    if need < 0:
        return [], lines
    rays = []
    for S in itertools.combinations(range(K.n_ineq), need):
        rays += _rays_of_basis(K, eqs, S)[0]
    return _dedupe_sorted(rays, tol=1e-8), lines


def _enum_vertices(P):
    if P.dim > 8:
        raise DimensionTooLarge("reference")
    rays, lines = _enum_cone_generators(PolyCone.make_cone(P.dim, P.G, P.E))
    if rays or lines:
        raise Unbounded("reference")
    found = []
    for S in itertools.combinations(range(P.n_ineq), P.dim - _rank(P.E)):
        M = np.vstack([P.E, P.G[list(S)]])
        b = np.concatenate([P.d, P.h[list(S)]])
        if _rank(M) < P.dim:
            continue
        x, *_ = np.linalg.lstsq(M, b, rcond=None)
        if np.max(np.abs(M @ x - b)) > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
            continue
        if contains(P, x, FEAS_TOL * (1.0 + float(np.abs(x).max(initial=0.0)))):
            found.append(x)
    return _dedupe_sorted(found)


def _enum_lp_max(c, verts):
    if isinstance(verts, str):
        return verts
    if not verts:
        return "EmptyPolyhedron"
    values = [float(c @ v) for v in verts]
    best = max(values)
    optimal = [v for v, val in zip(verts, values) if val >= best - 1e-9 * (1.0 + abs(best))]
    arg = optimal[0]
    for v in optimal[1:]:
        lex_less = next((x < y for x, y in zip(v, arg) if abs(x - y) > 1e-9), False)
        if lex_less:
            arg = v
    return best, arg


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DimensionTooLarge, EmptyPolyhedron, Unbounded) as exc:
        return type(exc).__name__


def _bits(value):
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, (np.ndarray, float)):
        return np.asarray(value, dtype=float).tobytes()
    return value


def _assert_kernel_matches_enumeration(P, objectives=()):
    ref_vertices = _outcome(_enum_vertices, P)
    assert _bits(_outcome(vertices, P)) == _bits(ref_vertices)
    for K in (P, PolyCone.make_cone(P.dim, P.G, P.E)):
        assert _bits(_outcome(cone_generators, K)) == _bits(_outcome(_enum_cone_generators, K))
    assert is_empty(P) == (project(P, np.zeros(P.dim)) is None)
    for c in objectives:
        assert _bits(_outcome(lp_max, c, P)) == _bits(_enum_lp_max(c, ref_vertices))


@st.composite
def _integer_polyhedra(draw):
    dim = draw(st.integers(1, 4))
    n_ineq, n_eq = draw(st.integers(0, 7)), draw(st.integers(0, 2))

    def ints(count, lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=count, max_size=count)), float)

    P = Polyhedron.make(
        dim,
        ints(n_ineq * dim, -3, 3).reshape(n_ineq, dim),
        ints(n_ineq, -2, 3),
        ints(n_eq * dim, -2, 2).reshape(n_eq, dim) if n_eq else None,
        ints(n_eq, -1, 1) if n_eq else None,
    )
    if draw(st.booleans()):
        P = intersect(P, box(dim, float(draw(st.integers(1, 3)))))
    return P, [ints(dim, -2, 2) for _ in range(2)]


@given(_integer_polyhedra())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_enumeration_on_random_polyhedra(case):
    P, objectives = case
    _assert_kernel_matches_enumeration(P, objectives)


def _pyramid(facets: int) -> Polyhedron:
    angles = 2.0 * np.pi * np.arange(facets) / facets
    sides = np.column_stack([np.cos(angles), np.sin(angles), np.ones(facets)])
    G = np.vstack([sides, [[0.0, 0.0, -1.0]]])
    return Polyhedron.make(3, G, np.append(np.ones(facets), 0.0))


@pytest.mark.parametrize("facets", [4, 5, 6])
def test_kernel_matches_enumeration_at_pyramid_apex(facets):
    P = _pyramid(facets)
    assert any(np.allclose(v, [0.0, 0.0, 1.0]) for v in vertices(P))
    _assert_kernel_matches_enumeration(P, [np.array([0.0, 0.0, 1.0]), np.zeros(3)])
    apex_cone = tangent_cone(P, [0.0, 0.0, 1.0])
    assert apex_cone.n_ineq == facets
    assert _bits(cone_generators(apex_cone)) == _bits(_enum_cone_generators(apex_cone))


def test_kernel_matches_enumeration_with_duplicated_and_redundant_rows():
    sq = box(2, 0.5, center=[0.5, 0.5])
    duplicated = intersect(sq, sq, Polyhedron.make(2, G=[[2.0, 0.0]], h=[2.0]))
    redundant = intersect(sq, Polyhedron.make(2, G=[[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]], h=[2.0, 5.0, 1.0]))
    for P in (duplicated, redundant):
        _assert_kernel_matches_enumeration(P, [np.array([1.0, 1.0]), np.array([1.0, 0.0])])
    cube_with_diagonal = intersect(box(3, 1.0), Polyhedron.make(3, G=[[1.0, 1.0, 1.0]], h=[3.0]))
    _assert_kernel_matches_enumeration(cube_with_diagonal, [np.ones(3)])


def _multiplier_polytope(m):
    """{y >= 0, J^T y = v} cut by the tau box, as the multiplier set of an
    all-active orthant is built, and the generator that drew it."""
    rng = np.random.default_rng(m)
    n = max(2, m - 4)  # at most 4 free dimensions keeps the reference enumeration quick
    J = rng.integers(-4, 5, size=(m, n)) / 4.0
    y0 = rng.integers(0, 5, size=m) / 4.0
    core = intersect(
        PolyCone.make_cone(m, G=-np.eye(m)), Polyhedron.make(m, E=J.T, d=J.T @ y0)
    )
    return intersect(core, box(m, 2.0)), rng


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_kernel_matches_enumeration_on_multiplier_polytopes(m):
    """The multiplier polytopes; the optimum of the LP ties on purpose."""
    P, rng = _multiplier_polytope(m)
    assert vertices(P)
    _assert_kernel_matches_enumeration(P, [np.zeros(m), np.eye(m)[0], rng.standard_normal(m)])


# -- the vertex walk's steps ---------------------------------------------------------------


def _neighbours_per_edge(P, S, x, bounded):
    """The per-edge loop that the one-pass _neighbours replaced, kept as its
    reference; its edges come from the basis inverse _neighbours takes."""
    M = np.vstack([P.E, P.G[list(S)]])
    D = -(np.linalg.inv(M) if M.shape[0] == M.shape[1] else np.linalg.pinv(M))[:, P.n_eq :]
    W = P.G @ D
    resid = P.G @ x - P.h
    row_tol = _PRED_TOL * np.maximum(1.0, P.g_scales)
    nonbasic = np.delete(np.arange(P.n_ineq), S)
    out = []
    for k in range(len(S)):
        a = W[:, k]
        if bounded and not np.any(a > FEAS_TOL * np.linalg.norm(D[:, k])):
            raise Unbounded("reference")
        js = nonbasic[np.abs(a[nonbasic]) > _PIVOT_TOL * P.g_scales[nonbasic]]
        t = -resid[js] / a[js]
        viol = resid[None, :] + t[:, None] * a[None, :]
        size = 1.0 + np.abs(x[None, :] + t[:, None] * D[:, k]).max(axis=1)
        ok = np.all(viol <= row_tol[None, :] * size[:, None], axis=1)
        rest = S[:k] + S[k + 1 :]
        out += [tuple(sorted(rest + (int(j),))) for j in js[ok]]
    return out


def _bases(P, limit=None):
    """(S, x) for the row sets S that pin one point x, feasible or not, in
    lexicographic order: the first `limit` of them."""
    need = P.dim - _rank(P.E)
    pinned = ((S, _basic_solution(P, S)) for S in itertools.combinations(range(P.n_ineq), need))
    return list(itertools.islice(((S, x) for S, x in pinned if x is not None), limit))


def _assert_neighbours_match_per_edge(P, bases):
    for S, x in bases:
        for bounded in (True, False):
            assert _outcome(_neighbours, P, S, x, bounded) == _outcome(_neighbours_per_edge, P, S, x, bounded)


@given(_integer_polyhedra())
@settings(max_examples=120, deadline=None)
def test_neighbours_match_the_per_edge_loop_on_random_polyhedra(case):
    """The same swaps in the same order, and Unbounded on the same inputs,
    bounded or not (half the draws are cut by a box)."""
    P, _ = case
    if P.n_ineq and P.dim - _rank(P.E) > 0:
        _assert_neighbours_match_per_edge(P, _bases(P, limit=40))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_neighbours_match_the_per_edge_loop_on_multiplier_polytopes(m):
    P, _ = _multiplier_polytope(m)
    feasible = [(S, x) for S, x in _bases(P) if contains(P, x, FEAS_TOL * (1.0 + float(np.abs(x).max())))]
    assert feasible
    _assert_neighbours_match_per_edge(P, feasible)


@pytest.mark.parametrize("facets", [4, 5, 6])
def test_neighbours_match_the_per_edge_loop_at_a_degenerate_apex(facets):
    """Every basis of the pyramid, the many of its apex included; without the
    base row the apex opens into a cone, and both raise Unbounded there."""
    P = _pyramid(facets)
    bases = _bases(P)
    assert sum(np.allclose(x, [0.0, 0.0, 1.0]) for _, x in bases) >= math.comb(facets, 3)
    _assert_neighbours_match_per_edge(P, bases)
    cone = Polyhedron.make(3, P.G[:-1], P.h[:-1])
    cone_bases = _bases(cone)
    S, x = cone_bases[0]
    assert _outcome(_neighbours, cone, S, x, True) == "Unbounded"
    _assert_neighbours_match_per_edge(cone, cone_bases)


@given(_integer_polyhedra())
@settings(max_examples=120, deadline=None)
def test_the_walk_starts_at_a_sorted_feasible_basis(case):
    """From the minimum-norm point of a pointed polyhedron, _feasible_basis
    returns sorted, linearly independent rows that hold with equality at a
    point of P."""
    P, _ = case
    need = P.dim - _rank(P.E)
    x0 = min_norm_point(P)
    if need == 0 or x0 is None or _rank(np.vstack([P.G, P.E])) < P.dim:
        return
    S = _feasible_basis(P, x0, need)
    assert list(S) == sorted(set(S)) and len(S) == need
    assert _rank(np.vstack([P.E, P.G[list(S)]])) == P.dim
    x = _basic_solution(P, S)
    assert x is not None and contains(P, x, FEAS_TOL * (1.0 + float(np.abs(x).max(initial=0.0))))


# -- simplicial cones and one-SVD rank decisions -------------------------------------------


def _walk_cone_generators(K):
    """cone_generators as it was before a cone with independent rows skipped
    the walk: every pointed part of dimension two or more walks its ray
    slice from the minimum-norm point, each basis solved by a rank test and
    then a nullspace."""
    lines, eqs, need = _pointed_part(K)
    if need < 0:
        return [], lines
    Q = _ray_slice(K.G, eqs) if need else None
    found = {}

    def solve(S):
        found[S], u = _rays_of_basis(K, eqs, S)
        scale = 0.0 if Q is None or u is None else float(Q.E[-1] @ u)
        return (u / scale if scale != 0.0 else None), bool(found[S])

    if need == 0:
        bases = [()] if solve(())[1] else []
    else:
        x0 = min_norm_point(Q)
        if x0 is None:
            return [], lines
        bases = _walk(Q, _feasible_basis(Q, x0, need), solve, bounded=False)
    return _dedupe_sorted([r for S in bases for r in found[S]], tol=1e-8), lines


@st.composite
def _independent_cones(draw):
    """Cones {G x <= 0, E x = 0} of every dimension up to MAX_DIM whose rows
    are linearly independent, with equality rows and a lineality space (fewer
    rows than dimensions) in many of them."""
    dim = draw(st.integers(1, MAX_DIM))
    rows = draw(st.integers(0, dim))
    n_eq = draw(st.integers(0, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        A = rng.integers(-3, 4, size=(rows, dim)).astype(float)
    else:
        A = rng.standard_normal((rows, dim))
    assume(_rank(A) == rows)
    return PolyCone.make_cone(dim, A[n_eq:], A[:n_eq])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_independent_cones())
@example(PolyCone.make_cone(1))  # no rows: a line and no ray
@example(PolyCone.make_cone(1, G=[[-2.0]]))  # its one ray solves an empty basis matrix
@example(PolyCone.make_cone(1, E=[[1.0]]))  # {0}
@example(PolyCone.make_cone(3, G=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], E=[[0.0, 0.0, 1.0]]))
@example(PolyCone.make_cone(4, G=[[1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 2.0, 0.0]]))  # a plane of lineality
def test_a_cone_with_independent_rows_gets_the_rays_and_lines_of_the_walk(K):
    """The rays read off the bases of all G rows but one are, bit for bit
    and in order, those of the ray-slice walk, and so are the lines."""
    assert _bits(cone_generators(K)) == _bits(_walk_cone_generators(K))


@st.composite
def _rows_with_repeats_and_zeros(draw):
    """An integer matrix with a repeated row, a zero row, both or neither."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    A = rng.integers(-3, 4, size=(draw(st.integers(0, dim + 1)), dim)).astype(float)
    if A.shape[0] and draw(st.booleans()):
        A = np.vstack([A, A[draw(st.integers(0, A.shape[0] - 1))]])
    if draw(st.booleans()):
        A = np.vstack([A, np.zeros(dim)])
    return A[rng.permutation(A.shape[0])]


def _two_svd_basic_solution(P, S):
    """_basic_solution before its rank was read off the singular values of
    its least-squares solve."""
    M = np.vstack([P.E, P.G[list(S)]])
    b = np.concatenate([P.d, P.h[list(S)]])
    if _rank(M) < P.dim:
        return None
    x, *_ = np.linalg.lstsq(M, b, rcond=None)
    if np.max(np.abs(M @ x - b)) > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
        return None
    return x


def _same_or_none(a, b):
    return (a is None) == (b is None) and (a is None or _same_bits(a, b))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rows_with_repeats_and_zeros(), st.integers(0, 2), st.integers(0, 2 ** 16))
def test_one_svd_rank_decisions_match_the_rank_then_solve_path(A, n_eq, seed):
    """Every row subset of a matrix with repeated and zero rows, the empty
    one included: _basic_solution and the cone bases' line accept and reject
    as a rank test followed by the solve did, and return the same bits."""
    dim = A.shape[1]
    n_eq = min(n_eq, A.shape[0])
    h = np.random.default_rng(seed).integers(-2, 3, size=A.shape[0]).astype(float)
    P = Polyhedron.make(dim, A[n_eq:], h[n_eq:], A[:n_eq], h[:n_eq])
    for k in range(P.n_ineq + 1):
        for S in itertools.combinations(range(P.n_ineq), k):
            assert _same_or_none(_basic_solution(P, S), _two_svd_basic_solution(P, S))
            M = np.vstack([P.E, P.G[list(S)]])
            assert _same_or_none(_nullspace_line(M, dim), _two_svd_line(M, dim))


# -- symmetric vectorization ------------------------------------------------------------------


def _pairwise_dedupe(points, tol):
    """The pairwise loop the shared helper replaced, kept as its reference."""
    kept = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return kept


@st.composite
def _directions_with_near_duplicates(draw):
    """Unit-box points plus copies shifted in one coordinate by just below or
    just above 1e-9 (copies of copies too), shuffled."""
    dim = draw(st.integers(min_value=1, max_value=4))
    coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    points = [np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
              for _ in range(draw(st.integers(min_value=1, max_value=10)))]
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        q = points[draw(st.integers(min_value=0, max_value=len(points) - 1))].copy()
        shift = draw(st.sampled_from([0.5, 0.99, 1.0, 1.01, 2.0])) * 1e-9
        q[draw(st.integers(min_value=0, max_value=dim - 1))] += draw(st.sampled_from([-1.0, 1.0])) * shift
        points.append(q)
    return draw(st.permutations(points))


@given(_directions_with_near_duplicates())
@settings(max_examples=300, deadline=None)
def test_dedupe_keeps_what_the_pairwise_loop_kept(points):
    kept = dedupe(points, 1e-9)
    ref = _pairwise_dedupe(points, 1e-9)
    assert len(kept) == len(ref) and all(a is b for a, b in zip(kept, ref))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_svec_isometry(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    B = rng.standard_normal((n, n))
    B = 0.5 * (B + B.T)
    assert np.isclose(float(svec(A) @ svec(B)), float(np.tensordot(A, B)))
    assert np.allclose(smat(svec(A)), A)
    stack = svec(np.array([A, B]))
    assert smat(stack).tobytes() == np.array([smat(stack[0]), smat(stack[1])]).tobytes()


@given(st.integers(1, 6), st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_residuals_of_a_stack_are_the_residuals_of_its_points(m, dim, eq, seed):
    """Each row of residuals(P, X) is bit for bit residuals(P, x) of that
    point alone, for dense rows, whatever the stack's length."""
    rng = np.random.default_rng(seed)
    E, d = (rng.standard_normal((1, dim)), rng.standard_normal(1)) if eq else (None, None)
    P = Polyhedron.make(dim, G=rng.standard_normal((m, dim)), h=rng.standard_normal(m), E=E, d=d)
    X = rng.standard_normal((300, dim))
    stack = residuals(P, X)
    assert stack.shape == (300,)
    assert stack.tobytes() == np.array([residuals(P, x) for x in X]).tobytes()
    assert stack[:7].tobytes() == residuals(P, X[:7]).tobytes()


# -- least-distance projection against the active-set enumeration it replaced -------------
#
# The reference tries every active set of at most dim - rank(E) inequality
# rows, projects onto each affine slice and keeps the nearest candidate that
# passes project's own containment test: FEAS_TOL at the size of u and of
# the row-normalized right-hand sides.  (The library's enumeration before
# the NNLS kernel accepted 1e-8 at the size of the candidate, looser on
# these cases, whose coordinates stay below 9.)


def _enum_project(P, u):
    u = np.asarray(u, dtype=float)
    scales = np.concatenate([P.g_scales, P.e_scales])
    scales[scales <= RANK_TOL] = 1.0
    rhs = np.concatenate([P.h, P.d]) / scales
    tol = FEAS_TOL * (1.0 + max(np.abs(u).max(initial=0.0), np.abs(rhs).max(initial=0.0)))
    best, best_d = None, math.inf
    for k in range(0, P.dim - _rank(P.E) + 1):
        for S in itertools.combinations(range(P.n_ineq), k):
            M = np.vstack([P.E, P.G[list(S)]])
            b = np.concatenate([P.d, P.h[list(S)]])
            y = u if M.shape[0] == 0 else u + M.T @ (np.linalg.pinv(M @ M.T) @ (b - M @ u))
            if not contains(P, y, tol):
                continue
            # two active sets that reach the same point up to rounding tie,
            # and the lexicographically least copy is kept; of distinct
            # points the nearer wins, however little nearer it is
            dist = float(np.linalg.norm(y - u))
            same = best is not None and np.abs(y - best).max() <= 1e-12 * (1.0 + np.abs(best).max())
            if (_lex_less(y, best) if same else dist < best_d):
                best, best_d = y, dist
    return best


@st.composite
def _projection_cases(draw):
    """An integer polyhedron from _integer_polyhedra, sometimes with a
    duplicated row and a redundant (shifted, scaled) copy of a row, and a
    point to project: integral, or a float of either sign."""
    P, _ = draw(_integer_polyhedra())
    G, h = P.G, P.h
    if P.n_ineq and draw(st.booleans()):
        i = draw(st.integers(0, P.n_ineq - 1))
        G, h = np.vstack([G, G[i], 2.0 * G[i]]), np.append(h, [h[i], 2.0 * h[i] + 1.0])
    P = Polyhedron.make(P.dim, G, h, P.E, P.d)
    coords = st.integers(-4, 4) if draw(st.booleans()) else st.floats(-5.0, 5.0, width=32)
    u = np.array(draw(st.lists(coords, min_size=P.dim, max_size=P.dim)), dtype=float)
    return P, u


@given(_projection_cases())
# the box [-1, 1]^3 on the plane y2 = 1: the inconsistent active set
# {y3 <= 1, -y3 <= 1} gives the least-squares point (0, 1, ~0), feasible and
# only 3e-13 farther from u than the projection (0, 1, 7.85e-7)
@example((intersect(Polyhedron.make(3, E=[[0.0, 1.0, 0.0]], d=[1.0]), box(3, 1.0)), np.array([0.0, 0.0, 7.85e-7])))
# the quadrant {y1 <= 0, y2 >= 0}: NNLS must take the pass that lets the
# barely violated row y1 <= 0 enter, whose gain lies below rounding
@example((Polyhedron.make(2, G=[[1.0, 0.0], [0.0, -1.0]], h=[0.0, 0.0]), np.array([1e-8, -1.0])))
# {0 y <= 0, y <= 0}: u violates y <= 0 by 1e-8, more than project's
# containment test allows, so both answers are 0
@example((Polyhedron.make(1, G=[[0.0], [1.0]], h=[0.0, 0.0]), np.array([9.99999994e-09])))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_projection_matches_active_set_enumeration(case):
    P, u = case
    ref, got = _enum_project(P, u), project(P, u)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert np.max(np.abs(got - ref)) <= 1e-9 * (1.0 + np.abs(ref).max())
    assert is_empty(P) == (min_norm_point(P) is None)


def test_a_barely_violated_row_enters_the_projection():
    """The quadrant {y1 <= 0, y2 >= 0} and u = (1e-8, -1): the pass of NNLS
    that lets y1 <= 0 enter lowers |r|^2 = 0.5 by about 1e-17, below its
    rounding.  A tie keeps the pass, and the projection is (0, 0); a stop
    at the tie found no feasible candidate and reported the quadrant
    empty."""
    P = Polyhedron.make(2, G=[[1.0, 0.0], [0.0, -1.0]], h=[0.0, 0.0])
    y = project(P, [1e-8, -1.0])
    assert y is not None and np.abs(y).max() <= 1e-15


def test_projection_far_out_onto_the_apex():
    """Points of the polar cone project onto the apex, however far out.  The
    enumeration's containment test scaled with the candidate (here 0), not
    with u, so at 1e14 it found no projection for half of these points."""
    G = np.eye(6) + np.eye(6, k=-1)
    K = Polyhedron.make(6, G=G, h=np.zeros(6))
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = 1e14 * (G.T @ rng.random(6))
        p = project(K, u)
        assert p is not None and np.abs(p).max() <= 1e-9 * np.abs(u).max()


# -- seeded draws ---------------------------------------------------------------------------


def _block_unit_rows(rng, count, dim):
    raw = rng.standard_normal((count, dim))
    return raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)


@pytest.mark.parametrize("dim", range(1, 9))
def test_seeded_draws_follow_the_block_rule(dim):
    """unit_rows draws one (k, dim) block of standard normals and divides
    each row by its axis norm; ball_steps takes such a block of unit rows,
    then one block of uniforms u, and scales row i to radius * u[i]**power.
    Bit for bit, and leaving the generator where those two draws leave it."""
    for seed, count, radius in itertools.product((0, 3, 2 ** 16 + 7), (0, 1, 2, 300), (0.0, 0.25)):
        for power in (1.0, 1.0 / dim, 0.5):
            rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _block_unit_rows(rng_ref, count, dim) * (radius * rng_ref.random(count) ** power)[:, None]
            assert _same_bits(ball_steps(rng, count, dim, radius, power), want)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _same_bits(unit_rows(rng, count, dim), _block_unit_rows(rng_ref, count, dim))
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_seeded_draws_are_the_only_hand_normalized_draws():
    """No library module but numkit.sampling draws standard normals and
    normalizes them by hand."""
    lib = Path(__file__).resolve().parent.parent / "src" / "epidiff"
    drawers = {p.relative_to(lib).as_posix() for p in lib.rglob("*.py") if "standard_normal" in p.read_text()}
    assert drawers == {"numkit/sampling.py"}
