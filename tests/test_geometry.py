from __future__ import annotations

import gc
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vefrac.benchmarks import growth_strip, rect_grid_mesh, square_grid_mesh, unit_square_mesh
from vefrac.geometry import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    CrackSet,
    MeshError,
    _check_hanging_nodes,
    _diameter,
    build_mesh,
    connected_components,
    dist_points_to_segments,
    h1_diff,
    h1_measure,
    hausdorff,
    parse_mesh_text,
    read_mesh,
    write_mesh,
)

import _oracles as oracle
from vefrac import elastic, geometry


# ---------------------------------------------------------------------------
# build_mesh
# ---------------------------------------------------------------------------

def test_unit_square_edge_count_and_diameter(square2):
    assert square2.n_edges == 5
    assert square2.domain_diameter == math.sqrt(2.0)
    # sorted endpoint pairs, lexicographic
    assert [tuple(e) for e in square2.edges] == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    assert square2.edge_tags[1] == INTERIOR  # the diagonal
    assert all(square2.edge_tags[i] == DIRICHLET for i in (0, 2, 3, 4))


def test_collinear_diameter_is_measured_between_the_two_ends():
    # Collinear points have no 2-d hull: qhull refuses them, the
    # monotone chain keeps the two ends.
    from scipy.spatial import ConvexHull, QhullError

    s = np.linspace(0.0, 3.0, 20)
    pts = np.column_stack([s, 0.5 * s])
    with pytest.raises(QhullError):
        ConvexHull(pts)
    assert _diameter(pts) == math.hypot(3.0, 1.5)


def test_diameter_matches_qhull_hull():
    meshes = [growth_strip()[0], square_grid_mesh(4, dirichlet="topbottom"),
              square_grid_mesh(48, dirichlet="topbottom")]
    clouds = [m.vertices for m in meshes]
    rng = np.random.default_rng(2)
    for n in (3, 16, 17, 40, 500):
        clouds.append(rng.normal(size=(n, 2)) * rng.uniform(0.1, 100.0, 2))
        clouds.append(rng.uniform(-1.0, 1.0, (n, 2)))
        clouds.append(rng.integers(-4, 5, (n, 2)).astype(float))  # repeats, ties
    for n in (17, 30, 200):
        s = np.sort(rng.uniform(-3.0, 3.0, n))
        slope = rng.uniform(-2.0, 2.0)
        clouds.extend([np.column_stack([s, slope * s]),
                       np.column_stack([np.zeros(n), s]),
                       np.column_stack([s, np.full(n, 0.5)])])
    for pts in clouds:
        assert _diameter(pts) == oracle.qhull_diameter(pts)


def test_domain_diameter_is_measured_on_the_boundary():
    # build_mesh measures the diameter over the ends of the boundary
    # edges, which hold every corner of the vertices' hull: on a mesh
    # whose every vertex is on the boundary, on two triangles meeting at
    # one vertex, and on the graded fan beside a refined grid
    every = lambda pa, pb: True  # noqa: E731
    pinched = build_mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 0.0), (-1.0, -1.0)],
                         [(0, 1, 2), (0, 3, 4)], every)
    grid = square_grid_mesh(6)
    right = np.flatnonzero(grid.vertices[:, 0] == 1.0)
    right = right[np.argsort(grid.vertices[right, 1])]
    far = np.full(right.size - 1, grid.n_vertices)
    fan = build_mesh(_graded_fan(6)[0],
                     np.concatenate([grid.triangles,
                                     np.column_stack([right[:-1], far, right[1:]])]),
                     every)
    for mesh in (rect_grid_mesh(40, 1), pinched, fan):
        assert mesh.domain_diameter == oracle.qhull_diameter(mesh.vertices)


def _hanging_outcome(check, *args):
    try:
        check(*args)
    except MeshError as exc:
        return str(exc)
    return None


def test_hanging_node_check_matches_dense_scan():
    rng = np.random.default_rng(4)
    for trial in range(150):
        n = int(rng.integers(2, 12))
        mesh = square_grid_mesh(n)
        edges = mesh.edges
        # a jittered grid, so that edges sit anywhere on the bucket grid
        base = mesh.vertices + rng.uniform(-0.2, 0.2, mesh.vertices.shape) / n
        lengths = np.linalg.norm(base[edges[:, 1]] - base[edges[:, 0]], axis=1)
        planted = [base]
        for _ in range(int(rng.integers(0, 4))):
            # the longest edges reach furthest across the bucket grid
            e = int(rng.choice([rng.integers(0, mesh.n_edges), np.argmax(lengths)]))
            a, b = base[edges[e]][::rng.choice([1, -1])]
            where = rng.choice([rng.uniform(0.0, 1.0), 0.99, 1.5, -0.25])  # on, on, beyond, before
            offset = rng.choice([0.0, 0.0, 3e-13, 1e-9]) * np.array([1.0, -1.0])
            planted.append((a + where * (b - a) + offset)[None, :])
        vertices = np.concatenate(planted)
        order = rng.permutation(len(vertices))
        vertices = vertices[order]
        inverse = np.argsort(order)
        moved = inverse[edges]
        moved.sort(axis=1)
        vertex_edges = [[] for _ in range(len(vertices))]
        for i, (va, vb) in enumerate(moved.tolist()):
            vertex_edges[va].append(i)
            vertex_edges[vb].append(i)
        want = _hanging_outcome(oracle.dense_hanging_node_check,
                                vertices, moved, vertex_edges, lengths)
        got = _hanging_outcome(_check_hanging_nodes, vertices, moved, lengths)
        assert got == want


def _graded_fan(n, planted=()):
    """A refined n x n grid on the unit square beside one far vertex joined
    to every vertex of the grid's right side: the fan's long edges make the
    bucket cells as wide as the whole grid. Planted points are appended as
    extra vertices."""
    mesh = square_grid_mesh(n)
    far = len(mesh.vertices)
    right = np.flatnonzero(mesh.vertices[:, 0] == 1.0)
    vertices = np.concatenate([mesh.vertices, [[3.0, 0.5]], np.reshape(planted, (-1, 2))])
    edges = np.concatenate([mesh.edges, np.column_stack([right, np.full(right.size, far)])])
    vertex_edges = [[] for _ in range(len(vertices))]
    for i, (va, vb) in enumerate(edges.tolist()):
        vertex_edges[va].append(i)
        vertex_edges[vb].append(i)
    lengths = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    return vertices, edges, vertex_edges, lengths


@pytest.mark.parametrize("block", [7, 1 << 13, 1 << 16])
def test_hanging_node_check_on_a_graded_mesh(monkeypatch, block):
    monkeypatch.setattr(geometry, "_HANGING_BLOCK", block)
    # on a long fan edge, on grid edges, and off every edge
    plants = [(), [(2.0, 0.75)], [(0.25, 0.0), (2.0, 0.75)], [(0.25, 0.5), (0.25, 0.0)],
              [(2.5, 0.9)]]
    for planted in plants:
        vertices, edges, vertex_edges, lengths = _graded_fan(6, planted)
        want = _hanging_outcome(oracle.dense_hanging_node_check,
                                vertices, edges, vertex_edges, lengths)
        got = _hanging_outcome(_check_hanging_nodes, vertices, edges, lengths)
        assert got == want
    assert got is None


def test_hanging_node_check_keeps_cell_keys_inside_int64():
    # unit edges beside two vertices 3e10 away: cells as wide as the
    # median edge would number about 6e10 per side, and their keys
    # column * stride + row would wrap past int64 and lose the grid
    # vertices that lie on the long diagonal edge from the origin
    grid = square_grid_mesh(20)
    for far in (3e4, 3e10, 2e11):
        vertices = np.concatenate([grid.vertices * 20.0, [[far, far], [-far, far]]])
        nv = len(grid.vertices)
        edges = np.concatenate([grid.edges, [[0, nv], [nv, nv + 1]]])
        vertex_edges, lengths = _edges_of(vertices, edges)
        want = _hanging_outcome(oracle.dense_hanging_node_check,
                                vertices, edges, vertex_edges, lengths)
        assert want == f"vertex 22 lies on edge (0, {nv}): non-conforming mesh"
        assert _hanging_outcome(_check_hanging_nodes, vertices, edges, lengths) == want


def test_hanging_node_check_memory_is_bounded_on_a_graded_mesh():
    # nearly every (vertex, edge) pair is a candidate here: about 1.1e6
    # of them, which measured at once would allocate over 100 MB
    vertices, edges, _, lengths = _graded_fan(24)
    tracemalloc.start()
    try:
        _check_hanging_nodes(vertices, edges, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_hanging_node_check_scales_with_the_graded_mesh(monkeypatch):
    # cells as wide as a typical edge: the candidate pairs grow with the
    # edges, not with vertices times edges (17 million on the 48 fan when
    # the cells were as wide as the longest edge)
    measured = []
    first_on_edge = geometry._first_on_edge

    def counted(*args):
        measured.append(int(args[-1].sum()))
        return first_on_edge(*args)

    monkeypatch.setattr(geometry, "_first_on_edge", counted)
    for n in (12, 24, 48):
        measured.clear()
        vertices, edges, _, lengths = _graded_fan(n)
        _check_hanging_nodes(vertices, edges, lengths)
        assert sum(measured) < 16 * len(edges)


def _edges_of(vertices, edges):
    vertex_edges = [[] for _ in range(len(vertices))]
    for i, (va, vb) in enumerate(edges.tolist()):
        vertex_edges[va].append(i)
        vertex_edges[vb].append(i)
    lengths = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    return vertex_edges, lengths


@pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e6, 1.0), (-3e3, 1e3), (0.5, 1e-9)],
                         ids=["unit", "far", "large", "tiny"])
def test_hanging_node_check_at_the_tolerance(offset, scale):
    # points planted at distances 0, tol (1 - 1e-6), tol, tol (1 + 1e-6) and
    # 2 tol from an edge, and 1, 4 and 64 spacings of the largest coordinate:
    # beside its midpoint and beyond an end. Far from the origin the
    # distance test's rounding exceeds tol, and the cells are padded for
    # it; near it the planted distances are exact.
    mesh = square_grid_mesh(4)
    base = mesh.vertices * scale + offset
    edges = mesh.edges
    _, lengths = _edges_of(base, edges)
    tol = 1e-12 * max(1.0, float(lengths.max()))
    spacing = float(np.spacing(np.abs(base).max()))
    outcomes = set()
    for e in (0, 1, 5, int(np.argmax(lengths))):
        a, b = base[edges[e]]
        along = (b - a) / np.linalg.norm(b - a)
        normal = np.array([-along[1], along[0]])
        for d in (0.0, tol * (1 - 1e-6), tol, tol * (1 + 1e-6), 2 * tol, spacing,
                  4 * spacing, 64 * spacing):
            for point in (0.5 * (a + b) + d * normal, b + d * along):
                vertices = np.concatenate([base, [point]])
                vertex_edges, _ = _edges_of(vertices, edges)
                want = _hanging_outcome(oracle.dense_hanging_node_check,
                                        vertices, edges, vertex_edges, lengths)
                got = _hanging_outcome(_check_hanging_nodes, vertices, edges, lengths)
                assert got == want, (e, d, point)
                outcomes.add(want is None)
    assert outcomes == {True, False}
    # on the axis-parallel edge (0, 1) from the origin the distances are exact
    if offset == 0.0:
        on, off = np.array([[0.5 * base[1, 0], tol]]), np.array([[0.5 * base[1, 0], tol * (1 + 1e-6)]])
        assert _hanging_outcome(_check_hanging_nodes, np.concatenate([base, on]), edges,
                                lengths) == f"vertex {len(base)} lies on edge (0, 1): non-conforming mesh"
        assert _hanging_outcome(_check_hanging_nodes, np.concatenate([base, off]), edges,
                                lengths) is None


@pytest.mark.parametrize("n", [3, 5, 8])
def test_hanging_node_check_on_cell_lines(n):
    # The cells are as wide as the median edge, the grid spacing here, and
    # start half a width before the lowest vertex. Edge midpoints sit on
    # the cell lines of that origin (x of a horizontal edge's midpoint) and
    # on those of an origin a whole width before it (y of the same
    # midpoint), and so do the grid vertices; a point a quarter width off
    # a midpoint lies on no edge.
    mesh = square_grid_mesh(n)
    edges = mesh.edges
    _, lengths = _edges_of(mesh.vertices, edges)
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    rng = np.random.default_rng(n)
    for e in rng.choice(len(edges), size=8, replace=False).tolist():
        for planted in (mids[e], mids[e] + [0.25 / n, 0.0], mids[e] + [0.0, 0.25 / n]):
            vertices = np.concatenate([mesh.vertices, [planted]])
            vertex_edges, _ = _edges_of(vertices, edges)
            want = _hanging_outcome(oracle.dense_hanging_node_check,
                                    vertices, edges, vertex_edges, lengths)
            got = _hanging_outcome(_check_hanging_nodes, vertices, edges, lengths)
            assert got == want
    # every midpoint at once: the lowest planted vertex on its edge
    vertices = np.concatenate([mesh.vertices, mids])
    vertex_edges, _ = _edges_of(vertices, edges)
    want = _hanging_outcome(oracle.dense_hanging_node_check, vertices, edges, vertex_edges, lengths)
    assert _hanging_outcome(_check_hanging_nodes, vertices, edges, lengths) == want
    assert want == f"vertex {mesh.n_vertices} lies on edge {tuple(edges[0].tolist())}: " \
        "non-conforming mesh"


def test_hanging_node_check_pads_boxes_that_end_on_a_cell_line():
    # A unit lattice has cells one wide with lines at half-integers. An
    # extra edge on the line x = 1.5 (or y = 1.5) has a box of zero width
    # there; a point just across the line, within tol of the edge, lies
    # in a cell that only the padded box meets.
    lattice = square_grid_mesh(3)
    base, edges = lattice.vertices * 3.0, lattice.edges
    for p, q, across in [((1.5, 0.1), (1.5, 0.4), (-1.0, 0.0)), ((0.1, 1.5), (0.4, 1.5), (0.0, -1.0)),
                         ((1.5, 0.1), (1.5, 0.4), (1.0, 0.0))]:
        nv = len(base)
        extra = np.concatenate([edges, [[nv, nv + 1]]])
        _, lengths = _edges_of(np.concatenate([base, [p, q]]), extra)
        tol = 1e-12 * max(1.0, float(lengths.max()))
        for d in (0.0, 0.5 * tol, tol * (1 - 1e-6), 2 * tol):
            planted = 0.5 * (np.array(p) + np.array(q)) + d * np.array(across)
            vertices = np.concatenate([base, [p, q, planted]])
            vertex_edges, _ = _edges_of(vertices, extra)
            want = _hanging_outcome(oracle.dense_hanging_node_check,
                                    vertices, extra, vertex_edges, lengths)
            assert _hanging_outcome(_check_hanging_nodes, vertices, extra, lengths) == want
            assert want == (None if d > tol else
                            f"vertex {nv + 2} lies on edge ({nv}, {nv + 1}): non-conforming mesh")


def test_hanging_node_check_of_the_fine_mesh_takes_few_candidates(monkeypatch, tmp_path,
                                                                  bench_workloads):
    # the fine grid's vertices sit mid-cell and its boxes are padded by
    # little more than tol, so a horizontal or vertical edge meets the two
    # cells of its ends and a diagonal four, 2.66 candidates per edge; only
    # a diagonal's cells hold more than its ends, and its 4 candidates,
    # 1.32 per edge, are measured
    bench_workloads.generate("fine", tmp_path, 1)
    mesh = read_mesh(tmp_path / "fine.mesh")
    measured = []
    first_on_edge = geometry._first_on_edge

    def counted(*args):
        measured.append(int(args[-1].sum()))
        return first_on_edge(*args)

    monkeypatch.setattr(geometry, "_first_on_edge", counted)
    _check_hanging_nodes(mesh.vertices, mesh.edges, mesh.edge_lengths)
    assert sum(measured) <= 1.5 * mesh.n_edges


def test_hanging_node_message_names_first_vertex_and_edge():
    # two T-junctions; both checks report the lowest vertex and its edge
    vertices = [(0, 0), (2, 0), (0, 2), (1, 0), (1, -1), (0, 1), (-1, 1)]
    triangles = [(0, 1, 2), (3, 4, 1), (6, 5, 2)]
    with pytest.raises(MeshError) as exc:
        build_mesh(vertices, triangles, lambda pa, pb: True)
    verts = np.array(vertices, dtype=float)
    pairs = sorted({tuple(sorted((t[i], t[(i + 1) % 3]))) for t in triangles for i in range(3)})
    edges = np.array(pairs)
    vertex_edges = [[i for i, p in enumerate(pairs) if v in p] for v in range(len(verts))]
    lengths = np.linalg.norm(verts[edges[:, 1]] - verts[edges[:, 0]], axis=1)
    assert str(exc.value) == _hanging_outcome(oracle.dense_hanging_node_check,
                                              verts, edges, vertex_edges, lengths)
    assert str(exc.value) == "vertex 3 lies on edge (0, 1): non-conforming mesh"


def test_empty_dirichlet_rejected():
    with pytest.raises(MeshError, match="empty Dirichlet"):
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], lambda pa, pb: False)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_grid_edge_count_formula(n):
    mesh = square_grid_mesh(n)
    assert mesh.n_edges == 3 * n * n + 2 * n
    # independent enumeration oracle
    naive = set()
    for t in mesh.triangles:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            naive.add(tuple(sorted((int(t[i]), int(t[j])))))
    assert mesh.n_edges == len(naive)
    assert set(map(tuple, mesh.edges)) == naive


def test_rect9_has_nine_edges(rect9):
    assert rect9.n_edges == 9


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError, match="non-positive area"):
        build_mesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)], lambda pa, pb: True)
    # mis-oriented triangle is rejected too
    with pytest.raises(MeshError, match="non-positive area"):
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)], lambda pa, pb: True)


def test_repeated_vertex_rejected():
    with pytest.raises(MeshError) as exc:
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)], lambda pa, pb: True)
    assert str(exc.value) == "triangle (0, 1, 1) repeats a vertex"


@pytest.mark.parametrize("twin", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
def test_signed_zero_duplicates_rejected(twin):
    # -0.0 == 0.0, so a signed-zero twin of the origin is the same point
    with pytest.raises(MeshError) as exc:
        build_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), twin],
                   [(0, 1, 2), (3, 1, 2)], lambda pa, pb: True)
    assert str(exc.value) == "duplicate vertex coordinates"


def test_duplicate_vertex_check_matches_unique_rows():
    # the check sorts rows lexicographically and compares neighbours; it
    # must find a duplicate exactly when np.unique over the rows would,
    # signed zeros included, with the same message. Triangle (0, 0, 0)
    # fails the next check, so every vertex set reaches a MeshError
    rng = np.random.default_rng(23)
    every = lambda pa, pb: True  # noqa: E731
    for _ in range(300):
        n = int(rng.integers(3, 10))
        verts = rng.integers(-2, 3, (n, 2)).astype(float)
        verts[rng.random((n, 2)) < 0.5] *= -1.0
        duplicate = len(np.unique(verts + 0.0, axis=0)) != n
        with pytest.raises(MeshError) as exc:
            build_mesh(verts, [(0, 0, 0)], every)
        assert str(exc.value) == ("duplicate vertex coordinates" if duplicate
                                  else "triangle (0, 0, 0) repeats a vertex")
    # points one ulp apart are distinct
    with pytest.raises(MeshError) as exc:
        build_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (np.nextafter(0.0, 1.0), -0.0)],
                   [(0, 0, 0)], every)
    assert str(exc.value) == "triangle (0, 0, 0) repeats a vertex"


def test_unreferenced_vertex_rejected():
    with pytest.raises(MeshError, match="not referenced"):
        build_mesh([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)], lambda pa, pb: True)


def test_overshared_edge_rejected():
    vertices = [(0, 0), (1, 0), (0, 1), (0, -1), (0.5, 2)]
    triangles = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
    with pytest.raises(MeshError, match="non-conforming"):
        build_mesh(vertices, triangles, lambda pa, pb: True)


def test_hanging_node_rejected():
    vertices = [(0, 0), (2, 0), (0, 2), (1, 0), (1, -1)]
    triangles = [(0, 1, 2), (3, 4, 1)]
    with pytest.raises(MeshError, match="non-conforming"):
        build_mesh(vertices, triangles, lambda pa, pb: True)


def test_explicit_pair_marker():
    mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)],
                      [(0, 1, 2), (0, 2, 3)], [(0, 1)])
    assert list(mesh.dirichlet_edges()) == [0]
    assert mesh.edge_tags[4] == NEUMANN


def test_explicit_pair_must_be_boundary_edge():
    with pytest.raises(MeshError, match="not a boundary edge"):
        build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)],
                   [(0, 1, 2), (0, 2, 3)], [(0, 2)])
    with pytest.raises(MeshError, match="not a mesh edge"):
        build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)],
                   [(0, 1, 2), (0, 2, 3)], [(1, 3)])


def test_bbox_marker_selects_bottom_row():
    mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)],
                      [(0, 1, 2), (0, 2, 3)],
                      ("bbox", -0.1, -0.1, 1.1, 0.1))
    assert list(mesh.dirichlet_edges()) == [0]


def test_topbottom_grid_marker(grid4_tb):
    for e in grid4_tb.dirichlet_edges():
        ya = grid4_tb.vertices[grid4_tb.edges[e, 0], 1]
        yb = grid4_tb.vertices[grid4_tb.edges[e, 1], 1]
        assert ya == yb and ya in (0.0, 1.0)
    assert len(grid4_tb.dirichlet_edges()) == 8
    assert len(grid4_tb.boundary_edges()) == 16


def assert_topology_matches_reference(vertices, triangles, marker):
    """build_mesh agrees with the loop-based reference on every field it
    shares with it, and tri_edges names the edge of every side."""
    ref = oracle.reference_mesh_topology(vertices, triangles, marker)
    mesh = build_mesh(vertices, triangles, marker)
    for name in ("edges", "edge_lengths", "edge_tags", "triangle_areas"):
        got, want = getattr(mesh, name), ref[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert mesh.edge_index == ref["edge_index"]
    assert mesh.domain_diameter == ref["domain_diameter"]
    owners = [[] for _ in range(mesh.n_edges)]
    for t, sides in enumerate(mesh.tri_edges.tolist()):
        for e in sides:
            owners[e].append(t)
    assert tuple(map(tuple, owners)) == ref["edge_triangles"]
    tris = mesh.triangles
    sides = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=2), axis=2)
    assert np.array_equal(mesh.edges[mesh.tri_edges], sides)
    assert not mesh.tri_edges.flags.writeable
    return mesh


def _jittered_grid(rng, nx, ny):
    """A jittered grid with shuffled vertex numbering, triangle order and
    corner rotation, so that the edge enumeration is far from the
    insertion order."""
    mesh = rect_grid_mesh(nx, ny)
    h = min(1.0 / nx, 1.0 / ny)
    vertices = mesh.vertices + rng.uniform(-0.2, 0.2, mesh.vertices.shape) * h
    perm = rng.permutation(mesh.n_vertices)
    inverse = np.argsort(perm)
    triangles = inverse[mesh.triangles][rng.permutation(mesh.n_triangles)]
    shift = rng.integers(0, 3, len(triangles))
    triangles = np.array([np.roll(t, -k) for t, k in zip(triangles, shift)])
    return vertices[perm], triangles


def test_topology_matches_reference_on_the_bench_meshes():
    for mesh in (growth_strip()[0], square_grid_mesh(4, dirichlet="topbottom"),
                 square_grid_mesh(48, dirichlet="topbottom")):
        pairs = [tuple(p) for p in mesh.edges[mesh.dirichlet_edges()].tolist()]
        assert_topology_matches_reference(mesh.vertices, mesh.triangles, pairs)


def test_topology_matches_reference_on_jittered_grids():
    rng = np.random.default_rng(17)
    markers = [lambda pa, pb: True, ("bbox", -1.0, -1.0, 2.0, 0.1),
               lambda pa, pb: pa[0] + pb[0] < 0.7]
    for trial in range(24):
        vertices, triangles = _jittered_grid(rng, *rng.integers(1, 7, 2))
        assert_topology_matches_reference(vertices, triangles, markers[trial % 3])


def test_topology_matches_reference_on_holed_and_pinched_meshes():
    # a 3x3 grid without its middle cell, and two triangles meeting at a vertex
    full = square_grid_mesh(3)
    holed = [t for t in full.triangles.tolist() if 5 not in t or 10 not in t]
    mesh = assert_topology_matches_reference(full.vertices, holed, lambda pa, pb: True)
    assert mesh.n_edges == 32 and len(mesh.boundary_edges()) == 16
    mesh = assert_topology_matches_reference(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 0.0), (-1.0, -1.0)],
        [(0, 1, 2), (0, 3, 4)],
        lambda pa, pb: pa[1] == pb[1] == 0.0 and min(pa[0], pb[0]) >= 0)
    assert list(mesh.boundary_edges()) == list(range(6))


def test_invalid_meshes_fail_like_the_reference():
    every = lambda pa, pb: True  # noqa: E731
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    cases = [
        (square, [(0, 1, 1), (0, 2, 2)], every),                        # repeated vertex
        (square + [(5, 5)], [(0, 1, 2), (0, 2, 3)], every),             # unreferenced vertex
        ([(0, 0), (1, 0), (0, 1), (0, -1), (0.5, 2)],
         [(0, 1, 2), (0, 3, 1), (0, 1, 4)], every),                     # edge in 3 triangles
        ([(0, 0), (2, 0), (0, 2), (1, 0), (1, -1)],
         [(0, 1, 2), (3, 4, 1)], every),                                # hanging node
        (square, [(0, 1, 2), (0, 2, 3)], [(0, 2)]),                     # pair not on the boundary
        (square, [(0, 1, 2), (0, 2, 3)], [(1, 3)]),                     # pair not an edge
        (square, [(0, 1, 2), (0, 2, 3)], lambda pa, pb: False),         # empty Dirichlet set
        (square, [(0, 1, 2), (0, 3, 2)], every),                        # mis-oriented
        (square, [(0, 1, 4)], every),                                   # index out of range
    ]
    # several offenders of one kind: both report the first
    rng = np.random.default_rng(23)
    for _ in range(12):
        vertices, triangles = _jittered_grid(rng, 3, 3)
        for t in rng.choice(len(triangles), 3, replace=False):
            k = rng.integers(0, 3)
            triangles[t, (k + 1) % 3] = triangles[t, k]
        cases.append((vertices, triangles, every))
        vertices, triangles = _jittered_grid(rng, 3, 3)
        for v in sorted(rng.choice(len(vertices), 2, replace=False), reverse=True):
            triangles = np.where(triangles >= v, triangles + 1, triangles)
            vertices = np.insert(vertices, v, [10.0 + v, 10.0], axis=0)
        cases.append((vertices, triangles, every))
    for vertices, triangles, marker in cases:
        got = _hanging_outcome(build_mesh, vertices, triangles, marker)
        want = _hanging_outcome(oracle.reference_mesh_topology, vertices, triangles, marker)
        assert want is not None and got == want


def test_build_mesh_refuses_non_finite_coordinates():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(MeshError, match="vertex coordinates must be finite"):
            build_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, bad)], [(0, 1, 2)],
                       lambda pa, pb: True)


# ---------------------------------------------------------------------------
# CrackSet basics
# ---------------------------------------------------------------------------

def test_crackset_edge_validation(square2):
    with pytest.raises(MeshError):
        CrackSet.of_edges(square2, [7])
    with pytest.raises(MeshError):
        CrackSet(square2, 1 << 5)
    k = CrackSet.of_edges(square2, [0, 4])
    assert k.edge_ids == (0, 4)
    assert 0 in k and 1 not in k
    assert k.cardinality == 2


def test_crackset_of_vertex_pairs(square2):
    k = CrackSet.of_vertex_pairs(square2, [(1, 0), (2, 3)])
    assert k.edge_ids == (0, 4)
    with pytest.raises(MeshError, match="not a mesh edge"):
        CrackSet.of_vertex_pairs(square2, [(1, 3)])


def test_edge_ids_match_per_bit_oracle():
    mesh = square_grid_mesh(48)  # 7008 edges, as in the `fine` benchmark
    top = mesh.n_edges - 1
    rng = random.Random(41)
    masks = [0, 1, 1 << top, (1 << mesh.n_edges) - 1, 1 | (1 << top)]
    for _ in range(60):
        width = rng.randint(1, mesh.n_edges)
        dense = rng.getrandbits(width)
        sparse = 0
        for _ in range(rng.randint(1, 8)):
            sparse |= 1 << rng.randrange(width)
        masks += [dense, sparse, sparse | (1 << top)]
    for bits in masks:
        assert CrackSet(mesh, bits).edge_ids == oracle.edge_ids_per_bit(bits)


def test_cross_mesh_operations_rejected(square2, rect9):
    h = CrackSet.empty(square2)
    k = CrackSet.empty(rect9)
    with pytest.raises(MeshError, match="different meshes"):
        h1_diff(h, k)
    with pytest.raises(MeshError, match="different meshes"):
        hausdorff(h, k)


# ---------------------------------------------------------------------------
# h1 measures
# ---------------------------------------------------------------------------

def test_h1_measure_trivia(square2):
    assert h1_measure(CrackSet.empty(square2)) == 0.0
    half = build_mesh([(0, 0), (0.5, 0), (0.5, 0.5), (0, 0.5)],
                      [(0, 1, 2), (0, 2, 3)], lambda pa, pb: True)
    assert h1_measure(CrackSet.of_edges(half, [0])) == 0.5


def test_h1_measure_three_cell_edges(grid3):
    k = CrackSet.of_vertex_pairs(grid3, [(0, 1), (1, 5), (4, 5)])
    expected = oracle.sum_lengths(grid3, k.edge_ids)
    assert math.isclose(h1_measure(k), expected, rel_tol=1e-15)


def test_h1_diff_trivia(grid3):
    k = CrackSet.of_edges(grid3, [0, 3, 8])
    assert h1_diff(k, k) == 0.0
    assert h1_diff(CrackSet.empty(grid3), k) == h1_measure(k)


def test_h1_diff_random_pairs_match_set_oracle(grid3):
    rng = np.random.default_rng(7)
    for _ in range(50):
        h_ids = set(map(int, rng.choice(grid3.n_edges, size=6, replace=False)))
        k_ids = set(map(int, rng.choice(grid3.n_edges, size=9, replace=False)))
        h = CrackSet.of_edges(grid3, sorted(h_ids))
        k = CrackSet.of_edges(grid3, sorted(k_ids))
        expected = oracle.sum_lengths(grid3, k_ids - h_ids)
        assert math.isclose(h1_diff(h, k), expected, rel_tol=1e-14, abs_tol=1e-15)


@given(h_bits=st.integers(0, 2**9 - 1), k_bits=st.integers(0, 2**9 - 1))
@settings(max_examples=80, deadline=None)
def test_h1_symmetric_difference_identity(rect9, h_bits, k_bits):
    h = CrackSet(rect9, h_bits)
    k = CrackSet(rect9, k_bits)
    sym = CrackSet(rect9, h_bits ^ k_bits)
    assert math.isclose(h1_diff(h, k) + h1_diff(k, h), h1_measure(sym),
                        rel_tol=1e-14, abs_tol=1e-15)


@given(bits=st.tuples(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1),
                      st.integers(0, 2**9 - 1)))
@settings(max_examples=120, deadline=None)
def test_h1_diff_chain_additivity(rect9, bits):
    # equality up to summation order: the two sides add the same edge
    # lengths associated differently, so exact == can miss by an ulp
    h_bits, k_extra, l_extra = bits
    k_bits = h_bits | k_extra
    l_bits = k_bits | l_extra
    h, k, l = (CrackSet(rect9, b) for b in (h_bits, k_bits, l_bits))
    assert math.isclose(h1_diff(h, l), h1_diff(h, k) + h1_diff(k, l),
                        rel_tol=1e-13, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def test_components_trivia(square2):
    assert connected_components(CrackSet.empty(square2)) == []
    k = CrackSet.of_edges(square2, [0, 3])  # (0,1) and (1,2) share vertex 1
    comps = connected_components(k)
    assert len(comps) == 1
    assert comps[0].edge_ids == (0, 3)


def test_components_path_plus_far_edge(grid3):
    path = CrackSet.of_vertex_pairs(grid3, [(0, 1), (1, 2)])
    far = CrackSet.of_vertex_pairs(grid3, [(14, 15)])
    k = path.union(far)
    comps = connected_components(k)
    assert len(comps) == 2
    expected = oracle.bfs_components([tuple(map(int, grid3.edges[e]))
                                      for e in k.edge_ids])
    got = [[k.edge_ids[i] for i in grp] for grp in expected]
    assert sorted(tuple(c.edge_ids) for c in comps) == sorted(map(tuple, got))


@given(bits=st.integers(0, 2**9 - 1))
@settings(max_examples=100, deadline=None)
def test_components_partition_property(rect9, bits):
    k = CrackSet(rect9, bits)
    comps = connected_components(k)
    union = 0
    for c in comps:
        assert union & c.bits == 0  # disjoint
        union |= c.bits
    assert union == k.bits  # covers
    # each group matches the BFS oracle
    ids = k.edge_ids
    expected = oracle.bfs_components([tuple(map(int, rect9.edges[e])) for e in ids])
    exp_sets = sorted(tuple(ids[i] for i in grp) for grp in expected)
    assert sorted(c.edge_ids for c in comps) == exp_sets
    # deterministic ordering by smallest member edge
    mins = [min(c.edge_ids) for c in comps]
    assert mins == sorted(mins)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_dist_point_on_edge_is_zero(square2):
    k = CrackSet.of_edges(square2, [0])  # segment (0,0)-(1,0)
    a, b = square2.segment_endpoints(k.edge_ids)
    on = np.array([(0.25, 0.0), (0.0, 0.0), (1.0, 0.0)])
    assert dist_points_to_segments(on, a, b).tolist() == [[0.0], [0.0], [0.0]]


def test_dist_point_analytic(square2):
    # above the segment, then past either end: the nearest point is an
    # endpoint there
    k = CrackSet.of_edges(square2, [0])  # segment (0,0)-(1,0)
    a, b = square2.segment_endpoints(k.edge_ids)
    points = np.array([(0.0, 1.0), (2.0, 0.0), (-3.0, 4.0), (4.0, -4.0)])
    assert dist_points_to_segments(points, a, b).tolist() == [[1.0], [1.0], [5.0], [5.0]]


def test_dist_matches_naive_oracle(grid3):
    rng = np.random.default_rng(3)
    k = CrackSet.of_edges(grid3, [1, 7, 20])
    a, b = grid3.segment_endpoints(k.edge_ids)
    for _ in range(25):
        p = rng.uniform(-0.5, 1.5, size=2)
        expected = min(oracle.point_segment_distance(
            p, grid3.vertices[int(grid3.edges[e][0])],
            grid3.vertices[int(grid3.edges[e][1])]) for e in k.edge_ids)
        got = float(dist_points_to_segments(p[None, :], a, b).min())
        assert math.isclose(got, expected, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def test_hausdorff_identical_sets(grid3):
    k = CrackSet.of_edges(grid3, [0, 5, 9])
    assert hausdorff(k, k) == 0.0


def test_hausdorff_empty_conventions(square2):
    empty = CrackSet.empty(square2)
    k = CrackSet.of_edges(square2, [0])
    assert hausdorff(empty, empty) == 0.0
    assert hausdorff(empty, k) == square2.domain_diameter
    assert hausdorff(k, empty) == square2.domain_diameter


def test_hausdorff_refuses_a_resolution_that_is_not_positive_and_finite(grid3):
    # 0 raised ZeroDivisionError and nan failed to convert; -1 and inf sampled
    # only each edge's endpoints
    h = CrackSet.of_edges(grid3, [0])
    k = CrackSet.of_edges(grid3, [0, 5, 9])
    for resolution in (0.0, -1.0, math.nan, math.inf, -math.inf):
        for a, b in ((h, k), (k, k)):
            with pytest.raises(ValueError, match=(
                    "hausdorff resolution must be positive and finite, got "
                    + re.escape(repr(resolution)))):
                hausdorff(a, b, resolution)
    assert hausdorff(h, k, 0.05) > 0.0


def test_hausdorff_parallel_offset_segments():
    mesh = build_mesh([(0, 0), (1, 0), (1, 0.3), (0, 0.3)],
                      [(0, 1, 2), (0, 2, 3)], lambda pa, pb: True)
    bottom = CrackSet.of_vertex_pairs(mesh, [(0, 1)])
    top = CrackSet.of_vertex_pairs(mesh, [(2, 3)])
    eps = mesh.hausdorff_resolution
    assert abs(hausdorff(bottom, top) - 0.3) <= eps


def test_hausdorff_against_dense_oracle(rect9):
    rng = np.random.default_rng(11)
    eps = rect9.hausdorff_resolution
    for _ in range(10):
        h_bits = int(rng.integers(1, 2**9))
        k_bits = int(rng.integers(1, 2**9))
        h, k = CrackSet(rect9, h_bits), CrackSet(rect9, k_bits)
        dense = oracle.dense_hausdorff(rect9, h.edge_ids, k.edge_ids, n_per_edge=257)
        assert abs(hausdorff(h, k) - dense) <= eps


@given(h_bits=st.integers(0, 2**9 - 1), k_bits=st.integers(0, 2**9 - 1),
       l_bits=st.integers(0, 2**9 - 1))
@settings(max_examples=60, deadline=None)
def test_hausdorff_metric_properties(rect9, h_bits, k_bits, l_bits):
    h, k, l = (CrackSet(rect9, b) for b in (h_bits, k_bits, l_bits))
    eps = rect9.hausdorff_resolution
    dhk = hausdorff(h, k)
    assert dhk >= 0.0
    assert dhk == hausdorff(k, h)
    if h_bits == k_bits:
        assert dhk == 0.0
    else:
        assert dhk > 0.0
    assert dhk <= hausdorff(h, l) + hausdorff(l, k) + 2 * eps


# ---------------------------------------------------------------------------
# mesh file format
# ---------------------------------------------------------------------------

def test_mesh_file_round_trip(tmp_path, grid3):
    path = tmp_path / "grid3.mesh"
    write_mesh(grid3, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, grid3.vertices)
    assert np.array_equal(back.triangles, grid3.triangles)
    assert np.array_equal(back.edges, grid3.edges)
    assert np.array_equal(back.edge_tags, grid3.edge_tags)
    assert back.domain_diameter == grid3.domain_diameter


def test_mesh_file_bit_exact_floats(tmp_path):
    mesh = build_mesh([(0.1, 0.0), (1.0 + 1e-16, 0.0), (0.30000000000000004, 0.7)],
                      [(0, 1, 2)], lambda pa, pb: True)
    path = tmp_path / "tiny.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)


def test_mesh_file_bbox_selector():
    text = "\n".join([
        "ve-mesh 1",
        "# a comment",
        "v 0.0 0.0", "v 1.0 0.0", "v 1.0 1.0", "v 0.0 1.0",
        "t 0 1 2", "t 0 2 3",
        "dirichlet bbox -0.5 -0.5 1.5 0.25",
    ])
    mesh = parse_mesh_text(text)
    assert list(mesh.dirichlet_edges()) == [0]


SQUARE_TEXT = "\n".join([
    "ve-mesh 1",
    "v 0.0 0.0", "v 1.0 0.0", "v 1.0 1.0", "v 0.0 1.0",
    "t 0 1 2", "t 0 2 3", ""])


def test_mesh_file_pairs_are_checked_beside_a_bbox():
    bottom = "dirichlet bbox -1 -1 2 0.1\n"
    for pairs, message in (("0 9", "not a mesh edge"),
                           ("0 2", "not a boundary edge")):
        with pytest.raises(MeshError, match=f"dirichlet pair .* {message}"):
            parse_mesh_text(SQUARE_TEXT + f"dirichlet pairs {pairs}\n")
        with pytest.raises(MeshError, match=f"dirichlet pair .* {message}"):
            parse_mesh_text(SQUARE_TEXT + bottom + f"dirichlet pairs {pairs}\n")


def test_mesh_file_bbox_and_pairs_select_their_union():
    mesh = parse_mesh_text(SQUARE_TEXT + "dirichlet bbox -1 -1 2 0.1\n"
                           "dirichlet pairs 3 2\n")
    assert [tuple(mesh.edges[e].tolist()) for e in mesh.dirichlet_edges()] == \
        [(0, 1), (2, 3)]
    assert mesh.edge_tags[mesh.edge_index[(0, 3)]] == NEUMANN


@pytest.mark.parametrize("line", [
    "dirichlet bbox nan 0 1 1", "dirichlet bbox -1 -1 2 NaN", "dirichlet bbox 0 -nan 1 1",
], ids=["xmin", "ymax", "negative-ymin"])
def test_mesh_file_refuses_a_nan_bbox_bound(line):
    # a NaN bound selects nothing; beside a pairs line it would vanish
    text = SQUARE_TEXT + line + "\ndirichlet pairs 0 1\n"
    for parse in (parse_mesh_text, oracle.reference_parse_mesh_text):
        with pytest.raises(MeshError) as caught:
            parse(text)
        assert str(caught.value) == f"NaN bound in dirichlet bbox line: {line!r}"
    # an earlier malformed line is still named first
    with pytest.raises(MeshError, match="^malformed vertex line: 'v 1.0 x'$"):
        parse_mesh_text(SQUARE_TEXT.replace("v 1.0 1.0", "v 1.0 x") + line + "\n")


def test_mesh_file_infinite_bbox_selects_every_boundary_edge():
    mesh = parse_mesh_text(SQUARE_TEXT + "dirichlet bbox -inf -inf inf inf\n")
    assert list(mesh.dirichlet_edges()) == list(mesh.boundary_edges())
    assert_same_parsed_mesh(mesh, oracle.reference_parse_mesh_text(
        SQUARE_TEXT + "dirichlet bbox -inf -inf inf inf\n"))


def test_mesh_file_bad_header():
    with pytest.raises(MeshError, match="unsupported mesh format"):
        parse_mesh_text("ve-mesh 2\nv 0 0\n")


def test_mesh_file_malformed_lines():
    head = "ve-mesh 1\nv 0.0 0.0\nv 1.0 0.0\nv 0.0 1.0\nt 0 1 2\n"
    with pytest.raises(MeshError, match="pairs"):
        parse_mesh_text(head + "dirichlet pairs 0\n")
    with pytest.raises(MeshError, match="directive"):
        parse_mesh_text(head + "q 1 2\n")
    with pytest.raises(MeshError, match="no dirichlet"):
        parse_mesh_text(head)


@pytest.mark.parametrize("line, message", [
    ("v 1.0 x", "malformed vertex line: 'v 1.0 x'"),
    ("t 0 1 2.0", "malformed triangle line: 't 0 1 2.0'"),
    ("dirichlet pairs 0 x", "malformed dirichlet pairs line: 'dirichlet pairs 0 x'"),
    ("dirichlet bbox 0 0 1 y", "malformed dirichlet bbox line: 'dirichlet bbox 0 0 1 y'"),
], ids=["vertex", "triangle", "pairs", "bbox"])
def test_mesh_file_malformed_numbers_name_their_line(line, message):
    # the line-by-line reference raises a bare ValueError that names no line
    text = SQUARE_TEXT + line + "\ndirichlet pairs 0 1\n"
    with pytest.raises(ValueError) as bare:
        oracle.reference_parse_mesh_text(text)
    assert not isinstance(bare.value, MeshError)
    with pytest.raises(MeshError) as caught:
        parse_mesh_text(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("line", [
    "t 0 1 99999999999999999999", "t 0 -99999999999999999999 2",
    "t 0 1 9223372036854775808", "t 0 1 -9223372036854775809",
], ids=["huge", "huge-negative", "int64-max-plus-1", "int64-min-minus-1"])
def test_mesh_file_index_past_int64_names_its_line(line):
    text = SQUARE_TEXT + line + "\ndirichlet pairs 0 1\n"
    with pytest.raises(MeshError) as caught:
        parse_mesh_text(text)
    assert str(caught.value) == f"vertex index out of range in triangle line: {line!r}"
    # an earlier malformed line is still named first
    with pytest.raises(MeshError, match="^malformed vertex line: 'v 1.0 x'$"):
        parse_mesh_text(SQUARE_TEXT.replace("v 1.0 1.0", "v 1.0 x") + line
                        + "\ndirichlet pairs 0 1\n")
    # an index that fits int64 but names no vertex is caught by build_mesh
    with pytest.raises(MeshError, match="^triangle vertex index out of range$"):
        parse_mesh_text(SQUARE_TEXT + "t 0 1 9223372036854775807\ndirichlet pairs 0 1\n")


def test_mesh_file_pair_index_past_int64_names_its_line():
    line = "dirichlet pairs 0 99999999999999999999"
    with pytest.raises(MeshError) as caught:
        parse_mesh_text(SQUARE_TEXT + line + "\n")
    assert str(caught.value) == f"vertex index out of range in dirichlet pairs line: {line!r}"


# ---------------------------------------------------------------------------
# mesh file parsing against the line-by-line reference
# ---------------------------------------------------------------------------

def assert_same_parsed_mesh(got, want):
    """Bit-equal vertices, equal integer arrays, and an edge_index that is
    the dict of the edge list."""
    assert got.vertices.dtype == want.vertices.dtype == np.float64
    assert np.array_equal(got.vertices.view(np.uint64), want.vertices.view(np.uint64))
    for name in ("triangles", "edges", "edge_tags"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.edge_index == {tuple(p): i for i, p in enumerate(want.edges.tolist())}


@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_bench_meshes_parse_as_the_reference(workload, tmp_path, bench_workloads):
    bench_workloads.generate(workload, tmp_path, 1)
    text = (tmp_path / f"{workload}.mesh").read_text(encoding="utf-8")
    assert_same_parsed_mesh(parse_mesh_text(text),
                            oracle.reference_parse_mesh_text(text))


@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_bench_mesh_diameters_are_measured_on_the_boundary_vertices(workload, tmp_path,
                                                                   bench_workloads):
    # build_mesh marks the ends of the boundary edges in a mask; the
    # diameter is the one measured over their sorted distinct ids
    bench_workloads.generate(workload, tmp_path, 1)
    mesh = read_mesh(tmp_path / f"{workload}.mesh")
    ends = np.unique(mesh.edges[mesh.boundary_edges()])
    assert mesh.domain_diameter == _diameter(mesh.vertices[ends])


# A unit-ish square whose numbers take every form float() and int() read:
# underscores, explicit signs, a negative zero, a subnormal and
# non-ASCII digits.
EDGE_CASE_TEXTS = {
    "comments-blanks-tabs": "\n".join([
        "# leading comment", "", "ve-mesh 1", "   ", "# inner comment",
        "v\t-0.0\t1e-320", "v 1_000.5   0", "  v 1_000.5 +4  ", "v 0 4",
        "t\t0 1 2", "t +0 2 ３", "dirichlet pairs 0 1", ""]),
    "crlf-interleaved": "\r\n".join([
        "ve-mesh 1", "v -0.0 1e-320", "t 0 1 2", "v 1_000.5 0", "t 0_0 2 3",
        "v 1_000.5 +4", "dirichlet bbox -1 -1 2000 0.5", "v 0 4", "\r\n"]),
    "bbox-and-pairs": "\n".join([
        "ve-mesh 1", "v -0.0 1e-320", "v 1_000.5 0", "v 1_000.5 +4", "v 0 4",
        "t 0 1 2", "t 0 2 3", "dirichlet bbox -1 -1 2000 0.5",
        "dirichlet pairs 3 2 0 3", "dirichlet pairs 2 1"]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASE_TEXTS))
def test_edge_case_mesh_texts_parse_as_the_reference(name):
    text = EDGE_CASE_TEXTS[name]
    mesh = parse_mesh_text(text)
    assert_same_parsed_mesh(mesh, oracle.reference_parse_mesh_text(text))
    assert math.copysign(1.0, mesh.vertices[0, 0]) == -1.0
    assert mesh.vertices[0, 1] == 1e-320 and mesh.vertices[1, 0] == 1000.5


MALFORMED_TEXTS = [
    "ve-mesh 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2\n",
    "v 0 0\n",
    "ve-mesh 1\nv 0 0\nv 1 0 2\nv 0 1\nt 0 1 2\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nv 1 1 2\nt 0 1 2\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1\nv 0 1 5\nt 0 1 2\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv\nv 0 0\nv 1 0\nt 0 1 2\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1\nt 0 1 2 3\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2\ndirichlet pairs 0\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2\ndirichlet bbox 0 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2\ndirichlet box 0 0 1 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2\ndirichlet\n",
    "ve-mesh 1\nv 0 0\nvv 1 0\nv 0 1\nt 0 1 2\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nq 1 2\nt 0 1\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1\nq 1 2\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2\nt 0 1 2\ndirichlet pairs 0 1\n",
    "ve-mesh 1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2\ndirichlet pairs 0 9\n",
]


@pytest.mark.parametrize("text", MALFORMED_TEXTS)
def test_malformed_mesh_texts_fail_as_the_reference(text):
    with pytest.raises(MeshError) as want:
        oracle.reference_parse_mesh_text(text)
    with pytest.raises(MeshError) as got:
        parse_mesh_text(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text, message", [
    ("v 0 0\nv 1 x\nq 1 2\nt 0 1 2\n", "malformed vertex line: 'v 1 x'"),
    ("v 0 0\nt 0 1 x\nv 1 x\nt 0 1 2\n", "malformed triangle line: 't 0 1 x'"),
    ("v 0 0\nv 1 0\ndirichlet bbox 0 0 x 1\nv 0 y\n",
     "malformed dirichlet bbox line: 'dirichlet bbox 0 0 x 1'"),
    ("v 0 0\nv 1 0\nq\nv 0 y\n", "unknown mesh file directive 'q'"),
    ("v 0 0\nv 1 0 0\nv 0 y\n", "malformed vertex line: 'v 1 0 0'"),
], ids=["number-before-directive", "triangle-before-vertex", "bbox-before-vertex",
        "directive-before-number", "count-before-number"])
def test_the_first_malformed_line_is_named(text, message):
    # the bulk read of the vertex and triangle blocks still reports the
    # first bad line in file order, as a line-by-line read does
    with pytest.raises(MeshError) as caught:
        parse_mesh_text("ve-mesh 1\n" + text + "dirichlet pairs 0 1\n")
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# mesh file parsing against the reference on re-presented files
# ---------------------------------------------------------------------------

_BLANKS = [" ", "  ", "\t", " \t ", "\u3000", "\xa0"]


def _respelled(token: str, rnd, index: bool) -> str:
    """The same number as float() or int() reads it, spelled another way:
    a "+", an underscore between two digits, non-ASCII digits, or (for
    an index) leading zeros up to 19 or more characters."""
    how = rnd.randrange(6)
    if how == 0 and token[0] != "-":
        return "+" + token
    pairs = [i for i in range(1, len(token)) if token[i - 1].isdigit() and token[i].isdigit()]
    if how == 1 and pairs:
        i = rnd.choice(pairs)
        return token[:i] + "_" + token[i:]
    if how == 2:
        zero = rnd.choice([0xFF10, 0x0660])  # fullwidth, Arabic-Indic
        return "".join(chr(zero + int(c)) if c in "0123456789" else c for c in token)
    if how == 3 and index:
        sign = "-" if token[0] == "-" else ""
        return sign + token.lstrip("-").zfill(rnd.randrange(19, 23))
    return token


def _represented(text: str, rnd, plain_triangles: bool, defect: str | None) -> str:
    """`text`, a file write_mesh wrote, with its lines re-presented:
    numbers respelled, fields apart by other blanks, lines padded, each
    kind of line interleaved with the others in its own order, comments
    and blank lines between them, and CRLF, CR or LF endings. A defect
    adds a bad index or a bbox line."""
    header, *lines = text.splitlines()
    by_kind = {"v": [], "t": [], "d": []}
    for ln in lines:
        by_kind[ln[0]].append(ln.split())
    if defect in ("past-int64", "negative"):
        row = rnd.choice(by_kind["t"])
        row[rnd.randrange(1, 4)] = "9" * 20 if defect == "past-int64" else "-1"
    elif defect in ("nan-bbox", "infinite-bbox"):
        bound = "nan" if defect == "nan-bbox" else "inf"
        by_kind["d"].insert(rnd.randrange(len(by_kind["d"]) + 1),
                            ["dirichlet", "bbox", "-inf", "-inf", "inf", bound])
    for kind, rows in by_kind.items():
        for row in rows:
            if kind == "t" and plain_triangles:
                continue
            start = 1 if kind != "d" else 2
            for i in range(start, len(row)):
                if row[i] not in ("inf", "-inf", "nan"):
                    row[i] = _respelled(row[i], rnd, kind != "v")
    queues = {kind: list(rows) for kind, rows in by_kind.items()}
    out = ["# written by write_mesh", "", "  " + header]
    while any(queues.values()):
        kind = rnd.choice([k for k, rows in queues.items() if rows])
        row = queues[kind].pop(0)
        blanks = ["\t", " "] if kind == "t" and plain_triangles else _BLANKS
        line = "".join(field + rnd.choice(blanks) for field in row).rstrip(" \t\u3000\xa0")
        pad = rnd.choice(["", " ", "\t", "\u3000"])
        out.append(pad + line + rnd.choice(["", " ", "\t"]))
        if rnd.random() < 0.05:
            out.append(rnd.choice(["", "   ", "# a comment", "  #indented comment"]))
    ending = rnd.choice(["\n", "\r\n", "\r"])
    return ending.join(out) + ending


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except MeshError as exc:
        return str(exc)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(nx=st.integers(1, 5), ny=st.integers(1, 4),
       dirichlet=st.sampled_from(["all", "topbottom"]),
       plain_triangles=st.booleans(),
       defect=st.sampled_from([None, None, "past-int64", "negative", "nan-bbox",
                               "infinite-bbox"]),
       rnd=st.randoms(use_true_random=False))
def test_re_presented_mesh_files_parse_as_the_reference(nx, ny, dirichlet, plain_triangles,
                                                        defect, rnd):
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        path = f"{work}/grid.mesh"
        write_mesh(rect_grid_mesh(nx, ny, width=3.0, dirichlet=dirichlet), path)
        with open(path, encoding="utf-8") as fh:
            text = _represented(fh.read(), rnd, plain_triangles, defect)
    got = _parse_outcome(parse_mesh_text, text)
    want = _parse_outcome(oracle.reference_parse_mesh_text, text)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert_same_parsed_mesh(got, want)
        assert defect in (None, "infinite-bbox")


# ---------------------------------------------------------------------------
# edge lookup
# ---------------------------------------------------------------------------

def test_edge_index_is_the_dict_of_the_edge_list():
    mesh = square_grid_mesh(5)
    assert mesh.edge_index == {tuple(p): i for i, p in enumerate(mesh.edges.tolist())}
    assert len(mesh.edge_index) == mesh.n_edges
    assert mesh.edge_index[(np.int64(0), np.int64(1))] == 0
    assert mesh.edge_index.get((1, 0)) is None


def mesh_text(mesh) -> str:
    """The vertex and triangle lines of a mesh file, no Dirichlet line."""
    lines = ["ve-mesh 1"]
    lines += [f"v {x!r} {y!r}" for x, y in mesh.vertices.tolist()]
    lines += ["t {} {} {}".format(*t) for t in mesh.triangles.tolist()]
    return "\n".join(lines) + "\n"


def test_edge_index_rejects_pairs_outside_the_vertex_range():
    mesh = square_grid_mesh(5)
    nv = mesh.n_vertices
    # (-1, nv + 1) has the key lo * nv + hi of the edge (0, 1)
    assert -1 * nv + (nv + 1) == 0 * nv + 1 and (0, 1) in mesh.edge_index
    text = mesh_text(mesh)
    for pair in [(-1, nv + 1), (nv, nv + 1), (3, 3), (0, 1, 2)]:
        assert pair not in mesh.edge_index
        with pytest.raises(KeyError):
            mesh.edge_index[pair]
        with pytest.raises(MeshError, match=r"vertex pair .* is not a mesh edge"):
            CrackSet.of_vertex_pairs(mesh, [pair])
        with pytest.raises(MeshError, match=r"dirichlet pair .* is not a mesh edge"):
            build_mesh(mesh.vertices, mesh.triangles, [pair])
        if len(pair) == 2:
            with pytest.raises(MeshError, match=r"dirichlet pair .* is not a mesh edge"):
                parse_mesh_text(text + "dirichlet pairs {} {}\n".format(*pair))


def test_build_mesh_takes_a_vertex_array_as_it_is():
    mesh = square_grid_mesh(3)
    again = build_mesh(mesh.vertices, mesh.triangles, lambda pa, pb: True)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert again.vertices is not mesh.vertices
    with pytest.raises(MeshError, match="coordinate pairs"):
        build_mesh(np.zeros((4, 3)), mesh.triangles[:1], lambda pa, pb: True)


# ---------------------------------------------------------------------------
# set-up allocations
# ---------------------------------------------------------------------------

def _setup_object_growth(text: str) -> int:
    """How many GC-tracked objects parsing `text` and building its mesh
    tables leave alive, counted with the collector off."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        mesh = parse_mesh_text(text)
        elastic._mesh_tables(mesh)
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


def test_setup_keeps_no_object_per_line_or_edge(tmp_path):
    texts = {}
    for n in (4, 24, 48):
        write_mesh(square_grid_mesh(n), tmp_path / f"g{n}.mesh")
        texts[n] = (tmp_path / f"g{n}.mesh").read_text(encoding="utf-8")
    _setup_object_growth(texts[4])  # first-call caches
    small, large = _setup_object_growth(texts[24]), _setup_object_growth(texts[48])
    # a 48 x 48 grid has four times the lines, edges and links of 24 x 24
    assert large - small <= 50, (small, large)
