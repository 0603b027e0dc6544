from __future__ import annotations

import math
import random
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
    Point2,
    _check_hanging_nodes,
    _diameter,
    build_mesh,
    connected_components,
    dist_point_to_crack,
    h1_diff,
    h1_measure,
    hausdorff,
    parse_mesh_text,
    read_mesh,
    write_mesh,
)

import _oracles as oracle
from vefrac import geometry


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


def test_collinear_diameter_falls_back_to_direct_scan():
    # More than 16 points take the convex-hull path. Collinear points
    # have no 2-d hull: qhull refuses them, the monotone chain keeps the
    # two ends.
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


@pytest.mark.parametrize("block", [7, 1 << 16])
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
    with pytest.raises(MeshError, match="repeats a vertex"):
        build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)], lambda pa, pb: True)


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


def test_point2_requires_finite():
    with pytest.raises(MeshError):
        Point2(float("nan"), 0.0)


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

def test_dist_point_to_empty_is_diameter(square2):
    assert dist_point_to_crack((0.3, 0.3), CrackSet.empty(square2)) == math.sqrt(2.0)


def test_dist_point_on_edge_is_zero(square2):
    k = CrackSet.of_edges(square2, [0])
    assert dist_point_to_crack((0.25, 0.0), k) == 0.0


def test_dist_point_analytic(square2):
    k = CrackSet.of_edges(square2, [0])  # segment (0,0)-(1,0)
    assert dist_point_to_crack(Point2(0.0, 1.0), k) == 1.0


def test_dist_matches_naive_oracle(grid3):
    rng = np.random.default_rng(3)
    k = CrackSet.of_edges(grid3, [1, 7, 20])
    for _ in range(25):
        p = rng.uniform(-0.5, 1.5, size=2)
        expected = min(oracle.point_segment_distance(
            p, grid3.vertices[int(grid3.edges[e][0])],
            grid3.vertices[int(grid3.edges[e][1])]) for e in k.edge_ids)
        assert math.isclose(dist_point_to_crack(p, k), expected, rel_tol=1e-12)


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
