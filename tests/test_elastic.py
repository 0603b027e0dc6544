from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vefrac.benchmarks import (
    growth_strip,
    linear_y_profile,
    ramp_load,
    rect_grid_mesh,
    square_grid_mesh,
    unit_square_mesh,
)
from vefrac import blocks, elastic
from vefrac.dissipation import DissipationParams
from vefrac.elastic import (
    BoundaryLoad,
    ElasticError,
    LinearAmplitude,
    TableAmplitude,
    energy_release,
    fit_sif,
    power_bound_constant,
    solve_energy,
    solve_on_space,
    space_key,
    split_along_crack,
)
from vefrac.cli_io import _run_to_archive, build_run, parse_config
from vefrac.evolution import _ScaledEnergyCache, fracture_instance
from vefrac.geometry import CrackSet, build_mesh, read_mesh

import _oracles as oracle


def horizontal_mid_crack(mesh, n_cells, through=False):
    """Edges along y = 0.5 starting at x = 0; all of them when through."""
    pairs = []
    row = (n_cells // 2) * (n_cells + 1)
    span = n_cells if through else n_cells // 2
    for i in range(span):
        pairs.append((row + i, row + i + 1))
    return CrackSet.of_vertex_pairs(mesh, pairs)


def n_components(space):
    return int(space.tri_component.max()) + 1


# ---------------------------------------------------------------------------
# split_along_crack
# ---------------------------------------------------------------------------

def test_split_no_crack_identity(grid3):
    space = split_along_crack(grid3, CrackSet.empty(grid3))
    assert space.n_dofs == grid3.n_vertices
    assert np.array_equal(space.dof_vertex, np.arange(grid3.n_vertices))
    assert np.array_equal(space.tri_dofs, grid3.triangles)
    assert n_components(space) == 1


def test_split_interior_two_edge_crack(grid4_tb):
    # interior horizontal crack of 2 edges: middle vertex duplicated,
    # both tips keep one DOF
    k = CrackSet.of_vertex_pairs(grid4_tb, [(11, 12), (12, 13)])
    space = split_along_crack(grid4_tb, k)
    assert space.n_dofs == grid4_tb.n_vertices + 1
    counts = np.bincount(space.dof_vertex, minlength=grid4_tb.n_vertices)
    assert counts[12] == 2
    assert counts[11] == 1 and counts[13] == 1
    assert n_components(space) == 1  # not disconnected by an interior slit


def test_split_through_cut_disconnects(grid4_tb):
    k = horizontal_mid_crack(grid4_tb, 4, through=True)
    space = split_along_crack(grid4_tb, k)
    # every vertex on the cut line is duplicated, including boundary ones
    counts = np.bincount(space.dof_vertex, minlength=grid4_tb.n_vertices)
    for v in range(10, 15):
        assert counts[v] == 2
    assert n_components(space) == 2


def test_split_matches_fan_oracle(grid4_tb):
    rng = np.random.default_rng(41)
    for _ in range(8):
        bits = int(rng.integers(0, 2**grid4_tb.n_edges))
        k = CrackSet(grid4_tb, bits)
        space = split_along_crack(grid4_tb, k)
        total, per_vertex = oracle.oracle_fan_dofs(grid4_tb, k.edge_ids)
        assert space.n_dofs == total
        counts = np.bincount(space.dof_vertex, minlength=grid4_tb.n_vertices)
        assert list(counts) == per_vertex


def assert_csr_equal(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


_SPACE = ("tri_dofs", "dof_vertex", "n_dofs", "tri_component", "dirichlet_dofs",
          "pinned_dofs", "constrained_mask", "fan_centroid_offsets")


def assert_space_matches_reference(mesh, crack):
    """Every array of the space, its stiffness and the CG solve equal the
    per-vertex reference bit for bit."""
    space = split_along_crack(mesh, crack)
    ref = oracle.reference_space(mesh, crack)
    for name in _SPACE:
        want = ref[name]
        got = (space.fan_centroid_offsets() if name == "fan_centroid_offsets"
               else getattr(space, name))
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
    a = space.stiffness()
    want_a = oracle.reference_stiffness(mesh, ref["tri_dofs"], ref["n_dofs"])
    assert_csr_equal(a, want_a)
    for got, name in zip(space.csr, ("indptr", "indices", "data")):
        want = getattr(want_a, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    mask = ref["constrained_mask"]
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    load = BoundaryLoad(profile=y + 0.25 * x * x, amplitude=LinearAmplitude(0.5, 1.0),
                        horizon=1.0)
    sol = solve_on_space(0.75, space, load)
    values = np.zeros(ref["n_dofs"])
    dirichlet = ref["dirichlet_dofs"]
    values[dirichlet] = load.amplitude(0.75) * load.profile[ref["dof_vertex"][dirichlet]]
    u, residual = oracle.reference_solve(want_a, mask, values)
    assert sol.u.tobytes() == u.tobytes()
    assert sol.residual == residual
    assert sol.au.tobytes() == (want_a @ u).tobytes()
    assert sol.energy == 0.5 * float(u @ (want_a @ u))
    return space


def _two_squares_at_a_corner():
    """Two 2x2 grids meeting only at the origin: a pinch vertex with two
    fans and no crack."""
    cells = [(i / 2, j / 2) for j in range(3) for i in range(3)]
    vertices = cells + [(-x, -y) for x, y in cells[1:]]
    tris = []
    for j in range(2):
        for i in range(2):
            v = j * 3 + i
            tris += [(v, v + 1, v + 4), (v, v + 4, v + 3)]
    lower = [tuple(0 if v == 0 else v + 8 for v in t) for t in tris]
    return build_mesh(vertices, tris + lower,
                      lambda pa, pb: pa[1] == pb[1] == 1.0)


@pytest.mark.parametrize("mesh_name", ["grid4", "grid9", "strip"])
def test_space_matches_reference_on_random_cracks(mesh_name):
    mesh = {"grid4": lambda: square_grid_mesh(4),
            "grid9": lambda: square_grid_mesh(9, dirichlet="topbottom"),
            "strip": lambda: growth_strip()[0]}[mesh_name]()
    rng = np.random.default_rng(11)
    for size in [0, 1, 2, 3, 4, 6, 9, 14, 25] * 4:
        ids = rng.choice(mesh.n_edges, size, replace=False)
        assert_space_matches_reference(mesh, CrackSet.of_edges(mesh, ids))


def test_space_matches_reference_on_cuts_rings_and_boundary(grid4_tb):
    mesh = square_grid_mesh(9, dirichlet="topbottom")
    through = horizontal_mid_crack(mesh, 9, through=True)
    centre = 4 * 10 + 4
    ring = CrackSet.of_edges(mesh, [
        e for e, (a, b) in enumerate(mesh.edges.tolist())
        if a != centre and b != centre
        and mesh.edge_index.get(tuple(sorted((a, centre)))) is not None
        and mesh.edge_index.get(tuple(sorted((b, centre)))) is not None])
    assert len(ring.edge_ids) == 6  # the link of an interior vertex
    boundary = CrackSet.of_edges(mesh, mesh.boundary_edges()[::3])
    corner_chord = CrackSet.of_vertex_pairs(mesh, [(8, 19)])
    for crack in (through, ring, boundary, corner_chord, through.union(ring),
                  ring.union(boundary), through.union(boundary),
                  horizontal_mid_crack(mesh, 9)):
        assert_space_matches_reference(mesh, crack)
    assert n_components(split_along_crack(mesh, through)) == 2
    assert n_components(split_along_crack(mesh, ring)) == 2
    assert len(split_along_crack(mesh, ring).pinned_dofs) == 1
    assert n_components(split_along_crack(mesh, corner_chord)) == 2


def test_space_matches_reference_on_a_holed_mesh():
    # a 3x3 grid without its middle cell: cuts from the outer to the
    # inner boundary, and rings around the hole
    full = square_grid_mesh(3, dirichlet="topbottom")
    keep = [t for t in full.triangles.tolist() if 5 not in t or 10 not in t]
    mesh = build_mesh(full.vertices, keep, lambda pa, pb: pa[1] == pb[1] == 0.0)
    hole = [mesh.edge_index[p] for p in [(5, 6), (6, 10), (9, 10), (5, 9)]]
    rng = np.random.default_rng(8)
    cracks = [CrackSet.of_edges(mesh, hole),
              CrackSet.of_vertex_pairs(mesh, [(1, 5)]),
              CrackSet.of_vertex_pairs(mesh, [(1, 5), (10, 14)])]
    cracks += [CrackSet.of_edges(mesh, rng.choice(mesh.n_edges, size, replace=False))
               for size in [1, 2, 3, 4, 6, 8] * 20]
    for crack in cracks:
        assert_space_matches_reference(mesh, crack)
    assert n_components(split_along_crack(mesh, cracks[2])) == 2


def test_space_matches_reference_on_pinched_and_edgeless_meshes():
    bow_tie = build_mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 0.0), (-1.0, -1.0)],
                         [(0, 1, 2), (0, 3, 4)],
                         lambda pa, pb: pa[1] == pb[1] == 0.0 and min(pa[0], pb[0]) >= 0)
    assert split_along_crack(bow_tie, CrackSet.empty(bow_tie)).n_dofs == 6
    triangle = build_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                          lambda pa, pb: True)
    pinched = _two_squares_at_a_corner()
    assert split_along_crack(pinched, CrackSet.empty(pinched)).n_dofs == pinched.n_vertices + 1
    for mesh in (bow_tie, triangle, pinched):
        for bits in range(min(1 << mesh.n_edges, 512)):
            assert_space_matches_reference(mesh, CrackSet(mesh, bits))


# ---------------------------------------------------------------------------
# connected components in numpy against scipy's csgraph
# ---------------------------------------------------------------------------

def assert_labels_match_reference(n, links):
    links = np.asarray(links, dtype=int).reshape(-1, 2)
    got = elastic._component_labels(n, links)
    want = oracle.reference_component_labels(n, links)
    assert got.shape == (n,) and np.array_equal(got, want)


def test_component_labels_match_scipy_on_random_graphs():
    rng = np.random.default_rng(5)
    for n in [1, 2, 3, 7, 30, 200, 2000]:
        for density in [0.0, 0.3, 0.6, 1.0, 2.0]:
            links = rng.integers(0, n, size=(int(density * n), 2))
            assert_labels_match_reference(n, links)


def test_component_labels_match_scipy_on_a_randomly_numbered_path():
    rng = np.random.default_rng(6)
    n = 20_000
    order = rng.permutation(n)
    links = np.column_stack([order[:-1], order[1:]])
    flip = rng.random(n - 1) < 0.5
    links[flip] = links[flip][:, ::-1]
    links = links[rng.permutation(n - 1)]
    assert_labels_match_reference(n, links)
    assert np.array_equal(elastic._component_labels(n, links), np.zeros(n, dtype=int))


def test_component_labels_on_isolated_nodes_repeats_and_self_loops():
    assert_labels_match_reference(0, [])
    assert_labels_match_reference(5, [])
    assert np.array_equal(elastic._component_labels(5, np.zeros((0, 2), dtype=int)),
                          np.arange(5))
    # repeated links, both ways round, and self-loops among isolated nodes
    links = [(4, 1), (1, 4), (4, 1), (3, 3), (6, 2), (2, 6), (0, 0), (6, 6)]
    assert_labels_match_reference(8, links)
    assert elastic._component_labels(8, np.array(links)).tolist() == \
        [0, 1, 2, 3, 1, 4, 2, 5]
    assert_labels_match_reference(3, [(2, 2)] * 4)


def test_component_labels_match_scipy_on_a_star():
    # the centre is the largest node, its leaves listed both ways
    n = 500
    star = np.column_stack([np.full(n - 1, n - 1), np.arange(n - 1)])
    assert_labels_match_reference(n, star)
    assert_labels_match_reference(n, star[::-1, ::-1])


def _bench_mesh(bench_workloads, workload, work):
    bench_workloads.generate(workload, work, 1)
    return read_mesh(work / f"{workload}.mesh")


@pytest.mark.parametrize("mesh_name", ["strip", "grid", "fine", "pinched"])
def test_mesh_tables_match_tables_built_from_scipy_labels(mesh_name, tmp_path,
                                                          monkeypatch, bench_workloads):
    mesh = (_two_squares_at_a_corner() if mesh_name == "pinched"
            else _bench_mesh(bench_workloads, mesh_name, tmp_path))
    got = elastic._MeshTables(mesh)
    monkeypatch.setattr(elastic, "_component_labels", oracle.reference_component_labels)
    want = elastic._MeshTables(mesh)
    for name in ("base_fans", "base_rank", "base_tri_component"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.base_fans.sum() == mesh.n_vertices + 1) == (mesh_name == "pinched")


def test_grid_run_triangle_components_match_scipy(tmp_path, monkeypatch, bench_workloads):
    # every crack set the grid workload looks up; on those that close a
    # loop, building the space relabels through _component_labels
    inputs = bench_workloads.generate("grid", tmp_path, 1)
    ctx = build_run(parse_config(inputs.config.read_text(encoding="utf-8")),
                    inputs.config.parent.resolve())
    _run_to_archive(ctx, tmp_path / "out")
    mesh = ctx.mesh
    tables = elastic._mesh_tables(mesh)
    labels, labelled = elastic._component_labels, []

    def counted(n, links):
        labelled.append(n)
        return labels(n, links)

    monkeypatch.setattr(blocks, "_component_labels", counted)
    for bits in ctx.instance.energy.__self__._entries:
        crack = CrackSet(mesh, bits)
        before = len(labelled)
        got = split_along_crack(mesh, crack).tri_component
        kept = [i for i, e in enumerate(tables.interior_edges.tolist())
                if not (bits >> e) & 1]
        want = oracle.reference_component_labels(mesh.n_triangles, tables.tri_links[kept])
        assert np.array_equal(got, want)
        if len(labelled) == before:
            assert np.array_equal(got, tables.base_tri_component)
    assert 0 < len(labelled) < len(ctx.instance.energy.__self__._entries)


def _python(code, cwd, *args):
    """Run `code` in a fresh interpreter that imports vefrac from src."""
    src = Path(elastic.__file__).resolve().parents[1]
    paths = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_run_loads_only_the_sparse_kernels_of_scipy(workload, tmp_path, bench_workloads):
    # elastic loads scipy's _sparsetools extension by file, so a run
    # imports no other scipy module; where `import numpy` leaves numpy.ma
    # to its first use, as numpy >= 2 does, the run does not load it
    # either (a 10 ms import). vefrac.__main__ imports cli_io and runs the
    # command line, so the subprocess imports every other module and runs
    # the workload
    inputs = bench_workloads.generate(workload, tmp_path, 1)
    code = (
        "import importlib, json, pkgutil, sys\n"
        "import numpy\n"
        "lazy_ma = 'numpy.ma' not in sys.modules\n"
        "import vefrac\n"
        "for info in pkgutil.iter_modules(vefrac.__path__):\n"
        "    if info.name != '__main__':\n"
        "        importlib.import_module('vefrac.' + info.name)\n"
        "from vefrac.cli_io import cli_dispatch\n"
        "assert cli_dispatch(['run', sys.argv[1]]) == 0\n"
        "print(json.dumps({'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "                  'lazy_ma': lazy_ma, 'ma': 'numpy.ma' in sys.modules}))\n")
    proc = _python(code, tmp_path, str(inputs.config))
    assert proc.returncode == 0, proc.stderr
    assert inputs.archive.exists()
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["scipy"] == ["scipy.sparse._sparsetools"]
    if loaded["lazy_ma"]:
        assert not loaded["ma"]


def test_missing_scipy_kernels_name_the_requirement(tmp_path, monkeypatch):
    # no scipy package, or one without the extension: an ImportError that
    # says what to install, also when importing vefrac.elastic
    monkeypatch.delitem(sys.modules, elastic._SPARSETOOLS)
    (tmp_path / "sparse").mkdir()
    for scipy_dirs in (None, [], [str(tmp_path)]):
        with pytest.raises(ImportError, match=r"^vefrac needs scipy >= 1\.12"):
            elastic._load_sparsetools(scipy_dirs)
    assert elastic._SPARSETOOLS not in sys.modules
    proc = _python("import sys\n"
                   "sys.modules['scipy'] = None\n"
                   "import vefrac.elastic\n", tmp_path)
    assert proc.returncode != 0
    assert "ImportError: vefrac needs scipy >= 1.12" in proc.stderr


@pytest.mark.parametrize("first", ["scipy", "vefrac"])
def test_one_kernel_module_whichever_is_imported_first(first, tmp_path):
    # a scipy.sparse imported before vefrac lends it its _sparsetools;
    # one imported after finds vefrac's in sys.modules and uses it too
    imports = ["import scipy.sparse", "from vefrac import elastic"]
    if first == "vefrac":
        imports.reverse()
    proc = _python("import sys\n" + "\n".join(imports) + "\n"
                   "kernels = sys.modules['scipy.sparse._sparsetools']\n"
                   "assert elastic._kernels is kernels\n"
                   "assert elastic.csr_matvec is kernels.csr_matvec\n"
                   "a = scipy.sparse.csr_matrix([[2.0, 1.0], [0.0, 3.0]])\n"
                   "assert (a @ [1.0, 1.0]).tolist() == [3.0, 3.0]\n", tmp_path)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the FEM solve against scipy: CSR assembly, reduced blocks, Jacobi-CG
# ---------------------------------------------------------------------------

def _ring(mesh, centre):
    """The link of an interior vertex: cutting it frees the vertex's fan
    as a component no Dirichlet datum sees."""
    edges = mesh.edges.tolist()
    star = {b if a == centre else a for a, b in edges if centre in (a, b)}
    return CrackSet.of_edges(mesh, [e for e, (a, b) in enumerate(edges)
                                    if a in star and b in star])


def _workload_mesh(name):
    """The mesh of a benchmark workload and a crack of the kind its run
    meets."""
    if name == "grid":
        mesh = square_grid_mesh(4, dirichlet="topbottom")
        return mesh, CrackSet.of_vertex_pairs(mesh, [(11, 12), (12, 13)])
    if name == "strip":
        mesh, _, k0, _, _ = growth_strip(pool_span=10)
        return mesh, k0
    mesh = square_grid_mesh(48, dirichlet="topbottom")
    return mesh, CrackSet.of_vertex_pairs(mesh, [(1198, 1199), (1199, 1200)])


@pytest.mark.parametrize("mesh_name", ["grid", "strip"])
def test_solve_matches_reference_on_workload_meshes(mesh_name):
    mesh, crack = _workload_mesh(mesh_name)
    rng = np.random.default_rng(29)
    interior = [v for v in range(mesh.n_vertices)
                if 0 < mesh.vertices[v, 1] < 1 and 0 < mesh.vertices[v, 0]
                < mesh.vertices[:, 0].max()]
    cracks = [crack, _ring(mesh, interior[len(interior) // 2])]
    for size in [1, 2, 3, 5, 8, 13] * 6:
        picked = CrackSet.of_edges(mesh, rng.choice(mesh.n_edges, size, replace=False))
        cracks += [picked, picked.union(_ring(mesh, int(rng.choice(interior))))]
    pinned = sum(len(assert_space_matches_reference(mesh, k).pinned_dofs) > 0
                 for k in cracks)
    assert pinned >= 36
    assert len(split_along_crack(mesh, cracks[1]).pinned_dofs) == 1


def test_solve_early_returns_match_reference(grid4_tb, monkeypatch):
    def no_cg(*args):
        raise AssertionError("CG must not run")

    for name in ("_cg", "_block_cg"):
        monkeypatch.setattr(blocks, name, no_cg)
    # every DOF Dirichlet (one cell, all boundary Dirichlet): the field
    # is the data
    cell = square_grid_mesh(1)
    space = split_along_crack(cell, CrackSet.empty(cell))
    assert space.constrained_mask.all()
    want_a = oracle.reference_stiffness(cell, space.tri_dofs, space.n_dofs)
    load = BoundaryLoad(profile=np.random.default_rng(3).normal(size=cell.n_vertices),
                        amplitude=LinearAmplitude(0.5, 1.0), horizon=1.0)
    sol = solve_on_space(0.75, space, load)
    values = load.amplitude(0.75) * load.profile[space.dof_vertex]
    want_u, want_residual = oracle.reference_solve(want_a, space.constrained_mask, values)
    assert sol.u.tobytes() == want_u.tobytes() == values.tobytes()
    assert sol.residual == want_residual == 0.0
    space = split_along_crack(grid4_tb, CrackSet.of_vertex_pairs(grid4_tb, [(11, 12)]))
    want_a = oracle.reference_stiffness(grid4_tb, space.tri_dofs, space.n_dofs)
    # zero data, a(0) = 0: b = 0
    sol = solve_on_space(0.0, space, ramp_load(grid4_tb))
    zero = np.zeros(space.n_dofs)
    want_u, want_residual = oracle.reference_solve(want_a, space.constrained_mask, zero)
    assert sol.u.tobytes() == want_u.tobytes() == zero.tobytes()
    assert sol.residual == want_residual == 0.0
    assert sol.energy == 0.0


@pytest.mark.parametrize("mesh_name", ["grid", "strip", "fine"])
def test_cg_matches_scipy_at_every_iteration_cap(mesh_name):
    """The CG copy stops where scipy's CG stops and holds its iterate
    bit for bit, for maxiter = 1, 2, ... up to convergence."""
    mesh, crack = _workload_mesh(mesh_name)
    space = split_along_crack(mesh, crack)
    a = oracle.reference_stiffness(mesh, space.tri_dofs, space.n_dofs)
    values = np.zeros(space.n_dofs)
    values[space.dirichlet_dofs] = linear_y_profile(mesh)[space.dof_vertex[space.dirichlet_dofs]]
    mask = space.constrained_mask
    _, free, aff, b = oracle.reference_reduced_system(a, mask, values)
    block = blocks._free_block(*space.csr, ~mask, free)
    for got, name in zip(block, ("indptr", "indices", "data")):
        assert np.array_equal(got, getattr(aff, name)), name
    assert block[2].tobytes() == aff.data.tobytes()
    diag = aff.diagonal()
    for cap in range(1, 10_000):
        x, info = blocks._cg(*block, b, diag, cap)
        want_x, want_info = oracle.reference_cg(aff, b, cap)
        assert x.tobytes() == want_x.tobytes(), cap
        assert info == want_info, cap
        if info == 0:
            break
    assert info == 0 and cap > 5


def test_solve_stops_at_its_iteration_cap(monkeypatch):
    mesh, crack = _workload_mesh("grid")
    space = split_along_crack(mesh, crack)
    load = ramp_load(mesh)
    a = oracle.reference_stiffness(mesh, space.tri_dofs, space.n_dofs)
    values = np.zeros(space.n_dofs)
    values[space.dirichlet_dofs] = load.profile[space.dof_vertex[space.dirichlet_dofs]]
    _, _, aff, b = oracle.reference_reduced_system(a, space.constrained_mask, values)
    x, info = oracle.reference_cg(aff, b, 1)
    assert info == 1
    residual = float(np.linalg.norm(aff @ x - b)) / float(np.linalg.norm(b))
    monkeypatch.setattr(blocks, "_cg_maxiter", lambda n_free: 1)
    with pytest.raises(ElasticError) as err:
        solve_on_space(1.0, space, load)
    assert str(err.value) == f"CG failed to converge (info=1, residual={residual:.3e})"


def test_dirichlet_release_on_cracked_boundary_edge(grid4_tb):
    # crack one bottom boundary edge: its DOFs facing the crack lose the
    # constraint that edge carried
    k = CrackSet.of_vertex_pairs(grid4_tb, [(0, 1)])
    space = split_along_crack(grid4_tb, k)
    free_space = split_along_crack(grid4_tb, CrackSet.empty(grid4_tb))
    assert len(space.dirichlet_dofs) == len(free_space.dirichlet_dofs) - 1
    # vertex 0 only touches Dirichlet edge (0,1); cracked -> unconstrained
    dofs_of_v0 = np.flatnonzero(space.dof_vertex == 0)
    assert not any(d in space.dirichlet_dofs for d in dofs_of_v0)


# ---------------------------------------------------------------------------
# the space key, and one solve per cracked space
# ---------------------------------------------------------------------------

_CONSTRAINTS = ("tri_component", "dirichlet_dofs", "pinned_dofs", "constrained_mask")


def _skewed_load(mesh):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return BoundaryLoad(profile=y + 0.25 * x * x, amplitude=LinearAmplitude(0.5, 1.0),
                        horizon=1.0)


def _space_sharing_cracks(mesh, seed):
    """Random crack sets, rings that cut off a component no datum sees,
    and cracked Dirichlet edges, each also with one more random edge:
    many of them share a space."""
    rng = np.random.default_rng(seed)
    boundary = set(mesh.edges[mesh.boundary_edges()].ravel().tolist())
    interior = [v for v in range(mesh.n_vertices) if v not in boundary]
    dirichlet = mesh.dirichlet_edges()
    cracks = [CrackSet.empty(mesh), _ring(mesh, interior[len(interior) // 2])]
    for size in [1, 2, 3, 5, 8] * 4:
        picked = CrackSet.of_edges(mesh, rng.choice(mesh.n_edges, size, replace=False))
        cracks += [picked, picked.union(_ring(mesh, int(rng.choice(interior)))),
                   picked.with_edges(rng.choice(dirichlet, 2, replace=False))]
    return cracks + [k.with_edges([int(rng.integers(mesh.n_edges))]) for k in cracks]


def _assert_same_space(first, space):
    assert first.n_dofs == space.n_dofs
    for name in ("tri_dofs", "dof_vertex", "dirichlet_dofs", "constrained_mask"):
        assert np.array_equal(getattr(first, name), getattr(space, name)), name
    assert set(first.pinned_dofs.tolist()) == set(space.pinned_dofs.tolist())
    for a, b in zip(first.csr, space.csr):
        assert a.tobytes() == b.tobytes()


def assert_keys_match_the_reference(mesh, cracks) -> int:
    """Equal keys exactly when the reference keys (tri_dofs bytes and
    released Dirichlet edges) are equal; returns the number of spaces."""
    topo = oracle.reference_topology(mesh)
    reference_of, key_of = {}, {}
    for crack in cracks:
        key = space_key(mesh, crack)
        reference = oracle.reference_space_key(mesh, crack, topo)
        assert reference_of.setdefault(key, reference) == reference
        assert key_of.setdefault(reference, key) == key
    return len(key_of)


@pytest.mark.parametrize("mesh_name", ["grid", "strip"])
def test_equal_space_keys_give_equal_spaces(mesh_name):
    mesh, _ = _workload_mesh(mesh_name)
    first_of, cracks_of = {}, {}
    cracks = _space_sharing_cracks(mesh, 5)
    for crack in cracks:
        space = split_along_crack(mesh, crack)
        key = space_key(mesh, crack)
        cracks_of.setdefault(key, set()).add(crack.bits)
        _assert_same_space(first_of.setdefault(key, space), space)
    shared = sum(len(bits) > 1 for bits in cracks_of.values())
    assert shared >= 10
    assert sum(len(space.pinned_dofs) > 0 for space in first_of.values()) >= 10
    # and the converse: equal spaces have equal keys
    assert assert_keys_match_the_reference(mesh, cracks) == len(first_of)


@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_workload_space_keys_match_the_reference(workload, tmp_path, bench_workloads):
    # every crack set a benchmark run looks up: two have equal space keys
    # exactly when the reference keys are equal
    inputs = bench_workloads.generate(workload, tmp_path, 1)
    ctx = build_run(parse_config(inputs.config.read_text(encoding="utf-8")),
                    inputs.config.parent.resolve())
    _run_to_archive(ctx, tmp_path / "out")
    cache = ctx.instance.energy.__self__
    cracks = [CrackSet(ctx.mesh, bits) for bits in cache._entries]
    assert assert_keys_match_the_reference(ctx.mesh, cracks) == len(cache._by_space)


def test_space_keys_match_the_reference_on_every_pinched_crack():
    # every subset of 14 edges of the two squares that share only vertex
    # 0: both interior edges of its star, one of its Neumann edges, a
    # Dirichlet edge and ten more interior edges, four of them around
    # the pinch in the lower square. The Neumann edge changes no space,
    # and every interior edge here ends at a boundary vertex, whose star
    # any cut link splits, so the other 13 edges give 2^13 spaces
    mesh = _two_squares_at_a_corner()
    picked = [0, 2, 5, 7, 8, 10, 12, 13, 14, 15, 17, 20, 23, 26]
    cracks = [CrackSet.of_edges(mesh, [e for i, e in enumerate(picked) if n >> i & 1])
              for n in range(1 << len(picked))]
    assert assert_keys_match_the_reference(mesh, cracks) == 1 << 13
    tables = elastic._mesh_tables(mesh)
    assert sum(tables.walk(crack)[0] == 0 for crack in cracks) > 1
    assert len(tables._fans) < 300


@pytest.mark.blas_rounding
def test_a_released_dirichlet_edge_changes_the_key(grid4_tb):
    # vertex 0 touches one Dirichlet edge, (0, 1): cracking it frees the
    # vertex without regrouping any fan, so tri_dofs alone cannot tell
    # the two spaces apart
    empty = CrackSet.empty(grid4_tb)
    released = CrackSet.of_vertex_pairs(grid4_tb, [(0, 1)])
    slit = CrackSet.of_vertex_pairs(grid4_tb, [(11, 12)])
    spaces = [split_along_crack(grid4_tb, k) for k in (empty, released, slit)]
    assert len({space.tri_dofs.tobytes() for space in spaces}) == 1
    keys = [space_key(grid4_tb, k) for k in (empty, released, slit)]
    assert keys[1] != keys[0] == keys[2]
    assert len(spaces[1].dirichlet_dofs) == len(spaces[0].dirichlet_dofs) - 1
    load = _skewed_load(grid4_tb)
    cache = _ScaledEnergyCache(grid4_tb, load, empty)
    entries = [cache._entry(k) for k in (empty, released, slit)]
    assert entries == [oracle.reference_energy_entry(grid4_tb, load, k)
                       for k in (empty, released, slit)]
    assert entries[1][0] < entries[0][0] == entries[2][0]
    assert len(cache._by_space) == 2


def test_space_constraints_match_the_reference():
    mesh, crack = _workload_mesh("grid")
    for k in _space_sharing_cracks(mesh, 7)[:12] + [crack]:
        ref = oracle.reference_space(mesh, k)
        space = split_along_crack(mesh, k)
        for name in _CONSTRAINTS:
            got, want = getattr(space, name), ref[name]
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            else:
                assert got == want, name


@pytest.mark.blas_rounding
@pytest.mark.parametrize("mesh_name", ["grid", "strip"])
def test_energy_cache_matches_a_solve_per_crack_set(mesh_name):
    mesh, _ = _workload_mesh(mesh_name)
    load = _skewed_load(mesh)
    cache = _ScaledEnergyCache(mesh, load, CrackSet.empty(mesh))
    cracks = _space_sharing_cracks(mesh, 23)
    # the second pass reads the crack-set memo
    for k in cracks + cracks[::-1]:
        assert cache._entry(k) == oracle.reference_energy_entry(mesh, load, k)
    assert len(cache._entries) == len({k.bits for k in cracks})
    assert len(cache._by_space) < len(cache._entries)


@pytest.mark.blas_rounding
def test_energy_cache_on_cracked_dirichlet_edges_and_a_pinch_vertex(grid4_tb):
    rng = np.random.default_rng(31)
    pinched = _two_squares_at_a_corner()
    pinch_star = [e for e, pair in enumerate(pinched.edges.tolist()) if 0 in pair]
    for mesh, edges in ((grid4_tb, grid4_tb.dirichlet_edges().tolist()),
                        (pinched, pinched.dirichlet_edges().tolist() + pinch_star)):
        load = _skewed_load(mesh)
        cache = _ScaledEnergyCache(mesh, load, CrackSet.empty(mesh))
        for mask in range(1 << len(edges)):
            k = CrackSet.of_edges(mesh, [e for i, e in enumerate(edges) if (mask >> i) & 1])
            for crack in (k, k.with_edges([int(rng.integers(mesh.n_edges))])):
                assert cache._entry(crack) == oracle.reference_energy_entry(mesh, load, crack)
        assert len(cache._by_space) < len(cache._entries)


# ---------------------------------------------------------------------------
# solve_energy
# ---------------------------------------------------------------------------

def test_constant_datum_zero_energy(grid3):
    load = BoundaryLoad(profile=np.ones(grid3.n_vertices),
                        amplitude=LinearAmplitude(1.0, 0.0), horizon=1.0)
    for k in (CrackSet.empty(grid3), CrackSet.of_edges(grid3, [4, 5])):
        sol = solve_energy(0.7, k, load)
        assert abs(sol.energy) < 1e-12
        assert np.allclose(sol.u, 1.0)


def test_linear_field_reproduced_exactly():
    mesh = unit_square_mesh()
    load = ramp_load(mesh)
    sol = solve_energy(1.0, CrackSet.empty(mesh), load)
    assert math.isclose(sol.energy, 0.5, rel_tol=1e-12)
    assert np.allclose(sol.u, mesh.vertices[:, 1], atol=1e-10)
    # same on a fine grid: P1 reproduces u = y at every resolution
    fine = square_grid_mesh(8)
    sol8 = solve_energy(1.0, CrackSet.empty(fine), ramp_load(fine))
    assert math.isclose(sol8.energy, 0.5, rel_tol=1e-10)


def test_through_cut_kills_energy(grid4_tb):
    k = horizontal_mid_crack(grid4_tb, 4, through=True)
    sol = solve_energy(1.0, k, ramp_load(grid4_tb))
    assert abs(sol.energy) < 1e-15
    # piecewise constant: 0 below the cut, 1 above
    ys = grid4_tb.vertices[sol.space.dof_vertex, 1]
    centro = sol.space.fan_centroid_offsets()[:, 1]
    side = ys + 1e-6 * np.sign(centro)
    assert np.allclose(sol.u[side > 0.5], 1.0, atol=1e-7)
    assert np.allclose(sol.u[side < 0.5], 0.0, atol=1e-7)


def test_floating_component_pinned(grid4_tb):
    # cut out the interior square around vertex 12: it floats
    loop = [(6, 7), (7, 8), (8, 13), (13, 18), (18, 17), (17, 16), (16, 11), (11, 6)]
    k = CrackSet.of_vertex_pairs(grid4_tb, loop)
    space = split_along_crack(grid4_tb, k)
    assert n_components(space) == 2
    assert len(space.pinned_dofs) == 1
    sol = solve_energy(1.0, k, ramp_load(grid4_tb))
    dof_component = oracle.reference_space(grid4_tb, k)["dof_component"]
    inner = dof_component == dof_component[space.pinned_dofs[0]]
    assert np.allclose(sol.u[inner], 0.0, atol=1e-9)
    assert sol.energy >= 0.0


def test_energy_monotone_in_crack(grid4_tb):
    load = ramp_load(grid4_tb)
    rng = np.random.default_rng(13)
    for _ in range(6):
        h_bits = int(rng.integers(0, 2**grid4_tb.n_edges))
        k_bits = h_bits | int(rng.integers(0, 2**grid4_tb.n_edges))
        eh = solve_energy(1.0, CrackSet(grid4_tb, h_bits), load).energy
        ek = solve_energy(1.0, CrackSet(grid4_tb, k_bits), load).energy
        assert ek <= eh + 1e-10 * (1.0 + eh)


def test_quadratic_amplitude_scaling(grid4_tb):
    k = horizontal_mid_crack(grid4_tb, 4)
    e1 = solve_energy(1.0, k, ramp_load(grid4_tb, c1=1.0)).energy
    e3 = solve_energy(1.0, k, ramp_load(grid4_tb, c1=3.0)).energy
    assert math.isclose(e3, 9.0 * e1, rel_tol=1e-8)


def test_load_mesh_mismatch_rejected(grid3, grid4_tb):
    with pytest.raises(ElasticError, match="values for a mesh"):
        solve_energy(0.0, CrackSet.empty(grid3), ramp_load(grid4_tb))


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

def run_power(t, crack, load):
    """dE/dt as a run reads it: the power of a fracture instance, off its
    energy cache."""
    inst = fracture_instance(crack.mesh, load, DissipationParams(lam=0.1, mu=0.1), crack)
    return inst.power(t, crack)


@pytest.mark.blas_rounding
def test_power_zero_when_amplitude_frozen(grid3):
    load = BoundaryLoad(profile=linear_y_profile(grid3),
                        amplitude=LinearAmplitude(2.0, 0.0), horizon=1.0)
    assert run_power(0.5, CrackSet.empty(grid3), load) == 0.0


@pytest.mark.blas_rounding
def test_power_analytic_square():
    mesh = unit_square_mesh()
    load = ramp_load(mesh)
    for t in (0.25, 1.0, 2.0):
        assert math.isclose(run_power(t, CrackSet.empty(mesh), load), t, rel_tol=1e-12)


@pytest.mark.blas_rounding
def test_power_matches_finite_difference(grid4_tb):
    load = ramp_load(grid4_tb, horizon=2.0, c0=0.1, c1=0.7)
    k = horizontal_mid_crack(grid4_tb, 4)
    h = 1e-4
    for t in (0.3, 1.2):
        fd = (solve_energy(t + h, k, load).energy
              - solve_energy(t - h, k, load).energy) / (2 * h)
        assert math.isclose(run_power(t, k, load), fd, rel_tol=1e-5)


@pytest.mark.blas_rounding
def test_table_amplitude_power(grid3):
    amp = TableAmplitude([0.0, 0.5, 1.0], [0.0, 1.0, 1.5])
    load = BoundaryLoad(profile=linear_y_profile(grid3), amplitude=amp, horizon=1.0)
    p_left = run_power(0.25, CrackSet.empty(grid3), load)
    p_right = run_power(0.75, CrackSet.empty(grid3), load)
    # du/dt halves after t = 0.5 while a itself keeps growing
    a_quarter, a_three = amp(0.25), amp(0.75)
    assert math.isclose(p_left, 2.0 * a_quarter * 1.0, rel_tol=1e-10)
    assert math.isclose(p_right, 1.0 * a_three * 1.0, rel_tol=1e-10)


def test_a_load_refuses_a_table_that_does_not_span_the_run(grid3):
    # past its last row a(t) is held constant while derivative() keeps
    # the last slope, so the power would be wrong there
    profile = linear_y_profile(grid3)
    for times, horizon in (([0.0, 3.0], 6.0), ([0.5, 3.0], 2.0),
                           ([0.5, 3.0], 6.0)):
        amp = TableAmplitude(times, [0.0, 3.0])
        with pytest.raises(ElasticError, match=re.escape(
                f"amplitude table spans [{times[0]!r}, {times[1]!r}], which does "
                f"not cover the run's [0, {horizon!r}]")):
            BoundaryLoad(profile=profile, amplitude=amp, horizon=horizon)
    for times, horizon in (([0.0, 3.0], 3.0), ([-1.0, 3.0], 2.5)):
        load = BoundaryLoad(profile=profile, amplitude=TableAmplitude(times, [0.0, 3.0]),
                            horizon=horizon)
        assert load.unit().horizon == horizon


# ---------------------------------------------------------------------------
# the constant C_P
# ---------------------------------------------------------------------------

def test_power_constant_zero_rate(grid3):
    load = BoundaryLoad(profile=linear_y_profile(grid3),
                        amplitude=LinearAmplitude(5.0, 0.0), horizon=1.0)
    assert power_bound_constant(load, grid3) == 0.0


def test_power_constant_unit_square_ramp():
    mesh = unit_square_mesh()
    assert math.isclose(power_bound_constant(ramp_load(mesh), mesh), 1.0,
                        rel_tol=1e-12)


def test_power_constant_table_matches_dense_grid(grid3):
    times = [0.0, 0.3, 0.7, 1.0]
    values = [0.0, 0.6, 0.7, 1.4]
    amp = TableAmplitude(times, values)
    load = BoundaryLoad(profile=linear_y_profile(grid3), amplitude=amp, horizon=1.0)
    dense = max(abs(amp.derivative(t)) for t in np.linspace(1e-6, 1 - 1e-6, 2001))
    got = power_bound_constant(load, grid3)
    grad = math.sqrt(sum(
        grid3.triangle_areas))  # |grad y| = 1 on every triangle
    assert math.isclose(got, dense * grad * max(0.5 * grid3.area, 1.0), rel_tol=1e-10)


@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_power_constant_is_the_stiffness_form_bit_for_bit(workload, tmp_path, bench_workloads):
    # C_P multiplies by the CSR arrays directly; the scipy matrix product
    # runs the same csr_matvec into zeros, and the matrix is the oracle's
    inputs = bench_workloads.generate(workload, tmp_path, 1)
    ctx = build_run(parse_config(inputs.config.read_text(encoding="utf-8")),
                    inputs.config.parent.resolve())
    mesh, load = ctx.mesh, ctx.load
    space = split_along_crack(mesh, CrackSet.empty(mesh))
    a = space.stiffness()
    assert_csr_equal(a, oracle.reference_stiffness(mesh, space.tri_dofs, space.n_dofs))
    g = load.profile[space.dof_vertex]
    grad_norm = math.sqrt(max(float(g @ (a @ g)), 0.0))
    want = (load.amplitude.max_abs_derivative(load.horizon) * grad_norm
            * max(0.5 * mesh.area, 1.0))
    assert power_bound_constant(load, mesh) == want
    assert ctx.instance.power_bound == want


@pytest.mark.blas_rounding
def test_power_bound_inequality_holds(grid4_tb):
    load = ramp_load(grid4_tb, horizon=2.0, c1=1.3)
    cp = power_bound_constant(load, grid4_tb)
    rng = np.random.default_rng(17)
    for _ in range(5):
        k = CrackSet(grid4_tb, int(rng.integers(0, 2**grid4_tb.n_edges)))
        inst = fracture_instance(grid4_tb, load, DissipationParams(lam=0.1, mu=0.1), k)
        assert inst.power_bound == cp
        for t in (0.0, 0.4, 1.1, 2.0):
            assert abs(inst.power(t, k)) <= cp * (inst.energy(t, k) + 1.0) + 1e-12


# ---------------------------------------------------------------------------
# energy release and SIF
# ---------------------------------------------------------------------------

def test_energy_release_zero_load(grid4_tb):
    k = horizontal_mid_crack(grid4_tb, 4)
    load = ramp_load(grid4_tb)
    path = [grid4_tb.edge_index[(12, 13)], grid4_tb.edge_index[(13, 14)]]
    g = energy_release(0.0, k, load, path, h_steps=2)
    assert abs(g) < 1e-14


def test_energy_release_nonnegative_and_tip_checked(grid4_tb):
    k = horizontal_mid_crack(grid4_tb, 4)  # tips at vertices 10 and 12
    load = ramp_load(grid4_tb)
    path = [grid4_tb.edge_index[(12, 13)], grid4_tb.edge_index[(13, 14)]]
    g = energy_release(1.0, k, load, path, h_steps=2)
    assert g >= -1e-12
    far = [grid4_tb.edge_index[(0, 1)]]
    with pytest.raises(ElasticError, match="not incident to a crack tip"):
        energy_release(1.0, k, load, far, h_steps=1)
    broken = [grid4_tb.edge_index[(12, 13)], grid4_tb.edge_index[(0, 1)]]
    with pytest.raises(ElasticError, match="do not form a path"):
        energy_release(1.0, k, load, broken, h_steps=2)
    with pytest.raises(ElasticError, match="no tip"):
        energy_release(1.0, CrackSet.empty(grid4_tb), load, path)


def test_fit_sif_zero_field():
    mesh = square_grid_mesh(8, dirichlet="topbottom")
    k = horizontal_mid_crack(mesh, 8)
    sol = solve_energy(0.0, k, ramp_load(mesh))
    kappa = fit_sif(sol, tip_point=(0.5, 0.5), tip_direction=(1.0, 0.0))
    assert abs(kappa) < 1e-12


def test_fit_sif_recovers_injected_mode():
    from dataclasses import replace

    mesh = square_grid_mesh(8, dirichlet="topbottom")
    k = horizontal_mid_crack(mesh, 8)
    sol = solve_energy(0.0, k, ramp_load(mesh))
    space = sol.space
    tip = np.array([0.5, 0.5])
    tdir = np.array([1.0, 0.0])
    ndir = np.array([0.0, 1.0])
    pos = space.dof_positions() - tip
    x, y = pos @ tdir, pos @ ndir
    rho = np.hypot(x, y)
    theta = np.arctan2(y, x)
    counts = np.bincount(space.dof_vertex, minlength=mesh.n_vertices)
    split = counts[space.dof_vertex] > 1
    side = space.fan_centroid_offsets() @ ndir
    theta = np.where(split, np.copysign(np.pi, side), theta)
    kappa0 = 0.8
    u = kappa0 * 2.0 * np.sqrt(rho / np.pi) * np.sin(0.5 * theta)
    u += 0.3 - 0.2 * x + 0.05 * y  # affine slab the fit must absorb
    injected = replace(sol, u=u)
    kappa = fit_sif(injected, tip, tdir)
    assert math.isclose(kappa, kappa0, rel_tol=1e-6)


def test_fit_sif_guard_rails(grid4_tb):
    k = horizontal_mid_crack(grid4_tb, 4)
    sol = solve_energy(1.0, k, ramp_load(grid4_tb))
    with pytest.raises(ElasticError, match="DOFs in the annulus"):
        fit_sif(sol, (0.5, 0.5), (1.0, 0.0), r_inner=0.01, r_outer=0.02)
    far = CrackSet.of_vertex_pairs(grid4_tb, [(3, 4)])  # second branch
    sol2 = solve_energy(1.0, k.union(far), ramp_load(grid4_tb))
    with pytest.raises(ElasticError, match="another crack branch"):
        fit_sif(sol2, (0.5, 0.5), (1.0, 0.0), r_inner=0.2, r_outer=0.9)
