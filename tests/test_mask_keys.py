"""Space keys read off the fan memo's separating masks against the
reference space.

A space's key is the crack's Dirichlet edges OR-ed with the separating
mask of every vertex's cut, which `_MeshTables` reads from the fans it
memoizes per (vertex, cut) (`fans(v, cut).separating`). It keys a crack
from those masks (`key`, which `space_key` returns), and keys the
candidates of a ranking, a state plus the edges each adds, from the
state's masks and the added edges' ends (`keys`), which must equal
`key`. Two checks are independent of the keys: the memo's masks must
follow the shape of a vertex's corner links, paths and cycles
(`test_lone_cuts_and_cuts_of_many_edges_separate_as_the_fans_say`), and
two keys must be equal exactly when the reference spaces are
(`reference_space_key`, `assert_keys_match_the_reference`), on grids,
the benchmark runs and hubs of many spokes. The keys decide which
spaces a run solves, so these tests carry the blas_rounding marker with
the other differential tests of a run.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from vefrac import elastic
from vefrac.benchmarks import growth_strip, square_grid_mesh
from vefrac.cli_io import _run_to_archive
from vefrac.geometry import CrackSet, build_mesh

from test_elastic import _two_squares_at_a_corner, assert_keys_match_the_reference
from test_energy_floor import SIDES, sided_grid
from test_evolution import _workload_run

pytestmark = pytest.mark.blas_rounding


def holed_mesh():
    """A 3x3 grid without its middle cell: the ends of the hole's edges
    are boundary vertices inside the domain."""
    full = square_grid_mesh(3, dirichlet="topbottom")
    keep = [t for t in full.triangles.tolist() if 5 not in t or 10 not in t]
    return build_mesh(full.vertices, keep, lambda pa, pb: pa[1] == pb[1] == 0.0)


def meshes():
    yield "pinched", _two_squares_at_a_corner()
    yield "holed", holed_mesh()
    yield "grid", square_grid_mesh(4, dirichlet="topbottom")
    yield "strip", growth_strip(pool_span=10)[0]
    yield "sided", sided_grid(3, 2, ("left", "top"))


def assert_mask_keys(mesh, base, added):
    """`keys` of base plus each edge sequence of `added` equal the bits
    and the `key` of each such crack; returns the cracks."""
    tables = elastic._mesh_tables(mesh)
    bits, keys = tables.keys(base.bits, added)
    cracks = [base.with_edges(edges) for edges in added]
    assert bits == [k.bits for k in cracks]
    assert keys == [tables.key(k.bits) for k in cracks]
    return cracks


@pytest.mark.parametrize("name, mesh", list(meshes()), ids=[name for name, _ in meshes()])
def test_lone_cuts_and_cuts_of_many_edges_separate_as_the_fans_say(name, mesh):
    # a vertex's corner links form paths and cycles, since a corner has
    # two sides through the vertex, and cutting one link separates its
    # two corners exactly on a path: on these meshes a lone cut's fans
    # separate exactly at a boundary vertex, pinch included. At a vertex
    # of one base fan, a path splits at every cut link and a cycle at
    # every one once two are cut, so a cut of two or more edges there
    # separates them all
    tables = elastic._MeshTables(mesh)
    interior = tables.interior_edges.tolist()
    for v in range(mesh.n_vertices):
        star = [e for e in interior if v in (tables.edge_a_list[e], tables.edge_b_list[e])]
        for e in star:
            separates = tables.fans(v, 1 << e).separating == 1 << e
            assert separates == tables.on_boundary_list[v]
        if tables.base_fans_list[v] == 1:
            for size in range(2, len(star) + 1):
                for cut in itertools.combinations(star, size):
                    mask = sum(1 << e for e in cut)
                    assert tables.fans(v, mask).separating == mask


@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_workload_mask_keys_match_the_reference(workload, tmp_path, bench_workloads,
                                                monkeypatch):
    # every crack set a benchmark run files, keyed from its ranking's
    # state and the edges it adds, or alone: its key is its `key`, and
    # equal keys are equal reference spaces
    ctx = _workload_run(bench_workloads, workload, tmp_path)
    keys = elastic._MeshTables.keys
    seen = []

    def keyed(tables, base, added):
        got = keys(tables, base, added)
        seen.append((base, list(added), *got))
        return got

    monkeypatch.setattr(elastic._MeshTables, "keys", keyed)
    _run_to_archive(ctx, tmp_path / "out")
    mesh, filed = ctx.mesh, ctx.instance.energy.__self__._entries
    assert seen
    tables = elastic._mesh_tables(mesh)
    keyed_bits = set()
    for base, added, bits, got in seen:
        assert bits == [CrackSet(mesh, base).with_edges(edges).bits for edges in added]
        assert got == [tables.key(b) for b in bits]
        keyed_bits.update(bits)
    assert set(filed) <= keyed_bits | {ctx.k0.bits, ctx.k0.bits | ctx.pool.bits}
    cracks = [CrackSet(mesh, bits) for bits in filed]
    assert assert_keys_match_the_reference(mesh, cracks) == len(ctx.instance.energy.__self__._by_space)


def test_mask_keys_match_the_reference_on_every_pinched_crack():
    # every subset of the 14 pinched-mesh edges of the space-key test,
    # keyed alone and as a ranking's candidates out of the empty crack
    # and out of a crack of two edges at the pinch
    mesh = _two_squares_at_a_corner()
    picked = [0, 2, 5, 7, 8, 10, 12, 13, 14, 15, 17, 20, 23, 26]
    subsets = [tuple(e for i, e in enumerate(picked) if n >> i & 1) for n in range(1 << len(picked))]
    cracks = assert_mask_keys(mesh, CrackSet.empty(mesh), subsets)
    assert assert_keys_match_the_reference(mesh, cracks) == 1 << 13
    base = CrackSet.of_edges(mesh, picked[:2])
    assert_mask_keys(mesh, base, [s for s in subsets if not set(s) & set(picked[:2])])


def test_mask_keys_match_the_reference_on_random_cracks():
    # random states and candidates on grids with random Dirichlet sides,
    # whose boundary vertices hold lone cuts that separate, and on the
    # holed mesh: candidates add up to three edges, of any kind, many of
    # them meeting at a vertex or at a cut of the state
    rng = np.random.default_rng(34)
    sides = sorted(SIDES)
    checked = met = 0
    for trial in range(40):
        if trial % 8 == 7:
            mesh = holed_mesh()
        else:
            chosen = rng.choice(sides, int(rng.integers(1, 5)), replace=False)
            mesh = sided_grid(int(rng.integers(1, 5)), int(rng.integers(1, 5)), tuple(sorted(chosen)))
        base = CrackSet.of_edges(mesh, rng.choice(mesh.n_edges, int(rng.integers(0, 5)),
                                                  replace=False))
        free = [e for e in range(mesh.n_edges) if e not in base]
        added = [tuple(sorted(rng.choice(free, int(rng.integers(0, min(3, len(free)) + 1)),
                                         replace=False).tolist()))
                 for _ in range(30)]
        cracks = assert_mask_keys(mesh, base, added)
        assert_keys_match_the_reference(mesh, cracks)
        ends = mesh.edges
        met += sum(len(set(ends[list(a)].ravel().tolist())) < 2 * len(a) for a in added if a)
        checked += len(cracks)
    assert checked == 40 * 30 and met > 100


def wheel_mesh(spokes, half=False):
    """A hub at the origin joined by `spokes` spokes to a rim of radius
    1/2, inside a ring of triangles out to the unit circle, whose edges
    are Dirichlet. The rim vertices are interior, so a spoke's cut
    separates at the rim only with another cut there, and the key reads
    the hub's masks. The full wheel's hub is interior and its corner
    links form one cycle; the half-wheel spans the upper half-plane, its
    hub is a boundary vertex, and its links form a path."""
    angle = np.pi / (spokes - 1) if half else 2 * np.pi / spokes
    vertices = [(0.0, 0.0)] + [(r * np.cos(i * angle), r * np.sin(i * angle))
                               for r in (0.5, 1.0) for i in range(spokes)]
    tris = []
    for i in range(spokes - 1 if half else spokes):
        j = (i + 1) % spokes
        tris += [(0, 1 + i, 1 + j), (1 + i, 1 + spokes + i, 1 + spokes + j),
                 (1 + i, 1 + spokes + j, 1 + j)]
    return build_mesh(vertices, tris,
                      lambda pa, pb: min(np.hypot(*pa), np.hypot(*pb)) > 0.75)


@pytest.mark.parametrize("spokes, half, n_interior", [(14, False, 14), (14, True, 12)],
                         ids=["wheel", "half-wheel"])
def test_mask_keys_match_the_reference_on_high_degree_hubs(spokes, half, n_interior):
    # every crack of up to three interior spokes, keyed alone and as a
    # ranking's candidates out of a one-spoke state: the hub's cuts are
    # answered by the fan memo alone
    mesh = wheel_mesh(spokes, half)
    tables = elastic._mesh_tables(mesh)
    assert tables.base_fans_list[0] == 1 and tables.on_boundary_list[0] == half
    hub = [e for e in tables.interior_edges.tolist() if 0 in mesh.edges[e]]
    assert len(hub) == n_interior
    subsets = [c for size in range(4) for c in itertools.combinations(hub, size)]
    cracks = assert_mask_keys(mesh, CrackSet.empty(mesh), subsets)
    assert assert_keys_match_the_reference(mesh, cracks) == len(subsets) - (0 if half else n_interior)
    base = CrackSet.of_edges(mesh, hub[:1])
    cracks = assert_mask_keys(mesh, base, [s for s in subsets if hub[0] not in s])
    assert_keys_match_the_reference(mesh, cracks)
