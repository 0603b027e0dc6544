"""Block-diagonal solves of many cracked spaces against each space alone.

blocks.pack_blocks packs the new spaces of a scan's chunk into blocks,
and blocks.solve_block numbers, constrains, assembles and solves a
block of one or more as one system. Every (E1, p1) it stores must equal,
bit for bit, the space solved alone, as a block of one, and
`reference_energy_entry`, a solve by scipy of the reference space. Its
dot products are BLAS calls, so these tests carry the blas_rounding
marker. The failure tests check that a space solved ahead of a scan's
stop point raises only when read.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

import vefrac.blocks as blocks
import vefrac.evolution as evolution
from vefrac.benchmarks import growth_strip, ramp_load, square_grid_mesh, unit_square_mesh
from vefrac.cli_io import _run_to_archive, build_run, cli_dispatch, parse_config
from vefrac.blocks import _assemble_csr, _block_cg, _cg, pack_blocks, solve_block
from vefrac.elastic import (
    BoundaryLoad,
    LinearAmplitude,
    NumericalError,
    _matvec,
    space_key,
    split_along_crack,
)
from vefrac.geometry import CrackSet

import _oracles as oracle

pytestmark = pytest.mark.blas_rounding


def solve_alone(mesh, load, crack):
    """The entry of a crack set's space solved as a block of one."""
    (block,) = pack_blocks(mesh, [crack])
    return solve_block(block, load.unit())[0]


def solve_all(mesh, load, cracks):
    """Every crack set's entry from pack_blocks and solve_block, and the
    block sizes."""
    entries, sizes = [], []
    for block in pack_blocks(mesh, cracks):
        sizes.append(len(block))
        entries += solve_block(block, load.unit())
    return entries, sizes


def assert_lone_entries(mesh, load, cracks, entries):
    for crack, entry in zip(cracks, entries, strict=True):
        expected = oracle.reference_energy_entry(mesh, load, crack)
        assert type(entry) is tuple and all(type(v) is float for v in entry)
        assert entry == expected == solve_alone(mesh, load, crack)
        assert [v.hex() for v in entry] == [v.hex() for v in expected]


def distinct_spaces(mesh, cracks):
    seen, kept = set(), []
    for crack in cracks:
        key = space_key(mesh, crack)
        if key not in seen:
            seen.add(key)
            kept.append(crack)
    return kept


def _workload_run(bench_workloads, workload, work):
    inputs = bench_workloads.generate(workload, work, 1)
    return build_run(parse_config(inputs.config.read_text(encoding="utf-8")),
                     inputs.config.parent.resolve())


def record_solves(monkeypatch):
    """Record each crack set whose space the energy cache solves, its
    entry, and the size of the block it is solved in, as
    [(crack, entry, block size)]."""
    solved = []
    block_solve = evolution.solve_block

    def solve_block_(block, load):
        entries = block_solve(block, load)
        solved.extend((plan.crack, entry, len(block)) for plan, entry in zip(block, entries))
        return entries

    monkeypatch.setattr(evolution, "solve_block", solve_block_)
    return solved


@pytest.mark.parametrize("workload, alone, shared",
                         [("strip", 11, 19), ("grid", 2, 498), ("fine", 6, 0)])
def test_workload_spaces_match_the_lone_path(workload, alone, shared, tmp_path, monkeypatch,
                                             bench_workloads):
    # every space a benchmark run solves, in a block of one or of many,
    # stores the (E1, p1) of that space solved alone; each fine space
    # has more DOFs than a block holds
    solved = record_solves(monkeypatch)
    ctx = _workload_run(bench_workloads, workload, tmp_path)
    _run_to_archive(ctx, tmp_path / "out")
    sizes = [size for _, _, size in solved]
    assert (sizes.count(1), len(sizes) - sizes.count(1)) == (alone, shared)
    cracks = [crack for crack, _, _ in solved]
    assert_lone_entries(ctx.mesh, ctx.load, cracks, [entry for _, entry, _ in solved])


def grid_vertex(n, i, j):
    return j * (n + 1) + i


def crafted_cracks(mesh):
    """Crack sets of square_grid_mesh(4, "topbottom") that close a loop
    around an interior cell (its two triangles then need a pinned DOF),
    release Dirichlet edges, or cut the domain in two."""
    v = lambda i, j: grid_vertex(4, i, j)  # noqa: E731
    cell = [(v(1, 1), v(2, 1)), (v(2, 1), v(2, 2)), (v(1, 2), v(2, 2)), (v(1, 1), v(1, 2))]
    across = [(v(i, 3), v(i + 1, 3)) for i in range(4)]
    pairs = [cell, cell[:3], [(v(1, 4), v(2, 4))], [(v(0, 4), v(1, 4)), (v(2, 2), v(3, 2))],
             across, across[:2], [(v(1, 0), v(2, 0)), (v(2, 0), v(3, 0)), (v(2, 1), v(2, 2))]]
    return [CrackSet.of_vertex_pairs(mesh, p) for p in pairs]


def random_cracks(mesh, rng, count, most):
    return [CrackSet.of_edges(mesh, rng.sample(range(mesh.n_edges), rng.randint(0, most)))
            for _ in range(count)]


def describe(mesh, load, crack):
    """The cases a block must get right, as flags of one space."""
    space = oracle.reference_space(mesh, crack)
    base = oracle.reference_space(mesh, CrackSet.empty(mesh))
    rhs = rhs_of(mesh, load, crack)
    return {
        "loop": space["n_components"] > base["n_components"],
        "released": bool(crack.bits & sum(1 << int(e) for e in mesh.dirichlet_edges())),
        "pinned": space["pinned_dofs"].size > 0,
        "no free": bool(space["constrained_mask"].all()),
        "zero rhs": rhs.size > 0 and not rhs.any(),
        "free": int((~space["constrained_mask"]).sum()),
    }


def random_cases():
    rng = random.Random(29)
    grid = square_grid_mesh(4, dirichlet="topbottom")
    strip_mesh, strip_load = growth_strip()[:2]
    one_hot = np.zeros(grid.n_vertices)
    one_hot[grid_vertex(4, 2, 4)] = 1.0
    v = lambda i, j: grid_vertex(4, i, j)  # noqa: E731
    # releasing both top edges at (2, 4) frees its DOF, whose datum is the
    # only one, so that space has a zero right-hand side while the two
    # that free another top vertex, of the same free size, do not
    top = [[(v(1, 4), v(2, 4)), (v(2, 4), v(3, 4))], [(v(0, 4), v(1, 4))],
           [(v(3, 4), v(4, 4))], [(v(1, 4), v(2, 4))]]
    yield grid, ramp_load(grid), crafted_cracks(grid) + random_cracks(grid, rng, 120, 6)
    yield grid, BoundaryLoad(one_hot, LinearAmplitude(0.0, 1.0), 1.0), \
        [CrackSet.of_vertex_pairs(grid, p) for p in top]
    yield grid, BoundaryLoad(one_hot, LinearAmplitude(0.0, 1.0), 1.0), \
        [CrackSet.of_vertex_pairs(grid, p) for p in top[:2]]
    yield strip_mesh, strip_load, random_cracks(strip_mesh, rng, 60, 8)
    for mesh in (unit_square_mesh(), square_grid_mesh(1)):
        yield mesh, ramp_load(mesh), random_cracks(mesh, rng, 20, 3)
    grid1 = square_grid_mesh(1)
    yield grid1, BoundaryLoad(np.zeros(4), LinearAmplitude(0.0, 1.0), 1.0), \
        random_cracks(grid1, rng, 10, 3)


def test_random_blocks_match_the_lone_path():
    # crack sets that close loops, release Dirichlet edges, leave a
    # component to pin, leave no free DOF or a zero right-hand side, in
    # blocks that mix free sizes
    seen = dict.fromkeys(["loop", "released", "pinned", "no free", "zero rhs"], 0)
    mixed = 0
    for mesh, load, cracks in random_cases():
        cracks = distinct_spaces(mesh, cracks)
        entries, sizes = solve_all(mesh, load, cracks)
        assert max(sizes) > 1
        assert_lone_entries(mesh, load, cracks, entries)
        flags = [describe(mesh, load, crack) for crack in cracks]
        for case in seen:
            seen[case] += sum(f[case] for f in flags)
        start = 0
        for size in sizes:
            free = [f["free"] for f in flags[start:start + size]]
            mixed += free != sorted(free)
            start += size
    assert min(seen.values()) > 0, seen
    assert mixed > 0


def test_only_a_crack_that_closes_a_loop_labels_components(monkeypatch):
    # cuts that close no loop leave every space of a block the mesh's
    # base components, tiled without a `_component_labels` call; one
    # crack of the block that closes a loop labels the whole block in one
    # call. Either way each space's labels are the reference's, after the
    # components of the spaces before it
    mesh = square_grid_mesh(4, dirichlet="topbottom")
    labels, labelled = blocks._component_labels, []

    def counted(n, links):
        labelled.append(n)
        return labels(n, links)

    monkeypatch.setattr(blocks, "_component_labels", counted)
    cracks = crafted_cracks(mesh)
    loops = [cracks[0], cracks[4]]  # a ring around a cell, a cut across
    forests = [k for k in cracks if k not in loops]
    nt = mesh.n_triangles
    for block, calls in ((forests, 0), (forests[:1], 0), (forests + loops[1:], 1),
                         (loops[:1], 1)):
        labelled.clear()
        (plans,) = pack_blocks(mesh, block)
        components = blocks._build_spaces(plans).tri_component
        assert len(labelled) == calls
        first = 0
        for s, crack in enumerate(block):
            want = oracle.reference_space(mesh, crack)["tri_component"]
            assert np.array_equal(components[s * nt:(s + 1) * nt], first + want)
            first += int(want.max()) + 1


def test_block_assembly_sorts_the_rows_of_each_space_as_alone():
    # std::sort may reorder equal columns, and with them the sum of the
    # duplicates: a space whose rows are already sorted keeps its input
    # order in a block beside a space whose rows are not
    rng = np.random.default_rng(7)
    n_tri = 6
    sorted_dofs = np.zeros(3 * n_tri, dtype=int)
    sorted_local = rng.standard_normal(9 * n_tri) * 10.0 ** rng.integers(-8, 8, 9 * n_tri)
    other_dofs = np.array([2, 1, 0])
    other_local = rng.standard_normal(9)
    alone_a = _assemble_csr(sorted_dofs, sorted_local, (0, 1))
    alone_b = _assemble_csr(other_dofs, other_local, (0, 3))
    dofs = np.concatenate([sorted_dofs, other_dofs + 1])
    local = np.concatenate([sorted_local, other_local])
    indptr, indices, data = _assemble_csr(dofs, local, np.array([0, 1, 4]))
    assert data[:1].tobytes() == alone_a[2].tobytes()
    assert (indices[1:] - 1).tolist() == alone_b[1].tolist()
    assert data[1:].tobytes() == alone_b[2].tobytes()
    # sorting the block as a whole would have moved the first space's sum
    assert _assemble_csr(dofs, local, (0, 4))[2][0] != alone_a[2][0]


def spd_system(rng, n, coupling):
    """A sparse symmetric positive definite CSR matrix of n unknowns,
    as (indptr, indices, data), a right-hand side and its diagonal. The
    weaker the coupling, the closer the Jacobi-preconditioned matrix is
    to the identity, and the sooner CG stops."""
    dense = np.zeros((n, n))
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = -coupling * rng.uniform(0.5, 1.0)
    for _ in range(n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            dense[i, j] = dense[j, i] = -coupling * rng.uniform(0.0, 0.5)
    dense[np.diag_indices(n)] = -dense.sum(axis=1) + rng.uniform(0.5, 2.0, n)
    rows, cols = np.nonzero(dense)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return (indptr, cols, dense[rows, cols]), rng.standard_normal(n), dense.diagonal().copy()


def iterations(system, b, diag):
    """The number of matvecs after which `_cg` stops on the system."""
    return next(k for k in range(200) if _cg(*system, b, diag, k + 1)[1] == 0)


def block_of(systems, n):
    indptr = [np.array([0])]
    indices, data = [], []
    for i, ((ptr, idx, val), _, _) in enumerate(systems):
        indptr.append(ptr[1:] + indptr[-1][-1])
        indices.append(idx + i * n)
        data.append(val)
    return np.concatenate(indptr), np.concatenate(indices), np.concatenate(data)


@pytest.mark.parametrize("maxiter", [200, 9])
def test_block_cg_equals_cg_per_system(maxiter):
    # bit for bit in x and in info, on systems that converge at
    # different iterations; at maxiter 9 some of them fail
    rng = np.random.default_rng(3)
    n = 14
    systems = [spd_system(rng, n, c) for c in (1.0, 0.0, 1e-6, 1e-3, 1e-2, 0.1, 10.0, 1e-3)]
    x, info = _block_cg(*block_of(systems, n), np.array([b for _, b, _ in systems]),
                        np.array([d for _, _, d in systems]), maxiter)
    for i, (system, b, diag) in enumerate(systems):
        x_alone, info_alone = _cg(*system, b, diag, maxiter)
        assert x[i].tobytes() == x_alone.tobytes()
        assert info[i] == info_alone
    stops = [iterations(s, b, d) for s, b, d in systems]
    assert len(set(stops)) > 3
    assert set(info.tolist()) == ({0, 9} if maxiter == 9 else {0})


# ---------------------------------------------------------------------------
# failures: a space solved ahead of the stop point raises only when read
# ---------------------------------------------------------------------------

def rhs_of(mesh, load, crack):
    """The free right-hand side of a crack set's space under the unit load."""
    space = split_along_crack(mesh, crack)
    values = np.zeros(space.n_dofs)
    values[space.dirichlet_dofs] = load.profile[space.dof_vertex[space.dirichlet_dofs]]
    u = np.where(space.constrained_mask, values, 0.0)
    return -_matvec(*space.csr, u)[~space.constrained_mask]


def fail_cg_on(monkeypatch, target):
    """Stub both CGs so that the system whose right-hand side is
    `target`, bit for bit, reports that it ran out of iterations."""
    block_cg, cg = blocks._block_cg, blocks._cg

    def stub_block_cg(indptr, indices, data, b, diag, maxiter):
        x, info = block_cg(indptr, indices, data, b, diag, maxiter)
        for i in range(b.shape[0]):
            if b[i].tobytes() == target.tobytes():
                info[i] = maxiter
        return x, info

    def stub_cg(indptr, indices, data, b, diag, maxiter):
        x, info = cg(indptr, indices, data, b, diag, maxiter)
        return x, maxiter if b.tobytes() == target.tobytes() else info

    monkeypatch.setattr(blocks, "_block_cg", stub_block_cg)
    monkeypatch.setattr(blocks, "_cg", stub_cg)


def reads_and_block_spaces(bench_workloads, work, monkeypatch):
    """A `grid` run's archive bytes, the latest time at which its energy
    or power reads each space (by key), and the crack sets it solves in
    blocks whose free right-hand side no other space of the run has."""
    with monkeypatch.context() as patch:
        solved = record_solves(patch)
        ctx = _workload_run(bench_workloads, "grid", work)
        read = {}

        def reading(fn):
            def wrapper(t, k):
                key = space_key(k.mesh, k)
                read[key] = max(t, read.get(key, t))
                return fn(t, k)
            return wrapper

        ctx.instance.energy = reading(ctx.instance.energy)
        ctx.instance.power = reading(ctx.instance.power)
        path = _run_to_archive(ctx, work / "out")[3]
    # the CG stubs find a space by its right-hand side, which must then
    # be that space's alone
    rhs = [rhs_of(ctx.mesh, ctx.load, crack).tobytes() for crack, _, _ in solved]
    in_blocks = [crack for (crack, _, size), b in zip(solved, rhs)
                 if size > 1 and rhs.count(b) == 1]
    return path.read_bytes(), read, in_blocks


def test_a_failure_solved_ahead_of_the_stop_raises_nothing(tmp_path, monkeypatch,
                                                          bench_workloads):
    archive, read, in_blocks = reads_and_block_spaces(bench_workloads, tmp_path, monkeypatch)
    ahead = [k for k in in_blocks if space_key(k.mesh, k) not in read]
    assert ahead
    target = ahead[0]
    ctx = _workload_run(bench_workloads, "grid", tmp_path)
    target = CrackSet(ctx.mesh, target.bits)
    fail_cg_on(monkeypatch, rhs_of(ctx.mesh, ctx.load, target))
    path = _run_to_archive(ctx, tmp_path / "out")[3]
    assert path.read_bytes() == archive
    cache = ctx.instance.energy.__self__
    failed = [key for key, got in cache._by_space.items() if isinstance(got, NumericalError)]
    assert failed == [space_key(ctx.mesh, target)]


def test_a_failure_that_a_scan_reads_exits_2_with_the_lone_message(
        tmp_path, monkeypatch, bench_workloads, capsys):
    _, read, in_blocks = reads_and_block_spaces(bench_workloads, tmp_path / "a", monkeypatch)
    target = next(k for k in in_blocks if read.get(space_key(k.mesh, k), 0.0) > 0.0)
    ctx = _workload_run(bench_workloads, "grid", tmp_path / "b")
    target = CrackSet(ctx.mesh, target.bits)
    fail_cg_on(monkeypatch, rhs_of(ctx.mesh, ctx.load, target))
    expected = solve_alone(ctx.mesh, ctx.load, target)
    assert isinstance(expected, NumericalError)
    assert str(expected).startswith("CG failed to converge (info=2000, residual=")
    config = bench_workloads.generate("grid", tmp_path / "c", 1).config
    capsys.readouterr()
    assert cli_dispatch(["run", str(config)]) == 2
    assert capsys.readouterr().out == f"numerical failure: {expected}\n"


def undercut(monkeypatch, key):
    """Store E1 = -1 for the space `key` whichever block solves it."""
    block_solve = evolution.solve_block

    def solve_block_(block, load):
        return [(-1.0, entry[1]) if space_key(plan.crack.mesh, plan.crack) == key else entry
                for plan, entry in zip(block, block_solve(block, load))]

    monkeypatch.setattr(evolution, "solve_block", solve_block_)


def test_an_undercut_raises_only_where_it_is_read(tmp_path, monkeypatch, bench_workloads,
                                                  capsys):
    # an energy under the floor, solved ahead and never read, leaves the
    # archive as it is; read, it ends the run as it does without batches
    archive, read, in_blocks = reads_and_block_spaces(bench_workloads, tmp_path, monkeypatch)
    ahead = next(k for k in in_blocks if space_key(k.mesh, k) not in read)
    seen = next(k for k in in_blocks if read.get(space_key(k.mesh, k), 0.0) > 0.0)
    with monkeypatch.context() as patch:
        undercut(patch, space_key(ahead.mesh, ahead))
        ctx = _workload_run(bench_workloads, "grid", tmp_path)
        assert _run_to_archive(ctx, tmp_path / "out")[3].read_bytes() == archive
    undercut(monkeypatch, space_key(seen.mesh, seen))
    ctx = _workload_run(bench_workloads, "grid", tmp_path / "c")
    ctx.instance.scaled = None
    with pytest.raises(NumericalError) as lone:
        _run_to_archive(ctx, tmp_path / "c" / "out")
    assert str(lone.value).startswith("E1 floor -1e-12 undercut: E1 = -1.0 at t = ")
    config = bench_workloads.generate("grid", tmp_path / "d", 1).config
    capsys.readouterr()
    assert cli_dispatch(["run", str(config)]) == 2
    assert capsys.readouterr().out == f"numerical failure: {lone.value}\n"
