"""Cracked spaces built, assembled and solved, one or many at a time.

This module is the one code that numbers, constrains, assembles and
solves a cracked space. A scan's prefetch hands the energy cache the new
spaces of a chunk of candidates; `pack_blocks` packs them, in order,
into blocks of at most BLOCK_DOFS DOFs, and `solve_block` solves a block
as one system: one fan numbering, one coo_tocsr, one free-block
extraction, and one block CG per run of equal free size. A space alone,
met first by a lookup or too large to share a block, is a block of one.
Each space gets the same (E, g . Au) in any block, bit for bit, so what
the cache stores does not depend on the packing.

`elastic.CrackedSpace` is `_build_spaces` of a block of one, and
`elastic.solve_on_space` solves it through `_solve`, the core that
`solve_block` runs too.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .elastic import (
    CG_RTOL,
    BoundaryLoad,
    NumericalError,
    SpacePlan,
    SpaceWalk,
    _component_labels,
    _matvec,
    _mesh_tables,
    _MeshTables,
    coo_tocsr,
    csr_diagonal,
    csr_has_sorted_indices,
    csr_sort_indices,
    csr_sum_duplicates,
)
from .geometry import Mesh, MeshError, union_groups

__all__ = ["BLOCK_DOFS", "Entry", "pack_blocks", "solve_block"]

# Most DOFs of a block that solve_block solves as one system
BLOCK_DOFS = 2048

_INT32_MAX = int(np.iinfo(np.int32).max)

# A space's (E, g . Au), or the NumericalError its solve raises
Entry = tuple[float, float] | NumericalError


def pack_blocks(mesh: Mesh, walks: Sequence[SpaceWalk]) -> list[list[SpacePlan]]:
    """The spaces of the walked cracks (see `elastic.space_walk`),
    planned and packed, in order, into blocks of at most BLOCK_DOFS DOFs
    (a space with more is a block alone), for `solve_block`."""
    if any(walk[0].mesh is not mesh for walk in walks):
        raise MeshError("crack set does not belong to this mesh")
    tables = _mesh_tables(mesh)
    blocks: list[list[SpacePlan]] = []
    size = BLOCK_DOFS
    for walk in walks:
        plan = tables.plan(walk)
        size += plan.n_dofs
        if size > BLOCK_DOFS:
            blocks.append([])
            size = plan.n_dofs
        blocks[-1].append(plan)
    return blocks


class _Spaces(NamedTuple):
    """The spaces of a block side by side, in block order: space s owns
    DOFs offsets[s] to offsets[s+1] - 1, and `tri_dofs` is the DOF of
    every corner of every space, corner c of space s at s*nc + c.
    `dof_vertex` is the vertex of each DOF, `dirichlet` lists the
    Dirichlet DOFs, `pinned` the pinned DOFs, one per component that
    the Dirichlet data cannot see, in component order, and
    `constrained` marks both. `tri_component` labels the triangles of
    every space, those of space s after those of the spaces before it,
    each space's in order of its smallest triangle."""

    tri_dofs: np.ndarray
    offsets: np.ndarray
    dof_vertex: np.ndarray
    dirichlet: np.ndarray
    pinned: np.ndarray
    constrained: np.ndarray
    tri_component: np.ndarray


def _closes_loop(tables: _MeshTables, crack_ids: Sequence[int]) -> bool:
    """Whether the cracked interior edges close a loop once all boundary
    vertices are merged into one node (-1). Only such a cut can split a
    triangle component; a forest of them leaves the base components."""
    on_boundary, ends_a, ends_b = tables.on_boundary_list, tables.edge_a_list, tables.edge_b_list
    links = []
    for e in crack_ids:
        if tables.is_interior_list[e]:
            a, b = ends_a[e], ends_b[e]
            links.append((-1 if on_boundary[a] else a, -1 if on_boundary[b] else b))
    nodes = sorted({v for link in links for v in link})
    return len(links) != len(nodes) - len(union_groups(nodes, links))


def _build_spaces(block: Sequence[SpacePlan]) -> _Spaces:
    """The fan numbering, Dirichlet DOFs, components and pinned DOFs of
    every space of the block, in one pass. Around every vertex the
    triangles are grouped into fans, two triangles sharing a fan when
    they share an uncracked edge through the vertex, and each fan
    carries one DOF, numbered by vertex, then by smallest triangle:
    vertex v of space s is s*nv + v and its corner c is s*nc + c. Only
    the vertices of cracked interior edges can have other fans than the
    mesh's base fans, and the plans say which. A cracked Dirichlet edge
    releases its constraint. Unless a space's crack closes a loop, every
    space has the mesh's base components; otherwise the triangle
    components of all spaces are labelled in one `_component_labels`."""
    mesh = block[0].crack.mesh
    tables = _mesh_tables(mesh)
    n_spaces = len(block)
    nv, nc, nt = mesh.n_vertices, tables.corner_vertex.size, mesh.n_triangles
    spaces = np.arange(n_spaces)
    fans = np.tile(tables.base_fans, n_spaces)
    rank = np.tile(tables.base_rank, n_spaces)
    verts, counts, corners, ranks, crack_ids = [], [], [], [], []
    n_verts, n_corners, n_edges = [], [], []
    for plan in block:
        verts += plan.verts
        counts += plan.counts
        corners += plan.corners
        ranks += plan.ranks
        crack_ids += plan.crack_ids
        n_verts.append(len(plan.verts))
        n_corners.append(len(plan.corners))
        n_edges.append(len(plan.crack_ids))
    if verts:
        fans[np.repeat(spaces * nv, n_verts) + verts] = counts
        rank[np.repeat(spaces * nc, n_corners) + corners] = ranks
    start = np.zeros(n_spaces * nv + 1, dtype=int)
    np.cumsum(fans, out=start[1:])
    tri_dofs = start[:-1].reshape(n_spaces, nv)[:, tables.corner_vertex].ravel() + rank
    offsets = start[::nv]
    n = int(offsets[-1])
    dof_vertex = np.repeat(np.tile(np.arange(nv), n_spaces), fans)

    cracked = np.zeros((n_spaces, mesh.n_edges), dtype=bool)
    cracked.ravel()[np.repeat(spaces * mesh.n_edges, n_edges) + np.array(crack_ids, dtype=int)] = True
    kept = ~cracked[:, tables.dirichlet_edges]
    data_corners = (tables.dirichlet_corners + (spaces * nc)[:, None, None])[kept]
    constrained = np.zeros(n, dtype=bool)
    constrained[tri_dofs[data_corners]] = True
    dirichlet = constrained.nonzero()[0]
    if any(_closes_loop(tables, plan.crack_ids) for plan in block):
        links = (tables.tri_links + (spaces * nt)[:, None, None])[~cracked[:, tables.interior_edges]]
        components = _component_labels(n_spaces * nt, links)
    else:
        base = tables.base_tri_component
        components = (base + (int(base.max()) + 1) * spaces[:, None]).ravel()
    # one pinned DOF per component that the Dirichlet data cannot see;
    # the triangles sharing a DOF are one component, so a component sees
    # the data when one of its triangles holds a Dirichlet corner
    seen = np.zeros(int(components.max()) + 1, dtype=bool)
    seen[components[data_corners // 3]] = True
    pinned = (~seen).nonzero()[0]
    if pinned.size:
        dof_component = np.empty(n, dtype=int)
        dof_component[tri_dofs] = np.repeat(components, 3)
        lowest = np.full(seen.size, n)
        np.minimum.at(lowest, dof_component, np.arange(n))
        pinned = lowest[pinned]
        constrained[pinned] = True
    return _Spaces(tri_dofs, offsets, dof_vertex, dirichlet, pinned, constrained, components)


def _assemble_csr(tri_dofs: np.ndarray, local: np.ndarray,
                  offsets: np.ndarray | tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Assemble the element matrices `local` of the triangles' DOFs
    `tri_dofs` with the kernels `coo_matrix.tocsr` calls, in its order,
    so the CSR bytes are scipy's own: bucket by row, sort each row's
    columns unless all rows are sorted already, then sum duplicates in
    place.

    The DOFs may be those of several spaces, space s owning the DOFs
    offsets[s] to offsets[s+1] - 1 (an array for more than one space)
    and the rows that couple them. Each space's rows are then sorted
    when, and only when, they would be if it were assembled alone:
    csr_sort_indices's std::sort may reorder equal columns, and with
    them the sums of duplicates. Every DOF has entries, so no row is
    empty."""
    n = int(offsets[-1])
    idx = np.int32 if max(local.size, n) <= _INT32_MAX else np.int64
    tri_dofs = tri_dofs.astype(idx).reshape(-1, 3)
    # entry 9*t + 3*i + j of the element matrices is (slot i, slot j)
    rows = tri_dofs[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    cols = tri_dofs[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    indptr = np.empty(n + 1, dtype=idx)
    indices = np.empty(local.size, dtype=idx)
    data = np.empty(local.size)
    coo_tocsr(n, n, local.size, rows, cols, local, indptr, indices, data)
    if len(offsets) == 2:
        if not csr_has_sorted_indices(n, indptr, indices):
            csr_sort_indices(n, indptr, indices, data)
    else:
        # a descending pair of neighbour entries in one row
        down = indices[1:] < indices[:-1]
        down[indptr[1:-1] - 1] = False
        unsorted = np.zeros(len(offsets) - 1, dtype=bool)
        unsorted[np.searchsorted(indptr[offsets], down.nonzero()[0], side="right") - 1] = True
        if unsorted.all():
            csr_sort_indices(n, indptr, indices, data)
        else:
            for s in unsorted.nonzero()[0].tolist():
                lo, hi = offsets[s], offsets[s + 1]
                csr_sort_indices(hi - lo, indptr[lo:hi + 1], indices, data)
    csr_sum_duplicates(n, n, indptr, indices, data)
    nnz = int(indptr[-1])
    return indptr, indices[:nnz], data[:nnz]


def _free_block(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                free_mask: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, ...]:
    """The free x free block of a square CSR matrix as `a[free][:, free]`
    holds it: the kept entries copied in row order, columns renumbered."""
    kept = (np.repeat(free_mask, indptr[1:] - indptr[:-1])
            & free_mask[indices]).nonzero()[0]
    renumber = np.empty(free_mask.size, dtype=np.intp)
    renumber[free] = np.arange(free.size)
    starts = indptr[np.concatenate((free, [free_mask.size]))]
    return np.searchsorted(kept, starts), renumber[indices[kept]], data[kept]


def _free_rows(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """Rows and columns lo to hi - 1 of a block-diagonal CSR matrix that
    they close off, renumbered from 0: the matrix itself when they are
    all of its rows."""
    if lo == 0 and hi == indptr.size - 1:
        return indptr, indices, data
    first, last = indptr[lo], indptr[hi]
    return indptr[lo:hi + 1] - first, indices[first:last] - lo, data[first:last]


def _cg_maxiter(n_free: int) -> int:
    return max(2000, 20 * n_free)


def _cg(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
        b: np.ndarray, diag: np.ndarray, maxiter: int) -> tuple[np.ndarray, int]:
    """`spla.cg(A, b, rtol=CG_RTOL, atol=0, M=x -> x / diag, maxiter)` on
    a CSR matrix, operation for operation, so x and info are scipy's bit
    for bit: the same products, reductions and updates in the same order,
    without its operator wrappers."""
    atol = max(0.0, CG_RTOL * math.sqrt(b.dot(b)))
    x = np.zeros(b.size)
    r = b.copy()
    p = rho_prev = None
    for iteration in range(maxiter):
        if math.sqrt(r.dot(r)) < atol:
            return x, 0
        z = r / diag
        rho_cur = r.dot(z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z
        q = _matvec(indptr, indices, data, p)
        alpha = rho_cur / p.dot(q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
    return x, maxiter


def _solve_runs(reduced: tuple[np.ndarray, ...], b: np.ndarray, diag: np.ndarray,
                n_free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_cg` on each system of the reduced block-diagonal matrix, whose
    systems have the free sizes n_free, in runs of equal size: x, and
    each system's info. A system with no unknowns or a zero right-hand
    side is not solved (x = 0, info 0); the others of a run go through
    one `_block_cg`, or `_cg` when one is left."""
    x = np.zeros(b.size)
    info = np.zeros(n_free.size, dtype=int)
    starts = np.zeros(n_free.size + 1, dtype=int)
    np.cumsum(n_free, out=starts[1:])
    sizes = n_free.tolist()
    lo = 0
    while lo < len(sizes):
        size, hi = sizes[lo], lo + 1
        while hi < len(sizes) and sizes[hi] == size:
            hi += 1
        first, last = starts[lo], starts[hi]
        rhs = b[first:last].reshape(-1, size) if size else None
        live = _rowdots(rhs, rhs) != 0.0 if size else None
        if size and live.any():
            system = _free_rows(*reduced, first, last)
            run_diag = diag[first:last].reshape(-1, size)
            if not live.all():
                system = _keep_systems(*system, size, live)
                rhs, run_diag = rhs[live], run_diag[live]
            maxiter = _cg_maxiter(size)
            if rhs.shape[0] == 1:
                x_one, info_one = _cg(*system, rhs[0], run_diag[0], maxiter)
                x_run, info_run = x_one[None], [info_one]
            else:
                x_run, info_run = _block_cg(*system, rhs, run_diag, maxiter)
            x[first:last].reshape(-1, size)[live] = x_run
            info[lo:hi][live] = info_run
        lo = hi
    return x, info


def _solve(csr: tuple[np.ndarray, ...], constrained: np.ndarray, u: np.ndarray,
           n_free: np.ndarray, all_residuals: bool = False
           ) -> tuple[np.ndarray, list[NumericalError | None], list[float]]:
    """Minimize the quadratic form of the block-diagonal stiffness `csr`
    with u fixed on the `constrained` DOFs: on entry u holds the data
    there and +0.0 on the free DOFs, whose counts per space, in DOF
    order, are `n_free`; on return u holds the minimizer. Returns A u,
    each space's NumericalError if its CG failed (else None), and the
    relative residual of each space's reduced system: computed where the
    CG failed, or for every space when `all_residuals`, and 0.0 where
    the space has no system to solve or was not asked for.

    `_solve_runs` solves the reduced systems, in runs of equal free
    size, so with their spaces ordered by free size a block solves each
    size at once."""
    indptr, indices, data = csr
    n = u.size
    free_mask = ~constrained
    free = free_mask.nonzero()[0]
    # u is +0 on the free DOFs, so only the constrained columns add; a
    # row's sum does not depend on which other rows are computed
    b = -_matvec(indptr, indices, data, u)[free]
    diag = np.empty(n)
    csr_diagonal(0, n, n, indptr, indices, data, diag)
    reduced = _free_block(indptr, indices, data, free_mask, free)
    x, info = _solve_runs(reduced, b, diag[free], n_free)
    starts = np.zeros(n_free.size + 1, dtype=int)
    np.cumsum(n_free, out=starts[1:])
    errors: list[NumericalError | None] = [None] * n_free.size
    residual = [0.0] * n_free.size
    for s in range(n_free.size) if all_residuals else info.nonzero()[0].tolist():
        first, last = starts[s], starts[s + 1]
        bnorm = math.sqrt(b[first:last].dot(b[first:last]))
        if bnorm != 0.0:
            res = _matvec(*_free_rows(*reduced, first, last), x[first:last]) - b[first:last]
            residual[s] = math.sqrt(res.dot(res)) / bnorm
        if info[s]:
            errors[s] = NumericalError(
                f"CG failed to converge (info={int(info[s])}, residual={residual[s]:.3e})")
    u[free] = x
    return _matvec(indptr, indices, data, u), errors, residual


def solve_block(block: Sequence[SpacePlan], load: BoundaryLoad) -> list[Entry]:
    """Per space of the block (one or more), the energy of
    `solve_on_space(1.0, space, load)` and the pairing g . (A u) of the
    load profile g with the stiffness times the field, or the
    NumericalError that this solve raises, bit for bit whatever else
    the block holds.

    `_build_spaces` lays the spaces side by side, and they are ordered
    so that the spaces of each free size are one run of rows. One
    `_assemble_csr` builds the block, in which every row holds its
    entries in its own space's order, so every matvec, diagonal and
    free-block row is the space's own, and `_solve` solves each run of
    equal free size at once."""
    spaces = _build_spaces(block)
    tables = _mesh_tables(block[0].crack.mesh)
    tri_dofs, offsets, dof_vertex = spaces.tri_dofs, spaces.offsets, spaces.dof_vertex
    constrained, dirichlet = spaces.constrained, spaces.dirichlet
    n = constrained.size
    u = np.zeros(n)
    u[dirichlet] = load.amplitude(1.0) * load.profile[dof_vertex[dirichlet]]
    free_before = np.zeros(n + 1, dtype=int)
    np.cumsum(~constrained, out=free_before[1:])
    n_free = np.diff(free_before[offsets])
    order = np.argsort(n_free, kind="stable")
    if (n_free[1:] < n_free[:-1]).any():
        n_dofs = np.diff(offsets)
        new_offsets = np.zeros(len(block) + 1, dtype=int)
        np.cumsum(n_dofs[order], out=new_offsets[1:])
        shift = np.empty(len(block), dtype=int)
        shift[order] = new_offsets[:-1] - offsets[order]
        renumber = np.arange(n) + np.repeat(shift, n_dofs)
        old = np.empty(n, dtype=int)
        old[renumber] = np.arange(n)
        tri_dofs, offsets, n_free = renumber[tri_dofs], new_offsets, n_free[order]
        constrained, u, dof_vertex = constrained[old], u[old], dof_vertex[old]
    # a block of one reads the mesh's element matrices in place: a fresh
    # copy of them costs about 0.1 ms on a 48x48 grid
    local = tables.local if len(block) == 1 else np.tile(tables.local, len(block))
    csr = _assemble_csr(tri_dofs, local, offsets)
    au, errors, _ = _solve(csr, constrained, u, n_free)
    g = load.profile[dof_vertex]
    energy, pairing = np.empty(len(block)), np.empty(len(block))
    by_size: dict[int, list[int]] = {}
    for s, size in enumerate(np.diff(offsets).tolist()):
        by_size.setdefault(size, []).append(s)
    for size, group in by_size.items():
        if len(group) == len(block):
            # every space has this size (a block of one among them): the
            # rows lie in place
            u_at, au_at, g_at = u.reshape(-1, size), au.reshape(-1, size), g.reshape(-1, size)
        else:
            at = offsets[group][:, None] + np.arange(size)
            u_at, au_at, g_at = u[at], au[at], g[at]
        energy[group] = _rowdots(u_at, au_at)
        pairing[group] = _rowdots(g_at, au_at)
    entries: list[Entry] = [None] * len(block)
    for s, (where, e, p) in enumerate(zip(order.tolist(), energy.tolist(), pairing.tolist())):
        entries[where] = errors[s] or (0.5 * e, p)
    return entries


def _rowdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i].dot(b[i]) for each row i of two (m, n) arrays, bit for bit:
    a stack of vector products, which matmul hands to the same BLAS dot
    that ndarray.dot calls."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _keep_systems(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                  n: int, keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """From a block-diagonal CSR matrix of m systems of n unknowns each,
    system i on rows and columns i*n to i*n + n - 1, the block-diagonal
    matrix of the systems that the boolean mask `keep` selects, in
    order: their rows copied, their columns shifted down."""
    m = keep.size
    entries = np.diff(indptr[::n])
    kept = np.repeat(keep, entries)
    shift = n * (np.arange(m) + 1 - np.cumsum(keep))
    rows = np.diff(indptr).reshape(m, n)[keep].ravel()
    new_indptr = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(rows, out=new_indptr[1:])
    new_indices = (indices[kept] - np.repeat(shift[keep], entries[keep])).astype(indices.dtype)
    return new_indptr, new_indices, data[kept]


def _block_cg(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
              b: np.ndarray, diag: np.ndarray, maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """`_cg` on m systems of n unknowns at once, bit for bit per system:
    b and diag are (m, n), and the CSR matrix is block diagonal, system
    i on rows and columns i*n to i*n + n - 1. Every elementwise step is
    `_cg`'s, the dot products are `_rowdots` and the one matvec is
    csr_matvec over the block, whose rows are summed alone. A system
    leaves in the iteration where it converges, and the others go on
    without it. Returns x, (m, n), and each system's info."""
    m, n = b.shape
    x_out = np.zeros((m, n))
    info = np.full(m, maxiter)
    live = np.arange(m)
    atol = CG_RTOL * np.sqrt(_rowdots(b, b))
    x = np.zeros((m, n))
    r = b.copy()
    p = rho_prev = None
    for iteration in range(maxiter):
        done = np.sqrt(_rowdots(r, r)) < atol
        if done.any():
            x_out[live[done]] = x[done]
            info[live[done]] = 0
            keep = ~done
            if not keep.any():
                return x_out, info
            live, x, r, diag, atol = live[keep], x[keep], r[keep], diag[keep], atol[keep]
            if p is not None:
                p, rho_prev = p[keep], rho_prev[keep]
            indptr, indices, data = _keep_systems(indptr, indices, data, n, keep)
        z = r / diag
        rho_cur = _rowdots(r, z)
        if iteration > 0:
            p *= (rho_cur / rho_prev)[:, None]
            p += z
        else:
            p = z
        q = _matvec(indptr, indices, data, p.ravel()).reshape(p.shape)
        alpha = (rho_cur / _rowdots(p, q))[:, None]
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
    x_out[live] = x
    return x_out, info
