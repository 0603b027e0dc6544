"""Many cracked spaces solved as one block-diagonal system.

A scan's prefetch hands the energy cache the new spaces of a chunk of
candidates. `pack_blocks` packs them, in order, into blocks of at most
BLOCK_DOFS DOFs, and `solve_block` solves a block of two or more spaces
as one system: one fan numbering, one coo_tocsr, one free-block
extraction, and one block CG per run of equal free size. Each space
gets the (E, g . Au) that `elastic.solve_on_space` gives on the space
alone, bit for bit, so what the cache stores does not depend on the
path. The caller solves a space alone in its block by that lone path.
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
    _assemble_csr,
    _cg,
    _cg_failure,
    _cg_maxiter,
    _component_labels,
    _free_block,
    _matvec,
    _mesh_tables,
    csr_diagonal,
)
from .geometry import Mesh, MeshError

__all__ = ["BLOCK_DOFS", "Entry", "pack_blocks", "solve_block"]

# Most DOFs of a block that solve_block solves as one system
BLOCK_DOFS = 2048

# A space's (E, g . Au), or the NumericalError its solve raises
Entry = tuple[float, float] | NumericalError


def pack_blocks(mesh: Mesh, walks: Sequence[SpaceWalk]) -> list[list[SpacePlan]]:
    """The spaces of the walked cracks (see `elastic.space_walk`),
    planned and packed, in order, into blocks of at most BLOCK_DOFS DOFs
    (a space with more is a block alone), for `solve_block` to solve a
    block of two or more spaces at once."""
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
    """The spaces of a block side by side, each as CrackedSpace builds
    it, renumbered in the stable order of their free DOF counts: space
    s (of the block's `order[s]`) owns DOFs offsets[s] to
    offsets[s+1] - 1. `tri_dofs` is the DOF of every corner of every
    space, `constrained` marks the Dirichlet and pinned DOFs, and `u`
    holds the datum on the Dirichlet DOFs and +0.0 elsewhere."""

    tri_dofs: np.ndarray
    offsets: np.ndarray
    n_free: np.ndarray
    order: np.ndarray
    constrained: np.ndarray
    u: np.ndarray
    dof_vertex: np.ndarray


def _build_spaces(block: Sequence[SpacePlan], load: BoundaryLoad) -> _Spaces:
    """The fan numbering, Dirichlet DOFs and pinned DOFs of every space
    of the block, by CrackedSpace's rules, in one pass: vertex v of
    space s is s*nv + v and its corner c is s*nc + c, and the triangle
    components of all spaces are labelled in one `_component_labels`,
    those of space s after those of the spaces before it."""
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
    tri_dofs = start[(spaces[:, None] * nv + tables.corner_vertex).ravel()] + rank
    offsets = start[::nv]
    n = int(offsets[-1])
    dof_vertex = np.repeat(np.tile(np.arange(nv), n_spaces), fans)

    cracked = np.zeros((n_spaces, mesh.n_edges), dtype=bool)
    cracked.ravel()[np.repeat(spaces * mesh.n_edges, n_edges) + np.array(crack_ids, dtype=int)] = True
    # a cracked boundary edge releases its constraint
    kept = ~cracked[:, tables.dirichlet_edges]
    constrained = np.zeros(n, dtype=bool)
    constrained[tri_dofs[(tables.dirichlet_corners + (spaces * nc)[:, None, None])[kept]]] = True
    dirichlet = constrained.nonzero()[0]
    u = np.zeros(n)
    u[dirichlet] = load.amplitude(1.0) * load.profile[dof_vertex[dirichlet]]
    links = (tables.tri_links + (spaces * nt)[:, None, None])[~cracked[:, tables.interior_edges]]
    components = _component_labels(n_spaces * nt, links)
    dof_component = np.empty(n, dtype=int)
    dof_component[tri_dofs] = np.repeat(components, 3)
    # one pinned DOF per component that the Dirichlet data cannot see
    seen = np.zeros(int(components.max()) + 1, dtype=bool)
    seen[dof_component[dirichlet]] = True
    unseen = (~seen).nonzero()[0]
    if unseen.size:
        lowest = np.full(seen.size, n)
        np.minimum.at(lowest, dof_component, np.arange(n))
        constrained[lowest[unseen]] = True

    free_before = np.zeros(n + 1, dtype=int)
    np.cumsum(~constrained, out=free_before[1:])
    n_free = np.diff(free_before[offsets])
    order = np.argsort(n_free, kind="stable")
    if (n_free[1:] < n_free[:-1]).any():
        n_dofs = np.diff(offsets)
        new_offsets = np.zeros(n_spaces + 1, dtype=int)
        np.cumsum(n_dofs[order], out=new_offsets[1:])
        shift = np.empty(n_spaces, dtype=int)
        shift[order] = new_offsets[:-1] - offsets[order]
        renumber = np.arange(n) + np.repeat(shift, n_dofs)
        old = np.empty(n, dtype=int)
        old[renumber] = np.arange(n)
        tri_dofs, offsets, n_free = renumber[tri_dofs], new_offsets, n_free[order]
        constrained, u, dof_vertex = constrained[old], u[old], dof_vertex[old]
    return _Spaces(tri_dofs, offsets, n_free, order, constrained, u, dof_vertex)


def _free_rows(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """Rows and columns lo to hi - 1 of a block-diagonal CSR matrix that
    they close off, renumbered from 0."""
    first, last = indptr[lo], indptr[hi]
    return indptr[lo:hi + 1] - first, indices[first:last] - lo, data[first:last]


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
            if not live.all():
                system = _keep_systems(*system, size, live)
            rhs, run_diag = rhs[live], diag[first:last].reshape(-1, size)[live]
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


def solve_block(block: Sequence[SpacePlan], load: BoundaryLoad) -> list[Entry]:
    """Per space of the block (two or more), the energy of
    `solve_on_space(1.0, space, load)` and the pairing g . (A u) of the
    load profile g with the stiffness times the field, or the
    NumericalError that this solve raises, all bit for bit as each
    space alone, from one block-diagonal system.

    `_build_spaces` lays the spaces side by side, ordered so that the
    spaces of each free size are one run of rows. One `_assemble_csr`
    builds the block, in which every row holds its entries in its own
    space's order, so every matvec, diagonal and free-block row is the
    space's own, and `_solve_runs` solves each run of equal free size
    at once."""
    spaces = _build_spaces(block, load)
    tables = _mesh_tables(block[0].crack.mesh)
    offsets, u = spaces.offsets, spaces.u
    n = u.size
    indptr, indices, data = _assemble_csr(spaces.tri_dofs, np.tile(tables.local, len(block)),
                                          offsets)
    free_mask = ~spaces.constrained
    free = free_mask.nonzero()[0]
    b = -_matvec(indptr, indices, data, u)[free]
    diag = np.empty(n)
    csr_diagonal(0, n, n, indptr, indices, data, diag)
    reduced = _free_block(indptr, indices, data, free_mask, free)
    x, info = _solve_runs(reduced, b, diag[free], spaces.n_free)
    failed = {}
    starts = np.zeros(len(block) + 1, dtype=int)
    np.cumsum(spaces.n_free, out=starts[1:])
    for s in info.nonzero()[0].tolist():
        first, last = starts[s], starts[s + 1]
        res = _matvec(*_free_rows(*reduced, first, last), x[first:last]) - b[first:last]
        bnorm = math.sqrt(b[first:last].dot(b[first:last]))
        failed[s] = _cg_failure(int(info[s]), math.sqrt(res.dot(res)) / bnorm)

    u[free] = x
    au = _matvec(indptr, indices, data, u)
    g = load.profile[spaces.dof_vertex]
    energy, pairing = np.empty(len(block)), np.empty(len(block))
    by_size: dict[int, list[int]] = {}
    for s, size in enumerate(np.diff(offsets).tolist()):
        by_size.setdefault(size, []).append(s)
    for size, group in by_size.items():
        at = offsets[group][:, None] + np.arange(size)
        au_at = au[at]
        energy[group] = _rowdots(u[at], au_at)
        pairing[group] = _rowdots(g[at], au_at)
    entries: list[Entry] = [None] * len(block)
    for s, (where, e, p) in enumerate(zip(spaces.order.tolist(), energy.tolist(),
                                          pairing.tolist())):
        entries[where] = failed[s] if s in failed else (0.5 * e, p)
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
