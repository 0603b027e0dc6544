"""Elastic energy of the cracked membrane.

The displacement is scalar (antiplane shear); the energy at time t and
crack K is the Dirichlet minimum

    E(t, K) = min { 1/2 integral over Omega\\K of |grad u|^2 }

over P1 fields matching the boundary datum a(t)*G on the Dirichlet part
of the boundary not released by the crack. Cracks are mesh edges; the
field may jump across them, which we realize by duplicating vertex DOFs
per fan of triangles around each split vertex.

Also here: the power (time derivative of E along the loading), the a
priori constant bounding it, and two independent estimators of the
energy release rate at a crack tip (finite differences in crack length,
and the stress intensity factor from an annulus fit).
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import (
    coo_tocsr,
    csr_diagonal,
    csr_has_sorted_indices,
    csr_matvec,
    csr_sort_indices,
    csr_sum_duplicates,
)

from .geometry import (
    INTERIOR,
    CrackSet,
    Mesh,
    MeshError,
    connected_components,
    dist_points_to_segments,
    union_groups,
)

__all__ = [
    "ElasticError",
    "NumericalError",
    "LinearAmplitude",
    "TableAmplitude",
    "BoundaryLoad",
    "CrackedSpace",
    "EnergySolution",
    "split_along_crack",
    "space_key",
    "solve_energy",
    "power",
    "power_bound_constant",
    "energy_release",
    "fit_sif",
]

CG_RTOL = 1e-10
_INT32_MAX = int(np.iinfo(np.int32).max)


class ElasticError(Exception):
    """Raised for invalid loads/spaces and for solver non-convergence."""


class NumericalError(ElasticError):
    """A failed computation: CG not converging, or an energy under the floor."""


@dataclass(frozen=True)
class LinearAmplitude:
    """a(t) = c0 + c1*t, with exact derivative."""

    c0: float
    c1: float

    def __call__(self, t: float) -> float:
        return self.c0 + self.c1 * t

    def derivative(self, t: float) -> float:
        return self.c1

    def max_abs_derivative(self, horizon: float) -> float:
        return abs(self.c1)


class TableAmplitude:
    """Tabulated a(t): piecewise-linear values, piecewise-constant
    derivative (taken from the interval right of t, left at the end)."""

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ElasticError("amplitude table needs matching times and values, at least two rows")
        if not np.all(np.diff(t) > 0):
            raise ElasticError("amplitude table times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ElasticError("amplitude table entries must be finite")
        self.times = t
        self.values = v
        self.slopes = np.diff(v) / np.diff(t)

    def __call__(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))

    def derivative(self, t: float) -> float:
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        i = min(max(i, 0), len(self.slopes) - 1)
        return float(self.slopes[i])

    def max_abs_derivative(self, horizon: float) -> float:
        inside = self.times[:-1] < horizon
        slopes = self.slopes[inside] if inside.any() else self.slopes
        return float(np.max(np.abs(slopes)))


@dataclass(frozen=True)
class BoundaryLoad:
    """Loading datum: nodal profile G on every vertex (its restriction to
    the Dirichlet boundary is the datum, the rest is the extension used
    in the power formula), a scalar amplitude a(t), and the horizon T."""

    profile: np.ndarray
    amplitude: LinearAmplitude | TableAmplitude
    horizon: float

    def __post_init__(self):
        prof = np.asarray(self.profile, dtype=float)
        if prof.ndim != 1 or not np.all(np.isfinite(prof)):
            raise ElasticError("load profile must be a finite 1d nodal array")
        object.__setattr__(self, "profile", prof)
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ElasticError("load horizon must be positive")

    def unit(self) -> BoundaryLoad:
        """The same profile and horizon at amplitude a = 1."""
        return BoundaryLoad(profile=self.profile,
                            amplitude=LinearAmplitude(1.0, 0.0),
                            horizon=self.horizon)

    def check_mesh(self, mesh: Mesh) -> None:
        if self.profile.shape[0] != mesh.n_vertices:
            raise ElasticError(
                f"load profile has {self.profile.shape[0]} values for a mesh "
                f"with {mesh.n_vertices} vertices")


class _MeshTables:
    """Crack-independent tables of one mesh, built once by array
    operations and shared by every CrackedSpace on that mesh.

    They read the mesh's topology and do not derive it again: half-edge
    3*t + k is side k of triangle t, so its edge is `mesh.tri_edges[t, k]`,
    and the interior edges are those tagged INTERIOR.

    A corner is a (triangle, slot) pair, numbered 3*t + slot. Around each
    vertex its corners are listed in triangle order, and every interior
    edge through the vertex links the two corners it joins there. The
    base fans are those of the empty crack: one per vertex, except at a
    pinch vertex whose star is already split (two triangles meeting only
    at that vertex). Base DOF n is the n-th fan in (vertex, smallest
    triangle) order, the numbering CrackedSpace keeps. The fans are the
    components of the corner links, and `base_tri_component` labels the
    components of the triangles joined by interior edges, numbered by
    smallest triangle; both come from `_component_labels`, a union-find
    in numpy. The per-vertex walks of a crack read flat Python int lists
    (`*_list`): the edge ends `edge_a_list`/`edge_b_list`, and per link,
    grouped by vertex through `link_ptr_list`, its edge and two corners
    (`link_edge_list`, `link_a_list`, `link_b_list`). No container is
    kept per edge or per link.

    A crack's fans at a vertex depend only on which edges through it
    are cut, so `fans` keeps them per (vertex, cut) as the pattern is
    first met; see `_Fans`.
    """

    def __init__(self, mesh: Mesh):
        nv, nt, ne = mesh.n_vertices, mesh.n_triangles, mesh.n_edges
        self.corner_vertex = mesh.triangles.ravel()
        corner_order = np.argsort(self.corner_vertex, kind="stable")
        # half-edges h = 3*t + k join the corners at slots k and k+1 mod 3
        ca = np.arange(3 * nt)
        cb = ca + np.tile([1, 1, -2], nt)
        va, vb = self.corner_vertex[ca], self.corner_vertex[cb]
        c_lo = np.where(va < vb, ca, cb)
        c_hi = np.where(va < vb, cb, ca)
        half_edge = mesh.tri_edges.ravel()
        by_edge = np.argsort(half_edge, kind="stable")
        first = np.searchsorted(half_edge[by_edge], np.arange(ne))
        is_interior = mesh.edge_tags == INTERIOR
        self.interior_edges = np.flatnonzero(is_interior)
        h1 = by_edge[first[self.interior_edges]]
        h2 = by_edge[first[self.interior_edges] + 1]
        self.tri_links = np.column_stack([h1 // 3, h2 // 3])
        # the corner links of each interior edge at both ends, by vertex
        link_edge = np.concatenate([self.interior_edges, self.interior_edges])
        link_corners = np.column_stack([np.concatenate([c_lo[h1], c_hi[h1]]),
                                        np.concatenate([c_lo[h2], c_hi[h2]])])
        link_vertex = self.corner_vertex[link_corners[:, 0]]
        by_vertex = np.argsort(link_vertex, kind="stable")
        link_corners = link_corners[by_vertex]
        # the two corners of each Dirichlet edge in its single triangle
        self.dirichlet_edges = mesh.dirichlet_edges()
        self.dirichlet_bits = sum(1 << e for e in self.dirichlet_edges.tolist())
        h = by_edge[first[self.dirichlet_edges]]
        self.dirichlet_corners = np.column_stack([c_lo[h], c_hi[h]])
        on_boundary = np.zeros(nv, dtype=bool)
        on_boundary[mesh.edges[~is_interior]] = True
        # base fans: the first corner of each fan in (vertex, triangle)
        # order opens the next DOF
        fan = _component_labels(3 * nt, link_corners)[corner_order]
        opens = np.zeros(3 * nt, dtype=bool)
        opens[np.unique(fan, return_index=True)[1]] = True
        fan_dof = np.empty(3 * nt, dtype=int)
        fan_dof[fan[opens]] = np.arange(int(opens.sum()))
        base_dof = np.empty(3 * nt, dtype=int)
        base_dof[corner_order] = fan_dof[fan]
        self.base_fans = np.bincount(self.corner_vertex[corner_order[opens]], minlength=nv)
        self.base_rank = base_dof - (np.cumsum(self.base_fans) - self.base_fans)[self.corner_vertex]
        self.base_tri_component = _component_labels(nt, self.tri_links)
        self.grads = _p1_gradients(mesh)
        self.local = (np.einsum("tid,tjd->tij", self.grads, self.grads)
                      * mesh.triangle_areas[:, None, None]).ravel()
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.edge_a_list, self.edge_b_list = mesh.edges.T.tolist()
        self.is_interior_list = is_interior.tolist()
        self.on_boundary_list = on_boundary.tolist()
        self.corner_order_list = corner_order.tolist()
        self.corner_ptr_list = np.searchsorted(self.corner_vertex[corner_order],
                                               np.arange(nv + 1)).tolist()
        self.link_edge_list = link_edge[by_vertex].tolist()
        self.link_a_list, self.link_b_list = link_corners.T.tolist()
        self.link_ptr_list = np.searchsorted(link_vertex[by_vertex],
                                             np.arange(nv + 1)).tolist()
        self._fans: dict[tuple[int, int], _Fans] = {}

    def cuts(self, crack_ids: Sequence[int]) -> dict[int, int]:
        """Per vertex that a cracked interior edge ends at, the mask of
        the cracked interior edges through it. Every other vertex keeps
        its base fans."""
        cuts: dict[int, int] = {}
        interior, ends_a, ends_b = self.is_interior_list, self.edge_a_list, self.edge_b_list
        for e in crack_ids:
            if interior[e]:
                bit = 1 << e
                a, b = ends_a[e], ends_b[e]
                cuts[a] = cuts.get(a, 0) | bit
                cuts[b] = cuts.get(b, 0) | bit
        return cuts

    def fans(self, v: int, cut: int) -> "_Fans":
        """The fans of vertex v once the interior edges of the mask `cut`,
        all through v, are cracked: its corners grouped by the links of
        its uncut edges, groups ordered by smallest triangle."""
        fans = self._fans.get((v, cut))
        if fans is None:
            lo, hi = self.link_ptr_list[v], self.link_ptr_list[v + 1]
            link_edge, link_a, link_b = self.link_edge_list, self.link_a_list, self.link_b_list
            corners = self.corner_order_list[self.corner_ptr_list[v]:self.corner_ptr_list[v + 1]]
            groups = union_groups(corners, [(link_a[i], link_b[i]) for i in range(lo, hi)
                                            if not (cut >> link_edge[i]) & 1])
            fan_of, moved, ranks = {}, [], []
            for r, group in enumerate(groups):
                moved += group
                ranks += [r] * len(group)
                fan_of.update(dict.fromkeys(group, r))
            separating = 0
            for i in range(lo, hi):
                if fan_of[link_a[i]] != fan_of[link_b[i]]:
                    separating |= 1 << link_edge[i]
            fans = self._fans[v, cut] = _Fans(len(groups), tuple(moved), tuple(ranks),
                                              separating)
        return fans

    def space_key(self, crack: CrackSet) -> int:
        """The key of the space cut along `crack`, read off the fan memo
        without building the space; see `space_key`."""
        key = crack.bits & self.dirichlet_bits
        for v, cut in self.cuts(crack.edge_ids).items():
            key |= self.fans(v, cut).separating
        return key


class _Fans(NamedTuple):
    """The fans of one vertex under one cut: how many, the vertex's
    corners in fan order with the rank of each corner's fan, and the
    separating mask, the cut edges whose two corners at the vertex lie
    in different fans. Only a cut edge can separate, and a cut edge that
    does not separate merges nothing when its link is put back, so the
    fans are the components of the vertex's links minus the separating
    ones, and in turn fix them."""

    count: int
    corners: tuple[int, ...]
    ranks: tuple[int, ...]
    separating: int


_TABLES: "weakref.WeakKeyDictionary[Mesh, _MeshTables]" = weakref.WeakKeyDictionary()


def _mesh_tables(mesh: Mesh) -> _MeshTables:
    tables = _TABLES.get(mesh)
    if tables is None:
        tables = _TABLES[mesh] = _MeshTables(mesh)
    return tables


def _component_labels(n: int, links: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n nodes joined by the (m, 2)
    links, numbered 0, 1, ... in order of each component's first node.

    A union-find by array operations: every round hooks the larger root
    of each link whose ends have different roots onto the smallest root
    it is linked to, then jumps pointers until every node points at its
    root. A node's parent is never larger than the node, so each root is
    the smallest node of its tree, and once no link joins two trees each
    root is the first node of its component. Grid meshes take 2 rounds,
    a randomly numbered path of 10^5 nodes 11. Hooking onto the smallest
    root matters: hooked onto any smaller one, a star whose leaves are
    listed in ascending order joins one leaf per round.
    """
    parent = np.arange(n)
    a, b = links[:, 0], links[:, 1]
    while True:
        root_a, root_b = parent[a], parent[b]
        apart = root_a != root_b
        if not apart.any():
            break
        root_a, root_b = root_a[apart], root_b[apart]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    is_root = parent == np.arange(n)
    return (np.cumsum(is_root) - 1)[parent]


class CrackedSpace:
    """P1 space on the mesh cut along a crack set.

    Around every vertex the incident triangles are grouped into fans:
    two triangles are in the same fan when they share a non-crack edge
    through that vertex. Each fan carries one DOF, so a vertex whose
    star is disconnected by crack edges is duplicated, while a tip
    vertex (star still connected) keeps a single DOF. DOFs are numbered
    by vertex, then by the smallest triangle of the fan.

    Only the vertices of cracked interior edges can have other fans
    than the mesh's base fans; each reads its fans from the mesh tables'
    memo by the cut edges through it, and every array follows from the
    per-vertex fan counts and ranks.

    The constructor builds the fan numbering (`tri_dofs`, `dof_vertex`,
    `n_dofs`) and then the constraints, since every space a run builds
    is solved: `dirichlet_dofs`, the triangle components, and a pinned
    DOF per component the data cannot see. `tri_component` labels the
    triangles by smallest triangle, two sharing a label when a chain of
    uncracked interior edges joins them; it is the mesh's base labelling
    unless the crack closes a loop, and only then is it relabelled by
    `_component_labels` over the uncracked links. Two spaces with equal
    `tri_dofs` that release the same Dirichlet edges, exactly the spaces
    with equal `space_key`, are the same space: equal stiffness,
    constraints and data. The stiffness reads `tri_dofs` alone.
    `dof_vertex` is the vertex of each DOF's corners. `dirichlet_dofs`
    are the DOFs at the corners of the Dirichlet edges the crack leaves.
    Two triangles are in one component exactly when a chain of triangles
    sharing a DOF joins them: an uncracked interior edge puts its two
    triangles in one fan at both of its ends, and the triangles of a fan
    are joined through its uncracked edges. So the components, their
    first DOFs, the pinned DOFs and `constrained_mask` follow from
    `tri_dofs` and the released Dirichlet edges too.
    """

    def __init__(self, mesh: Mesh, crack: CrackSet):
        self.mesh = mesh
        self.crack = crack
        tables = _mesh_tables(mesh)
        crack_ids = crack.edge_ids
        fans = tables.base_fans.copy()
        rank = tables.base_rank.copy()
        cuts = tables.cuts(crack_ids)
        if cuts:
            counts, moved, moved_rank = [], [], []
            for v, cut in cuts.items():
                got = tables.fans(v, cut)
                counts.append(got.count)
                moved += got.corners
                moved_rank += got.ranks
            fans[list(cuts)] = counts
            rank[moved] = moved_rank
        start = np.zeros(mesh.n_vertices + 1, dtype=int)
        np.cumsum(fans, out=start[1:])
        self.tri_dofs = (start[tables.corner_vertex] + rank).reshape(-1, 3)
        self.dof_vertex = np.repeat(np.arange(mesh.n_vertices), fans)
        self.n_dofs = n = int(start[-1])

        cracked = np.zeros(mesh.n_edges, dtype=bool)
        cracked[list(crack_ids)] = True
        # a cracked boundary edge releases its constraint
        kept = tables.dirichlet_corners[~cracked[tables.dirichlet_edges]]
        mask = np.zeros(n, dtype=bool)
        mask[self.tri_dofs.ravel()[kept]] = True
        self.dirichlet_dofs = np.flatnonzero(mask)
        # Cutting interior edges can split a triangle component only if
        # they close a loop once all boundary vertices are merged into one
        # node (-1); a forest of them leaves the base components.
        on_boundary = tables.on_boundary_list
        links = []
        for e in crack_ids:
            if tables.is_interior_list[e]:
                a, b = tables.edge_a_list[e], tables.edge_b_list[e]
                links.append((-1 if on_boundary[a] else a, -1 if on_boundary[b] else b))
        nodes = sorted({v for link in links for v in link})
        if len(links) == len(nodes) - len(union_groups(nodes, links)):
            self.tri_component = tables.base_tri_component
        else:
            kept = tables.tri_links[~cracked[tables.interior_edges]]
            self.tri_component = _component_labels(mesh.n_triangles, kept)
        self.n_components = int(self.tri_component.max()) + 1
        self.dof_component = np.empty(n, dtype=int)
        self.dof_component[self.tri_dofs.ravel()] = np.repeat(self.tri_component, 3)
        # one pinned DOF per component that the Dirichlet data cannot see
        seen = np.zeros(self.n_components, dtype=bool)
        seen[self.dof_component[self.dirichlet_dofs]] = True
        unseen = np.flatnonzero(~seen)
        first = np.full(self.n_components, n)
        if unseen.size:
            np.minimum.at(first, self.dof_component, np.arange(n))
        self.pinned_dofs = first[unseen]
        mask[self.pinned_dofs] = True
        self.constrained_mask = mask
        self._csr = None

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stiffness as raw CSR arrays (indptr, indices, data), the
        bytes `coo_matrix(...).tocsr()` would hold."""
        if self._csr is None:
            self._csr = _assemble_csr(self)
        return self._csr

    def stiffness(self) -> sp.csr_matrix:
        indptr, indices, data = self.csr_arrays()
        return sp.csr_matrix((data, indices, indptr), shape=(self.n_dofs, self.n_dofs))

    def dof_positions(self) -> np.ndarray:
        return self.mesh.vertices[self.dof_vertex]

    def fan_centroid_offsets(self) -> np.ndarray:
        """Per DOF, the mean offset from its vertex to the centroids of
        the fan's triangles. Identifies which side of a crack a
        duplicated DOF lives on."""
        mesh = self.mesh
        centroids = np.repeat(mesh.vertices[mesh.triangles].mean(axis=1), 3, axis=0)
        dofs = self.tri_dofs.ravel()
        acc = np.column_stack([
            np.bincount(dofs, weights=centroids[:, i], minlength=self.n_dofs)
            for i in range(2)])
        cnt = np.bincount(dofs, minlength=self.n_dofs).astype(float)
        return acc / cnt[:, None] - self.dof_positions()


def split_along_crack(mesh: Mesh, crack: CrackSet) -> CrackedSpace:
    if crack.mesh is not mesh:
        raise MeshError("crack set does not belong to this mesh")
    return CrackedSpace(mesh, crack)


def space_key(mesh: Mesh, crack: CrackSet) -> int:
    """The key of split_along_crack(mesh, crack), without building it:
    the mask of the cracked edges that separate fans at either end,
    OR-ed with the crack's Dirichlet edges. Each vertex's fans are the
    components of its links minus the separating ones, so two cracks
    have equal keys exactly when their spaces have equal `tri_dofs` and
    release the same Dirichlet edges."""
    if crack.mesh is not mesh:
        raise MeshError("crack set does not belong to this mesh")
    return _mesh_tables(mesh).space_key(crack)


def _p1_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the three barycentric basis functions, (nt, 3, 2)."""
    pts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    # gradients of the barycentric functions: rotate opposite edges
    e0 = pts[:, 2] - pts[:, 1]
    e1 = pts[:, 0] - pts[:, 2]
    e2 = pts[:, 1] - pts[:, 0]
    edges = np.stack([e0, e1, e2], axis=1)  # (nt, 3, 2)
    grads = np.empty_like(edges)
    grads[:, :, 0] = -edges[:, :, 1]
    grads[:, :, 1] = edges[:, :, 0]
    grads /= (2.0 * mesh.triangle_areas)[:, None, None]
    return grads


def energy_on_triangles(space: CrackedSpace, u: np.ndarray, tri_ids) -> float:
    """Dirichlet energy of the nodal field u restricted to a triangle
    subset. Used by the localized stability probes."""
    tri_ids = np.asarray(tri_ids, dtype=int)
    if tri_ids.size == 0:
        return 0.0
    grads = _mesh_tables(space.mesh).grads[tri_ids]
    uv = u[space.tri_dofs[tri_ids]]  # (m, 3)
    g = np.einsum("tid,ti->td", grads, uv)
    area = space.mesh.triangle_areas[tri_ids]
    return 0.5 * float(np.einsum("td,td,t->", g, g, area))


def _assemble_csr(space: CrackedSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the element matrices with the kernels `coo_matrix.tocsr`
    calls, in its order, so the CSR bytes are scipy's own: bucket by row,
    sort each row's columns unless all rows are sorted already, then sum
    duplicates in place."""
    n = space.n_dofs
    local = _mesh_tables(space.mesh).local
    idx = np.int32 if max(local.size, n) <= _INT32_MAX else np.int64
    tri_dofs = space.tri_dofs.astype(idx)
    # entry 9*t + 3*i + j of the element matrices is (slot i, slot j)
    rows = tri_dofs[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    cols = tri_dofs[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    indptr = np.empty(n + 1, dtype=idx)
    indices = np.empty(local.size, dtype=idx)
    data = np.empty(local.size)
    coo_tocsr(n, n, local.size, rows, cols, local, indptr, indices, data)
    if not csr_has_sorted_indices(n, indptr, indices):
        csr_sort_indices(n, indptr, indices, data)
    csr_sum_duplicates(n, n, indptr, indices, data)
    nnz = int(indptr[-1])
    return indptr, indices[:nnz], data[:nnz]


@dataclass(frozen=True)
class EnergySolution:
    """Energy value, nodal field per DOF, solver residual, the space the
    field lives on, and the stiffness times the field (`au` = A u)."""

    energy: float
    u: np.ndarray
    residual: float
    space: CrackedSpace
    au: np.ndarray


def _matvec(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
            x: np.ndarray) -> np.ndarray:
    """A x for a square CSR matrix, as `csr_matrix @ x` computes it."""
    y = np.zeros(x.size)
    csr_matvec(x.size, x.size, indptr, indices, data, x, y)
    return y


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


def _solve_constrained(space: CrackedSpace, values: np.ndarray,
                       mask: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Minimize the quadratic form subject to u = values on constrained
    DOFs (by default Dirichlet + pinned; probes pass their own mask).
    Returns the full field and the relative residual of the reduced
    system."""
    indptr, indices, data = space.csr_arrays()
    if mask is None:
        mask = space.constrained_mask
    n = space.n_dofs
    u = np.zeros(n)
    u[mask] = values[mask]
    free_mask = ~mask
    free = free_mask.nonzero()[0]
    if free.size == 0:
        return u, 0.0
    # u is +0 on the free DOFs, so only the constrained columns add; a
    # row's sum does not depend on which other rows are computed
    b = -_matvec(indptr, indices, data, u)[free]
    bnorm = math.sqrt(b.dot(b))
    if bnorm == 0.0:
        return u, 0.0
    diag = np.empty(n)
    csr_diagonal(0, n, n, indptr, indices, data, diag)
    block = _free_block(indptr, indices, data, free_mask, free)
    x, info = _cg(*block, b, diag[free], _cg_maxiter(free.size))
    res = _matvec(*block, x) - b
    residual = math.sqrt(res.dot(res)) / bnorm
    if info != 0:
        raise NumericalError(f"CG failed to converge (info={info}, residual={residual:.3e})")
    u[free] = x
    return u, residual


def solve_energy(t: float, crack: CrackSet, load: BoundaryLoad) -> EnergySolution:
    """Minimum elastic energy at time t with the given crack.

    Dirichlet DOFs carry a(t)*G; components invisible to the data are
    pinned at zero (constants are minimizers there, so the energy does
    not depend on the choice).
    """
    mesh = crack.mesh
    load.check_mesh(mesh)
    space = split_along_crack(mesh, crack)
    return solve_on_space(t, space, load)


def solve_on_space(t: float, space: CrackedSpace, load: BoundaryLoad) -> EnergySolution:
    """Same as solve_energy, reusing an already-built space."""
    at = load.amplitude(t)
    values = np.zeros(space.n_dofs)
    values[space.dirichlet_dofs] = at * load.profile[space.dof_vertex[space.dirichlet_dofs]]
    u, residual = _solve_constrained(space, values)
    au = _matvec(*space.csr_arrays(), u)
    return EnergySolution(energy=0.5 * float(u @ au), u=u, residual=residual,
                          space=space, au=au)


def power(t: float, crack: CrackSet, load: BoundaryLoad,
          solution: EnergySolution | None = None) -> float:
    """Time derivative of E along the loading.

    At the minimizer the residual of the stiffness system vanishes on
    free DOFs, so (A u) pairs only against the Dirichlet trace of the
    variation; any extension of G gives the same value. We use the nodal
    profile itself.
    """
    if solution is None:
        solution = solve_energy(t, crack, load)
    space = solution.space
    g = load.profile[space.dof_vertex]
    return load.amplitude.derivative(t) * float(g @ solution.au)


def power_bound_constant(load: BoundaryLoad, mesh: Mesh) -> float:
    """The constant C_P with |dE/dt| <= C_P (E + 1): the largest load
    rate ||grad g_dot|| times max(area/2, 1)."""
    load.check_mesh(mesh)
    space = split_along_crack(mesh, CrackSet.empty(mesh))
    g = load.profile[space.dof_vertex]
    grad_norm = math.sqrt(max(float(g @ (space.stiffness() @ g)), 0.0))
    rate = load.amplitude.max_abs_derivative(load.horizon)
    return rate * grad_norm * max(0.5 * mesh.area, 1.0)


def _tip_vertices(crack: CrackSet) -> set[int]:
    """Vertices met by exactly one crack edge."""
    degree: dict[int, int] = {}
    for e in crack.edge_ids:
        for v in map(int, crack.mesh.edges[e]):
            degree[v] = degree.get(v, 0) + 1
    return {v for v, d in degree.items() if d == 1}


def energy_release(t: float, crack: CrackSet, load: BoundaryLoad,
                   tip_extension_edges: Sequence[int], h_steps: int = 3) -> float:
    """Energy release rate G = -dE/dsigma at a tip, by a least-squares
    slope through the energies of the first h_steps path extensions."""
    mesh = crack.mesh
    tips = _tip_vertices(crack)
    if not tips:
        raise ElasticError("crack has no tip to extend")
    if not tip_extension_edges:
        raise ElasticError("extension path is empty")
    if h_steps < 1 or h_steps > len(tip_extension_edges):
        raise ElasticError("h_steps must be between 1 and the path length")
    first = tip_extension_edges[0]
    ends = set(map(int, mesh.edges[first]))
    shared = ends & tips
    if not shared:
        raise ElasticError("extension path is not incident to a crack tip")
    current = (ends - shared).pop() if len(shared) == 1 else max(shared)
    for e in tip_extension_edges[1:h_steps]:
        ends = set(map(int, mesh.edges[e]))
        if current not in ends:
            raise ElasticError("extension edges do not form a path from the tip")
        current = (ends - {current}).pop()
    sigmas = [0.0]
    energies = [solve_energy(t, crack, load).energy]
    grown = crack
    total = 0.0
    for e in tip_extension_edges[:h_steps]:
        grown = grown.with_edges([e])
        total += float(mesh.edge_lengths[e])
        sigmas.append(total)
        energies.append(solve_energy(t, grown, load).energy)
    coeffs = np.polynomial.polynomial.polyfit(sigmas, energies, 1)
    return -float(coeffs[1])


def fit_sif(solution: EnergySolution, tip_point, tip_direction,
            r_inner: float | None = None, r_outer: float | None = None) -> float:
    """Stress intensity factor by annulus fitting.

    The nodal field near the tip is modelled as an affine part plus
    kappa * 2*sqrt(rho/pi) * sin(theta/2) in tip-local polar coordinates,
    theta measured from tip_direction (the propagation direction; the
    crack lies along theta = +-pi). DOFs duplicated across the crack get
    theta = +-pi by the side their fan lives on.
    """
    space = solution.space
    mesh = space.mesh
    tip = np.asarray(tip_point, dtype=float)
    tdir = np.asarray(tip_direction, dtype=float)
    norm = np.linalg.norm(tdir)
    if norm == 0:
        raise ElasticError("tip_direction must be nonzero")
    tdir = tdir / norm
    ndir = np.array([-tdir[1], tdir[0]])
    hbar = float(np.mean(mesh.edge_lengths))
    if r_inner is None:
        r_inner = 2.0 * hbar
    if r_outer is None:
        r_outer = 6.0 * hbar
    if not 0 < r_inner < r_outer:
        raise ElasticError("annulus radii must satisfy 0 < r_inner < r_outer")

    comps = connected_components(space.crack)
    own = [c for c in comps
           if min(np.linalg.norm(mesh.vertices[v] - tip) for v in c.vertex_ids()) < 1e-9]
    others = [c for c in comps if not any(c.bits == o.bits for o in own)]
    for c in others:
        a, b = mesh.segment_endpoints(c.edge_ids)
        if float(dist_points_to_segments(tip[None, :], a, b).min()) <= r_outer:
            raise ElasticError("annulus intersects another crack branch")

    pos = space.dof_positions() - tip
    x = pos @ tdir
    y = pos @ ndir
    rho = np.hypot(x, y)
    theta = np.arctan2(y, x)
    dof_counts = np.bincount(space.dof_vertex, minlength=mesh.n_vertices)
    split = dof_counts[space.dof_vertex] > 1
    if split.any():
        side = space.fan_centroid_offsets() @ ndir
        theta = np.where(split, np.copysign(np.pi, side), theta)
    inside = (rho >= r_inner) & (rho <= r_outer)
    if int(inside.sum()) < 12:
        raise ElasticError(f"only {int(inside.sum())} DOFs in the annulus, need at least 12")
    basis = np.column_stack([
        np.ones(int(inside.sum())),
        x[inside],
        y[inside],
        2.0 * np.sqrt(rho[inside] / np.pi) * np.sin(0.5 * theta[inside]),
    ])
    coeffs, *_ = np.linalg.lstsq(basis, solution.u[inside], rcond=None)
    return float(coeffs[3])
