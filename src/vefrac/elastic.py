"""Elastic energy of the cracked membrane.

The displacement is scalar (antiplane shear); the energy at time t and
crack K is the Dirichlet minimum

    E(t, K) = min { 1/2 integral over Omega\\K of |grad u|^2 }

over P1 fields matching the boundary datum a(t)*G on the Dirichlet part
of the boundary not released by the crack. Cracks are mesh edges; the
field may jump across them, which we realize by duplicating vertex DOFs
per fan of triangles around each split vertex.

Also here: the a priori constant C_P bounding the power (the time
derivative of E along the loading, which a run reads off the fracture
instance's energy cache), and two independent estimators of the energy
release rate at a crack tip (finite differences in crack length, and
the stress intensity factor from an annulus fit).

`blocks` builds, assembles and solves every cracked space, one or many
at a time, from the `SpacePlan` that `_MeshTables.plan` makes of a
crack; `CrackedSpace` and `solve_on_space` are its block of one. C_P
assembles the uncracked stiffness from the mesh's base numbering and
builds no space.
Assembly and CG run on six C kernels of scipy's `_sparsetools`
extension, which this module loads by file, without importing the
`scipy` or `scipy.sparse` packages: those would add some 320 modules
and 22 MB of peak memory to every run, for code no run calls.
"""
from __future__ import annotations

import importlib.util
import math
import os
import sys
import weakref
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from types import ModuleType
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    INTERIOR,
    CrackSet,
    Mesh,
    MeshError,
    bit_ids,
    connected_components,
    dist_points_to_segments,
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
    "power_bound_constant",
    "energy_release",
    "fit_sif",
]

_SPARSETOOLS = "scipy.sparse._sparsetools"


def _load_sparsetools(scipy_dirs: Sequence[str] | None) -> ModuleType:
    """scipy's C sparse kernels, from `sparse/_sparsetools*.so` in the
    first of `scipy_dirs` (the locations of the scipy package) that has
    it, loaded without running the `__init__` of `scipy` or
    `scipy.sparse`. An already imported `_sparsetools`, as a
    `scipy.sparse` imported first holds, is reused, so the process has
    one kernel module."""
    module = sys.modules.get(_SPARSETOOLS)
    if module is not None:
        return module
    for scipy_dir in scipy_dirs or ():
        finder = FileFinder(os.path.join(scipy_dir, "sparse"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_SPARSETOOLS)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_SPARSETOOLS] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"vefrac needs scipy >= 1.12: no {_SPARSETOOLS} extension found")


_kernels = _load_sparsetools(getattr(importlib.util.find_spec("scipy"),
                                     "submodule_search_locations", None))
coo_tocsr = _kernels.coo_tocsr
csr_diagonal = _kernels.csr_diagonal
csr_has_sorted_indices = _kernels.csr_has_sorted_indices
csr_matvec = _kernels.csr_matvec
csr_sort_indices = _kernels.csr_sort_indices
csr_sum_duplicates = _kernels.csr_sum_duplicates

CG_RTOL = 1e-10


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
        amp = self.amplitude
        # outside its table a(t) is held constant while the slope is not
        if isinstance(amp, TableAmplitude) and not (
                amp.times[0] <= 0.0 and self.horizon <= amp.times[-1]):
            raise ElasticError(
                f"amplitude table spans [{float(amp.times[0])!r}, "
                f"{float(amp.times[-1])!r}], which does not cover the run's "
                f"[0, {float(self.horizon)!r}]")

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
    operations and shared by every cracked space on that mesh.

    They read the mesh's topology and do not derive it again: half-edge
    3*t + k is side k of triangle t, so its edge is `mesh.tri_edges[t, k]`,
    and the interior edges are those tagged INTERIOR.

    A corner is a (triangle, slot) pair, numbered 3*t + slot. Around each
    vertex its corners are listed in triangle order, and every interior
    edge through the vertex links the two corners it joins there. The
    base fans are those of the empty crack: one per vertex, except at a
    pinch vertex whose star is already split (two triangles meeting only
    at that vertex). Base DOF n is the n-th fan in (vertex, smallest
    triangle) order, the numbering every cracked space keeps, and
    `base_dofs` holds the base DOF of every corner: the uncracked
    space's numbering, which C_P assembles. The fans are the components
    of the corner links, and `base_tri_component` labels the components
    of the triangles joined by interior edges, numbered by smallest
    triangle; both come from `_component_labels`, a union-find in numpy.
    A crack's cuts are read off flat Python int lists of the edge ends
    (`edge_a_list`/`edge_b_list`) and interior flags; no container is
    kept per edge or per link.

    A crack's fans at a vertex depend only on which edges through it
    are cut, so `fans` keeps them per (vertex, cut) as the pattern is
    first met; see `_Fans`. The vertex's star, its corners and its
    links with their edges, is read off the arrays the first time
    `fans` needs that vertex and kept; a run needs few vertices.

    A space's key needs only the separating mask of each vertex's cut
    (`separating`). For a cut of one edge it is tabulated per edge end
    (the masks `lone_a`/`lone_b`, at the edge's first and second
    vertex): a vertex's corner links form paths and cycles, since a
    corner has two sides through the vertex, and cutting one link
    separates its two corners exactly when its fan is a path. That
    covers boundary vertices and pinches alike, with no rule assumed. A
    cut of two or more edges at a vertex of one base fan separates them
    all, so only a pinch's cuts of many edges read the fan memo. `key`
    keys one crack this way, and `keys` the cracks of a ranking, a
    state plus the edges each candidate adds to it: only the ends of the
    added edges change their cuts. `plan` reads the fans of the vertices
    whose cut separates, the one way from a crack to its `SpacePlan`.
    """

    def __init__(self, mesh: Mesh):
        nv, nt = mesh.n_vertices, mesh.n_triangles
        self.corner_vertex = mesh.triangles.ravel()
        corner_order = np.argsort(self.corner_vertex, kind="stable")
        # the half-edges of edge e are by_edge[first[e]:first[e] + owners[e]]
        by_edge = np.argsort(mesh.tri_edges.ravel(), kind="stable")
        is_interior = mesh.edge_tags == INTERIOR
        owners = 1 + is_interior
        first = np.cumsum(owners) - owners
        self.interior_edges = np.flatnonzero(is_interior)
        h1 = by_edge[first[self.interior_edges]]
        h2 = by_edge[first[self.interior_edges] + 1]
        self.tri_links = np.column_stack([h1 // 3, h2 // 3])
        # the corner links of each interior edge at both ends, by vertex
        lo1, hi1 = _half_edge_corners(self.corner_vertex, h1)
        lo2, hi2 = _half_edge_corners(self.corner_vertex, h2)
        link_edge = np.concatenate([self.interior_edges, self.interior_edges])
        link_corners = np.stack([np.concatenate([lo1, hi1]), np.concatenate([lo2, hi2])]).T
        link_vertex = mesh.edges[self.interior_edges].T.ravel()
        # the two corners of each Dirichlet edge in its single triangle
        self.dirichlet_edges = mesh.dirichlet_edges()
        self.dirichlet_bits = sum(1 << e for e in self.dirichlet_edges.tolist())
        self.dirichlet_corners = np.column_stack(
            _half_edge_corners(self.corner_vertex, by_edge[first[self.dirichlet_edges]]))
        on_boundary = np.zeros(nv, dtype=bool)
        on_boundary[mesh.edges[~is_interior]] = True
        # base fans: the first corner of each fan in (vertex, triangle)
        # order opens the next DOF
        labels = _component_labels(3 * nt, link_corners)
        # a corner has two sides through its vertex, so a fan's links form
        # a path or a cycle: a path when one of its corners has a side on
        # the boundary. Cutting one link separates its two corners exactly
        # on a path, so only a link at a boundary vertex can, and there
        # its fan's label tells a pinch's path from its cycle
        on_path = np.zeros(3 * nt, dtype=bool)
        boundary_sides = by_edge[first[~is_interior]]
        on_path[labels[np.concatenate(_half_edge_corners(self.corner_vertex, boundary_sides))]] = True
        at = np.flatnonzero(on_boundary[link_vertex])
        at = at[on_path[labels[link_corners[at, 0]]]]
        lone = []
        for end in (at[at < link_edge.size // 2], at[at >= link_edge.size // 2]):
            row = np.zeros(mesh.n_edges, dtype=bool)
            row[link_edge[end]] = True
            lone.append(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little"))
        # a fan's first corner in that order is its smallest, the first
        # corner of its label, since labels are numbered by smallest node
        first = np.empty(3 * nt, dtype=bool)
        first[0] = True
        np.greater(labels[1:], np.maximum.accumulate(labels)[:-1], out=first[1:])
        fan, opens = labels[corner_order], first[corner_order]
        fan_dof = np.empty(3 * nt, dtype=int)
        fan_dof[fan[opens]] = np.arange(int(opens.sum()))
        base_dof = self.base_dofs = np.empty(3 * nt, dtype=int)
        base_dof[corner_order] = fan_dof[fan]
        self.base_fans = np.bincount(self.corner_vertex[corner_order[opens]], minlength=nv)
        self.base_rank = base_dof - (np.cumsum(self.base_fans) - self.base_fans)[self.corner_vertex]
        self.base_tri_component = _component_labels(nt, self.tri_links)
        grads = _p1_gradients(mesh)
        local = np.einsum("tid,tjd->tij", grads, grads)
        local *= mesh.triangle_areas[:, None, None]
        self.local = local.ravel()
        # vertex v's corners are corner_order[corner_ptr[v]:corner_ptr[v + 1]]
        # and its links by_vertex[link_ptr[v]:link_ptr[v + 1]], read by
        # fans() when it first needs the vertex
        self._corner_order = corner_order
        self._corner_ptr = np.concatenate([[0], np.cumsum(np.bincount(self.corner_vertex,
                                                                      minlength=nv))])
        self._link_edge = link_edge
        self._link_corners = link_corners
        self._by_vertex = np.argsort(link_vertex, kind="stable")
        self._link_ptr = np.concatenate([[0], np.cumsum(np.bincount(link_vertex, minlength=nv))])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.n_base_dofs = int(self.base_fans.sum())
        self.base_fans_list = self.base_fans.tolist()
        self.edge_a_list, self.edge_b_list = mesh.edges.T.tolist()
        self.is_interior_list = is_interior.tolist()
        self.on_boundary_list = on_boundary.tolist()
        self.lone_a, self.lone_b = lone
        self._stars: dict[int, tuple] = {}
        self._fans: dict[tuple[int, int], _Fans] = {}
        self._states: dict[int, _StateCuts] = {}

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
            corners, links, pairs = self._star(v)
            # label each corner by its group, walking the uncut links from
            # the smallest unlabelled corner
            label = [-1] * len(corners)
            count = 0
            for i in range(len(corners)):
                if label[i] < 0:
                    label[i], todo = count, [i]
                    while todo:
                        for bit, j in links[todo.pop()]:
                            if label[j] < 0 and not cut & bit:
                                label[j] = count
                                todo.append(j)
                    count += 1
            separating = 0
            for bit, i, j in pairs:
                if cut & bit and label[i] != label[j]:
                    separating |= bit
            fans = self._fans[v, cut] = _Fans(count, corners, tuple(label), separating)
        return fans

    def _star(self, v: int) -> tuple[tuple[int, ...], list[list[tuple[int, int]]],
                                     list[tuple[int, int, int]]]:
        """Vertex v's corners in triangle order, the links of each (the
        bit of the link's edge and the other corner's index in that
        order), and every link as (bit, index, index)."""
        star = self._stars.get(v)
        if star is None:
            corners = self._corner_order[self._corner_ptr[v]:self._corner_ptr[v + 1]].tolist()
            at = {c: i for i, c in enumerate(corners)}
            ids = self._by_vertex[self._link_ptr[v]:self._link_ptr[v + 1]]
            pairs = [(1 << e, at[a], at[b]) for e, a, b in
                     zip(self._link_edge[ids].tolist(), *self._link_corners[ids].T.tolist())]
            links: list[list[tuple[int, int]]] = [[] for _ in corners]
            for bit, i, j in pairs:
                links[i].append((bit, j))
                links[j].append((bit, i))
            star = self._stars[v] = (tuple(corners), links, pairs)
        return star

    def separating(self, v: int, cut: int) -> int:
        """`fans(v, cut).separating`, without the fans where the tables
        tell: a cut of one edge separates it by the lone-cut table, and at
        a vertex of one base fan a cut of two or more edges separates
        them all, since a path of corner links splits at every cut link
        and a cycle at every one once two are cut."""
        if cut & (cut - 1):
            if self.base_fans_list[v] == 1:
                return cut
            return self.fans(v, cut).separating
        return cut & (self.lone_a if self.edge_a_list[cut.bit_length() - 1] == v else self.lone_b)

    def key(self, bits: int) -> int:
        """The key of the space cut along the crack `bits` (see
        `space_key`), from the separating masks of its cuts."""
        key = bits & self.dirichlet_bits
        for v, cut in self.cuts(bit_ids(bits)).items():
            key |= self.separating(v, cut)
        return key

    def keys(self, base: int, added: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
        """The bits and the space keys of the cracks `base` plus each
        edge sequence of `added`, edges not in `base`. A key is the crack's
        Dirichlet edges OR-ed with the separating mask of every vertex's
        cut, and only the ends of the added edges change their cuts: the
        masks of base's other vertices are kept, split by the end that
        separates (`_StateCuts`), and each added edge brings its
        separating masks with base's cuts at its ends. Where added edges
        meet at a vertex, that vertex's cut with all of them is keyed
        too: cutting more links only splits fans further, so the masks of
        each edge alone there hold nothing the full cut does not."""
        state = self.state(base)
        edge = state.edge
        bits_out, keys_out = [], []
        for edges in added:
            bits, key, lo, hi, seen, met = base, state.dirichlet, state.lo, state.hi, 0, 0
            for e in edges:
                bit, own, keep_lo, keep_hi, ends = edge.get(e) or state.add(e)
                bits |= bit
                key |= own
                lo &= keep_lo
                hi &= keep_hi
                met |= seen & ends
                seen |= ends
            while met:
                low = met & -met
                v = low.bit_length() - 1
                cut = state.cuts.get(v, 0)
                for e in edges:
                    if edge[e][4] & low:
                        cut |= 1 << e
                key |= self.separating(v, cut)
                met ^= low
            bits_out.append(bits)
            keys_out.append(key | lo | hi)
        return bits_out, keys_out

    def state(self, base: int) -> _StateCuts:
        """The crack `base` as `keys` reads it, kept per base."""
        state = self._states.get(base)
        if state is None:
            state = self._states[base] = _StateCuts(self, base)
        return state

    def plan(self, crack: CrackSet) -> SpacePlan:
        """How `crack` changes the base fans, and so its space's DOF
        count: the fans of each vertex whose cut separates, in the order
        of the cuts. Every other vertex keeps its base fans, the
        components of all its links."""
        crack_ids = crack.edge_ids
        verts, counts, corners, ranks = [], [], [], []
        n_dofs = self.n_base_dofs
        for v, cut in self.cuts(crack_ids).items():
            if self.separating(v, cut):
                f = self.fans(v, cut)
                verts.append(v)
                counts.append(f.count)
                corners += f.corners
                ranks += f.ranks
                n_dofs += f.count - self.base_fans_list[v]
        return SpacePlan(crack, crack_ids, verts, counts, corners, ranks, n_dofs)


class _StateCuts:
    """A crack `base` as `_MeshTables.keys` reads it: the cut of each
    vertex, its Dirichlet edges, and the OR of its vertices' separating
    masks split by the end that separates, `lo` at an edge's first
    vertex and `hi` at its second. `edge` keeps, per edge e added to it,
    (bit, own, keep_lo, keep_hi, ends): e's bit; e's part of the key,
    its Dirichlet bit or the separating masks of its two ends once their
    cuts gain e; the masks that keep in lo and hi only the edges whose
    separating end is not an end of e, since e decides those ends anew;
    and the bits of e's ends, by which added edges that meet are found."""

    def __init__(self, tables: _MeshTables, base: int):
        self.tables = tables
        self.cuts = tables.cuts(bit_ids(base))
        self.dirichlet = base & tables.dirichlet_bits
        self.lo = self.hi = 0
        for v, cut in self.cuts.items():
            lo, hi = self._split(v, tables.separating(v, cut))
            self.lo |= lo
            self.hi |= hi
        self.edge: dict[int, tuple[int, int, int, int, int]] = {}

    def _split(self, v: int, mask: int) -> tuple[int, int]:
        """The edges of `mask`, all through v, whose first vertex is v,
        and those whose second is."""
        ends_a, lo, hi = self.tables.edge_a_list, 0, 0
        while mask:
            low = mask & -mask
            if ends_a[low.bit_length() - 1] == v:
                lo |= low
            else:
                hi |= low
            mask ^= low
        return lo, hi

    def add(self, e: int) -> tuple[int, int, int, int, int]:
        tables, bit = self.tables, 1 << e
        if not tables.is_interior_list[e]:
            entry = (bit, bit & tables.dirichlet_bits, -1, -1, 0)
        else:
            own = drop_lo = drop_hi = ends = 0
            for v in (tables.edge_a_list[e], tables.edge_b_list[e]):
                cut = self.cuts.get(v, 0)
                own |= tables.separating(v, cut | bit)
                lo, hi = self._split(v, cut)
                drop_lo |= lo
                drop_hi |= hi
                ends |= 1 << v
            entry = (bit, own, ~drop_lo, ~drop_hi, ends)
        self.edge[e] = entry
        return entry


def _half_edge_corners(corner_vertex: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The corners that the half-edges h join, at the lower and at the
    higher vertex of their edge: half-edge h = 3*t + k joins corner h and
    corner 3*t + (k + 1) % 3."""
    other = h + np.where(h % 3 == 2, -2, 1)
    lower = corner_vertex[h] < corner_vertex[other]
    return np.where(lower, h, other), np.where(lower, other, h)


class _Fans(NamedTuple):
    """The fans of one vertex under one cut: how many, the vertex's
    corners in triangle order with the rank of each corner's fan, and the
    separating mask, the cut edges whose two corners at the vertex lie
    in different fans. Only a cut edge can separate, and a cut edge that
    does not separate merges nothing when its link is put back, so the
    fans are the components of the vertex's links minus the separating
    ones, and in turn fix them."""

    count: int
    corners: tuple[int, ...]
    ranks: tuple[int, ...]
    separating: int


class SpacePlan(NamedTuple):
    """A crack set, its edge ids, and how it changes the base fans: the
    vertices whose cut separates (ends of its cracked interior edges)
    with their fan counts, the corners of those vertices with the rank
    of each corner's fan, and the DOF count of its space. Every other
    vertex keeps its base fans."""

    crack: CrackSet
    crack_ids: tuple[int, ...]
    verts: list[int]
    counts: list[int]
    corners: list[int]
    ranks: list[int]
    n_dofs: int


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

    The space is `blocks._build_spaces` of the crack's plan
    (`_MeshTables.plan`) as a block of one, the builder of every space
    the program solves. A run never builds one: griffith's estimators
    and the tests do. It holds the fan numbering (`tri_dofs`,
    `dof_vertex`, `n_dofs`), the constraints (`dirichlet_dofs`, the DOFs
    at the corners of the Dirichlet edges the crack leaves, and
    `pinned_dofs`, one per component the data cannot see, in component
    order; `constrained_mask` marks both) and `tri_component`, which
    labels the triangles by smallest triangle, two sharing a label when
    a chain of uncracked interior edges joins them. The stiffness `csr`
    holds the raw arrays (indptr, indices, data) that
    `coo_matrix(...).tocsr()` would hold. Two spaces with equal
    `tri_dofs` that release the same Dirichlet edges, exactly the spaces
    with equal `space_key`, are the same space: equal stiffness,
    constraints and data. The stiffness reads `tri_dofs` alone. Two
    triangles are in one component exactly when a chain of triangles
    sharing a DOF joins them: an uncracked interior edge puts its two
    triangles in one fan at both of its ends, and the triangles of a fan
    are joined through its uncracked edges. So the components, their
    first DOFs, the pinned DOFs and `constrained_mask` follow from
    `tri_dofs` and the released Dirichlet edges too.
    """

    def __init__(self, mesh: Mesh, crack: CrackSet):
        from .blocks import _assemble_csr, _build_spaces

        self.mesh = mesh
        self.crack = crack
        tables = _mesh_tables(mesh)
        spaces = _build_spaces([tables.plan(crack)])
        self.tri_dofs = spaces.tri_dofs.reshape(-1, 3)
        self.dof_vertex = spaces.dof_vertex
        self.n_dofs = int(spaces.offsets[-1])
        self.dirichlet_dofs = spaces.dirichlet
        self.pinned_dofs = spaces.pinned
        self.constrained_mask = spaces.constrained
        self.tri_component = spaces.tri_component
        self.csr = _assemble_csr(spaces.tri_dofs, tables.local, spaces.offsets)

    def stiffness(self) -> scipy.sparse.csr_matrix:
        """`csr` as a scipy matrix. No run calls it: `bench/layers.py`
        wraps it to time assembly, and `tests/test_elastic.py` compares
        it with the reference stiffness. It imports `scipy.sparse`."""
        import scipy.sparse

        indptr, indices, data = self.csr
        return scipy.sparse.csr_matrix((data, indices, indptr),
                                       shape=(self.n_dofs, self.n_dofs))

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
    OR-ed with the crack's Dirichlet edges (`_MeshTables.key`). Each
    vertex's fans are the components of its links minus the separating
    ones, so two cracks have equal keys exactly when their spaces have
    equal `tri_dofs` and release the same Dirichlet edges."""
    if crack.mesh is not mesh:
        raise MeshError("crack set does not belong to this mesh")
    return _mesh_tables(mesh).key(crack.bits)


def _p1_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the three barycentric basis functions, (nt, 3, 2):
    the side opposite corner i, (x, y) = p[i+2] - p[i+1], rotated to
    (-y, x) and divided by twice the area."""
    tris = mesh.triangles
    x, y = mesh.vertices[:, 0][tris], mesh.vertices[:, 1][tris]
    nxt, prv = [2, 0, 1], [1, 2, 0]
    grads = np.empty(tris.shape + (2,))
    np.negative(y[:, nxt] - y[:, prv], out=grads[:, :, 0])
    np.subtract(x[:, nxt], x[:, prv], out=grads[:, :, 1])
    grads /= (2.0 * mesh.triangle_areas)[:, None, None]
    return grads


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
    """Same as solve_energy, reusing an already-built space: the space
    solved at amplitude a(t) by `blocks._solve`, the core of every solve,
    which gives its field, A u and the residual of its reduced system."""
    from .blocks import _solve

    dirichlet = space.dirichlet_dofs
    u = np.zeros(space.n_dofs)
    u[dirichlet] = load.amplitude(t) * load.profile[space.dof_vertex[dirichlet]]
    n_free = np.array([space.n_dofs - np.count_nonzero(space.constrained_mask)])
    au, errors, residual = _solve(space.csr, space.constrained_mask, u, n_free,
                                  all_residuals=True)
    if errors[0]:
        raise errors[0]
    return EnergySolution(energy=0.5 * float(u @ au), u=u, residual=residual[0],
                          space=space, au=au)


def power_bound_constant(load: BoundaryLoad, mesh: Mesh) -> float:
    """The constant C_P with |dE/dt| <= C_P (E + 1): the largest load
    rate ||grad g_dot|| times max(area/2, 1). The norm is that of the
    uncracked space, whose DOFs are the mesh's base fans: its stiffness
    is assembled from the base numbering as `blocks` assembles every
    space, with no space built."""
    from .blocks import _assemble_csr

    load.check_mesh(mesh)
    tables = _mesh_tables(mesh)
    csr = _assemble_csr(tables.base_dofs, tables.local, (0, tables.n_base_dofs))
    g = load.profile[np.repeat(np.arange(mesh.n_vertices), tables.base_fans)]
    grad_norm = math.sqrt(max(float(g @ _matvec(*csr, g)), 0.0))
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
