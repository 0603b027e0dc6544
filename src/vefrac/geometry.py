"""Triangulated domains and crack sets living on mesh edges.

A mesh is a conforming triangulation of a bounded polygonal domain with a
marked Dirichlet part of the boundary. Crack sets are subsets of the mesh
edge list stored as integer bitmasks, which keeps set algebra, length
bookkeeping and connectivity exact. Metric queries work on the vertex
coordinates: point-segment distances are exact, the Hausdorff distance
between edge sets samples segments at a configurable resolution and is
accurate to that resolution.

Edges are enumerated deterministically: endpoints are sorted within each
pair and the pair list is sorted lexicographically, so a bitmask means the
same thing in every run that uses the same mesh.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

# Boundary tags for edges.
INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

# Hausdorff sampling: default resolution is the shortest edge divided by this.
HAUSDORFF_REFINE = 16


class MeshError(Exception):
    """Raised when a mesh or crack set fails validation."""


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation with deterministic edge enumeration.

    Instances are built through :func:`build_mesh`; the fields are
    treated as immutable afterwards. Equality is identity: crack sets
    refer to their mesh by reference and refuse to mix meshes.

    The topology is derived once, there: `tri_edges[t, k]` is the edge
    of side k of triangle t, which joins its corners k and k + 1 mod 3.
    An edge belongs to two triangles exactly when its tag is INTERIOR,
    and to one otherwise. Other layers read incidences from these two
    arrays rather than deriving their own. `edge_index` maps a sorted
    vertex pair to its edge by a binary search in the sorted edge keys,
    so no per-edge object is kept.
    """

    vertices: np.ndarray        # (nv, 2) float
    triangles: np.ndarray       # (nt, 3) int, positively oriented
    edges: np.ndarray           # (ne, 2) int, sorted pairs in lexicographic order
    edge_lengths: np.ndarray    # (ne,) float
    edge_tags: np.ndarray       # (ne,) int, INTERIOR / DIRICHLET / NEUMANN
    tri_edges: np.ndarray       # (nt, 3) int, read-only: edge of side k (corners k, k+1 mod 3)
    edge_index: _EdgeIndex      # sorted vertex pair -> edge index, read-only
    domain_diameter: float
    triangle_areas: np.ndarray  # (nt,) float

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def min_edge_length(self) -> float:
        return float(self.edge_lengths.min())

    @property
    def area(self) -> float:
        return float(self.triangle_areas.sum())

    @property
    def hausdorff_resolution(self) -> float:
        """Default sampling resolution for the Hausdorff distance."""
        return self.min_edge_length / HAUSDORFF_REFINE

    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tags != INTERIOR)

    def dirichlet_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tags == DIRICHLET)

    def segment_endpoints(self, edge_ids: Sequence[int]):
        """Coordinate arrays (a, b) for the given edges."""
        ids = np.asarray(edge_ids, dtype=int)
        return self.vertices[self.edges[ids, 0]], self.vertices[self.edges[ids, 1]]


class _EdgeIndex(Mapping):
    """Read-only map from a sorted vertex pair (lo, hi) to its edge index.

    Edge i has the key lo * nv + hi, and the keys ascend with i. A pair
    is looked up only when 0 <= lo < hi < nv, the range in which the key
    determines the pair; anything else, such as (-1, nv + 1), whose key
    is that of (0, 1), or a triple, raises KeyError.
    """

    def __init__(self, keys: np.ndarray, nv: int):
        self._keys = keys
        self._nv = nv

    def __getitem__(self, pair) -> int:
        try:
            lo, hi = map(operator.index, pair)
        except (TypeError, ValueError):
            raise KeyError(pair) from None
        if 0 <= lo < hi < self._nv:
            key = lo * self._nv + hi
            i = int(np.searchsorted(self._keys, key))
            if i < len(self._keys) and self._keys[i] == key:
                return i
        raise KeyError(pair)

    def __iter__(self):
        return (divmod(key, self._nv) for key in self._keys.tolist())

    def __len__(self) -> int:
        return len(self._keys)


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    x, y = vertices[:, 0][triangles], vertices[:, 1][triangles]
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


def _diameter(vertices: np.ndarray) -> float:
    # Max pairwise distance is attained on the convex hull
    pts = _convex_hull(vertices)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Corners of the convex hull by Andrew's monotone chain; points on a
    hull edge are dropped, so collinear input gives its two ends."""
    rest = points[np.lexsort((points[:, 1], points[:, 0]))].tolist()

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return np.array(chain(rest) + chain(reversed(rest)), dtype=float)


def dist_points_to_segments(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact distances from each point to each segment, shape (npoints, nsegs)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = b - a                                        # (m, 2)
    l2 = np.einsum("ij,ij->i", d, d)                 # (m,)
    ap = points[:, None, :] - a[None, :, :]          # (n, m, 2)
    t = np.einsum("nmj,mj->nm", ap, d) / l2
    np.clip(t, 0.0, 1.0, out=t)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = points[:, None, :] - proj
    return np.sqrt(np.einsum("nmj,nmj->nm", diff, diff))


# Most (vertex, edge) candidate pairs, and (edge, column) ranges,
# that _check_hanging_nodes takes at once.
_HANGING_BLOCK = 1 << 13


def _check_hanging_nodes(vertices, edges, lengths):
    # A vertex lying in the interior of a non-incident edge means the
    # triangulation is not conforming. Vertices are bucketed on a grid of
    # cells as wide as a typical (the median) edge, shifted by half a
    # width so that the vertices of a structured grid sit mid-cell,
    # sorted by cell key column * stride + row, and each edge is
    # measured only against the vertices in the cells its padded
    # bounding box meets. Those cells of one column hold one run of the
    # sorted vertices, so an edge takes one (edge, column) range per
    # occupied column its box spans: a short edge one or two, a long one
    # every column it crosses. Edges and candidate pairs are taken in
    # blocks of bounded size. The distances use the arithmetic of
    # dist_points_to_segments, and the smallest offending (vertex, edge)
    # pair is reported, as a scan over all pairs would.
    #
    # The pad: with u = 2**-53 and M the largest |coordinate|, the foot
    # point a + t (b - a) that the test computes lies within 6 u M of the
    # edge's box, and the difference, squares, sum and root after it err
    # by at most 3 u relatively. A vertex further than pad = tol + 16 u
    # (M + tol) outside the box in x or y is thus measured further than
    # tol from the edge. Rounding is monotone, so such a box, and the
    # floor of (p - origin) / width, keep every vertex within pad of the
    # box in the cells the box meets.
    tol = 1e-12 * max(1.0, float(lengths.max()))
    x, y = vertices[:, 0].copy(), vertices[:, 1].copy()
    pad = tol + 16 * 2.0 ** -53 * (max(-x.min(), x.max(), -y.min(), y.max()) + tol)
    ends_a, ends_b = edges[:, 0].copy(), edges[:, 1].copy()
    ax, ay, bx, by = x[ends_a], y[ends_a], x[ends_b], y[ends_b]
    # cells as wide as the median edge, but at most 2**30 of them across
    # the mesh, so that the cell keys stay far inside int64
    mid = lengths.size // 2
    span = max(float(x.max() - x.min()), float(y.max() - y.min()))
    width = max(float(np.partition(lengths, mid)[mid]), span * 2.0 ** -30)
    x0, y0 = x.min() - 0.5 * width, y.min() - 0.5 * width
    rows = np.floor((y - y0) / width).astype(np.int64)
    stride = int(rows.max()) + 3
    vkey = np.floor((x - x0) / width).astype(np.int64) * stride + rows
    order = np.argsort(vkey, kind="stable")
    sorted_keys = vkey[order]
    columns = sorted_keys // stride
    occupied = columns[np.concatenate(([True], columns[1:] != columns[:-1]))]
    lo_x = np.floor((np.minimum(ax, bx) - pad - x0) / width).astype(np.int64)
    hi_x = np.floor((np.maximum(ax, bx) + pad - x0) / width).astype(np.int64)
    lo_y = np.floor((np.minimum(ay, by) - pad - y0) / width).astype(np.int64)
    hi_y = np.floor((np.maximum(ay, by) + pad - y0) / width).astype(np.int64)
    # edge e spans the occupied columns occupied[col_lo[e]:col_lo[e] + n_cols[e]]
    col_lo = np.searchsorted(occupied, lo_x)
    n_cols = np.searchsorted(occupied, hi_x, side="right") - col_lo
    found = []
    for e, f in _chunks(n_cols):
        n = n_cols[e:f]
        pair_e = np.repeat(np.arange(e, f), n)
        col = occupied[np.arange(int(n.sum())) + np.repeat(col_lo[e:f] - (np.cumsum(n) - n), n)]
        first = np.searchsorted(sorted_keys, col * stride + lo_y[pair_e])
        count = np.searchsorted(sorted_keys, col * stride + hi_y[pair_e], side="right") - first
        # the box holds both ends of its edge: only an edge whose cells
        # hold more than two vertices has a candidate to measure
        busy = (np.add.reduceat(count, np.cumsum(n) - n) > 2)[pair_e - e]
        pair_e, first, count = pair_e[busy], first[busy], count[busy]
        for i, j in _chunks(count):
            found.append(_first_on_edge((x, y), (ends_a, ends_b), (ax, ay, bx, by), tol, order,
                                        pair_e[i:j], first[i:j], count[i:j]))
    lowest = min(filter(None, found), default=None)
    if lowest is not None:
        v, e = lowest
        raise MeshError(
            f"vertex {v} lies on edge {tuple(map(int, edges[e]))}: non-conforming mesh")


def _chunks(sizes):
    """Consecutive ranges (i, j) of the items whose sizes add up to at
    most _HANGING_BLOCK, or of one item alone that is larger."""
    ends = np.cumsum(sizes)
    i = 0
    while i < len(sizes):
        done = int(ends[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(ends, done + _HANGING_BLOCK, side="right")))
        yield i, j
        i = j


def _first_on_edge(points, ends, segments, tol, order, pair_e, first, count):
    """Smallest (vertex, edge) among the candidates of the given (edge,
    column) ranges where the vertex lies on the non-incident edge, or
    None. `points` are the vertex coordinates (x, y), `ends` the two
    end vertices of every edge and `segments` their coordinates (ax,
    ay, bx, by)."""
    starts = np.cumsum(count) - count
    slots = np.arange(int(count.sum())) - np.repeat(starts - first, count)
    ev = np.repeat(pair_e, count)
    vv = order[slots]
    keep = (ends[0][ev] != vv) & (ends[1][ev] != vv)
    ev, vv = ev[keep], vv[keep]
    # the arithmetic of dist_points_to_segments on x and y columns, where
    # a 2-vector's einsum is x * x + y * y
    px, py = points[0][vv], points[1][vv]
    ax, ay = segments[0][ev], segments[1][ev]
    dx, dy = segments[2][ev] - ax, segments[3][ev] - ay
    l2 = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / l2
    np.clip(t, 0.0, 1.0, out=t)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    bad = np.flatnonzero(np.sqrt(ex * ex + ey * ey) <= tol)
    if not bad.size:
        return None
    k = bad[np.lexsort((ev[bad], vv[bad]))[0]]
    return int(vv[k]), int(ev[k])


@dataclass(frozen=True)
class _DirichletSelector:
    """The boundary edges whose endpoints are a listed vertex pair or
    lie together inside one of the boxes (xmin, ymin, xmax, ymax)."""

    pairs: frozenset = frozenset()
    boxes: tuple = ()

    def select(self, vertices: np.ndarray, edges: np.ndarray, keys: np.ndarray,
               owners: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Which of the `boundary` edges are selected, as a mask. The
        pairs are looked up in the sorted edge keys lo * nv + hi in one
        binary search, and the first one in the set's order that is not
        a boundary edge raises MeshError."""
        nv = len(vertices)
        picked = np.zeros(len(edges), dtype=bool)
        if self.pairs:
            pairs = list(self.pairs)
            want = np.array([p[0] * nv + p[1] if len(p) == 2 and 0 <= p[0] < p[1] < nv
                             else -1 for p in pairs], dtype=np.int64)
            e = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            is_edge = keys[e] == want
            bad = np.flatnonzero(~is_edge | (owners[e] != 1))
            if bad.size:
                kind = "boundary" if is_edge[bad[0]] else "mesh"
                raise MeshError(f"dirichlet pair {pairs[bad[0]]} is not a {kind} edge")
            picked[e] = True
        picked = picked[boundary]
        if self.boxes:
            ends = vertices[edges[boundary]]
            x, y = ends[..., 0], ends[..., 1]
            for xmin, ymin, xmax, ymax in self.boxes:
                picked |= ((xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)).all(axis=1)
        return picked


def _dirichlet_selector(marker):
    """Normalize the marker argument to a _DirichletSelector, or to a
    callable on the two endpoint coordinate arrays of a boundary edge.

    Accepted forms: such a callable, a bounding box tuple ("bbox", xmin,
    ymin, xmax, ymax), an iterable of explicit vertex index pairs, or a
    _DirichletSelector.
    """
    if isinstance(marker, _DirichletSelector) or callable(marker):
        return marker
    if isinstance(marker, tuple) and len(marker) == 5 and marker[0] == "bbox":
        return _DirichletSelector(boxes=(marker[1:],))
    return _DirichletSelector(
        pairs=frozenset(tuple(sorted(map(int, p))) for p in marker))


def build_mesh(vertices, triangles, dirichlet_marker) -> Mesh:
    """Assemble and validate a mesh.

    Parameters
    ----------
    vertices : (nv, 2) array, or sequence of coordinate pairs
    triangles : sequence of vertex index triples, positively oriented
    dirichlet_marker : see :func:`_dirichlet_selector`; selects the
        Dirichlet part among the boundary edges. Must select at least one.
    """
    if isinstance(vertices, np.ndarray):
        verts = np.array(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError("vertices must be coordinate pairs")
    else:
        verts = np.array([[p[0], p[1]] for p in vertices], dtype=float)
    if len(verts) < 3:
        raise MeshError("mesh needs at least 3 vertices")
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    # equal points are neighbours in lexicographic order (np.unique over
    # rows would import numpy.ma); -0.0 + 0.0 is 0.0, so signed zeros are
    # one point however rows compare
    points = verts + 0.0
    rows = points[np.lexsort((points[:, 1], points[:, 0]))]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise MeshError("duplicate vertex coordinates")

    tris = np.array(triangles, dtype=int)
    if tris.ndim != 2 or tris.shape[1] != 3 or len(tris) == 0:
        raise MeshError("triangles must be vertex index triples")
    if tris.min() < 0 or tris.max() >= len(verts):
        raise MeshError("triangle vertex index out of range")
    a, b, c = tris.T
    repeats = np.flatnonzero((a == b) | (b == c) | (c == a))
    if repeats.size:
        raise MeshError(f"triangle {tuple(tris[repeats[0]].tolist())} repeats a vertex")
    areas = _signed_areas(verts, tris)
    bad = np.flatnonzero(areas <= 0)
    if len(bad):
        raise MeshError(f"triangle {int(bad[0])} has non-positive area "
                        "(degenerate or mis-oriented)")

    unused = np.flatnonzero(np.bincount(tris.ravel(), minlength=len(verts)) == 0)
    if unused.size:
        raise MeshError(f"vertex {int(unused[0])} is not referenced by any triangle")

    # Side k of a triangle joins its corners k and k + 1 mod 3. Edges are
    # the distinct sides as sorted pairs in lexicographic order, which is
    # the order of the key lo * nv + hi.
    nv = len(verts)
    ends = tris[:, [1, 2, 0]]
    sides = (np.minimum(tris, ends) * nv + np.maximum(tris, ends)).ravel()
    by_key = np.argsort(sides, kind="stable")
    opens = np.empty(sides.size, dtype=bool)
    opens[0] = True
    np.not_equal(sides[by_key[1:]], sides[by_key[:-1]], out=opens[1:])
    keys = sides[by_key[opens]]
    edges = np.column_stack([keys // nv, keys % nv])
    tri_edges = np.empty(sides.size, dtype=np.intp)
    tri_edges[by_key] = np.cumsum(opens) - 1
    tri_edges = tri_edges.reshape(-1, 3)
    tri_edges.setflags(write=False)
    owners = np.bincount(tri_edges.ravel(), minlength=len(edges))
    shared = np.flatnonzero(owners > 2)
    if shared.size:
        e = shared[0]
        raise MeshError(f"edge {tuple(edges[e].tolist())} belongs to {int(owners[e])} "
                        "triangles: non-conforming mesh")
    keys.setflags(write=False)
    edge_index = _EdgeIndex(keys, nv)

    d = verts[edges[:, 1]] - verts[edges[:, 0]]
    lengths = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])

    _check_hanging_nodes(verts, edges, lengths)

    selector = _dirichlet_selector(dirichlet_marker)
    boundary = np.flatnonzero(owners == 1)
    if isinstance(selector, _DirichletSelector):
        picked = selector.select(verts, edges, keys, owners, boundary)
    else:
        picked = [bool(selector(verts[va], verts[vb])) for va, vb in edges[boundary].tolist()]
    tags = np.full(len(edges), INTERIOR, dtype=int)
    tags[boundary] = np.where(picked, DIRICHLET, NEUMANN)
    if not np.any(tags == DIRICHLET):
        raise MeshError("empty Dirichlet set")
    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[edges[boundary]] = True

    return Mesh(vertices=verts, triangles=tris, edges=edges,
                edge_lengths=lengths, edge_tags=tags, tri_edges=tri_edges,
                edge_index=edge_index,
                # every corner of the hull ends an edge of one triangle
                domain_diameter=_diameter(verts[on_boundary]),
                triangle_areas=areas)


# ---------------------------------------------------------------------------
# Crack sets
# ---------------------------------------------------------------------------

def bit_ids(bits: int) -> tuple:
    """The set bits of `bits`, ascending: the edge ids of a crack bitmask."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


@dataclass(frozen=True)
class CrackSet:
    """An edge subset of one mesh, stored as a bitmask over edge indices."""

    mesh: Mesh
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.mesh.n_edges:
            raise MeshError("crack bitmask references edges outside the mesh")

    @classmethod
    def empty(cls, mesh: Mesh) -> "CrackSet":
        return cls(mesh, 0)

    @classmethod
    def of_edges(cls, mesh: Mesh, edge_ids: Iterable[int]) -> "CrackSet":
        bits = 0
        for e in edge_ids:
            e = int(e)
            if not 0 <= e < mesh.n_edges:
                raise MeshError(f"edge index {e} out of range")
            bits |= 1 << e
        return cls(mesh, bits)

    @classmethod
    def of_vertex_pairs(cls, mesh: Mesh, pairs: Iterable) -> "CrackSet":
        ids = []
        for p in pairs:
            key = tuple(sorted(map(int, p)))
            e = mesh.edge_index.get(key)
            if e is None:
                raise MeshError(f"vertex pair {key} is not a mesh edge")
            ids.append(e)
        return cls.of_edges(mesh, ids)

    @property
    def edge_ids(self) -> tuple:
        """Member edge indices, ascending."""
        return bit_ids(self.bits)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def __contains__(self, edge_id: int) -> bool:
        return bool((self.bits >> int(edge_id)) & 1)

    def issubset(self, other: "CrackSet") -> bool:
        _require_same_mesh(self, other)
        return self.bits | other.bits == other.bits

    def union(self, other: "CrackSet") -> "CrackSet":
        _require_same_mesh(self, other)
        return CrackSet(self.mesh, self.bits | other.bits)

    def minus(self, other: "CrackSet") -> "CrackSet":
        _require_same_mesh(self, other)
        return CrackSet(self.mesh, self.bits & ~other.bits)

    def with_edges(self, edge_ids: Iterable[int]) -> "CrackSet":
        return self.union(CrackSet.of_edges(self.mesh, edge_ids))

    def vertex_ids(self) -> frozenset:
        """Endpoints of all member edges."""
        return frozenset(self.mesh.edges[list(self.edge_ids)].ravel().tolist())

    def sort_key(self):
        """Deterministic tie-break key: cardinality, then lexicographic edges."""
        return (self.cardinality, self.edge_ids)

    def __repr__(self):
        return f"CrackSet({list(self.edge_ids)})"


def _require_same_mesh(h: CrackSet, k: CrackSet) -> None:
    if h.mesh is not k.mesh:
        raise MeshError("crack sets belong to different meshes")


def h1_measure(k: CrackSet) -> float:
    """Total length of the member edges (edges overlap only at endpoints)."""
    return math.fsum(float(k.mesh.edge_lengths[e]) for e in k.edge_ids)


def h1_diff(h: CrackSet, k: CrackSet) -> float:
    """Length of K minus H, i.e. of the edges in K and not in H."""
    _require_same_mesh(h, k)
    return h1_measure(CrackSet(k.mesh, k.bits & ~h.bits))


def union_groups(items: Sequence, links: Iterable) -> list[list]:
    """Groups of `items` joined by the `links` pairs, by a small union-find.

    Every group lists its members in the order of `items`, and the groups
    come in the order of their first member; ascending items therefore
    give groups ordered by their smallest member.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    groups: dict = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def connected_components(k: CrackSet) -> list:
    """Partition of K into maximal vertex-connected edge groups.

    Components are ordered by their smallest member edge index.
    """
    edge_ids = k.edge_ids
    edges = k.mesh.edges
    first_edge_at: dict = {}
    links = []
    for e in edge_ids:
        for v in edges[e].tolist():
            first = first_edge_at.setdefault(v, e)
            if first != e:
                links.append((first, e))
    return [CrackSet.of_edges(k.mesh, group) for group in union_groups(edge_ids, links)]


def sample_crack_points(k: CrackSet, resolution: float) -> np.ndarray:
    """Points along every member edge at the given spacing, endpoints included."""
    chunks = []
    for e in k.edge_ids:
        va, vb = k.mesh.edges[e]
        pa, pb = k.mesh.vertices[int(va)], k.mesh.vertices[int(vb)]
        n = max(1, math.ceil(float(k.mesh.edge_lengths[e]) / resolution))
        t = np.linspace(0.0, 1.0, n + 1)
        chunks.append(pa[None, :] + t[:, None] * (pb - pa)[None, :])
    if not chunks:
        return np.zeros((0, 2))
    return np.concatenate(chunks, axis=0)


def hausdorff(h: CrackSet, k: CrackSet, resolution: float = None) -> float:
    """Hausdorff distance between two edge sets, accurate to the resolution.

    Conventions for the empty set: sup over an empty set is 0, and the
    distance from a point to the empty set is the domain diameter. Hence
    the distance between two empty sets is 0, and between an empty and a
    nonempty set it is the domain diameter.
    """
    _require_same_mesh(h, k)
    if resolution is None:
        resolution = h.mesh.hausdorff_resolution
    elif not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(
            f"hausdorff resolution must be positive and finite, got {resolution!r}")
    if h.bits == k.bits:
        return 0.0

    def directed(src: CrackSet, dst: CrackSet) -> float:
        if src.is_empty:
            return 0.0
        if dst.is_empty:
            return src.mesh.domain_diameter
        pts = sample_crack_points(src, resolution)
        a, b = dst.mesh.segment_endpoints(dst.edge_ids)
        return float(dist_points_to_segments(pts, a, b).min(axis=1).max())

    return max(directed(h, k), directed(k, h))


# ---------------------------------------------------------------------------
# Mesh file format: header "ve-mesh 1", then "v x y", "t i j k" and
# "dirichlet ..." lines in any order; every line is stripped, and blank
# lines and lines starting with "#" are skipped. Indices are 0-based.
# Numbers read as Python's float() and int() read them, so floats parse
# bit-exactly and "1_000.5" or "+4" are accepted. A line with a wrong
# number of fields or a number that does not read raises
# MeshError("malformed <kind> line: ..."), an index outside the int64
# range raises MeshError("vertex index out of range in <kind> line:
# ..."), and a NaN bound raises MeshError("NaN bound in dirichlet bbox
# line: ..."); `vefrac run` reports all three with exit code 1.
#
# The file is read in bulk: a stable sort by first character groups the
# lines after the header into blocks, each in file order. The "v" and
# "t" blocks are each split once; a "t" block whose every line holds
# three plain ASCII digit strings of at most 18 characters (so inside
# int64) is read by one numpy text conversion, any other by int(). Only
# when something does not read are the lines taken one by one, to name
# the first bad one in file order.
# ---------------------------------------------------------------------------

MESH_FORMAT = "ve-mesh 1"

# directive -> (its name in messages, number type, test of the number count)
_DIRECTIVES = {
    "v": ("vertex", float, lambda n: n == 2),
    "t": ("triangle", int, lambda n: n == 3),
    "dirichlet bbox": ("dirichlet bbox", float, lambda n: n == 4),
    "dirichlet pairs": ("dirichlet pairs", int, lambda n: n > 0 and n % 2 == 0),
}
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_FIRST = operator.itemgetter(0)


def _parse_line(ln: str):
    """Directive and numbers of one stripped, non-blank line after the
    header; raises MeshError if the line is not one the format allows."""
    fields = ln.split()
    if fields[0] == "dirichlet":
        if len(fields) < 2 or fields[1] not in ("bbox", "pairs"):
            raise MeshError(f"unknown dirichlet selector in line: {ln!r}")
        fields[:2] = [f"dirichlet {fields[1]}"]
    if fields[0] not in _DIRECTIVES:
        raise MeshError(f"unknown mesh file directive {fields[0]!r}")
    name, number, fits = _DIRECTIVES[fields[0]]
    try:
        values = list(map(number, fields[1:]))
    except ValueError:
        values = None
    if values is None or not fits(len(values)):
        raise MeshError(f"malformed {name} line: {ln!r}")
    if number is int and not (_INT64_MIN <= min(values) and max(values) <= _INT64_MAX):
        raise MeshError(f"vertex index out of range in {name} line: {ln!r}")
    if number is float and any(map(math.isnan, values)):
        raise MeshError(f"NaN bound in {name} line: {ln!r}")
    return fields[0], values


def _number_block(lines: list, directive: str, number, width: int) -> np.ndarray:
    """The numbers of `lines`, each `directive` and `width` numbers, as
    a (len(lines), width) array; ValueError if a line is malformed. The
    block is split once. Every line starts with the directive's letter,
    and no such word reads as a number, so a line of another length
    puts a word where a number belongs."""
    tokens = " ".join(lines).split()
    n = len(lines)
    if len(tokens) != (width + 1) * n or tokens[::width + 1].count(directive) != n:
        raise ValueError(f"malformed {directive!r} line in block")
    del tokens[::width + 1]
    return np.array(list(map(number, tokens)), dtype=number).reshape(-1, width)


def _triangle_block(lines: list) -> np.ndarray:
    """The indices of the lines `lines`, all starting with "t", as
    _number_block reads them. When every line is "t" and three plain
    ASCII digit strings of at most 18 characters, which int64 holds,
    apart by spaces or tabs, one numpy text conversion reads them
    (np.fromstring would read an index past int64 without an error)."""
    n = len(lines)
    text = "\n" + "\n".join(lines) + "\n"
    if n and text.isascii() and text.count("t") == n:
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        digit = (chars >= ord("0")) & (chars <= ord("9"))
        # the digit runs, and the newlines before and after every line;
        # every character is a digit, a blank, a newline or a line's "t"
        starts = (digit[1:] > digit[:-1]).nonzero()[0] + 1
        ends = (digit[:-1] > digit[1:]).nonzero()[0] + 1
        breaks = (chars == ord("\n")).nonzero()[0]
        if (np.count_nonzero(digit) + text.count(" ") + text.count("\t") + 2 * n + 1 == len(text)
                and starts.size == 3 * n and (ends - starts).max() <= 18
                # three runs on each line, the first past its "t" and a blank
                and (starts[::3] > breaks[:-1] + 2).all() and (starts[2::3] < breaks[1:]).all()):
            return np.fromstring(text.replace("t", " "), dtype=np.int64, sep=" ").reshape(n, 3)
    return _number_block(lines, "t", int, 3)


def parse_mesh_text(text: str) -> Mesh:
    lines = list(filter(None, map(str.strip, text.splitlines())))
    head = next((i for i, ln in enumerate(lines) if ln[0] != "#"), len(lines))
    if lines[head:head + 1] != [MESH_FORMAT]:
        raise MeshError(f"unsupported mesh format (expected header '{MESH_FORMAT}')")
    lines = lines[head + 1:]
    blocks = {kind: list(group) for kind, group in groupby(sorted(lines, key=_FIRST), _FIRST)}
    blocks.pop("#", None)
    try:
        verts = _number_block(blocks.pop("v", []), "v", float, 2)
        tris = _triangle_block(blocks.pop("t", []))
        selectors = {"dirichlet bbox": [], "dirichlet pairs": []}
        for group in blocks.values():
            for ln in group:
                kind, values = _parse_line(ln)
                selectors[kind].append(values)
    except (ValueError, OverflowError, MeshError):
        # some line is malformed or holds an index past int64: name the
        # first one in file order
        for ln in lines:
            if ln[0] != "#":
                _parse_line(ln)
        raise

    bboxes, pairs = selectors["dirichlet bbox"], selectors["dirichlet pairs"]
    if not bboxes and not pairs:
        raise MeshError("mesh file declares no dirichlet selector")
    selector = _DirichletSelector(
        pairs=frozenset(tuple(sorted(vals[i:i + 2]))
                        for vals in pairs for i in range(0, len(vals), 2)),
        boxes=tuple(map(tuple, bboxes)))
    return build_mesh(verts, tris, selector)


def read_mesh(path) -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mesh_text(fh.read())


def write_mesh(mesh: Mesh, path) -> None:
    """Write the mesh in the plain-text format, Dirichlet part as explicit pairs."""
    lines = [MESH_FORMAT]
    for x, y in mesh.vertices:
        lines.append(f"v {float(x)!r} {float(y)!r}")
    for t in mesh.triangles:
        lines.append(f"t {int(t[0])} {int(t[1])} {int(t[2])}")
    for e in mesh.dirichlet_edges():
        va, vb = map(int, mesh.edges[e])
        lines.append(f"dirichlet pairs {va} {vb}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
