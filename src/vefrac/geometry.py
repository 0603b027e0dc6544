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
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# Boundary tags for edges.
INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

# Hausdorff sampling: default resolution is the shortest edge divided by this.
HAUSDORFF_REFINE = 16


class MeshError(Exception):
    """Raised when a mesh or crack set fails validation."""


@dataclass(frozen=True)
class Point2:
    """A point of the closed domain, in length units."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise MeshError("point coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation with deterministic edge enumeration.

    Instances are built through :func:`build_mesh`; the fields are
    treated as immutable afterwards. Equality is identity: crack sets
    refer to their mesh by reference and refuse to mix meshes.
    """

    vertices: np.ndarray        # (nv, 2) float
    triangles: np.ndarray       # (nt, 3) int, positively oriented
    edges: np.ndarray           # (ne, 2) int, sorted pairs in lexicographic order
    edge_lengths: np.ndarray    # (ne,) float
    edge_tags: np.ndarray       # (ne,) int, INTERIOR / DIRICHLET / NEUMANN
    edge_triangles: tuple       # per edge: tuple of incident triangle indices
    vertex_edges: tuple         # per vertex: tuple of incident edge indices
    vertex_triangles: tuple     # per vertex: tuple of incident triangle indices
    edge_index: dict            # sorted vertex pair -> edge index
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


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _diameter(vertices: np.ndarray) -> float:
    # Max pairwise distance is attained on the convex hull; tiny inputs
    # take the direct scan.
    pts = vertices if len(vertices) <= 16 else _convex_hull(vertices)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Corners of the convex hull by Andrew's monotone chain; points on a
    hull edge are dropped, so collinear input gives its two ends. Points
    strictly inside the quadrilateral of four extreme points (leftmost,
    lowest, rightmost, highest; ties broken toward distinct corners)
    cannot be corners and are discarded before the chain (Akl-Toussaint)."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    x, y = pts[:, 0], pts[:, 1]
    quad = pts[[0, np.lexsort((-x, y))[0], -1, np.lexsort((x, -y))[0]]]
    inside = np.ones(len(pts), dtype=bool)
    for p, q in zip(quad, np.roll(quad, -1, axis=0)):
        inside &= ((q[0] - p[0]) * (pts[:, 1] - p[1])
                   - (q[1] - p[1]) * (pts[:, 0] - p[0])) > 0
    rest = pts[~inside].tolist()

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


# Most (vertex, edge) candidate pairs _check_hanging_nodes measures at once.
_HANGING_BLOCK = 1 << 16


def _check_hanging_nodes(vertices, edges, lengths):
    # A vertex lying in the interior of a non-incident edge means the
    # triangulation is not conforming. Vertices are bucketed on a grid of
    # cells as wide as the longest edge, and each edge is measured only
    # against the vertices in the (at most 3 x 3) cells its padded bounding
    # box meets. On a graded mesh those cells may hold most vertices, so
    # the candidate pairs are measured in blocks of bounded size. The
    # distances use the arithmetic of dist_points_to_segments, and the
    # smallest offending (vertex, edge) pair is reported, as a scan over
    # all pairs would.
    tol = 1e-12 * max(1.0, float(lengths.max()))
    a = vertices[edges[:, 0]]
    b = vertices[edges[:, 1]]
    width = float(lengths.max())
    origin = vertices.min(axis=0) - width
    vcell = np.floor((vertices - origin) / width).astype(np.int64)
    stride = int(vcell[:, 1].max()) + 3
    vkey = vcell[:, 0] * stride + vcell[:, 1]
    order = np.argsort(vkey, kind="stable")
    sorted_keys = vkey[order]
    pad = 0.25 * width
    lo = np.floor((np.minimum(a, b) - pad - origin) / width).astype(np.int64)
    hi = np.floor((np.maximum(a, b) + pad - origin) / width).astype(np.int64)
    pair_e, pair_keys = [], []
    for dx in range(3):
        for dy in range(3):
            meets = np.flatnonzero((lo[:, 0] + dx <= hi[:, 0]) & (lo[:, 1] + dy <= hi[:, 1]))
            pair_e.append(meets)
            pair_keys.append((lo[meets, 0] + dx) * stride + lo[meets, 1] + dy)
    pair_e = np.concatenate(pair_e)
    pair_keys = np.concatenate(pair_keys)
    first = np.searchsorted(sorted_keys, pair_keys, side="left")
    count = np.searchsorted(sorted_keys, pair_keys, side="right") - first
    ends = np.cumsum(count)
    lowest = None
    i = 0
    while i < len(count):
        # (edge, cell) pairs i..j-1 hold at most _HANGING_BLOCK candidates,
        # or one pair alone if its cell holds more
        done = int(ends[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(ends, done + _HANGING_BLOCK, side="right")))
        found = _first_on_edge(vertices, edges, a, b, tol, order,
                               pair_e[i:j], first[i:j], count[i:j])
        if found is not None and (lowest is None or found < lowest):
            lowest = found
        i = j
    if lowest is not None:
        v, e = lowest
        raise MeshError(
            f"vertex {v} lies on edge {tuple(map(int, edges[e]))}: non-conforming mesh")


def _first_on_edge(vertices, edges, a, b, tol, order, pair_e, first, count):
    """Smallest (vertex, edge) among the candidates of the given (edge,
    cell) pairs where the vertex lies on the non-incident edge, or None."""
    starts = np.cumsum(count) - count
    slots = np.arange(int(count.sum())) - np.repeat(starts - first, count)
    ev = np.repeat(pair_e, count)
    vv = order[slots]
    keep = (edges[ev, 0] != vv) & (edges[ev, 1] != vv)
    ev, vv = ev[keep], vv[keep]
    p = vertices[vv]
    d = b[ev] - a[ev]
    l2 = np.einsum("ij,ij->i", d, d)
    ap = p - a[ev]
    t = np.einsum("ij,ij->i", ap, d) / l2
    np.clip(t, 0.0, 1.0, out=t)
    diff = p - (a[ev] + t[:, None] * d)
    bad = np.flatnonzero(np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= tol)
    if not bad.size:
        return None
    k = bad[np.lexsort((ev[bad], vv[bad]))[0]]
    return int(vv[k]), int(ev[k])


def _dirichlet_predicate(marker) -> Callable[[int, int, np.ndarray, np.ndarray], bool]:
    """Normalize the marker argument to a predicate on boundary edges.

    Accepted forms: a callable on the two endpoint coordinate arrays, a
    bounding box tuple ("bbox", xmin, ymin, xmax, ymax), or an iterable of
    explicit vertex index pairs.
    """
    if callable(marker):
        return lambda va, vb, pa, pb: bool(marker(pa, pb))
    if isinstance(marker, tuple) and len(marker) == 5 and marker[0] == "bbox":
        _, xmin, ymin, xmax, ymax = marker

        def inside(va, vb, pa, pb):
            return (xmin <= pa[0] <= xmax and ymin <= pa[1] <= ymax
                    and xmin <= pb[0] <= xmax and ymin <= pb[1] <= ymax)

        return inside
    pairs = {tuple(sorted(map(int, p))) for p in marker}

    def listed(va, vb, pa, pb):
        return tuple(sorted((va, vb))) in pairs

    listed.pairs = pairs  # kept for validation against the boundary
    return listed


def build_mesh(vertices, triangles, dirichlet_marker) -> Mesh:
    """Assemble and validate a mesh.

    Parameters
    ----------
    vertices : sequence of coordinate pairs or Point2
    triangles : sequence of vertex index triples, positively oriented
    dirichlet_marker : see :func:`_dirichlet_predicate`; selects the
        Dirichlet part among the boundary edges. Must select at least one.
    """
    verts = np.array([[p.x, p.y] if isinstance(p, Point2) else [p[0], p[1]]
                      for p in vertices], dtype=float)
    if len(verts) < 3:
        raise MeshError("mesh needs at least 3 vertices")
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    uniq = {(float(x), float(y)) for x, y in verts}
    if len(uniq) != len(verts):
        raise MeshError("duplicate vertex coordinates")

    tris = np.array(triangles, dtype=int)
    if tris.ndim != 2 or tris.shape[1] != 3 or len(tris) == 0:
        raise MeshError("triangles must be vertex index triples")
    if tris.min() < 0 or tris.max() >= len(verts):
        raise MeshError("triangle vertex index out of range")
    for t in tris:
        if len(set(map(int, t))) != 3:
            raise MeshError(f"triangle {tuple(t)} repeats a vertex")
    areas = _signed_areas(verts, tris)
    bad = np.flatnonzero(areas <= 0)
    if len(bad):
        raise MeshError(f"triangle {int(bad[0])} has non-positive area "
                        "(degenerate or mis-oriented)")

    referenced = set(map(int, tris.ravel()))
    for v in range(len(verts)):
        if v not in referenced:
            raise MeshError(f"vertex {v} is not referenced by any triangle")

    # Deterministic edge enumeration: sorted endpoint pairs, lexicographic.
    pair_tris: dict = {}
    for ti, t in enumerate(tris):
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((int(t[i]), int(t[j]))))
            pair_tris.setdefault(key, []).append(ti)
    pairs = sorted(pair_tris)
    edges = np.array(pairs, dtype=int)
    edge_index = {p: i for i, p in enumerate(pairs)}
    edge_triangles = tuple(tuple(pair_tris[p]) for p in pairs)
    for p, owners in zip(pairs, edge_triangles):
        if len(owners) > 2:
            raise MeshError(f"edge {p} belongs to {len(owners)} triangles: "
                            "non-conforming mesh")

    lengths = np.linalg.norm(verts[edges[:, 1]] - verts[edges[:, 0]], axis=1)

    vertex_edges = [[] for _ in range(len(verts))]
    for ei, (va, vb) in enumerate(pairs):
        vertex_edges[va].append(ei)
        vertex_edges[vb].append(ei)
    vertex_edges = tuple(tuple(e) for e in vertex_edges)
    vertex_triangles = [[] for _ in range(len(verts))]
    for ti, t in enumerate(tris):
        for v in t:
            vertex_triangles[int(v)].append(ti)
    vertex_triangles = tuple(tuple(t) for t in vertex_triangles)

    _check_hanging_nodes(verts, edges, lengths)

    tags = np.full(len(pairs), INTERIOR, dtype=int)
    predicate = _dirichlet_predicate(dirichlet_marker)
    boundary = [i for i, owners in enumerate(edge_triangles) if len(owners) == 1]
    boundary_set = set(boundary)
    if hasattr(predicate, "pairs"):
        for p in predicate.pairs:
            if p not in edge_index:
                raise MeshError(f"dirichlet pair {p} is not a mesh edge")
            if edge_index[p] not in boundary_set:
                raise MeshError(f"dirichlet pair {p} is not a boundary edge")
    for i in boundary:
        va, vb = map(int, edges[i])
        tags[i] = DIRICHLET if predicate(va, vb, verts[va], verts[vb]) else NEUMANN
    if not np.any(tags == DIRICHLET):
        raise MeshError("empty Dirichlet set")

    return Mesh(vertices=verts, triangles=tris, edges=edges,
                edge_lengths=lengths, edge_tags=tags,
                edge_triangles=edge_triangles, vertex_edges=vertex_edges,
                vertex_triangles=vertex_triangles, edge_index=edge_index,
                domain_diameter=_diameter(verts),
                triangle_areas=areas)


# ---------------------------------------------------------------------------
# Crack sets
# ---------------------------------------------------------------------------

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
            if key not in mesh.edge_index:
                raise MeshError(f"vertex pair {key} is not a mesh edge")
            ids.append(mesh.edge_index[key])
        return cls.of_edges(mesh, ids)

    @property
    def edge_ids(self) -> tuple:
        """Member edge indices, ascending."""
        bits, out = self.bits, []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

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
        out = set()
        for e in self.edge_ids:
            va, vb = self.mesh.edges[e]
            out.add(int(va))
            out.add(int(vb))
        return frozenset(out)

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


def dist_point_to_crack(x, k: CrackSet) -> float:
    """Distance from a point to the crack; diam(domain) when K is empty."""
    if k.is_empty:
        return k.mesh.domain_diameter
    if isinstance(x, Point2):
        p = x.as_array()
    else:
        p = np.asarray(x, dtype=float)
    a, b = k.mesh.segment_endpoints(k.edge_ids)
    return float(dist_points_to_segments(p[None, :], a, b).min())


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
    if h.bits == k.bits:
        return 0.0
    if resolution is None:
        resolution = h.mesh.hausdorff_resolution

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
# "dirichlet ..." lines. Indices are 0-based; floats parse bit-exactly.
# ---------------------------------------------------------------------------

MESH_FORMAT = "ve-mesh 1"


def parse_mesh_text(text: str) -> Mesh:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != MESH_FORMAT:
        raise MeshError(f"unsupported mesh format (expected header '{MESH_FORMAT}')")
    verts, tris, bboxes, pairs = [], [], [], []
    for ln in lines[1:]:
        fields = ln.split()
        kind, args = fields[0], fields[1:]
        if kind == "v":
            if len(args) != 2:
                raise MeshError(f"malformed vertex line: {ln!r}")
            verts.append((float(args[0]), float(args[1])))
        elif kind == "t":
            if len(args) != 3:
                raise MeshError(f"malformed triangle line: {ln!r}")
            tris.append(tuple(int(a) for a in args))
        elif kind == "dirichlet":
            if args and args[0] == "bbox":
                if len(args) != 5:
                    raise MeshError(f"malformed dirichlet bbox line: {ln!r}")
                bboxes.append(tuple(float(a) for a in args[1:]))
            elif args and args[0] == "pairs":
                vals = [int(a) for a in args[1:]]
                if not vals or len(vals) % 2:
                    raise MeshError(f"malformed dirichlet pairs line: {ln!r}")
                pairs.extend((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
            else:
                raise MeshError(f"unknown dirichlet selector in line: {ln!r}")
        else:
            raise MeshError(f"unknown mesh file directive {kind!r}")

    explicit = {tuple(sorted(p)) for p in pairs}
    if not bboxes and not explicit:
        raise MeshError("mesh file declares no dirichlet selector")
    if explicit and not bboxes:
        return build_mesh(verts, tris, explicit)

    coord_to_idx = {(float(x), float(y)): i for i, (x, y) in enumerate(verts)}

    def marker(pa, pb):
        for (xmin, ymin, xmax, ymax) in bboxes:
            if (xmin <= pa[0] <= xmax and ymin <= pa[1] <= ymax
                    and xmin <= pb[0] <= xmax and ymin <= pb[1] <= ymax):
                return True
        if explicit:
            ia = coord_to_idx[(float(pa[0]), float(pa[1]))]
            ib = coord_to_idx[(float(pb[0]), float(pb[1]))]
            return tuple(sorted((ia, ib))) in explicit
        return False

    return build_mesh(verts, tris, marker)


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
