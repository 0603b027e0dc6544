"""Small, deliberately naive reference implementations used by the tests.

These recompute quantities with the most direct method available (plain
loops, BFS, dense sampling, exhaustive enumeration) and are kept
independent of the package internals so that agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import deque

import numpy as np


def point_segment_distance(p, a, b) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    l2 = dx * dx + dy * dy
    if l2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / l2
    t = min(1.0, max(0.0, t))
    qx, qy = ax + t * dx, ay + t * dy
    return math.hypot(px - qx, py - qy)


def edge_ids_per_bit(bits: int) -> tuple:
    """Set bit positions of a mask, ascending, by testing every bit
    position up to the highest one."""
    out, i = [], 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def bfs_components(edge_pairs):
    """Group edges (given as vertex index pairs) by shared endpoints."""
    edge_pairs = list(edge_pairs)
    vertex_to_edges = {}
    for i, (a, b) in enumerate(edge_pairs):
        vertex_to_edges.setdefault(a, []).append(i)
        vertex_to_edges.setdefault(b, []).append(i)
    seen, groups = set(), []
    for start in range(len(edge_pairs)):
        if start in seen:
            continue
        group, queue = [], deque([start])
        seen.add(start)
        while queue:
            e = queue.popleft()
            group.append(e)
            for v in edge_pairs[e]:
                for nb in vertex_to_edges[v]:
                    if nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
        groups.append(sorted(group))
    return groups


def dense_directed_haus(mesh, src_ids, dst_ids, n_per_edge=400) -> float:
    """sup over src of dist to dst, by dense sampling; conventions included."""
    if not src_ids:
        return 0.0
    if not dst_ids:
        return mesh.domain_diameter
    best = 0.0
    for e in src_ids:
        va, vb = mesh.edges[e]
        ax, ay = mesh.vertices[int(va)]
        bx, by = mesh.vertices[int(vb)]
        for i in range(n_per_edge + 1):
            t = i / n_per_edge
            p = (ax + t * (bx - ax), ay + t * (by - ay))
            d = min(point_segment_distance(
                p, mesh.vertices[int(mesh.edges[f][0])],
                mesh.vertices[int(mesh.edges[f][1])]) for f in dst_ids)
            best = max(best, d)
    return best


def dense_hausdorff(mesh, h_ids, k_ids, n_per_edge=400) -> float:
    return max(dense_directed_haus(mesh, h_ids, k_ids, n_per_edge),
               dense_directed_haus(mesh, k_ids, h_ids, n_per_edge))


def sum_lengths(mesh, ids) -> float:
    return float(sum(mesh.edge_lengths[e] for e in sorted(ids)))


def dense_atw_integral(mesh, h_ids, k_ids, n_per_edge=1000) -> float:
    """Midpoint-rule value of the distance integral over K minus H."""
    h_ids = set(h_ids)
    total = 0.0
    for e in sorted(set(k_ids) - h_ids):
        va, vb = mesh.edges[e]
        ax, ay = mesh.vertices[int(va)]
        bx, by = mesh.vertices[int(vb)]
        length = math.hypot(bx - ax, by - ay)
        acc = 0.0
        for i in range(n_per_edge):
            t = (i + 0.5) / n_per_edge
            p = (ax + t * (bx - ax), ay + t * (by - ay))
            if h_ids:
                d = min(point_segment_distance(
                    p, mesh.vertices[int(mesh.edges[f][0])],
                    mesh.vertices[int(mesh.edges[f][1])]) for f in h_ids)
            else:
                d = mesh.domain_diameter
            acc += d
        total += acc * length / n_per_edge
    return total


def oracle_alpha(mesh, h_ids, k_ids):
    """Component-scan count of K-components with no vertex in common
    with H; None when H is not contained in K."""
    h_ids, k_ids = set(h_ids), set(k_ids)
    if not h_ids <= k_ids:
        return None
    pairs = [tuple(map(int, mesh.edges[e])) for e in sorted(k_ids)]
    h_vertices = set()
    for e in h_ids:
        h_vertices.update(map(int, mesh.edges[e]))
    count = 0
    for group in bfs_components(pairs):
        verts = set()
        for i in group:
            verts.update(pairs[i])
        if not (verts & h_vertices):
            count += 1
    return count


def oracle_fan_dofs(mesh, crack_edge_ids):
    """Independent per-vertex fan count: triangles around a vertex are
    grouped by walking shared non-crack edges incident to that vertex.
    Returns (total dof count, per-vertex fan counts)."""
    crack = set(crack_edge_ids)
    counts = []
    for v in range(mesh.n_vertices):
        tris = [t for t in range(mesh.n_triangles) if v in mesh.triangles[t]]
        index_of = {t: i for i, t in enumerate(tris)}
        pairs = []
        for e, (pa, pb) in enumerate(map(tuple, mesh.edges)):
            if e in crack or v not in (pa, pb):
                continue
            owners = [t for t in tris if pa in mesh.triangles[t] and pb in mesh.triangles[t]]
            if len(owners) == 2:
                pairs.append((index_of[owners[0]], index_of[owners[1]]))
        # bfs_components works on vertex-pair lists; reuse it on tri indices
        seen = set()
        fans = 0
        adj = {i: set() for i in range(len(tris))}
        for i, j in pairs:
            adj[i].add(j)
            adj[j].add(i)
        for i in range(len(tris)):
            if i in seen:
                continue
            fans += 1
            stack = [i]
            while stack:
                cur = stack.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(adj[cur] - seen)
        counts.append(fans)
    return sum(counts), counts


def enumerate_monotone_mask_chains(gap_size):
    """Every strictly increasing bitmask sequence from 0 to the full
    mask (all orderings of revealing the gap edges, grouped arbitrarily)."""
    full = (1 << gap_size) - 1
    out = []

    def extend(path):
        cur = path[-1]
        if cur == full:
            out.append(tuple(path))
            return
        rest = full & ~cur
        sub = rest
        while sub:
            extend(path + [cur | sub])
            sub = (sub - 1) & rest

    extend([0])
    return out


def dense_hanging_node_check(vertices, edges, vertex_edges, lengths):
    """Raise the non-conforming MeshError for the first (vertex, edge)
    pair, in row-major order, where the vertex lies within tolerance of a
    non-incident edge; measures every pair, in chunks of 256 vertices."""
    from vefrac.geometry import MeshError, dist_points_to_segments

    tol = 1e-12 * max(1.0, float(lengths.max()))
    a = vertices[edges[:, 0]]
    b = vertices[edges[:, 1]]
    nv = len(vertices)
    for lo in range(0, nv, 256):
        hi = min(nv, lo + 256)
        dmat = dist_points_to_segments(vertices[lo:hi], a, b)
        for vi, ei in zip(*np.nonzero(dmat <= tol)):
            v = lo + int(vi)
            if int(ei) not in vertex_edges[v]:
                raise MeshError(
                    f"vertex {v} lies on edge {tuple(map(int, edges[int(ei)]))}: non-conforming mesh")


def qhull_diameter(vertices) -> float:
    """Domain diameter over the qhull convex hull (direct scan for at most
    16 points or when qhull refuses the input)."""
    from scipy.spatial import ConvexHull, QhullError

    pts = vertices
    if len(pts) > 16:
        try:
            pts = vertices[ConvexHull(vertices).vertices]
        except QhullError:
            pts = vertices
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


def competitors_by_sets(pool, state, search, budget):
    """Competitor sequence of an instance, with the free edges taken as
    the sorted set difference of the pool's and the state's edges."""
    available = sorted(set(pool.edge_ids) - set(state.edge_ids))
    out = [state]
    if search == "greedy":
        return out + [state.with_edges([e]) for e in available]
    for k in range(1, min(budget, len(available)) + 1):
        out.extend(state.with_edges(c) for c in itertools.combinations(available, k))
    return out


def reference_scan(t, source, candidates, instance):
    """The competitor loop without any skipping: min over candidates K of
    E(t,K) + D(source,K), pricing and evaluating every candidate in the
    given order. Returns (minimum, winners sorted by the tie-break,
    candidates examined, E(t, source) or None)."""
    best = math.inf
    winners = []
    examined = 0
    own = None
    for comp in candidates:
        examined += 1
        charged = instance.charges(source, comp)
        if charged is None:
            continue
        energy = instance.energy(t, comp)
        if comp.bits == source.bits:
            own = energy
        value = energy + charged.big_d
        if value < best:
            best = value
            winners = [comp]
        elif value == best:
            winners.append(comp)
    winners.sort(key=lambda c: c.sort_key())
    return best, winners, examined, own


class ReferenceRanking:
    """What reference_rank returns: the source, the D of every ranked
    candidate, the candidates in that order and how many were examined.
    Iterating gives the (D, K) pairs."""

    def __init__(self, source, big_d, examined, cracks):
        self.source = source
        self.big_d = big_d
        self.examined = examined
        self.cracks = cracks

    def __iter__(self):
        return zip(self.big_d, self.cracks)


def reference_rank(source, candidates, instance):
    """The t-free half of a scan, one candidate at a time: price every
    candidate's hop from source and sort by D, stably, so equal D keep
    their order. A candidate that does not contain `source` costs
    +infinity and is left out."""
    priced = []
    examined = 0
    for comp in candidates:
        examined += 1
        charged = instance.charges(source, comp)
        if charged is not None:
            priced.append((charged.big_d, comp))
    priced.sort(key=lambda pair: pair[0])
    return ReferenceRanking(source, [d for d, _ in priced], examined,
                            [comp for _, comp in priced])


def per_hop(hop):
    """A `hops` callback made of a per-hop function hop(H, K) -> HopCost:
    each edge sequence of `new` is priced alone, as hop(H, H plus its
    edges), and the records' fields are stacked into float arrays."""
    from vefrac.dissipation import HopCost

    def hops(h, new):
        records = [hop(h, h.with_edges(edges)) for edges in new]
        return HopCost(*(np.array([getattr(r, name) for r in records], dtype=float)
                         .reshape(len(records))
                         for name in ("h1", "sweep", "alpha")))

    return hops


def reference_step(t, prev, instance):
    """The incremental step as a min over (objective, *sort_key) tuples:
    exhaustive mode takes the smallest key over the competitors of
    `prev`; greedy mode augments its current best by one pool edge at a
    time until no single-edge superset has a smaller key, always pricing
    the dissipation from `prev`."""

    def objective(cand):
        charged = instance.charges(prev, cand)
        if charged is None:
            return math.inf
        return instance.energy(t, cand) + charged.big_d

    def best_among(cands, current_best=None):
        best = current_best
        for cand in cands:
            key = (objective(cand), *cand.sort_key())
            if best is None or key < best[0]:
                best = (key, cand)
        return best

    if instance.search == "greedy":
        best = best_among([prev])
        while True:
            state = best[1]
            available = instance.pool.minus(state).edge_ids
            found = best_among((state.with_edges([e]) for e in available), best)
            if found[1].bits == state.bits:
                return state
            best = found
    return best_among(instance.competitors(prev))[1]


def reference_mesh_topology(vertices, triangles, dirichlet_marker) -> dict:
    """build_mesh by plain loops: the same checks in the same order with
    the same messages, an edge -> owning triangles dict sorted into the
    edge list, per-vertex incident edges and triangles, and per-element
    areas and lengths in scalar arithmetic. Returns the mesh's fields
    plus the incidence tuples `edge_triangles`, `vertex_edges` and
    `vertex_triangles`."""
    from vefrac.geometry import (DIRICHLET, INTERIOR, NEUMANN, MeshError,
                                 _dirichlet_selector, _DirichletSelector)

    verts = np.array([[float(p[0]), float(p[1])] for p in vertices], dtype=float)
    if len(verts) < 3:
        raise MeshError("mesh needs at least 3 vertices")
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    if len({(float(x), float(y)) for x, y in verts}) != len(verts):
        raise MeshError("duplicate vertex coordinates")
    tris = np.array(triangles, dtype=int)
    if tris.ndim != 2 or tris.shape[1] != 3 or len(tris) == 0:
        raise MeshError("triangles must be vertex index triples")
    if tris.min() < 0 or tris.max() >= len(verts):
        raise MeshError("triangle vertex index out of range")
    tri_list = tris.tolist()
    for t in tri_list:
        if len(set(t)) != 3:
            raise MeshError(f"triangle {tuple(t)} repeats a vertex")
    xy = verts.tolist()
    areas = []
    for a, b, c in tri_list:
        (ax, ay), (bx, by), (cx, cy) = xy[a], xy[b], xy[c]
        areas.append(0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)))
    for ti, area in enumerate(areas):
        if area <= 0:
            raise MeshError(f"triangle {ti} has non-positive area "
                            "(degenerate or mis-oriented)")
    referenced = {v for t in tri_list for v in t}
    for v in range(len(verts)):
        if v not in referenced:
            raise MeshError(f"vertex {v} is not referenced by any triangle")

    pair_tris: dict = {}
    for ti, t in enumerate(tri_list):
        for i, j in ((0, 1), (1, 2), (2, 0)):
            pair_tris.setdefault(tuple(sorted((t[i], t[j]))), []).append(ti)
    pairs = sorted(pair_tris)
    edge_triangles = tuple(tuple(pair_tris[p]) for p in pairs)
    for p, owners in zip(pairs, edge_triangles):
        if len(owners) > 2:
            raise MeshError(f"edge {p} belongs to {len(owners)} triangles: "
                            "non-conforming mesh")
    edges = np.array(pairs, dtype=int)
    edge_index = {p: i for i, p in enumerate(pairs)}
    lengths = []
    for va, vb in pairs:
        dx, dy = xy[vb][0] - xy[va][0], xy[vb][1] - xy[va][1]
        lengths.append(math.sqrt(dx * dx + dy * dy))
    lengths = np.array(lengths)
    vertex_edges = [[] for _ in range(len(verts))]
    for ei, (va, vb) in enumerate(pairs):
        vertex_edges[va].append(ei)
        vertex_edges[vb].append(ei)
    vertex_triangles = [[] for _ in range(len(verts))]
    for ti, t in enumerate(tri_list):
        for v in t:
            vertex_triangles[v].append(ti)

    dense_hanging_node_check(verts, edges, vertex_edges, lengths)

    selector = _dirichlet_selector(dirichlet_marker)
    boundary = [i for i, owners in enumerate(edge_triangles) if len(owners) == 1]
    if isinstance(selector, _DirichletSelector):
        for p in selector.pairs:
            if p not in edge_index:
                raise MeshError(f"dirichlet pair {p} is not a mesh edge")
            if edge_index[p] not in boundary:
                raise MeshError(f"dirichlet pair {p} is not a boundary edge")

        def predicate(va, vb, pa, pb):
            return (va, vb) in selector.pairs or any(
                xmin <= pa[0] <= xmax and ymin <= pa[1] <= ymax
                and xmin <= pb[0] <= xmax and ymin <= pb[1] <= ymax
                for xmin, ymin, xmax, ymax in selector.boxes)
    else:
        def predicate(va, vb, pa, pb):
            return bool(selector(pa, pb))
    tags = [INTERIOR] * len(pairs)
    for i in boundary:
        va, vb = pairs[i]
        tags[i] = DIRICHLET if predicate(va, vb, verts[va], verts[vb]) else NEUMANN
    if DIRICHLET not in tags:
        raise MeshError("empty Dirichlet set")
    return {
        "vertices": verts, "triangles": tris, "edges": edges,
        "edge_index": edge_index, "edge_lengths": lengths,
        "edge_tags": np.array(tags, dtype=int), "triangle_areas": np.array(areas),
        "domain_diameter": qhull_diameter(verts),
        "edge_triangles": edge_triangles,
        "vertex_edges": tuple(map(tuple, vertex_edges)),
        "vertex_triangles": tuple(map(tuple, vertex_triangles)),
    }


_TOPOLOGIES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def reference_topology(mesh) -> dict:
    """reference_mesh_topology of a built mesh, derived once per mesh:
    its hanging-node check alone takes most of a second on a 48x48 grid,
    and the reference spaces of a run read it for every crack set."""
    topo = _TOPOLOGIES.get(mesh)
    if topo is None:
        topo = _TOPOLOGIES[mesh] = reference_mesh_topology(
            mesh.vertices, mesh.triangles,
            [tuple(map(int, mesh.edges[e])) for e in mesh.dirichlet_edges()])
    return topo


def _reference_fans(mesh, topo, crack_bits):
    """(tri_dofs, dof_vertex, n_dofs) by a union-find over the star of
    every vertex: DOF n is the n-th fan met in (vertex, triangle) order."""
    edge_triangles = topo["edge_triangles"]
    tri_dofs = np.full((mesh.n_triangles, 3), -1, dtype=int)
    dof_vertex = []
    n = 0
    for v in range(mesh.n_vertices):
        tris = topo["vertex_triangles"][v]
        local = {t: i for i, t in enumerate(tris)}
        parent = list(range(len(tris)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in topo["vertex_edges"][v]:
            if (crack_bits >> e) & 1:
                continue
            owners = edge_triangles[e]
            if len(owners) == 2:
                a, b = find(local[owners[0]]), find(local[owners[1]])
                if a != b:
                    parent[a] = b
        fan_dof = {}
        for t in tris:
            root = find(local[t])
            if root not in fan_dof:
                fan_dof[root] = n
                dof_vertex.append(v)
                n += 1
            slot = list(mesh.triangles[t]).index(v)
            tri_dofs[t, slot] = fan_dof[root]
    return tri_dofs, dof_vertex, n


def reference_space_key(mesh, crack, topo=None):
    """The space key as (tri_dofs bytes, crack's Dirichlet edge bits):
    equal exactly for equal spaces. `topo`, the mesh's
    reference_mesh_topology, may be passed in to key many cracks."""
    topo = reference_topology(mesh) if topo is None else topo
    dirichlet_bits = sum(1 << int(e) for e in mesh.dirichlet_edges())
    tri_dofs = _reference_fans(mesh, topo, crack.bits)[0]
    return tri_dofs.tobytes(), crack.bits & dirichlet_bits


def reference_space(mesh, crack) -> dict:
    """The arrays of the P1 space cut along a crack, by a union-find over
    the star of every vertex and over all triangles: DOF n is the n-th fan
    met in (vertex, triangle) order; components are labelled in order of
    their smallest triangle."""
    topo = reference_topology(mesh)
    edge_triangles = topo["edge_triangles"]
    crack_bits = crack.bits
    tri_dofs, dof_vertex, n = _reference_fans(mesh, topo, crack_bits)

    parent = list(range(mesh.n_triangles))

    def find_t(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in range(mesh.n_edges):
        if (crack_bits >> e) & 1:
            continue
        owners = edge_triangles[e]
        if len(owners) == 2:
            a, b = find_t(owners[0]), find_t(owners[1])
            if a != b:
                parent[a] = b
    labels = {}
    tri_component = np.empty(mesh.n_triangles, dtype=int)
    for t in range(mesh.n_triangles):
        root = find_t(t)
        if root not in labels:
            labels[root] = len(labels)
        tri_component[t] = labels[root]
    dof_component = np.full(n, -1, dtype=int)
    for t in range(mesh.n_triangles):
        dof_component[tri_dofs[t]] = tri_component[t]

    dirichlet = set()
    for e in mesh.dirichlet_edges():
        e = int(e)
        if e in crack:
            continue
        (t,) = edge_triangles[e]
        va, vb = map(int, mesh.edges[e])
        tri = list(mesh.triangles[t])
        dirichlet.add(int(tri_dofs[t, tri.index(va)]))
        dirichlet.add(int(tri_dofs[t, tri.index(vb)]))
    dirichlet_dofs = np.array(sorted(dirichlet), dtype=int)
    seen = set(dof_component[dirichlet_dofs])
    pinned = [int(np.flatnonzero(dof_component == comp)[0])
              for comp in range(len(labels)) if comp not in seen]
    pinned_dofs = np.array(pinned, dtype=int)
    mask = np.zeros(n, dtype=bool)
    mask[dirichlet_dofs] = True
    mask[pinned_dofs] = True

    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    acc = np.zeros((n, 2))
    cnt = np.zeros(n)
    for t in range(mesh.n_triangles):
        for slot in range(3):
            acc[tri_dofs[t, slot]] += centroids[t]
            cnt[tri_dofs[t, slot]] += 1
    offsets = acc / cnt[:, None] - mesh.vertices[np.asarray(dof_vertex, dtype=int)]
    return {
        "tri_dofs": tri_dofs, "dof_vertex": np.asarray(dof_vertex, dtype=int),
        "n_dofs": n, "tri_component": tri_component,
        "n_components": len(labels), "dof_component": dof_component,
        "dirichlet_dofs": dirichlet_dofs, "pinned_dofs": pinned_dofs,
        "constrained_mask": mask, "fan_centroid_offsets": offsets,
    }


def reference_component_labels(n: int, links) -> np.ndarray:
    """Connected-component label of each of n nodes joined by the (m, 2)
    links, by scipy's csgraph, relabelled 0, 1, ... in order of each
    component's first node."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    links = np.asarray(links, dtype=int).reshape(-1, 2)
    graph = sp.coo_matrix((np.ones(len(links)), (links[:, 0], links[:, 1])),
                          shape=(n, n))
    labels = connected_components(graph, directed=False)[1]
    first = np.unique(labels, return_index=True)[1]
    relabel = np.empty(first.size, dtype=int)
    relabel[labels[np.sort(first)]] = np.arange(first.size)
    return relabel[labels]


def reference_stiffness(mesh, tri_dofs, n_dofs):
    """P1 stiffness assembled from freshly computed element matrices."""
    import scipy.sparse as sp

    pts = mesh.vertices[mesh.triangles]
    edges = np.stack([pts[:, 2] - pts[:, 1], pts[:, 0] - pts[:, 2],
                      pts[:, 1] - pts[:, 0]], axis=1)
    grads = np.empty_like(edges)
    grads[:, :, 0] = -edges[:, :, 1]
    grads[:, :, 1] = edges[:, :, 0]
    grads /= (2.0 * mesh.triangle_areas)[:, None, None]
    local = np.einsum("tid,tjd->tij", grads, grads) * mesh.triangle_areas[:, None, None]
    rows = np.repeat(tri_dofs, 3, axis=1).ravel()
    cols = np.tile(tri_dofs, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()


def reference_reduced_system(a, mask, values):
    """The field fixed on the constrained DOFs (zero elsewhere), the free
    DOFs, and the reduced system on them built by fancy indexing: the
    free x free block and the right-hand side."""
    u = np.zeros(len(mask))
    u[mask] = values[mask]
    free = np.flatnonzero(~mask)
    aff = a[free][:, free]
    b = -(a[free][:, np.flatnonzero(mask)] @ u[mask])
    return u, free, aff, b


def reference_cg(aff, b, maxiter, rtol=1e-10):
    """scipy's CG with the Jacobi preconditioner x -> x / diag(aff);
    returns (x, info)."""
    import scipy.sparse.linalg as spla

    diag = aff.diagonal()
    precond = spla.LinearOperator(aff.shape, matvec=lambda x: x / diag)
    return spla.cg(aff, b, rtol=rtol, atol=0.0, M=precond, maxiter=maxiter)


def reference_solve(a, mask, values, rtol=1e-10):
    """Jacobi-preconditioned CG on the reduced system built by fancy
    indexing; returns (field, relative residual)."""
    u, free, aff, b = reference_reduced_system(a, mask, values)
    if free.size == 0:
        return u, 0.0
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return u, 0.0
    x, info = reference_cg(aff, b, max(2000, 20 * free.size), rtol=rtol)
    assert info == 0
    u[free] = x
    return u, float(np.linalg.norm(aff @ x - b)) / bnorm


def reference_jump_cost(t, k_minus, k_plus, instance):
    """VE jump cost c(t, K-, K+): minimum transition cost over monotone
    chains in the interval lattice between K- and K+.

    Shortest path over gap bitmasks: the node weight R(t, .) is folded
    into every outgoing hop, so the final state's R is not charged, as
    in the transition-cost sum. Ties prefer shorter chains, then the
    lexicographically smallest sequence of intermediate sets.
    """
    # The unpruned search: every node it expands gets a full
    # residual_stability scan.
    import heapq

    from vefrac.dissipation import MonotoneChain
    from vefrac.ve_core import (LATTICE_CAP, HopLedger, JumpCostResult,
                                residual_stability)

    if not k_minus.issubset(k_plus):
        return JumpCostResult(cost=math.inf, chain=None, hops=())
    gap = k_plus.minus(k_minus).edge_ids
    g = len(gap)
    if g > LATTICE_CAP:
        raise ValueError(
            f"gap of {g} edges exceeds the lattice cap {LATTICE_CAP}; "
            "restrict the lattice or raise the cap")
    if g == 0:
        return JumpCostResult(cost=0.0, chain=MonotoneChain([k_minus]), hops=())

    def to_state(mask: int) -> CrackSet:
        return k_minus.with_edges(gap[i] for i in range(g) if (mask >> i) & 1)

    states: dict[int, CrackSet] = {}

    def state_of(mask: int) -> CrackSet:
        if mask not in states:
            states[mask] = to_state(mask)
        return states[mask]

    r_memo: dict[int, float] = {}

    def r_of(mask: int) -> float:
        if mask not in r_memo:
            r_memo[mask] = residual_stability(t, state_of(mask), instance).residual
        return r_memo[mask]

    full = (1 << g) - 1
    # per node: (cost, chain length, path as tuple of masks)
    best: dict[int, tuple[float, int, tuple[int, ...]]] = {0: (0.0, 1, (0,))}
    finished: set[int] = set()
    heap: list[tuple[float, int, tuple[int, ...], int]] = [(0.0, 1, (0,), 0)]
    while heap:
        cost, length, path, node = heapq.heappop(heap)
        if node in finished:
            continue
        finished.add(node)
        if node == full:
            break
        r_here = r_of(node)
        free = [i for i in range(g) if not (node >> i) & 1]
        for extra in range(1, 1 << len(free)):
            nxt = node
            for j, i in enumerate(free):
                if (extra >> j) & 1:
                    nxt |= 1 << i
            charged = instance.charges(state_of(node), state_of(nxt))
            hop = r_here + charged.sweep + charged.rate * charged.alpha
            cand = (cost + hop, length + 1, path + (nxt,))
            known = best.get(nxt)
            if known is None or cand < known:
                best[nxt] = cand
                heapq.heappush(heap, (*cand, nxt))
    cost, _, path = best[full]
    chain = MonotoneChain([state_of(m) for m in path])
    hops = []
    for a, b, m in zip(chain.states, chain.states[1:], path):
        charged = instance.charges(a, b)
        hops.append(HopLedger(delta=charged.sweep, alpha=charged.alpha,
                              r_start=r_of(m)))
    return JumpCostResult(cost=cost, chain=chain, hops=tuple(hops))


def reference_competitors(instance, state):
    """Competitor sequence of an instance, each built from its edge ids
    by CrackSet.with_edges: the state, then every admissible superset in
    the order the search mode enumerates them."""
    from vefrac.ve_core import MAX_COMPETITORS

    available = instance.pool.minus(state).edge_ids
    if instance.search == "greedy":
        yield state
        for e in available:
            yield state.with_edges([e])
        return
    budget = min(instance.budget, len(available))
    total = sum(math.comb(len(available), k) for k in range(budget + 1))
    if total > MAX_COMPETITORS:
        raise ValueError(
            f"budget {instance.budget} over a pool of {len(available)} free edges "
            f"enumerates {total} competitors; exceeds {MAX_COMPETITORS}")
    yield state
    for k in range(1, budget + 1):
        for combo in itertools.combinations(available, k):
            yield state.with_edges(combo)


def reference_alpha(h, k) -> float:
    """Number of connected components of K sharing no vertex with H,
    when H is contained in K; +infinity otherwise, by a component scan
    of all of K."""
    from vefrac.geometry import _require_same_mesh, connected_components

    _require_same_mesh(h, k)
    if not h.issubset(k):
        return math.inf
    if k.is_empty:
        return 0.0
    h_vertices = h.vertex_ids()
    count = sum(1 for comp in connected_components(k)
                if not (comp.vertex_ids() & h_vertices))
    return float(count)


def reference_atw_integral(h, k) -> float:
    """Delta(H,K) by the composite Gauss-Legendre rule, measured on the
    new edges of this one hop in one batch."""
    from vefrac.dissipation import _ATW_NODES, _ATW_WEIGHTS
    from vefrac.geometry import _require_same_mesh, dist_points_to_segments

    _require_same_mesh(h, k)
    if not h.issubset(k):
        return math.inf
    mesh = h.mesh
    new_ids = k.minus(h).edge_ids
    if not new_ids:
        return 0.0
    lengths = mesh.edge_lengths[list(new_ids)]
    if h.is_empty:
        return mesh.domain_diameter * math.fsum(lengths)
    t, w = _ATW_NODES, _ATW_WEIGHTS
    a, b = mesh.segment_endpoints(new_ids)
    pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    ha, hb = mesh.segment_endpoints(h.edge_ids)
    dists = dist_points_to_segments(pts.reshape(-1, 2), ha, hb).min(axis=1)
    dists = dists.reshape(len(new_ids), len(t))
    per_edge = lengths * (dists @ w)
    return math.fsum(per_edge)


def reference_hop_cost(h, k):
    """The HopCost of H -> K from reference_alpha, h1_diff and
    reference_atw_integral; None when H is not contained in K."""
    from vefrac.dissipation import HopCost
    from vefrac.geometry import h1_diff

    a = reference_alpha(h, k)
    if a == math.inf:
        return None
    return HopCost(h1=h1_diff(h, k), sweep=reference_atw_integral(h, k),
                   alpha=a)


def reference_big_d(h, k, params) -> float:
    """Corrected dissipation D = H1(K\\H) + Delta(H,K) + (lam + mu) alpha(H,K)
    of reference_hop_cost's record; +infinity when H is not contained
    in K."""
    hop = reference_hop_cost(h, k)
    return math.inf if hop is None else hop.charges(params).big_d


def reference_energy_entry(mesh, load, k):
    """(E1, p1) of one crack set from the reference space built and
    solved by scipy for that set alone: the energy at unit amplitude
    and the pairing of the profile with A u."""
    space = reference_space(mesh, k)
    a = reference_stiffness(mesh, space["tri_dofs"], space["n_dofs"])
    dirichlet, dof_vertex = space["dirichlet_dofs"], space["dof_vertex"]
    values = np.zeros(space["n_dofs"])
    values[dirichlet] = load.profile[dof_vertex[dirichlet]]
    u, _ = reference_solve(a, space["constrained_mask"], values)
    au = a @ u
    return 0.5 * float(u @ au), float(load.profile[dof_vertex] @ au)


def reference_run(mesh, load, params, pool, k0, times, budget, search, viscous):
    """run_scheme rebuilt from the reference pieces: energies and powers
    from reference_energy_entry, E = a^2 E1 and P = (a' a) p1 as the
    fracture instance forms them, every hop priced by
    per_hop(reference_hop_cost), each step taken by reference_step and
    each R by reference_scan over every competitor, with no floor. A
    step that keeps its state is charged +0.0 throughout, R included, as
    the scheme's ledger records it. Returns the states and the ledger
    rows (E, power, power_pre, d, delta, alpha, R), one per time."""
    from vefrac.ve_core import RisInstance

    entries = {}

    def entry(k):
        if k.bits not in entries:
            entries[k.bits] = reference_energy_entry(mesh, load, k)
        return entries[k.bits]

    def energy(t, k):
        a = load.amplitude(t)
        return a * a * entry(k)[0]

    def power(t, k):
        a = load.amplitude(t)
        return load.amplitude.derivative(t) * a * entry(k)[1]

    instance = RisInstance(pool=pool, energy=energy, power=power,
                           hops=per_hop(reference_hop_cost), params=params,
                           budget=budget, search=search, viscous=viscous)

    def residual(t, k):
        best, _, _, own = reference_scan(t, k, reference_competitors(instance, k), instance)
        return own - best

    t = float(times[0])
    states = [k0]
    rows = [(energy(t, k0), power(t, k0), power(t, k0), 0.0, 0.0, 0.0, residual(t, k0))]
    for t in map(float, times[1:]):
        prev = states[-1]
        nxt = reference_step(t, prev, instance)
        states.append(nxt)
        d = delta = alpha = r = 0.0
        if nxt.bits != prev.bits:
            charged = instance.charges(prev, nxt)
            d, delta, alpha = charged.d, charged.sweep, charged.alpha
            r = residual(t, nxt)
        rows.append((energy(t, nxt), power(t, nxt), power(t, prev), d, delta, alpha, r))
    return states, rows


def reference_parse_mesh_text(text: str):
    """The mesh file parser line by line: one tuple per vertex and
    triangle line, each number read by float() or int() as it comes, so
    a number that does not read raises a bare ValueError. An index past
    int64 and a NaN bbox bound raise the parser's MeshError naming the
    line. Errors come in file order. Builds through build_mesh's
    sequence-of-pairs path."""
    from vefrac.geometry import MESH_FORMAT, MeshError, _DirichletSelector, build_mesh

    def indices(name, ln, vals):
        if not all(-2 ** 63 <= v < 2 ** 63 for v in vals):
            raise MeshError(f"vertex index out of range in {name} line: {ln!r}")
        return vals

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
            tris.append(tuple(indices("triangle", ln, [int(a) for a in args])))
        elif kind == "dirichlet":
            if args and args[0] == "bbox":
                if len(args) != 5:
                    raise MeshError(f"malformed dirichlet bbox line: {ln!r}")
                box = tuple(float(a) for a in args[1:])
                if any(math.isnan(b) for b in box):
                    raise MeshError(f"NaN bound in dirichlet bbox line: {ln!r}")
                bboxes.append(box)
            elif args and args[0] == "pairs":
                vals = [int(a) for a in args[1:]]
                if not vals or len(vals) % 2:
                    raise MeshError(f"malformed dirichlet pairs line: {ln!r}")
                indices("dirichlet pairs", ln, vals)
                pairs.extend((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
            else:
                raise MeshError(f"unknown dirichlet selector in line: {ln!r}")
        else:
            raise MeshError(f"unknown mesh file directive {kind!r}")

    if not bboxes and not pairs:
        raise MeshError("mesh file declares no dirichlet selector")
    selector = _DirichletSelector(
        pairs=frozenset(tuple(sorted(p)) for p in pairs), boxes=tuple(bboxes))
    return build_mesh(verts, tris, selector)
