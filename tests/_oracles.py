"""Small, deliberately naive reference implementations used by the tests.

These recompute quantities with the most direct method available (plain
loops, BFS, dense sampling, exhaustive enumeration) and are kept
independent of the package internals so that agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
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


def reference_space(mesh, crack) -> dict:
    """The arrays of the P1 space cut along a crack, by a union-find over
    the star of every vertex and over all triangles: DOF n is the n-th fan
    met in (vertex, triangle) order; components are labelled in order of
    their smallest triangle."""
    crack_bits = crack.bits
    tri_dofs = np.full((mesh.n_triangles, 3), -1, dtype=int)
    dof_vertex = []
    n = 0
    for v in range(mesh.n_vertices):
        tris = mesh.vertex_triangles[v]
        local = {t: i for i, t in enumerate(tris)}
        parent = list(range(len(tris)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in mesh.vertex_edges[v]:
            if (crack_bits >> e) & 1:
                continue
            owners = mesh.edge_triangles[e]
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

    parent = list(range(mesh.n_triangles))

    def find_t(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in range(mesh.n_edges):
        if (crack_bits >> e) & 1:
            continue
        owners = mesh.edge_triangles[e]
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
        (t,) = mesh.edge_triangles[e]
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


def reference_solve(a, mask, values, rtol=1e-10):
    """Jacobi-preconditioned CG on the reduced system built by fancy
    indexing; returns (field, relative residual)."""
    import scipy.sparse.linalg as spla

    u = np.zeros(len(mask))
    u[mask] = values[mask]
    free = np.flatnonzero(~mask)
    if free.size == 0:
        return u, 0.0
    aff = a[free][:, free]
    b = -(a[free][:, np.flatnonzero(mask)] @ u[mask])
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return u, 0.0
    diag = aff.diagonal()
    precond = spla.LinearOperator(aff.shape, matvec=lambda x: x / diag)
    x, info = spla.cg(aff, b, rtol=rtol, atol=0.0, M=precond,
                      maxiter=max(2000, 20 * free.size))
    assert info == 0
    u[free] = x
    return u, float(np.linalg.norm(aff @ x - b)) / bnorm
