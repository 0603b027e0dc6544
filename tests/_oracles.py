"""Small, deliberately naive reference implementations used by the tests.

These recompute quantities with the most direct method available (plain
loops, BFS, dense sampling, exhaustive enumeration) and are kept
independent of the package internals so that agreement is meaningful.
"""

from __future__ import annotations

import math
from collections import deque


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
