"""Shipped benchmark geometries, loads and candidate pools.

Everything here is deterministic and built from explicit coordinates. The
builders are used by the test suite and by the documented command-line
examples; they are part of the package so that published runs can be
reproduced from a clean install.
"""

from __future__ import annotations

import numpy as np

from .geometry import Mesh, build_mesh


def unit_square_mesh() -> Mesh:
    """The 2-triangle unit square, all Dirichlet. 5 edges, diameter sqrt(2)."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    triangles = [(0, 1, 2), (0, 2, 3)]
    return build_mesh(vertices, triangles, _square_marker("all", 0.0, 1.0))


def rect_grid_mesh(nx: int, ny: int, width: float = 1.0, height: float = 1.0,
                   dirichlet: str = "all") -> Mesh:
    """Structured grid of nx-by-ny cells, each split along one diagonal.

    The n-by-n unit case has 3n^2 + 2n edges. The "topbottom" Dirichlet
    option clamps the two horizontal boundary rows and leaves the vertical
    sides Neumann.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one cell per direction")
    dx, dy = width / nx, height / ny
    vertices = [(i * dx, j * dy) for j in range(ny + 1) for i in range(nx + 1)]
    triangles = []
    for j in range(ny):
        for i in range(nx):
            v = j * (nx + 1) + i
            triangles.append((v, v + 1, v + nx + 2))
            triangles.append((v, v + nx + 2, v + nx + 1))
    return build_mesh(vertices, triangles, _square_marker(dirichlet, 0.0, height))


def square_grid_mesh(n: int, dirichlet: str = "all") -> Mesh:
    return rect_grid_mesh(n, n, dirichlet=dirichlet)


def _square_marker(dirichlet: str, ybot: float, ytop: float):
    if dirichlet == "all":
        return lambda pa, pb: True
    if dirichlet == "topbottom":
        def marker(pa, pb):
            on_bot = pa[1] == ybot and pb[1] == ybot
            on_top = pa[1] == ytop and pb[1] == ytop
            return on_bot or on_top
        return marker
    raise ValueError(f"unknown dirichlet option {dirichlet!r}")


def mirrored_strip_mesh(nx: int, ny: int, width: float = 1.0,
                        height: float = 1.0) -> Mesh:
    """Structured grid whose cell diagonals flip orientation at the
    vertical midline, making the triangulation mirror symmetric about
    x = width/2, with its top and bottom rows Dirichlet. nx must be
    even. Pick width/nx as an exact binary fraction and the vertex
    coordinates mirror exactly in floating point as well.
    """
    if nx < 2 or nx % 2:
        raise ValueError("mirrored strip needs an even number of columns")
    if ny < 1:
        raise ValueError("grid needs at least one cell per direction")
    dx, dy = width / nx, height / ny
    vertices = [(i * dx, j * dy) for j in range(ny + 1) for i in range(nx + 1)]
    triangles = []
    for j in range(ny):
        for i in range(nx):
            v = j * (nx + 1) + i
            if i < nx // 2:
                triangles.append((v, v + 1, v + nx + 2))
                triangles.append((v, v + nx + 2, v + nx + 1))
            else:
                triangles.append((v, v + 1, v + nx + 1))
                triangles.append((v + 1, v + nx + 2, v + nx + 1))
    return build_mesh(vertices, triangles, _square_marker("topbottom", 0.0, height))


def symmetric_strip(nx: int = 12, ny: int = 6, width: float = 3.0,
                    height: float = 1.5, x_scale: float = 1.0,
                    horizon: float = 4.0, arm: int = 4):
    """Mirror-symmetric strip with a centered two-edge precrack on the
    midline and one candidate growth path per tip. The tension profile
    is even about the midline and decays away from it, so the two tips
    advance together and re-arrest as they march out.

    Returns (mesh, load, k0, pool, left_path, right_path); the paths
    are ordered edge-id lists marching away from the center.
    """
    from .elastic import BoundaryLoad, LinearAmplitude
    from .geometry import CrackSet

    if ny % 2:
        raise ValueError("the midline needs an even number of rows")
    if not 1 <= arm <= nx // 2 - 1:
        raise ValueError("arm must leave at least one intact column per side")
    mesh = mirrored_strip_mesh(nx, ny, width=width, height=height)
    cx = width / 2.0
    x = mesh.vertices[:, 0]
    y = mesh.vertices[:, 1]
    phi = np.exp(-np.abs(x - cx) / x_scale)
    load = BoundaryLoad(profile=y * phi, amplitude=LinearAmplitude(0.0, 1.0),
                        horizon=horizon)
    c = (ny // 2) * (nx + 1) + nx // 2  # midline vertex on the mirror axis
    k0 = CrackSet.of_vertex_pairs(mesh, [(c - 1, c), (c, c + 1)])
    left = [mesh.edge_index[(c - i - 2, c - i - 1)] for i in range(arm)]
    right = [mesh.edge_index[(c + i + 1, c + i + 2)] for i in range(arm)]
    pool = k0.with_edges(left + right)
    return mesh, load, k0, pool, left, right


def linear_y_profile(mesh) -> np.ndarray:
    """The nodal profile G(x, y) = y."""
    return mesh.vertices[:, 1].copy()


def ramp_load(mesh, horizon: float = 1.0, c0: float = 0.0, c1: float = 1.0):
    """G(x, y) = y under the amplitude a(t) = c0 + c1*t."""
    from .elastic import BoundaryLoad, LinearAmplitude
    return BoundaryLoad(profile=linear_y_profile(mesh),
                        amplitude=LinearAmplitude(c0, c1), horizon=horizon)


def nucleation_well():
    """Square under a y-ramp with a two-edge admissible crack on the
    midline, away from the boundary. Two connected edges are the smallest
    crack that actually opens: a lone edge duplicates no vertex, so its
    energy gap is exactly zero. The landscape has two wells (intact and
    cracked) and the load level at which the run jumps between them is
    computable by hand from the unit-amplitude energies.

    Returns (mesh, load, pool).
    """
    from .geometry import CrackSet

    mesh = square_grid_mesh(4, dirichlet="topbottom")
    load = ramp_load(mesh, horizon=12.0)
    pool = CrackSet.of_vertex_pairs(mesh, [(11, 12), (12, 13)])
    return mesh, load, pool


def growth_strip(nx: int = 16, ny: int = 8, width: float = 2.0,
                 height: float = 1.0, x_scale: float = 1.0,
                 horizon: float = 4.0, n_precracked: int = 2,
                 pool_span: int | None = None):
    """Strip with a decaying tension profile driving steady tip growth.

    The datum is y * exp(-x / x_scale). A uniform grip would tear the
    strip in one go (translation invariance keeps the release rate
    constant), so the profile decays: the release rate then falls by a
    fixed gentle fraction per advanced edge and the crack grows edge by
    edge, re-arresting between onsets. The crack path is the horizontal
    midline; the first n_precracked edges are the initial crack.

    Returns (mesh, load, k0, pool, path_edge_ids).
    """
    from .elastic import BoundaryLoad, LinearAmplitude
    from .geometry import CrackSet

    mesh = rect_grid_mesh(nx, ny, width=width, height=height,
                          dirichlet="topbottom")
    x = mesh.vertices[:, 0]
    y = mesh.vertices[:, 1]
    psi = np.exp(-x / x_scale)
    load = BoundaryLoad(profile=y * psi, amplitude=LinearAmplitude(0.0, 1.0),
                        horizon=horizon)
    mid = (ny // 2) * (nx + 1)
    path = [mesh.edge_index[(mid + i, mid + i + 1)] for i in range(nx)]
    k0 = CrackSet.of_edges(mesh, path[:n_precracked])
    span = pool_span if pool_span is not None else nx
    pool = CrackSet.of_edges(mesh, path[:span])
    return mesh, load, k0, pool, path
