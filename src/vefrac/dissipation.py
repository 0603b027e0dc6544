"""Dissipation distances between crack sets.

The rate-independent part is the quasi-distance d, made of new crack
length plus a nucleation charge lambda per component appearing away from
the old crack. The viscous correction delta adds the distance-weighted
area swept by the increment (an Almgren-Taylor-Wang style integral) plus
its own nucleation charge mu. Their sum D is the corrected dissipation
used by the incremental scheme.

Every cost is a float, and math.inf when the inclusion H ⊆ K fails,
so sums along a chain stay +infinity once one hop is illegal. None
marks a missing record only: hop_cost returns None for H ⊄ K.

A hop H -> K is priced into a HopCost record (new length, sweep
integral, nucleation count) by a HopPricer of its mesh. The pricer keeps
what every hop out of its current source H shares: H's vertices and
segments and a table of quadrature distance rows per new edge; a hop
from another source resets all of it. It keeps no records: each hop
asked for is priced, and a scan keeps its prices in its ranking.
HopPricer.hops prices a ranking's hops out of one source at once, as
arrays: it fills the rows of all their new edges at once, in batches of
bounded size, runs each hop's own gemv in chunks of HOP_CHUNK hops, and
counts nucleations in closed form for hops of up to two new edges.
Every entry equals the single hop's record bit for bit. single_hop,
the one single-hop path, prices a hop as the batch of one of any such
`hops` callback; HopPricer.hop, hop_cost (a fresh pricer's hop) and
RisInstance.charges call it. atw_integral reads the sweep off
hop_cost's record; alpha counts by _nucleations, the union-find the
pricer uses for larger hops, and computes no sweep. The fracture
instance keeps one pricer for the whole run.
HopCost.charges turns a record into d, delta and D, the only place that
arithmetic is written; it runs on a batch's arrays as on one record's
floats.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .geometry import (
    CrackSet,
    Mesh,
    MeshError,
    _require_same_mesh,
    dist_points_to_segments,
    h1_diff,
    union_groups,
)

# Uniform panels per edge in the composite ATW quadrature.
ATW_PANELS = 16
# Hops whose quadrature blocks HopPricer.hops gathers at once.
HOP_CHUNK = 64
# Point-segment distances one fill of HopPricer's rows measures at most.
_FILL_PAIRS = 1 << 11

__all__ = [
    "DissipationParams",
    "MonotoneChain",
    "HopCost",
    "HopCharges",
    "hop_cost",
    "single_hop",
    "HopPricer",
    "alpha",
    "dist_d",
    "atw_integral",
    "delta_atw",
    "big_d",
    "var_along",
]


@dataclass(frozen=True)
class DissipationParams:
    """Constants of the dissipation: lam and mu are the nucleation costs
    entering d and delta respectively (the paper-level lambda and mu);
    quadrature_order is the Gauss-Legendre order for the ATW integral."""

    lam: float
    mu: float
    quadrature_order: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lambda must be positive")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be positive")
        if int(self.quadrature_order) != self.quadrature_order or self.quadrature_order < 1:
            raise ValueError("quadrature_order must be an integer >= 1")


class MonotoneChain:
    """An ordered tuple of crack sets meant to increase along the index.

    Same-mesh is enforced here; the inclusions themselves are checked
    lazily so that variation queries can report +infinity for a chain
    that breaks monotonicity instead of refusing to exist.
    """

    def __init__(self, states: Iterable[CrackSet]):
        states = tuple(states)
        if not states:
            raise ValueError("a chain needs at least one state")
        for s in states[1:]:
            _require_same_mesh(states[0], s)
        self.states = states

    @property
    def mesh(self):
        return self.states[0].mesh

    @property
    def is_monotone(self) -> bool:
        return all(a.issubset(b) for a, b in zip(self.states, self.states[1:]))

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def __repr__(self):
        return f"MonotoneChain({len(self.states)} states, {self.states[-1].cardinality} edges at end)"


def alpha(h: CrackSet, k: CrackSet) -> float:
    """Number of connected components of K sharing no vertex with H,
    when H ⊆ K; +infinity otherwise. This is the count of cracks that
    nucleate away from the existing set in the transition H -> K.

    Such a component holds no edge of H, so it is also a component of
    the new edges K \\ H, and a component of the new edges that touches
    no vertex of H is one of K. alpha is therefore the number of
    components of K \\ H touching no vertex of H, which is how
    _nucleations counts it."""
    if not h.issubset(k):
        return math.inf
    return _nucleations(h.mesh, h.vertex_ids(), k.minus(h).edge_ids)


def _nucleations(mesh: Mesh, h_vertices: frozenset, new_ids: tuple) -> float:
    """The components of the new edges that touch none of h_vertices,
    by a union-find in which those vertices are one node."""
    # -1 stands for all of H's vertices at once
    links = [(-1 if a in h_vertices else a, -1 if b in h_vertices else b)
             for a, b in mesh.edges[list(new_ids)].tolist()]
    nodes = list(dict.fromkeys(itertools.chain.from_iterable(links)))
    count = len(union_groups(nodes, links))
    if -1 in nodes:
        count -= 1
    return float(count)


@functools.lru_cache(maxsize=None)
def _atw_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1]: ATW_PANELS uniform
    panels of `order` nodes each, as read-only (nodes, weights)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    offsets = (np.arange(ATW_PANELS) + 0.5) / ATW_PANELS
    t = (offsets[:, None] + (0.5 * nodes)[None, :] / ATW_PANELS).ravel()
    w = np.tile(0.5 * weights / ATW_PANELS, ATW_PANELS)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def atw_integral(h: CrackSet, k: CrackSet, params: DissipationParams) -> float:
    """The pure sweep integral Delta(H,K) = integral over K\\H of
    dist(x, H), by Gauss-Legendre quadrature on each new edge.

    Distance to the empty set is the domain diameter, so
    Delta(empty, K) = diam * H1(K) without any quadrature error.
    """
    hop = hop_cost(h, k, params)
    return math.inf if hop is None else hop.sweep


class HopCharges(NamedTuple):
    """What a hop H -> K with H ⊆ K is charged.

    The transition charge D - H1(K\\H) is sweep + rate * alpha."""

    d: float      # H1(K\H) + lam * alpha
    delta: float  # sweep + mu * alpha, or 0 when not viscous
    big_d: float  # D = d + delta
    sweep: float  # the sweep integral Delta(H,K) inside D, or 0
    rate: float   # D's charge per nucleated component: lam + mu, or lam
    alpha: float  # nucleation count


@dataclass(frozen=True)
class HopCost:
    """The priced parts of a hop H -> K with H ⊆ K: the new length
    h1 = H1(K\\H), the pure sweep integral Delta(H,K) and the nucleation
    count alpha(H,K). charges() turns them into d, delta and D, so the
    costs agree bit for bit wherever they are read. HopPricer.hops fills
    the fields with float arrays, one entry per hop, and charges() then
    works entry by entry with the same IEEE operations."""

    h1: float
    sweep: float
    alpha: float

    def charges(self, params: DissipationParams,
                viscous: bool = True) -> HopCharges:
        """d = H1(K\\H) + lam * alpha, and either the VE correction
        delta = Delta + mu * alpha with D = d + delta, or, when not
        viscous, the energetic delta = 0 with D = d."""
        lam = params.lam
        d = self.h1 + lam * self.alpha
        if not viscous:
            return HopCharges(d, 0.0, d, 0.0, lam, self.alpha)
        mu = params.mu
        delta = self.sweep + mu * self.alpha
        return HopCharges(d, delta, d + delta, self.sweep, lam + mu,
                          self.alpha)


def single_hop(hops: Callable[[CrackSet, np.ndarray], HopCost],
               h: CrackSet, k: CrackSet) -> HopCost | None:
    """The HopCost record of H -> K, priced by a `hops` callback (see
    HopPricer.hops) as a batch of one, with Python float fields; None
    when H ⊄ K, without calling `hops`."""
    _require_same_mesh(h, k)
    if k.bits & h.bits != h.bits:
        return None
    new = CrackSet(h.mesh, k.bits & ~h.bits).edge_ids
    priced = hops(h, np.array(new, dtype=np.intp).reshape(1, len(new)))
    return HopCost(*(float(x[0]) for x in (priced.h1, priced.sweep, priced.alpha)))


def hop_cost(h: CrackSet, k: CrackSet, params: DissipationParams) -> HopCost | None:
    """Price the hop H -> K: one alpha, one sweep integral and one H1
    difference. None when H ⊄ K, where every cost of the hop is +inf."""
    return single_hop(HopPricer(h.mesh, params).hops, h, k)


class HopPricer:
    """Prices the hops H -> K on one mesh, one at a time or a ranking's
    worth at once.

    Every quantity of a hop is read off its new edges K \\ H. h1 is the
    fsum of their lengths. The sweep integral weighs, per new edge, the
    distances dist(., H) at the quadrature points of `_atw_rule` (a row)
    by the rule's weights, and takes the fsum of the weighted sums times
    the lengths. A row is computed point by point, so its bits do not
    depend on the batch it was computed in, and rows are kept per edge.
    The weighted sum `block @ w` is a gemv whose rounding depends on how
    many rows it takes, so each hop runs it on the block of its own new
    edges, in ascending order, as pricing that hop alone would.

    `hops` prices N hops out of one source that each add m edges, given
    as an (N, m) array. It fills the rows of all their new edges that no
    earlier hop of this source needed, in batches of at most _FILL_PAIRS
    point-segment distances, and gathers the blocks of HOP_CHUNK hops at
    a time into one (n, m, points) array: numpy's matmul runs one m-row
    gemv per hop on it, so every hop's weighted sums are those of its
    own block. alpha is the number of components of the new edges that touch
    no vertex of H (see `alpha`). For m <= 2 that is closed form: a lone
    edge counts 1 unless it touches H; two edges that share a vertex
    count 1 unless either touches H, and two apart count one each that
    does not. Larger hops go through _nucleations' union-find. So every
    entry equals the record `hop` gives bit for bit, and `hop` is the
    batch of one (see single_hop).

    The scheme prices many hops out of one state, so the pricer keeps
    H's vertices, segments and rows until a hop from another source
    resets them. It keeps no record: every hop is priced afresh, and a
    scan keeps its prices in its ranking. Records are pure functions of
    (H, K, params), so instances copied by dataclasses.replace may share
    a pricer.
    """

    def __init__(self, mesh: Mesh, params: DissipationParams):
        self.mesh = mesh
        self.params = params
        self._reset(CrackSet.empty(mesh))

    def hop(self, h: CrackSet, k: CrackSet) -> HopCost | None:
        """The HopCost record of H -> K; None when H ⊄ K."""
        if h.mesh is not self.mesh:
            raise MeshError("crack sets belong to different meshes")
        return single_hop(self.hops, h, k)

    def hops(self, h: CrackSet, new: np.ndarray) -> HopCost:
        """The hops out of H that add the edges of each row of `new`, an
        (N, m) int array of edges outside H, ascending per row: a HopCost
        whose fields are float arrays of N entries, each the field of
        that hop's record."""
        if h.mesh is not self.mesh:
            raise MeshError("crack sets belong to different meshes")
        if h.bits != self._source.bits:
            self._reset(h)
        lengths = self.mesh.edge_lengths[new]
        h1 = _row_fsums(lengths)
        return HopCost(h1=h1, sweep=self._sweeps(new, lengths, h1),
                       alpha=self._nucleation_counts(new))

    def _reset(self, h: CrackSet) -> None:
        mesh = self.mesh
        self._source = h
        self._h_vertices = h.vertex_ids()
        self._touches_h = np.zeros(mesh.n_vertices, dtype=bool)
        self._touches_h[list(self._h_vertices)] = True
        self._h_segments = mesh.segment_endpoints(h.edge_ids)
        # the rows filled so far, and the index of each edge's row or -1
        self._rows = np.empty((0, ATW_PANELS * self.params.quadrature_order))
        self._row_of = np.full(mesh.n_edges, -1, dtype=np.intp)

    def _sweeps(self, new: np.ndarray, lengths: np.ndarray,
                h1: np.ndarray) -> np.ndarray:
        n, m = new.shape
        if m == 0:
            return np.zeros(n)
        if self._source.is_empty:
            return self.mesh.domain_diameter * h1
        # Composite rule: dist(., H) is only piecewise smooth along an edge
        # (the nearest feature of H changes), so a single Gauss panel stalls
        # at a few percent no matter the order. Uniform panels with the
        # requested order per panel stay exact for linear integrands and
        # push the kink error below the dense-sampling oracle's tolerance.
        _, w = _atw_rule(self.params.quadrature_order)
        self._fill(new)
        rows, row_of = self._rows, self._row_of
        sweeps = np.empty(n)
        for start in range(0, n, HOP_CHUNK):
            part = slice(start, start + HOP_CHUNK)
            sweeps[part] = _row_fsums(lengths[part] * (rows[row_of[new[part]]] @ w))
        return sweeps

    def _fill(self, ids: np.ndarray) -> None:
        """Append the rows of the edges in `ids` that this source lacks."""
        wanted = np.zeros(self.mesh.n_edges, dtype=bool)
        wanted[ids] = True
        missing = np.flatnonzero(wanted & (self._row_of < 0))
        if not missing.size:
            return
        t, _ = _atw_rule(self.params.quadrature_order)
        ha, hb = self._h_segments
        step = max(1, _FILL_PAIRS // (len(t) * len(ha)))
        rows = [self._rows]
        for start in range(0, len(missing), step):
            part = missing[start:start + step]
            a, b = self.mesh.segment_endpoints(part)
            pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
            dists = dist_points_to_segments(pts.reshape(-1, 2), ha, hb).min(axis=1)
            rows.append(dists.reshape(len(part), len(t)))
        filled = len(self._rows)
        self._rows = np.concatenate(rows)
        self._row_of[missing] = np.arange(filled, filled + len(missing))

    def _nucleation_counts(self, new: np.ndarray) -> np.ndarray:
        n, m = new.shape
        if m > 2:
            return np.array([_nucleations(self.mesh, self._h_vertices, row)
                             for row in new.tolist()], dtype=float).reshape(n)
        ends = self.mesh.edges[new]                    # (n, m, 2)
        apart = ~self._touches_h[ends].any(axis=2)     # (n, m)
        if m < 2:
            return apart.sum(axis=1, dtype=float)
        first, second = ends[:, 0], ends[:, 1]
        shared = (first[:, :, None] == second[:, None, :]).any(axis=(1, 2))
        return np.where(shared, apart[:, 0] & apart[:, 1],
                        apart.sum(axis=1, dtype=float))


def _row_fsums(values: np.ndarray) -> np.ndarray:
    """math.fsum of each row of an (n, m) array of nonnegative finite
    floats, bit for bit. fsum rounds the exact sum once, to nearest even,
    so a row of one float sums to itself and a row of two to their IEEE
    sum; only longer rows call fsum."""
    n, m = values.shape
    if m == 1:
        return values[:, 0].copy()
    if m == 2:
        return values[:, 0] + values[:, 1]
    return np.array([math.fsum(row) for row in values.tolist()], dtype=float).reshape(n)


def dist_d(h: CrackSet, k: CrackSet, params: DissipationParams) -> float:
    """Quasi-distance d(H,K) = H1(K\\H) + lam * alpha(H,K), +inf if H ⊄ K."""
    hop = hop_cost(h, k, params)
    return math.inf if hop is None else hop.charges(params).d


def delta_atw(h: CrackSet, k: CrackSet, params: DissipationParams) -> float:
    """Viscous correction delta(H,K) = Delta(H,K) + mu * alpha(H,K)."""
    hop = hop_cost(h, k, params)
    return math.inf if hop is None else hop.charges(params).delta


def big_d(h: CrackSet, k: CrackSet, params: DissipationParams) -> float:
    """Corrected dissipation D = d + delta
    = H1(K\\H) + Delta(H,K) + (lam + mu) * alpha(H,K)."""
    hop = hop_cost(h, k, params)
    return math.inf if hop is None else hop.charges(params).big_d


def var_along(chain: MonotoneChain | Sequence[CrackSet],
              which: Literal["d", "alpha", "h1"],
              params: DissipationParams | None = None) -> float:
    """Total variation of d, alpha or H1 along a chain.

    For monotone chains the triangle inequality saturates on the full
    refinement, so the variation is just the sum over consecutive hops.
    A hop violating inclusion makes it +infinity.
    """
    if not isinstance(chain, MonotoneChain):
        chain = MonotoneChain(chain)
    if which == "d":
        if params is None:
            raise ValueError("variation of d needs DissipationParams")
        hop = lambda a, b: dist_d(a, b, params)
    elif which == "alpha":
        hop = alpha
    elif which == "h1":
        def hop(a, b):
            return h1_diff(a, b) if a.issubset(b) else math.inf
    else:
        raise ValueError(f"unknown variation kind {which!r}")
    total = 0.0
    for a, b in zip(chain.states, chain.states[1:]):
        total += hop(a, b)
    return total
