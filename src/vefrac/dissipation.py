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
integral, nucleation count), a pure function of H and K \\ H.
price_hops prices the hops of a ranking out of one source in one call,
each given by its ascending new edges, and keeps nothing between calls:
it measures the ATW distance rows of the call's distinct new edges once,
in batches of bounded size, and prices the hops of each width as one
block (the only code that groups hops by width), each hop with its own
gemv, in chunks of HOP_CHUNK hops. Every entry, in the call's order,
equals the single hop's record bit for bit. single_hop, the one
single-hop path, prices a hop as the batch of one of any such `hops`
callback; hop_cost (price_hops' hop) and RisInstance.charges call it.
_nucleations is the one nucleation count: price_hops and alpha, its
batch of one, call it. atw_integral reads the sweep off hop_cost's
record. The fracture instance's `hops` is price_hops itself.
HopCost.charges turns a record into d, delta and D, the only place that
arithmetic is written; it runs on a batch's arrays as on one record's
floats.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .geometry import (
    CrackSet,
    Mesh,
    _require_same_mesh,
    dist_points_to_segments,
    union_groups,
)

# Uniform panels per edge in the composite ATW quadrature.
ATW_PANELS = 16
# Hops whose quadrature blocks price_hops gathers at once.
HOP_CHUNK = 64
# Point-segment distances one batch of distance rows measures at most.
_FILL_PAIRS = 1 << 11

# The ATW rule: composite Gauss-Legendre on [0, 1], ATW_PANELS uniform
# panels of three nodes each, as read-only nodes and weights. dist(., H)
# is only piecewise smooth along an edge (the nearest feature of H
# changes), so a single Gauss panel stalls at a few percent whatever its
# order; uniform panels stay exact for linear integrands and push the
# kink error below the dense-sampling oracle's tolerance. The three-point
# rule on [-1, 1] is written out as numpy.polynomial.legendre.leggauss(3)
# returns it: leggauss runs numpy.linalg.eigvalsh, which at import cost
# about 0.6-0.8 MB of peak RSS.
_nodes = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_weights = np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557])
_ATW_NODES = ((np.arange(ATW_PANELS) + 0.5)[:, None] / ATW_PANELS
              + (0.5 * _nodes)[None, :] / ATW_PANELS).ravel()
_ATW_WEIGHTS = np.tile(0.5 * _weights / ATW_PANELS, ATW_PANELS)
_ATW_NODES.flags.writeable = _ATW_WEIGHTS.flags.writeable = False
del _nodes, _weights

__all__ = [
    "DissipationParams",
    "MonotoneChain",
    "HopCost",
    "HopCharges",
    "hop_cost",
    "single_hop",
    "price_hops",
    "alpha",
    "dist_d",
    "atw_integral",
    "delta_atw",
]


@dataclass(frozen=True)
class DissipationParams:
    """Constants of the dissipation: lam and mu are the nucleation costs
    entering d and delta respectively (the paper-level lambda and mu)."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lambda must be positive")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be positive")


class MonotoneChain:
    """An ordered tuple of crack sets meant to increase along the index.

    Same-mesh is enforced here; the inclusions are not: a chain that
    breaks monotonicity still exists, and trc_chain prices it at
    +infinity.
    """

    def __init__(self, states: Iterable[CrackSet]):
        states = tuple(states)
        if not states:
            raise ValueError("a chain needs at least one state")
        for s in states[1:]:
            _require_same_mesh(states[0], s)
        self.states = states

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
    components of K \\ H touching no vertex of H, which _nucleations
    counts."""
    if not h.issubset(k):
        return math.inf
    new = np.array(k.minus(h).edge_ids, dtype=np.intp).reshape(1, -1)
    return float(_nucleations(h.mesh, _touch_mask(h), new)[0])


def _touch_mask(h: CrackSet) -> np.ndarray:
    """Which vertices of the mesh are endpoints of edges of H."""
    touches = np.zeros(h.mesh.n_vertices, dtype=bool)
    touches[h.mesh.edges[list(h.edge_ids)]] = True
    return touches


def _nucleations(mesh: Mesh, touches_h: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Per row of `new`, an (N, m) array of the edges hops out of H add,
    the components of those edges touching no vertex of H (touches_h).
    For m <= 2 that is closed form: a lone edge counts 1 unless it
    touches H; two edges that share a vertex count 1 unless either
    touches H, and two apart count one each that does not. Larger hops
    go through a union-find in which H's vertices are one node."""
    n, m = new.shape
    ends = mesh.edges[new]                      # (n, m, 2)
    touching = touches_h[ends]
    if m > 2:
        counts = []
        # -1 stands for all of H's vertices at once
        for links in np.where(touching, -1, ends).tolist():
            nodes = list(dict.fromkeys(itertools.chain.from_iterable(links)))
            counts.append(len(union_groups(nodes, links)) - (-1 in nodes))
        return np.array(counts, dtype=float).reshape(n)
    apart = ~touching.any(axis=2)               # (n, m)
    if m < 2:
        return apart.sum(axis=1, dtype=float)
    first, second = ends[:, 0], ends[:, 1]
    shared = (first[:, :, None] == second[:, None, :]).any(axis=(1, 2))
    return np.where(shared, apart[:, 0] & apart[:, 1],
                    apart.sum(axis=1, dtype=float))


def atw_integral(h: CrackSet, k: CrackSet) -> float:
    """The pure sweep integral Delta(H,K) = integral over K\\H of
    dist(x, H), by the composite Gauss-Legendre rule on each new edge.

    Distance to the empty set is the domain diameter, so
    Delta(empty, K) = diam * H1(K) without any quadrature error.
    """
    hop = hop_cost(h, k)
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
    costs agree bit for bit wherever they are read. price_hops fills the
    fields with float arrays, one entry per hop, and charges() then
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


def single_hop(hops: Callable[[CrackSet, Sequence[Sequence[int]]], HopCost],
               h: CrackSet, k: CrackSet) -> HopCost | None:
    """The HopCost record of H -> K, priced by a `hops` callback (see
    price_hops) as a batch of one, with Python float fields; None
    when H ⊄ K, without calling `hops`."""
    _require_same_mesh(h, k)
    if k.bits & h.bits != h.bits:
        return None
    priced = hops(h, [CrackSet(h.mesh, k.bits & ~h.bits).edge_ids])
    return HopCost(*(float(x[0]) for x in (priced.h1, priced.sweep, priced.alpha)))


def hop_cost(h: CrackSet, k: CrackSet) -> HopCost | None:
    """Price the hop H -> K: one alpha, one sweep integral and one H1
    difference. None when H ⊄ K, where every cost of the hop is +inf."""
    return single_hop(price_hops, h, k)


def price_hops(h: CrackSet, new: Sequence[Sequence[int]]) -> HopCost:
    """The hops out of H that add the edges of each of `new`, a sequence
    of ascending edge sequences outside H of any lengths (an (N, m) int
    array is one): a HopCost whose fields are float arrays of N entries,
    in the order of `new`, each the field of that hop's record.

    Every quantity of a hop is read off its new edges K \\ H. h1 is the
    fsum of their lengths, and alpha is counted by _nucleations from the
    mask of H's vertices. The sweep integral weighs, per new edge, the
    distances dist(., H) at the ATW nodes (a row) by the ATW weights, and
    takes the fsum of the weighted sums times the lengths. The rows of
    the distinct edges of `new` are measured once per call, point by
    point, so their bits do not depend on the call. The weighted sum
    `block @ w` is a gemv whose rounding depends on how many rows it
    takes, so the hops adding m edges form one (n, m) block, priced
    HOP_CHUNK hops at a time as one (n, m, points) array, on which
    numpy's matmul runs one m-row gemv per hop. Every entry equals the
    record of pricing that hop alone. Nothing is kept between calls.
    """
    mesh = h.mesh
    widths = np.fromiter(map(len, new), dtype=np.intp, count=len(new))
    blocks = []
    for m in np.flatnonzero(np.bincount(widths)).tolist():  # np.unique imports numpy.ma
        at = np.flatnonzero(widths == m)
        blocks.append((at, np.array([new[i] for i in at.tolist()],
                                    dtype=np.intp).reshape(len(at), m)))
    wanted = np.zeros(mesh.n_edges, dtype=bool)
    for _, block in blocks:
        wanted[block] = True
    rows = None if h.is_empty else _distance_rows(h, np.flatnonzero(wanted))
    row_of = np.cumsum(wanted) - 1  # the row of each wanted edge
    touches = _touch_mask(h)
    h1, sweep, alpha = np.empty((3, len(new)))
    for at, block in blocks:
        lengths = mesh.edge_lengths[block]
        h1[at] = _row_fsums(lengths)
        sweep[at] = (mesh.domain_diameter * h1[at] if rows is None
                     else _sweeps(rows, row_of[block], lengths))
        alpha[at] = _nucleations(mesh, touches, block)
    return HopCost(h1=h1, sweep=sweep, alpha=alpha)


def _sweeps(rows: np.ndarray, at: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sweep of each hop of an (n, m) block whose edges' distance
    rows are rows[at], one m-row gemv per hop."""
    sweeps = np.empty(len(at))
    for start in range(0, len(at), HOP_CHUNK):
        part = slice(start, start + HOP_CHUNK)
        sweeps[part] = _row_fsums(lengths[part] * (rows[at[part]] @ _ATW_WEIGHTS))
    return sweeps


def _distance_rows(h: CrackSet, edges: np.ndarray) -> np.ndarray:
    """dist(., H) at the ATW nodes of each of `edges`, one row per edge,
    measured in batches of at most _FILL_PAIRS point-segment distances."""
    mesh = h.mesh
    ha, hb = mesh.segment_endpoints(h.edge_ids)
    step = max(1, _FILL_PAIRS // (len(_ATW_NODES) * len(ha)))
    rows = np.empty((len(edges), len(_ATW_NODES)))
    for start in range(0, len(edges), step):
        part = slice(start, start + step)
        a, b = mesh.segment_endpoints(edges[part])
        pts = a[:, None, :] + _ATW_NODES[None, :, None] * (b - a)[:, None, :]
        dists = dist_points_to_segments(pts.reshape(-1, 2), ha, hb).min(axis=1)
        rows[part] = dists.reshape(-1, len(_ATW_NODES))
    return rows


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
    hop = hop_cost(h, k)
    return math.inf if hop is None else hop.charges(params).d


def delta_atw(h: CrackSet, k: CrackSet, params: DissipationParams) -> float:
    """Viscous correction delta(H,K) = Delta(H,K) + mu * alpha(H,K)."""
    hop = hop_cost(h, k)
    return math.inf if hop is None else hop.charges(params).delta
