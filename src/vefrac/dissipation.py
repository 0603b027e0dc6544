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
hop_cost is a fresh pricer's hop, and atw_integral reads the sweep off
that record; alpha shares the pricer's nucleation count and computes
no sweep. The fracture instance keeps one pricer for the whole run.
HopCost.charges turns a record into d, delta and D, the only place that
arithmetic is written.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Literal, NamedTuple, Sequence

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

__all__ = [
    "DissipationParams",
    "MonotoneChain",
    "HopCost",
    "HopCharges",
    "hop_cost",
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
    costs agree bit for bit wherever they are read."""

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


def hop_cost(h: CrackSet, k: CrackSet, params: DissipationParams) -> HopCost | None:
    """Price the hop H -> K: one alpha, one sweep integral and one H1
    difference. None when H ⊄ K, where every cost of the hop is +inf."""
    return HopPricer(h.mesh, params).hop(h, k)


class HopPricer:
    """Prices the hops H -> K on one mesh.

    Every quantity of a hop is read off its new edges K \\ H. h1 is the
    fsum of their lengths and alpha is _nucleations of them against H's
    vertices. The sweep integral weighs, per new edge, the distances
    dist(., H) at the quadrature points of `_atw_rule` (a row) by the
    rule's weights. A row is computed point by point, so its bits do not
    depend on the batch it was computed in, and rows are kept per edge.
    The weighted sum `rows @ w` is a gemv whose rounding depends on how
    many rows it takes, so each hop runs it on the block of its own new
    edges, in ascending order, as pricing that hop alone would. A hop
    computes the rows of its new edges that no earlier hop of this
    source needed, in one batch.

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
        if not (h.mesh is k.mesh is self.mesh):
            raise MeshError("crack sets belong to different meshes")
        if h.bits != self._source.bits:
            self._reset(h)
        return self._price(k)

    def _reset(self, h: CrackSet) -> None:
        self._source = h
        self._h_vertices = h.vertex_ids()
        self._h_segments = self.mesh.segment_endpoints(h.edge_ids)
        self._rows: dict[int, np.ndarray] = {}

    def _price(self, k: CrackSet) -> HopCost | None:
        h = self._source.bits
        if k.bits & h != h:
            return None
        new_ids = CrackSet(self.mesh, k.bits & ~h).edge_ids
        lengths = self.mesh.edge_lengths[list(new_ids)]
        return HopCost(h1=math.fsum(lengths),
                       sweep=self._sweep(new_ids, lengths),
                       alpha=_nucleations(self.mesh, self._h_vertices, new_ids))

    def _sweep(self, new_ids: tuple, lengths: np.ndarray) -> float:
        if not new_ids:
            return 0.0
        if self._source.is_empty:
            return self.mesh.domain_diameter * math.fsum(lengths)
        # Composite rule: dist(., H) is only piecewise smooth along an edge
        # (the nearest feature of H changes), so a single Gauss panel stalls
        # at a few percent no matter the order. Uniform panels with the
        # requested order per panel stay exact for linear integrands and
        # push the kink error below the dense-sampling oracle's tolerance.
        t, w = _atw_rule(self.params.quadrature_order)
        rows = self._rows
        missing = [e for e in new_ids if e not in rows]
        if missing:
            a, b = self.mesh.segment_endpoints(missing)
            pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
            ha, hb = self._h_segments
            dists = dist_points_to_segments(pts.reshape(-1, 2), ha, hb).min(axis=1)
            rows.update(zip(missing, dists.reshape(len(missing), len(t))))
        block = np.array([rows[e] for e in new_ids])
        return math.fsum(lengths * (block @ w))


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
