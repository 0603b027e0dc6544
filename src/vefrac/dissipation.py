"""Dissipation distances between crack sets.

The rate-independent part is the quasi-distance d, made of new crack
length plus a nucleation charge lambda per component appearing away from
the old crack. The viscous correction delta adds the distance-weighted
area swept by the increment (an Almgren-Taylor-Wang style integral) plus
its own nucleation charge mu. Their sum D is the corrected dissipation
used by the incremental scheme.

All three are +infinity when the inclusion H ⊆ K fails; that tag lives in
CostValue rather than a float sentinel so sums cannot silently launder an
illegal transition into a finite number.

A hop H -> K is priced once by hop_cost into a HopCost record (new
length, sweep integral, nucleation count); d, delta and D are views of
that record.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .geometry import (
    CrackSet,
    _require_same_mesh,
    connected_components,
    dist_points_to_segments,
    h1_diff,
)

# Uniform panels per edge in the composite ATW quadrature.
ATW_PANELS = 16

__all__ = [
    "DissipationParams",
    "CostValue",
    "MonotoneChain",
    "HopCost",
    "hop_cost",
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


@dataclass(frozen=True, order=False)
class CostValue:
    """Nonnegative cost, possibly +infinity. The infinite state is a tag,
    not a float, so adding and scaling keep the distinction explicit."""

    value: float = 0.0
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "value", 0.0)
        elif not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"finite cost must be a nonnegative real, got {self.value}")

    @classmethod
    def finite(cls, value: float) -> "CostValue":
        return cls(float(value), False)

    @classmethod
    def infinity(cls) -> "CostValue":
        return cls(0.0, True)

    @property
    def is_finite(self) -> bool:
        return not self.infinite

    def as_float(self) -> float:
        return math.inf if self.infinite else self.value

    def __add__(self, other) -> "CostValue":
        if isinstance(other, CostValue):
            if self.infinite or other.infinite:
                return CostValue.infinity()
            return CostValue.finite(self.value + other.value)
        if isinstance(other, (int, float)):
            return self + CostValue.finite(float(other))
        return NotImplemented

    __radd__ = __add__

    def scaled(self, factor: float) -> "CostValue":
        if factor < 0:
            raise ValueError("cost scale factor must be nonnegative")
        if self.infinite:
            return CostValue.infinity()
        return CostValue.finite(factor * self.value)

    def _key(self):
        return (1, 0.0) if self.infinite else (0, self.value)

    def __lt__(self, other: "CostValue"):
        return self._key() < other._key()

    def __le__(self, other: "CostValue"):
        return self._key() <= other._key()

    def __gt__(self, other: "CostValue"):
        return self._key() > other._key()

    def __ge__(self, other: "CostValue"):
        return self._key() >= other._key()

    def __repr__(self):
        return "CostValue(inf)" if self.infinite else f"CostValue({self.value!r})"


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


def alpha(h: CrackSet, k: CrackSet) -> CostValue:
    """Number of connected components of K sharing no vertex with H,
    when H ⊆ K; +infinity otherwise. This is the count of cracks that
    nucleate away from the existing set in the transition H -> K."""
    _require_same_mesh(h, k)
    if not h.issubset(k):
        return CostValue.infinity()
    if k.is_empty:
        return CostValue.finite(0.0)
    h_vertices = h.vertex_ids()
    count = sum(1 for comp in connected_components(k)
                if not (comp.vertex_ids() & h_vertices))
    return CostValue.finite(float(count))


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


def atw_integral(h: CrackSet, k: CrackSet, params: DissipationParams) -> CostValue:
    """The pure sweep integral Delta(H,K) = integral over K\\H of
    dist(x, H), by Gauss-Legendre quadrature on each new edge.

    Distance to the empty set is the domain diameter, so
    Delta(empty, K) = diam * H1(K) without any quadrature error.
    """
    _require_same_mesh(h, k)
    if not h.issubset(k):
        return CostValue.infinity()
    mesh = h.mesh
    new_ids = k.minus(h).edge_ids
    if not new_ids:
        return CostValue.finite(0.0)
    lengths = mesh.edge_lengths[list(new_ids)]
    if h.is_empty:
        return CostValue.finite(mesh.domain_diameter * float(math.fsum(lengths)))
    # Composite rule: dist(., H) is only piecewise smooth along an edge
    # (the nearest feature of H changes), so a single Gauss panel stalls
    # at a few percent no matter the order. Uniform panels with the
    # requested order per panel stay exact for linear integrands and
    # push the kink error below the dense-sampling oracle's tolerance.
    t, w = _atw_rule(params.quadrature_order)
    a, b = mesh.segment_endpoints(new_ids)
    pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    ha, hb = mesh.segment_endpoints(h.edge_ids)
    dists = dist_points_to_segments(pts.reshape(-1, 2), ha, hb).min(axis=1)
    dists = dists.reshape(len(new_ids), len(t))
    per_edge = lengths * (dists @ w)
    return CostValue.finite(float(math.fsum(per_edge)))


@dataclass(frozen=True)
class HopCost:
    """The priced parts of a hop H -> K with H ⊆ K: the new length
    h1 = H1(K\\H), the pure sweep integral Delta(H,K) and the nucleation
    count alpha(H,K). The costs of the hop are views of these three
    numbers, so d, delta and D agree bit for bit wherever they are read."""

    h1: float
    sweep: float
    alpha: float

    def d(self, params: DissipationParams) -> CostValue:
        """d = H1(K\\H) + lam * alpha."""
        return CostValue.finite(self.h1 + params.lam * self.alpha)

    def delta(self, params: DissipationParams) -> CostValue:
        """delta = Delta + mu * alpha."""
        return CostValue.finite(self.sweep + params.mu * self.alpha)

    def big_d(self, params: DissipationParams) -> CostValue:
        """D = d + delta, summed in that order."""
        return self.d(params) + self.delta(params)


def hop_cost(h: CrackSet, k: CrackSet, params: DissipationParams) -> HopCost | None:
    """Price the hop H -> K: one alpha, one sweep integral and one H1
    difference. None when H ⊄ K, where every cost of the hop is +inf."""
    a = alpha(h, k)
    if a.infinite:
        return None
    return HopCost(h1=h1_diff(h, k), sweep=atw_integral(h, k, params).value,
                   alpha=a.value)


def dist_d(h: CrackSet, k: CrackSet, params: DissipationParams) -> CostValue:
    """Quasi-distance d(H,K) = H1(K\\H) + lam * alpha(H,K), +inf if H ⊄ K."""
    hop = hop_cost(h, k, params)
    return CostValue.infinity() if hop is None else hop.d(params)


def delta_atw(h: CrackSet, k: CrackSet, params: DissipationParams) -> CostValue:
    """Viscous correction delta(H,K) = Delta(H,K) + mu * alpha(H,K)."""
    hop = hop_cost(h, k, params)
    return CostValue.infinity() if hop is None else hop.delta(params)


def big_d(h: CrackSet, k: CrackSet, params: DissipationParams) -> CostValue:
    """Corrected dissipation D = d + delta
    = H1(K\\H) + Delta(H,K) + (lam + mu) * alpha(H,K)."""
    hop = hop_cost(h, k, params)
    return CostValue.infinity() if hop is None else hop.big_d(params)


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
            if not a.issubset(b):
                return CostValue.infinity()
            return CostValue.finite(h1_diff(a, b))
    else:
        raise ValueError(f"unknown variation kind {which!r}")
    total = CostValue.finite(0.0)
    for a, b in zip(chain.states, chain.states[1:]):
        total = total + hop(a, b)
    return total.as_float()
