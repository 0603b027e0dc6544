"""Visco-energetic machinery over a finite crack lattice.

Everything here is generic in the driving system: a RisInstance carries
the energy/power callbacks, one dissipation callback `hop` that prices a
hop H -> K into a HopCost record (new length, sweep integral, nucleation
count), the `viscous` flag that turns records into the charged costs
(the VE dissipation D = d + delta, or D = d for energetic solutions),
and a competitor generator over an admissible edge pool. On top of that
we provide

  * the residual stability function R and the minimal-set witness M,
  * the viscously corrected incremental minimization step,
  * the transition cost of discrete monotone chains and the jump cost
    c(t, K-, K+) as a shortest path over the interval lattice,
  * the energy-dissipation balance audit (two equivalent bookkeeping
    forms plus the discrete upper estimate) and the jump-condition
    audit,
  * the decomposition of an optimal transition into sliding and viscous
    segments.

States in a transition between K- and K+ live on the interval lattice
{S : K- <= S <= K+}; on a finite lattice every transition is a pure-jump
chain, so minimizing over monotone chains is the faithful discrete
version of the continuum transition-cost infimum.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .dissipation import DissipationParams, HopCost, MonotoneChain
from .geometry import CrackSet, h1_diff

__all__ = [
    "RisInstance",
    "HopCharges",
    "StabilityReport",
    "HopLedger",
    "JumpCostResult",
    "TransitionSegment",
    "BalanceReport",
    "JumpAudit",
    "residual_stability",
    "incremental_step",
    "trc_chain",
    "jump_cost",
    "jump_variation",
    "audit_balance",
    "audit_jump_conditions",
    "decompose_transition",
]

# Hard ceiling on exhaustively enumerated competitors per step.
MAX_COMPETITORS = 500_000
DEFAULT_LATTICE_CAP = 16


class HopCharges(NamedTuple):
    """What the scheme charges for a hop H -> K with H <= K.

    The transition charge D - H1(K\\H) is sweep + rate * alpha."""

    d: float      # H1(K\H) + lam * alpha
    big_d: float  # D = d + delta, with delta = sweep + mu * alpha or 0
    sweep: float  # the sweep integral Delta(H,K) inside D, or 0
    rate: float   # D's charge per nucleated component: lam + mu, or lam
    alpha: float  # nucleation count


@dataclass
class RisInstance:
    """The driving system handed to the lattice algorithms.

    hop prices a hop H -> K once into a HopCost record, or returns None
    exactly when the inclusion H <= K fails (every cost is +infinity
    there). viscous selects what the records charge: the VE dissipation
    D = d + delta, with d = H1(K\\H) + lam*alpha and delta = Delta +
    mu*alpha, or, when False, the energetic D = d. Only charges() reads
    it, so every algorithm below is the same in both modes.
    """

    pool: CrackSet
    energy: Callable[[float, CrackSet], float]
    power: Callable[[float, CrackSet], float]
    hop: Callable[[CrackSet, CrackSet], HopCost | None]
    params: DissipationParams
    budget: int = 3
    search: str = "exhaustive"
    lattice_cap: int = DEFAULT_LATTICE_CAP
    stability_rtol: float = 1e-9
    power_bound: float | None = None
    competitor_generator: Callable[[CrackSet], Iterable[CrackSet]] | None = None
    viscous: bool = True
    # the boundary load behind the energy callback, when there is one;
    # tip probes need the displacement field, not just energy values
    load: object | None = None

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("competitor budget must be nonnegative")
        if self.search not in ("exhaustive", "greedy"):
            raise ValueError(f"unknown search mode {self.search!r}")

    @property
    def mesh(self):
        return self.pool.mesh

    def stability_tolerance(self, energy_value: float) -> float:
        return self.stability_rtol * (1.0 + abs(energy_value))

    def competitors(self, state: CrackSet) -> Iterator[CrackSet]:
        """Supersets of `state` inside the pool; `state` comes first."""
        if self.competitor_generator is not None:
            yield from self.competitor_generator(state)
            return
        available = self.pool.minus(state).edge_ids
        if self.search == "greedy":
            yield state
            for e in available:
                yield state.with_edges([e])
            return
        budget = min(self.budget, len(available))
        total = sum(math.comb(len(available), k) for k in range(budget + 1))
        if total > MAX_COMPETITORS:
            raise ValueError(
                f"budget {self.budget} over a pool of {len(available)} free edges "
                f"enumerates {total} competitors; exceeds {MAX_COMPETITORS}")
        yield state
        for k in range(1, budget + 1):
            for combo in itertools.combinations(available, k):
                yield state.with_edges(combo)

    def charges(self, h: CrackSet, k: CrackSet) -> HopCharges | None:
        """The charges of the hop H -> K; None when H <= K fails."""
        hop = self.hop(h, k)
        if hop is None:
            return None
        lam = self.params.lam
        d = hop.h1 + lam * hop.alpha
        if not self.viscous:
            return HopCharges(d, d, 0.0, lam, hop.alpha)
        mu = self.params.mu
        return HopCharges(d, d + (hop.sweep + mu * hop.alpha), hop.sweep,
                          lam + mu, hop.alpha)


@dataclass(frozen=True)
class StabilityReport:
    """Residual stability R(t,K) together with the witness argmin set."""

    residual: float
    minimizers: tuple[CrackSet, ...]
    examined: int
    best_value: float

    @property
    def is_stable(self) -> bool:
        return self.residual == 0.0


def residual_stability(t: float, state: CrackSet, instance: RisInstance) -> StabilityReport:
    """R(t,K) = E(t,K) - min over competitors K' of E(t,K') + D(K,K').

    K' = K itself is always enumerated and has D = 0, so the minimum
    never exceeds E(t,K) and R is nonnegative without clamping.
    """
    own = instance.energy(t, state)
    best = math.inf
    winners: list[CrackSet] = []
    examined = 0
    for comp in instance.competitors(state):
        examined += 1
        charged = instance.charges(state, comp)
        if charged is None:
            continue
        value = instance.energy(t, comp) + charged.big_d
        if value < best:
            best = value
            winners = [comp]
        elif value == best:
            winners.append(comp)
    if best > own:
        raise AssertionError(
            "competitor enumeration missed the state itself "
            f"(min {best!r} above E = {own!r})")
    winners.sort(key=lambda c: c.sort_key())
    return StabilityReport(residual=own - best, minimizers=tuple(winners),
                           examined=examined, best_value=best)


def incremental_step(t: float, prev: CrackSet, instance: RisInstance) -> CrackSet:
    """One step of the viscously corrected incremental scheme:
    argmin over competitors of E(t,K) + D(prev,K).

    Ties break toward fewer edges, then the lexicographically smaller
    edge set. Greedy mode augments one edge at a time to a fixpoint,
    always measuring the dissipation from `prev`.
    """

    def objective(cand: CrackSet) -> float:
        charged = instance.charges(prev, cand)
        if charged is None:
            return math.inf
        return instance.energy(t, cand) + charged.big_d

    def best_among(cands: Iterable[CrackSet], current_best=None):
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
    best = best_among(instance.competitors(prev))
    return best[1]


def _as_chain(chain) -> MonotoneChain:
    return chain if isinstance(chain, MonotoneChain) else MonotoneChain(chain)


def trc_chain(t: float, chain, instance: RisInstance) -> float:
    """Transition cost of a discrete monotone chain at frozen time t:

        sum over hops of the transition charge D - H1
        + sum of R(t, state) over all states except the last,

    where D - H1 = Delta + (lam+mu)*alpha in the VE scheme and
    lam*alpha for energetic solutions.

    The start state's R is included literally; for audited solutions the
    left limit is stable and the term vanishes.
    """
    chain = _as_chain(chain)
    total = 0.0
    for a, b in zip(chain.states, chain.states[1:]):
        charged = instance.charges(a, b)
        if charged is None:
            return math.inf
        total += charged.sweep + charged.rate * charged.alpha
    for state in chain.states[:-1]:
        total += residual_stability(t, state, instance).residual
    return total


@dataclass(frozen=True)
class HopLedger:
    """Per-hop audit row of an optimal transition chain."""

    delta: float      # sweep integral the hop charges (0 when not viscous)
    alpha: float      # nucleation count of the hop
    r_start: float    # residual stability at the hop's starting state


@dataclass(frozen=True)
class JumpCostResult:
    cost: float
    chain: MonotoneChain | None
    hops: tuple[HopLedger, ...]
    segments: tuple["TransitionSegment", ...]


def jump_cost(t: float, k_minus: CrackSet, k_plus: CrackSet,
              instance: RisInstance) -> JumpCostResult:
    """VE jump cost c(t, K-, K+): minimum transition cost over monotone
    chains in the interval lattice between K- and K+.

    Shortest path over gap bitmasks: the node weight R(t, .) is folded
    into every outgoing hop, so the final state's R is not charged, as
    in the transition-cost sum. Ties prefer shorter chains, then the
    lexicographically smallest sequence of intermediate sets.
    """
    if not k_minus.issubset(k_plus):
        return JumpCostResult(cost=math.inf, chain=None, hops=(), segments=())
    gap = k_plus.minus(k_minus).edge_ids
    g = len(gap)
    if g > instance.lattice_cap:
        raise ValueError(
            f"gap of {g} edges exceeds the lattice cap {instance.lattice_cap}; "
            "restrict the lattice or raise the cap")
    if g == 0:
        chain = MonotoneChain([k_minus])
        return JumpCostResult(cost=0.0, chain=chain, hops=(),
                              segments=(TransitionSegment("sliding", 0, 0, (), ()),))

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
    segments = tuple(decompose_transition(chain, t, instance))
    return JumpCostResult(cost=cost, chain=chain, hops=tuple(hops),
                          segments=segments)


@dataclass(frozen=True)
class TransitionSegment:
    """Maximal run of a transition chain whose interior states are all
    stable (sliding) or all unstable (viscous). Adjacent segments share
    their boundary states. For viscous runs, recursion_violations lists
    the chain indices where the minimum-jump recursion
    theta_n in M(t, theta_{n-1}) fails."""

    label: str
    first: int
    last: int
    interior_residuals: tuple[float, ...]
    recursion_violations: tuple[int, ...]


def decompose_transition(chain, t: float, instance: RisInstance) -> list[TransitionSegment]:
    """Split a chain into sliding and viscous segments by the stability
    of its interior states. A single-hop chain has no interior states
    and counts as one sliding segment."""
    chain = _as_chain(chain)
    n = len(chain) - 1
    if n <= 0:
        return [TransitionSegment("sliding", 0, max(n, 0), (), ())]
    if n == 1:
        return [TransitionSegment("sliding", 0, 1, (), ())]
    reports = {i: residual_stability(t, chain[i], instance) for i in range(1, n)}
    stable = {i: reports[i].residual <= instance.stability_tolerance(
        instance.energy(t, chain[i])) for i in reports}
    segments: list[TransitionSegment] = []
    start = 1
    while start <= n - 1:
        stop = start
        while stop + 1 <= n - 1 and stable[stop + 1] == stable[start]:
            stop += 1
        label = "sliding" if stable[start] else "viscous"
        violations = []
        if label == "viscous":
            for i in range(start, stop + 1):
                witnesses = residual_stability(t, chain[i - 1], instance).minimizers
                if not any(w.bits == chain[i].bits for w in witnesses):
                    violations.append(i)
        segments.append(TransitionSegment(
            label=label, first=start - 1, last=stop + 1,
            interior_residuals=tuple(reports[i].residual for i in range(start, stop + 1)),
            recursion_violations=tuple(violations)))
        start = stop + 1
    return segments


def jump_variation(evolution, jumps, instance: RisInstance) -> float:
    """Total cost charged at the jumps: c(t, left, at) + c(t, at, right)
    per jump record (either half drops out when the states agree)."""
    total = 0.0
    for rec in jumps:
        t = rec.time
        if rec.left.bits != rec.at.bits:
            total += jump_cost(t, rec.left, rec.at, instance).cost
        if rec.at.bits != rec.right.bits:
            total += jump_cost(t, rec.at, rec.right, instance).cost
    return total


@dataclass(frozen=True)
class BalanceReport:
    """Energy-dissipation balance along a discrete evolution.

    residual is the primary bookkeeping form

        E(t) + H1(K(t)\\K(0)) + sum of jump costs - E(0) - work(t),

    residual_alt regroups the same events as Var_d plus the viscous
    remainder of the jump costs. The two differ only by float
    re-association. The work integral is the trapezoid rule with the
    pre-step state on each interval, and quadrature_bound estimates its
    error from the power's interval oscillation, so on scheme output
    residual <= quadrature_bound + tolerance is the discrete
    upper-estimate check (upper_ok per time)."""

    times: np.ndarray
    energies: np.ndarray
    work: np.ndarray
    jump_costs: np.ndarray        # cumulative
    residual: np.ndarray          # primary form
    residual_alt: np.ndarray      # Var_d + viscous jump remainder form
    form_difference: np.ndarray
    quadrature_bound: np.ndarray
    upper_ok: np.ndarray

    @property
    def max_form_difference(self) -> float:
        return float(np.max(np.abs(self.form_difference)))


def audit_balance(evolution, instance: RisInstance,
                  upper_tol: float = 1e-9) -> BalanceReport:
    """Recompute the balance ledger of a discrete evolution from the
    instance callbacks. Reports, never raises."""
    times = np.asarray(evolution.partition.times, dtype=float)
    states = list(evolution.states)
    n = len(times)
    energies = np.array([instance.energy(times[i], states[i]) for i in range(n)])

    work = np.zeros(n)
    quad = np.zeros(n)
    for i in range(1, n):
        dt = times[i] - times[i - 1]
        p_left = instance.power(times[i - 1], states[i - 1])
        p_right = instance.power(times[i], states[i - 1])
        work[i] = work[i - 1] + 0.5 * dt * (p_left + p_right)
        quad[i] = quad[i - 1] + 0.5 * dt * abs(p_right - p_left)

    jumps = np.zeros(n)
    lam_sum_alpha = np.zeros(n)
    viscous_part = np.zeros(n)
    for i in range(1, n):
        jumps[i] = jumps[i - 1]
        lam_sum_alpha[i] = lam_sum_alpha[i - 1]
        viscous_part[i] = viscous_part[i - 1]
        if states[i].bits != states[i - 1].bits:
            c = jump_cost(times[i], states[i - 1], states[i], instance).cost
            charged = instance.charges(states[i - 1], states[i])
            # a non-nested step already has an infinite jump cost
            a = 0.0 if charged is None else charged.alpha
            jumps[i] += c
            lam_sum_alpha[i] += instance.params.lam * a
            viscous_part[i] += c - instance.params.lam * a

    h1_growth = np.array([h1_diff(states[0], states[i]) for i in range(n)])
    residual = energies + h1_growth + jumps - energies[0] - work
    var_d = h1_growth + lam_sum_alpha
    residual_alt = energies + var_d + viscous_part - energies[0] - work
    scale = 1.0 + np.abs(energies) + np.abs(work)
    upper_ok = residual <= quad + upper_tol * scale
    return BalanceReport(times=times, energies=energies, work=work,
                         jump_costs=jumps, residual=residual,
                         residual_alt=residual_alt,
                         form_difference=residual_alt - residual,
                         quadrature_bound=quad, upper_ok=upper_ok)


@dataclass(frozen=True)
class JumpAudit:
    """Residuals of the three jump identities at one jump:
    left-to-at, at-to-right, and left-to-right."""

    time: float
    res_left: float
    res_right: float
    res_across: float


def audit_jump_conditions(evolution, instance: RisInstance,
                          jumps=None) -> list[JumpAudit]:
    """Residuals E(t,H) - E(t,K) - H1(K\\H) - c(t,H,K) for the three
    transitions of each jump record. Empty report when nothing jumps."""
    if jumps is None:
        jumps = getattr(evolution, "default_jump_records", lambda: [])()

    def identity(t, h, k):
        if h.bits == k.bits:
            return 0.0
        drop = instance.energy(t, h) - instance.energy(t, k)
        return drop - h1_diff(h, k) - jump_cost(t, h, k, instance).cost

    return [JumpAudit(time=rec.time,
                      res_left=identity(rec.time, rec.left, rec.at),
                      res_right=identity(rec.time, rec.at, rec.right),
                      res_across=identity(rec.time, rec.left, rec.right))
            for rec in jumps]
