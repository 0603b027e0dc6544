"""Visco-energetic machinery over a finite crack lattice.

Everything here is generic in the driving system: a RisInstance carries
the energy/power callbacks, one dissipation callback `hops` that prices
hops out of one source H, given by their new edges, into a HopCost of
arrays (new length, sweep integral, nucleation count), the `viscous` flag that
turns records into the charged costs (the VE dissipation D = d + delta,
or D = d for energetic solutions), and the competitors of a state over
an admissible edge pool. A single hop H -> K is the batch of one
(dissipation.single_hop). On top of that we provide

  * the residual stability function R and the minimal-set witness M,
  * the viscously corrected incremental minimization step,
  * the transition cost of discrete monotone chains and the jump cost
    c(t, K-, K+) as a shortest path over the interval lattice,
  * the energy-dissipation balance audit (two equivalent bookkeeping
    forms plus the discrete upper estimate) and the jump-condition
    audit,
  * the decomposition of an optimal transition into sliding and viscous
    segments.

The step and R are one minimization, E(t,K') + D(K,K') over the
competitors K' of K, so one private scan holds that loop and its
tie-break (fewer edges, then lexicographic). D needs no energy
evaluation and does not depend on t, so a scan has two halves: the
ranking prices every competitor's hop and sorts the competitors by D,
once per (source, state) while the instance keeps it, and the
evaluation, run for each t, evaluates E in increasing D and stops at
the first competitor whose D plus the instance's floor of (t, state),
a number no larger than any competitor's energy, already puts it above
the best value; only strict excess is skipped, so minimum and winners
are those of the full scan, and a report's examined count still counts
every competitor. A read energy below its floor breaks that promise
and raises NumericalError. A ranking is one `hops` call: the new edges
of every competitor, whatever their number, in competitors() order,
priced and charged by HopCost.charges, then sorted by a stable argsort,
and a competitor's CrackSet is built only when a scan reaches it or
hands it to the instance's prefetch callback in a chunk of candidates.
The step's first scan is R's scan of its old state, and
residual_stability keeps every R scan in the instance's memo, so a step
that keeps its state has shown R = 0 there and the audits read
R(t_i, K_{i-1}) without scanning again. jump_cost takes the full R of
every lattice node it expands; a node whose one value at K+ already
prices it out of the search is cut off without a scan.

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
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dissipation import DissipationParams, HopCharges, HopCost, MonotoneChain, single_hop
from .elastic import NumericalError
from .geometry import CrackSet, _require_same_mesh, h1_diff

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
    "audit_balance",
    "audit_jump_conditions",
    "decompose_transition",
]

# Hard ceiling on exhaustively enumerated competitors per step.
MAX_COMPETITORS = 500_000
# Largest gap, in edges, whose interval lattice jump_cost searches.
LATTICE_CAP = 16


def _no_floor(t: float, state: CrackSet) -> float:
    """The energy floor that promises nothing."""
    return -math.inf


@dataclass
class RisInstance:
    """The driving system handed to the lattice algorithms.

    hops is the one dissipation callback: given H and the new edges of
    N hops out of H, N ascending edge sequences of any lengths (an (N, m)
    int array is one), it returns a HopCost of float arrays of N entries,
    in that order, each the record of that hop alone (price_hops is one).
    A ranking prices all its competitors in one call (see _rank), and
    charges() prices one hop as the call of one. viscous selects what
    the records charge: the VE dissipation D = d + delta, with
    d = H1(K\\H) + lam*alpha and delta = Delta + mu*alpha, or, when
    False, the energetic D = d. HopCost.charges does the arithmetic, so
    every algorithm below is the same in both modes. Records are
    nonnegative, which is what lets jump_cost cut off a lattice node by
    the value of its witness K+ alone.

    energy_floor(t, state) is a number no larger than E(t, K) for every
    competitor K of state. Scans evaluate E in increasing D and stop
    once D plus the floor puts a competitor above the best value (see
    _scan); a scan that reads an energy below its floor raises
    NumericalError. The default, -infinity, promises nothing, so such a
    scan evaluates every competitor. The fracture instance declares
    a(t)^2 (E1(state ∪ pool) - m): cutting more edges never raises the
    elastic energy, and every competitor lies inside state ∪ pool (see
    evolution.fracture_instance).

    prefetch, when set, is the scans' batch callback: before a scan
    reads the energy of a candidate past the chunks it has handed out,
    it hands prefetch the next chunk (see _scan), so that the instance
    can compute many energies at once. energy must return the same
    value whether or not prefetch saw the crack set, and raise what it
    would have raised: a failure met ahead of a scan's stop waits for a
    read. The fracture instance's prefetch solves a chunk's new
    cracked spaces as one block-diagonal system.

    residuals, read only by residual_stability, memoizes R(t,K) reports
    by (t, K) and assumes energy and hops are pure. _charged, read only
    by charges(), memoizes each hop's HopCharges by (H, K): a scan files
    those of its winners from its ranking's call, so the hop of a step,
    which its ledger and the audits look up, is priced once.
    ranking(source, state) ranks the competitors of state by their D
    from source, which does not depend on t, and keeps the most recent
    ranking (which knows its source and state), for R scans and greedy
    rescans alike: the R scan of a step that follows a frozen step, or
    of its own new state, only evaluates energies. The memos match crack
    sets, mesh included. dataclasses.replace starts the copy with every
    memo empty.

    The instance holds no state of the driving system beyond its
    callbacks: evolution.fracture_instance closes the boundary load into
    energy and power.
    """

    pool: CrackSet
    energy: Callable[[float, CrackSet], float]
    power: Callable[[float, CrackSet], float]
    hops: Callable[[CrackSet, Sequence[Sequence[int]]], HopCost]
    params: DissipationParams
    budget: int = 3
    search: str = "exhaustive"
    stability_rtol: float = 1e-9
    power_bound: float | None = None
    viscous: bool = True
    energy_floor: Callable[[float, CrackSet], float] = _no_floor
    prefetch: Callable[[Sequence[CrackSet]], None] | None = None
    residuals: dict[tuple[float, CrackSet], StabilityReport] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _charged: dict[tuple[CrackSet, CrackSet], HopCharges | None] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _ranked: _Ranking | None = field(
        default=None, init=False, repr=False, compare=False)

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
        mesh, base = state.mesh, state.bits
        for added in self._additions(state):
            yield CrackSet(mesh, base | _mask(added))

    def _additions(self, state: CrackSet) -> list[tuple[int, ...]]:
        """The edges each competitor adds to `state`, ascending, in
        competitors() order: () for the state itself, then every free
        pool edge alone (greedy) or every combination of up to budget of
        them, by size and in itertools.combinations order. Raises
        ValueError when exhaustive search would enumerate more than
        MAX_COMPETITORS."""
        free = self.pool.minus(state).edge_ids
        if self.search == "greedy":
            return [(), *((e,) for e in free)]
        budget = min(self.budget, len(free))
        total = sum(math.comb(len(free), k) for k in range(budget + 1))
        if total > MAX_COMPETITORS:
            raise ValueError(
                f"budget {self.budget} over a pool of {len(free)} free edges "
                f"enumerates {total} competitors; exceeds {MAX_COMPETITORS}")
        return [added for k in range(budget + 1)
                for added in itertools.combinations(free, k)]

    def is_competitor(self, state: CrackSet, k: CrackSet) -> bool:
        """Whether a superset k of `state` is one of competitors(state),
        decided without enumerating them."""
        new = k.minus(state)
        limit = 1 if self.search == "greedy" else self.budget
        return new.issubset(self.pool) and new.cardinality <= limit

    def charges(self, h: CrackSet, k: CrackSet) -> HopCharges | None:
        """The charges of the hop H -> K; None when H <= K fails. H must
        lie on the pool's mesh: `hops` need not check meshes. Each hop is
        priced once per instance."""
        _require_same_mesh(h, self.pool)
        key = (h, k)
        if key not in self._charged:
            self._file_charges(h, k, single_hop(self.hops, h, k))
        return self._charged[key]

    def _file_charges(self, h: CrackSet, k: CrackSet, hop: HopCost | None) -> None:
        """Keep the charges of the hop H -> K, priced as `hop`, unless
        they are kept already."""
        if (h, k) not in self._charged:
            self._charged[h, k] = None if hop is None else hop.charges(self.params, self.viscous)

    def ranking(self, source: CrackSet, state: CrackSet) -> _Ranking:
        """The competitors of `state` ranked by D(source, .) (see _rank);
        the most recent (source, state) ranking is reused. Raises
        ValueError when source <= state fails: every competitor of state
        would cost +infinity."""
        memo = self._ranked
        if memo is not None and memo.source == source and memo.state == state:
            return memo
        if not source.issubset(state):
            raise ValueError("a ranking's source must lie inside its state")
        self._ranked = None  # so two rankings are never held at once
        self._ranked = _rank(source, state, self)
        return self._ranked


def _mask(edge_ids: Iterable[int]) -> int:
    # the edges are distinct, so the sum of their bits is their union
    return sum(1 << e for e in edge_ids)


@dataclass(frozen=True)
class StabilityReport:
    """Residual stability R(t,K) together with the witness argmin set.
    examined counts every competitor the scan priced, including those
    whose energy a floored scan never evaluated."""

    residual: float
    minimizers: tuple[CrackSet, ...]
    examined: int


class _Ranking:
    """The competitors of `state` ranked for a scan out of `source`:
    big_d lists their D in increasing order, and iterating gives the
    (D, K) pairs in that order. A candidate is built by `make(i)`, from
    its index i, the first time a scan reaches it or hands it out in a
    chunk (`cracks`), and kept. `record(i)` is the HopCost of candidate
    i's hop out of source, with Python float fields, as single_hop
    gives it."""

    def __init__(self, source: CrackSet, state: CrackSet, big_d: list[float],
                 make: Callable[[int], CrackSet], record: Callable[[int], HopCost]):
        self.source = source
        self.state = state
        self.big_d = big_d
        self.record = record
        self._cracks: list[CrackSet] = []
        self._make = make

    def __iter__(self) -> Iterator[tuple[float, CrackSet]]:
        for i, big_d in enumerate(self.big_d):
            yield big_d, self.cracks(i + 1)[i]

    def cracks(self, stop: int) -> list[CrackSet]:
        """The first `stop` candidates, in ranked order."""
        cracks = self._cracks
        while len(cracks) < stop:
            cracks.append(self._make(len(cracks)))
        return cracks


def _rank(source: CrackSet, state: CrackSet, instance: RisInstance) -> _Ranking:
    """The t-free half of a scan: the competitors of `state` ⊇ source,
    priced from source in one `hops` call and sorted by D.

    The call takes, in competitors() order, the edges each competitor
    adds to source: those it adds to state, merged with those state adds
    to source (a greedy rescan's). HopCost.charges turns the priced
    arrays into D as it does a single record, and a stable argsort keeps
    equal D in competitors() order, so the ranking is that of pricing
    each candidate alone through charges() and sorting stably: the same
    D, as Python floats, in the same order. Each record of the call is
    that hop's record alone (the `hops` contract), so a candidate's
    record is read off the call's arrays."""
    added = instance._additions(state)
    base = state.minus(source).edge_ids
    new = [tuple(sorted(base + edges)) for edges in added] if base else added
    priced = instance.hops(source, new)
    big_d = priced.charges(instance.params, instance.viscous).big_d
    order = np.argsort(big_d, kind="stable")
    mesh, bits, at = state.mesh, state.bits, order.tolist()
    fields = (priced.h1, priced.sweep, priced.alpha)
    return _Ranking(source, state, big_d[order].tolist(),
                    lambda i: CrackSet(mesh, bits | _mask(added[at[i]])),
                    lambda i: HopCost(*(float(x[at[i]]) for x in fields)))


def _scan(t: float, ranking: _Ranking,
          instance: RisInstance) -> tuple[float, list[CrackSet], int, float | None]:
    """The one competitor loop: min over the ranked candidates K of
    E(t,K) + D(source,K). Returns the minimum, the candidates attaining
    it sorted by the tie-break (fewer edges, then lexicographic), the
    number of candidates examined (every candidate, evaluated or not), and
    E(t, source) when the source is a candidate (None otherwise).

    With the instance's floor f = energy_floor(t, state), no larger than
    any candidate's E, the scan evaluates E in increasing D and stops at
    the first candidate with D + f > best: by monotone rounding its
    value, and every later one's, is strictly above the best so far.
    Only strict excess is passed over, so the minimum, its winners and
    their order are those of the plain scan. A floor of -infinity skips
    nothing. An energy read below the floor breaks the promise the stop
    rests on and raises NumericalError. Only E depends on t, so one
    ranking serves scans at any number of times. The charges of each
    winner's hop are filed with the instance, read off the ranking's
    `hops` call, for the step's ledger and the audits.

    With a prefetch callback, the scan hands it the candidates in
    chunks, each before the first of its energies is read: chunk k, from
    the first candidate not yet handed out, holds at most 2^k of them,
    cut at the first whose D + f exceeds the best value so far. A chunk
    may reach past the candidate where the scan stops; reads, values
    and the stop are those of the scan without prefetch."""
    prefetch, big_ds = instance.prefetch, ranking.big_d
    source_bits = ranking.source.bits
    floor = instance.energy_floor(t, ranking.state)
    best = math.inf
    winners: list[CrackSet] = []
    won: list[int] = []
    own = None
    ahead, chunk = 0, 1
    for i, big_d in enumerate(big_ds):
        if big_d + floor > best:
            break
        if i == ahead:
            # the next chunk: up to `chunk` candidates that the floor test
            # admits against the best value so far (one at a time when
            # there is no prefetch to hand them to)
            ahead, stop = i + 1, min(i + chunk, len(big_ds))
            while ahead < stop and big_ds[ahead] + floor <= best:
                ahead += 1
            cracks = ranking.cracks(ahead)
            if prefetch is not None:
                prefetch(cracks[i:ahead])
                chunk *= 2
        comp = cracks[i]
        energy = instance.energy(t, comp)
        if energy < floor:
            raise NumericalError(
                f"energy floor {float(floor)!r} undercut: E = {float(energy)!r} "
                f"at t = {float(t)!r} on crack edges {list(comp.edge_ids)}")
        if comp.bits == source_bits:
            own = energy
        value = energy + big_d
        if value < best:
            best = value
            winners, won = [comp], [i]
        elif value == best:
            winners.append(comp)
            won.append(i)
    for comp, i in zip(winners, won):
        instance._file_charges(ranking.source, comp, ranking.record(i))
    winners.sort(key=lambda c: c.sort_key())
    return best, winners, len(ranking.big_d), own


def residual_stability(t: float, state: CrackSet, instance: RisInstance) -> StabilityReport:
    """R(t,K) = E(t,K) - min over competitors K' of E(t,K') + D(K,K').

    K' = K itself is always enumerated and has D = 0, so the minimum
    never exceeds E(t,K) and R is nonnegative without clamping. Each
    (t, K) is scanned once per instance: the report is kept in the
    instance's residual memo.
    """
    key = (t, state)
    report = instance.residuals.get(key)
    if report is not None:
        return report
    best, winners, examined, own = _scan(t, instance.ranking(state, state), instance)
    if own is None or best > own:
        raise AssertionError(
            "competitor enumeration missed the state itself "
            f"(min {best!r} above E = {own!r})")
    report = StabilityReport(residual=own - best, minimizers=tuple(winners),
                             examined=examined)
    instance.residuals[key] = report
    return report


def incremental_step(t: float, prev: CrackSet, instance: RisInstance) -> CrackSet:
    """One step of the viscously corrected incremental scheme:
    argmin over competitors of E(t,K) + D(prev,K).

    Ties break toward fewer edges, then the lexicographically smaller
    edge set. The first scan is R's scan of `prev`, so it also gives
    R(t, prev); exhaustive mode needs no other. Greedy mode rescans the
    competitors of the current winner, always measuring the dissipation
    from `prev`, until the winner stays put.
    """
    state, winner = prev, residual_stability(t, prev, instance).minimizers[0]
    while instance.search == "greedy" and winner.bits != state.bits:
        state = winner
        winner = _scan(t, instance.ranking(prev, state), instance)[1][0]
    return winner


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
    """The jump cost with its optimal chain and per-hop ledger. expanded
    counts the lattice nodes whose full R was taken and whose successors
    were pushed; pruned counts those cut off by their witness K+."""

    cost: float
    chain: MonotoneChain | None
    hops: tuple[HopLedger, ...]
    expanded: int = 0
    pruned: int = 0


def jump_cost(t: float, k_minus: CrackSet, k_plus: CrackSet,
              instance: RisInstance) -> JumpCostResult:
    """VE jump cost c(t, K-, K+): minimum transition cost over monotone
    chains in the interval lattice between K- and K+.

    Shortest path over the crack bitmasks between K- and K+; a node's
    successors add a nonempty submask of K+ \\ node. The node weight
    R(t, .) is folded into every outgoing hop, so the final state's R is
    not charged, as in the transition-cost sum. Ties prefer shorter
    chains, then the smaller tuple of node bitmasks.

    Expanding K- prices the direct hop to K+ and so gives a best known
    cost C. An intermediate node reached at cost c that has K+ as a
    competitor (its witness) reads v = E(t, K+) + D(node, K+), and is
    cut off without its R or its successors when
    c + (E(t, node) - v) > C. v is one of the values R minimizes over,
    so R(node) >= E(t, node) - v, and the charges are nonnegative:
    under monotone rounding every chain through the node costs strictly
    more than C. Only strict excess is cut, so the cost, the chain, its
    tie-break and every r_start are those of the unpruned search. Every
    other node takes its full R from residual_stability, so the nodes
    on the returned chain read their r_start through it from its memo.
    """
    if not k_minus.issubset(k_plus):
        return JumpCostResult(cost=math.inf, chain=None, hops=())
    g = k_plus.minus(k_minus).cardinality
    if g > LATTICE_CAP:
        raise ValueError(
            f"gap of {g} edges exceeds the lattice cap {LATTICE_CAP}; "
            "restrict the lattice or raise the cap")
    if g == 0:
        return JumpCostResult(cost=0.0, chain=MonotoneChain([k_minus]), hops=())
    mesh, start, full = k_minus.mesh, k_minus.bits, k_plus.bits
    expanded = pruned = 0
    # per node: (cost, chain length, path of node bitmasks ending at it)
    best: dict[int, tuple[float, int, tuple[int, ...]]] = {start: (0.0, 1, (start,))}
    finished: set[int] = set()
    heap = [best[start]]
    while heap:
        cost, length, path = heapq.heappop(heap)
        node = path[-1]
        if node in finished:
            continue
        finished.add(node)
        if node == full:
            break
        here = CrackSet(mesh, node)
        if node != start and instance.is_competitor(here, k_plus):
            own = instance.energy(t, here)
            v = instance.energy(t, k_plus) + instance.charges(here, k_plus).big_d
            if cost + (own - v) > best[full][0]:
                pruned += 1
                continue
        report = residual_stability(t, here, instance)
        expanded += 1
        rest = full & ~node
        sub = rest
        while sub:
            nxt = node | sub
            charged = instance.charges(here, CrackSet(mesh, nxt))
            hop = report.residual + charged.sweep + charged.rate * charged.alpha
            cand = (cost + hop, length + 1, path + (nxt,))
            known = best.get(nxt)
            if known is None or cand < known:
                best[nxt] = cand
                heapq.heappush(heap, cand)
            sub = (sub - 1) & rest
    cost, _, path = best[full]
    chain = MonotoneChain([CrackSet(mesh, m) for m in path])
    hops = []
    for a, b in zip(chain.states, chain.states[1:]):
        charged = instance.charges(a, b)
        hops.append(HopLedger(delta=charged.sweep, alpha=charged.alpha,
                              r_start=residual_stability(t, a, instance).residual))
    return JumpCostResult(cost=cost, chain=chain, hops=tuple(hops),
                          expanded=expanded, pruned=pruned)


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
    and counts as one sliding segment. Each state but the last is
    scanned once; the report of state i - 1 also gives the witnesses M
    that the recursion check at state i reads."""
    chain = _as_chain(chain)
    n = len(chain) - 1
    if n <= 1:
        return [TransitionSegment("sliding", 0, max(n, 0), (), ())]
    reports = [residual_stability(t, s, instance) for s in chain.states[:-1]]
    stable = [r.residual <= instance.stability_tolerance(instance.energy(t, s))
              for r, s in zip(reports, chain.states)]
    segments: list[TransitionSegment] = []
    start = 1
    while start <= n - 1:
        stop = start
        while stop + 1 <= n - 1 and stable[stop + 1] == stable[start]:
            stop += 1
        label = "sliding" if stable[start] else "viscous"
        violations = [] if stable[start] else [
            i for i in range(start, stop + 1)
            if not any(w.bits == chain[i].bits for w in reports[i - 1].minimizers)]
        segments.append(TransitionSegment(
            label=label, first=start - 1, last=stop + 1,
            interior_residuals=tuple(reports[i].residual for i in range(start, stop + 1)),
            recursion_violations=tuple(violations)))
        start = stop + 1
    return segments


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
            c = jump_cost(float(times[i]), states[i - 1], states[i], instance).cost
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


def audit_jump_conditions(instance: RisInstance, jumps) -> list[JumpAudit]:
    """Residuals E(t,H) - E(t,K) - H1(K\\H) - c(t,H,K) for the three
    transitions of each jump record. Empty report when nothing jumps."""

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
