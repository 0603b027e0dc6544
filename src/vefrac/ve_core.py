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
priced and charged by HopCost.charges, then sorted by a stable argsort.
A ranking is held as arrays: D in increasing order, the edges each
competitor adds, and the energies the instance's one batch contract
gives for them in chunks (E1 of an energy that t only scales, see
RisInstance.scaled; NaN where none was given, read alone through
energy(t, K)), so a scan at t computes its values s(t) * E1 + D as
array operations and builds a CrackSet only for its winners.
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
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .dissipation import DissipationParams, HopCharges, HopCost, MonotoneChain, single_hop
from .elastic import NumericalError
from .geometry import CrackSet, _require_same_mesh, h1_diff

__all__ = [
    "RisInstance",
    "ScaledEnergies",
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
# Fewest candidates a scan reads as one run of array operations; a
# shorter run costs less read one candidate at a time: the arrays cost
# about 8 µs a run, the loop about 0.6 µs a candidate. Reads per strip /
# fine / grid run (2-core Xeon, OPENBLAS_NUM_THREADS=1): 1.5 / 0.9 /
# 0.57 ms all as arrays, 0.37 / 0.19 / 0.91 ms all one at a time, and
# 0.35-0.38 / 0.19 / 0.35-0.38 ms for any threshold from 24 to 64.
_RUN = 32


def _no_floor(t: float, state: CrackSet) -> float:
    """The energy floor that promises nothing."""
    return -math.inf


class ScaledEnergies(Protocol):
    """E(t, K) = scale(t) * E1(K), as an instance declares it (see
    RisInstance.scaled)."""

    def scale(self, t: float) -> float:
        ...

    def unit_energies(self, state: CrackSet,
                      added: Sequence[tuple[int, ...]]) -> Sequence[float]:
        ...


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

    scaled declares E(t, K) = s(t) * E1(K), an energy that the time
    only scales: an object whose scale(t) is s(t) and whose
    unit_energies(state, added) gives E1 of state plus each edge
    sequence of `added` (ascending, outside state), in order, t-free.
    energy(t, K) must equal scale(t) * E1(K), bit for bit, and
    unit_energies must not raise for a candidate: it gives NaN where the
    energy of K is to be read through energy(t, K), which raises what it
    raises there (a failed solve, say), so a failure met in a batch is
    raised only where a scan reads it. That is the scans' one batch
    contract: a ranking keeps the E1 it was given and a scan at any t
    computes (s * E1) + D, handing unit_energies the candidates in
    chunks of 1, 2, 4, ... (see _scan). Without scaled, nothing is
    handed to a batch: a scan reads energy(t, K) of each candidate it
    reaches alone, at every t, as it reads a NaN (scaled is to stay as
    it was when the ranking was made). The fracture instance declares
    a(t)^2 times its cached E1, and solves a chunk's new cracked spaces
    as one block-diagonal system (see evolution._ScaledEnergyCache).

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
    scaled: ScaledEnergies | None = None
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
    """The competitors of `state` ranked for a scan out of `source`, as
    arrays: `d` holds their D in increasing order, `added` the edges each
    adds to state, in that order, and `e1` their energies, NaN where no
    batch gave one. A scan reads the candidates up to `filled` as they
    are and hands the instance's batch (see RisInstance) the next chunks
    past it: the t-free E1 of its scaled energies then serve every scan.
    Without scaled energies `filled` is every candidate from the start,
    so every entry stays NaN and a scan reads each energy it reaches
    alone, at its own t. `own` is the index of the source when it is a
    candidate (None otherwise). A candidate's CrackSet is built by
    `crack(i)`, for a winner or an energy read alone, and `record(i)` is
    the HopCost of candidate i's hop out of source, with Python float
    fields, as single_hop gives it."""

    def __init__(self, source: CrackSet, state: CrackSet, d: np.ndarray,
                 added: list[tuple[int, ...]], own: int | None,
                 record: Callable[[int], HopCost], filled: int):
        self.source = source
        self.state = state
        self.d = d
        self.added = added
        self.own = own
        self.record = record
        self.e1 = np.full(d.size, math.nan)
        self.filled = filled

    def crack(self, i: int) -> CrackSet:
        return CrackSet(self.state.mesh, self.state.bits | _mask(self.added[i]))


def _rank(source: CrackSet, state: CrackSet, instance: RisInstance) -> _Ranking:
    """The t-free half of a scan: the competitors of `state` ⊇ source,
    priced from source in one `hops` call and sorted by D.

    The call takes, in competitors() order, the edges each competitor
    adds to source: those it adds to state, merged with those state adds
    to source (a greedy rescan's). HopCost.charges turns the priced
    arrays into D as it does a single record, and a stable argsort keeps
    equal D in competitors() order, so the ranking is that of pricing
    each candidate alone through charges() and sorting stably: the same
    D in the same order. Each record of the call is that hop's record
    alone (the `hops` contract), so a candidate's record is read off the
    call's arrays."""
    added = instance._additions(state)
    base = state.minus(source).edge_ids
    new = [tuple(sorted(base + edges)) for edges in added] if base else added
    priced = instance.hops(source, new)
    big_d = priced.charges(instance.params, instance.viscous).big_d
    order = np.argsort(big_d, kind="stable")
    at = order.tolist()
    # the state itself is the first competitor; it is the source in R's scans
    own = at.index(0) if source.bits == state.bits else None
    fields = (priced.h1, priced.sweep, priced.alpha)
    return _Ranking(source, state, big_d[order], [added[i] for i in at], own,
                    lambda i: HopCost(*(float(x[at[i]]) for x in fields)),
                    0 if instance.scaled is not None else len(at))


class _Reads:
    """The reads of one scan at t, in ranked order: the best value so far
    and the candidates attaining it, and E(t, source) once read.

    `read(stop)` reads the candidates up to stop - 1, or to the stop of
    the scan, the first candidate j with limit[j] = d[j] + floor above
    the best value before it. The values s * e1 + d of a run of at least
    _RUN energies the batch gave are array operations (`_run`); a
    shorter run, and every run of NaN, is read one candidate at a time
    (`_each`), with the same IEEE operations, and both keep the running
    minimum, the stop, the winners and the sign of a zero best of the
    loop that keeps a value only when it is strictly below the best. A
    candidate whose energy is NaN is read alone, if the scan reaches it,
    through `energy(t, K)`, which raises what the instance raises for
    it; an energy below the floor raises NumericalError."""

    def __init__(self, t: float, ranking: _Ranking, instance: RisInstance,
                 scale: float, floor: float):
        self.t, self.ranking, self.instance = t, ranking, instance
        self.scale, self.floor = scale, floor
        # a floor that is not a number stops nothing, as -infinity does
        self.limit = ranking.d + (floor if floor == floor else -math.inf)
        self.best = math.inf
        self.won: list[int] = []
        self.own: float | None = None
        self.pos = 0
        self.stopped = False

    def read(self, stop: int) -> None:
        e1 = self.ranking.e1
        while self.pos < stop and not self.stopped:
            lo = self.pos
            if stop - lo < _RUN:
                self._each(lo, stop)
                continue
            unread = np.isnan(e1[lo:stop])
            # the leading run of NaN, or of numbers
            hi = lo + (int((unread != unread[0]).argmax()) or stop - lo)
            (self._each if unread[0] else self._run)(lo, hi)

    def _run(self, lo: int, hi: int) -> None:
        ranking = self.ranking
        energy = self.scale * ranking.e1[lo:hi]
        value = energy + ranking.d[lo:hi]
        least = np.fmin.accumulate(value)
        before = np.empty(hi - lo)
        before[0] = self.best
        np.fmin(least[:-1], self.best, out=before[1:])
        past = self.limit[lo:hi] > before
        n = int(past.argmax()) if past.any() else hi - lo
        under = energy[:n] < self.floor
        if under.any():
            j = int(under.argmax())
            self._undercut(lo + j, float(energy[j]))
        self.pos, self.stopped = lo + n, n < hi - lo
        if not n:
            return
        low = least[n - 1]
        if low <= self.best:
            tied = (value[:n] == low).nonzero()[0]
            if low < self.best:
                self.best, self.won = float(value[tied[0]]), []
            self.won += (tied + lo).tolist()
        if ranking.own is not None and lo <= ranking.own < lo + n:
            self.own = float(energy[ranking.own - lo])

    def _each(self, lo: int, hi: int) -> None:
        ranking = self.ranking
        for i, e1, d, limit in zip(range(lo, hi), ranking.e1[lo:hi].tolist(),
                                   ranking.d[lo:hi].tolist(), self.limit[lo:hi].tolist()):
            best = self.best
            if limit > best:
                self.stopped = True
                return
            if e1 == e1:
                energy = self.scale * e1
            else:
                energy = self.instance.energy(self.t, ranking.crack(i))
            if energy < self.floor:
                self._undercut(i, energy)
            value = energy + d
            if value < best:
                self.best, self.won = float(value), [i]
            elif value == best:
                self.won.append(i)
            if i == ranking.own:
                self.own = float(energy)
            self.pos = i + 1

    def _undercut(self, i: int, energy: float):
        raise NumericalError(
            f"energy floor {float(self.floor)!r} undercut: E = {float(energy)!r} "
            f"at t = {float(self.t)!r} on crack edges {list(self.ranking.crack(i).edge_ids)}")


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
    rests on and raises NumericalError. E = s(t) * e1, with e1 the
    ranking's energies (see _Ranking and RisInstance), so one ranking of
    scaled energies serves scans at any number of times; an entry that
    is NaN is read alone through energy(t, K). The charges of each
    winner's hop are filed with the instance, read off the ranking's
    `hops` call, for the step's ledger and the audits; a CrackSet is
    built only for a winner or a candidate read alone.

    The scan reads the candidates up to the ranking's `filled`, then
    hands the batch the next chunk, from `filled` up to 2 * filled + 1
    and cut at the first candidate whose D + f exceeds the best value so
    far, before it reads the first of them, until that chunk is empty:
    from scratch, chunks of 1, 2, 4, ... candidates, and a later scan
    continues past the candidates an earlier one filled. A chunk may
    reach past the candidate where the scan stops; a failure the
    instance flags there is never read."""
    scaled = instance.scaled
    floor = instance.energy_floor(t, ranking.state)
    reads = _Reads(t, ranking, instance, 1.0 if scaled is None else scaled.scale(t), floor)
    reads.read(ranking.filled)
    while not reads.stopped:
        lo = ranking.filled
        # D + floor does not decrease along the ranking
        hi = min(2 * lo + 1, int(np.searchsorted(reads.limit, reads.best, "right")))
        if hi <= lo:
            break
        ranking.e1[lo:hi] = scaled.unit_energies(ranking.state, ranking.added[lo:hi])
        ranking.filled = hi
        reads.read(hi)
    winners = [ranking.crack(i) for i in reads.won]
    for comp, i in zip(winners, reads.won):
        instance._file_charges(ranking.source, comp, ranking.record(i))
    winners.sort(key=lambda c: c.sort_key())
    return reads.best, winners, len(ranking.d), reads.own


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
