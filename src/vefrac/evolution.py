"""Time-stepping driver and run-level diagnostics.

run_scheme iterates the viscously corrected incremental minimization
over a time partition, recording a per-step ledger (energy, power, the
dissipation split d / Delta / alpha of each hop, and the residual
stability of the chosen state; a step that keeps its state writes
zeros for its hop and R without pricing or scanning). The crack
history is monotone by construction and is read back as the
right-continuous piecewise constant interpolant: the state decided by
the minimization at t_i holds on [t_i, t_{i+1}).

Also here: jump detection on the discrete history, the connected-
component bound, the energetic (non-viscous) comparison mode, and the
factory that wires the elastic energy into a RisInstance. The factory
caches one FEM solve per distinct cracked space, known before it is
built by its key (the crack edges that split fans plus the released
Dirichlet edges): the datum scales linearly with the amplitude, so
E(t,K) = a(t)^2 E1(K) and the power is a(t) adot(t) times a cached
bilinear value. The instance's prefetch solves the new spaces of a
scan's chunk together, as block-diagonal systems (`blocks`), bit for
bit whatever else a block holds; a lookup of a crack set not yet
solved is a prefetch of one. Its energy floor under the competitors of
K is a(t)^2 (E1(K ∪ pool) - m), read from the same cache: cutting more
edges never raises the energy, so a scan stops at the first competitor
whose D plus the floor prices it out. Its one dissipation callback
`hops` is dissipation.price_hops, a pure function that prices each hop
it is asked for, among all of a ranking's hops in one call or alone as
a call of one, bit for bit as hop_cost does; the instance's ranking
keeps a scan's prices, and its charges memo each hop priced alone. The
energetic mode is the same instance with its viscous flag off, charging
the same records without their sweep integral and mu term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .blocks import Entry, pack_blocks, solve_block
from .dissipation import DissipationParams, price_hops
from .elastic import BoundaryLoad, NumericalError, power_bound_constant, space_key, space_walk
from .geometry import CrackSet, Mesh, MeshError, connected_components
from .ve_core import RisInstance, incremental_step, residual_stability

__all__ = [
    "TimePartition",
    "StepLedger",
    "DiscreteEvolution",
    "JumpRecord",
    "run_scheme",
    "detect_jumps",
    "component_bound_check",
    "ComponentBoundReport",
    "energetic_mode",
    "fracture_instance",
]


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing times 0 = t_0 < ... < t_N = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a partition needs at least the two endpoints")
        if t[0] != 0.0:
            raise ValueError("partitions start at time 0")
        if not np.all(np.diff(t) > 0):
            raise ValueError("partition times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimePartition":
        if n_steps < 1:
            raise ValueError("need at least one step")
        return cls(np.linspace(0.0, horizon, n_steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def tau(self) -> float:
        return float(np.max(np.diff(self.times)))

    def __len__(self):
        return len(self.times)


@dataclass
class StepLedger:
    """Per-index run data; row i describes the step into state K_i
    (zeros at i = 0). power is dE/dt at (t_i, K_i); power_pre evaluates
    the old state at the new time, which is what the pre-step trapezoid
    work integral needs."""

    energy: np.ndarray
    power: np.ndarray
    power_pre: np.ndarray
    d: np.ndarray
    delta: np.ndarray
    alpha: np.ndarray
    r: np.ndarray

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class JumpRecord:
    """A detected jump: state moved from left through at, ending the
    flagged run of steps at right. left <= at <= right as sets."""

    index: int
    time: float
    left: CrackSet
    at: CrackSet
    right: CrackSet
    magnitude: float

    def __post_init__(self):
        if not (self.left.issubset(self.at) and self.at.issubset(self.right)):
            raise ValueError("jump record states must be nested")


@dataclass
class DiscreteEvolution:
    partition: TimePartition
    states: list[CrackSet]
    ledger: StepLedger

    def changing_steps(self) -> list[int]:
        return [i for i in range(1, len(self.states))
                if self.states[i].bits != self.states[i - 1].bits]


def run_scheme(instance: RisInstance, partition: TimePartition,
               k0: CrackSet) -> DiscreteEvolution:
    """Iterate the incremental minimization over the partition."""
    times = partition.times
    n = len(times)
    states = [k0]
    led = StepLedger(*(np.zeros(n) for _ in range(7)))
    t = float(times[0])
    led.energy[0] = instance.energy(t, k0)
    led.power[0] = instance.power(t, k0)
    led.power_pre[0] = led.power[0]
    led.r[0] = residual_stability(t, k0, instance).residual
    for i in range(1, n):
        t = float(times[i])
        prev = states[-1]
        nxt = incremental_step(t, prev, instance)
        states.append(nxt)
        led.energy[i] = instance.energy(t, nxt)
        led.power[i] = instance.power(t, nxt)
        led.power_pre[i] = instance.power(t, prev)
        # a step that stays put is charged +0.0 throughout, and it has
        # already run R's scan of prev at t, which prev won with
        # D(prev, prev) = 0: R is exactly 0
        if nxt.bits != prev.bits:
            charged = instance.charges(prev, nxt)
            led.d[i] = charged.d
            led.delta[i] = charged.sweep
            led.alpha[i] = charged.alpha
            led.r[i] = residual_stability(t, nxt, instance).residual
    return DiscreteEvolution(partition=partition, states=states, ledger=led)


def _median(values: np.ndarray) -> float:
    """`float(np.median(values))` for nonempty values without NaN, by
    the same IEEE operations: the middle element of the sorted values
    for an odd count, the mean (s[m-1] + s[m]) / 2 of the middle two for
    an even one. np.median reaches `numpy.ma`, a 10 ms import."""
    s = np.sort(values)
    m = s.size // 2
    return float(s[m] if s.size % 2 else (s[m - 1] + s[m]) / 2)


def detect_jumps(evolution: DiscreteEvolution, threshold: float = 10.0) -> list[JumpRecord]:
    """Flag steps whose d-cost exceeds threshold times the typical step
    cost, merging consecutive flagged steps into one record.

    A step is judged against the median d of the *other* changing steps,
    so a lone discontinuity in an otherwise frozen run still registers
    (there is nothing to call typical, and the only change is the jump).
    Steady growth flags nothing: every step sits at the shared median.
    threshold = 0 flags every changing step.
    """
    d = evolution.ledger.d
    positive = np.flatnonzero(d > 0.0)

    def typical_for(i: int) -> float:
        others = d[positive[positive != i]]
        return _median(others) if others.size else 0.0

    flagged = [int(i) for i in positive if d[i] > threshold * typical_for(int(i))]
    records = []
    run: list[int] = []
    times = evolution.partition.times

    def close(run):
        first, last = run[0], run[-1]
        records.append(JumpRecord(
            index=first, time=float(times[first]),
            left=evolution.states[first - 1],
            at=evolution.states[first],
            right=evolution.states[last],
            magnitude=float(d[first:last + 1].sum())))

    for i in flagged:
        if run and i == run[-1] + 1:
            run.append(i)
        else:
            if run:
                close(run)
            run = [i]
    if run:
        close(run)
    return records


@dataclass(frozen=True)
class ComponentBoundReport:
    """log_bound is the natural log of bound. It stays finite where
    bound, past the largest float, is inf."""

    bound: float
    log_bound: float
    counts: np.ndarray
    ok: bool
    slack: float


def component_bound_check(evolution: DiscreteEvolution,
                          instance: RisInstance) -> ComponentBoundReport:
    """Check #components(K(t)) <= h + exp(C_P T)(E_0 + 1)/rate with h
    the component count of the initial state and rate the charge per
    nucleation (lam + mu in the VE scheme, lam when energetic).

    A fast enough load puts the bound past the largest float. It then
    holds for every finite count, and log_bound keeps its size as
    C_P T + log((E_0 + 1)/rate): next to a bound that large, h is below
    the rounding of that log."""
    if instance.power_bound is None:
        raise ValueError("instance.power_bound (the constant C_P) is required")
    k0 = evolution.states[0]
    # a run's states repeat while it is frozen: count each distinct one once
    count: dict[int, int] = {}
    for k in evolution.states:
        if k.bits not in count:
            count[k.bits] = len(connected_components(k))
    h = count[k0.bits]
    e0 = float(evolution.ledger.energy[0])
    horizon = evolution.partition.horizon
    rate = instance.charges(k0, k0).rate
    growth = instance.power_bound * horizon
    try:
        bound = h + math.exp(growth) * (e0 + 1.0) / rate
    except OverflowError:
        bound = math.inf
    counts = np.array([count[k.bits] for k in evolution.states], dtype=float)
    worst = float(counts.max())
    if math.isfinite(bound):
        log_bound, ok = math.log(bound), worst <= bound
    else:
        log_bound, ok = growth + math.log((e0 + 1.0) / rate), True
    return ComponentBoundReport(bound=bound, log_bound=log_bound, counts=counts,
                                ok=ok, slack=bound - worst)


def energetic_mode(instance: RisInstance, partition: TimePartition,
                   k0: CrackSet) -> DiscreteEvolution:
    """Run the classical quasistatic scheme: the viscous correction is
    switched off (delta = 0, no sweep integral, no mu-charge), while d
    keeps charging new length and lam per nucleation. Audits of the run
    must be priced by that same non-viscous instance."""
    return run_scheme(replace(instance, viscous=False), partition, k0)


class _ScaledEnergyCache:
    """One FEM solve per distinct cracked space: with datum a(t) G the
    minimizer scales linearly in a(t), so E(t,K) = a(t)^2 E1(K) and
    dE/dt = adot(t) a(t) p1(K) with p1 the cached profile pairing.

    E1 and p1 depend on K only through the space cut along K, so the
    per-set memo is backed by a second memo keyed by the space's key,
    read off the mesh's per-vertex fan memo (`space_walk`); only a new
    space is built and solved. Many competitors share a space: an
    isolated interior edge, for one, leaves the stars of both of its
    ends connected. The memos key on bits, so a crack set of another
    mesh is refused first. Every E1 read is checked against E1_FLOOR,
    so the check scales with a(t)^2 as E does.

    `prefetch`, the scans' batch callback, is the one place the cache
    solves: it keys each crack set by `space_walk`, `pack_blocks` plans
    each new space from its walk and packs them into blocks, and
    `solve_block` solves each block as one system, bit for bit whatever
    else the block holds. A lookup of a crack set not yet filed is the
    prefetch of that one set, whose new space is a block of one. A
    space whose CG fails is stored as its NumericalError, which a lookup
    of one of its crack sets raises, so a scan that stops before such a
    candidate ends as it would have without the batch.

    `floor` is the instance's energy floor: a(t)^2 (E1(K ∪ pool) - m)
    for the competitors of K, which all lie inside K ∪ pool. A prefetch
    also solves the space of its first crack set united with the pool,
    when it is new: a run's states all lie inside k0 ∪ pool, so that is
    one space per run, which shares the block of the run's first lookup,
    E(0, k0), read before any scan."""

    def __init__(self, mesh: Mesh, load: BoundaryLoad, pool: CrackSet):
        load.check_mesh(mesh)
        if pool.mesh is not mesh:
            raise MeshError("the pool belongs to another mesh")
        self.mesh = mesh
        self.load = load
        self.pool = pool
        self.unit = load.unit()
        self._entries: dict[int, tuple[float, float]] = {}
        self._by_space: dict[int, Entry] = {}

    def _entry(self, k: CrackSet) -> tuple[float, float]:
        if k.mesh is not self.mesh:
            raise MeshError("crack set belongs to another mesh")
        got = self._entries.get(k.bits)
        if got is None:
            self.prefetch([k])
            got = self._entries.get(k.bits)
            if got is None:
                raise NumericalError(*self._by_space[space_key(self.mesh, k)].args)
        return got

    def prefetch(self, cracks: Sequence[CrackSet]) -> None:
        """Solve the new spaces of the crack sets that a scan is about to
        read, and of the first one united with the pool, and file the
        entry of each crack set whose space is then solved. Crack sets of
        another mesh are left to `energy` to refuse."""
        mesh, entries, by_space = self.mesh, self._entries, self._by_space
        if cracks and cracks[0].mesh is mesh:
            top = cracks[0].bits | self.pool.bits
            if top not in entries:
                cracks = [*cracks, CrackSet(mesh, top)]
        waiting: dict[int, list[int]] = {}
        new = []
        for k in cracks:
            if k.mesh is not mesh or k.bits in entries:
                continue
            key, walk = space_walk(mesh, k)
            got = by_space.get(key)
            if got is None:
                if key not in waiting:
                    waiting[key] = []
                    new.append(walk)
                waiting[key].append(k.bits)
            elif not isinstance(got, NumericalError):
                entries[k.bits] = got
        solved: list[Entry] = []
        for block in pack_blocks(mesh, new):
            solved += solve_block(block, self.unit)
        for (key, bits), got in zip(waiting.items(), solved):
            by_space[key] = got
            if not isinstance(got, NumericalError):
                entries.update(dict.fromkeys(bits, got))

    def energy(self, t: float, k: CrackSet) -> float:
        e1 = self._entry(k)[0]
        if e1 < E1_FLOOR:
            # E = 0.5 u.Au is nonnegative up to rounding: a broken solve
            raise NumericalError(
                f"E1 floor {E1_FLOOR!r} undercut: E1 = {float(e1)!r} "
                f"at t = {float(t)!r} on crack edges {list(k.edge_ids)}")
        a = self.load.amplitude(t)
        return a * a * e1

    def floor(self, t: float, state: CrackSet) -> float:
        """A number no larger than E(t, K) for every K with
        state <= K <= state ∪ pool: a(t)^2 (E1(state ∪ pool) - m), with
        the margin m = FLOOR_MARGIN (1 + |E1(state ∪ pool)|). The space
        cut along more edges holds that of fewer, and releases more
        Dirichlet DOFs, so its minimum is no larger; a CG iterate's
        energy only exceeds its minimum (the error vanishes on the
        constrained DOFs), and m covers the rounding of the dot
        products. a^2 x rounds monotonically in x, so E(t, K) >= the
        floor whenever E1(K) >= E1(state ∪ pool) - m. If the space of
        state ∪ pool fails to solve, the floor is a(t)^2 E1_FLOOR, which
        every read E1 is checked against."""
        try:
            top = self._entry(state.union(self.pool))[0]
            e1 = top - FLOOR_MARGIN * (1.0 + abs(top))
        except NumericalError:
            e1 = E1_FLOOR
        a = self.load.amplitude(t)
        return a * a * e1

    def power(self, t: float, k: CrackSet) -> float:
        """dE/dt along the loading. At the minimizer A u vanishes on the
        free DOFs, so it pairs only against the Dirichlet trace of the
        variation, and any extension of G gives the same value: p1 pairs
        it with the nodal profile itself."""
        a = self.load.amplitude(t)
        return self.load.amplitude.derivative(t) * a * self._entry(k)[1]


# Lower bound on every E1, the energy at unit amplitude. E1 = 0.5 u.Au
# is nonnegative up to rounding, and the most negative value a benchmark
# workload reads is -5.6e-17, so this leaves wide room while still
# catching a broken solve; E = a(t)^2 E1 is then checked at every scale.
E1_FLOOR = -1e-12
# Relative margin m / (1 + |E1|) of the floor E1(K ∪ pool) - m under the
# competitors of K. It covers the rounding of the dot products, which
# alone can lower a computed energy, and the CG error that raises the
# computed E1(K ∪ pool), 0.5 r.A^-1 r for the final residual r: on the
# benchmark workloads a dense solve of that space differs by 1.1e-15 at
# most, and the worst slack E1(K) - E1(K ∪ pool) is -5.6e-17, where E1
# is about 0.
FLOOR_MARGIN = 1e-9


def fracture_instance(mesh: Mesh, load: BoundaryLoad, params: DissipationParams,
                      pool: CrackSet, budget: int = 3, search: str = "exhaustive",
                      stability_rtol: float = 1e-9, viscous: bool = True) -> RisInstance:
    """Wire the elastic energy and the edge dissipation into an
    instance the scheme can drive; viscous=False gives the energetic
    scheme. Its energy floor, a(t)^2 (E1(K ∪ pool) - m), lets the
    competitor scans of K skip whatever D alone prices out (see
    _ScaledEnergyCache.floor), and every E1 it reads is checked against
    E1_FLOOR."""
    cache = _ScaledEnergyCache(mesh, load, pool)
    return RisInstance(
        pool=pool,
        energy=cache.energy,
        power=cache.power,
        prefetch=cache.prefetch,
        hops=price_hops,
        params=params,
        budget=budget,
        search=search,
        stability_rtol=stability_rtol,
        viscous=viscous,
        energy_floor=cache.floor,
        power_bound=power_bound_constant(load, mesh),
    )
