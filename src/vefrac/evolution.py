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
component bound, the energetic (non-viscous) comparison mode, the
refinement study over a list of step sizes, and the factory that wires
the elastic energy into a RisInstance. The factory caches one FEM solve
per distinct cracked space, known before it is built by its key (the
crack edges that split fans plus the released Dirichlet edges): the
datum scales linearly with the amplitude, so E(t,K) = a(t)^2 E1(K) and
the power is a(t) adot(t) times a cached bilinear value. Its one
dissipation callback is the `hops` of a HopPricer of the mesh, which
keeps the ATW distance rows of the new edges that hops from the most
recent source H have needed and prices each hop it is asked for, in a
ranking's batch or alone as a batch of one, bit for bit as hop_cost
does; the instance's ranking keeps a scan's prices. The energetic mode
is the same instance with its viscous flag off, charging the same
records without their sweep integral and mu term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .dissipation import DissipationParams, HopPricer
from .elastic import (
    BoundaryLoad,
    NumericalError,
    power_bound_constant,
    solve_on_space,
    space_key,
    split_along_crack,
)
from .geometry import CrackSet, Mesh, MeshError, connected_components, hausdorff
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
    "refine_study",
    "RefineReport",
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

    def state_at(self, t: float) -> CrackSet:
        """Right-continuous interpolant: the state minimized at t_i
        holds on [t_i, t_{i+1})."""
        times = self.partition.times
        i = int(np.searchsorted(times, t, side="right")) - 1
        i = min(max(i, 0), len(self.states) - 1)
        return self.states[i]

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
        return float(np.median(others)) if others.size else 0.0

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
    bound: float
    counts: np.ndarray
    ok: bool
    slack: float


def component_bound_check(evolution: DiscreteEvolution,
                          instance: RisInstance) -> ComponentBoundReport:
    """Check #components(K(t)) <= h + exp(C_P T)(E_0 + 1)/rate with h
    the component count of the initial state and rate the charge per
    nucleation (lam + mu in the VE scheme, lam when energetic)."""
    if instance.power_bound is None:
        raise ValueError("instance.power_bound (the constant C_P) is required")
    k0 = evolution.states[0]
    h = len(connected_components(k0))
    e0 = float(evolution.ledger.energy[0])
    horizon = evolution.partition.horizon
    rate = instance.charges(k0, k0).rate
    bound = h + math.exp(instance.power_bound * horizon) * (e0 + 1.0) / rate
    counts = np.array([len(connected_components(k)) for k in evolution.states],
                      dtype=float)
    worst = float(counts.max())
    return ComponentBoundReport(bound=bound, counts=counts,
                                ok=worst <= bound, slack=bound - worst)


def energetic_mode(instance: RisInstance, partition: TimePartition,
                   k0: CrackSet) -> DiscreteEvolution:
    """Run the classical quasistatic scheme: the viscous correction is
    switched off (delta = 0, no sweep integral, no mu-charge), while d
    keeps charging new length and lam per nucleation. Audits of the run
    must be priced by that same non-viscous instance."""
    return run_scheme(replace(instance, viscous=False), partition, k0)


@dataclass(frozen=True)
class RefineReport:
    """Hausdorff distances between interpolants of consecutive
    refinements, sampled on a fixed time grid. Stabilization under
    refinement is expected off the jump brackets; near a jump the
    distances legitimately stay at the jump size."""

    taus: tuple[float, ...]
    sample_times: np.ndarray
    distances: np.ndarray  # (len(taus) - 1, len(sample_times))


def refine_study(instance: RisInstance, k0: CrackSet, tau_list: Sequence[float],
                 horizon: float, n_samples: int = 11) -> RefineReport:
    taus = tuple(tau_list)
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_list must be strictly decreasing")
    samples = np.linspace(0.0, horizon, n_samples)
    runs = []
    for tau in taus:
        n_steps = max(1, math.ceil(horizon / tau))
        runs.append(run_scheme(instance, TimePartition.uniform(horizon, n_steps), k0))
    dists = np.zeros((len(taus) - 1, len(samples)))
    for r, (coarse, fine) in enumerate(zip(runs, runs[1:])):
        for c, t in enumerate(samples):
            dists[r, c] = hausdorff(coarse.state_at(t), fine.state_at(t))
    return RefineReport(taus=taus, sample_times=samples, distances=dists)


class _ScaledEnergyCache:
    """One FEM solve per distinct cracked space: with datum a(t) G the
    minimizer scales linearly in a(t), so E(t,K) = a(t)^2 E1(K) and
    dE/dt = adot(t) a(t) p1(K) with p1 the cached profile pairing.

    E1 and p1 depend on K only through the space cut along K, so a crack
    set missing from the per-set memo reads its space's key off the
    mesh's per-vertex fan memo (`space_key`) and looks it up in a
    second memo; only a new space is built and solved. Many competitors
    share a space: an isolated interior edge, for one, leaves the stars
    of both of its ends connected. The memos key on bits, so a crack set
    of another mesh is refused first."""

    def __init__(self, mesh: Mesh, load: BoundaryLoad, floor: float):
        load.check_mesh(mesh)
        self.mesh = mesh
        self.load = load
        self.floor = floor
        self.unit = load.unit()
        self._entries: dict[int, tuple[float, float]] = {}
        self._by_space: dict[int, tuple[float, float]] = {}

    def _entry(self, k: CrackSet) -> tuple[float, float]:
        if k.mesh is not self.mesh:
            raise MeshError("crack set belongs to another mesh")
        got = self._entries.get(k.bits)
        if got is None:
            key = space_key(self.mesh, k)
            got = self._by_space.get(key)
            if got is None:
                space = split_along_crack(self.mesh, k)
                sol = solve_on_space(1.0, space, self.unit)
                g = self.load.profile[space.dof_vertex]
                got = self._by_space[key] = (sol.energy, float(g @ sol.au))
            self._entries[k.bits] = got
        return got

    def energy(self, t: float, k: CrackSet) -> float:
        a = self.load.amplitude(t)
        value = a * a * self._entry(k)[0]
        if value < self.floor:
            # the scans skip competitors on the promise E >= floor
            raise NumericalError(
                f"energy floor {self.floor!r} undercut: E = {float(value)!r} "
                f"at t = {float(t)!r} on crack edges {list(k.edge_ids)}")
        return value

    def power(self, t: float, k: CrackSet) -> float:
        a = self.load.amplitude(t)
        return self.load.amplitude.derivative(t) * a * self._entry(k)[1]


# Lower bound on every elastic energy. E = 0.5 u.Au is nonnegative up to
# rounding, and the most negative value seen on any workload or test is
# -2.0e-15, so this leaves 500x room while still catching a broken solve.
ENERGY_FLOOR = -1e-12


def fracture_instance(mesh: Mesh, load: BoundaryLoad, params: DissipationParams,
                      pool: CrackSet, budget: int = 3, search: str = "exhaustive",
                      stability_rtol: float = 1e-9, viscous: bool = True) -> RisInstance:
    """Wire the elastic energy and the edge dissipation into an
    instance the scheme can drive; viscous=False gives the energetic
    scheme. Its energies are declared, and checked, to be at least
    ENERGY_FLOOR, which lets the competitor scans skip whatever D alone
    prices out."""
    cache = _ScaledEnergyCache(mesh, load, ENERGY_FLOOR)
    pricer = HopPricer(mesh, params)
    return RisInstance(
        pool=pool,
        energy=cache.energy,
        power=cache.power,
        hops=pricer.hops,
        params=params,
        budget=budget,
        search=search,
        stability_rtol=stability_rtol,
        viscous=viscous,
        energy_floor=ENERGY_FLOOR,
        power_bound=power_bound_constant(load, mesh),
        load=load,
    )
