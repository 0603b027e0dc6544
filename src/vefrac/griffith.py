"""Crack-tip tracking and checks of the Griffith growth criterion.

In a window where a run grows continuously along declared edge paths,
the crack state reduces to one arclength per tip, sigma_i(t). With the
toughness normalized to one, a quasistatic tip obeys three pointwise
conditions: it never recedes, its stress intensity factor stays at or
below the threshold, and the factor sits exactly at the threshold
whenever the tip actually moves. Both the tracking and the checks work
on sampled runs, so every derivative is a difference quotient and every
tolerance carries the mesh size and the step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elastic import energy_release, fit_sif, solve_energy
from .geometry import Mesh


class GriffithError(Exception):
    """A tip path is malformed, or a run violates the declared tip
    structure."""


# ---------------------------------------------------------------------------
# tip paths and arclength tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TipPath:
    """An ordered simple chain of mesh edges a tip is expected to
    follow. vertices[k] is the tip position after k edges have grown,
    and sigma_grid[k] the matching cumulative arclength."""

    mesh: Mesh
    edge_ids: tuple[int, ...]
    vertices: tuple[int, ...]
    sigma_grid: np.ndarray

    @classmethod
    def along(cls, mesh: Mesh, edge_ids: Sequence[int],
              start: int | None = None) -> "TipPath":
        """Build a path from ordered edge ids. The start vertex (the
        end anchored on the existing crack) is inferred from the first
        two edges; a single-edge path needs it spelled out."""
        ids = [int(e) for e in edge_ids]
        if not ids:
            raise GriffithError("a tip path needs at least one edge")
        if len(set(ids)) != len(ids):
            raise GriffithError("tip path repeats an edge")
        for e in ids:
            if not 0 <= e < mesh.n_edges:
                raise GriffithError(f"edge id {e} is out of range")
        pairs = [tuple(map(int, mesh.edges[e])) for e in ids]
        if start is None:
            if len(ids) == 1:
                raise GriffithError(
                    "a single-edge path needs an explicit start vertex")
            shared = set(pairs[0]) & set(pairs[1])
            if len(shared) != 1:
                raise GriffithError(
                    "consecutive path edges must share exactly one vertex")
            start = (set(pairs[0]) - shared).pop()
        else:
            start = int(start)
            if start not in pairs[0]:
                raise GriffithError("start vertex is not on the first edge")
        chain = [start]
        cur = start
        for a, b in pairs:
            if cur == a:
                cur = b
            elif cur == b:
                cur = a
            else:
                raise GriffithError("path edges do not form a chain")
            chain.append(cur)
        if len(set(chain)) != len(chain):
            raise GriffithError("tip path visits a vertex twice")
        lengths = mesh.edge_lengths[np.array(ids, dtype=int)]
        grid = np.concatenate([[0.0], np.cumsum(lengths)])
        return cls(mesh=mesh, edge_ids=tuple(ids), vertices=tuple(chain),
                   sigma_grid=grid)

    def __len__(self) -> int:
        return len(self.edge_ids)

    def point(self, k: int) -> np.ndarray:
        """Coordinates of the tip after k edges."""
        return self.mesh.vertices[self.vertices[k]].copy()

    def heading(self, k: int) -> np.ndarray:
        """Unit vector the tip at position k is about to move along;
        past the last vertex, the final edge's direction."""
        j = min(k, len(self.edge_ids) - 1)
        a = self.mesh.vertices[self.vertices[j]]
        b = self.mesh.vertices[self.vertices[j + 1]]
        v = b - a
        return v / float(np.linalg.norm(v))


def _prefix_counts(evolution, paths: Sequence[TipPath]) -> np.ndarray:
    """How many edges of each path the crack covers at each time, with
    full validation of the declared structure."""
    k0 = evolution.states[0]
    mesh = k0.mesh
    k0_vertices = set(k0.vertex_ids())
    for i, p in enumerate(paths):
        if p.mesh is not mesh:
            raise GriffithError("tip path lives on a different mesh")
        if p.vertices[0] not in k0_vertices:
            raise GriffithError(
                f"tip path {i} must start on the initial crack")
        if any(v in k0_vertices for v in p.vertices[1:]):
            raise GriffithError(
                f"tip path {i} re-enters the initial crack")
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if set(paths[i].vertices) & set(paths[j].vertices):
                raise GriffithError(f"tip paths {i} and {j} intersect")

    k0_ids = set(k0.edge_ids)
    counts = np.zeros((len(paths), len(evolution.states)), dtype=int)
    for j, state in enumerate(evolution.states):
        grown = set(state.edge_ids) - k0_ids
        covered: set[int] = set()
        for i, p in enumerate(paths):
            k = 0
            while k < len(p.edge_ids) and p.edge_ids[k] in state:
                k += 1
            if any(e in state for e in p.edge_ids[k:]):
                raise GriffithError(
                    f"crack on tip path {i} is not a contiguous prefix "
                    f"at step {j}")
            counts[i, j] = k
            covered.update(p.edge_ids[:k])
        if covered != grown:
            raise GriffithError(
                f"crack growth leaves the declared tip paths at step {j}")
    return counts


def track_tips(evolution, paths: Sequence[TipPath]) -> np.ndarray:
    """Arclength of the crack along each declared path at every
    partition time, shape (n_tips, n_times). Nondecreasing row-wise
    because runs are irreversible. Growth anywhere off the paths, or a
    non-prefix occupation of a path, raises GriffithError."""
    return _arclengths(paths, _prefix_counts(evolution, paths))


def _arclengths(paths: Sequence[TipPath], counts: np.ndarray) -> np.ndarray:
    """Each path's cumulative arclength at its prefix counts, row by row."""
    return np.array([[float(p.sigma_grid[k]) for k in row]
                     for p, row in zip(paths, counts)])


# ---------------------------------------------------------------------------
# the sampled report and the criterion checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GriffithReport:
    """Per-tip samples on the run's own time grid. sigmadot holds
    forward difference quotients (zero at the final sample), kappa2 the
    squared intensity factor, and the toughness is one throughout."""

    times: np.ndarray
    sigma: np.ndarray      # (n_tips, n_times)
    sigmadot: np.ndarray   # (n_tips, n_times)
    kappa2: np.ndarray     # (n_tips, n_times)
    length_scale: float    # mean mesh edge length
    tau: float             # largest partition step

    @property
    def n_tips(self) -> int:
        return self.sigma.shape[0]

    @property
    def slack(self) -> np.ndarray:
        return 1.0 - self.kappa2

    @property
    def complementarity(self) -> np.ndarray:
        return self.slack * self.sigmadot

    def rows(self):
        """Samples in time-major order, one row per (time, tip):
        (t, tip, sigma, sigmadot, kappa2, slack, compl)."""
        slack = self.slack
        compl = self.complementarity
        for j, t in enumerate(self.times):
            for i in range(self.n_tips):
                yield (float(t), i, float(self.sigma[i, j]),
                       float(self.sigmadot[i, j]), float(self.kappa2[i, j]),
                       float(slack[i, j]), float(compl[i, j]))


def griffith_report(evolution, load, paths: Sequence[TipPath],
                    estimator: str = "sif", h_steps: int = 3) -> GriffithReport:
    """Assemble the sampled Griffith data for a run.

    kappa2 comes either from the annulus fit of the displacement field
    at each tip ("sif") or from the energy slope along the remaining
    path edges ("release"); both scale with the load amplitude squared,
    so one solve per distinct crack state under load.unit() suffices.
    """
    if estimator not in ("sif", "release"):
        raise ValueError(f"unknown estimator {estimator!r}")
    counts = _prefix_counts(evolution, paths)
    times = np.asarray(evolution.partition.times, dtype=float)
    sigma = _arclengths(paths, counts)
    sigmadot = np.zeros_like(sigma)
    dt = np.diff(times)
    sigmadot[:, :-1] = np.diff(sigma, axis=1) / dt

    mesh = evolution.states[0].mesh
    unit = load.unit()
    unit_kappa2: dict[int, np.ndarray] = {}
    for j, state in enumerate(evolution.states):
        if state.bits in unit_kappa2:
            continue
        per_tip = np.empty(len(paths))
        solution = solve_energy(1.0, state, unit) if estimator == "sif" else None
        for i, p in enumerate(paths):
            k = int(counts[i, j])
            if estimator == "sif":
                kappa = fit_sif(solution, p.point(k), p.heading(k))
                per_tip[i] = kappa * kappa
            else:
                remaining = list(p.edge_ids[k:])
                if not remaining:
                    raise GriffithError(
                        f"tip {i} exhausts its declared path inside the "
                        "window; extend the path or shorten the window")
                per_tip[i] = energy_release(
                    1.0, state, unit, remaining,
                    h_steps=min(h_steps, len(remaining)))
        unit_kappa2[state.bits] = per_tip

    amp = np.array([load.amplitude(float(t)) for t in times])
    kappa2 = np.empty_like(sigma)
    for j, state in enumerate(evolution.states):
        kappa2[:, j] = (amp[j] * amp[j]) * unit_kappa2[state.bits]

    return GriffithReport(
        times=times.copy(), sigma=sigma, sigmadot=sigmadot, kappa2=kappa2,
        length_scale=float(np.mean(mesh.edge_lengths)),
        tau=float(dt.max()))


@dataclass(frozen=True)
class KktCheck:
    """Pass/fail per condition, with the worst sampled value of each.

    rate: tips never recede. threshold: kappa2 stays at or below one.
    complementarity: the product (1 - kappa2) * sigmadot vanishes, so a
    moving tip is exactly at threshold."""

    tol: float
    rate_ok: bool
    threshold_ok: bool
    complementarity_ok: bool
    worst_rate: float
    worst_slack: float
    worst_complementarity: float

    @property
    def passed(self) -> bool:
        return self.rate_ok and self.threshold_ok and self.complementarity_ok


def check_kkt(report: GriffithReport, tol: float | None = None) -> KktCheck:
    """Check the three sampled growth conditions against a tolerance.

    The default tolerance is length_scale + tau: the mesh blurs the
    threshold by one cell and the partition blurs rates by one step, so
    nothing sharper is observable on a sampled run.
    """
    if tol is None:
        tol = report.length_scale + report.tau
    worst_rate = float(report.sigmadot.min())
    worst_slack = float(report.slack.min())
    worst_compl = float(np.abs(report.complementarity).max())
    return KktCheck(
        tol=float(tol),
        rate_ok=worst_rate >= -tol,
        threshold_ok=worst_slack >= -tol,
        complementarity_ok=worst_compl <= tol,
        worst_rate=worst_rate,
        worst_slack=worst_slack,
        worst_complementarity=worst_compl)
