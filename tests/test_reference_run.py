"""Whole runs of the scheme against `reference_run`.

`_oracles.reference_run` rebuilds run_scheme from the reference pieces:
energies from a scipy solve of each reference space, hops priced one at
a time by `reference_hop_cost`, steps by `reference_step` and R by
`reference_scan` over every competitor, with no floor. On small grids
with random Dirichlet sides, pools and precracks, the fracture
instance's run must give the same states and the same ledger, row by
row and bit for bit: its scans rank in batches, read energies in chunks
of block solves, stop at the floor and key spaces from per-edge masks,
and none of that may change a float. The block solves' dot products are
BLAS calls, so these tests carry the blas_rounding marker.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vefrac.benchmarks import ramp_load
from vefrac.dissipation import DissipationParams
from vefrac.elastic import BoundaryLoad, TableAmplitude
from vefrac.evolution import TimePartition, energetic_mode, fracture_instance, run_scheme
from vefrac.geometry import CrackSet

import _oracles as oracle
from test_energy_floor import SIDES, sided_grid

pytestmark = pytest.mark.blas_rounding

PARAMS = DissipationParams(lam=0.1, mu=0.05)
FIELDS = ("energy", "power", "power_pre", "d", "delta", "alpha", "r")


def assert_same_run(mesh, load, pool, k0, partition, budget, search, viscous) -> bool:
    """The scheme's run and reference_run agree state by state and ledger
    row by ledger row, bit for bit; returns whether the crack moved."""
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=budget, search=search)
    evo = (run_scheme if viscous else energetic_mode)(inst, partition, k0)
    states, rows = oracle.reference_run(mesh, load, PARAMS, pool, k0, partition.times,
                                        budget, search, viscous)
    assert [k.bits for k in evo.states] == [k.bits for k in states]
    ledger = np.column_stack([getattr(evo.ledger, name) for name in FIELDS])
    for i, row in enumerate(rows):
        assert ledger[i].tobytes() == np.array(row, dtype=float).tobytes(), (i, ledger[i], row)
    return evo.states[-1].bits != k0.bits


@st.composite
def run_cases(draw):
    """A grid of up to 4x4 cells with random Dirichlet sides, a pool of
    up to 10 edges, a precrack of up to 3, a linear or a table load, a
    partition of 2 to 4 steps, budget 1 or 2, both search modes, and the
    viscous or the energetic scheme."""
    sides = draw(st.lists(st.sampled_from(sorted(SIDES)), min_size=1, max_size=4, unique=True))
    mesh = sided_grid(draw(st.integers(1, 4)), draw(st.integers(1, 4)), tuple(sorted(sides)))
    edges = st.integers(0, mesh.n_edges - 1)
    pool = CrackSet.of_edges(mesh, draw(st.lists(edges, min_size=1, max_size=10, unique=True)))
    k0 = CrackSet.of_edges(mesh, draw(st.lists(edges, max_size=3, unique=True)))
    horizon = draw(st.sampled_from([1.0, 3.0]))
    load = ramp_load(mesh, horizon=horizon, c1=draw(st.sampled_from([1.0, 6.0, 20.0])))
    if draw(st.booleans()):
        peak = draw(st.sampled_from([3.0, 15.0, 40.0]))
        load = BoundaryLoad(profile=load.profile, horizon=horizon,
                            amplitude=TableAmplitude([0.0, horizon / 3, horizon],
                                                     [0.0, peak, peak / 2]))
    partition = TimePartition.uniform(horizon, draw(st.integers(2, 4)))
    return (mesh, load, pool, k0, partition, draw(st.integers(1, 2)),
            draw(st.sampled_from(["exhaustive", "greedy"])), draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run_cases())
def test_runs_match_the_reference_run(case):
    assert_same_run(*case)


@pytest.mark.parametrize("search", ["exhaustive", "greedy"])
@pytest.mark.parametrize("viscous", [True, False])
def test_a_growing_run_matches_the_reference_run(search, viscous):
    # a 4x4 grid gripped at top and bottom under a steep ramp: the crack
    # grows along a pool across the middle and beside it
    mesh = sided_grid(4, 4, ("bottom", "top"))
    y = mesh.vertices[:, 1][mesh.edges]
    middle = np.flatnonzero((y[:, 0] == 0.5) & (y[:, 1] == 0.5)).tolist()
    pool = CrackSet.of_edges(mesh, middle + [0, 9, 17])
    k0 = CrackSet.of_edges(mesh, middle[:1])
    load = ramp_load(mesh, horizon=2.0, c1=6.0)
    assert assert_same_run(mesh, load, pool, k0, TimePartition.uniform(2.0, 4), 2, search, viscous)
