"""The scans' energy floor of (t, state) against scans with no floor.

The fracture instance declares floor(t, K) = a(t)^2 (E1(K ∪ pool) - m):
cutting more edges never raises the elastic energy, and every competitor
of K lies inside K ∪ pool. A scan stops at the first candidate whose D
plus the floor exceeds the best value, so it must give the minimum, the
winners, R and the examined count of `reference_scan` and the step of
`reference_step`, which evaluate every candidate. A read energy below
its floor raises NumericalError, and the CLI then exits 2.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vefrac.evolution as evolution
from vefrac.benchmarks import ramp_load, rect_grid_mesh
from vefrac.cli_io import _run_to_archive, cli_dispatch
from vefrac.dissipation import DissipationParams, HopCost
from vefrac.elastic import NumericalError
from vefrac.evolution import FLOOR_MARGIN, fracture_instance
from vefrac.geometry import CrackSet, build_mesh
from vefrac.ve_core import RisInstance, _scan, incremental_step, residual_stability

import _oracles as oracle
from test_elastic import _two_squares_at_a_corner
from test_evolution import _workload_run
from test_ve_core import assert_same_scan

PARAMS = DissipationParams(lam=0.1, mu=0.05)

# the Dirichlet sides of a unit rectangle: (axis, coordinate) of each
SIDES = {"bottom": (1, 0.0), "top": (1, 1.0), "left": (0, 0.0), "right": (0, 1.0)}


@functools.lru_cache(maxsize=None)
def sided_grid(nx: int, ny: int, sides: tuple[str, ...]):
    """rect_grid_mesh(nx, ny) with the Dirichlet part on the given sides."""
    base = rect_grid_mesh(nx, ny)
    lines = [SIDES[side] for side in sides]

    def marker(pa, pb):
        return any(pa[axis] == pb[axis] == at for axis, at in lines)

    return build_mesh(base.vertices, base.triangles.tolist(), marker)


@functools.lru_cache(maxsize=None)
def pinched():
    return _two_squares_at_a_corner()


@st.composite
def floored_cases(draw):
    """A fracture instance on a small grid with random Dirichlet sides,
    or on the pinched mesh, with a pool that may hold Dirichlet edges and
    a grid line (so that steps can move: a lone interior edge leaves the
    space as it is), a state made of a precrack and pool edges, and a
    time."""
    if draw(st.integers(0, 5)) == 0:
        mesh = pinched()
    else:
        sides = draw(st.lists(st.sampled_from(sorted(SIDES)), min_size=1, max_size=4,
                              unique=True))
        mesh = sided_grid(draw(st.integers(1, 5)), draw(st.integers(1, 5)), tuple(sorted(sides)))
    edges = st.integers(0, mesh.n_edges - 1)
    picked = draw(st.lists(edges, min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        y = mesh.vertices[:, 1][mesh.edges]
        at = draw(st.sampled_from(sorted(set(y.ravel().tolist()))))
        picked += np.flatnonzero((y[:, 0] == at) & (y[:, 1] == at)).tolist()
    pool = CrackSet.of_edges(mesh, picked)
    precrack = draw(st.lists(edges, max_size=3, unique=True))
    cracked = draw(st.lists(st.sampled_from(pool.edge_ids), max_size=2, unique=True))
    state = CrackSet.of_edges(mesh, precrack + cracked)
    load = ramp_load(mesh, c1=draw(st.sampled_from([0.5, 1.0, 3.0])))
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=draw(st.integers(1, 3)),
                             search=draw(st.sampled_from(["exhaustive", "greedy"])),
                             viscous=draw(st.booleans()))
    t = draw(st.sampled_from([0.0, 0.5, 4.0, 16.0]))
    return inst, state, t


@pytest.mark.blas_rounding
@settings(max_examples=100, deadline=None, derandomize=True)
@given(floored_cases())
def test_floored_scans_and_steps_match_the_reference(case):
    # R's scan of the state, a greedy rescan from it, R and the step,
    # floored, against the reference scan and step, which read no floor
    inst, state, t = case
    plain = replace(inst, energy_floor=lambda t, k: -math.inf)
    expected = oracle.reference_scan(t, state, inst.competitors(state), plain)
    assert_same_scan(_scan(t, inst.ranking(state, state), inst), expected)
    report = residual_stability(t, state, inst)
    assert report.residual == expected[3] - expected[0]
    assert [m.bits for m in report.minimizers] == [w.bits for w in expected[1]]
    assert report.examined == expected[2]
    free = inst.pool.minus(state).edge_ids
    if free:
        later = state.with_edges(free[:1])
        assert_same_scan(_scan(t, inst.ranking(state, later), inst),
                         oracle.reference_scan(t, state, inst.competitors(later), plain))
    step = incremental_step(t, state, inst)
    assert step.bits == oracle.reference_step(t, state, plain).bits
    # the step's charges, filed by its scan from the ranking's call, are
    # those of the hop priced alone
    assert inst.charges(state, step) == plain.charges(state, step)


@pytest.mark.blas_rounding
@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_every_crack_set_a_run_reads_stays_above_its_floor(workload, tmp_path,
                                                          bench_workloads):
    # E1(K) >= E1(K ∪ pool) - m on every crack set a benchmark run files,
    # and the floors of all of them read the one space of k0 ∪ pool
    ctx = _workload_run(bench_workloads, workload, tmp_path)
    _run_to_archive(ctx, tmp_path / "out")
    cache = ctx.instance.energy.__self__
    pool = ctx.pool.bits
    top = ctx.k0.bits | pool
    assert {bits | pool for bits in cache._entries} == {top}
    e1_top = cache._entries[top][0]
    margin = FLOOR_MARGIN * (1.0 + abs(e1_top))
    assert min(e1 for e1, _ in cache._entries.values()) >= e1_top - margin


def test_a_floor_above_one_competitor_raises_where_it_is_read(rect9):
    # the floor 1 overstates the energy of {1} alone: the scan raises when
    # it reads it, and a floor at that energy scans as the reference
    weight = {0: 2.0, 1: 1.0, 2: 4.0}

    def hop(h, k):
        if not h.issubset(k):
            return None
        return HopCost(h1=sum(weight[e] for e in k.minus(h).edge_ids), sweep=0.0, alpha=0.0)

    table = {0b000: 5.0, 0b001: 1.0, 0b010: 0.5, 0b100: 2.0}
    inst = RisInstance(pool=CrackSet.of_edges(rect9, [0, 1, 2]),
                       energy=lambda t, k: table[k.bits], power=lambda t, k: 0.0,
                       hops=oracle.per_hop(hop), params=PARAMS, budget=1,
                       energy_floor=lambda t, k: 1.0)
    empty = CrackSet.empty(rect9)
    with pytest.raises(NumericalError, match=r"^energy floor 1\.0 undercut: E = 0\.5 "
                                             r"at t = 0\.0 on crack edges \[1\]$"):
        residual_stability(0.0, empty, inst)
    exact = replace(inst, energy_floor=lambda t, k: 0.5)
    expected = oracle.reference_scan(0.0, empty, inst.competitors(empty), inst)
    assert_same_scan(_scan(0.0, exact.ranking(empty, empty), exact), expected)


@pytest.mark.blas_rounding
def test_cli_exits_2_when_the_floor_overstates_an_energy(tmp_path, monkeypatch,
                                                        bench_workloads, capsys):
    # a negative margin lifts the strip's floor above the energies of
    # the competitors it bounds; at a(0) = 0 both are 0, so the first
    # scan past t = 0 reads an energy below its floor
    monkeypatch.setattr(evolution, "FLOOR_MARGIN", -1.0)
    config = bench_workloads.generate("strip", tmp_path, 1).config
    assert cli_dispatch(["run", str(config)]) == 2
    assert re.fullmatch(r"numerical failure: energy floor \S+ undercut: E = \S+ "
                        r"at t = 0\.0666\d* on crack edges \[196, 199\]\n",
                        capsys.readouterr().out)


def test_jumpcost_prices_a_fast_load(tmp_path, bench_workloads, capsys):
    # E1 of the grid's [26, 31, 45, 48] is about -5.6e-17, rounding: the
    # cache checks E1, not E = a(t)^2 E1, so t = 500 prices like t = 100
    config = bench_workloads.generate("grid", tmp_path, 1).config
    assert cli_dispatch(["run", str(config)]) == 0
    archive = str(config.parent / "out" / "archive.json")
    for t in ("100", "500"):
        capsys.readouterr()
        assert cli_dispatch(["jumpcost", archive, "--time", t, "--left", "26,31",
                             "--right", "26,31,45,48"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"jump cost at t={t}: ")
        assert "chain: {26,31} -> {26,31,45,48}\n" in out
