"""Batch pricing of a ranking against the per-hop reference.

dissipation.price_hops prices every candidate of a ranking in one call,
whatever their widths, and ve_core._rank ranks the candidates by the D
it charges. Both must equal, bit for bit, the reference pricing of each
hop alone (`reference_hop_cost`) and the per-candidate ranking loop
(`reference_rank`), run on an instance whose `hops` prices each hop
alone (`per_hop`).
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vefrac.dissipation as dissipation
from vefrac.benchmarks import ramp_load, rect_grid_mesh, square_grid_mesh
from vefrac.dissipation import DissipationParams, HopCost, price_hops, single_hop
from vefrac.evolution import TimePartition, fracture_instance, run_scheme
from vefrac.geometry import CrackSet
from vefrac.ve_core import MAX_COMPETITORS, RisInstance, jump_cost, residual_stability

import _oracles as oracle

pytestmark = pytest.mark.blas_rounding

PARAMS = DissipationParams(lam=0.1, mu=0.05)


@functools.lru_cache(maxsize=None)
def grid(nx: int, ny: int):
    return rect_grid_mesh(nx, ny, width=float(nx), height=float(ny))


def zero(t, k):
    return 0.0


def batch_instance(pool, **kw):
    """An instance whose rankings are priced in batches by price_hops."""
    return RisInstance(pool=pool, energy=zero, power=zero, hops=price_hops,
                       params=PARAMS, **kw)


def reference_ranking(inst, source, state):
    """The competitors of `state` ranked by the per-candidate loop, each
    hop priced by the reference pricing alone."""
    reference = replace(inst, hops=oracle.per_hop(
        lambda h, k: oracle.reference_hop_cost(h, k)))
    return oracle.reference_rank(source, reference.competitors(state), reference)


def hex_list(values):
    return [float.hex(x) for x in values]


def new_edge_groups(source, candidates):
    """The edges each candidate adds to source, one (N, m) array per m."""
    groups = {}
    for k in candidates:
        new = k.minus(source).edge_ids
        groups.setdefault(len(new), []).append(new)
    return {m: np.array(rows, dtype=np.intp).reshape(len(rows), m)
            for m, rows in groups.items()}


def assert_batch_is_reference(source, new, viscous):
    """Every entry of a batch equals the reference record of its hop
    alone, and so does the D that HopCost.charges makes of it."""
    priced = price_hops(source, new)
    assert all(isinstance(x, np.ndarray) and x.shape == (len(new),)
               for x in (priced.h1, priced.sweep, priced.alpha))
    big_d = priced.charges(PARAMS, viscous).big_d.tolist()
    for i, row in enumerate(new):
        expected = oracle.reference_hop_cost(source, source.with_edges(row))
        assert (priced.h1[i], priced.sweep[i], priced.alpha[i]) == \
            (expected.h1, expected.sweep, expected.alpha)
        assert float.hex(big_d[i]) == float.hex(expected.charges(PARAMS, viscous).big_d)
    return priced


def assert_same_ranking(ranking, reference):
    assert hex_list(ranking.d.tolist()) == hex_list(reference.big_d)
    assert [ranking.crack(i).bits for i in range(len(ranking.d))] == \
        [k.bits for _, k in reference]
    # the reference loop examined every candidate, and priced each one
    assert len(ranking.d) == reference.examined


@st.composite
def ranking_cases(draw):
    """A small grid, a source H (possibly empty), a pool, the state whose
    competitors are ranked (H itself, or H plus up to two pool edges, as
    greedy rescans rank), a budget of 0 to 3 and both search modes."""
    mesh = grid(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    edges = st.integers(0, mesh.n_edges - 1)
    source = CrackSet.of_edges(mesh, draw(st.sets(edges, max_size=4)))
    pool = CrackSet.of_edges(mesh, draw(st.sets(edges, max_size=9)))
    free = pool.minus(source).edge_ids
    extra = draw(st.sets(st.sampled_from(free), max_size=2)) if free else set()
    state = source.with_edges(extra)
    return (mesh, source, pool, state, draw(st.integers(0, 3)),
            draw(st.sampled_from(["exhaustive", "greedy"])), draw(st.booleans()))


@given(case=ranking_cases())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_batch_ranking_is_the_reference_loop(case):
    mesh, source, pool, state, budget, search, viscous = case
    inst = batch_instance(pool, budget=budget, search=search, viscous=viscous)
    assert_same_ranking(inst.ranking(source, state),
                        reference_ranking(inst, source, state))
    # every candidate's record, in batches as large as the ranking's, of
    # one hop, and of chunks of one and three hops, with rows measured
    # one edge at a time: the same bits whatever the batch
    groups = new_edge_groups(source, inst.competitors(state))
    for m, new in groups.items():
        whole = assert_batch_is_reference(source, new, viscous)
        for chunk, pairs in ((1, 1), (3, 1 << 11)):
            with mock.patch.object(dissipation, "HOP_CHUNK", chunk), \
                    mock.patch.object(dissipation, "_FILL_PAIRS", pairs):
                part = price_hops(source, new)
            for name in ("h1", "sweep", "alpha"):
                assert getattr(part, name).tobytes() == getattr(whole, name).tobytes()


def test_batches_cover_every_way_new_edges_meet_h():
    # H has two components on the bottom row of a 3x3 grid: (0,1) and
    # (2,3). All hops adding one, two or three free edges, in one batch
    # per size
    mesh = square_grid_mesh(3)
    h = CrackSet.of_vertex_pairs(mesh, [(0, 1), (2, 3)])
    free = CrackSet(mesh, (1 << mesh.n_edges) - 1).minus(h).edge_ids
    touching = np.isin(mesh.edges, list(h.vertex_ids())).any(axis=1)
    seen = set()
    for m in (1, 2, 3):
        new = np.array(list(itertools.combinations(free, m)), dtype=np.intp)
        priced = assert_batch_is_reference(h, new, viscous=True)
        for row, count in zip(new.tolist(), priced.alpha.tolist()):
            shared = len(set(mesh.edges[row].ravel().tolist())) < 2 * m
            seen.add((m, shared, int(touching[row].sum()), count))
    bridge = CrackSet.of_vertex_pairs(mesh, [(1, 2)]).edge_ids[0]
    assert price_hops(h, np.array([[bridge]])).alpha.tolist() == [0.0]
    # one edge touching H or apart; two sharing a vertex, neither, one
    # or both touching H; two apart, each touching H or not
    assert {(1, False, 1, 0.0), (1, False, 0, 1.0),
            (2, True, 0, 1.0), (2, True, 1, 0.0), (2, True, 2, 0.0),
            (2, False, 0, 2.0), (2, False, 1, 1.0), (2, False, 2, 0.0)} <= seen
    assert {count for m, *_, count in seen if m == 3} == {0.0, 1.0, 2.0, 3.0}


@pytest.mark.parametrize("source_edges", [(), (0, 4, 9)], ids=["empty", "three"])
def test_a_ragged_batch_prices_each_width_as_its_own_block(source_edges):
    # one call whose hops add 0 to 3 edges, the widths interleaved in
    # shuffled order and each width spanning more than one HOP_CHUNK:
    # every entry is the reference record of its hop alone, and has the
    # bits of pricing the same hops in one (N, m) array per width
    mesh = square_grid_mesh(3)
    source = CrackSet.of_edges(mesh, source_edges)
    free = CrackSet(mesh, (1 << mesh.n_edges) - 1).minus(source).edge_ids
    rng = random.Random(3)
    new = [tuple(sorted(rng.sample(free, m)))
           for m in range(4) for _ in range(dissipation.HOP_CHUNK + 5)]
    rng.shuffle(new)
    widths = [len(edges) for edges in new]
    assert widths != sorted(widths)
    for viscous in (True, False):
        priced = assert_batch_is_reference(source, new, viscous)
    for m in range(4):
        at = [i for i, width in enumerate(widths) if width == m]
        block = price_hops(source, np.array([new[i] for i in at], dtype=np.intp))
        for name in ("h1", "sweep", "alpha"):
            assert getattr(block, name).tobytes() == getattr(priced, name)[at].tobytes()


def test_a_batch_of_none_and_an_empty_source():
    mesh = square_grid_mesh(3)
    empty = CrackSet.empty(mesh)
    h = CrackSet.of_edges(mesh, [0, 4, 9])
    singles = np.array([[e] for e in range(mesh.n_edges) if e not in h], dtype=np.intp)
    for source in (empty, h):
        for n, m in ((0, 0), (0, 1), (0, 2), (0, 3), (2, 0)):
            priced = price_hops(source, np.zeros((n, m), dtype=np.intp))
            for x in (priced.h1, priced.sweep, priced.alpha):
                assert x.shape == (n,) and x.tolist() == [0.0] * n
        assert_batch_is_reference(source, singles, viscous=True)
    # from the empty set the sweep is the diameter times the new length
    assert price_hops(empty, singles).sweep.tolist() == \
        [mesh.domain_diameter * mesh.edge_lengths[e] for e in singles[:, 0].tolist()]


@pytest.mark.parametrize("search", ["exhaustive", "greedy"])
def test_batch_ranking_keeps_the_loop_order_of_exact_ties(search):
    # on a square grid from the empty crack, every edge of one length and
    # every pair of one shape costs the same D: the stable sort keeps
    # those ties in competitors() order, as the loop's stable sort does
    mesh = square_grid_mesh(4, dirichlet="topbottom")
    interior = [e for e in range(mesh.n_edges) if e not in set(mesh.dirichlet_edges())]
    pool = CrackSet.of_edges(mesh, interior)
    inst = batch_instance(pool, budget=2, search=search)
    empty = CrackSet.empty(mesh)
    h = CrackSet.of_edges(mesh, interior[3:5])
    for source, state in ((empty, empty), (empty, CrackSet.of_edges(mesh, interior[:1])),
                          (h, h)):
        ranking = inst.ranking(source, state)
        assert_same_ranking(ranking, reference_ranking(inst, source, state))
        if source == empty:
            assert (ranking.d[1:] == ranking.d[:-1]).any()


class ZeroScaled:
    """E = 0 declared as scaled energies: scale 1, every E1 0."""

    def scale(self, t):
        return 1.0

    def unit_energies(self, state, added):
        return [0.0] * len(added)


def test_a_scan_builds_crack_sets_only_for_its_winners(monkeypatch):
    # a ranking holds its candidates as the edges each adds; a scan of
    # declared scaled energies reads them as arrays and builds a
    # CrackSet for each winner alone; crack(i) builds candidate i, in
    # ranked order
    import vefrac.ve_core as ve_core

    mesh = square_grid_mesh(3)
    pool = CrackSet(mesh, (1 << mesh.n_edges) - 1)
    inst = batch_instance(pool, budget=2, scaled=ZeroScaled())
    empty = CrackSet.empty(mesh)
    built = []

    def crack_set(mesh, bits):
        built.append(bits)
        return CrackSet(mesh, bits)

    monkeypatch.setattr(ve_core, "CrackSet", crack_set)
    ranking = inst.ranking(empty, empty)
    built.clear()
    report = residual_stability(0.5, empty, inst)
    assert report.minimizers == (empty,) and report.examined == len(ranking.d) > 1
    assert built == [empty.bits]
    first = [ranking.crack(i) for i in range(3)]
    assert ranking.d[0] == 0.0 and first[0] == empty and len(built) == 4


def test_batch_ranking_refuses_what_the_loop_refuses():
    mesh = square_grid_mesh(3)
    pool = CrackSet(mesh, (1 << mesh.n_edges) - 1)
    inst = batch_instance(pool, budget=6)
    state = CrackSet.empty(mesh)
    messages = []
    for enumerate_ in (lambda: inst.ranking(state, state),
                       lambda: next(iter(inst.competitors(state))),
                       lambda: next(iter(oracle.reference_competitors(inst, state)))):
        with pytest.raises(ValueError, match=f"exceeds {MAX_COMPETITORS}") as exc:
            enumerate_()
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == messages[2]


def test_a_ranking_refuses_a_source_outside_its_state():
    # every competitor of such a state would cost +infinity; no scan of
    # the scheme asks for one, since a greedy rescan's state contains
    # the step's start. A refused ranking prices nothing and keeps the
    # memo of the last one
    mesh = square_grid_mesh(3)
    pool = CrackSet.of_edges(mesh, range(8))
    priced = []

    def hops(h, new):
        priced.append(len(new))
        return price_hops(h, new)

    inst = RisInstance(pool=pool, energy=zero, power=zero, hops=hops, params=PARAMS,
                       budget=2)
    source, state = CrackSet.of_edges(mesh, [1]), CrackSet.of_edges(mesh, [2])
    kept = inst.ranking(state, state)
    priced.clear()
    for h, k in ((source, state), (source, CrackSet.empty(mesh)),
                 (state, CrackSet.of_edges(mesh, [1, 3]))):
        with pytest.raises(ValueError, match="source must lie inside its state"):
            inst.ranking(h, k)
    assert priced == [] and inst._ranked is kept
    assert inst.ranking(source, source.union(state)).d.size


def test_reports_and_ledgers_hold_python_floats():
    # no np.float64 from the batch reaches a scan's report, a jump cost
    # or its per-hop ledger
    mesh = rect_grid_mesh(3, 3, dirichlet="topbottom")
    interior = sorted(set(range(mesh.n_edges)) - set(map(int, mesh.dirichlet_edges())))
    pool = CrackSet.of_edges(mesh, interior)
    inst = fracture_instance(mesh, ramp_load(mesh, horizon=1.0, c1=4.0), PARAMS,
                             pool, budget=2)
    partition = TimePartition.uniform(1.0, 4)
    evo = run_scheme(inst, partition, CrackSet.empty(mesh))
    assert evo.changing_steps()
    for t, state in zip(partition.times, evo.states):
        report = residual_stability(float(t), state, inst)
        assert type(report.residual) is float
        assert all(type(k) is CrackSet for k in report.minimizers)
    result = jump_cost(1.0, evo.states[0], evo.states[-1], inst)
    assert type(result.cost) is float and result.hops
    for hop in result.hops:
        assert all(type(x) is float for x in (hop.delta, hop.alpha, hop.r_start))
    charged = inst.charges(evo.states[0], evo.states[-1])
    assert all(type(x) is float for x in charged)
    record = single_hop(inst.hops, evo.states[0], evo.states[-1])
    assert type(record) is HopCost and all(type(x) is float for x in
                                          (record.h1, record.sweep, record.alpha))
    assert math.isfinite(result.cost)
