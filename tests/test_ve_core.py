from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from vefrac.benchmarks import ramp_load, rect_grid_mesh
from vefrac.dissipation import (
    DissipationParams,
    HopCost,
    MonotoneChain,
    alpha,
    atw_integral,
    dist_d,
    hop_cost,
)
from vefrac.evolution import TimePartition, fracture_instance, run_scheme
from vefrac.geometry import CrackSet, MeshError, h1_diff, h1_measure
from vefrac.ve_core import (
    MAX_COMPETITORS,
    RisInstance,
    _scan,
    audit_balance,
    audit_jump_conditions,
    decompose_transition,
    incremental_step,
    jump_cost,
    residual_stability,
    trc_chain,
)

import _oracles as oracle

PARAMS = DissipationParams(lam=0.1, mu=0.05)


def test_jump_cost_is_subadditive_through_an_intermediate_state(rect9):
    # a chain K- -> K -> K+ joined at K lies in the lattice of K- and K+,
    # and its transition cost is the sum of the two halves
    k0 = CrackSet.empty(rect9)
    k1 = CrackSet.of_edges(rect9, [0])
    k2 = CrackSet.of_edges(rect9, [0, 1, 4])
    for seed in (64, 65, 66):
        inst = table_instance(rect9, random_table(rect9, seed))
        first, second = jump_cost(0.5, k0, k1, inst), jump_cost(0.5, k1, k2, inst)
        joined = MonotoneChain(first.chain.states + second.chain.states[1:])
        assert math.isclose(trc_chain(0.5, joined, inst), first.cost + second.cost,
                            rel_tol=1e-13, abs_tol=1e-15)
        assert jump_cost(0.5, k0, k2, inst).cost <= first.cost + second.cost + 1e-14

def real_hop(h, k):
    return hop_cost(h, k)


def table_instance(mesh, energy_table, pool=None, t_slope=None, **kw):
    """Instance whose energy is a per-bitset table, optionally with a
    linear time drift; dissipation callbacks are the real ones."""
    pool = pool if pool is not None else CrackSet(mesh, (1 << mesh.n_edges) - 1)

    def energy(t, k):
        base = energy_table[k.bits]
        if t_slope is None:
            return base
        return base - t * t_slope[k.bits]

    def power(t, k):
        return 0.0 if t_slope is None else -t_slope[k.bits]

    kw.setdefault("budget", mesh.n_edges)
    return RisInstance(
        pool=pool, energy=energy, power=power,
        hops=oracle.per_hop(real_hop), params=PARAMS, **kw)


def random_table(mesh, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return {bits: scale * float(rng.uniform(0.0, 2.0))
            for bits in range(1 << mesh.n_edges)}


def oracle_residual(t, state, instance):
    """Full-lattice recomputation of R with direct dissipation calls."""
    own = instance.energy(t, state)
    pool_bits = instance.pool.bits
    best = math.inf
    sup = pool_bits & ~state.bits
    sub = sup
    while True:
        comp = CrackSet(state.mesh, state.bits | sub)
        cost = oracle.reference_big_d(state, comp, PARAMS)
        if cost != math.inf:
            best = min(best, instance.energy(t, comp) + cost)
        if sub == 0:
            break
        sub = (sub - 1) & sup
    return own - best


# ---------------------------------------------------------------------------
# residual stability
# ---------------------------------------------------------------------------

def test_r_zero_on_fully_relaxed_state(rect9):
    inst = table_instance(rect9, {bits: 0.0 for bits in range(2**9)})
    k = CrackSet.of_edges(rect9, [0, 4])
    rep = residual_stability(0.0, k, inst)
    assert rep.residual == 0.0
    assert any(m.bits == k.bits for m in rep.minimizers)
    assert rep.examined == 2**7  # all supersets of a 2-edge set in a 9-edge pool


def test_r_nonnegative_random_tables(rect9):
    for seed in range(4):
        inst = table_instance(rect9, random_table(rect9, seed))
        for bits in (0, 1, 5, 17):
            rep = residual_stability(0.3, CrackSet(rect9, bits), inst)
            assert rep.residual >= 0.0


def test_r_matches_full_lattice_oracle(rect9):
    inst = table_instance(rect9, random_table(rect9, 101))
    for bits in (0, 3, 12, 73):
        k = CrackSet(rect9, bits)
        got = residual_stability(0.0, k, inst).residual
        assert math.isclose(got, oracle_residual(0.0, k, inst),
                            rel_tol=1e-14, abs_tol=1e-15)


def test_r_zero_iff_state_minimizes(rect9):
    for seed in (7, 8, 9):
        inst = table_instance(rect9, random_table(rect9, seed, scale=3.0))
        for bits in (0, 2, 9):
            k = CrackSet(rect9, bits)
            rep = residual_stability(0.0, k, inst)
            member = any(m.bits == k.bits for m in rep.minimizers)
            assert (rep.residual == 0.0) == member


def test_exhaustive_budget_overflow(grid3):
    table = {0: 1.0}
    inst = RisInstance(
        pool=CrackSet(grid3, (1 << grid3.n_edges) - 1),
        energy=lambda t, k: 0.0, power=lambda t, k: 0.0,
        hops=oracle.per_hop(real_hop), params=PARAMS, budget=20)
    with pytest.raises(ValueError, match="exceeds"):
        residual_stability(0.0, CrackSet.empty(grid3), inst)


# ---------------------------------------------------------------------------
# incremental step
# ---------------------------------------------------------------------------

def test_step_stays_put_without_drive(rect9):
    inst = table_instance(rect9, {bits: 0.0 for bits in range(2**9)})
    prev = CrackSet.of_edges(rect9, [1])
    assert incremental_step(0.5, prev, inst).bits == prev.bits


def test_step_threshold_for_single_candidate(rect9):
    e_star = 0  # bottom-left horizontal edge, length 1
    pool = CrackSet.of_edges(rect9, [e_star])
    cut = CrackSet.of_edges(rect9, [e_star])
    barrier = (h1_measure(cut) + PARAMS.lam
               + atw_integral(CrackSet.empty(rect9), cut)
               + PARAMS.mu)

    def make(c):
        table = {bits: (0.0 if bits & 1 else c) for bits in range(2**9)}
        return table_instance(rect9, table, pool=pool)

    below = incremental_step(0.0, CrackSet.empty(rect9),
                             make(barrier - 1e-6))
    above = incremental_step(0.0, CrackSet.empty(rect9),
                             make(barrier + 1e-6))
    assert below.is_empty
    assert above.bits == cut.bits
    # exact tie keeps the smaller set
    tie = incremental_step(0.0, CrackSet.empty(rect9), make(barrier))
    assert tie.is_empty


def test_step_certificate_against_every_competitor(rect9):
    inst = table_instance(rect9, random_table(rect9, 55, scale=4.0))
    prev = CrackSet.of_edges(rect9, [2])
    chosen = incremental_step(0.7, prev, inst)
    val = inst.energy(0.7, chosen) + inst.charges(prev, chosen).big_d
    for comp in inst.competitors(prev):
        cost = oracle.reference_big_d(prev, comp, PARAMS)
        if cost == math.inf:
            continue
        assert val <= inst.energy(0.7, comp) + cost + 1e-14


def test_greedy_agrees_on_separable_drive(grid3):
    # separable reward per cut edge, path pool along the bottom row:
    # single-edge augmentation reaches the exhaustive optimum
    bottom = [grid3.edge_index[(0, 1)], grid3.edge_index[(1, 2)],
              grid3.edge_index[(2, 3)]]
    pool = CrackSet.of_edges(grid3, bottom)
    reward = {bottom[0]: 1.0, bottom[1]: 0.9, bottom[2]: 0.8}

    def energy(t, k):
        return sum(r for e, r in reward.items() if e not in k)

    common = dict(energy=energy, power=lambda t, k: 0.0,
                  hops=oracle.per_hop(real_hop), params=PARAMS)
    exhaustive = RisInstance(pool=pool, budget=3, search="exhaustive", **common)
    greedy = RisInstance(pool=pool, budget=3, search="greedy", **common)
    prev = CrackSet.empty(grid3)
    assert incremental_step(0.0, prev, exhaustive).bits == \
        incremental_step(0.0, prev, greedy).bits


def test_competitor_sequences_match_set_difference(grid3):
    # the free edges come from the bits; the sequences must equal the
    # ones built from the sorted set difference, element for element
    rng = np.random.default_rng(3)
    full = (1 << grid3.n_edges) - 1
    for _ in range(40):
        pool = CrackSet(grid3, int(rng.integers(0, full + 1)) & full)
        state = CrackSet(grid3, int(rng.integers(0, full + 1)) & int(rng.integers(0, full + 1)))
        for search, budget in (("exhaustive", 0), ("exhaustive", 2), ("greedy", 3)):
            inst = RisInstance(pool=pool, energy=lambda t, k: 0.0,
                               power=lambda t, k: 0.0, hops=None,
                               params=PARAMS, budget=budget,
                               search=search)
            expected = oracle.competitors_by_sets(pool, state, search, budget)
            assert [c.bits for c in inst.competitors(state)] == [c.bits for c in expected]


def test_competitor_bitmasks_match_the_reference_enumeration(grid3):
    # the same bit sequence as building each competitor from its edge
    # ids, in both modes, at budget 0, past the free-edge count and on
    # an empty free pool
    full = CrackSet(grid3, (1 << grid3.n_edges) - 1)
    state = CrackSet.of_edges(grid3, [0, 5, 17])
    pools = {"six free": state.with_edges([2, 9, 11, 20, 26, 32]),
             "no free": state, "state only in part": CrackSet.of_edges(grid3, [5, 8, 30])}
    for pool in pools.values():
        free = pool.minus(state).cardinality
        for search in ("exhaustive", "greedy"):
            for budget in (0, 2, free + 3):
                inst = RisInstance(pool=pool, energy=lambda t, k: 0.0,
                                   power=lambda t, k: 0.0, hops=None,
                                   params=PARAMS, budget=budget, search=search)
                got = [c.bits for c in inst.competitors(state)]
                expected = [c.bits for c in oracle.reference_competitors(inst, state)]
                assert got == expected
                assert got[0] == state.bits
    big = RisInstance(pool=full, energy=lambda t, k: 0.0, power=lambda t, k: 0.0,
                      hops=None, params=PARAMS, budget=6)
    messages = []
    for enumerate_ in (big.competitors, lambda s: oracle.reference_competitors(big, s)):
        with pytest.raises(ValueError, match=f"exceeds {MAX_COMPETITORS}") as exc:
            next(iter(enumerate_(state)))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_greedy_step_examines_set_difference_candidates(grid3):
    # greedy incremental_step asks, round by round, for its current best
    # and for the single-edge supersets of it inside the pool (in
    # increasing D, so compared as multisets); replay the loop on the
    # set-difference candidates
    rng = np.random.default_rng(5)
    weights = rng.uniform(-5.0, 0.5, grid3.n_edges)
    asked = []

    def value(k):
        return float(sum(weights[e] for e in k.edge_ids))

    def energy(t, k):
        asked.append(k.bits)
        return value(k)

    pool = CrackSet.of_edges(grid3, rng.choice(grid3.n_edges, 12, replace=False))
    prev = CrackSet.of_edges(grid3, [pool.edge_ids[0]])
    inst = RisInstance(pool=pool, energy=energy, power=lambda t, k: 0.0,
                       hops=oracle.per_hop(real_hop), params=PARAMS,
                       search="greedy")
    result = incremental_step(0.0, prev, inst)

    def key(c):
        return (value(c) + inst.charges(prev, c).big_d, *c.sort_key())

    expected, best = [], (key(prev), prev)
    while True:
        state = best[1]
        expected.append(state.bits)
        for cand in oracle.competitors_by_sets(pool, state, "greedy", 0)[1:]:
            expected.append(cand.bits)
            if key(cand) < best[0]:
                best = (key(cand), cand)
        if best[1].bits == state.bits:
            break
    assert sorted(asked) == sorted(expected)
    assert result.bits == state.bits
    assert len(state.edge_ids) > 2  # several rounds ran


def counted_hop(h, k):
    """A hop record in whole numbers: one unit of length and of sweep per
    new edge and one nucleation per hop that adds edges, so competitors
    adding as many edges tie whenever their energies do."""
    if not h.issubset(k):
        return None
    new = float(len(k.minus(h).edge_ids))
    return HopCost(h1=new, sweep=new, alpha=float(new > 0))


def integer_instance(mesh, seed, hop, **kw):
    # whole-number energies falling by 3 per cut edge, so greedy search
    # runs several rounds
    rng = np.random.default_rng(seed)
    table = {bits: float(rng.integers(0, 4) - 3 * bin(bits).count("1"))
             for bits in range(1 << mesh.n_edges)}
    kw.setdefault("budget", mesh.n_edges)
    return RisInstance(pool=CrackSet(mesh, (1 << mesh.n_edges) - 1),
                       energy=lambda t, k: table[k.bits], power=lambda t, k: 0.0,
                       hops=oracle.per_hop(hop), params=PARAMS, **kw)


@pytest.mark.parametrize("viscous", [True, False])
@pytest.mark.parametrize("search", ["exhaustive", "greedy"])
def test_step_matches_reference_step_on_ties(rect9, search, viscous):
    # integer energies make many competitors tie on the objective, so
    # the winner rests on the tie-break (fewer edges, then lexicographic)
    tied = moved = 0
    for seed in range(5):
        for hop in (real_hop, counted_hop):
            inst = integer_instance(rect9, seed, hop, search=search, viscous=viscous)
            for bits in (0, 1, 5, 17, 100, 273):
                prev = CrackSet(rect9, bits)
                got = incremental_step(0.0, prev, inst)
                assert got.bits == oracle.reference_step(0.0, prev, inst).bits
                # the step's first scan is R's scan of prev
                tied += len(residual_stability(0.0, prev, inst).minimizers) > 1
                moved += got.bits != prev.bits
    assert tied > 0 and moved > 0


@pytest.mark.parametrize("viscous", [True, False])
@pytest.mark.parametrize("search", ["exhaustive", "greedy"])
def test_ledger_r_is_a_fresh_residual(rect9, search, viscous):
    # a step that stays put records R = 0 without a second scan; it must
    # be the very float a fresh scan of the state gives
    rng = np.random.default_rng(12)
    table = {bits: float(rng.integers(0, 3)) for bits in range(2**9)}
    slope = {bits: float(bin(bits).count("1")) for bits in range(2**9)}
    inst = table_instance(rect9, table, t_slope=slope, search=search,
                          viscous=viscous)
    partition = TimePartition.uniform(3.0, 12)
    evo = run_scheme(inst, partition, CrackSet.empty(rect9))
    for t, k, r in zip(partition.times, evo.states, evo.ledger.r):
        fresh = residual_stability(float(t), k, inst).residual
        assert np.float64(r).tobytes() == np.float64(fresh).tobytes()
    changing = len(evo.changing_steps())
    assert 0 < changing < 12  # both the moving and the frozen path ran


# ---------------------------------------------------------------------------
# the competitor scan in dissipation order
# ---------------------------------------------------------------------------

def float_bits(x):
    return None if x is None else np.float64(x).tobytes()


def assert_same_scan(got, expected):
    """Minimum, ordered winners, examined count and E(t, source) as the
    same floats and sets."""
    best, winners, examined, own = got
    assert float_bits(best) == float_bits(expected[0])
    assert [w.bits for w in winners] == [w.bits for w in expected[1]]
    assert examined == expected[2]
    assert float_bits(own) == float_bits(expected[3])


def grid_fracture_instance(seed, search, viscous):
    """The elastic instance on a small grid gripped at top and bottom,
    with a random pool of eight interior edges."""
    rng = np.random.default_rng(seed)
    mesh = rect_grid_mesh(int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                          dirichlet="topbottom")
    interior = sorted(set(range(mesh.n_edges)) - set(map(int, mesh.dirichlet_edges())))
    pool = CrackSet.of_edges(mesh, rng.choice(interior, 8, replace=False))
    load = ramp_load(mesh, horizon=1.0, c1=float(rng.uniform(1.0, 4.0)))
    return fracture_instance(mesh, load, PARAMS, pool, budget=3, search=search,
                             viscous=viscous)


def small_table_instance(mesh, seed, hop, floor, **kw):
    """Whole-number energies 0..3, so values tie often, with the floor
    0 declared or not."""
    rng = np.random.default_rng(seed)
    table = {bits: float(rng.integers(0, 4)) for bits in range(1 << mesh.n_edges)}
    return RisInstance(pool=CrackSet(mesh, (1 << mesh.n_edges) - 1),
                       energy=lambda t, k: table[k.bits], power=lambda t, k: 0.0,
                       hops=oracle.per_hop(hop), params=PARAMS, budget=3,
                       energy_floor=lambda t, k: floor, **kw)


def scan_cases(rect9, search, viscous):
    for seed in range(3):
        yield grid_fracture_instance(seed, search, viscous)
        for hop in (real_hop, counted_hop):
            for floor in (-math.inf, 0.0):
                yield small_table_instance(rect9, seed, hop, floor, search=search,
                                           viscous=viscous)


@pytest.mark.blas_rounding
@pytest.mark.parametrize("viscous", [True, False])
@pytest.mark.parametrize("search", ["exhaustive", "greedy"])
def test_scan_in_dissipation_order_matches_the_reference_scan(rect9, search, viscous):
    # every scan the scheme and the audits make: R's full scan (the
    # step's first) and greedy's rescans priced from an earlier state
    skipped = 0
    for case, inst in enumerate(scan_cases(rect9, search, viscous)):
        asked = []
        energy = inst.energy
        inst = replace(inst, energy=lambda t, k: asked.append(k.bits) or energy(t, k))
        rng = np.random.default_rng(case)
        pool = inst.pool.edge_ids
        mesh = inst.mesh

        def both(t, source, state):
            asked.clear()
            expected = oracle.reference_scan(t, source, inst.competitors(state), inst)
            reference_asks = list(asked)
            asked.clear()
            got = _scan(t, inst.ranking(source, state), inst)
            assert_same_scan(got, expected)
            if inst.energy_floor(t, state) > -math.inf:
                assert set(asked) <= set(reference_asks)
            else:
                # nothing is skipped, but a scan runs in increasing D
                assert sorted(asked) == sorted(reference_asks)
            return expected, len(reference_asks) - len(asked)

        for _ in range(3):
            t = float(rng.uniform(0.2, 1.0))
            state = CrackSet.of_edges(
                mesh, rng.choice(pool, int(rng.integers(0, 3)), replace=False))
            expected, saved = both(t, state, state)
            skipped += saved
            report = residual_stability(t, state, inst)
            assert float_bits(report.residual) == float_bits(expected[3] - expected[0])
            assert [m.bits for m in report.minimizers] == [w.bits for w in expected[1]]
            assert report.examined == expected[2]
            free = inst.pool.minus(state).edge_ids
            later = state.with_edges([free[int(rng.integers(0, len(free)))]])
            skipped += both(t, state, later)[1]
    assert skipped > 0


def test_scan_prefetches_doubling_chunks_that_the_floor_admits(rect9):
    # before it reads a candidate, a scan hands `prefetch` the chunk that
    # starts there: the next 1, 2, 4, ... candidates in ranked order,
    # cut at the first whose D plus the floor exceeds the best value so
    # far. The scan's result is the one it gives without prefetch
    chunks = cut = 0
    for seed in range(6):
        inst = small_table_instance(rect9, seed, real_hop, 0.0)
        events = []
        energy = inst.energy
        batched = replace(inst, energy=lambda t, k: events.append(k.bits) or energy(t, k),
                          prefetch=lambda cracks: events.append([k.bits for k in cracks]))
        state = CrackSet.of_edges(rect9, [seed % rect9.n_edges])
        ranking = batched.ranking(state, state)
        assert_same_scan(_scan(0.5, ranking, batched), _scan(0.5, inst.ranking(state, state), inst))
        order = [k.bits for _, k in ranking]
        best, handed, quota = math.inf, 0, 1
        for event in events:
            if isinstance(event, list):
                assert event == order[handed:handed + len(event)]
                assert 0 < len(event) <= quota
                assert all(d + 0.0 <= best for d in ranking.big_d[handed:handed + len(event)])
                handed += len(event)
                if len(event) < quota and handed < len(order):
                    assert ranking.big_d[handed] + 0.0 > best
                    cut += 1
                quota *= 2
                chunks += 1
            else:
                at = order.index(event)
                assert at < handed
                best = min(best, energy(0.5, CrackSet(rect9, event)) + ranking.big_d[at])
    assert chunks >= 12 and cut > 0, (chunks, cut)


def counting(calls, fn):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("viscous", [True, False])
@pytest.mark.parametrize("search", ["exhaustive", "greedy"])
def test_a_second_scan_at_another_time_reuses_the_ranking(rect9, search, viscous):
    # R's scan of one state at a second t enumerates no competitor and
    # prices no hop, and still equals the reference scan at that t
    for seed in range(2):
        for inst in (grid_fracture_instance(seed, search, viscous),
                     small_table_instance(rect9, seed, counted_hop, 0.0, search=search,
                                          viscous=viscous)):
            hops = []
            inst = replace(inst, hops=counting(hops, inst.hops))
            rng = np.random.default_rng(seed)
            state = CrackSet.of_edges(inst.mesh, rng.choice(inst.pool.edge_ids, 2,
                                                            replace=False))
            residual_stability(0.25, state, inst)
            assert hops
            for t in (0.5, 0.75):
                hops.clear()
                ranking = inst._ranked
                report = residual_stability(t, state, inst)
                assert hops == [] and inst._ranked is ranking
                expected = oracle.reference_scan(t, state, inst.competitors(state), inst)
                assert float_bits(report.residual) == float_bits(expected[3] - expected[0])
                assert [m.bits for m in report.minimizers] == [w.bits for w in expected[1]]
                assert report.examined == expected[2]


def test_a_replaced_copy_ranks_afresh(rect9, monkeypatch):
    # dataclasses.replace, as energetic_mode uses it, starts the copy
    # without the ranking of the instance it was copied from
    import vefrac.ve_core as ve_core

    ranked = []
    monkeypatch.setattr(ve_core, "_rank", counting(ranked, ve_core._rank))
    inst = grid_fracture_instance(3, "exhaustive", True)
    state = CrackSet.of_edges(inst.mesh, inst.pool.edge_ids[:1])
    viscous = residual_stability(0.5, state, inst)
    assert len(ranked) == 1 and inst._ranked is not None
    energetic = replace(inst, viscous=False)
    assert energetic._ranked is None and energetic.residuals == {}
    report = residual_stability(0.5, state, energetic)
    assert len(ranked) == 2
    expected = oracle.reference_scan(0.5, state, inst.competitors(state), energetic)
    assert float_bits(report.residual) == float_bits(expected[3] - expected[0])
    assert [m.bits for m in report.minimizers] == [w.bits for w in expected[1]]
    # the two modes rank by different D
    assert energetic._ranked.big_d != inst._ranked.big_d
    assert residual_stability(0.5, state, inst) is viscous


@pytest.mark.parametrize("viscous", [True, False])
def test_greedy_steps_of_a_run_match_the_reference_step(rect9, viscous):
    # a greedy run reuses rankings across its frozen steps and rescans;
    # every step is still the reference step from the same state
    rng = np.random.default_rng(8)
    table = {bits: float(rng.integers(0, 3)) for bits in range(2**9)}
    slope = {bits: float(bin(bits).count("1")) for bits in range(2**9)}
    inst = table_instance(rect9, table, t_slope=slope, search="greedy", viscous=viscous)
    partition = TimePartition.uniform(3.0, 12)
    evo = run_scheme(inst, partition, CrackSet.empty(rect9))
    for t, prev, nxt in zip(partition.times[1:], evo.states, evo.states[1:]):
        assert nxt.bits == oracle.reference_step(float(t), prev, replace(inst)).bits
    changing = len(evo.changing_steps())
    assert 0 < changing < 12


@pytest.mark.parametrize("viscous", [True, False])
@pytest.mark.parametrize("search", ["exhaustive", "greedy"])
def test_jump_cost_with_a_floor_matches_the_plain_search(rect9, search, viscous):
    # jump_cost on a floored instance against the unpruned lattice search
    # on a copy whose scans evaluate every competitor
    for seed in range(2):
        inst = grid_fracture_instance(seed, search, viscous)
        rng = np.random.default_rng(100 + seed)
        for _ in range(3):
            gap = rng.choice(inst.pool.edge_ids, 4, replace=False)
            km = CrackSet.of_edges(inst.mesh, gap[:int(rng.integers(0, 2))])
            kp = km.with_edges(gap[1:])
            t = float(rng.uniform(0.2, 1.0))
            expected = oracle.reference_jump_cost(
                t, km, kp, replace(inst, energy_floor=lambda t, k: -math.inf))
            got = jump_cost(t, km, kp, inst)
            assert float_bits(got.cost) == float_bits(expected.cost)
            assert [s.bits for s in got.chain] == [s.bits for s in expected.chain]
            assert got.hops == expected.hops


def test_scan_keeps_an_exact_tie_between_different_dissipations(rect9):
    # {0} costs E 1 + D 2 and {1} costs E 2 + D 1: both 3.0 exactly. D
    # order meets {1} first, the tie-break still lists {0} first, and
    # {2} (D 4 above the best 3 over the floor 0) is never evaluated
    weight = {0: 2.0, 1: 1.0, 2: 4.0}

    def hop(h, k):
        if not h.issubset(k):
            return None
        return HopCost(h1=sum(weight[e] for e in k.minus(h).edge_ids),
                       sweep=0.0, alpha=0.0)

    table = {0b000: 5.0, 0b001: 1.0, 0b010: 2.0, 0b100: 0.0}
    asked = []
    inst = RisInstance(pool=CrackSet.of_edges(rect9, [0, 1, 2]),
                       energy=lambda t, k: asked.append(k.bits) or table[k.bits],
                       power=lambda t, k: 0.0, hops=oracle.per_hop(hop), params=PARAMS,
                       budget=1, energy_floor=lambda t, k: 0.0)
    empty = CrackSet.empty(rect9)
    expected = oracle.reference_scan(0.0, empty, inst.competitors(empty), inst)
    assert asked == [0b000, 0b001, 0b010, 0b100]
    asked.clear()
    report = residual_stability(0.0, empty, inst)
    assert asked == [0b000, 0b010, 0b001]
    assert [m.bits for m in report.minimizers] == [0b001, 0b010]
    assert [w.bits for w in expected[1]] == [0b001, 0b010]
    assert report.residual == expected[3] - expected[0] == 2.0
    assert report.examined == expected[2] == 4


# ---------------------------------------------------------------------------
# transition cost of chains
# ---------------------------------------------------------------------------

def test_trc_single_state_is_zero(rect9):
    inst = table_instance(rect9, random_table(rect9, 3))
    ch = MonotoneChain([CrackSet.of_edges(rect9, [0])])
    assert trc_chain(0.0, ch, inst) == 0.0


def test_trc_two_stable_states_is_hop_cost(rect9):
    inst = table_instance(rect9, {bits: 0.0 for bits in range(2**9)})
    a = CrackSet.empty(rect9)
    b = CrackSet.of_edges(rect9, [0])
    got = trc_chain(0.0, MonotoneChain([a, b]), inst)
    expected = (atw_integral(a, b)
                + (PARAMS.lam + PARAMS.mu) * alpha(a, b))
    assert math.isclose(got, expected, rel_tol=1e-14)


def test_charges_read_one_hop_record_in_both_modes(rect9):
    # D, the ledger parts and the transition charge of a hop all come
    # from its one HopCost record, with the arithmetic archives were
    # written with; the energetic instance drops the sweep and mu terms
    inst = table_instance(rect9, random_table(rect9, 5))
    energetic = replace(inst, viscous=False)
    lam, mu = PARAMS.lam, PARAMS.mu
    rng = np.random.default_rng(8)
    for _ in range(60):
        h = CrackSet(rect9, int(rng.integers(0, 2**9)))
        k = CrackSet(rect9, int(rng.integers(0, 2**9)) | (h.bits if rng.random() < 0.8 else 0))
        hop = hop_cost(h, k)
        if hop is None:
            assert inst.charges(h, k) is None and energetic.charges(h, k) is None
            continue
        d = hop.h1 + lam * hop.alpha
        assert d == dist_d(h, k, PARAMS)
        delta = hop.sweep + mu * hop.alpha
        assert inst.charges(h, k) == (d, delta, d + delta,
                                      hop.sweep, lam + mu, hop.alpha)
        assert inst.charges(h, k).big_d == oracle.reference_big_d(h, k, PARAMS)
        assert energetic.charges(h, k) == (d, 0.0, d, 0.0, lam, hop.alpha)


def test_charges_of_a_hop_out_of_h_ask_hops_nothing(rect9):
    # charges(h, k) with H not inside K is None before any pricing; a hop
    # inside is priced as one batch of one row, its new edges ascending
    asked = []

    def hop(h, k):
        asked.append((h.bits, k.bits))
        return counted_hop(h, k)

    batches = []
    per_row = oracle.per_hop(hop)

    def hops(h, new):
        batches.append([list(edges) for edges in new])
        return per_row(h, new)

    inst = replace(integer_instance(rect9, 0, hop), hops=hops)
    h = CrackSet.of_edges(rect9, [1, 4])
    for k in (CrackSet.of_edges(rect9, [1, 3, 7]), CrackSet.empty(rect9),
              CrackSet.of_edges(rect9, [4])):
        assert inst.charges(h, k) is None
    assert asked == [] and batches == []
    k = h.with_edges([7, 3])
    charged = inst.charges(h, k)
    assert batches == [[[3, 7]]] and asked == [(h.bits, k.bits)]
    assert charged == counted_hop(h, k).charges(PARAMS)
    assert all(type(x) is float for x in charged)


def test_a_per_hop_instance_rejects_another_mesh(rect9):
    # as the fracture instance does: a hop or a ranking across meshes
    # raises before anything is priced
    asked = []

    def hop(h, k):
        asked.append((h, k))
        return counted_hop(h, k)

    inst = integer_instance(rect9, 0, hop)
    other = rect_grid_mesh(2, 1, width=2.0, height=1.0)
    h, k = CrackSet.of_edges(rect9, [1]), CrackSet.of_edges(rect9, [1, 3])
    h2, k2 = CrackSet(other, h.bits), CrackSet(other, k.bits)
    for a, b in ((h, k2), (h2, k)):
        for cost in (inst.charges, inst.ranking):
            with pytest.raises(MeshError, match="different meshes"):
                cost(a, b)
    assert asked == []


def test_energetic_transitions_charge_lam_per_nucleation(rect9):
    # with every energy flat, every state is stable, so a one-edge
    # nucleation costs exactly lam in energetic mode and the sweep
    # integral plus lam + mu in the VE scheme
    flat = table_instance(rect9, {bits: 0.0 for bits in range(2**9)})
    energetic = replace(flat, viscous=False)
    a, b = CrackSet.empty(rect9), CrackSet.of_edges(rect9, [0])
    assert alpha(a, b) == 1.0
    sweep = atw_integral(a, b)
    for inst, expected, delta in ((energetic, PARAMS.lam, 0.0),
                                  (flat, sweep + (PARAMS.lam + PARAMS.mu), sweep)):
        assert trc_chain(0.0, [a, b], inst) == expected
        res = jump_cost(0.0, a, b, inst)
        assert res.cost == expected
        assert [(h.delta, h.alpha, h.r_start) for h in res.hops] == [(delta, 1.0, 0.0)]


def test_trc_matches_termwise_ledger(rect9):
    inst = table_instance(rect9, random_table(rect9, 77))
    states = [CrackSet(rect9, b) for b in (0, 1, 3, 11)]
    got = trc_chain(0.4, states, inst)
    expected = 0.0
    for a, b in zip(states, states[1:]):
        expected += atw_integral(a, b)
        expected += (PARAMS.lam + PARAMS.mu) * alpha(a, b)
    for s in states[:-1]:
        expected += residual_stability(0.4, s, inst).residual
    assert math.isclose(got, expected, rel_tol=1e-13)


def test_trc_infinite_on_broken_chain(rect9):
    inst = table_instance(rect9, random_table(rect9, 12))
    states = [CrackSet(rect9, 1), CrackSet(rect9, 2)]
    assert trc_chain(0.0, states, inst) == math.inf


# ---------------------------------------------------------------------------
# jump cost
# ---------------------------------------------------------------------------

def brute_jump_cost(t, k_minus, k_plus, instance):
    gap = sorted(set(k_plus.edge_ids) - set(k_minus.edge_ids))
    mesh = k_minus.mesh
    state_memo, r_memo, hop_memo = {}, {}, {}

    def state(mask):
        if mask not in state_memo:
            state_memo[mask] = k_minus.with_edges(
                gap[i] for i in range(len(gap)) if (mask >> i) & 1)
        return state_memo[mask]

    def r_of(mask):
        if mask not in r_memo:
            r_memo[mask] = oracle_residual(t, state(mask), instance)
        return r_memo[mask]

    def hop(u, v):
        if (u, v) not in hop_memo:
            a = alpha(state(u), state(v))
            d = atw_integral(state(u), state(v))
            hop_memo[(u, v)] = d + (PARAMS.lam + PARAMS.mu) * a
        return hop_memo[(u, v)]

    best = math.inf
    for chain in oracle.enumerate_monotone_mask_chains(len(gap)):
        cost = sum(r_of(m) for m in chain[:-1])
        cost += sum(hop(u, v) for u, v in zip(chain, chain[1:]))
        best = min(best, cost)
    return best


def test_jump_cost_trivial_and_illegal(rect9):
    inst = table_instance(rect9, random_table(rect9, 21))
    k = CrackSet.of_edges(rect9, [0, 2])
    res = jump_cost(0.0, k, k, inst)
    assert res.cost == 0.0
    assert len(res.chain) == 1
    assert decompose_transition(res.chain, 0.0, inst)[0].label == "sliding"
    bad = jump_cost(0.0, k, CrackSet.of_edges(rect9, [1]), inst)
    assert bad.cost == math.inf and bad.chain is None


def test_jump_cost_cap():
    # a 17-edge gap is refused before any energy is evaluated
    mesh = rect_grid_mesh(4, 4)

    def energy(t, k):
        raise AssertionError("energy evaluated past the lattice cap")

    inst = RisInstance(pool=CrackSet(mesh, (1 << mesh.n_edges) - 1), energy=energy,
                       power=lambda t, k: 0.0, hops=oracle.per_hop(real_hop),
                       params=PARAMS)
    k_minus = CrackSet.of_edges(mesh, [0])
    with pytest.raises(ValueError) as exc:
        jump_cost(0.0, k_minus, k_minus.with_edges(range(1, 18)), inst)
    assert str(exc.value) == ("gap of 17 edges exceeds the lattice cap 16; "
                              "restrict the lattice or raise the cap")


def test_jump_cost_equals_brute_force(rect9):
    k_minus = CrackSet.of_edges(rect9, [0])
    k_plus = CrackSet.of_edges(rect9, [0, 1, 4, 7])
    for seed in (1, 2, 3, 4, 5):
        inst = table_instance(rect9, random_table(rect9, seed, scale=2.5))
        got = jump_cost(0.25, k_minus, k_plus, inst)
        expected = brute_jump_cost(0.25, k_minus, k_plus, inst)
        assert math.isclose(got.cost, expected, rel_tol=1e-12, abs_tol=1e-14)
        # stored chain reproduces the cost through the generic evaluator
        assert math.isclose(trc_chain(0.25, got.chain, inst), got.cost,
                            rel_tol=1e-12, abs_tol=1e-14)


def test_jump_cost_lower_bound_and_ledger(rect9):
    inst = table_instance(rect9, random_table(rect9, 31))
    rng = np.random.default_rng(6)
    for _ in range(10):
        minus_bits = int(rng.integers(0, 2**9))
        plus_bits = minus_bits | int(rng.integers(0, 2**9))
        if bin(plus_bits & ~minus_bits).count("1") > 5:
            continue
        km, kp = CrackSet(rect9, minus_bits), CrackSet(rect9, plus_bits)
        res = jump_cost(0.0, km, kp, inst)
        floor = (PARAMS.lam + PARAMS.mu) * alpha(km, kp)
        assert res.cost >= floor - 1e-12
        ledger_total = sum(h.delta + (PARAMS.lam + PARAMS.mu) * h.alpha + h.r_start
                           for h in res.hops)
        assert math.isclose(ledger_total, res.cost, rel_tol=1e-12, abs_tol=1e-14)


def test_single_hop_never_beats_optimum(rect9):
    inst = table_instance(rect9, random_table(rect9, 91, scale=2.0))
    km = CrackSet.empty(rect9)
    kp = CrackSet.of_edges(rect9, [0, 3, 6])
    res = jump_cost(0.1, km, kp, inst)
    direct = trc_chain(0.1, [km, kp], inst)
    assert res.cost <= direct + 1e-14


def single_edge_hop(h, k):
    """A hop whose transition charge is 0 for one new edge and 2 for
    each further one, so one-edge chains win and tie with each other
    whenever the R of their states add up alike."""
    if not h.issubset(k):
        return None
    new = float(len(k.minus(h).edge_ids))
    return HopCost(h1=new, sweep=2.0 * max(new - 1.0, 0.0), alpha=0.0)


def assert_same_jump_cost(t, k_minus, k_plus, inst):
    """jump_cost on `inst` against the unpruned search on a copy of it
    with an empty residual memo: cost, chain and hop ledger must be the
    same floats and sets."""
    expected = oracle.reference_jump_cost(t, k_minus, k_plus, replace(inst))
    got = jump_cost(t, k_minus, k_plus, inst)
    assert got.cost == expected.cost
    assert [s.bits for s in got.chain] == [s.bits for s in expected.chain]
    assert got.hops == expected.hops
    return got


@pytest.mark.parametrize("viscous", [True, False])
@pytest.mark.parametrize("search,budget", [("exhaustive", 9), ("exhaustive", 2),
                                           ("exhaustive", 1), ("greedy", 3)])
def test_jump_cost_matches_the_unpruned_search(rect9, search, budget, viscous):
    rng = np.random.default_rng(17)
    pruned = outside = 0
    for seed in range(3):
        for hop in (real_hop, counted_hop, single_edge_hop):
            inst = integer_instance(rect9, seed, hop, search=search,
                                    budget=budget, viscous=viscous)
            for case in range(6):
                minus_bits = int(rng.integers(0, 2**9)) & int(rng.integers(0, 2**9))
                plus_bits = minus_bits | int(rng.integers(0, 2**9))
                if not 2 <= bin(plus_bits & ~minus_bits).count("1") <= 5:
                    continue
                km, kp = CrackSet(rect9, minus_bits), CrackSet(rect9, plus_bits)
                if case % 2:
                    # the start node's R then comes from the step's scan
                    incremental_step(0.0, km, inst)
                outside += not inst.is_competitor(km, kp)
                pruned += assert_same_jump_cost(0.0, km, kp, inst).pruned
    assert pruned > 0
    # a gap wider than the budget: K+ is no competitor of the start node
    assert (outside > 0) == (search == "greedy" or budget < 5)


def test_jump_cost_reads_every_r_start_from_the_residual_memo(rect9):
    # greedy, gaps of 3 to 5 edges: K+ is no competitor of a node that
    # lacks two or more of its edges, so such nodes scan without a witness
    rng = np.random.default_rng(23)
    cases = unwitnessed = 0
    for seed in range(3):
        for hop in (counted_hop, single_edge_hop):
            for _ in range(8):
                minus_bits = int(rng.integers(0, 2**9)) & int(rng.integers(0, 2**9))
                plus_bits = minus_bits | int(rng.integers(0, 2**9))
                if not 3 <= bin(plus_bits & ~minus_bits).count("1") <= 5:
                    continue
                inst = integer_instance(rect9, seed, hop, search="greedy")
                km, kp = CrackSet(rect9, minus_bits), CrackSet(rect9, plus_bits)
                got = assert_same_jump_cost(0.0, km, kp, inst)
                # the memo holds the start node and every expanded node
                assert (0.0, km) in inst.residuals
                assert len(inst.residuals) == got.expanded
                for ledger, state in zip(got.hops, got.chain.states):
                    assert ledger.r_start == inst.residuals[0.0, state].residual
                unwitnessed += sum(
                    not inst.is_competitor(node, kp)
                    for _, node in inst.residuals if node != km)
                cases += 1
    assert cases > 0 and unwitnessed > 0


def test_jump_cost_keeps_a_tie_at_the_bound(rect9):
    # gap {0, 1}: the chain through {1} is found first at cost 2, and the
    # chain through {0} ties it exactly. Its node {0} reaches the bound
    # (c + E - v == C at the witness K+) but must not be cut off: the
    # tie-break prefers the path through the smaller mask {0}.
    weight = {0: 1.0, 1: 0.0}

    def hop(h, k):
        if not h.issubset(k):
            return None
        new = k.minus(h).edge_ids
        sweep = sum(weight[e] for e in new) + 2.0 * max(len(new) - 1, 0)
        return HopCost(h1=float(len(new)), sweep=sweep, alpha=0.0)

    table = {0b00: 3.0, 0b01: 2.0, 0b10: 3.0, 0b11: 0.0}
    km, kp = CrackSet.empty(rect9), CrackSet.of_edges(rect9, [0, 1])
    inst = RisInstance(pool=kp, energy=lambda t, k: table[k.bits],
                       power=lambda t, k: 0.0, hops=oracle.per_hop(hop),
                       params=PARAMS)
    got = assert_same_jump_cost(0.0, km, kp, inst)
    assert got.cost == 2.0
    assert [s.bits for s in got.chain] == [0b00, 0b01, 0b11]
    assert (got.expanded, got.pruned) == (3, 0)


def test_jump_cost_overflow_raises_as_the_unpruned_search(grid3):
    inst = RisInstance(
        pool=CrackSet(grid3, (1 << grid3.n_edges) - 1),
        energy=lambda t, k: 0.0, power=lambda t, k: 0.0,
        hops=oracle.per_hop(real_hop), params=PARAMS, budget=20)
    km = CrackSet.of_edges(grid3, [0])
    kp = km.with_edges([1, 2])
    messages = []
    for search in (oracle.reference_jump_cost, jump_cost):
        with pytest.raises(ValueError, match=f"exceeds {MAX_COMPETITORS}") as exc:
            search(0.0, km, kp, replace(inst))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def pruning_case(mesh):
    """A two-edge jump whose intermediate states are far above both
    ends: the direct hop is the best chain, and each intermediate node
    is cut off by its witness K+ alone."""
    km = CrackSet.of_edges(mesh, [0])
    kp = km.with_edges([3, 6])
    table = {bits: 10.0 for bits in range(2**9)}
    table[km.bits] = table[kp.bits] = 0.0
    return table_instance(mesh, table), km, kp


def test_jump_cost_counts_expanded_and_pruned_nodes(rect9):
    inst, km, kp = pruning_case(rect9)
    first = assert_same_jump_cost(0.0, km, kp, inst)
    assert [s.bits for s in first.chain] == [km.bits, kp.bits]
    assert (first.expanded, first.pruned) == (1, 2)
    # the counts repeat exactly, on the same instance and on a fresh one
    for again in (jump_cost(0.0, km, kp, inst), jump_cost(0.0, km, kp, replace(inst))):
        assert (again.cost, again.hops, again.expanded, again.pruned) == (
            first.cost, first.hops, first.expanded, first.pruned)


def test_pruned_node_stops_at_its_witness(rect9):
    inst, km, kp = pruning_case(rect9)
    asked = []
    energy = inst.energy
    counted = replace(inst, energy=lambda t, k: asked.append(k.bits) or energy(t, k))
    residual_stability(0.0, km, counted)
    asked.clear()
    jump_cost(0.0, km, kp, counted)
    # each intermediate node reads its own energy and then K+'s, and stops
    middle = [km.with_edges([3]).bits, km.with_edges([6]).bits]
    assert sorted(asked[0::2]) == middle
    assert asked[1::2] == [kp.bits, kp.bits]
    # a pruned node leaves no report behind
    assert set(counted.residuals) == {(0.0, km)}


def test_residual_memo_hands_the_step_scan_to_the_audit(rect9):
    inst = table_instance(rect9, {bits: 5.0 - 2.0 * bin(bits).count("1")
                                  for bits in range(2**9)})
    asked = []
    energy = inst.energy
    counted = replace(inst, energy=lambda t, k: asked.append(k.bits) or energy(t, k))
    prev = CrackSet.of_edges(rect9, [2])
    nxt = incremental_step(0.5, prev, counted)
    assert nxt.bits != prev.bits
    report = counted.residuals[0.5, prev]
    assert report.minimizers[0].bits == nxt.bits
    asked.clear()
    assert residual_stability(0.5, prev, counted) is report
    assert asked == []
    # the copy made by dataclasses.replace (as energetic_mode does) keeps
    # no report of the instance it was copied from
    energetic = replace(counted, viscous=False)
    assert energetic.residuals == {} and counted.residuals
    fresh = residual_stability(0.5, prev, replace(inst))
    assert fresh == report


# ---------------------------------------------------------------------------
# decomposition into sliding/viscous segments
# ---------------------------------------------------------------------------

def test_decompose_single_hop(rect9):
    inst = table_instance(rect9, random_table(rect9, 40))
    ch = [CrackSet.empty(rect9), CrackSet.of_edges(rect9, [0])]
    segs = decompose_transition(ch, 0.0, inst)
    assert len(segs) == 1
    assert segs[0].label == "sliding"
    assert segs[0].interior_residuals == ()


def test_decompose_flags_unstable_interior(rect9):
    # state {0} is heavily penalized: a much better superset exists,
    # so the middle of the chain 0 -> {0} -> {0,1} is viscous
    table = {bits: 0.0 for bits in range(2**9)}
    table[1] = 5.0
    table[0] = 5.0
    inst = table_instance(rect9, table)
    ch = [CrackSet.empty(rect9), CrackSet(rect9, 1), CrackSet(rect9, 3)]
    segs = decompose_transition(ch, 0.0, inst)
    assert [s.label for s in segs] == ["viscous"]
    assert segs[0].interior_residuals[0] > 0.0
    # stable middle instead: all energies flat
    flat = table_instance(rect9, {bits: 0.0 for bits in range(2**9)})
    segs2 = decompose_transition(ch, 0.0, flat)
    assert [s.label for s in segs2] == ["sliding"]


def test_decompose_checks_minimum_jump_recursion(rect9):
    table = {bits: 0.0 for bits in range(2**9)}
    table[0] = 5.0
    table[1] = 5.0
    inst = table_instance(rect9, table)
    km, kp = CrackSet.empty(rect9), CrackSet(rect9, 3)
    res = jump_cost(0.0, km, kp, inst)
    for seg in decompose_transition(res.chain, 0.0, inst):
        if seg.label == "viscous":
            assert seg.recursion_violations == ()
    # a hand-made detour through the penalized middle violates it
    detour = [km, CrackSet(rect9, 1), kp]
    segs = decompose_transition(detour, 0.0, inst)
    viscous = [s for s in segs if s.label == "viscous"]
    if viscous:
        assert all(isinstance(i, int) for s in viscous
                   for i in s.recursion_violations)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def _record(time, left, at, right):
    return SimpleNamespace(time=time, left=left, at=at, right=right)


def _toy_evolution(mesh, times, states):
    return SimpleNamespace(partition=SimpleNamespace(times=np.asarray(times)),
                           states=list(states))


def test_audit_balance_static_run(rect9):
    inst = table_instance(rect9, {bits: 1.5 for bits in range(2**9)})
    k = CrackSet.of_edges(rect9, [4])
    evo = _toy_evolution(rect9, [0.0, 0.5, 1.0], [k, k, k])
    rep = audit_balance(evo, inst)
    assert np.allclose(rep.residual, 0.0, atol=1e-15)
    assert np.allclose(rep.form_difference, 0.0, atol=1e-15)
    assert rep.upper_ok.all()


def test_audit_balance_forms_agree(rect9):
    table = random_table(rect9, 83, scale=2.0)
    slope = {bits: 0.5 + (bits % 5) * 0.1 for bits in range(2**9)}
    inst = table_instance(rect9, table, t_slope=slope)
    states = [CrackSet(rect9, 0), CrackSet(rect9, 1), CrackSet(rect9, 1),
              CrackSet(rect9, 5)]
    evo = _toy_evolution(rect9, [0.0, 0.3, 0.6, 1.0], states)
    rep = audit_balance(evo, inst)
    assert rep.max_form_difference < 1e-12
    assert rep.jump_costs[-1] > 0.0


def test_audit_jump_conditions_empty_and_manual(rect9):
    inst = table_instance(rect9, random_table(rect9, 14))
    assert audit_jump_conditions(inst, jumps=[]) == []
    k0, k1 = CrackSet.empty(rect9), CrackSet(rect9, 1)
    audits = audit_jump_conditions(inst, jumps=[_record(0.7, k0, k1, k1)])
    assert len(audits) == 1
    a = audits[0]
    assert a.res_right == 0.0  # at == right
    drop = inst.energy(0.7, k0) - inst.energy(0.7, k1)
    manual = drop - h1_diff(k0, k1) - jump_cost(0.7, k0, k1, inst).cost
    assert math.isclose(a.res_left, manual, rel_tol=1e-13, abs_tol=1e-15)
    assert math.isclose(a.res_across, manual, rel_tol=1e-13, abs_tol=1e-15)
