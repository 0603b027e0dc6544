from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from vefrac.benchmarks import rect_grid_mesh
from vefrac.dissipation import (
    DissipationParams,
    MonotoneChain,
    alpha,
    atw_integral,
    big_d,
    dist_d,
    hop_cost,
)
from vefrac.geometry import CrackSet, h1_diff, h1_measure
from vefrac.ve_core import (
    RisInstance,
    audit_balance,
    audit_jump_conditions,
    decompose_transition,
    incremental_step,
    jump_cost,
    jump_variation,
    residual_stability,
    trc_chain,
)

import _oracles as oracle

PARAMS = DissipationParams(lam=0.1, mu=0.05)


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
        hop=lambda h, k: hop_cost(h, k, PARAMS), params=PARAMS, **kw)


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
        cost = big_d(state, comp, PARAMS)
        if not cost.infinite:
            best = min(best, instance.energy(t, comp) + cost.value)
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
        hop=lambda h, k: hop_cost(h, k, PARAMS), params=PARAMS, budget=20)
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
               + atw_integral(CrackSet.empty(rect9), cut, PARAMS).value
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
        cost = big_d(prev, comp, PARAMS)
        if cost.infinite:
            continue
        assert val <= inst.energy(0.7, comp) + cost.value + 1e-14


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
                  hop=lambda h, k: hop_cost(h, k, PARAMS), params=PARAMS)
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
                               power=lambda t, k: 0.0, hop=None,
                               params=PARAMS, budget=budget,
                               search=search)
            expected = oracle.competitors_by_sets(pool, state, search, budget)
            assert [c.bits for c in inst.competitors(state)] == [c.bits for c in expected]


def test_greedy_step_examines_set_difference_candidates(grid3):
    # greedy incremental_step asks, round by round, for the single-edge
    # supersets of its current best inside the pool, in ascending edge
    # order; replay the loop on the set-difference candidates
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
                       hop=lambda h, k: hop_cost(h, k, PARAMS), params=PARAMS,
                       search="greedy")
    result = incremental_step(0.0, prev, inst)

    def key(c):
        return (value(c) + inst.charges(prev, c).big_d, *c.sort_key())

    expected, best = [prev.bits], (key(prev), prev)
    while True:
        state = best[1]
        for cand in oracle.competitors_by_sets(pool, state, "greedy", 0)[1:]:
            expected.append(cand.bits)
            if key(cand) < best[0]:
                best = (key(cand), cand)
        if best[1].bits == state.bits:
            break
    assert asked == expected
    assert result.bits == state.bits
    assert len(state.edge_ids) > 2  # several rounds ran


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
    expected = (atw_integral(a, b, PARAMS).value
                + (PARAMS.lam + PARAMS.mu) * alpha(a, b).value)
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
        hop = hop_cost(h, k, PARAMS)
        if hop is None:
            assert inst.charges(h, k) is None and energetic.charges(h, k) is None
            continue
        d = hop.h1 + lam * hop.alpha
        assert d == dist_d(h, k, PARAMS).value
        assert inst.charges(h, k) == (d, d + (hop.sweep + mu * hop.alpha),
                                      hop.sweep, lam + mu, hop.alpha)
        assert inst.charges(h, k).big_d == big_d(h, k, PARAMS).value
        assert energetic.charges(h, k) == (d, d, 0.0, lam, hop.alpha)


def test_energetic_transitions_charge_lam_per_nucleation(rect9):
    # with every energy flat, every state is stable, so a one-edge
    # nucleation costs exactly lam in energetic mode and the sweep
    # integral plus lam + mu in the VE scheme
    flat = table_instance(rect9, {bits: 0.0 for bits in range(2**9)})
    energetic = replace(flat, viscous=False)
    a, b = CrackSet.empty(rect9), CrackSet.of_edges(rect9, [0])
    assert alpha(a, b).value == 1.0
    sweep = atw_integral(a, b, PARAMS).value
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
        expected += atw_integral(a, b, PARAMS).value
        expected += (PARAMS.lam + PARAMS.mu) * alpha(a, b).value
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
            a = alpha(state(u), state(v)).value
            d = atw_integral(state(u), state(v), PARAMS).value
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
    assert res.segments[0].label == "sliding"
    bad = jump_cost(0.0, k, CrackSet.of_edges(rect9, [1]), inst)
    assert bad.cost == math.inf and bad.chain is None


def test_jump_cost_cap(rect9):
    inst = table_instance(rect9, random_table(rect9, 21), lattice_cap=2)
    with pytest.raises(ValueError, match="lattice cap"):
        jump_cost(0.0, CrackSet.empty(rect9), CrackSet.of_edges(rect9, [0, 1, 3]), inst)


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
        floor = (PARAMS.lam + PARAMS.mu) * alpha(km, kp).value
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
    for seg in res.segments:
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
# jump variation and audits
# ---------------------------------------------------------------------------

def _record(time, left, at, right):
    return SimpleNamespace(time=time, left=left, at=at, right=right)


def test_jump_variation_no_jumps(rect9):
    inst = table_instance(rect9, random_table(rect9, 2))
    assert jump_variation(None, [], inst) == 0.0


def test_jump_variation_single_and_multi(rect9):
    inst = table_instance(rect9, random_table(rect9, 64))
    k0 = CrackSet.empty(rect9)
    k1 = CrackSet.of_edges(rect9, [0])
    k2 = CrackSet.of_edges(rect9, [0, 1])
    single = [_record(0.5, k0, k1, k1)]
    expected = jump_cost(0.5, k0, k1, inst).cost
    assert math.isclose(jump_variation(None, single, inst), expected,
                        rel_tol=1e-13)
    merged = [_record(0.5, k0, k1, k2)]
    expected2 = expected + jump_cost(0.5, k1, k2, inst).cost
    assert math.isclose(jump_variation(None, merged, inst), expected2,
                        rel_tol=1e-13)


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
    evo = _toy_evolution(rect9, [0.0, 1.0],
                         [CrackSet.empty(rect9), CrackSet.empty(rect9)])
    assert audit_jump_conditions(evo, inst, jumps=[]) == []
    k0, k1 = CrackSet.empty(rect9), CrackSet(rect9, 1)
    audits = audit_jump_conditions(evo, inst, jumps=[_record(0.7, k0, k1, k1)])
    assert len(audits) == 1
    a = audits[0]
    assert a.res_right == 0.0  # at == right
    drop = inst.energy(0.7, k0) - inst.energy(0.7, k1)
    manual = drop - h1_diff(k0, k1) - jump_cost(0.7, k0, k1, inst).cost
    assert math.isclose(a.res_left, manual, rel_tol=1e-13, abs_tol=1e-15)
    assert math.isclose(a.res_across, manual, rel_tol=1e-13, abs_tol=1e-15)
