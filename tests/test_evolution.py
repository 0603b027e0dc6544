from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from vefrac.benchmarks import growth_strip, nucleation_well, square_grid_mesh
from vefrac.dissipation import (
    DissipationParams,
    alpha,
    atw_integral,
    big_d,
    delta_atw,
    dist_d,
    hop_cost,
    var_along,
)
from vefrac.elastic import solve_energy
from vefrac.evolution import (
    DiscreteEvolution,
    JumpRecord,
    TimePartition,
    component_bound_check,
    detect_jumps,
    energetic_mode,
    fracture_instance,
    refine_study,
    run_scheme,
)
from vefrac.geometry import CrackSet, MeshError, h1_diff
from vefrac.ve_core import audit_balance, audit_jump_conditions

PARAMS = DissipationParams(lam=0.1, mu=0.1)


def well_instance(**kw):
    mesh, load, pool = nucleation_well()
    params = kw.pop("params", PARAMS)
    return fracture_instance(mesh, load, params, pool, **kw), load


def well_thresholds(instance, load, pool):
    """Hand-computed load levels at which the energetic and the VE
    schemes switch wells, from the unit-amplitude energies.

    The pool is one connected two-edge crack, so alpha is 1 and the
    viscous integral has the closed form diam * length."""
    mesh = pool.mesh
    empty = CrackSet.empty(mesh)
    e1_gap = (solve_energy(1.0, empty, load).energy
              - solve_energy(1.0, pool, load).energy)
    length = float(mesh.edge_lengths[list(pool.edge_ids)].sum())
    lam, mu = instance.params.lam, instance.params.mu
    d_cost = length + lam
    delta_cost = mesh.domain_diameter * length + mu
    t_energetic = math.sqrt(d_cost / e1_gap)
    t_ve = math.sqrt((d_cost + delta_cost) / e1_gap)
    return t_energetic, t_ve


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError, match="start at time 0"):
        TimePartition(np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        TimePartition(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError, match="two endpoints"):
        TimePartition(np.array([0.0]))
    p = TimePartition.uniform(2.0, 8)
    assert len(p) == 9
    assert p.horizon == 2.0
    assert math.isclose(p.tau, 0.25)


# ---------------------------------------------------------------------------
# run_scheme
# ---------------------------------------------------------------------------

def test_zero_load_stays_put():
    mesh, load, pool = nucleation_well()
    from vefrac.elastic import BoundaryLoad, LinearAmplitude
    frozen = BoundaryLoad(profile=np.zeros(mesh.n_vertices),
                          amplitude=LinearAmplitude(0.0, 0.0), horizon=1.0)
    inst = fracture_instance(mesh, frozen, PARAMS, pool)
    evo = run_scheme(inst, TimePartition.uniform(1.0, 5), CrackSet.empty(mesh))
    assert all(k.is_empty for k in evo.states)
    assert np.all(evo.ledger.d == 0.0)
    assert np.all(evo.ledger.energy == 0.0)


def test_two_well_jump_at_predicted_index():
    inst, load = well_instance()
    mesh, pool = inst.mesh, inst.pool
    part = TimePartition.uniform(load.horizon, 60)
    evo = run_scheme(inst, part, CrackSet.empty(mesh))
    t_e, t_ve = well_thresholds(inst, load, pool)
    # ties keep the incumbent, so the switch happens at the first grid
    # point strictly past the threshold
    onset = int(np.searchsorted(part.times, t_ve, side="right"))
    changing = evo.changing_steps()
    assert changing == [onset]
    assert evo.states[-1].bits == pool.bits
    # irreversibility and the one-step minimality estimate
    for i in range(1, len(evo.states)):
        assert evo.states[i - 1].issubset(evo.states[i])
        prev, cur, t = evo.states[i - 1], evo.states[i], part.times[i]
        lhs = inst.energy(t, cur) + inst.charges(prev, cur).big_d
        assert lhs <= inst.energy(t, prev) + 1e-12 * (1.0 + abs(lhs))


def test_gronwall_bound_along_run():
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 30)
    evo = run_scheme(inst, part, CrackSet.empty(inst.mesh))
    cp = inst.power_bound
    e0 = evo.ledger.energy[0]
    for i, t in enumerate(part.times):
        bound = (e0 + 1.0) * math.exp(cp * t) - 1.0
        assert evo.ledger.energy[i] <= bound + 1e-9


def test_ledger_matches_dissipation_recomputation():
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 24)
    evo = run_scheme(inst, part, CrackSet.empty(inst.mesh))
    for i in range(1, len(evo.states)):
        prev, cur = evo.states[i - 1], evo.states[i]
        assert evo.ledger.d[i] == dist_d(prev, cur, inst.params).value
        assert evo.ledger.delta[i] == atw_integral(prev, cur, inst.params).value
        assert evo.ledger.alpha[i] == alpha(prev, cur).value


def test_var_d_reconstruction_of_run():
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 24)
    evo = run_scheme(inst, part, CrackSet.empty(inst.mesh))
    got = var_along(evo.states, "d", inst.params)
    expected = (h1_diff(evo.states[0], evo.states[-1])
                + inst.params.lam * float(evo.ledger.alpha.sum()))
    assert math.isclose(got, expected, rel_tol=1e-13, abs_tol=1e-15)


def test_smooth_growth_is_monotone_and_onset_bracketed():
    mesh, load, k0, pool, path = growth_strip()
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=2)
    part = TimePartition.uniform(load.horizon, 40)
    evo = run_scheme(inst, part, k0)
    sizes = [k.cardinality for k in evo.states]
    assert sizes == sorted(sizes)
    assert evo.states[-1].cardinality > k0.cardinality
    # predicted onset: first time t with t^2 * (unit-energy drop of the
    # next edge) at least the step cost of that edge
    nxt = path[k0.cardinality]
    grown = k0.with_edges([nxt])
    drop = (solve_energy(1.0, k0, load).energy
            - solve_energy(1.0, grown, load).energy)
    cost = (dist_d(k0, grown, inst.params).value
            + atw_integral(k0, grown, inst.params).value)
    t_pred = math.sqrt(cost / drop)
    onset = evo.changing_steps()[0]
    assert part.times[onset - 1] < t_pred <= part.times[onset]


# ---------------------------------------------------------------------------
# jump detection
# ---------------------------------------------------------------------------

def test_threshold_zero_flags_every_changing_step():
    mesh, load, k0, pool, path = growth_strip()
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=2)
    evo = run_scheme(inst, TimePartition.uniform(load.horizon, 40), k0)
    recs = detect_jumps(evo, threshold=0.0)
    flagged = [r.index for r in recs for _ in range(1)]
    changing = evo.changing_steps()
    # merged runs cover exactly the changing steps
    covered = []
    for r in recs:
        i = r.index
        while True:
            covered.append(i)
            if evo.states[i].bits == r.right.bits:
                break
            i += 1
    assert covered == changing
    for r in recs:
        assert r.left.issubset(r.at) and r.at.issubset(r.right)


def test_smooth_growth_has_no_jumps_at_default_threshold():
    mesh, load, k0, pool, path = growth_strip()
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=2)
    evo = run_scheme(inst, TimePartition.uniform(load.horizon, 40), k0)
    assert detect_jumps(evo, threshold=10.0) == []


def test_two_well_single_jump_with_one_nucleation():
    inst, load = well_instance()
    evo = run_scheme(inst, TimePartition.uniform(load.horizon, 60),
                     CrackSet.empty(inst.mesh))
    recs = detect_jumps(evo, threshold=10.0)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.left.is_empty
    assert rec.at.bits == inst.pool.bits
    assert rec.right.bits == rec.at.bits
    assert alpha(rec.left, rec.at).value == 1.0
    assert math.isclose(rec.magnitude,
                        dist_d(rec.left, rec.at, inst.params).value,
                        rel_tol=1e-15)


def test_jump_record_validates_nesting():
    mesh, _, pool = nucleation_well()
    with pytest.raises(ValueError, match="nested"):
        JumpRecord(index=1, time=0.1, left=pool, at=CrackSet.empty(mesh),
                   right=pool, magnitude=1.0)


# ---------------------------------------------------------------------------
# component bound
# ---------------------------------------------------------------------------

def test_component_bound_static_run():
    mesh, load, pool = nucleation_well()
    from vefrac.elastic import BoundaryLoad, LinearAmplitude
    frozen = BoundaryLoad(profile=np.zeros(mesh.n_vertices),
                          amplitude=LinearAmplitude(0.0, 0.0), horizon=1.0)
    inst = fracture_instance(mesh, frozen, PARAMS, pool)
    evo = run_scheme(inst, TimePartition.uniform(1.0, 4), CrackSet.empty(mesh))
    rep = component_bound_check(evo, inst)
    assert rep.ok
    assert rep.counts.max() == 0.0


def test_component_bound_nucleation_run():
    inst, load = well_instance()
    evo = run_scheme(inst, TimePartition.uniform(load.horizon, 30),
                     CrackSet.empty(inst.mesh))
    rep = component_bound_check(evo, inst)
    assert rep.ok
    assert rep.counts.max() == 1.0
    assert rep.slack > 0.0


def test_large_nucleation_price_prevents_growth():
    heavy = DissipationParams(lam=500.0, mu=500.0)
    inst, load = well_instance(params=heavy)
    evo = run_scheme(inst, TimePartition.uniform(load.horizon, 20),
                     CrackSet.empty(inst.mesh))
    assert np.all(evo.ledger.alpha == 0.0)
    assert all(k.is_empty for k in evo.states)


# ---------------------------------------------------------------------------
# hop table
# ---------------------------------------------------------------------------

def test_hop_table_matches_direct_pricing():
    inst, _ = well_instance()
    mesh, params = inst.mesh, inst.params
    rng = random.Random(17)
    sources = [CrackSet(mesh, rng.getrandbits(mesh.n_edges) & rng.getrandbits(mesh.n_edges))
               for _ in range(5)] + [CrackSet.empty(mesh)]
    # targets shared by every source, so a record keyed by K alone
    # would be read back for the wrong H
    shared = [CrackSet(mesh, (1 << mesh.n_edges) - 1), CrackSet.empty(mesh),
              sources[0].union(sources[1])]
    pairs = []
    for h in sources:
        pairs += [(h, k) for k in shared]
        for _ in range(12):
            k = CrackSet(mesh, rng.getrandbits(mesh.n_edges))
            pairs.append((h, k.union(h) if rng.random() < 0.7 else k))
    # every pair twice, interleaved, so sources switch and hits repeat
    order = pairs + pairs
    rng.shuffle(order)
    assert any(not h.issubset(k) for h, k in order)
    for h, k in order:
        assert inst.hop(h, k) == hop_cost(h, k, params)
        charged = inst.charges(h, k)
        if not h.issubset(k):
            assert charged is None and big_d(h, k, params).infinite
            continue
        assert charged.d == dist_d(h, k, params).value
        assert charged.big_d == big_d(h, k, params).value
        assert charged.big_d == (dist_d(h, k, params).value
                                 + delta_atw(h, k, params).value)
        assert charged.sweep == atw_integral(h, k, params).value
        assert charged.alpha == alpha(h, k).value


def test_hop_table_rejects_another_mesh():
    inst, _ = well_instance()
    other, _, _ = nucleation_well()
    h = CrackSet.empty(inst.mesh)
    k = inst.pool
    inst.hop(h, k)  # the table now holds (empty -> pool)
    h2, k2 = CrackSet(other, h.bits), CrackSet(other, k.bits)
    for a, b in ((h2, k2), (h, k2), (h2, k)):
        for cost in (inst.hop, inst.charges):
            with pytest.raises(MeshError, match="different meshes"):
                cost(a, b)


# ---------------------------------------------------------------------------
# energetic mode
# ---------------------------------------------------------------------------

def test_energetic_mode_ignores_a_warm_hop_table():
    # A VE run fills the hop table with sweep integrals; neither
    # energetic_mode nor a non-viscous copy sharing the table may
    # charge them.
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 60)
    k0 = CrackSet.empty(inst.mesh)
    run_scheme(inst, part, k0)

    fresh = energetic_mode(fracture_instance(inst.mesh, load, PARAMS, inst.pool),
                           part, k0)
    stripped = replace(inst, viscous=False)
    for evo in (energetic_mode(inst, part, k0),
                run_scheme(stripped, part, k0),
                energetic_mode(stripped, part, k0),
                run_scheme(fracture_instance(inst.mesh, load, PARAMS, inst.pool,
                                             viscous=False), part, k0)):
        assert [s.bits for s in evo.states] == [s.bits for s in fresh.states]
        for name, column in fresh.ledger.as_dict().items():
            assert np.array_equal(evo.ledger.as_dict()[name], column), name
    assert fresh.changing_steps() != run_scheme(inst, part, k0).changing_steps()


def test_energetic_jumps_strictly_earlier():
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 60)
    k0 = CrackSet.empty(inst.mesh)
    ve = run_scheme(inst, part, k0)
    qe = energetic_mode(inst, part, k0)
    t_e, t_ve = well_thresholds(inst, load, inst.pool)
    assert t_e < t_ve
    onset_e = int(np.searchsorted(part.times, t_e, side="right"))
    onset_ve = int(np.searchsorted(part.times, t_ve, side="right"))
    assert qe.changing_steps() == [onset_e]
    assert ve.changing_steps() == [onset_ve]
    assert onset_e < onset_ve
    assert np.all(qe.ledger.delta == 0.0)


def test_energetic_run_passes_its_own_audits():
    # priced by the non-viscous instance that drove it, an energetic
    # run balances and meets the jump identities like a VE run
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 60)
    energetic = replace(inst, viscous=False)
    evo = run_scheme(energetic, part, CrackSet.empty(inst.mesh))
    jumps = detect_jumps(evo)
    assert len(jumps) == 1
    scale = 1.0 + float(np.max(np.abs(evo.ledger.energy)))
    for audit in audit_jump_conditions(evo, energetic, jumps=jumps):
        for res in (audit.res_left, audit.res_right, audit.res_across):
            assert abs(res) <= 2e-9 * scale
    rep = audit_balance(evo, energetic)
    assert rep.max_form_difference < 1e-12
    assert bool(rep.upper_ok.all())


def test_energetic_and_ve_agree_on_single_convex_path():
    mesh, load, k0, pool, path = growth_strip()
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=1)
    part = TimePartition.uniform(load.horizon, 30)
    ve = run_scheme(inst, part, k0)
    qe = energetic_mode(inst, part, k0)
    # the viscous correction delays each single-edge advance by at most
    # one step of this partition, and the paths coincide
    for a, b in zip(ve.states, qe.states):
        assert a.issubset(b)
        assert b.cardinality - a.cardinality <= 1


# ---------------------------------------------------------------------------
# interpolant and refinement
# ---------------------------------------------------------------------------

def test_state_at_is_right_continuous():
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 30)
    evo = run_scheme(inst, part, CrackSet.empty(inst.mesh))
    i = evo.changing_steps()[0]
    t_jump = float(part.times[i])
    assert evo.state_at(t_jump).bits == evo.states[i].bits
    assert evo.state_at(t_jump - 1e-9).bits == evo.states[i - 1].bits
    assert evo.state_at(load.horizon + 1.0).bits == evo.states[-1].bits


def test_refine_constant_evolution_zero_distances():
    mesh, load, pool = nucleation_well()
    from vefrac.elastic import BoundaryLoad, LinearAmplitude
    frozen = BoundaryLoad(profile=np.zeros(mesh.n_vertices),
                          amplitude=LinearAmplitude(0.0, 0.0), horizon=1.0)
    inst = fracture_instance(mesh, frozen, PARAMS, pool)
    rep = refine_study(inst, CrackSet.empty(mesh), [0.5, 0.25, 0.125],
                       horizon=1.0, n_samples=5)
    assert rep.distances.shape == (2, 5)
    assert np.all(rep.distances == 0.0)


def test_refine_smooth_benchmark_stabilizes():
    mesh, load, k0, pool, path = growth_strip()
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=1)
    rep = refine_study(inst, k0, [0.4, 0.2, 0.1], horizon=load.horizon,
                       n_samples=9)
    assert rep.distances.shape == (2, 9)
    # refinement does not blow up: late-grid disagreement stays at the
    # scale of a single advancing edge
    edge = float(mesh.edge_lengths[path[0]])
    assert rep.distances[-1].max() <= 4 * edge + 1e-12
    with pytest.raises(ValueError, match="strictly decreasing"):
        refine_study(inst, k0, [0.1, 0.2], horizon=1.0)


# ---------------------------------------------------------------------------
# balance audit on true scheme output
# ---------------------------------------------------------------------------

def test_balance_audit_on_two_well_run():
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 60)
    evo = run_scheme(inst, part, CrackSet.empty(inst.mesh))
    rep = audit_balance(evo, inst)
    assert rep.max_form_difference < 1e-12
    assert bool(rep.upper_ok.all())
    # energies recomputed by the audit agree with the run ledger
    assert np.allclose(rep.energies, evo.ledger.energy, rtol=1e-13, atol=1e-15)
