from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from vefrac.benchmarks import growth_strip, nucleation_well, square_grid_mesh
from vefrac.cli_io import _run_to_archive, build_run, parse_config
from vefrac.dissipation import (
    DissipationParams,
    alpha,
    atw_integral,
    big_d,
    delta_atw,
    dist_d,
    hop_cost,
    single_hop,
    var_along,
)
from vefrac.elastic import ElasticError, solve_energy, solve_on_space, space_key
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
from vefrac.ve_core import audit_balance, audit_jump_conditions, residual_stability

import _oracles as oracle

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
        assert evo.ledger.d[i] == dist_d(prev, cur, inst.params)
        assert evo.ledger.delta[i] == atw_integral(prev, cur, inst.params)
        assert evo.ledger.alpha[i] == alpha(prev, cur)


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
    cost = (dist_d(k0, grown, inst.params)
            + atw_integral(k0, grown, inst.params))
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
    assert alpha(rec.left, rec.at) == 1.0
    assert math.isclose(rec.magnitude,
                        dist_d(rec.left, rec.at, inst.params),
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


def test_component_bound_follows_the_charged_rate():
    # the a-priori bound divides by what one nucleation is charged:
    # lam + mu in the VE scheme, lam alone for energetic solutions
    inst, load = well_instance()
    partition = TimePartition.uniform(load.horizon, 30)
    growth = math.exp(inst.power_bound * load.horizon)
    for viscous, rate in ((True, PARAMS.lam + PARAMS.mu), (False, PARAMS.lam)):
        run = replace(inst, viscous=viscous)
        evo = run_scheme(run, partition, CrackSet.empty(inst.mesh))
        rep = component_bound_check(evo, run)
        assert rep.bound == growth * (float(evo.ledger.energy[0]) + 1.0) / rate
        assert rep.ok


def test_large_nucleation_price_prevents_growth():
    heavy = DissipationParams(lam=500.0, mu=500.0)
    inst, load = well_instance(params=heavy)
    evo = run_scheme(inst, TimePartition.uniform(load.horizon, 20),
                     CrackSet.empty(inst.mesh))
    assert np.all(evo.ledger.alpha == 0.0)
    assert all(k.is_empty for k in evo.states)


def test_energy_below_the_floor_raises(monkeypatch):
    import vefrac.evolution as evolution

    inst, _ = well_instance()
    assert inst.energy_floor == evolution.ENERGY_FLOOR == -1e-12
    # every energy of the well run is >= 0; a floor above them must trip
    monkeypatch.setattr(evolution, "ENERGY_FLOOR", 1.0)
    inst, _ = well_instance()
    assert inst.energy_floor == 1.0
    with pytest.raises(ElasticError, match=r"^energy floor 1\.0 undercut: E = 0\.0 "):
        run_scheme(inst, TimePartition.uniform(1.0, 2), CrackSet.empty(inst.mesh))


# ---------------------------------------------------------------------------
# the instance's hop pricer
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
        assert single_hop(inst.hops, h, k) == hop_cost(h, k, params)
        charged = inst.charges(h, k)
        if not h.issubset(k):
            assert charged is None and big_d(h, k, params) == math.inf
            continue
        assert charged.d == dist_d(h, k, params)
        assert charged.big_d == big_d(h, k, params)
        assert charged.big_d == (dist_d(h, k, params)
                                 + delta_atw(h, k, params))
        assert charged.sweep == atw_integral(h, k, params)
        assert charged.alpha == alpha(h, k)


def _workload_run(bench_workloads, workload, work):
    """The run context of a benchmark workload's config, not yet run."""
    inputs = bench_workloads.generate(workload, work, 1)
    return build_run(parse_config(inputs.config.read_text(encoding="utf-8")),
                     inputs.config.parent.resolve())


@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_workload_hops_match_the_reference_pricing(workload, tmp_path, monkeypatch,
                                                   bench_workloads):
    # every hop a benchmark run prices, one at a time in the step, the
    # ledger and the audits, or as a candidate of a ranking's batch, is
    # the record the reference pricing gives, and charges the reference
    # record's D, bit for bit
    import vefrac.ve_core as ve_core

    ctx = _workload_run(bench_workloads, workload, tmp_path)
    inst = ctx.instance
    batch_hops = inst.hops
    records = {}
    batches = []

    def one(_, h, k):
        # priced by the run's own pricer, so `batches` holds rankings only
        record = single_hop(batch_hops, h, k)
        records.setdefault((h.bits, k.bits), (h, k, record))
        return record

    def hops(h, new):
        priced = batch_hops(h, new)
        batches.append((h, new.copy(), priced))
        return priced

    monkeypatch.setattr(ve_core, "single_hop", one)
    inst.hops = hops
    _run_to_archive(ctx, tmp_path / "out")
    assert len(records) == {"strip": 9, "grid": 10, "fine": 10}[workload]
    for h, k, record in records.values():
        expected = oracle.reference_hop_cost(h, k, inst.params)
        if expected is None:
            assert record is None
            continue
        assert (record.h1, record.sweep, record.alpha) == \
            (expected.h1, expected.sweep, expected.alpha)
    candidates = 0
    for h, new, priced in batches:
        big_d = priced.charges(inst.params, inst.viscous).big_d.tolist()
        for i, row in enumerate(new.tolist()):
            expected = oracle.reference_hop_cost(h, h.with_edges(row), inst.params)
            assert (priced.h1[i], priced.sweep[i], priced.alpha[i]) == \
                (expected.h1, expected.sweep, expected.alpha)
            assert big_d[i] == expected.charges(inst.params, inst.viscous).big_d
            candidates += 1
    assert candidates == {"strip": 255, "grid": 3250, "fine": 16}[workload]


@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_workload_energies_match_a_solve_per_crack_set(workload, tmp_path,
                                                       bench_workloads):
    # every crack set a benchmark run looks up gets the (E1, p1) of a
    # space built and solved for that set alone, bit for bit
    ctx = _workload_run(bench_workloads, workload, tmp_path)
    _run_to_archive(ctx, tmp_path / "out")
    cache = ctx.instance.energy.__self__
    assert len(cache._entries) > len(cache._by_space) > 1
    for bits, entry in cache._entries.items():
        crack = CrackSet(ctx.mesh, bits)
        assert entry == oracle.reference_energy_entry(ctx.mesh, ctx.load, crack)


@pytest.mark.parametrize("workload, crack_sets, solves",
                         [("strip", 163, 45), ("grid", 1267, 470), ("fine", 14, 6)])
def test_workload_solves_each_cracked_space_once(workload, crack_sets, solves,
                                                 tmp_path, monkeypatch, bench_workloads):
    import vefrac.evolution as evolution

    solved = []

    def counted(t, space, load):
        solved.append(space_key(space.mesh, space.crack))
        return solve_on_space(t, space, load)

    monkeypatch.setattr(evolution, "solve_on_space", counted)
    for run in ("first", "second"):
        solved.clear()
        ctx = _workload_run(bench_workloads, workload, tmp_path / run)
        _run_to_archive(ctx, tmp_path / run / "out")
        assert len(ctx.instance.energy.__self__._entries) == crack_sets
        assert len(solved) == len(set(solved)) == solves


@pytest.mark.parametrize("workload, expected", [
    ("strip", {"solves": 45, "builds": 45, "rankings": 9, "priced": 288,
               "lookups": 33}),
    ("grid", {"solves": 470, "builds": 470, "rankings": 3, "priced": 3266,
              "lookups": 16}),
    ("fine", {"solves": 6, "builds": 6, "rankings": 3, "priced": 32,
              "lookups": 16}),
], ids=["strip", "grid", "fine"])
def test_workload_work_counts_repeat(workload, expected, tmp_path, monkeypatch,
                                     bench_workloads):
    # per run in this process: one space build and one FEM solve per
    # distinct cracked space, one batch ranking per (source, state) the
    # scans rank, and every hop priced once: a ranking's candidates in
    # its batch, and each hop looked up outside a ranking (the step's
    # ledger row and the audits; a step that keeps its state looks up
    # none) as a batch of one. Every count repeats exactly
    import vefrac.dissipation as dissipation
    import vefrac.evolution as evolution
    import vefrac.ve_core as ve_core
    from vefrac.dissipation import HopPricer

    counts = dict.fromkeys(expected, 0)

    def counted(name, fn, size=lambda *args: 1):
        def wrapper(*args, **kwargs):
            counts[name] += size(*args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evolution, "solve_on_space",
                        counted("solves", evolution.solve_on_space))
    monkeypatch.setattr(evolution, "split_along_crack",
                        counted("builds", evolution.split_along_crack))
    monkeypatch.setattr(ve_core, "_rank", counted("rankings", ve_core._rank))
    monkeypatch.setattr(HopPricer, "hops",
                        counted("priced", HopPricer.hops, lambda _, h, new: len(new)))
    for module in (ve_core, dissipation):
        monkeypatch.setattr(module, "single_hop", counted("lookups", single_hop))
    for run in ("first", "second"):
        counts.update(dict.fromkeys(expected, 0))
        ctx = _workload_run(bench_workloads, workload, tmp_path / run)
        _run_to_archive(ctx, tmp_path / run / "out")
        assert counts == expected


@pytest.mark.parametrize("workload, counts",
                         [("strip", [(1, 0)] * 8), ("grid", [(1, 2), (1, 1)]),
                          ("fine", [(1, 2), (1, 1)])],
                         ids=["strip", "grid", "fine"])
def test_workload_jump_costs_cut_by_the_witness(workload, counts, tmp_path,
                                                monkeypatch, bench_workloads):
    # (expanded, pruned) of every jump_cost call a benchmark run makes, in
    # call order: every node that is cut off is cut by its witness K+
    import vefrac.cli_io as cli_io
    import vefrac.ve_core as ve_core

    search = ve_core.jump_cost
    seen = []

    def counted(*args):
        result = search(*args)
        seen.append((result.expanded, result.pruned))
        return result

    for module in (ve_core, cli_io):
        monkeypatch.setattr(module, "jump_cost", counted)
    for run in ("first", "second"):
        seen.clear()
        ctx = _workload_run(bench_workloads, workload, tmp_path / run)
        _run_to_archive(ctx, tmp_path / run / "out")
        assert seen == counts


def test_hop_table_rejects_another_mesh():
    inst, _ = well_instance()
    other, _, _ = nucleation_well()
    h = CrackSet.empty(inst.mesh)
    k = inst.pool
    inst.charges(h, k)  # the pricer now holds (empty -> pool)
    h2, k2 = CrackSet(other, h.bits), CrackSet(other, k.bits)
    for a, b in ((h2, k2), (h, k2), (h2, k)):
        for cost in (inst.charges, inst.ranking):
            with pytest.raises(MeshError, match="different meshes"):
                cost(a, b)


def test_memos_refuse_a_crack_set_of_another_mesh():
    # the ranking memo, the residual memo and the energy cache each hold
    # an entry for a state with the same bits as s2, a crack set of a
    # separately built mesh; none of them may answer for it
    inst, _ = well_instance()
    other, _, _ = nucleation_well()
    state = CrackSet.of_edges(inst.mesh, inst.pool.edge_ids[:1])
    residual_stability(0.5, state, inst)
    s2 = CrackSet(other, state.bits)
    for read in (lambda: inst.ranking(s2, s2),
                 lambda: residual_stability(0.5, s2, inst),
                 lambda: inst.energy(0.5, s2)):
        with pytest.raises(MeshError):
            read()
    assert inst.ranking(state, state) is inst._ranked
    assert (0.5, state) in inst.residuals and (0.5, s2) not in inst.residuals


# ---------------------------------------------------------------------------
# energetic mode
# ---------------------------------------------------------------------------

def test_energetic_mode_ignores_a_warm_hop_table():
    # A VE run fills the hop pricer with sweep integrals; neither
    # energetic_mode nor a non-viscous copy sharing the pricer may
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
    for audit in audit_jump_conditions(energetic, jumps=jumps):
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
