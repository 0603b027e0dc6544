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
    delta_atw,
    dist_d,
    hop_cost,
    single_hop,
)
from vefrac import evolution as evolution_module
from vefrac.elastic import ElasticError, solve_energy, space_key
from vefrac.evolution import (
    DiscreteEvolution,
    JumpRecord,
    TimePartition,
    component_bound_check,
    detect_jumps,
    energetic_mode,
    fracture_instance,
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
        assert evo.ledger.delta[i] == atw_integral(prev, cur)
        assert evo.ledger.alpha[i] == alpha(prev, cur)


def test_ledger_reads_each_state_at_its_own_time():
    # the step into K_i happens at t_i: row i holds E and dE/dt of K_i at
    # t_i, and power_pre the old state K_{i-1} at the same t_i
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 30)
    evo = run_scheme(inst, part, CrackSet.empty(inst.mesh))
    onset = evo.changing_steps()[0]
    for i in (0, onset - 1, onset, len(part.times) - 1):
        t, state = float(part.times[i]), evo.states[i]
        assert evo.ledger.energy[i] == inst.energy(t, state)
        assert evo.ledger.power[i] == inst.power(t, state)
        assert evo.ledger.power_pre[i] == inst.power(t, evo.states[max(i - 1, 0)])
    assert evo.states[onset].bits != evo.states[onset - 1].bits

def test_var_d_reconstruction_of_run():
    inst, load = well_instance()
    part = TimePartition.uniform(load.horizon, 24)
    evo = run_scheme(inst, part, CrackSet.empty(inst.mesh))
    got = 0.0
    for prev, cur in zip(evo.states, evo.states[1:]):
        got += dist_d(prev, cur, inst.params)
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
            + atw_integral(k0, grown))
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


def test_typical_d_is_numpys_median_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in [1, 2, 3, 4, 5, 8, 9, 40, 41]:
        for _ in range(50):
            values = rng.random(n) * 10.0 ** rng.integers(-12, 12, n)
            values[rng.random(n) < 0.2] = values[0]
            if rng.random() < 0.2:
                values[rng.integers(n)] = math.inf
            got = evolution_module._median(values)
            assert got.hex() == float(np.median(values)).hex()


def test_jump_records_match_those_judged_by_numpys_median(monkeypatch):
    # strip growth changes 8 steps, so each is judged by the median of 7
    # others; dropping one step's d leaves 6, an even count
    mesh, load, k0, pool, path = growth_strip()
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=2)
    evo = run_scheme(inst, TimePartition.uniform(load.horizon, 40), k0)
    d = evo.ledger.d.copy()
    d[np.flatnonzero(d > 0.0)[3]] = 0.0
    dropped = replace(evo, ledger=replace(evo.ledger, d=d))
    for run in (evo, dropped):
        for threshold in (0.0, 1.0, 1.5, 10.0):
            got = detect_jumps(run, threshold=threshold)
            with monkeypatch.context() as m:
                m.setattr(evolution_module, "_median", lambda v: float(np.median(v)))
                assert detect_jumps(run, threshold=threshold) == got


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
        assert rep.log_bound == math.log(rep.bound)
        assert rep.ok


def test_component_bound_past_the_largest_float():
    # at C_P T = 709 exp is finite but the bound is not; at 1e4 exp
    # itself overflows. Either way the bound holds, as a log.
    inst, load = well_instance()
    evo = run_scheme(inst, TimePartition.uniform(load.horizon, 30),
                     CrackSet.empty(inst.mesh))
    scale = (float(evo.ledger.energy[0]) + 1.0) / (PARAMS.lam + PARAMS.mu)
    for growth in (709.0, 1e4):
        run = replace(inst, power_bound=growth / load.horizon)
        rep = component_bound_check(evo, run)
        assert rep.bound == math.inf and rep.ok
        assert math.isclose(rep.log_bound, growth + math.log(scale), rel_tol=1e-15)


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
    assert evolution.E1_FLOOR == -1e-12
    # the check is on E1, so it trips at a(0) = 0 too: the well's E1 at
    # the empty crack is about 0.5, below a declared E1 floor of 1
    monkeypatch.setattr(evolution, "E1_FLOOR", 1.0)
    with pytest.raises(ElasticError, match=r"^E1 floor 1\.0 undercut: E1 = 0\.49999"
                                           r"\d* at t = 0\.0 on crack edges \[\]$"):
        run_scheme(inst, TimePartition.uniform(1.0, 2), CrackSet.empty(inst.mesh))


# ---------------------------------------------------------------------------
# the instance's hop pricing
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
        assert single_hop(inst.hops, h, k) == hop_cost(h, k)
        charged = inst.charges(h, k)
        if not h.issubset(k):
            assert charged is None and oracle.reference_big_d(h, k, params) == math.inf
            continue
        assert charged.d == dist_d(h, k, params)
        assert charged.big_d == oracle.reference_big_d(h, k, params)
        assert charged.big_d == (dist_d(h, k, params)
                                 + delta_atw(h, k, params))
        assert charged.sweep == atw_integral(h, k)
        assert charged.alpha == alpha(h, k)


def _workload_run(bench_workloads, workload, work):
    """The run context of a benchmark workload's config, not yet run."""
    inputs = bench_workloads.generate(workload, work, 1)
    return build_run(parse_config(inputs.config.read_text(encoding="utf-8")),
                     inputs.config.parent.resolve())


@pytest.mark.blas_rounding
@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_workload_hops_match_the_reference_pricing(workload, tmp_path, monkeypatch,
                                                   bench_workloads):
    # every hop a benchmark run prices, one at a time in the audits, or
    # as a candidate of a ranking's batch (a step's ledger row reads its
    # winner's record off that batch), is the record the reference
    # pricing gives, and charges the reference record's D, bit for bit
    import vefrac.ve_core as ve_core

    ctx = _workload_run(bench_workloads, workload, tmp_path)
    inst = ctx.instance
    batch_hops = inst.hops
    records = {}
    batches = []

    def one(_, h, k):
        # priced by the run's own `hops`, so `batches` holds rankings only
        record = single_hop(batch_hops, h, k)
        records.setdefault((h.bits, k.bits), (h, k, record))
        return record

    def hops(h, new):
        priced = batch_hops(h, new)
        batches.append((h, list(new), priced))
        return priced

    monkeypatch.setattr(ve_core, "single_hop", one)
    inst.hops = hops
    _run_to_archive(ctx, tmp_path / "out")
    assert len(records) == {"strip": 0, "grid": 7, "fine": 7}[workload]
    for h, k, record in records.values():
        expected = oracle.reference_hop_cost(h, k)
        if expected is None:
            assert record is None
            continue
        assert (record.h1, record.sweep, record.alpha) == \
            (expected.h1, expected.sweep, expected.alpha)
    candidates = 0
    for h, new, priced in batches:
        big_d = priced.charges(inst.params, inst.viscous).big_d.tolist()
        for i, row in enumerate(new):
            expected = oracle.reference_hop_cost(h, h.with_edges(row))
            assert (priced.h1[i], priced.sweep[i], priced.alpha[i]) == \
                (expected.h1, expected.sweep, expected.alpha)
            assert big_d[i] == expected.charges(inst.params, inst.viscous).big_d
            candidates += 1
    assert candidates == {"strip": 255, "grid": 3250, "fine": 16}[workload]


@pytest.mark.blas_rounding
@pytest.mark.parametrize("workload, rankings", [("strip", 9), ("grid", 3), ("fine", 3)])
def test_workload_rankings_call_hops_once(workload, rankings, tmp_path, monkeypatch,
                                          bench_workloads):
    # every ranking of a benchmark run prices all its competitors, of
    # every width, in one `hops` call in competitors() order
    import vefrac.ve_core as ve_core

    ctx = _workload_run(bench_workloads, workload, tmp_path)
    inst = ctx.instance
    batch_hops, rank = inst.hops, ve_core._rank
    calls, seen = [], []

    def hops(h, new):
        calls.append([len(edges) for edges in new])
        return batch_hops(h, new)

    def ranked(source, state, instance):
        calls.clear()
        ranking = rank(source, state, instance)
        widths = [k.minus(source).cardinality for k in instance.competitors(state)]
        seen.append(calls == [widths])
        return ranking

    monkeypatch.setattr(ve_core, "_rank", ranked)
    inst.hops = hops
    _run_to_archive(ctx, tmp_path / "out")
    assert seen == [True] * rankings


@pytest.mark.blas_rounding
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


@pytest.mark.blas_rounding
@pytest.mark.parametrize("workload", ["strip", "grid", "fine"])
def test_workload_runs_solve_every_space_in_blocks(workload, tmp_path, monkeypatch,
                                                   bench_workloads):
    # past the set-up, which builds the empty crack's space for C_P, a
    # benchmark run builds and solves every space through `solve_block`:
    # with the lone entry points raising in every module that binds
    # them, it writes the archive of the benchmark's references
    import hashlib
    import json
    import sys
    from pathlib import Path

    inputs = bench_workloads.generate(workload, tmp_path, 1)
    base = inputs.config.parent.resolve()
    ctx = build_run(parse_config(inputs.config.read_text(encoding="utf-8")), base)

    def lone(*args):
        raise AssertionError("a run built or solved a space outside solve_block")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "vefrac":
            for attr in ("split_along_crack", "solve_on_space"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, lone)
    text = _run_to_archive(ctx, tmp_path / "out")[3].read_text(encoding="utf-8")
    echo = '"base": ' + json.dumps(str(base))
    assert echo in text
    digest = hashlib.sha256(text.replace(echo, '"base": "."', 1).encode("utf-8")).hexdigest()
    references = Path(bench_workloads.__file__).with_name("references.json")
    assert digest == json.loads(references.read_text(encoding="utf-8"))[workload]["archive_sha256"]


def _count_space_solves(monkeypatch, counts, key=None):
    """Count, under counts["builds"], ["solves"] and ["blocks"], the
    spaces that the fracture instance's energy cache builds and solves
    in the blocks of `solve_block`, and the blocks. With `key`, also
    list key(crack) of every space solved."""
    import vefrac.evolution as evolution

    block_solve = evolution.solve_block

    def solve_block(block, load):
        counts["builds"] += len(block)
        counts["solves"] += len(block)
        counts["blocks"] += 1
        if key is not None:
            counts["solved"] += [key(plan.crack) for plan in block]
        return block_solve(block, load)

    monkeypatch.setattr(evolution, "solve_block", solve_block)


@pytest.mark.blas_rounding
@pytest.mark.parametrize("workload, crack_sets, solves",
                         [("strip", 72, 30), ("grid", 1304, 500), ("fine", 13, 6)])
def test_workload_solves_each_cracked_space_once(workload, crack_sets, solves,
                                                 tmp_path, monkeypatch, bench_workloads):
    # in a block of one or of many, every space that a run solves is new
    counts = {}
    _count_space_solves(monkeypatch, counts, lambda crack: space_key(crack.mesh, crack))
    for run in ("first", "second"):
        counts.update(builds=0, solves=0, blocks=0, solved=[])
        ctx = _workload_run(bench_workloads, workload, tmp_path / run)
        _run_to_archive(ctx, tmp_path / run / "out")
        assert len(ctx.instance.energy.__self__._entries) == crack_sets
        assert len(counts["solved"]) == len(set(counts["solved"])) == solves


@pytest.mark.blas_rounding
@pytest.mark.parametrize("workload, expected", [
    ("strip", {"solves": 30, "builds": 30, "blocks": 19, "rankings": 9, "priced": 255,
               "lookups": 0, "hops": 9}),
    ("grid", {"solves": 500, "builds": 500, "blocks": 20, "rankings": 3, "priced": 3257,
              "lookups": 7, "hops": 10}),
    ("fine", {"solves": 6, "builds": 6, "blocks": 6, "rankings": 3, "priced": 23,
              "lookups": 7, "hops": 10}),
], ids=["strip", "grid", "fine"])
def test_workload_work_counts_repeat(workload, expected, tmp_path, monkeypatch,
                                     bench_workloads):
    # per run in this process: one space build and one FEM solve per
    # distinct cracked space, in a block of one or in one of the larger
    # blocks that the scans' prefetches solve, one batch ranking per (source, state) the
    # scans rank, and every hop priced once: a ranking's candidates in
    # its one `hops` call, whose scan files its winners' charges (the
    # hop a step's ledger row and the audits read), and each other
    # distinct hop the audits look up as a call of one, whose charges
    # the instance keeps, so `hops` calls are rankings plus distinct
    # lookups. Every count repeats exactly
    import vefrac.dissipation as dissipation
    import vefrac.evolution as evolution
    import vefrac.ve_core as ve_core

    counts = dict.fromkeys(expected, 0)

    def counted(name, fn, size=lambda *args: 1):
        def wrapper(*args, **kwargs):
            counts[name] += size(*args)
            return fn(*args, **kwargs)
        return wrapper

    _count_space_solves(monkeypatch, counts)
    monkeypatch.setattr(ve_core, "_rank", counted("rankings", ve_core._rank))
    monkeypatch.setattr(evolution, "price_hops",
                        counted("hops", counted("priced", evolution.price_hops,
                                                lambda h, new: len(new))))
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
    inst.charges(h, k)
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
    # A VE run prices hops with their sweep integrals; neither
    # energetic_mode nor a non-viscous copy sharing its `hops` may
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
