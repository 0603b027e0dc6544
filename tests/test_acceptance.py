"""Desk-scale acceptance gate: one test per shipped guarantee.

Each test prints a single verdict line (visible with -v as the test
outcome, or with -s) and pins its tolerances inline. The checks stay
deliberately independent of the inner caches: energies are re-solved
through the public solver entry points, competitor sets re-enumerated
with itertools, chain costs re-summed by explicit enumeration.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from vefrac.benchmarks import (
    growth_strip,
    nucleation_well,
    rect_grid_mesh,
    square_grid_mesh,
    symmetric_strip,
)
from vefrac.cli_io import collect_audits, parse_config, save_archive
from vefrac.dissipation import (
    DissipationParams,
    alpha,
    atw_integral,
    dist_d,
)
from vefrac.elastic import solve_energy
from vefrac.evolution import (
    TimePartition,
    component_bound_check,
    detect_jumps,
    energetic_mode,
    fracture_instance,
    run_scheme,
)
from vefrac.geometry import CrackSet, h1_diff, hausdorff
from vefrac.griffith import TipPath, griffith_report
from vefrac.ve_core import (
    audit_balance,
    audit_jump_conditions,
    jump_cost,
    residual_stability,
)

PARAMS = DissipationParams(lam=0.1, mu=0.1)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def benchmark_runs():
    """The shipped benchmark runs: the two-well square (both modes),
    the single-tip growth strip, and the two-tip symmetric strip.

    Each run is paired with the instance that drove it; for the
    energetic mode that is the non-viscous system (no sweep integral,
    no mu-charge), since audits balance a run against its own costs."""
    runs = []

    mesh, load, pool = nucleation_well()
    part = TimePartition.uniform(12.0, 60)
    k0 = CrackSet.empty(mesh)
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=3)
    runs.append(("well-ve", inst, run_scheme(inst, part, k0)))

    inst_e = replace(inst, viscous=False)
    runs.append(("well-energetic", inst_e, run_scheme(inst_e, part, k0)))

    mesh, load, k0, pool, _ = growth_strip(
        nx=16, ny=8, width=2.0, height=1.0, x_scale=1.0,
        horizon=5.5, n_precracked=6)
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=1)
    runs.append(("strip", inst,
                 run_scheme(inst, TimePartition.uniform(5.5, 60), k0)))

    mesh, load, k0, pool, _, _ = symmetric_strip(nx=12, ny=6, arm=4)
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=2)
    runs.append(("symmetric", inst,
                 run_scheme(inst, TimePartition.uniform(4.0, 40), k0)))
    return runs


def _submasks(mask: int):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def test_01_quasi_distance_axioms():
    """Exhaustive lattice check of the dissipation axioms on a mesh of
    8-12 edges: d vanishes exactly on the diagonal, separates nested
    pairs, and both alpha and d satisfy the triangle inequality along
    every nested triple. Pairs that violate inclusion price at +inf, so
    only chains H <= K <= L carry information."""
    started = time.time()
    mesh = rect_grid_mesh(2, 1, width=2.0, height=1.0)
    ne = mesh.n_edges
    assert 8 <= ne <= 12
    states = [CrackSet.of_edges(mesh, [i for i in range(ne) if (b >> i) & 1])
              for b in range(1 << ne)]

    d_tab, a_tab = {}, {}
    for k in range(1 << ne):
        for h in _submasks(k):
            d_tab[(h, k)] = dist_d(states[h], states[k], PARAMS)
            a_tab[(h, k)] = alpha(states[h], states[k])

    identity_bad = sum(1 for k in range(1 << ne) if d_tab[(k, k)] != 0.0)
    separation_bad = sum(1 for (h, k), v in d_tab.items()
                         if h != k and not v > 0.0)

    tri_d_bad = tri_a_bad = triples = 0
    for l in range(1 << ne):
        for k in _submasks(l):
            dkl, akl = d_tab[(k, l)], a_tab[(k, l)]
            for h in _submasks(k):
                triples += 1
                rhs = d_tab[(h, k)] + dkl
                if d_tab[(h, l)] > rhs + 1e-12 * (1.0 + rhs):
                    tri_d_bad += 1
                if a_tab[(h, l)] > a_tab[(h, k)] + akl:
                    tri_a_bad += 1

    elapsed = time.time() - started
    ok = (identity_bad == 0 and separation_bad == 0
          and tri_d_bad == 0 and tri_a_bad == 0 and elapsed < 60.0)
    _verdict(1, ok,
             f"{ne}-edge lattice, {triples} nested triples: "
             f"{identity_bad} identity, {separation_bad} separation, "
             f"{tri_d_bad} d-triangle, {tri_a_bad} alpha-triangle "
             f"violations in {elapsed:.1f}s (limit 60s)")


def test_02_higher_order_bound():
    """Delta(H,K) <= excess(H,K) * H1(K\\H) on 10^4 seeded nested pairs;
    the excess comes from dense boundary sampling (resolution 0.02), so
    the admissible slack is -(resolution * length + quadrature tip)."""
    mesh = square_grid_mesh(4)
    rng = np.random.default_rng(20260817)
    resolution = 0.02
    worst = math.inf
    violations = 0
    for _ in range(10_000):
        in_k = rng.random(mesh.n_edges) < 0.25
        k_ids = [int(e) for e in np.flatnonzero(in_k)]
        keep = rng.random(len(k_ids)) < 0.5
        h = CrackSet.of_edges(mesh, [e for e, f in zip(k_ids, keep) if f])
        k = CrackSet.of_edges(mesh, k_ids)
        delta = atw_integral(h, k)
        length = h1_diff(h, k)
        slack = hausdorff(h, k, resolution=resolution) * length - delta
        tol = resolution * length + 1e-9 * (1.0 + delta)
        worst = min(worst, slack + tol)
        if slack < -tol:
            violations += 1
    _verdict(2, violations == 0,
             f"10000 nested pairs, {violations} violations, "
             f"worst slack+tol {worst:.3e}")


@pytest.mark.blas_rounding
def test_03_fem_correctness():
    """The affine datum g = y on the unit square gives E = 1/2 exactly
    (the solution is inside the P1 space); severing the full midline
    leaves two constant pieces with E = 0; the power a run reads off its
    fracture instance matches the centered finite difference of E."""
    mesh = square_grid_mesh(4, dirichlet="topbottom")
    well_mesh, load, _ = nucleation_well()

    affine = solve_energy(1.0, CrackSet.empty(well_mesh), load).energy
    affine_err = abs(affine - 0.5)

    cut = CrackSet.of_vertex_pairs(
        mesh, [(10, 11), (11, 12), (12, 13), (13, 14)])
    cut_energy = solve_energy(1.0, cut, load).energy

    crack = CrackSet.of_vertex_pairs(well_mesh, [(11, 12), (12, 13)])
    t, eps = 3.0, 1e-3
    fd = (solve_energy(t + eps, crack, load).energy
          - solve_energy(t - eps, crack, load).energy) / (2 * eps)
    p = fracture_instance(well_mesh, load, PARAMS, crack).power(t, crack)
    fd_rel = abs(p - fd) / abs(fd)

    ok = affine_err <= 1e-10 and abs(cut_energy) <= 1e-10 and fd_rel <= 1e-5
    _verdict(3, ok,
             f"|E-1/2| = {affine_err:.2e} (tol 1e-10), "
             f"cut E = {cut_energy:.2e} (tol 1e-10), "
             f"power vs FD rel {fd_rel:.2e} (tol 1e-5)")


def test_04_power_bound(benchmark_runs):
    """|dE/dt| <= C_P (E + 1) at every sampled (t, K) of every shipped
    run, with the run's own constant; zero violations, no tolerance."""
    checked = violations = 0
    margin = math.inf
    for name, inst, evo in benchmark_runs:
        cp = inst.power_bound
        for p, e in zip(evo.ledger.power, evo.ledger.energy):
            checked += 1
            bound = cp * (e + 1.0)
            margin = min(margin, bound - abs(p))
            if abs(p) > bound:
                violations += 1
    _verdict(4, violations == 0,
             f"{checked} sampled states across {len(benchmark_runs)} runs, "
             f"{violations} violations, smallest margin {margin:.3g}")


def test_05_scheme_optimality_and_search_agreement():
    """Certificate: every accepted step beats every competitor within
    the budget, re-enumerated with itertools and re-priced through the
    public solver (fresh unit-energy cache, E(t) = a(t)^2 E1). Search
    cross-check: exhaustive and greedy produce identical runs on the
    single-front growth strip with the full 12-edge pool. The two-well
    square is the designed counterexample - its two-edge nucleation has
    zero single-edge energy gap, so greedy provably never moves - and is
    pinned as such rather than folded into the agreement claim."""
    started = time.time()

    def certify(mesh, load, pool, budget, partition, k0):
        inst = fracture_instance(mesh, load, PARAMS, pool, budget=budget)
        evo = run_scheme(inst, partition, k0)
        unit = {}

        def energy(t, state):
            if state.bits not in unit:
                unit[state.bits] = solve_energy(1.0, state, load).energy
            return load.amplitude(t) ** 2 * unit[state.bits]

        worst = math.inf
        compared = 0
        for i in range(1, len(partition)):
            t = float(partition.times[i])
            prev, chosen = evo.states[i - 1], evo.states[i]
            own = energy(t, chosen) + dist_d(prev, chosen, PARAMS) \
                + atw_integral(prev, chosen) \
                + PARAMS.mu * alpha(prev, chosen)
            free = sorted(set(pool.edge_ids) - set(prev.edge_ids))
            for n_extra in range(0, min(budget, len(free)) + 1):
                for combo in itertools.combinations(free, n_extra):
                    comp = prev.with_edges(combo)
                    value = energy(t, comp) \
                        + dist_d(prev, comp, PARAMS) \
                        + atw_integral(prev, comp) \
                        + PARAMS.mu * alpha(prev, comp)
                    compared += 1
                    worst = min(worst, value - own + 1e-12 * (1.0 + abs(value)))
        return evo, worst, compared

    w_mesh, w_load, w_pool = nucleation_well()
    w_part = TimePartition.uniform(12.0, 40)
    w_empty = CrackSet.empty(w_mesh)
    _, worst_well, n_well = certify(w_mesh, w_load, w_pool, 3, w_part, w_empty)

    s_mesh, s_load, s_k0, s_pool, _ = growth_strip(
        nx=12, ny=6, width=2.0, height=1.0, x_scale=1.0,
        horizon=5.0, n_precracked=2)
    s_part = TimePartition.uniform(5.0, 40)
    _, worst_strip, n_strip = certify(s_mesh, s_load, s_pool, 3, s_part, s_k0)

    runs = {}
    for mode in ("exhaustive", "greedy"):
        inst = fracture_instance(s_mesh, s_load, PARAMS, s_pool,
                                 budget=3, search=mode)
        runs[mode] = run_scheme(inst, s_part, s_k0)
    agree = ([s.bits for s in runs["exhaustive"].states]
             == [s.bits for s in runs["greedy"].states])

    greedy_well = run_scheme(
        fracture_instance(w_mesh, w_load, PARAMS, w_pool,
                          budget=3, search="greedy"),
        w_part, w_empty)
    exhaustive_well = run_scheme(
        fracture_instance(w_mesh, w_load, PARAMS, w_pool, budget=3),
        w_part, w_empty)
    counterexample = (greedy_well.states[-1].cardinality == 0
                      and exhaustive_well.states[-1].cardinality == 2)

    elapsed = time.time() - started
    ok = (worst_well >= 0.0 and worst_strip >= 0.0 and agree
          and counterexample and elapsed < 300.0)
    _verdict(5, ok,
             f"certificate over {n_well}+{n_strip} competitors "
             f"(margins {worst_well:.2e}, {worst_strip:.2e}), "
             f"12-edge-pool search agreement {agree}, two-well greedy "
             f"stall pinned {counterexample}, {elapsed:.0f}s (limit 300s)")


def test_06_jump_cost_oracle():
    """The lattice search equals explicit enumeration of every monotone
    chain (identical float accumulation, so equality is exact), on ten
    seeded instances with gaps up to 8 edges; and the cost never falls
    below (lam+mu) * alpha across the whole transition."""
    mesh, load, _ = nucleation_well()
    rng = np.random.default_rng(617)
    interior = [e for e in range(mesh.n_edges)
                if e not in set(map(int, mesh.dirichlet_edges()))]
    lam_mu = PARAMS.lam + PARAMS.mu
    exact = floor_ok = 0
    sizes = [2, 3, 3, 4, 4, 5, 5, 6, 7, 8]
    for size in sizes:
        ids = rng.choice(interior, size=size + 2, replace=False)
        gap = [int(e) for e in ids[:size]]
        left = CrackSet.of_edges(mesh, [int(e) for e in ids[size:]])
        right = left.with_edges(gap)
        inst = fracture_instance(mesh, load, PARAMS, right, budget=2)
        t = float(rng.uniform(1.0, 10.0))

        full = (1 << size) - 1
        states = {m: left.with_edges(gap[i] for i in range(size)
                                     if (m >> i) & 1)
                  for m in range(1 << size)}
        r_tab = {m: residual_stability(t, states[m], inst).residual
                 for m in range(1 << size)}
        supersets, hop = {}, {}
        for m in range(1 << size):
            outs = []
            e = full ^ m
            while e:
                nxt = m | e
                outs.append(nxt)
                rec = inst.charges(states[m], states[nxt])
                hop[(m, nxt)] = (rec.sweep, rec.alpha)
                e = (e - 1) & (full ^ m)
            supersets[m] = outs

        best = [math.inf]

        def walk(m, acc):
            if m == full:
                if acc < best[0]:
                    best[0] = acc
                return
            r = r_tab[m]
            for nxt in supersets[m]:
                dl, al = hop[(m, nxt)]
                walk(nxt, acc + (r + dl + lam_mu * al))

        walk(0, 0.0)
        cost = jump_cost(t, left, right, inst).cost
        if cost == best[0]:
            exact += 1
        floor = lam_mu * alpha(left, right)
        if cost >= floor - 1e-12 * (1.0 + cost):
            floor_ok += 1
    ok = exact == len(sizes) and floor_ok == len(sizes)
    _verdict(6, ok,
             f"{exact}/{len(sizes)} exact matches against chain "
             f"enumeration, {floor_ok}/{len(sizes)} nucleation floors")


def test_07_balance_identity(benchmark_runs):
    """The two balance forms agree to 1e-12 on every run, and the upper
    energy estimate holds within the reported trapezoid bound."""
    worst_diff = 0.0
    upper_bad = 0
    for name, inst, evo in benchmark_runs:
        report = audit_balance(evo, inst, upper_tol=1e-9)
        worst_diff = max(worst_diff, report.max_form_difference)
        upper_bad += sum(1 for okay in report.upper_ok if not okay)
    ok = worst_diff < 1e-12 and upper_bad == 0
    _verdict(7, ok,
             f"forms differ by at most {worst_diff:.3g} (limit 1e-12), "
             f"{upper_bad} upper-estimate violations across "
             f"{len(benchmark_runs)} runs")


def test_08_stability_off_jumps():
    """On the refined two-well run (240 steps), the stability residual
    stays inside the solver tolerance at every step outside the jump
    window, and the three jump identities hold at the detected jump."""
    mesh, load, pool = nucleation_well()
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=3)
    evo = run_scheme(inst, TimePartition.uniform(12.0, 240),
                     CrackSet.empty(mesh))
    jumps = detect_jumps(evo)

    excluded = set()
    for rec in jumps:
        last = rec.index
        while evo.states[last].bits != rec.right.bits:
            last += 1
        excluded.update(range(rec.index, last + 1))
    worst = 0.0
    for i in range(len(evo.states)):
        if i in excluded:
            continue
        tol = inst.stability_tolerance(evo.ledger.energy[i])
        worst = max(worst, evo.ledger.r[i] - tol)

    audits = audit_jump_conditions(inst, jumps=jumps)
    scale = 1.0 + float(np.max(np.abs(evo.ledger.energy)))
    jtol = 2e-9 * scale
    jworst = max((max(abs(a.res_left), abs(a.res_right), abs(a.res_across))
                  for a in audits), default=0.0)

    ok = len(jumps) == 1 and worst <= 0.0 and jworst <= jtol
    _verdict(8, ok,
             f"{len(jumps)} jump detected, off-jump residual excess "
             f"{worst:.3g} (<= 0), jump identity residual {jworst:.3g} "
             f"(tol {jtol:.3g})")


def test_09_component_bound(benchmark_runs):
    """Component count stays below h + exp(C_P T)(E_0 + 1)/(lam + mu)
    on every run, including the nucleation-forcing two-well square."""
    bad = []
    detail = []
    for name, inst, evo in benchmark_runs:
        report = component_bound_check(evo, inst)
        detail.append(f"{name} {report.counts.max():.0f}/{report.bound:.3g}")
        if not report.ok:
            bad.append(name)
    _verdict(9, not bad, "worst/bound " + ", ".join(detail)
             + (f"; violated on {bad}" if bad else ""))


def test_10_griffith_quality():
    """Edge-cracked strip under a ramp, h = width/32 and tau = T/100:
    sigma is nondecreasing exactly; both tip estimators keep |k^2 - 1|
    within 0.2 at growing samples and the complementarity residual
    within 0.2 everywhere; the two estimators agree within 15% where
    the tip moves. The release estimator uses a one-edge lookahead, the
    fit estimator its default annulus."""
    started = time.time()
    mesh, load, k0, pool, path = growth_strip(
        nx=32, ny=16, width=2.0, height=1.0, x_scale=1.0,
        horizon=5.5, n_precracked=12)
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=1)
    evo = run_scheme(inst, TimePartition.uniform(5.5, 100), k0)
    tip = TipPath.along(mesh, path[12:])

    fit = griffith_report(evo, load, [tip], estimator="sif")
    rel = griffith_report(evo, load, [tip], estimator="release", h_steps=1)

    monotone = bool(np.all(np.diff(fit.sigma, axis=1) >= 0.0))
    growing = np.flatnonzero(np.diff(fit.sigma[0]) > 0.0) + 1
    fit_dev = float(np.max(np.abs(fit.kappa2[0, growing] - 1.0)))
    rel_dev = float(np.max(np.abs(rel.kappa2[0, growing] - 1.0)))
    fit_compl = float(np.max(np.abs(fit.complementarity)))
    rel_compl = float(np.max(np.abs(rel.complementarity)))
    agreement = float(np.max(
        np.abs(fit.kappa2[0, growing] - rel.kappa2[0, growing])
        / rel.kappa2[0, growing]))
    elapsed = time.time() - started

    ok = (monotone and len(growing) >= 5
          and fit_dev <= 0.2 and rel_dev <= 0.2
          and fit_compl <= 0.2 and rel_compl <= 0.2
          and agreement <= 0.15 and elapsed < 600.0)
    _verdict(10, ok,
             f"sigma monotone {monotone}, {len(growing)} growing samples, "
             f"|k2-1| fit {fit_dev:.3f} / release {rel_dev:.3f} (tol 0.2), "
             f"complementarity {fit_compl:.3f} / {rel_compl:.3f} (tol 0.2), "
             f"estimator agreement {agreement:.1%} (tol 15%), "
             f"{elapsed:.0f}s (limit 600s)")


def test_11_ve_vs_energetic():
    """Across the shipped (lam, mu) sweep on the two-well square, the
    globally minimizing mode jumps strictly earlier than the viscously
    corrected mode for at least one parameter value: the corrected
    scheme suppresses the too-early jump."""
    mesh, load, pool = nucleation_well()
    part = TimePartition.uniform(12.0, 60)
    k0 = CrackSet.empty(mesh)
    detail = []
    strictly_earlier = 0
    for lam_mu in (0.05, 0.1, 0.4):
        params = DissipationParams(lam=lam_mu, mu=lam_mu)
        inst = fracture_instance(mesh, load, params, pool, budget=3)
        first_e = (energetic_mode(inst, part, k0).changing_steps() or [None])[0]
        first_v = (run_scheme(inst, part, k0).changing_steps() or [None])[0]
        detail.append(f"lam=mu={lam_mu}: energetic {first_e}, ve {first_v}")
        if first_e is not None and (first_v is None or first_e < first_v):
            strictly_earlier += 1
    _verdict(11, strictly_earlier >= 1, "; ".join(detail))


def test_12_deterministic_archives(tmp_path):
    """Two independent builds of the same run serialize byte-identically:
    fixed tie-breaks, fixed iteration orders, fixed float formatting."""
    cfg = parse_config(
        "[run]\nmesh = unused.mesh\nlambda = 0.1\nmu = 0.1\n")
    payloads = []
    for tag in ("a", "b"):
        mesh, load, pool = nucleation_well()
        inst = fracture_instance(mesh, load, PARAMS, pool, budget=3)
        evo = run_scheme(inst, TimePartition.uniform(12.0, 60),
                         CrackSet.empty(mesh))
        jumps = detect_jumps(evo)
        audits = collect_audits(evo, inst, jumps, cfg)
        path = save_archive(evo, audits, tmp_path / f"{tag}.json",
                            jumps=jumps)
        payloads.append(path.read_bytes())
    ok = payloads[0] == payloads[1]
    _verdict(12, ok, f"two builds, archives identical: {ok} "
                     f"({len(payloads[0])} bytes)")
