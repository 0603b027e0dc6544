from __future__ import annotations

import numpy as np
import pytest

from vefrac.benchmarks import growth_strip, rect_grid_mesh, symmetric_strip
from vefrac.dissipation import DissipationParams
from vefrac.elastic import BoundaryLoad, LinearAmplitude
from vefrac.evolution import TimePartition, fracture_instance, run_scheme
from vefrac.geometry import CrackSet
from vefrac.griffith import (
    GriffithError,
    TipPath,
    check_kkt,
    griffith_report,
    track_tips,
)
from vefrac.ve_core import residual_stability

PARAMS = DissipationParams(lam=0.1, mu=0.1)


class _FakeRun:
    """Bare states container for exercising the structure validation
    without paying for an actual scheme run."""

    def __init__(self, states):
        self.states = states


@pytest.fixture(scope="module")
def strip():
    """Small edge-cracked strip with steady tip growth. Coarse on
    purpose: cheap enough to track the tips of every state."""
    mesh, load, k0, pool, path = growth_strip(
        nx=16, ny=8, width=2.0, height=1.0, x_scale=1.0,
        horizon=5.5, n_precracked=6)
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=1)
    evo = run_scheme(inst, TimePartition.uniform(5.5, 60), k0)
    return mesh, load, k0, pool, path, inst, evo


@pytest.fixture(scope="module")
def strip_path(strip):
    mesh, _, _, _, path, _, _ = strip
    return TipPath.along(mesh, path[6:])


# ---------------------------------------------------------------------------
# tip paths
# ---------------------------------------------------------------------------

def test_path_orientation_and_arclength(strip):
    mesh, _, _, _, path, _, _ = strip
    p = TipPath.along(mesh, path[6:9])
    assert len(p) == 3
    assert len(p.vertices) == 4
    # horizontal midline edges of the 16x8 strip: spacing 0.125
    np.testing.assert_allclose(p.sigma_grid, [0.0, 0.125, 0.25, 0.375])
    np.testing.assert_allclose(p.point(0), [0.75, 0.5])
    np.testing.assert_allclose(p.heading(0), [1.0, 0.0])
    # past the last vertex the heading keeps the final edge direction
    np.testing.assert_allclose(p.heading(3), [1.0, 0.0])


def test_path_single_edge_needs_start(strip):
    mesh, _, _, _, path, _, _ = strip
    with pytest.raises(GriffithError, match="explicit start"):
        TipPath.along(mesh, [path[6]])
    p = TipPath.along(mesh, path[6:8])
    fwd = TipPath.along(mesh, [path[6]], start=p.vertices[0])
    rev = TipPath.along(mesh, [path[6]], start=p.vertices[1])
    assert fwd.vertices == (p.vertices[0], p.vertices[1])
    assert rev.vertices == (p.vertices[1], p.vertices[0])


def test_path_validation_errors(strip):
    mesh, _, _, _, path, _, _ = strip
    with pytest.raises(GriffithError, match="at least one edge"):
        TipPath.along(mesh, [])
    with pytest.raises(GriffithError, match="repeats an edge"):
        TipPath.along(mesh, [path[6], path[6]])
    with pytest.raises(GriffithError, match="out of range"):
        TipPath.along(mesh, [mesh.n_edges])
    with pytest.raises(GriffithError, match="share exactly one vertex"):
        TipPath.along(mesh, [path[6], path[8]])
    with pytest.raises(GriffithError, match="not on the first edge"):
        TipPath.along(mesh, path[6:8], start=0)


def test_path_rejects_cycles():
    mesh = rect_grid_mesh(2, 2)
    ei = mesh.edge_index
    cycle = [ei[(0, 1)], ei[(1, 4)], ei[(3, 4)], ei[(0, 3)]]
    with pytest.raises(GriffithError, match="visits a vertex twice"):
        TipPath.along(mesh, cycle, start=0)


# ---------------------------------------------------------------------------
# arclength tracking
# ---------------------------------------------------------------------------

def test_track_static_run(strip, strip_path):
    # stop the ramp well below the tearing threshold: nothing moves.
    # high lambda would not do it here, since growing along the midline
    # keeps one component and never pays the nucleation charge.
    mesh, load, k0, pool, _, inst, _ = strip
    evo = run_scheme(inst, TimePartition.uniform(2.0, 10), k0)
    sig = track_tips(evo, [strip_path])
    assert sig.shape == (1, 11)
    assert np.all(sig == 0.0)


def test_track_growth_increments(strip, strip_path):
    mesh, _, k0, _, _, _, evo = strip
    sig = track_tips(evo, [strip_path])
    assert sig.shape == (1, len(evo.partition.times))
    steps = np.diff(sig[0])
    assert np.all(steps >= 0.0)
    # budget 1: at most one edge per step
    assert steps.max() <= 0.125 + 1e-12
    grown = evo.states[-1].cardinality - k0.cardinality
    assert sig[0, -1] == pytest.approx(0.125 * grown)


def test_track_two_tips_symmetric_exactly():
    mesh, load, k0, pool, left, right = symmetric_strip(
        nx=12, ny=6, width=3.0, height=1.5, x_scale=1.0, horizon=4.0, arm=4)
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=2)
    evo = run_scheme(inst, TimePartition.uniform(4.0, 40), k0)
    lt = TipPath.along(mesh, left)
    rt = TipPath.along(mesh, right)
    sig = track_tips(evo, [lt, rt])
    # mirrored mesh, mirrored profile: the two tips advance in lockstep,
    # bit for bit
    assert np.array_equal(sig[0], sig[1])
    assert sig[0, -1] > 0.0


def test_track_validation_errors(strip, strip_path):
    mesh, _, k0, _, path, _, evo = strip
    other = rect_grid_mesh(16, 8, width=2.0, height=1.0,
                           dirichlet="topbottom")
    foreign = TipPath.along(other, path[6:8])
    with pytest.raises(GriffithError, match="different mesh"):
        track_tips(evo, [foreign])
    # anchored off the crack
    loose = TipPath.along(mesh, path[8:10])
    with pytest.raises(GriffithError, match="start on the initial crack"):
        track_tips(evo, [loose])
    # running back into the crack
    inward = TipPath.along(mesh, [path[5], path[6]])
    with pytest.raises(GriffithError, match="re-enters"):
        track_tips(evo, [inward])
    with pytest.raises(GriffithError, match="intersect"):
        track_tips(evo, [strip_path, TipPath.along(mesh, path[6:8])])


def test_track_structure_errors(strip, strip_path):
    mesh, _, k0, _, path, _, _ = strip
    # growth that skips an edge of the declared path
    gap = _FakeRun([k0, k0.with_edges([path[7]])])
    with pytest.raises(GriffithError, match="not a contiguous prefix"):
        track_tips(gap, [strip_path])
    # growth somewhere else entirely
    stray = None
    crack_vertices = set(k0.vertex_ids())
    for e in range(mesh.n_edges):
        a, b = map(int, mesh.edges[e])
        if a in crack_vertices or b in crack_vertices:
            continue
        if mesh.vertices[a][0] == mesh.vertices[b][0]:
            stray = e
            break
    off = _FakeRun([k0, k0.with_edges([stray])])
    with pytest.raises(GriffithError, match="leaves the declared tip paths"):
        track_tips(off, [strip_path])


# ---------------------------------------------------------------------------
# sampled reports
# ---------------------------------------------------------------------------

def test_report_shapes_and_conventions(strip, strip_path):
    _, load, _, _, _, _, evo = strip
    rep = griffith_report(evo, load, [strip_path])
    n = len(evo.partition.times)
    assert rep.n_tips == 1
    assert rep.sigma.shape == rep.sigmadot.shape == rep.kappa2.shape == (1, n)
    np.testing.assert_array_equal(rep.times, evo.partition.times)
    # forward difference quotients, zero at the last sample
    assert rep.sigmadot[0, -1] == 0.0
    dt = np.diff(rep.times)
    np.testing.assert_allclose(rep.sigmadot[0, :-1],
                               np.diff(rep.sigma[0]) / dt)
    np.testing.assert_array_equal(rep.slack, 1.0 - rep.kappa2)
    np.testing.assert_array_equal(rep.complementarity,
                                  rep.slack * rep.sigmadot)
    assert rep.tau == pytest.approx(evo.partition.tau)
    rows = list(rep.rows())
    assert len(rows) == n
    t, tip, sig, sdot, k2, slack, compl = rows[10]
    assert (t, tip) == (pytest.approx(rep.times[10]), 0)
    assert k2 == pytest.approx(rep.kappa2[0, 10])
    assert compl == pytest.approx(slack * sdot)


def test_report_amplitude_squared_scaling(strip, strip_path):
    """Between pops the crack is frozen, so kappa2 must follow the
    squared load amplitude exactly (one unit solve per state)."""
    _, load, _, _, _, _, evo = strip
    rep = griffith_report(evo, load, [strip_path])
    ch = evo.changing_steps()
    j = ch[0] + 1
    k = ch[1] - 1
    assert evo.states[j].bits == evo.states[k].bits
    tj, tk = rep.times[j], rep.times[k]
    assert rep.kappa2[0, k] == pytest.approx(
        rep.kappa2[0, j] * (tk / tj) ** 2, rel=1e-12)
    # amplitude zero at t=0 with the ramp load
    assert rep.kappa2[0, 0] == 0.0


@pytest.mark.parametrize("estimator", ["sif", "release"])
def test_report_reads_the_datum_not_how_it_is_split(strip, strip_path, estimator):
    """The datum a(t) G is the same as (a(t) / c) (c G): written as
    (G/2, amplitude 2t) it gives the kappa2 of (G, t), although a(1) is
    2 and not 1."""
    _, load, _, _, _, _, evo = strip
    split = BoundaryLoad(profile=load.profile / 2.0,
                         amplitude=LinearAmplitude(0.0, 2.0), horizon=load.horizon)
    base = griffith_report(evo, load, [strip_path], estimator=estimator)
    other = griffith_report(evo, split, [strip_path], estimator=estimator)
    assert np.any(base.kappa2 > 0.0)
    np.testing.assert_allclose(other.kappa2, base.kappa2, rtol=1e-12, atol=0.0)


def test_report_estimator_dispatch(strip, strip_path):
    _, load, _, _, _, _, evo = strip
    with pytest.raises(ValueError, match="unknown estimator"):
        griffith_report(evo, load, [strip_path], estimator="slope")


def test_report_release_exhaustion():
    mesh, load, k0, pool, path = growth_strip(
        nx=16, ny=8, width=2.0, height=1.0, x_scale=1.0,
        horizon=5.5, n_precracked=6, pool_span=8)
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=1)
    evo = run_scheme(inst, TimePartition.uniform(5.5, 60), k0)
    assert evo.states[-1].cardinality == 8
    tip = TipPath.along(mesh, path[6:8])
    with pytest.raises(GriffithError, match="exhausts its declared path"):
        griffith_report(evo, load, [tip], estimator="release")
    # the field fit has no lookahead, so it still works at the path end
    rep = griffith_report(evo, load, [tip])
    assert np.isfinite(rep.kappa2).all()


def test_release_tracks_the_pop_threshold(strip, strip_path):
    """The scheme grows an edge exactly when the scaled release crosses
    the step cost, so the release estimator reads near one on every
    sample that precedes a pop."""
    _, load, _, _, _, _, evo = strip
    rel = griffith_report(evo, load, [strip_path],
                          estimator="release", h_steps=1)
    grow = rel.sigmadot[0] > 0
    assert grow.sum() >= 5
    assert np.abs(rel.kappa2[0][grow] - 1.0).max() <= 0.1


def test_release_dips_after_each_pop(strip, strip_path):
    """The drive profile decays along the path, so opening an edge drops
    the release rate faster than the ramp restores it."""
    _, load, _, _, _, _, evo = strip
    rel = griffith_report(evo, load, [strip_path],
                          estimator="release", h_steps=1)
    for j in evo.changing_steps():
        assert rel.kappa2[0, j] < rel.kappa2[0, j - 1]


def test_estimators_agree_on_coarse_mesh(strip, strip_path):
    """The annulus fit carries a visible bias at this resolution (the
    annulus is as wide as the strip arm), so the agreement band is
    loose here; the finer benchmark pins 15 percent."""
    _, load, _, _, _, _, evo = strip
    rep = griffith_report(evo, load, [strip_path])
    rel = griffith_report(evo, load, [strip_path],
                          estimator="release", h_steps=1)
    grow = rep.sigmadot[0] > 0
    gap = np.abs(rep.kappa2[0][grow] - rel.kappa2[0][grow])
    assert (gap / rel.kappa2[0][grow]).max() <= 0.35


# ---------------------------------------------------------------------------
# the growth criterion checks
# ---------------------------------------------------------------------------

def test_kkt_no_growth_below_threshold(strip, strip_path):
    """Short horizon: the load never reaches the tearing threshold, the
    tip sits still, and the intensity factor stays under one."""
    mesh, load, k0, pool, _, _, _ = strip
    inst = fracture_instance(mesh, load, PARAMS, pool, budget=1)
    evo = run_scheme(inst, TimePartition.uniform(2.0, 20), k0)
    rep = griffith_report(evo, load, [strip_path])
    kkt = check_kkt(rep)
    assert kkt.passed
    assert kkt.worst_rate == 0.0
    assert kkt.worst_complementarity == 0.0
    assert kkt.worst_slack > 0.0


def test_kkt_steady_growth(strip, strip_path):
    _, load, _, _, _, _, evo = strip
    rel = griffith_report(evo, load, [strip_path],
                          estimator="release", h_steps=1)
    kkt = check_kkt(rel)
    assert kkt.tol == pytest.approx(rel.length_scale + rel.tau)
    assert kkt.rate_ok and kkt.threshold_ok and kkt.complementarity_ok
    assert kkt.passed


def test_kkt_explicit_tolerance(strip, strip_path):
    _, load, _, _, _, _, evo = strip
    rel = griffith_report(evo, load, [strip_path],
                          estimator="release", h_steps=1)
    tight = check_kkt(rel, tol=1e-12)
    # sampled complementarity cannot vanish exactly at a pop
    assert not tight.complementarity_ok
    assert not tight.passed
    loose = check_kkt(rel, tol=10.0)
    assert loose.passed


# ---------------------------------------------------------------------------
# stability of a frozen crack
# ---------------------------------------------------------------------------

def test_residual_flags_an_overloaded_crack(strip):
    """Freezing the initial crack while the ramp runs far past the
    tearing threshold leaves a state that advancing the tip by one edge
    beats; early in the ramp the same crack is stable."""
    _, _, k0, _, path, inst, evo = strip
    assert evo.states[-1].cardinality > k0.cardinality
    late = residual_stability(5.5, k0, inst)
    assert late.residual > 0.1
    assert late.minimizers == (k0.with_edges([path[6]]),)
    early = residual_stability(0.5, k0, inst)
    assert early.residual == 0.0
    assert early.minimizers == (k0,)
