from __future__ import annotations

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vefrac.benchmarks import rect_grid_mesh, square_grid_mesh
from vefrac.dissipation import (
    ATW_PANELS,
    DissipationParams,
    HopCharges,
    HopCost,
    MonotoneChain,
    _ATW_NODES,
    _ATW_WEIGHTS,
    alpha,
    atw_integral,
    delta_atw,
    dist_d,
    hop_cost,
    price_hops,
    single_hop,
)
from vefrac.geometry import CrackSet, MeshError, h1_diff, h1_measure, hausdorff

import _oracles as oracle

# every record here is compared bit for bit, and batches run gemvs
pytestmark = pytest.mark.blas_rounding

PARAMS = DissipationParams(lam=0.1, mu=0.1)


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError, match="lambda must be positive"):
        DissipationParams(lam=0.0, mu=1.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        DissipationParams(lam=1.0, mu=-2.0)
    # the ATW rule is fixed, so lam and mu are the only constants
    assert [f.name for f in fields(DissipationParams)] == ["lam", "mu"]


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def test_alpha_of_self_is_zero(grid3):
    k = CrackSet.of_edges(grid3, [0, 4, 9])
    assert alpha(k, k) == 0.0


def test_alpha_from_empty_counts_components(grid3):
    # three pairwise vertex-disjoint edges
    k = CrackSet.of_vertex_pairs(grid3, [(0, 1), (2, 3), (8, 9)])
    assert alpha(CrackSet.empty(grid3), k) == 3.0


def test_alpha_infinite_without_inclusion(grid3):
    h = CrackSet.of_edges(grid3, [0])
    k = CrackSet.of_edges(grid3, [1, 2])
    assert alpha(h, k) == math.inf


def test_alpha_counts_only_detached_components(grid3):
    h = CrackSet.of_vertex_pairs(grid3, [(0, 1)])
    # one component touching h at vertex 1, one detached
    k = h.union(CrackSet.of_vertex_pairs(grid3, [(1, 2), (8, 9)]))
    assert alpha(h, k) == 1.0


@given(h_sel=st.integers(0, 2**9 - 1), extra=st.integers(0, 2**9 - 1))
@settings(max_examples=150, deadline=None)
def test_alpha_matches_component_scan_oracle(rect9, h_sel, extra):
    h = CrackSet(rect9, h_sel)
    k = CrackSet(rect9, h_sel | extra)
    got = alpha(h, k)
    expected = oracle.oracle_alpha(rect9, h.edge_ids, k.edge_ids)
    assert got == float(expected)


@given(h_bits=st.integers(0, 2**9 - 1), k_extra=st.integers(0, 2**9 - 1),
       l_extra=st.integers(0, 2**9 - 1))
@settings(max_examples=150, deadline=None)
def test_alpha_triangle_inequality(rect9, h_bits, k_extra, l_extra):
    k_bits = h_bits | k_extra
    l_bits = k_bits | l_extra
    h, k, l = (CrackSet(rect9, b) for b in (h_bits, k_bits, l_bits))
    assert alpha(h, l) <= alpha(h, k) + alpha(k, l)


# ---------------------------------------------------------------------------
# dist_d
# ---------------------------------------------------------------------------

def test_d_of_self_is_zero(grid3):
    k = CrackSet.of_edges(grid3, [2, 3])
    assert dist_d(k, k, PARAMS) == 0.0


def test_d_far_edge_example():
    # vertical edges have length 0.4; the new one shares no vertex with h
    mesh = rect_grid_mesh(5, 1, width=2.0, height=0.4)
    h = CrackSet.of_vertex_pairs(mesh, [(0, 6)])    # x = 0 side
    k = h.union(CrackSet.of_vertex_pairs(mesh, [(5, 11)]))  # x = 2 side
    got = dist_d(h, k, PARAMS)
    assert math.isclose(got, 0.4 + 0.1 * 1, rel_tol=1e-15)


def test_d_separates_points(grid3):
    rng = np.random.default_rng(5)
    for _ in range(40):
        h_bits = int(rng.integers(0, 2**33))
        k_bits = h_bits | int(rng.integers(1, 2**33))
        h, k = CrackSet(grid3, h_bits), CrackSet(grid3, k_bits)
        if h.bits == k.bits:
            continue
        assert dist_d(h, k, PARAMS) > 0.0
    assert dist_d(CrackSet.of_edges(grid3, [1]),
                  CrackSet.of_edges(grid3, [2]), PARAMS) == math.inf


@given(h_bits=st.integers(0, 2**9 - 1), k_extra=st.integers(0, 2**9 - 1),
       l_extra=st.integers(0, 2**9 - 1))
@settings(max_examples=120, deadline=None)
def test_d_triangle_inequality(rect9, h_bits, k_extra, l_extra):
    k_bits = h_bits | k_extra
    l_bits = k_bits | l_extra
    h, k, l = (CrackSet(rect9, b) for b in (h_bits, k_bits, l_bits))
    lhs = dist_d(h, l, PARAMS)
    rhs = dist_d(h, k, PARAMS) + dist_d(k, l, PARAMS)
    assert lhs <= rhs + 1e-12 * (1.0 + rhs)


# ---------------------------------------------------------------------------
# delta and the ATW integral
# ---------------------------------------------------------------------------

def test_delta_of_self_is_zero(grid3):
    k = CrackSet.of_edges(grid3, [7])
    assert delta_atw(k, k, PARAMS) == 0.0


def test_delta_collinear_extension_is_half_square(rect9):
    # bottom edges of the 2x1 rectangle: (0,0)-(1,0) then (1,0)-(2,0)
    h = CrackSet.of_vertex_pairs(rect9, [(0, 1)])
    k = h.union(CrackSet.of_vertex_pairs(rect9, [(1, 2)]))
    ell = 1.0
    assert math.isclose(atw_integral(h, k), ell * ell / 2.0, rel_tol=1e-14)
    # alpha = 0, so delta is the pure integral
    assert math.isclose(delta_atw(h, k, PARAMS), 0.5, rel_tol=1e-14)


def test_delta_from_empty_uses_diameter(rect9):
    k = CrackSet.of_edges(rect9, [0, 1])
    expected = rect9.domain_diameter * h1_measure(k)
    assert math.isclose(atw_integral(CrackSet.empty(rect9), k),
                        expected, rel_tol=1e-15)


def test_delta_infinite_without_inclusion(rect9):
    h = CrackSet.of_edges(rect9, [0])
    k = CrackSet.of_edges(rect9, [1])
    assert delta_atw(h, k, PARAMS) == math.inf
    assert atw_integral(h, k) == math.inf


def test_atw_matches_dense_sampling_oracle(grid3):
    rng = np.random.default_rng(19)
    for _ in range(12):
        h_bits = int(rng.integers(1, 2**33))
        k_bits = h_bits | int(rng.integers(0, 2**33))
        h, k = CrackSet(grid3, h_bits), CrackSet(grid3, k_bits)
        if h.bits == k.bits:
            continue
        dense = oracle.dense_atw_integral(grid3, h.edge_ids, k.edge_ids,
                                          n_per_edge=1000)
        got = atw_integral(h, k)
        assert math.isclose(got, dense, rel_tol=1e-3, abs_tol=1e-12)


@given(h_sel=st.integers(1, 2**9 - 1), extra=st.integers(0, 2**9 - 1))
@settings(max_examples=100, deadline=None)
def test_higher_order_bound(rect9, h_sel, extra):
    h = CrackSet(rect9, h_sel)
    k = CrackSet(rect9, h_sel | extra)
    delta = atw_integral(h, k)
    haus = hausdorff(h, k)
    growth = h1_diff(h, k)
    eps = rect9.hausdorff_resolution
    assert delta <= (haus + eps) * growth + 1e-12


def test_ratio_delta_over_d_bounded_by_hausdorff(grid3):
    # nested sets growing along the bottom row toward the full row
    bottom = [(0, 1), (1, 2), (2, 3)]
    full = CrackSet.of_vertex_pairs(grid3, bottom)
    eps = grid3.hausdorff_resolution
    for n in (1, 2):
        kn = CrackSet.of_vertex_pairs(grid3, bottom[:n])
        assert alpha(kn, full) == 0.0
        num = delta_atw(kn, full, PARAMS)
        den = dist_d(kn, full, PARAMS)
        assert num / den <= hausdorff(kn, full) + eps


# ---------------------------------------------------------------------------
# hop record
# ---------------------------------------------------------------------------

def test_hop_cost_views_keep_the_direct_arithmetic(grid3):
    # d, delta and D read one record; each must equal the sum written
    # out from the parts, bit for bit, in both modes. Every cost is a
    # plain float, +inf off the inclusion.
    rng = np.random.default_rng(5)
    for _ in range(30):
        h = CrackSet(grid3, int(rng.integers(0, 2**33)))
        k = CrackSet(grid3, int(rng.integers(0, 2**33)))
        if rng.random() < 0.7:
            k = k.union(h)
        hop = hop_cost(h, k)
        costs = (alpha(h, k), atw_integral(h, k), dist_d(h, k, PARAMS),
                 delta_atw(h, k, PARAMS), oracle.reference_big_d(h, k, PARAMS))
        assert all(type(x) is float for x in costs)
        if not h.issubset(k):
            assert hop is None
            assert all(x == math.inf for x in costs)
            continue
        a, sweep = costs[0], costs[1]
        assert hop == HopCost(h1=h1_diff(h, k), sweep=sweep, alpha=a)
        d = h1_diff(h, k) + PARAMS.lam * a
        delta = sweep + PARAMS.mu * a
        assert costs[2:5] == (d, delta, d + delta)
        assert hop.charges(PARAMS) == HopCharges(
            d, delta, d + delta, sweep, PARAMS.lam + PARAMS.mu, a)
        assert hop.charges(PARAMS, False) == HopCharges(
            d, 0.0, d, 0.0, PARAMS.lam, a)
        for viscous in (True, False):
            assert all(type(x) is float for x in hop.charges(PARAMS, viscous))


def assert_same_record(got, expected):
    """h1, sweep and alpha equal with ==, or both records None."""
    if expected is None:
        assert got is None
        return
    assert type(got) is HopCost
    assert (got.h1, got.sweep, got.alpha) == (expected.h1, expected.sweep,
                                              expected.alpha)
    assert all(type(x) is float for x in (got.h1, got.sweep, got.alpha))


def assert_prices_as_reference(h, k):
    """Every reading of the record, from price_hops and the public
    functions, against the reference pricing of the hop."""
    expected = oracle.reference_hop_cost(h, k)
    record = single_hop(price_hops, h, k)
    assert_same_record(record, expected)
    assert_same_record(hop_cost(h, k), expected)
    ref_alpha = oracle.reference_alpha(h, k)
    ref_sweep = oracle.reference_atw_integral(h, k)
    read = (math.inf, math.inf) if record is None else (record.alpha, record.sweep)
    assert read == (alpha(h, k), atw_integral(h, k)) == (ref_alpha, ref_sweep)


@pytest.mark.parametrize("mesh", [rect_grid_mesh(6, 3, width=2.0, height=1.0),
                                  square_grid_mesh(4, dirichlet="topbottom")],
                         ids=["rect", "grid"])
def test_pricer_matches_reference_on_random_crack_sets(mesh):
    rng = np.random.default_rng(23)
    n = mesh.n_edges
    for _ in range(25):
        h = CrackSet(mesh, int(rng.integers(0, 2**n)) & int(rng.integers(0, 2**n))
                     & int(rng.integers(0, 2**n)))
        pool = int(rng.integers(0, 2**n))
        for _ in range(12):
            new = int(rng.integers(0, 2**n))
            for _ in range(int(rng.integers(0, 3))):
                new &= int(rng.integers(0, 2**n))
            if rng.random() < 0.6:
                new &= pool
            k = CrackSet(mesh, new | (h.bits if rng.random() < 0.85 else 0))
            assert_prices_as_reference(h, k)


def test_pricer_edge_cases(grid3):
    empty = CrackSet.empty(grid3)
    h = CrackSet.of_edges(grid3, [0, 4, 9])
    k = h.union(CrackSet.of_edges(grid3, [20, 31]))
    for source, target in ((empty, empty), (empty, h), (h, h), (h, k),
                           (k, h), (h, CrackSet.of_edges(grid3, [0, 4])),
                           (h, empty)):
        assert_prices_as_reference(source, target)
    assert single_hop(price_hops, h, h) == HopCost(0.0, 0.0, 0.0)
    assert single_hop(price_hops, k, h) is None
    assert alpha(k, h) == math.inf
    assert atw_integral(k, h) == math.inf
    # from the empty set the sweep is the diameter times the new length
    assert single_hop(price_hops, empty, h).sweep == \
        grid3.domain_diameter * math.fsum(grid3.edge_lengths[list(h.edge_ids)])


def test_pricer_counts_new_edges_by_how_they_meet_h(grid3):
    # H has two components on the bottom row: (0,1) and (2,3)
    h = CrackSet.of_vertex_pairs(grid3, [(0, 1), (2, 3)])
    shapes = {
        "touches H at one end": ([(1, 5)], 0.0),
        "separate component": ([(9, 10)], 1.0),
        "bridges two components of H": ([(1, 2)], 0.0),
        "path bridging through new vertices": ([(1, 5), (5, 6), (6, 2)], 0.0),
        "two separate components": ([(8, 12), (10, 11)], 2.0),
        "separate plus touching": ([(9, 13), (3, 7)], 1.0),
    }
    for name, (pairs, count) in shapes.items():
        k = h.union(CrackSet.of_vertex_pairs(grid3, pairs))
        assert single_hop(price_hops, h, k).alpha == count, name
        assert_prices_as_reference(h, k)


def test_rows_do_not_depend_on_the_batch_that_fills_them():
    # The same hops priced in one batch per size, hop by hop in order, and
    # hop by hop in reverse order give identical records, although each call
    # measures the rows of its own new edges. A table of per-edge
    # weighted sums would not: a k-row gemv does not round each row as a
    # one-row gemv does.
    mesh = square_grid_mesh(4, dirichlet="topbottom")
    interior = [e for e in range(mesh.n_edges) if e not in set(mesh.dirichlet_edges())]
    pool = CrackSet.of_edges(mesh, interior)
    h = CrackSet.of_vertex_pairs(mesh, [(11, 12), (12, 13), (6, 7)])
    free = pool.minus(h).edge_ids
    targets = [h.with_edges(c) for size in (1, 2, 3)
               for c in itertools.combinations(free, size)][::7]
    expected = [oracle.reference_hop_cost(h, k) for k in targets]
    records = {"hop by hop": [single_hop(price_hops, h, k) for k in targets],
               "hop by hop, reversed": [single_hop(price_hops, h, k)
                                        for k in targets[::-1]][::-1],
               "one batch per size": []}
    for size in (1, 2, 3):
        new = [k.minus(h).edge_ids for k in targets
               if k.cardinality == h.cardinality + size]
        priced = price_hops(h, np.array(new, dtype=np.intp))
        records["one batch per size"] += [
            HopCost(*map(float, entry))
            for entry in zip(priced.h1, priced.sweep, priced.alpha)]
    for name, got in records.items():
        assert len(got) == len(expected), name
        for record, ref in zip(got, expected):
            assert_same_record(record, ref)


def test_pricing_does_not_depend_on_earlier_sources(grid3):
    # hops from A, then B, then A again, one at a time and in batches:
    # every record is the reference's, whatever was priced before
    rng = np.random.default_rng(7)
    n = grid3.n_edges
    a = CrackSet.of_edges(grid3, [0, 4, 9])
    b = a.with_edges([20])
    for source in (a, b, a):
        targets = [CrackSet(grid3, source.bits | (int(rng.integers(0, 2**n))
                                                  & int(rng.integers(0, 2**n))))
                   for _ in range(6)] + [a, b, CrackSet.empty(grid3)]
        for k in targets + targets[::-1]:
            assert_same_record(single_hop(price_hops, source, k),
                               oracle.reference_hop_cost(source, k))
        singles = np.array([[e] for e in range(n) if e not in source], dtype=np.intp)
        priced = price_hops(source, singles)
        for e, h1, sweep, count in zip(singles[:, 0].tolist(), priced.h1.tolist(),
                                       priced.sweep.tolist(), priced.alpha.tolist()):
            expected = oracle.reference_hop_cost(source, source.with_edges([e]))
            assert (h1, sweep, count) == (expected.h1, expected.sweep, expected.alpha)
    # the function keeps no mesh: it prices another mesh's hop as well,
    # and single_hop refuses a hop across meshes
    other = square_grid_mesh(3)
    a2, b2 = CrackSet(other, a.bits), CrackSet(other, b.bits)
    assert_same_record(single_hop(price_hops, a2, b2), oracle.reference_hop_cost(a2, b2))
    for h, k in ((a, b2), (a2, b)):
        with pytest.raises(MeshError, match="different meshes"):
            single_hop(price_hops, h, k)


def test_atw_rule_is_fixed_and_read_only():
    # 16 panels of numpy's three-point Gauss-Legendre rule, bit for bit
    nodes, weights = np.polynomial.legendre.leggauss(3)
    offsets = (np.arange(ATW_PANELS) + 0.5) / ATW_PANELS
    t, w = _ATW_NODES, _ATW_WEIGHTS
    assert t.tobytes() == (offsets[:, None]
                           + (0.5 * nodes)[None, :] / ATW_PANELS).ravel().tobytes()
    assert w.tobytes() == np.tile(0.5 * weights / ATW_PANELS, ATW_PANELS).tobytes()
    assert t.shape == w.shape == (48,)
    assert not t.flags.writeable and not w.flags.writeable
    assert math.isclose(float(w.sum()), 1.0, rel_tol=1e-14)
    assert np.all((t > 0.0) & (t < 1.0))


# ---------------------------------------------------------------------------
# big D
# ---------------------------------------------------------------------------

def test_big_d_closed_form(grid3):
    rng = np.random.default_rng(23)
    for _ in range(20):
        h_bits = int(rng.integers(0, 2**33))
        k_bits = h_bits | int(rng.integers(0, 2**33))
        h, k = CrackSet(grid3, h_bits), CrackSet(grid3, k_bits)
        d = dist_d(h, k, PARAMS)
        de = delta_atw(h, k, PARAMS)
        total = oracle.reference_big_d(h, k, PARAMS)
        assert math.isclose(total, d + de, rel_tol=1e-14, abs_tol=1e-15)
        closed = (h1_diff(h, k) + atw_integral(h, k)
                  + (PARAMS.lam + PARAMS.mu) * alpha(h, k))
        assert math.isclose(total, closed, rel_tol=1e-14, abs_tol=1e-15)


def test_big_d_collinear_example(rect9):
    h = CrackSet.of_vertex_pairs(rect9, [(0, 1)])
    k = h.union(CrackSet.of_vertex_pairs(rect9, [(1, 2)]))
    got = oracle.reference_big_d(h, k, PARAMS)
    assert math.isclose(got, 1.0 + 0.5, rel_tol=1e-14)


def test_big_d_far_component_example():
    mesh = rect_grid_mesh(5, 1, width=2.0, height=0.4)
    h = CrackSet.of_vertex_pairs(mesh, [(0, 6)])
    k = h.union(CrackSet.of_vertex_pairs(mesh, [(5, 11)]))
    dense = oracle.dense_atw_integral(mesh, h.edge_ids, k.edge_ids,
                                      n_per_edge=2000)
    got = oracle.reference_big_d(h, k, PARAMS)
    assert math.isclose(got, 0.4 + dense + 0.2, rel_tol=1e-4)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_chain_validation(square2, rect9):
    with pytest.raises(ValueError):
        MonotoneChain([])
    with pytest.raises(MeshError, match="different meshes"):
        MonotoneChain([CrackSet.empty(square2), CrackSet.empty(rect9)])


def test_chain_keeps_a_sequence_that_breaks_monotonicity(rect9):
    a, b = CrackSet.of_edges(rect9, [0]), CrackSet.of_edges(rect9, [1])
    ch = MonotoneChain([a, b])
    assert len(ch) == 2 and ch[0] == a and ch[1] == b
    assert list(ch) == [a, b]
    # the broken hop is priced, at +infinity, by every cost
    assert dist_d(ch[0], ch[1], PARAMS) == math.inf
    assert alpha(ch[0], ch[1]) == math.inf
    assert delta_atw(ch[0], ch[1], PARAMS) == math.inf


def test_alpha_two_nucleations_along_a_chain(grid3):
    e1 = CrackSet.of_vertex_pairs(grid3, [(0, 1)])
    e2 = CrackSet.of_vertex_pairs(grid3, [(8, 9)])  # vertex-disjoint from e1
    states = [CrackSet.empty(grid3), e1, e1.union(e2)]
    assert [alpha(h, k) for h, k in zip(states, states[1:])] == [1.0, 1.0]
    assert alpha(states[0], states[-1]) == 2.0


def test_d_is_additive_along_a_monotone_chain(grid3):
    # d = H1(K \ H) + lam * alpha: the lengths telescope along a chain,
    # the nucleation counts add
    rng = np.random.default_rng(31)
    for _ in range(15):
        bits = int(rng.integers(0, 2**33))
        chain_bits = [bits]
        for _ in range(3):
            bits = bits | int(rng.integers(0, 2**33))
            chain_bits.append(bits)
        states = [CrackSet(grid3, b) for b in chain_bits]
        hops = list(zip(states, states[1:]))
        got = math.fsum(dist_d(h, k, PARAMS) for h, k in hops)
        jumps = math.fsum(alpha(h, k) for h, k in hops)
        expected = h1_diff(states[0], states[-1]) + PARAMS.lam * jumps
        assert math.isclose(got, expected, rel_tol=1e-13, abs_tol=1e-15)
        assert math.isclose(math.fsum(h1_diff(h, k) for h, k in hops),
                            h1_diff(states[0], states[-1]),
                            rel_tol=1e-13, abs_tol=1e-15)
