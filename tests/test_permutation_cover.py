"""permutation_cover, the one layout of derived graphs, their quotients and
combined covers: checked against the derived-graph loop it replaced, against
pullback, and as a cover to lift towers along, Galois or not."""

import random

import pytest
from hypothesis import given, strategies as st

from giwa import (ValidationError, bouquet, build_multigraph,
                  certify_levels_connected, cyclic, derived_graph, dihedral_8,
                  is_galois, iwasawa_invariants, lift_tower, pullback,
                  quotient_cover, sl2_level_quotient, tower, voltage_assignment)
from giwa.groups import sl2_generators
from giwa.voltage import DerivedGraph, VoltageAssignment, _label_cover, permutation_cover

from test_voltage import GROUPS_WITH_QUOTIENT, LABEL_SETTINGS, draw_assignment, small_bases


def reference_derived_graph(va):
    """X(G, S, alpha) as derived_graph laid it out with a loop of its own,
    before permutation_cover."""
    base = va.graph
    G = va.group
    verts = [(v, sigma) for v in base.vertices for sigma in G.elements]
    edges = []
    along = {}              # base edge id -> the orientation edge carrying it
    for s in va.orientation:
        u_id = base.vertices[base.origin[s]]
        v_id = base.vertices[base.terminus[s]]
        a = va.values[s]
        eid = base.edge_ids[s >> 1]
        along[eid] = s
        for sigma in G.elements:
            tau = G.multiply(sigma, a)
            edges.append(((u_id, sigma), (v_id, tau), (eid, sigma)))
    graph = build_multigraph(verts, edges)
    return DerivedGraph(graph=graph, assignment=va,
                        projection=_label_cover(graph, base, lambda v: v[0],
                                                lambda e: along[e[0]]))


def reference_quotient_cover(va, f):
    """quotient_cover over the reference derived graphs."""
    top = reference_derived_graph(va)
    push = VoltageAssignment(graph=va.graph, orientation=va.orientation,
                             group=f.target,
                             values={d: f(v) for d, v in va.values.items()})
    bottom = reference_derived_graph(push)
    return (_label_cover(top.graph, bottom.graph, lambda v: (v[0], f(v[1])),
                         lambda e: 2 * bottom.graph.edge_index((e[0], f(e[1])))),
            top, bottom)


def assert_same_layout(got, want):
    """Labels, edge order, incidence and projection, one by one, then as objects."""
    for field in ("vertices", "edge_ids", "origin", "terminus"):
        assert getattr(got.graph, field) == getattr(want.graph, field)
    assert got.projection.vertex_map == want.projection.vertex_map
    assert got.projection.edge_map == want.projection.edge_map
    assert got == want


@LABEL_SETTINGS
@given(st.data())
def test_derived_graph_and_quotient_match_the_reference_loop(data):
    base = data.draw(small_bases())
    group, f = data.draw(st.sampled_from(GROUPS_WITH_QUOTIENT))
    va = draw_assignment(data.draw, base, group)
    assert_same_layout(derived_graph(va), reference_derived_graph(va))
    got, want = quotient_cover(va, f), reference_quotient_cover(va, f)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert_same_layout(g, w)


def test_derived_graph_matches_the_reference_loop_on_d8_and_sl2():
    X = bouquet(3)
    D8 = dihedral_8()
    sl2 = sl2_level_quotient(3, 1).group
    a1, a2, a3 = sl2_generators(3, 1)
    for va in (voltage_assignment(X, D8, dict(zip(X.edge_ids, D8.elements[1:4]))),
               voltage_assignment(bouquet(4), sl2, {"s1": a1, "s2": a2, "s3": a3,
                                                    "s4": sl2.identity})):
        assert_same_layout(derived_graph(va), reference_derived_graph(va))


def draw_perms(draw, orientation, n):
    return {s: draw(st.permutations(range(n))) for s in orientation}


@LABEL_SETTINGS
@given(st.data())
def test_product_of_permutation_covers_is_their_pullback(data):
    graph, orientation = data.draw(small_bases())
    n1, n2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    perms1, perms2 = draw_perms(data.draw, orientation, n1), draw_perms(data.draw, orientation, n2)
    p1 = permutation_cover(graph, orientation, range(n1), lambda s, x: perms1[s][x])
    p2 = permutation_cover(graph, orientation, range(n2), lambda s, y: perms2[s][y])
    product = permutation_cover(graph, orientation, [(x, y) for x in range(n1) for y in range(n2)],
                                lambda s, xy: (perms1[s][xy[0]], perms2[s][xy[1]]))
    pb = pullback(p1, p2)
    g1, g2 = p1.source, p2.source
    # pullback edge k runs over the declared edges (d1, d2) of the two covers
    over = {(pb.to_first.edge_map[2 * k], pb.to_second.edge_map[2 * k]): 2 * k
            for k in range(pb.graph.undirected_edge_count)}
    iso = _label_cover(product.source, pb.graph,
                       lambda v: ((v[0], v[1][0]), (v[0], v[1][1])),
                       lambda e: over[(2 * g1.edge_index((e[0], e[1][0])),
                                       2 * g2.edge_index((e[0], e[1][1])))])
    assert sorted(iso.vertex_map) == list(range(pb.graph.vertex_count))
    assert sorted(iso.edge_map) == list(range(pb.graph.directed_edge_count))
    for i, p, to_factor in ((0, p1, pb.to_first), (1, p2, pb.to_second)):
        factor = _label_cover(product.source, p.source, lambda v: (v[0], v[1][i]),
                              lambda e: 2 * p.source.edge_index((e[0], e[1][i])))
        assert tuple(to_factor.vertex_map[w] for w in iso.vertex_map) == factor.vertex_map
        assert tuple(to_factor.edge_map[d] for d in iso.edge_map) == factor.edge_map
        assert tuple(p.edge_map[d] for d in factor.edge_map) == product.edge_map


@LABEL_SETTINGS
@given(st.data())
def test_an_action_that_does_not_permute_the_points_is_refused(data):
    graph, orientation = data.draw(small_bases())
    n = data.draw(st.integers(1, 4))
    maps = {s: data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
            for s in orientation}

    def build():
        return permutation_cover(graph, orientation, range(n), lambda s, x: maps[s][x])
    if all(sorted(m) == list(range(n)) for m in maps.values()):
        assert build().source.undirected_edge_count == n * len(orientation)
    else:
        with pytest.raises(ValidationError, match="does not permute the points"):
            build()


def test_constant_action_is_refused_with_its_edge():
    X = bouquet(2)
    with pytest.raises(ValidationError, match=r"act\(s1, \.\) does not permute"):
        permutation_cover(X, X.default_orientation(), range(3), lambda s, x: 0)


# -- lifting towers along permutation covers ---------------------------------

def test_ex1_lifts_alike_along_a_cyclic_permutation_cover_and_its_derived_graph():
    X = bouquet(3)
    t = tower(X, 3, {"s1": 1, "s2": 4, "s3": 20})
    beta = {"s1": 1, "s2": 0, "s3": 1}
    points = ("a", "b", "c")
    p = permutation_cover(X, X.default_orientation(), points,
                          lambda s, x: points[(points.index(x) + beta[X.edge_ids[s >> 1]]) % 3])
    q = derived_graph(voltage_assignment(X, cyclic(3), beta)).projection
    assert is_galois(p)[0]
    lifted_p, lifted_q = lift_tower(t, p), lift_tower(t, q)
    assert lifted_p is not lifted_q
    assert certify_levels_connected(lifted_p) and certify_levels_connected(lifted_q)
    got = iwasawa_invariants(lifted_p)
    assert (got.mu, got.lam) == (0, 17)
    assert got == iwasawa_invariants(lifted_q)


D8_ON_FOUR_POINTS = ((1, 2, 3, 0), (3, 2, 1, 0), (0, 1, 2, 3))


def test_towers_lifted_along_d8_on_four_points_satisfy_kida():
    # a connected degree-4 cover of B3 that is not Galois: its deck group has
    # 2 elements, not 4; Kida's identity still holds for every ell = 2 tower
    X = bouquet(3)
    p = permutation_cover(X, X.default_orientation(), range(4),
                          lambda s, i: D8_ON_FOUR_POINTS[s >> 1][i])
    galois, decks = is_galois(p)
    assert (galois, len(decks)) == (False, 2)
    rng = random.Random(29)
    checked = 0
    while checked < 12:
        t = tower(X, 2, {eid: rng.randint(-8, 8) for eid in X.edge_ids})
        if not certify_levels_connected(t):
            continue
        lifted = lift_tower(t, p)
        if not certify_levels_connected(lifted):
            continue
        base, cover = iwasawa_invariants(t), iwasawa_invariants(lifted)
        assert (base.mu, cover.mu) == (0, 0)
        assert cover.lam + 1 == 4 * (base.lam + 1)
        checked += 1
