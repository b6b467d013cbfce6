import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from giwa import (DisconnectedError, ValidationError, bouquet,
                  build_multigraph, components, cover_degree, cyclic,
                  deck_transformations, derived_graph, dihedral_8,
                  euler_characteristic, hom, identity_cover, is_connected,
                  is_cover, is_galois, product, pullback, pullback_voltage,
                  quotient_cover, reduction_hom, spanning_tree_count,
                  verify_combined_iso, voltage_assignment,
                  voltage_connectedness)
from giwa.graphs import Orientation
from giwa.groups import DIHEDRAL_REFLECTION, DIHEDRAL_ROTATION
from giwa.voltage import CoverMap, component_degrees

from test_graphs import two_vertex_four_edge_graph


def d8_beta_assignment():
    X = bouquet(3)
    G = dihedral_8()
    return voltage_assignment(
        X, G, {"s1": DIHEDRAL_ROTATION, "s2": DIHEDRAL_REFLECTION,
               "s3": G.identity})


def ex1_level_one_assignment():
    X = bouquet(3)
    return voltage_assignment(X, cyclic(3), {"s1": 1, "s2": 1, "s3": 2})


class TestDerivedGraph:
    def test_double_cover_of_single_loop(self):
        X = bouquet(1)
        dg = derived_graph(voltage_assignment(X, cyclic(2), {"s1": 1}))
        g = dg.graph
        # two vertices joined by two parallel edges, no loops
        assert g.vertex_count == 2
        assert g.undirected_edge_count == 2
        assert all(g.origin[2 * k] != g.terminus[2 * k]
                   for k in range(g.undirected_edge_count))
        assert is_connected(g)

    def test_dihedral_cover_counts(self):
        dg = derived_graph(d8_beta_assignment())
        assert dg.graph.vertex_count == 8
        assert dg.graph.undirected_edge_count == 24

    def test_level_one_cover_of_ex1(self):
        dg = derived_graph(ex1_level_one_assignment())
        assert dg.graph.vertex_count == 3
        assert is_connected(dg.graph)
        kappa = spanning_tree_count(dg.graph)
        assert kappa == 27          # ord_3 = 3

    def test_projection_is_cover(self):
        for va in (d8_beta_assignment(), ex1_level_one_assignment()):
            assert is_cover(derived_graph(va).projection)

    def test_euler_characteristic_multiplies(self):
        va = d8_beta_assignment()
        dg = derived_graph(va)
        assert euler_characteristic(dg.graph) == \
            va.group.order * euler_characteristic(va.graph)


class TestVoltageConnectedness:
    def test_worked_disconnected_example(self):
        X = two_vertex_four_edge_graph()
        va = voltage_assignment(X, cyclic(2),
                                {"s1": 1, "s2": 1, "s3": 1, "s4": 1})
        connected, generated = voltage_connectedness(va)
        assert not connected
        assert generated == frozenset({0})
        assert not is_connected(derived_graph(va).graph)

    def test_dihedral_cover_connected(self):
        connected, _ = voltage_connectedness(d8_beta_assignment())
        assert connected

    def test_trivial_group_connected_iff_base_is(self):
        X = bouquet(2)
        va = voltage_assignment(X, cyclic(1), {"s1": 0, "s2": 0})
        connected, _ = voltage_connectedness(va)
        assert connected

    def test_matches_component_search_randomized(self):
        rng = random.Random(31415)
        groups = [cyclic(2), cyclic(6), product(cyclic(2), cyclic(4)),
                  dihedral_8(), product(cyclic(3), cyclic(3))]
        for _ in range(60):
            G = rng.choice(groups)
            nv = rng.randint(1, 3)
            verts = [f"v{i}" for i in range(nv)]
            edges = [(rng.choice(verts), rng.choice(verts), f"e{j}")
                     for j in range(rng.randint(nv, 5))]
            graph = build_multigraph(verts, edges)
            if not is_connected(graph):
                continue
            values = {f"e{j}": rng.choice(G.elements)
                      for j in range(graph.undirected_edge_count)}
            va = voltage_assignment(graph, G, values)
            predicted, _ = voltage_connectedness(va)
            assert predicted == is_connected(derived_graph(va).graph)


class TestCoversAndGalois:
    def test_dihedral_projection_is_galois_with_deck_order_eight(self):
        dg = derived_graph(d8_beta_assignment())
        galois, decks = is_galois(dg.projection)
        assert galois
        assert len(decks) == 8
        assert cover_degree(dg.projection) == 8

    def test_identity_cover_is_galois_trivially(self):
        X = bouquet(2)
        galois, decks = is_galois(identity_cover(X))
        assert galois
        assert len(decks) == 1

    def test_disconnected_derived_graph_cover_not_galois(self):
        X = two_vertex_four_edge_graph()
        va = voltage_assignment(X, cyclic(2),
                                {"s1": 1, "s2": 1, "s3": 1, "s4": 1})
        proj = derived_graph(va).projection
        assert is_cover(proj)
        galois, _ = is_galois(proj)
        assert not galois
        assert component_degrees(proj) == [1, 1]
        with pytest.raises(DisconnectedError):
            cover_degree(proj)

    def test_deck_group_acts_freely(self):
        dg = derived_graph(ex1_level_one_assignment())
        decks = deck_transformations(dg.projection)
        assert len(decks) == 3
        for vmap, _emap in decks:
            fixed = [w for w, img in vmap.items() if img == w]
            assert fixed == [] or len(fixed) == dg.graph.vertex_count


class TestQuotientCover:
    def test_reduction_mod_three_on_ex1_tower(self):
        X = bouquet(3)
        va9 = voltage_assignment(X, cyclic(9), {"s1": 1, "s2": 4, "s3": 2})
        cov, top, bottom = quotient_cover(va9, reduction_hom(9, 3))
        assert is_cover(cov)
        assert cover_degree(cov) == 3

    def test_identity_hom_is_isomorphism(self):
        va = ex1_level_one_assignment()
        f = hom(cyclic(3), cyclic(3), lambda a: a)
        cov, top, bottom = quotient_cover(va, f)
        assert cover_degree(cov) == 1
        assert set(cov.vertex_map) == set(range(bottom.graph.vertex_count))

    def test_projection_of_product_cover(self):
        X = bouquet(3)
        G = product(cyclic(3), cyclic(3))
        va = voltage_assignment(X, G, {"s1": (1, 0), "s2": (0, 1), "s3": (1, 0)})
        f = hom(G, cyclic(3), lambda p: p[0])
        cov, top, _ = quotient_cover(va, f)
        assert is_cover(cov)
        assert cover_degree(cov) == 3        # kernel order
        galois, decks = is_galois(cov)
        assert galois and len(decks) == 3

    def test_non_surjective_rejected(self):
        va = ex1_level_one_assignment()
        f = hom(cyclic(3), cyclic(9), lambda a: 3 * a)
        with pytest.raises(ValidationError):
            quotient_cover(va, f)


class TestPullback:
    def test_double_cover_pulled_back_along_itself(self):
        X = bouquet(1)
        dg = derived_graph(voltage_assignment(X, cyclic(2), {"s1": 1}))
        pb = pullback(dg.projection, dg.projection)
        assert pb.component_count == 2
        comps = components(pb.graph)
        assert [len(c) for c in comps] == [2, 2]
        # each component is a copy of the double cover: 2 vertices, 2 edges
        assert pb.graph.undirected_edge_count == 4
        assert is_cover(pb.to_first) and is_cover(pb.to_second)

    def test_pullback_along_identity_gives_same_graph(self):
        dg = derived_graph(ex1_level_one_assignment())
        pb = pullback(identity_cover(dg.assignment.graph), dg.projection)
        assert pb.graph.vertex_count == dg.graph.vertex_count
        assert pb.graph.undirected_edge_count == dg.graph.undirected_edge_count
        assert pb.component_count == len(components(dg.graph))

    def test_derived_of_lifted_voltage_is_the_fiber_product(self):
        # pull X(G, S, alpha) back along a cover f: the result must agree with
        # the derived graph of the transported voltage on the source of f
        X = bouquet(2)
        G2, G1 = cyclic(2), cyclic(3)
        va2 = voltage_assignment(X, G2, {"s1": 1, "s2": 1})
        va1 = voltage_assignment(X, G1, {"s1": 1, "s2": 0})
        up = derived_graph(va2)
        down = derived_graph(va1)
        pb = pullback(up.projection, down.projection)
        lifted = pullback_voltage(up.projection, va1.orientation,
                                  {d: va1.values[d] for d in va1.orientation}, G1)
        direct = derived_graph(lifted)
        assert pb.graph.vertex_count == direct.graph.vertex_count
        assert pb.graph.undirected_edge_count == direct.graph.undirected_edge_count
        # vertex sets match through the canonical relabeling (w, (v, s)) -> (w, s)
        assert {(w, s) for (w, (v, s)) in pb.graph.vertices} == \
            set(direct.graph.vertices)

    def test_mismatched_targets_rejected(self):
        a = derived_graph(ex1_level_one_assignment())
        b = derived_graph(voltage_assignment(bouquet(2), cyclic(2),
                                             {"s1": 1, "s2": 0}))
        with pytest.raises(ValidationError):
            pullback(a.projection, b.projection)


class TestPullbackVoltage:
    def test_constant_voltage_lifts_constant(self):
        va = d8_beta_assignment()
        X = va.graph
        alpha = voltage_assignment(X, cyclic(4), {"s1": 1, "s2": 1, "s3": 1})
        up = derived_graph(va)
        lifted = pullback_voltage(up.projection, alpha.orientation,
                                  {d: alpha.values[d] for d in alpha.orientation},
                                  cyclic(4))
        assert len(lifted.orientation) == 24
        assert all(v == 1 for v in lifted.values.values())

    def test_identity_cover_returns_same_voltage(self):
        va = ex1_level_one_assignment()
        lifted = pullback_voltage(identity_cover(va.graph), va.orientation,
                                  {d: va.values[d] for d in va.orientation},
                                  va.group)
        assert lifted.values == va.values

    def test_ex1_lift_has_nine_edges_per_voltage(self):
        X = bouquet(3)
        G = product(cyclic(3), cyclic(3))
        beta = voltage_assignment(X, G, {"s1": (1, 0), "s2": (0, 1), "s3": (1, 0)})
        alpha = voltage_assignment(X, cyclic(27), {"s1": 1, "s2": 4, "s3": 20})
        up = derived_graph(beta)
        lifted = pullback_voltage(up.projection, alpha.orientation,
                                  {d: alpha.values[d] for d in alpha.orientation},
                                  cyclic(27))
        assert len(lifted.orientation) == 27
        counts = {}
        for v in lifted.values.values():
            counts[v] = counts.get(v, 0) + 1
        assert counts == {1: 9, 4: 9, 20: 9}


class TestCombinedIso:
    def test_ex1_combination(self):
        X = bouquet(3)
        beta = voltage_assignment(X, product(cyclic(3), cyclic(3)),
                                  {"s1": (1, 0), "s2": (0, 1), "s3": (1, 0)})
        alpha = voltage_assignment(X, cyclic(27), {"s1": 1, "s2": 4, "s3": 20})
        assert verify_combined_iso(beta, alpha)

    def test_trivial_second_factor(self):
        X = bouquet(2)
        beta = voltage_assignment(X, cyclic(2), {"s1": 1, "s2": 1})
        alpha = voltage_assignment(X, cyclic(1), {"s1": 0, "s2": 0})
        assert verify_combined_iso(beta, alpha)

    def test_ex2_combination(self):
        X = bouquet(3)
        G = dihedral_8()
        beta = voltage_assignment(X, G, {"s1": DIHEDRAL_ROTATION,
                                         "s2": DIHEDRAL_REFLECTION,
                                         "s3": G.identity})
        alpha = voltage_assignment(X, cyclic(4), {"s1": 1, "s2": 1, "s3": 1})
        assert verify_combined_iso(beta, alpha)


def test_voltage_extension_inverts_on_reversed_edges():
    va = d8_beta_assignment()
    g = va.graph
    for s in va.orientation:
        assert va.voltage(g.inv(s)) == va.group.inverse(va.voltage(s))


def test_pullback_of_cover_is_cover_randomized():
    # structural check on random voltage covers over random bases
    rng = random.Random(271828)
    done = 0
    while done < 15:
        nv = rng.randint(1, 3)
        verts = [f"v{i}" for i in range(nv)]
        edges = [(rng.choice(verts), rng.choice(verts), f"e{j}")
                 for j in range(rng.randint(nv, 4))]
        base = build_multigraph(verts, edges)
        if not is_connected(base):
            continue
        G1 = cyclic(rng.choice([2, 3]))
        G2 = cyclic(rng.choice([2, 4]))
        va1 = voltage_assignment(base, G1, {
            e: rng.choice(G1.elements) for e in base.edge_ids})
        va2 = voltage_assignment(base, G2, {
            e: rng.choice(G2.elements) for e in base.edge_ids})
        p1 = derived_graph(va1).projection
        p2 = derived_graph(va2).projection
        pb = pullback(p1, p2)
        assert is_cover(pb.to_first)
        assert is_cover(pb.to_second)
        done += 1


def test_connected_pullback_of_galois_covers_is_galois_with_product_deck():
    X = bouquet(2)
    va1 = voltage_assignment(X, cyclic(2), {"s1": 1, "s2": 0})
    va2 = voltage_assignment(X, cyclic(3), {"s1": 1, "s2": 1})
    d1, d2 = derived_graph(va1), derived_graph(va2)
    pb = pullback(d1.projection, d2.projection)
    assert pb.component_count == 1
    galois1, decks1 = is_galois(pb.to_first)
    assert galois1 and len(decks1) == 3     # deck over Y1 is Gal(Y2/X)
    galois2, decks2 = is_galois(pb.to_second)
    assert galois2 and len(decks2) == 2
    # the composite to the base is Galois with the product group
    composite = CoverMap(
        source=pb.graph, target=X,
        vertex_map=tuple(d1.projection.vertex_map[i]
                         for i in pb.to_first.vertex_map),
        edge_map=tuple(d1.projection.edge_map[e]
                       for e in pb.to_first.edge_map))
    galois, decks = is_galois(composite)
    assert galois and len(decks) == 6


def test_voltage_connectedness_rejects_disconnected_base():
    base = build_multigraph(["a", "b"], [("a", "a", "e1"), ("b", "b", "e2")])
    va = voltage_assignment(base, cyclic(2), {"e1": 1, "e2": 1})
    with pytest.raises(DisconnectedError):
        voltage_connectedness(va)


def test_cover_map_rejects_non_morphism():
    X = bouquet(1)
    Y = derived_graph(voltage_assignment(X, cyclic(2), {"s1": 1})).graph
    # break the involution: map both directions of an edge the same way
    with pytest.raises(ValidationError):
        CoverMap(source=Y, target=X,
                 vertex_map=(0, 0), edge_map=(0, 0, 0, 0))


def test_pullback_voltage_needs_edge_surjectivity():
    X = bouquet(2)
    sub = bouquet(1)
    # embed the single loop as edge s1 of X: not surjective on edges
    embed = CoverMap(source=sub, target=X, vertex_map=(0,),
                     edge_map=(0, 1))
    va = voltage_assignment(X, cyclic(3), {"s1": 1, "s2": 2})
    with pytest.raises(ValidationError, match="surjective"):
        pullback_voltage(embed, va.orientation,
                         {d: va.values[d] for d in va.orientation}, cyclic(3))


def test_deck_group_is_isomorphic_to_voltage_group():
    # decks of a connected derived graph are the left translations: reading
    # tau from the image of (v0, identity) and composing two decks must give
    # the deck of the product
    for make in (d8_beta_assignment, ex1_level_one_assignment):
        va = make()
        dg = derived_graph(va)
        decks = deck_transformations(dg.projection)
        G = va.group
        assert len(decks) == G.order
        v0 = va.graph.vertices[0]
        start = dg.graph.vertices.index((v0, G.identity))
        by_tau = {}
        for vmap, _ in decks:
            tau = dg.graph.vertices[vmap[start]][1]
            by_tau[tau] = vmap
        assert set(by_tau) == set(G.elements)
        for tau1 in G.elements:
            for tau2 in G.elements:
                composed = {w: by_tau[tau1][by_tau[tau2][w]]
                            for w in range(dg.graph.vertex_count)}
                assert composed == by_tau[G.multiply(tau1, tau2)]


# -- cover maps built from labels, against index arithmetic -----------------

LABEL_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow,
                                                 HealthCheck.filter_too_much])


def _groups_with_quotient():
    """(G, a surjective morphism out of G): cyclic groups and direct products."""
    c2, c3, c4, c6 = cyclic(2), cyclic(3), cyclic(4), cyclic(6)
    c2c2, c2c3, c3c3 = product(c2, c2), product(c2, c3), product(c3, c3)
    return [(c4, reduction_hom(4, 2)), (c6, reduction_hom(6, 3)),
            (c3, hom(c3, c3, lambda a: a)),
            (c2c2, hom(c2c2, c2, lambda p: (p[0] + p[1]) % 2)),
            (c2c3, hom(c2c3, c3, lambda p: p[1])),
            (c3c3, hom(c3c3, c3, lambda p: p[0]))]


GROUPS_WITH_QUOTIENT = _groups_with_quotient()
VOLTAGE_GROUPS = [group for group, _f in GROUPS_WITH_QUOTIENT]


@st.composite
def small_bases(draw):
    """1-3 vertices, 1-4 edges (loops and parallel edges allowed), and an
    orientation that takes some edges against their declared direction."""
    verts = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)),
                         min_size=1, max_size=4))
    graph = build_multigraph(verts, [(u, v, f"e{k}") for k, (u, v) in enumerate(ends)])
    flips = draw(st.lists(st.integers(0, 1), min_size=len(ends), max_size=len(ends)))
    return graph, Orientation(tuple(2 * k + flip for k, flip in enumerate(flips)))


def draw_assignment(draw, base, group):
    graph, orientation = base
    values = {eid: draw(st.sampled_from(group.elements)) for eid in graph.edge_ids}
    return voltage_assignment(graph, group, values, orientation)


def index_arithmetic_quotient_maps(va, f, top, bottom):
    """The vertex and edge maps of X(G) -> X(G1) read off derived_graph's edge
    order: derived undirected edge k comes from (S[k // |G|], elements[k % |G|])."""
    tgt_vindex = {v: i for i, v in enumerate(bottom.graph.vertices)}
    vmap = [tgt_vindex[(v, f(sigma))] for (v, sigma) in top.graph.vertices]
    n_g = va.group.order
    elems = va.group.elements
    tgt_order = {e: i for i, e in enumerate(f.target.elements)}
    emap = []
    for k in range(top.graph.undirected_edge_count):
        s_pos, sigma_pos = divmod(k, n_g)
        sigma_img = f(elems[sigma_pos])
        k_tgt = s_pos * f.target.order + tgt_order[sigma_img]
        emap.extend((2 * k_tgt, 2 * k_tgt + 1))
    return tuple(vmap), tuple(emap)


@LABEL_SETTINGS
@given(st.data())
def test_quotient_cover_matches_index_arithmetic(data):
    base = data.draw(small_bases())
    group, f = data.draw(st.sampled_from(GROUPS_WITH_QUOTIENT))
    va = draw_assignment(data.draw, base, group)
    cov, top, bottom = quotient_cover(va, f)
    assert (cov.vertex_map, cov.edge_map) == \
        index_arithmetic_quotient_maps(va, f, top, bottom)
    assert is_cover(cov)


@LABEL_SETTINGS
@given(st.data())
def test_pullback_square_commutes(data):
    base = data.draw(small_bases())
    p1, p2 = (derived_graph(draw_assignment(
        data.draw, base, data.draw(st.sampled_from(VOLTAGE_GROUPS)))).projection
        for _ in range(2))
    assert is_cover(p1) and is_cover(p2)
    pb = pullback(p1, p2)
    a, b = pb.to_first, pb.to_second
    assert all(p1.vertex_map[a.vertex_map[w]] == p2.vertex_map[b.vertex_map[w]]
               for w in range(pb.graph.vertex_count))
    assert all(p1.edge_map[a.edge_map[d]] == p2.edge_map[b.edge_map[d]]
               for d in range(pb.graph.directed_edge_count))
    assert is_cover(a) and is_cover(b)
    # edge k runs along the k-th matching pair (d1, d2) of a full scan that
    # skips the reverse of every pair already taken
    want, taken = [], set()
    for d1 in range(p1.source.directed_edge_count):
        for d2 in range(p2.source.directed_edge_count):
            if p1.edge_map[d1] == p2.edge_map[d2] and (d1, d2) not in taken:
                taken.add((d1 ^ 1, d2 ^ 1))
                want.append((d1, d2))
    assert [(a.edge_map[2 * k], b.edge_map[2 * k])
            for k in range(pb.graph.undirected_edge_count)] == want


@LABEL_SETTINGS
@given(st.data())
def test_combined_iso_holds_on_connected_covers(data):
    base = data.draw(small_bases())
    assume(is_connected(base[0]))
    beta_group, f = data.draw(st.sampled_from(GROUPS_WITH_QUOTIENT))
    va_beta = draw_assignment(data.draw, base, beta_group)
    va_alpha = draw_assignment(data.draw, base, f.target)
    assume(voltage_connectedness(va_beta)[0] and voltage_connectedness(va_alpha)[0])
    assert verify_combined_iso(va_beta, va_alpha)
