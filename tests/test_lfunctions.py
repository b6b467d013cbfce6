import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import giwa.graphs
import giwa.polys
import giwa.series
from giwa import (CyclotomicElement, ValidationError, artin_product_check,
                  bareiss_determinant, bouquet, build_multigraph,
                  class_number_check, cyclic, cycle_graph, derived_graph,
                  dihedral_8, euler_characteristic, h_of_graph, h_twisted,
                  hashimoto_check, ihara_zeta_inverse, is_connected, matrices,
                  product, spanning_tree_count, twisted_adjacency,
                  voltage_assignment)
from giwa.characters import all_characters, trivial_character
from giwa.errors import UnsupportedError
from giwa.lfunctions import h_polynomial
from giwa.polys import Poly, interpolate_at_integers
from giwa.series import cofactor_determinant, ring_determinant


def ex1_level_one():
    return voltage_assignment(bouquet(3), cyclic(3), {"s1": 1, "s2": 1, "s3": 2})


def ex2_level_one():
    return voltage_assignment(bouquet(3), cyclic(2), {"s1": 1, "s2": 1, "s3": 1})


class TestTwistedAdjacency:
    def test_trivial_character_is_plain_adjacency(self):
        va = ex1_level_one()
        _, A, _ = matrices(va.graph)
        assert twisted_adjacency(va, trivial_character(cyclic(3))) == A

    def test_single_loop_mod_two(self):
        va = voltage_assignment(bouquet(1), cyclic(2), {"s1": 1})
        psis = [p for p in all_characters(cyclic(2)) if not p.is_trivial]
        M = twisted_adjacency(va, psis[0])
        assert M[0][0] == -2

    def test_bouquet_mod_three(self):
        va = ex1_level_one()
        psi = next(p for p in all_characters(cyclic(3))
                   if p.exponents == (1,))
        M = twisted_adjacency(va, psi)
        # 2 zeta + 2 zeta^2 + zeta^2 + zeta = 3(zeta + zeta^2) = -3
        assert M[0][0] == -3

    def test_conjugate_transpose_symmetry(self):
        rng = random.Random(41)
        for _ in range(20):
            nv = rng.randint(1, 3)
            verts = [f"v{i}" for i in range(nv)]
            edges = [(rng.choice(verts), rng.choice(verts), f"e{j}")
                     for j in range(rng.randint(1, 5))]
            graph = build_multigraph(verts, edges)
            G = cyclic(rng.choice([2, 3, 4, 5]))
            va = voltage_assignment(
                graph, G,
                {f"e{j}": rng.choice(G.elements)
                 for j in range(graph.undirected_edge_count)})
            for psi in all_characters(G):
                if psi.is_trivial:
                    continue
                M = twisted_adjacency(va, psi)
                n = len(M)
                for i in range(n):
                    for j in range(n):
                        x = M[i][j]
                        conj = x.conjugate(x.m - 1) if isinstance(
                            x, CyclotomicElement) else x
                        assert M[j][i] == conj


class TestHPolynomial:
    def test_constant_term_is_one(self):
        h = h_of_graph(bouquet(3))
        assert h[0] == 1

    def test_vanishes_at_one_for_trivial_character(self):
        for graph in (bouquet(3), cycle_graph(4),
                      build_multigraph(["a", "b"], [("a", "b"), ("a", "b"),
                                                    ("a", "a")])):
            assert h_of_graph(graph)(1) == 0

    def test_triangle_against_cofactor_oracle(self):
        graph = cycle_graph(3)
        D, A, _ = matrices(graph)
        u = Poly.x()
        M = [[(1 if i == j else 0) - A[i][j] * u
              + (D[i][j] - (1 if i == j else 0)) * u * u
              for j in range(3)] for i in range(3)]
        assert h_of_graph(graph) == cofactor_determinant(M)

    def test_bouquet_three_closed_form(self):
        # one vertex of valency six: h = 1 - 6u + 5u^2
        assert h_of_graph(bouquet(3)) == Poly([1, -6, 5])


def replaced_h_polynomial(D, A):
    """The two routes the one Kronecker determinant replaced: over Z, 2g + 1
    Bareiss evaluations and Newton interpolation; over Z[zeta], Berkowitz
    over polynomials with cyclotomic coefficients."""
    g = len(D)

    def matrix(u, u2):
        return [[(1 if i == j else 0) - u * A[i][j] + u2 * (D[i][j] - (1 if i == j else 0))
                 for j in range(g)] for i in range(g)]

    if all(isinstance(x, int) for row in A for x in row):
        return Poly(interpolate_at_integers(
            [bareiss_determinant(matrix(t, t * t)) for t in range(2 * g + 1)]))
    return ring_determinant(matrix(Poly.x(), Poly.x(2)))


@st.composite
def twisted_covers(draw):
    """A multigraph on 1 to 6 vertices with loops and parallel edges, and
    voltages in Z/ell^k (k <= 3) or Z/ell x Z/ell.  Z/125 keeps to two
    vertices, where the replaced Z[zeta] route stays under a second."""
    ell = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.sampled_from([1, 2, 3, "cc"]))
    G = product(cyclic(ell), cyclic(ell)) if k == "cc" else cyclic(ell ** k)
    n_vertices = draw(st.integers(1, 2 if G.order == 125 else 6))
    verts = [f"v{i}" for i in range(n_vertices)]
    edges = [(draw(st.sampled_from(verts)), draw(st.sampled_from(verts)), f"e{j}")
             for j in range(draw(st.integers(0, n_vertices + 3)))]
    graph = build_multigraph(verts, edges)
    return voltage_assignment(graph, G, {eid: draw(st.sampled_from(G.elements))
                                         for _u, _v, eid in edges})


class TestOneKroneckerDeterminant:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(twisted_covers())
    def test_matches_replaced_routes_for_every_character(self, va):
        D, _, _ = matrices(va.graph)
        for psi in all_characters(va.group):
            A = twisted_adjacency(va, psi)
            assert h_polynomial(D, A) == replaced_h_polynomial(D, A)

    def counted(self, monkeypatch):
        """Count calls of the determinant and interpolation routes, under
        every name a giwa module looks them up by."""
        calls = {}
        for name, real in (("bareiss_determinant", giwa.graphs.bareiss_determinant),
                           ("interpolate_at_integers", giwa.polys.interpolate_at_integers),
                           ("ring_determinant", giwa.series.ring_determinant)):
            calls[name] = 0

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            for modname, module in list(sys.modules.items()):
                if modname.startswith("giwa") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("exponents", [(0,), (1,)], ids=["over Z", "over Z[zeta_9]"])
    def test_one_bareiss_call_and_no_other_route(self, monkeypatch, exponents):
        graph = build_multigraph(["a", "b"], [("a", "b", "s1"), ("a", "a", "s2"),
                                              ("a", "b", "s3")])
        va = voltage_assignment(graph, cyclic(9), {"s1": 1, "s2": 4, "s3": 0})
        psi = next(p for p in all_characters(va.group) if p.exponents == exponents)
        D, _, _ = matrices(va.graph)
        A = twisted_adjacency(va, psi)
        calls = self.counted(monkeypatch)
        h_polynomial(D, A)
        assert calls == {"bareiss_determinant": 1, "interpolate_at_integers": 0,
                         "ring_determinant": 0}

    def test_empty_matrix(self):
        assert h_polynomial([], []) == Poly([1])

    def test_two_conductors_refused(self):
        A = [[CyclotomicElement.zeta(3), 0], [0, CyclotomicElement.zeta(4)]]
        with pytest.raises(ValidationError, match="conductors"):
            h_polynomial([[2, 0], [0, 2]], A)


class TestIharaZeta:
    def test_single_loop_chi_zero(self):
        # chi(B1) = 0 so the zeta inverse is h itself
        graph = bouquet(1)
        assert ihara_zeta_inverse(graph) == h_of_graph(graph)

    def test_bouquet_three(self):
        expected = Poly([1, 0, -1]) ** 2 * Poly([1, -6, 5])
        assert ihara_zeta_inverse(bouquet(3)) == expected

    @pytest.mark.parametrize("g", [3, 4, 5, 7])
    def test_cycle_closed_form_at_one_half(self, g):
        # 1/Z for the cycle on g vertices is (1 - u^g)^2
        z = ihara_zeta_inverse(cycle_graph(g))
        u = Fraction(1, 2)
        assert z(u) == (1 - u ** g) ** 2

    def test_tree_has_trivial_zeta(self):
        tree = build_multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert ihara_zeta_inverse(tree) == Poly([1])


class TestHashimoto:
    def test_cycle_rhs_vanishes(self):
        report = hashimoto_check(cycle_graph(3))
        assert report.passed and report.right == 0

    def test_bouquet_three(self):
        report = hashimoto_check(bouquet(3))
        assert report.passed
        assert report.left == 4        # h' = -6 + 10u at u = 1

    def test_ex1_nine_vertex_cover(self):
        va = voltage_assignment(bouquet(3), product(cyclic(3), cyclic(3)),
                                {"s1": (1, 0), "s2": (0, 1), "s3": (1, 0)})
        Y = derived_graph(va).graph
        report = hashimoto_check(Y)
        assert report.passed
        assert spanning_tree_count(Y) == 2**2 * 3**10
        assert report.right == 36 * 236196

    def test_random_graphs(self):
        from test_graphs import random_connected_multigraph
        rng = random.Random(43)
        for _ in range(30):
            graph = random_connected_multigraph(rng, max_vertices=4, max_edges=8)
            assert hashimoto_check(graph).passed


class TestArtinProduct:
    def test_trivial_group(self):
        va = voltage_assignment(bouquet(2), cyclic(1), {"s1": 0, "s2": 0})
        assert artin_product_check(va).passed

    def test_double_cover_of_single_loop(self):
        va = voltage_assignment(bouquet(1), cyclic(2), {"s1": 1})
        report = artin_product_check(va)
        assert report.passed
        # h_X = (1-u)^2, h(u,psi) = (1+u)^2, product = (1-u^2)^2
        assert report.right == Poly([1, 0, -2, 0, 1])

    def test_ex1_level_one_degree_six(self):
        report = artin_product_check(ex1_level_one())
        assert report.passed
        assert report.left.degree == 6

    def test_nonabelian_group_unsupported(self):
        from giwa.groups import DIHEDRAL_REFLECTION, DIHEDRAL_ROTATION
        G = dihedral_8()
        va = voltage_assignment(bouquet(3), G, {"s1": DIHEDRAL_ROTATION,
                                                "s2": DIHEDRAL_REFLECTION,
                                                "s3": G.identity})
        with pytest.raises(UnsupportedError):
            artin_product_check(va)
        with pytest.raises(UnsupportedError):
            class_number_check(va)


class TestClassNumberFormula:
    def test_ex1_level_one(self):
        report = class_number_check(ex1_level_one())
        assert report.passed
        assert report.left == 3 * 27      # |G| kappa_1, with ord_3(kappa_1) = 3

    def test_trivial_group(self):
        va = voltage_assignment(bouquet(2), cyclic(1), {"s1": 0, "s2": 0})
        report = class_number_check(va)
        assert report.passed

    def test_ex2_level_one(self):
        report = class_number_check(ex2_level_one())
        assert report.passed
        assert report.left == 2 * 6       # kappa_1 = 2*3
        psi = next(p for p in all_characters(cyclic(2)) if not p.is_trivial)
        assert h_twisted(ex2_level_one(), psi)(1) == 12

    def test_cycle_base_refused(self):
        va = voltage_assignment(cycle_graph(5), cyclic(2),
                                {f"s{i}": 1 if i == 1 else 0
                                 for i in range(1, 6)})
        with pytest.raises(ValidationError, match="chi"):
            class_number_check(va)

    def test_h_at_one_nonzero_for_nontrivial_characters(self):
        rng = random.Random(47)
        count = 0
        while count < 15:
            nv = rng.randint(1, 3)
            verts = [f"v{i}" for i in range(nv)]
            ne = rng.randint(nv, 5)
            edges = [(rng.choice(verts), rng.choice(verts), f"e{j}")
                     for j in range(ne)]
            graph = build_multigraph(verts, edges)
            if not is_connected(graph) or euler_characteristic(graph) == 0:
                continue
            m = rng.choice([2, 3, 4])
            G = cyclic(m)
            va = voltage_assignment(
                graph, G,
                {f"e{j}": rng.choice(G.elements) for j in range(ne)})
            from giwa import voltage_connectedness
            ok, _ = voltage_connectedness(va)
            if not ok:
                continue
            count += 1
            for psi in all_characters(G):
                value = h_twisted(va, psi)(1)
                if psi.is_trivial:
                    assert value == 0
                else:
                    assert value != 0

    def test_random_abelian_covers(self):
        rng = random.Random(53)
        from giwa import voltage_connectedness
        groups = [cyclic(2), cyclic(3), cyclic(4), cyclic(6),
                  product(cyclic(2), cyclic(2)), product(cyclic(3), cyclic(3))]
        done = 0
        while done < 20:
            nv = rng.randint(1, 3)
            verts = [f"v{i}" for i in range(nv)]
            ne = rng.randint(nv, 5)
            edges = [(rng.choice(verts), rng.choice(verts), f"e{j}")
                     for j in range(ne)]
            graph = build_multigraph(verts, edges)
            if not is_connected(graph):
                continue
            G = rng.choice(groups)
            va = voltage_assignment(
                graph, G,
                {f"e{j}": rng.choice(G.elements) for j in range(ne)})
            ok, _ = voltage_connectedness(va)
            if not ok:
                continue
            assert artin_product_check(va).passed
            if euler_characteristic(graph) != 0:
                assert class_number_check(va).passed
            done += 1


class TestLevelTwoClassNumber:
    def test_ex1_level_two_product_in_ninth_cyclotomics(self):
        # ell^n kappa_n = kappa_X * prod over nontrivial psi of h(1, psi),
        # with the 8 nontrivial characters of Z/9 taking values in Z[zeta_9]
        va = voltage_assignment(bouquet(3), cyclic(9),
                                {"s1": 1, "s2": 4, "s3": 2})
        report = class_number_check(va)
        assert report.passed
        Y = derived_graph(va).graph
        assert report.left == 9 * spanning_tree_count(Y)
        assert spanning_tree_count(Y) == 419904      # ord_3 = 8

    def test_ex2_level_two(self):
        va = voltage_assignment(bouquet(3), cyclic(4),
                                {"s1": 1, "s2": 1, "s3": 1})
        report = class_number_check(va)
        assert report.passed
        assert report.left == 4 * 108                # kappa_2 = 2^2 * 3^3


class TestWiderRandomAbelianCovers:
    def test_up_to_five_vertex_bases(self):
        # a handful of larger bases complementing the bulk randomized suite
        rng = random.Random(59)
        from giwa import voltage_connectedness
        groups = [cyclic(4), cyclic(9), product(cyclic(2), cyclic(2))]
        done = 0
        while done < 6:
            nv = rng.randint(4, 5)
            verts = [f"v{i}" for i in range(nv)]
            edges = [(verts[i], verts[i + 1], f"t{i}") for i in range(nv - 1)]
            edges += [(rng.choice(verts), rng.choice(verts), f"e{j}")
                      for j in range(rng.randint(2, 3))]
            graph = build_multigraph(verts, edges)
            G = rng.choice(groups)
            va = voltage_assignment(
                graph, G, {eid: rng.choice(G.elements)
                           for eid in graph.edge_ids})
            ok, _ = voltage_connectedness(va)
            if not ok:
                continue
            assert artin_product_check(va).passed
            if euler_characteristic(graph) != 0:
                assert class_number_check(va).passed
            done += 1
