import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import giwa.graphs as graphs
from giwa import (ValidationError, DisconnectedError, bareiss_determinant,
                  bouquet, build_multigraph, components,
                  count_spanning_trees_bruteforce, cycle_graph,
                  euler_characteristic, is_connected, matrices, pi1_basis,
                  spanning_tree_count)
from giwa.graphs import laplacian_cofactor, path_is_closed_at
from giwa.series import cofactor_determinant


def two_vertex_four_edge_graph():
    # s1, s2 from v1 to v0; s3, s4 from v0 to v1
    return build_multigraph(
        ["v0", "v1"],
        [("v1", "v0", "s1"), ("v1", "v0", "s2"),
         ("v0", "v1", "s3"), ("v0", "v1", "s4")])


def random_connected_multigraph(rng, max_vertices=5, max_edges=10):
    while True:
        nv = rng.randint(1, max_vertices)
        verts = [f"v{i}" for i in range(nv)]
        ne = rng.randint(max(1, nv - 1), max_edges)
        edges = [(rng.choice(verts), rng.choice(verts)) for _ in range(ne)]
        g = build_multigraph(verts, edges)
        if is_connected(g):
            return g


class TestBuild:
    def test_bouquet_three_loops(self):
        g = bouquet(3)
        assert g.vertex_count == 1
        assert g.directed_edge_count == 6

    def test_single_vertex_no_edges(self):
        g = build_multigraph(["v"], [])
        assert euler_characteristic(g) == 1

    def test_undeclared_vertex_rejected(self):
        with pytest.raises(ValidationError, match="undeclared vertex 'w'"):
            build_multigraph(["v"], [("v", "w", "bad")])

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate edge id"):
            build_multigraph(["v"], [("v", "v", "e"), ("v", "v", "e")])

    def test_edge_index(self):
        g = build_multigraph(["a", "b"], [("a", "b", "x"), ("a", "a", 7)])
        assert [g.edge_index(eid) for eid in g.edge_ids] == [0, 1]
        for eid in ("y", ["x"]):
            with pytest.raises(ValidationError, match="unknown edge"):
                g.edge_index(eid)

    def test_involution_axioms(self):
        g = two_vertex_four_edge_graph()
        for d in range(g.directed_edge_count):
            assert g.inv(d) != d
            assert g.inv(g.inv(d)) == d
            assert g.origin[g.inv(d)] == g.terminus[d]
            assert g.terminus[g.inv(d)] == g.origin[d]

    def test_roundtrip_from_undirected_list(self):
        g = two_vertex_four_edge_graph()
        rebuilt = build_multigraph(
            g.vertices,
            [(g.vertices[o], g.vertices[t], eid) for eid, o, t in g.undirected_edges()])
        assert rebuilt.vertices == g.vertices
        assert rebuilt.origin == g.origin
        assert rebuilt.terminus == g.terminus


class TestEulerCharacteristic:
    def test_bouquet(self):
        assert euler_characteristic(bouquet(3)) == -2

    @pytest.mark.parametrize("g", [1, 2, 3, 7])
    def test_cycle(self, g):
        assert euler_characteristic(cycle_graph(g)) == 0

    def test_two_disjoint_triangles(self):
        # b0 = 2 and b1 = 2, so chi = 0
        verts = [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
        edges = [(f"a{i}", f"a{(i + 1) % 3}") for i in range(3)] + \
                [(f"b{i}", f"b{(i + 1) % 3}") for i in range(3)]
        g = build_multigraph(verts, edges)
        assert len(components(g)) == 2
        assert euler_characteristic(g) == 0


class TestMatrices:
    def test_single_loop(self):
        D, A, Q = matrices(bouquet(1))
        assert D == [[2]] and A == [[2]] and Q == [[0]]

    def test_four_parallel_edges(self):
        g = two_vertex_four_edge_graph()
        D, A, _ = matrices(g)
        assert D == [[4, 0], [0, 4]]
        assert A == [[0, 4], [4, 0]]

    def test_bouquet_three(self):
        D, A, _ = matrices(bouquet(3))
        assert D == [[6]] and A == [[6]]

    def test_laplacian_singular_and_cofactors_agree(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            D, A, Q = matrices(g)
            assert all(sum(row) == 0 for row in Q)
            assert all(A[i][j] == A[j][i] for i in range(len(A))
                       for j in range(len(A)))
            assert bareiss_determinant(Q) == 0
            cofs = {laplacian_cofactor(g, i) for i in range(g.vertex_count)}
            assert len(cofs) == 1


class TestSpanningTrees:
    @pytest.mark.parametrize("g", [1, 2, 3, 5, 9])
    def test_cycle_count(self, g):
        assert spanning_tree_count(cycle_graph(g)) == g

    def test_bouquet(self):
        assert spanning_tree_count(bouquet(3)) == 1

    def test_complete_graph_k4(self):
        verts = ["a", "b", "c", "d"]
        edges = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
        g = build_multigraph(verts, edges)
        assert count_spanning_trees_bruteforce(g) == 16
        assert spanning_tree_count(g) == 16

    def test_disconnected_is_an_error(self):
        g = build_multigraph(["a", "b"], [])
        with pytest.raises(DisconnectedError):
            spanning_tree_count(g)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(20240601)
        for _ in range(40):
            g = random_connected_multigraph(rng)
            assert spanning_tree_count(g) == count_spanning_trees_bruteforce(g)


class TestPi1Basis:
    def test_bouquet_loops_are_single_edges(self):
        g = bouquet(3)
        basis = pi1_basis(g, "v")
        assert len(basis.loops) == 3
        assert all(len(path) == 1 for _s, path in basis.loops)

    def test_worked_two_vertex_example(self):
        g = two_vertex_four_edge_graph()
        basis = pi1_basis(g, "v0", tree_edge_ids=["s4"])
        named = {g.edge_label(s): [g.edge_label(d) for d in path]
                 for s, path in basis.loops}
        assert named == {"s1": ["s4", "s1"],
                         "s2": ["s4", "s2"],
                         "s3": ["s3", "~s4"]}

    def test_loops_are_closed_at_base(self):
        g = two_vertex_four_edge_graph()
        basis = pi1_basis(g, "v0")
        for _s, path in basis.loops:
            assert path_is_closed_at(g, path, basis.base_vertex)

    def test_tree_graph_has_empty_basis(self):
        g = build_multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert pi1_basis(g, "a").loops == ()

    def test_rank_matches_euler_characteristic(self):
        rng = random.Random(99)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            basis = pi1_basis(g, g.vertices[0])
            assert euler_characteristic(g) == 1 - len(basis.loops)

    def test_disconnected_rejected(self):
        g = build_multigraph(["a", "b"], [])
        with pytest.raises(DisconnectedError):
            pi1_basis(g, "a")


class TestConnectivity:
    def test_bouquet_connected(self):
        assert is_connected(bouquet(3))

    def test_disjoint_cycles_disconnected(self):
        verts = ["a0", "a1", "b0", "b1"]
        edges = [("a0", "a1"), ("a1", "a0"), ("b0", "b1"), ("b1", "b0")]
        assert not is_connected(build_multigraph(verts, edges))

    def test_empty_graph_not_connected(self):
        assert not is_connected(build_multigraph([], []))


class TestBareiss:
    def test_identity(self):
        assert bareiss_determinant([[1, 0], [0, 1]]) == 1

    def test_needs_pivot(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0

    def test_matches_cofactor_expansion(self):
        from giwa import cofactor_determinant
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(m) == cofactor_determinant(m)


def floor_division_determinant(matrix):
    """Bareiss with `//` at every step: the division rule before the 2-adic one."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@st.composite
def wide_matrices(draw):
    """Square matrices whose Bareiss divisors straddle graphs._TWO_ADIC_CUTOFF.

    Column j is scaled by +-2^s_j, which scales the leading minors, and so
    the divisors, by signs and powers of 2 up to 2^64.  A zero leading minor
    forces a row swap, and a repeated row or a zero column makes the matrix
    singular.
    """
    n = draw(st.integers(0, 8))
    bits = draw(st.integers(500, max(500, min(20_000, 40_000 // max(n, 1)))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = [[rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(0, n - 2))
        if k == 0:
            a[0][0] = 0
        else:
            a[k][:k + 1] = a[0][:k + 1]     # leading (k+1)-minor is 0
    singular = draw(st.sampled_from(["no", "row", "column"])) if n >= 2 else "no"
    if singular == "row":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a[i] = list(a[j])
    elif singular == "column":
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = 0
    for j in range(n):
        scale = (-1) ** draw(st.integers(0, 1)) << draw(st.integers(0, 64))
        for row in a:
            row[j] *= scale
    return a, singular != "no"


class TestTwoAdicDivision:
    @settings(max_examples=60, deadline=None)
    @given(wide_matrices())
    def test_matches_floor_division_and_cofactors(self, case):
        a, singular = case
        det = bareiss_determinant(a)
        assert det == floor_division_determinant(a)
        if len(a) <= 6:
            assert det == cofactor_determinant(a)
        if singular:
            assert det == 0

    @pytest.mark.parametrize("n, bits, wide_steps", [(8, 2000, 6), (8, 300, 3), (6, 8, 0)])
    def test_wide_divisors_take_the_two_adic_branch(self, monkeypatch, n, bits, wide_steps):
        # step k divides by a leading k-minor, about k * bits bits wide
        rng = random.Random(n * bits)
        a = [[rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)] for _ in range(n)]
        a[0][0] = -a[0][0] << 40
        calls = []
        real = graphs._exact_divider

        def counting(d):
            calls.append(d.bit_length())
            return real(d)

        monkeypatch.setattr(graphs, "_exact_divider", counting)
        assert bareiss_determinant(a) == floor_division_determinant(a)
        assert len(calls) == wide_steps
        assert all(b > graphs._TWO_ADIC_CUTOFF for b in calls)

    def test_exact_divider_signs_and_powers_of_two(self):
        rng = random.Random(11)
        for d_bits, q_bits in [(1100, 1), (1100, 3000), (5000, 700), (20_000, 20_000)]:
            for s in (0, 1, 64):
                d = (rng.getrandbits(d_bits) | 1 << (d_bits - 1) | 1) << s
                for sd in (1, -1):
                    divide = graphs._exact_divider(sd * d)
                    for _ in range(4):
                        q = rng.getrandbits(q_bits) * rng.choice((1, -1))
                        assert divide(q * sd * d) == q
                    assert divide(0) == 0


@st.composite
def sparse_matrices(draw):
    """Square matrices with a random zero pattern and, often, zeros on the
    diagonal, which force row swaps.  Entries are up to 400 bits wide, so
    that lazily scaled rows divide by pivots on both sides of
    graphs._TWO_ADIC_CUTOFF."""
    n = draw(st.integers(0, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    bits = draw(st.sampled_from([3, 64, 400]))
    a = [[rng.getrandbits(bits) - (1 << (bits - 1)) if rng.random() < density else 0
          for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            if rng.random() < 0.5:
                a[i][i] = 0
    return a


def in_given_order(a):
    """bareiss_determinant with the fill-reducing order switched off."""
    with mock.patch.object(graphs, "_fill_reducing_order", lambda _a: None):
        return bareiss_determinant(a)


class TestSparseElimination:
    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_random_zero_patterns(self, a):
        det = bareiss_determinant(a)
        assert det == floor_division_determinant(a) == in_given_order(a)
        if len(a) <= 6:
            assert det == cofactor_determinant(a)
        order = graphs._fill_reducing_order(a)
        assert order is None or sorted(order) == list(range(len(a)))

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.randoms(use_true_random=False))
    def test_symmetric_permutation_keeps_det(self, a, rng):
        order = list(range(len(a)))
        rng.shuffle(order)
        permuted = [[a[i][j] for j in order] for i in order]
        assert bareiss_determinant(permuted) == bareiss_determinant(a)
        assert in_given_order(permuted) == in_given_order(a)

    @pytest.mark.parametrize("a", [
        # Rows 3 and 4 are 0 in columns 1 and 2 after step 0, so both are
        # skipped at steps 1 and 2.  Row 3 is then 0 in column 3 as well:
        # step 3 swaps in row 4, which is brought up from step 0's minors by
        # p_2 / p_0, and row 3, now row 4, is brought up at step 4.
        [[2, 0, 0, 0, 0, 1],
         [1, 3, 1, 0, 0, 1],
         [0, 1, 4, 0, 0, 1],
         [5, 0, 0, 0, 2, 1],
         [3, 0, 0, 7, 1, 1],
         [1, 1, 1, 1, 1, 1]],
        # Step 0 updates rows 1 and 2 and skips row 3, which is 0 in column
        # 0.  Rows 1 and 2 are then 0 in column 1: step 1 swaps row 1, which
        # holds step 0's minors, with row 3, which still holds the input.
        [[3, 0, 1, 1],
         [3, 0, 1, 0],
         [2, 0, 0, 0],
         [0, 4, 0, 0]],
        # After step 0 the last row is 0 in columns 1 to 3: it holds step 0's
        # minors until it is brought up, by p_3 / p_0, for the result.
        [[3, 0, 0, 0, 1],
         [1, 2, 1, 0, 1],
         [1, 1, 2, 1, 1],
         [2, 0, 1, 3, 1],
         [2, 0, 0, 0, 5]],
    ], ids=["swap-of-two-lazy-rows", "swap-of-rows-of-different-steps",
            "row-untouched-until-the-last-step"])
    def test_lazily_scaled_rows(self, a):
        det = cofactor_determinant(a)
        assert det != 0
        assert in_given_order(a) == floor_division_determinant(a) == det
        assert bareiss_determinant(a) == det
        # shifted past the cutoff, the same steps divide 2-adically
        wide = [[x << 1100 for x in row] for row in a]
        assert in_given_order(wide) == bareiss_determinant(wide) == det << 1100 * len(a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_structural_zero_determinant(self, n, data):
        # r rows that are nonzero only in r - 1 columns: det is 0 whatever
        # the values, which Bareiss must find by exact cancellation
        r = data.draw(st.integers(2, n))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        bits = data.draw(st.sampled_from([3, 300]))
        a = [[rng.getrandbits(bits) + 1 if i >= r or j < r - 1 else 0
              for j in range(n)] for i in range(n)]
        rows, cols = list(range(n)), list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        a = [[a[i][j] for j in cols] for i in rows]
        assert bareiss_determinant(a) == in_given_order(a) == 0

    def test_minimum_degree_order(self):
        # an arrowhead with its hub first: eliminating the hub first fills
        # the whole matrix, eliminating the leaves first fills nothing
        n = 7
        a = [[1 if i == j or i == 0 or j == 0 else 0 for j in range(n)] for i in range(n)]
        assert graphs._fill_reducing_order(a)[:n - 2] == list(range(1, n - 1))
        assert graphs._fill_reducing_order([[1, 2], [3, 4]]) is None
        assert graphs._fill_reducing_order([[0, 2], [3, 0]]) is None
