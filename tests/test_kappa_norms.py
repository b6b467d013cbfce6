"""kappa_n through the class number formula against Bareiss on the level graphs.

kappa_ord_sequence reads kappa_n off cyclotomic norms of the tower's Laurent
determinant P; the oracle here builds each level graph and counts its spanning
trees with the matrix-tree theorem, which the library no longer does.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from giwa import (CyclotomicElement, DisconnectedError, PadicTruncated,
                  PrecisionError, Tower, build_multigraph, characteristic_series,
                  cyclic, derived_graph, euler_phi, kappa_ord_sequence,
                  lift_tower, spanning_tree_count, tower, tower_level,
                  voltage_assignment, voltage_connectedness)
from giwa.iwasawa import certify_levels_connected, decimal_string
from giwa.series import ord_int

MAX_LEVEL_VERTICES = 100


@st.composite
def small_towers(draw):
    """A tower over a base of 1 to 3 vertices, or its pullback along a Z/ell cover."""
    ell = draw(st.sampled_from([2, 3, 5]))
    n_vertices = draw(st.integers(1, 3))
    n_edges = draw(st.sampled_from([e for e in range(max(n_vertices - 1, 1), n_vertices + 3)
                                    if e != n_vertices]))
    verts = [f"v{i}" for i in range(n_vertices)]
    edges = [(verts[draw(st.integers(0, i - 1))], verts[i], f"s{i}")
             for i in range(1, n_vertices)]
    while len(edges) < n_edges:
        u, v = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
        edges.append((u, v, f"s{len(edges) + 1}"))
    alpha = {eid: draw(st.integers(-30, 30)) for _u, _v, eid in edges}
    t = tower(build_multigraph(verts, edges), ell, alpha)
    if draw(st.booleans()):
        beta = {eid: draw(st.integers(0, ell - 1)) for _u, _v, eid in edges}
        va = voltage_assignment(t.graph, cyclic(ell), beta, t.orientation)
        if voltage_connectedness(va)[0]:
            t = lift_tower(t, derived_graph(va).projection)
    n_max = 0
    while t.graph.vertex_count * ell ** (n_max + 1) <= MAX_LEVEL_VERTICES:
        n_max += 1
    if draw(st.booleans()):
        precision = draw(st.integers(n_max, n_max + 3))
        values = {d: PadicTruncated(ell, precision, v) for d, v in t.values.items()}
        t = Tower(graph=t.graph, orientation=t.orientation, ell=ell, values=values)
    elif draw(st.booleans()):
        characteristic_series(t, cap=2)      # builds and caches the full P
    return t, n_max


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(small_towers())
def test_norm_route_matches_bareiss_on_level_graphs(case):
    t, n_max = case
    if not certify_levels_connected(t):
        with pytest.raises(DisconnectedError) as expected:
            tower_level(t, 1)
        with pytest.raises(DisconnectedError) as got:
            kappa_ord_sequence(t, n_max)
        assert str(got.value) == str(expected.value)
        return
    rows = kappa_ord_sequence(t, n_max, vertex_cap=MAX_LEVEL_VERTICES)
    oracle = [spanning_tree_count(tower_level(t, n).graph) for n in range(n_max + 1)]
    assert [row[1] for row in rows] == oracle
    assert [row[2] for row in rows] == [ord_int(k, t.ell) for k in oracle]
    assert [row[0] for row in rows] == list(range(n_max + 1))


def test_truncated_voltages_past_their_precision_are_refused():
    t = tower(build_multigraph(["v"], [("v", "v", "s1"), ("v", "v", "s2")]), 3,
              {"s1": 1, "s2": 4})
    values = {d: PadicTruncated(3, 2, v) for d, v in t.values.items()}
    truncated = Tower(graph=t.graph, orientation=t.orientation, ell=3, values=values)
    assert [row[1] for row in kappa_ord_sequence(truncated, 2)] == \
        [row[1] for row in kappa_ord_sequence(t, 2)]
    with pytest.raises(PrecisionError, match="cannot be reduced mod 3\\^3"):
        kappa_ord_sequence(truncated, 3)


CONDUCTORS = [2, 4, 8, 9, 12, 27, 36, 81, 100]


def _conjugate_product(x):
    prod = CyclotomicElement.from_int(x.m, 1)
    for c in x.conjugates():
        prod = prod * c
    return prod.as_int()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_relative_norm_chain_equals_conjugate_product(m, data):
    size = data.draw(st.sampled_from([3, 10 ** 6, 10 ** 40]))
    coords = data.draw(st.lists(st.integers(-size, size),
                                min_size=euler_phi(m), max_size=euler_phi(m)))
    x = CyclotomicElement(m, coords)
    assert x.norm() == _conjugate_product(x)


def test_norm_of_units_and_zero():
    for m in CONDUCTORS:
        assert CyclotomicElement.zeta(m).norm() == _conjugate_product(CyclotomicElement.zeta(m))
        assert CyclotomicElement.from_int(m, 0).norm() == 0
        assert CyclotomicElement.from_int(m, 2).norm() == 2 ** euler_phi(m)


def test_decimal_string_past_the_conversion_limit():
    assert decimal_string(0) == "0"
    assert decimal_string(-12345) == "-12345"
    assert decimal_string(10 ** 5000 + 12345) == "1" + "0" * 4995 + "12345"
    assert decimal_string(-(7 * 10 ** 6000 - 1)) == "-6" + "9" * 6000
    assert decimal_string(10 ** 9000) == "1" + "0" * 9000
