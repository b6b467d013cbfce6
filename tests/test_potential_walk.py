"""The spanning-tree potential walk against the pi1-basis loops it replaces.

graphs.cotree_voltages reads the voltage of every loop of
pi1_basis(graph, vertices[0], orientation) off one breadth-first walk; the
oracle lists each loop path and multiplies the voltages along it.
"""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from giwa import (DisconnectedError, PadicTruncated, build_multigraph, cyclic,
                  dihedral_8, euler_characteristic, pi1_basis, product,
                  sl2_level_quotient, subgroup_generated, tower, voltage_assignment,
                  voltage_connectedness)
from giwa.graphs import Orientation, cotree_voltages

GROUPS = [cyclic(9), product(cyclic(3), cyclic(3)), dihedral_8(),
          sl2_level_quotient(3, 1).group]


@st.composite
def connected_multigraphs(draw):
    """1-5 vertices joined by a random tree, plus loops and parallel edges,
    edges declared in a shuffled order, and an orientation that takes some
    edges against their declared direction."""
    n = draw(st.integers(1, 5))
    verts = [f"v{i}" for i in range(n)]
    ends = [(verts[draw(st.integers(0, i - 1))], verts[i]) for i in range(1, n)]
    ends += draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)),
                          max_size=6))
    ends = draw(st.permutations(ends))
    graph = build_multigraph(verts, [(u, v, f"e{k}") for k, (u, v) in enumerate(ends)])
    flips = draw(st.lists(st.integers(0, 1), min_size=len(ends), max_size=len(ends)))
    return graph, Orientation(tuple(2 * k + flip for k, flip in enumerate(flips)))


def loop_sums(graph, orientation, signed):
    basis = pi1_basis(graph, graph.vertices[0], orientation)
    return [sum(signed[d] for d in path) for _s, path in basis.loops]


SETTINGS = settings(max_examples=200, deadline=None)


@SETTINGS
@given(connected_multigraphs(), st.data())
def test_integer_potentials_give_the_loop_sums(base, data):
    graph, orientation = base
    values = {s: data.draw(st.integers(-50, 50)) for s in orientation}
    signed = {**values, **{s ^ 1: -a for s, a in values.items()}}
    walked = cotree_voltages(graph, orientation, signed.__getitem__,
                             lambda a, b: a + b, lambda a: -a, 0)
    assert walked == loop_sums(graph, orientation, signed)


@SETTINGS
@given(connected_multigraphs(), st.sampled_from([2, 3, 5]), st.data())
def test_a_towers_gcd_is_the_gcd_of_its_loop_sums(base, ell, data):
    graph, orientation = base
    assume(euler_characteristic(graph) != 0)
    ints = st.integers(-ell ** 4, ell ** 4)
    values = {eid: data.draw(st.one_of(
        ints, st.builds(PadicTruncated, st.just(ell), st.integers(1, 4), ints)))
        for eid in graph.edge_ids}
    t = tower(graph, ell, values, orientation)
    signed = {s: v if isinstance(v, int) else v.value for s, v in t.values.items()}
    signed.update({s ^ 1: -a for s, a in list(signed.items())})
    assert t._loop_gcd == gcd(*loop_sums(graph, orientation, signed))


@SETTINGS
@given(connected_multigraphs(), st.sampled_from(GROUPS), st.data())
def test_group_potentials_generate_the_loop_subgroup(base, group, data):
    graph, orientation = base
    va = voltage_assignment(graph, group, {eid: data.draw(st.sampled_from(group.elements))
                                           for eid in graph.edge_ids}, orientation)
    images = [va.path_voltage(path)
              for _s, path in pi1_basis(graph, graph.vertices[0], orientation).loops]
    walked = cotree_voltages(graph, orientation, va.voltage, group.multiply,
                             group.inverse, group.identity)
    assert walked == images
    generated = subgroup_generated(group, images)
    assert voltage_connectedness(va) == (len(generated) == group.order, generated)


def test_a_tree_has_no_loops():
    graph = build_multigraph(["a", "b", "c"], [("a", "b"), ("c", "b")])
    assert cotree_voltages(graph, graph.default_orientation(), lambda d: 1,
                           lambda a, b: a + b, lambda a: -a, 0) == []
    assert tower(graph, 3, {"e1": 1, "e2": 2})._loop_gcd == 0


@pytest.mark.parametrize("graph", [build_multigraph([], []),
                                   build_multigraph(["a", "b"], [("a", "a")])])
def test_a_disconnected_graph_is_refused(graph):
    with pytest.raises(DisconnectedError):
        cotree_voltages(graph, graph.default_orientation(), lambda d: 0,
                        lambda a, b: a + b, lambda a: -a, 0)
