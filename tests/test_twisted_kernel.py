"""The twisted series f_psi from one Kronecker determinant over Z[zeta].

twisted_characteristic_series reads f_psi = P_psi(1+T) / (1+T)^K with P_psi
from iwasawa.cyclotomic_determinant.  The route it replaced, a Berkowitz
determinant (ring_determinant) over truncated series with cyclotomic
coefficients, is kept here as the oracle.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import giwa.graphs
import giwa.iwasawa
import giwa.series
from giwa import (CyclotomicElement, ValidationError, bouquet, build_multigraph,
                  characteristic_series, cyclic, h_twisted, product, tower,
                  twisted_characteristic_series, voltage_assignment)
from giwa.characters import all_characters, trivial_character
from giwa.iwasawa import _binomial_sum, _laurent_matrix, cyclotomic_determinant
from giwa.series import TruncatedPowerSeries, binomial_coefficients, ring_determinant

GROUPS = {"Z2": cyclic(2), "Z3": cyclic(3), "Z5": cyclic(5), "Z9": cyclic(9),
          "Z3xZ3": product(cyclic(3), cyclic(3))}


def berkowitz_twisted_series(t, va, psi, cap):
    """f_psi by the replaced route: each term c u^a of D - A_(psi,rho), with
    c = psi(beta(s)), read as c (1+T)^a through T^cap, and one Berkowitz
    determinant over the series."""
    def weight(s):
        b = va.values[s]
        return psi(b), psi.value_at_inverse(b)

    zero = [0] * (cap + 1)
    return ring_determinant(
        [[TruncatedPowerSeries(_binomial_sum(terms.items(),
                                             lambda a: binomial_coefficients(a, cap), zero))
          for terms in row] for row in _laurent_matrix(t, t.values, weight)])


def assert_matches_oracle(t, va, psi, cap):
    got = twisted_characteristic_series(t, va, psi, cap)
    assert got.cap == cap
    assert all(isinstance(c, CyclotomicElement) and c.m == psi.conductor for c in got.coeffs)
    assert got == berkowitz_twisted_series(t, va, psi, cap)
    return got


@st.composite
def twisted_towers(draw):
    """A connected base on 1 to 4 vertices with nonzero Euler characteristic
    (a spanning path plus loops and parallel edges, so some vertices carry no
    loop), integer tower voltages, beta into one of GROUPS and a character."""
    n = draw(st.integers(1, 4))
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    extra = draw(st.sampled_from([0, 2, 3] if n > 1 else [2, 3]))
    edges += [(draw(st.sampled_from(verts)), draw(st.sampled_from(verts))) for _ in range(extra)]
    graph = build_multigraph(verts, [(u, v, f"e{j}") for j, (u, v) in enumerate(edges)])
    ell = draw(st.sampled_from([2, 3, 5]))
    t = tower(graph, ell, {f"e{j}": draw(st.integers(-6, 6)) for j in range(len(edges))})
    G = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    va = voltage_assignment(graph, G, {f"e{j}": draw(st.sampled_from(G.elements))
                                       for j in range(len(edges))})
    return t, va, draw(st.sampled_from(all_characters(G))), draw(st.integers(0, 8))


class TestAgainstBerkowitz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(twisted_towers())
    def test_random_towers(self, case):
        t, va, psi, cap = case
        assert_matches_oracle(t, va, psi, cap)

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_trivial_character_is_the_plain_series(self, group):
        t = tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 20})
        G = GROUPS[group]
        beta = {s: G.elements[k % G.order] for k, s in enumerate(("s1", "s2", "s3"), 1)}
        va = voltage_assignment(t.graph, G, beta)
        got = assert_matches_oracle(t, va, trivial_character(G), 10)
        assert got == characteristic_series(t, 10)

    def test_vertices_without_loops(self):
        # a theta graph: both diagonal entries of D - A are the integer 3
        graph = build_multigraph(["a", "b"], [("a", "b", "s1"), ("a", "b", "s2"),
                                              ("a", "b", "s3")])
        t = tower(graph, 3, {"s1": 1, "s2": -2, "s3": 5})
        G = GROUPS["Z9"]
        va = voltage_assignment(graph, G, {"s1": 1, "s2": 3, "s3": 7})
        z = CyclotomicElement.zeta(9)
        ent = _laurent_matrix(t, t.values, lambda s: (z, z ** 8))
        assert all(isinstance(ent[i][i][0], int) for i in range(2))
        for psi in all_characters(G):
            assert_matches_oracle(t, va, psi, 6)

    @pytest.mark.parametrize("group", ["Z5", "Z9", "Z3xZ3"])
    def test_least_power_with_zero_constant_coordinate(self, group, monkeypatch):
        # row a's least u-power is u^(-7), with coefficient -zeta: its least
        # y-power is above 0, so the Kronecker determinant returns K_y < 0
        graph = build_multigraph(["a", "b"], [("a", "b", "s1"), ("a", "a", "s2"),
                                              ("b", "b", "s3")])
        t = tower(graph, 3, {"s1": -7, "s2": 1, "s3": 2})
        G = GROUPS[group]
        g1 = (1, 0) if group == "Z3xZ3" else 1
        va = voltage_assignment(graph, G, {"s1": g1, "s2": G.identity, "s3": g1})
        psi = next(p for p in all_characters(G) if p.exponents[0] == 1)
        shifts_y = []
        real = giwa.iwasawa.kronecker_determinant

        def recording(ent):
            coeffs, shift = real(ent)
            shifts_y.append(shift)
            return coeffs, shift

        monkeypatch.setattr(giwa.iwasawa, "kronecker_determinant", recording)
        assert_matches_oracle(t, va, psi, 8)
        assert shifts_y and shifts_y[0] < 0

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_cap_zero(self, group):
        t = tower(bouquet(2), 5, {"s1": 3, "s2": -1})
        G = GROUPS[group]
        va = voltage_assignment(t.graph, G, {"s1": G.elements[1], "s2": G.elements[-1]})
        for psi in all_characters(G):
            assert assert_matches_oracle(t, va, psi, 0).coeffs[0] == h_twisted(va, psi)(1)


class TestRefusals:
    def z3_cover(self):
        t = tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 20})
        return t, voltage_assignment(t.graph, cyclic(3), {"s1": 1, "s2": 0, "s3": 2})

    @pytest.mark.parametrize("other", [cyclic(9), product(cyclic(3), cyclic(3))],
                             ids=["Z9", "Z3xZ3"])
    def test_character_of_another_group(self, other):
        t, va = self.z3_cover()
        for psi in all_characters(other):
            with pytest.raises(ValidationError, match="factors"):
                h_twisted(va, psi)
            with pytest.raises(ValidationError, match="factors"):
                twisted_characteristic_series(t, va, psi, 4)

    def test_character_of_an_equal_group_is_taken(self):
        # cyclic(3) == cyclic(3) is False (the groups hold closures); the
        # factors are compared instead
        t, va = self.z3_cover()
        for psi in all_characters(cyclic(3)):
            assert h_twisted(va, psi) is not None
            assert twisted_characteristic_series(t, va, psi, 4).cap == 4

    def test_negative_cap(self):
        t, va = self.z3_cover()
        with pytest.raises(ValidationError, match="cap must be >= 0"):
            twisted_characteristic_series(t, va, trivial_character(va.group), -1)


def test_cyclotomic_determinant_of_a_constant_matrix():
    # zeta_3 x, 1 over Z[zeta_3]: det = zeta_3 - 1 with K = 0
    z = CyclotomicElement.zeta(3)
    coeffs, shift = cyclotomic_determinant([[{0: z}, {0: 1}], [{0: 1}, {0: 1}]], 3)
    assert (coeffs, shift) == ((z - 1,), 0)


def test_one_bareiss_call_and_no_ring_determinant_per_twisted_series(monkeypatch):
    calls = {"bareiss_determinant": 0, "ring_determinant": 0}
    for name, real in (("bareiss_determinant", giwa.graphs.bareiss_determinant),
                       ("ring_determinant", giwa.series.ring_determinant)):
        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("giwa") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    t = tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 20})
    va = voltage_assignment(t.graph, cyclic(9), {"s1": 1, "s2": 0, "s3": 4})
    characters = all_characters(va.group)
    for psi in characters:
        twisted_characteristic_series(t, va, psi, 16)
    assert calls == {"bareiss_determinant": len(characters), "ring_determinant": 0}
