"""The one-determinant Laurent kernel against evaluation and interpolation.

_laurent_determinant reads P off one Bareiss determinant of the row-shifted
matrix at u = 2^B, as signed base-2^B digits.  The oracle here is the route
it replaced: deg P + 1 Bareiss determinants at u = 0, 1, ..., D and Newton
interpolation through them.
"""

from math import isqrt
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import giwa.iwasawa as iwasawa
import giwa.polys
from giwa import (PadicTruncated, Tower, bareiss_determinant, bouquet,
                  build_multigraph, cyclic, derived_graph, iwasawa_invariants,
                  kappa_ord_sequence, lift_tower, product, tower,
                  voltage_assignment, voltage_connectedness)
from giwa.iwasawa import LaurentDeterminant, _laurent_determinant, _laurent_matrix
from giwa.polys import interpolate_at_integers

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def voltages(t, n=None):
    """The tower's voltages, or with n, reduced into (-ell^n/2, ell^n/2]."""
    if n is None:
        return t.values
    mod = t.ell ** n
    values = {}
    for d in t.orientation:
        r = t.value_mod(d, n)
        values[d] = r - mod if 2 * r > mod else r
    return values


def interpolated_p(t, n=None):
    """P by evaluation at the integers 0..D and Newton interpolation."""
    ent = _laurent_matrix(t, voltages(t, n))
    shift = 0
    degbound = 0
    for row in ent:
        row_shift = max(0, -min((min(d) for d in row if d), default=0))
        shift += row_shift
        for j, d in enumerate(row):
            row[j] = {e + row_shift: c for e, c in d.items()}
        degbound += max((max(d) for d in row if d), default=0)
    samples = [bareiss_determinant([[sum(c * x ** e for e, c in d.items()) for d in row]
                                    for row in ent])
               for x in range(degbound + 1)]
    return LaurentDeterminant(coeffs=tuple(interpolate_at_integers(samples)), shift=shift)


def hadamard_square(t, n=None):
    """H^2 = prod_i sum_j ||M_ij||_1^2, the square of the bound on |coefficient|."""
    h2 = 1
    for row in _laurent_matrix(t, voltages(t, n)):
        h2 *= sum(sum(abs(c) for c in d.values()) ** 2 for d in row)
    return h2


def kernel_p(t, n=None):
    """(P, B): the kernel's P and the slot width B it read P's digits with."""
    real = iwasawa._slot_bits
    slots = []

    def recording(ent):
        slots.append(real(ent))
        return slots[-1]

    with mock.patch.object(iwasawa, "_slot_bits", recording):
        got = _laurent_determinant(t, n)
    (slot,) = slots
    return got, slot


@st.composite
def towers(draw):
    """A tower over 1 to 3 vertices with loops and multi-edges, or its pullback
    along a Z/ell or Z/ell x Z/ell cover.  Voltages lie in [-60, 60], scaled
    down by the cover degree so that the oracle's deg P + 1 determinants stay
    cheap."""
    ell = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["base", "c", "cc"]))
    group = {"base": None, "c": cyclic(ell),
             "cc": product(cyclic(ell), cyclic(ell))}[kind]
    n_vertices = draw(st.integers(1, 1 if kind == "cc" and ell == 5 else 3))
    n_edges = draw(st.sampled_from([e for e in range(max(n_vertices - 1, 1), n_vertices + 3)
                                    if e != n_vertices]))
    verts = [f"v{i}" for i in range(n_vertices)]
    edges = [(verts[draw(st.integers(0, i - 1))], verts[i], f"s{i}")
             for i in range(1, n_vertices)]
    while len(edges) < n_edges:
        u, v = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
        edges.append((u, v, f"s{len(edges) + 1}"))
    bound = 60 // (group.order * n_vertices if group else 1)
    alpha = {eid: draw(st.integers(-bound, bound)) for _u, _v, eid in edges}
    t = tower(build_multigraph(verts, edges), ell, alpha)
    if group is not None:
        beta = {eid: draw(st.sampled_from(group.elements)) for _u, _v, eid in edges}
        va = voltage_assignment(t.graph, group, beta, t.orientation)
        if voltage_connectedness(va)[0]:
            t = lift_tower(t, derived_graph(va).projection)
    return t


def assert_matches_oracle(t, n=None):
    got, slot = kernel_p(t, n)
    assert got == interpolated_p(t, n)
    assert got.coeffs == (0,) or got.coeffs[-1] != 0
    h2 = hadamard_square(t, n)
    assert max(c * c for c in got.coeffs) <= h2
    assert max(abs(c) for c in got.coeffs) < 2 ** (slot - 2)
    assert slot == isqrt(h2).bit_length() + 2


@SETTINGS
@given(towers())
def test_kernel_matches_interpolation(t):
    assert_matches_oracle(t)


@SETTINGS
@given(towers(), st.integers(1, 3))
def test_reduced_kernel_matches_interpolation(t, n):
    assert_matches_oracle(t, n)


@pytest.mark.parametrize("alpha", [{"s1": 0, "s2": 0}, {"s1": 0, "s2": 0, "s3": 0}])
def test_zero_determinant(alpha):
    t = tower(bouquet(len(alpha)), 3, alpha)
    got, _ = kernel_p(t)
    assert got == interpolated_p(t)
    assert (got.coeffs, got.shift) == ((0,), 0)


def test_pullback_with_negative_and_zero_voltages():
    t = tower(build_multigraph(["a", "b"], [("a", "b", "s1"), ("a", "a", "s2"),
                                            ("a", "b", "s3")]),
              3, {"s1": 0, "s2": -7, "s3": 5})
    va = voltage_assignment(t.graph, cyclic(3), {"s1": 1, "s2": 0, "s3": 2})
    assert_matches_oracle(lift_tower(t, derived_graph(va).projection))


class TestOneDeterminantPerBuild:
    def counted(self, monkeypatch):
        calls = {"bareiss": 0, "interpolate": 0}
        real_bareiss = iwasawa.bareiss_determinant
        real_interpolate = giwa.polys.interpolate_at_integers

        def bareiss(M):
            calls["bareiss"] += 1
            return real_bareiss(M)

        def interpolate(values):
            calls["interpolate"] += 1
            return real_interpolate(values)

        monkeypatch.setattr(iwasawa, "bareiss_determinant", bareiss)
        monkeypatch.setattr(giwa.polys, "interpolate_at_integers", interpolate)
        return calls

    def test_exact_p(self, monkeypatch):
        calls = self.counted(monkeypatch)
        ld = _laurent_determinant(tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 20}))
        assert calls == {"bareiss": 1, "interpolate": 0}
        assert (len(ld.coeffs) - 1, ld.shift) == (40, 20)

    def test_reduced_p(self, monkeypatch):
        calls = self.counted(monkeypatch)
        t = tower(bouquet(2), 3, {"s1": 1, "s2": PadicTruncated(3, 5, 40)})
        _laurent_determinant(t, 3)
        assert calls == {"bareiss": 1, "interpolate": 0}

    def test_kernel_does_not_import_interpolation(self):
        assert not hasattr(iwasawa, "interpolate_at_integers")


class TestLargeVoltages:
    """The ex1 bouquet with s3 = 1000, whose P has degree 2000."""

    def ex1_bouquet(self):
        return tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 1000})

    def test_invariants(self):
        inv = iwasawa_invariants(self.ex1_bouquet())
        assert (inv.mu, inv.lam) == (0, 3)

    def test_kappa_ord(self):
        assert [row[2] for row in kappa_ord_sequence(self.ex1_bouquet(), 3)] == [0, 3, 6, 9]

    def test_truncated_route_agrees(self):
        t = self.ex1_bouquet()
        values = {d: PadicTruncated(3, 40, v) for d, v in t.values.items()}
        truncated = Tower(graph=t.graph, orientation=t.orientation, ell=3, values=values)
        inv = iwasawa_invariants(truncated)
        assert (inv.mu, inv.lam) == (0, 3)

    def test_degree_and_shift(self):
        ld = _laurent_determinant(self.ex1_bouquet())
        assert (len(ld.coeffs) - 1, ld.shift) == (2000, 1000)

