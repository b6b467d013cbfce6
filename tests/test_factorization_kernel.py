"""The factorization identity from one twisted determinant and one Galois norm.

For a degree-ell cyclic cover the ell - 1 nontrivial characters are the
conjugates of one generator psi_1, so factorization_check reads the product
of the nontrivial f_psi as the norm of P_psi_1 (iwasawa.kronecker_norm) and
multiplies it by the base's P over the integers.  The route it replaced, the
product of twisted_characteristic_series over every character as truncated
series over Z[zeta_ell], is kept here as the oracle; kronecker_norm is
checked against the product of the phi(m) conjugate polynomials.
"""

from math import gcd
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import giwa.iwasawa
from giwa import (CyclotomicElement, DisconnectedError, PadicTruncated, Poly,
                  UnsupportedError, ValidationError, bouquet, build_multigraph,
                  characteristic_series, cyclic, euler_phi, factorization_check,
                  tower, twisted_characteristic_series, voltage_assignment)
from giwa.characters import all_characters
from giwa.cyclotomic import as_integer
from giwa.iwasawa import certify_pullback_connected, kronecker_norm
from giwa.series import TruncatedPowerSeries

CONDUCTORS = [2, 3, 4, 5, 8, 9, 12, 25, 27]


def conjugate_product_norm(coeffs, m):
    """The norm of sum c_k u^k as the product of its phi(m) conjugate
    polynomials, zeta -> zeta^j on every coefficient, multiplied as Poly."""
    els = [c if isinstance(c, CyclotomicElement) else CyclotomicElement(m, [c]) for c in coeffs]
    prod = Poly([1])
    for j in range(1, m + 1):
        if gcd(j, m) == 1:
            prod = prod * Poly([c.conjugate(j) for c in els])
    out = [as_integer(c) for c in prod.coeffs]
    return tuple(out + [0] * (euler_phi(m) * (len(coeffs) - 1) + 1 - len(out)))


def character_product(t, beta, cap):
    """(lhs, rhs, passed) by the replaced route: the lifted tower's series
    against the product of every twisted series, trivial character included,
    over Z[zeta_ell], read back as integers."""
    va = voltage_assignment(t.graph, cyclic(t.ell), beta, t.orientation)
    ok, lifted = certify_pullback_connected(t, va)
    assert ok
    lhs = characteristic_series(lifted, cap)
    rhs = TruncatedPowerSeries.one(cap)
    for psi in all_characters(va.group):
        rhs = rhs * twisted_characteristic_series(t, va, psi, cap)
    rhs = TruncatedPowerSeries([as_integer(c) for c in rhs.coeffs])
    return lhs, rhs, lhs == rhs


def assert_matches_oracle(t, beta, cap):
    report = factorization_check(t, beta, cap)
    lhs, rhs, passed = character_product(t, beta, cap)
    assert report.cap == cap
    assert report.lhs.coeffs == lhs.coeffs
    assert report.rhs.coeffs == rhs.coeffs
    assert all(isinstance(c, int) for c in report.rhs.coeffs)
    assert report.passed is passed is True
    return report


@st.composite
def cyclotomic_polys(draw):
    """(coefficients, m): 1 to 4 ints or elements of Z[zeta_m] with
    coordinates up to 2^40, zeros included."""
    m = draw(st.sampled_from(CONDUCTORS))
    coord = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 40, 2 ** 40))
    element = st.one_of(
        coord,
        st.lists(coord, min_size=euler_phi(m), max_size=euler_phi(m))
        .map(lambda xs: CyclotomicElement(m, xs)))
    return draw(st.lists(element, min_size=1, max_size=4)), m


@st.composite
def cyclic_covers(draw, ell):
    """A connected base on 1 to 3 vertices with nonzero Euler characteristic
    (a spanning path plus loops and parallel edges, so some vertices carry no
    loop), integer voltages in [-6, 6] and a beta into Z/ell whose cover and
    pullback tower are connected; a cap in [0, 16]."""
    n = draw(st.integers(1, 3))
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    extra = draw(st.sampled_from([2, 3]))
    edges += [(draw(st.sampled_from(verts)), draw(st.sampled_from(verts))) for _ in range(extra)]
    graph = build_multigraph(verts, [(u, v, f"e{j}") for j, (u, v) in enumerate(edges)])
    t = tower(graph, ell, {f"e{j}": draw(st.integers(-6, 6)) for j in range(len(edges))})
    beta = {f"e{j}": draw(st.integers(0, ell - 1)) for j in range(len(edges))}
    assume(certify_pullback_connected(t, voltage_assignment(graph, cyclic(ell), beta))[0])
    return t, beta, draw(st.integers(0, 16))


class TestKroneckerNorm:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(cyclotomic_polys())
    def test_random_polynomials(self, case):
        coeffs, m = case
        assert kronecker_norm(coeffs, m) == conjugate_product_norm(coeffs, m)

    @pytest.mark.parametrize("m", CONDUCTORS)
    @pytest.mark.parametrize("shape", ["zero", "zero-element", "constant", "constant-2^40",
                                       "int-only", "element", "leading-zeros", "trailing-zeros"])
    def test_pinned_shapes(self, m, shape):
        z = CyclotomicElement(m, [(-1) ** k * (2 ** 40 - k) for k in range(euler_phi(m))])
        zero = CyclotomicElement(m, [0])
        coeffs = {"zero": [0], "zero-element": [zero], "constant": [5],
                  "constant-2^40": [-(2 ** 40)], "int-only": [3, -1, 2 ** 40],
                  "element": [z], "leading-zeros": [0, zero, z, 7],
                  "trailing-zeros": [z, -z, 0, zero]}[shape]
        got = kronecker_norm(coeffs, m)
        assert len(got) == euler_phi(m) * (len(coeffs) - 1) + 1
        assert got == conjugate_product_norm(coeffs, m)


class TestAgainstCharacterProduct:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_random_cyclic_covers(self, ell):
        @settings(max_examples=30, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
        @given(cyclic_covers(ell))
        def check(case):
            assert_matches_oracle(*case)

        check()

    @pytest.mark.parametrize("cap", [0, 1, 24])
    def test_zero_voltage_loop_under_nontrivial_character(self, cap):
        t = tower(bouquet(2), 3, {"s1": 1, "s2": 0})
        assert_matches_oracle(t, {"s1": 0, "s2": 1}, cap)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_vertices_without_loops(self, ell):
        graph = build_multigraph(["a", "b"], [("a", "b", "s1"), ("a", "b", "s2"),
                                              ("a", "b", "s3")])
        t = tower(graph, ell, {"s1": 1, "s2": -2, "s3": 5})
        assert_matches_oracle(t, {"s1": 0, "s2": 1, "s3": ell - 1}, 16)


class TestRoute:
    def test_one_twisted_determinant_and_no_series_product(self, monkeypatch):
        calls = {"cyclotomic": 0, "kronecker": 0, "mul": 0}
        real_cyclotomic = giwa.iwasawa.cyclotomic_determinant
        real_kronecker = giwa.iwasawa.kronecker_determinant
        real_mul = TruncatedPowerSeries.__mul__

        def count(name, real):
            def recording(*args):
                calls[name] += 1
                return real(*args)
            return recording

        monkeypatch.setattr(giwa.iwasawa, "cyclotomic_determinant",
                            count("cyclotomic", real_cyclotomic))
        monkeypatch.setattr(giwa.iwasawa, "kronecker_determinant",
                            count("kronecker", real_kronecker))
        monkeypatch.setattr(TruncatedPowerSeries, "__mul__", count("mul", real_mul))
        monkeypatch.setattr(TruncatedPowerSeries, "__rmul__", count("mul", real_mul))
        for ell in (2, 3, 5):
            t = tower(bouquet(3), ell, {"s1": 1, "s2": 2, "s3": 3})
            calls.update(cyclotomic=0, kronecker=0, mul=0)
            assert factorization_check(t, {"s1": 1, "s2": 0, "s3": 0}, cap=16).passed
            # the base's P, the lift's P and P_psi_1: no trivial-character determinant
            assert calls == {"cyclotomic": 1, "kronecker": 3, "mul": 0}
            # the base's P is cached on the tower and read again
            calls.update(cyclotomic=0, kronecker=0, mul=0)
            assert factorization_check(t, {"s1": 0, "s2": 1, "s3": 0}, cap=16).passed
            assert calls == {"cyclotomic": 1, "kronecker": 2, "mul": 0}


class TestRefusals:
    def truncated_tower(self):
        return tower(bouquet(2), 3, {"s1": PadicTruncated(3, 8, 1),
                                     "s2": PadicTruncated(3, 8, 0)})

    @pytest.mark.parametrize("cap", [10, 30, 60])
    def test_truncated_voltages_refused_before_any_series(self, cap):
        # the lift's own series at cap 60 would fail first: voltages known mod
        # 3^20 leave no digits after ord(60!) = 28
        t = tower(bouquet(2), 3, {"s1": PadicTruncated(3, 20, 1), "s2": PadicTruncated(3, 20, 0)})
        with mock.patch.object(giwa.iwasawa, "_laurent_determinant",
                               wraps=giwa.iwasawa._laurent_determinant) as laurent, \
                mock.patch.object(giwa.iwasawa, "truncated_determinant",
                                  wraps=giwa.iwasawa.truncated_determinant) as truncated:
            with pytest.raises(UnsupportedError,
                               match="twisted series require exact integer voltages"):
                factorization_check(t, {"s1": 0, "s2": 1}, cap=cap)
        assert (laurent.call_count, truncated.call_count) == (0, 0)

    @pytest.mark.parametrize("truncated", [False, True])
    def test_negative_cap(self, truncated):
        t = self.truncated_tower() if truncated else tower(bouquet(2), 3, {"s1": 1, "s2": 0})
        with pytest.raises(ValidationError, match="cap must be >= 0"):
            factorization_check(t, {"s1": 0, "s2": 1}, cap=-1)

    @pytest.mark.parametrize("truncated", [False, True])
    def test_disconnected_beta(self, truncated):
        t = self.truncated_tower() if truncated else tower(bouquet(2), 3, {"s1": 1, "s2": 0})
        with pytest.raises(DisconnectedError):
            factorization_check(t, {"s1": 0, "s2": 0}, cap=8)
