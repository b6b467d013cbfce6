"""The packed Z/ell^N series determinant against the generic one and against
Laplace expansion, and the truncated route against the exact Laurent route.

characteristic_series on truncated voltages runs Berkowitz over lists of
residues mod ell^N with packed-integer products (truncated_determinant).  The
oracle here builds the same D - A_rho from PadicTruncated binomial series and
takes ring_determinant over them, one coefficient object at a time.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from giwa import (IwasawaData, PadicTruncated, PrecisionError, Tower,
                  TruncatedPowerSeries, binomial_series, bouquet,
                  build_multigraph, characteristic_series, cyclic,
                  derived_graph, iwasawa_invariants, lift_tower, mu_lambda,
                  product, ring_determinant, tower, voltage_assignment,
                  voltage_connectedness)
from giwa.iwasawa import certify_levels_connected
from giwa.numtheory import ord_factorial
from giwa.refdata import EX1
from giwa.series import binomial_residues, cofactor_determinant, truncated_determinant

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large,
                                           HealthCheck.filter_too_much])


def generic_series(t, cap):
    """f through degree cap by ring_determinant over PadicTruncated coefficients."""
    g = t.graph.vertex_count
    zero = TruncatedPowerSeries.zero(cap)
    M = [[zero for _ in range(g)] for _ in range(g)]
    val = [0] * g
    for s in t.orientation:
        i, j = t.graph.origin[s], t.graph.terminus[s]
        a = t.values[s]
        val[i] += 1
        val[j] += 1
        M[i][j] = M[i][j] - binomial_series(a, cap)
        M[j][i] = M[j][i] - binomial_series(PadicTruncated(a.ell, a.precision, -a.value), cap)
    for i in range(g):
        M[i][i] = M[i][i] + val[i]
    return ring_determinant(M)


def cap_for(vertices):
    """Largest cap drawn for a matrix of this size; the oracle costs n^4 cap^2."""
    return 64 if vertices <= 4 else 32 if vertices <= 6 else 16 if vertices <= 10 else 8


@st.composite
def exact_towers(draw, bound):
    """A tower over 1 to 3 vertices with voltages in [-bound, bound], or its
    pullback along a Z/ell cover."""
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
    alpha = {eid: draw(st.integers(-bound, bound)) for _u, _v, eid in edges}
    t = tower(build_multigraph(verts, edges), ell, alpha)
    if draw(st.booleans()):
        beta = {eid: draw(st.integers(0, ell - 1)) for _u, _v, eid in edges}
        va = voltage_assignment(t.graph, cyclic(ell), beta, t.orientation)
        if voltage_connectedness(va)[0]:
            t = lift_tower(t, derived_graph(va).projection)
    return t


def truncate(draw, t, low):
    """t with each voltage known mod ell^P, P drawn from [low, low + 12] per edge."""
    values = {d: PadicTruncated(t.ell, draw(st.integers(low, low + 12)), v)
              for d, v in t.values.items()}
    return Tower(graph=t.graph, orientation=t.orientation, ell=t.ell, values=values)


class Replay:
    """Stands in for st.data() in an @example: draw returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, _strategy):
        return self.values.pop(0)


@SETTINGS
@given(st.data())
# two loops with voltage 0 known mod 2^8 and mod 2^9 at cap 8 (ord_2(8!) = 7):
# one diagonal term, certified mod 2^1 by the weaker voltage
@example(data=Replay(tower(bouquet(2), 2, {"s1": 0, "s2": 0}), 8, 8, 9))
def test_packed_kernel_matches_generic_determinant(data):
    t = data.draw(exact_towers(30))
    cap = data.draw(st.integers(8, cap_for(t.graph.vertex_count)))
    truncated = truncate(data.draw, t, ord_factorial(cap, t.ell) + 1)
    got = characteristic_series(truncated, cap)
    want = generic_series(truncated, cap)
    assert got.to_json() == want.to_json()
    digits = min(v.precision for v in truncated.values.values()) - ord_factorial(cap, t.ell)
    assert {c.precision for c in got.coeffs} == {c.precision for c in want.coeffs} == {digits}


@SETTINGS
@given(st.data())
def test_truncated_route_matches_exact_laurent(data):
    t = data.draw(exact_towers(6))
    assume(certify_levels_connected(t))
    exact = iwasawa_invariants(t)
    # the cap is drawn apart from lambda(f): a lambda(f) at or above the cap
    # is where a minimal valuation read through the cap went wrong.  With
    # ell^P >= 2^12 > MAX_CAP > lambda(f), the precision never ends the search.
    cap = data.draw(st.integers(1, 64))
    truncated = truncate(data.draw, t, 12)
    if exact.mu == 0:
        assert iwasawa_invariants(truncated, cap=cap) == exact
    else:
        # no finite precision rules out a lift with mu = 0
        with pytest.raises(PrecisionError, match="mu possibly positive"):
            iwasawa_invariants(truncated, cap=cap)


def ex1_pullback_at_precision_40():
    t = tower(bouquet(3), EX1["ell"], EX1["alpha"])
    va = voltage_assignment(t.graph, product(cyclic(3), cyclic(3)), EX1["beta"])
    lifted = lift_tower(t, derived_graph(va).projection)
    values = {d: PadicTruncated(3, 40, v) for d, v in lifted.values.items()}
    return lifted, Tower(graph=lifted.graph, orientation=lifted.orientation,
                         ell=3, values=values)


@pytest.mark.parametrize("cap, digits, reported", [(16, 34, (5, 12)), (32, 26, (3, 24))])
def test_ex1_pullback_at_precision_40(cap, digits, reported):
    exact, truncated = ex1_pullback_at_precision_40()
    got = characteristic_series(truncated, cap)
    assert got.to_json() == generic_series(truncated, cap).to_json()
    assert got.to_json()["ring"] == {"kind": "padic", "ell": 3, "precision": digits}
    # the residues are the exact coefficients mod 3^digits
    mod = 3 ** digits
    assert [c.value for c in got.coeffs] == \
        [c % mod for c in characteristic_series(exact, cap).coeffs]
    # mu > 0 at both caps, against the exact mu = 0, lambda(f) = 54: the
    # series is read only through the cap (ROADMAP item 2)
    assert mu_lambda(got, 3) == reported


@pytest.mark.parametrize("cap", [16, 32])
def test_ex1_pullback_invariants_at_precision_40(cap):
    # lambda(f) = 54 lies above both caps; f mod 3 certifies it once the
    # cap has doubled to 64
    exact, truncated = ex1_pullback_at_precision_40()
    assert iwasawa_invariants(truncated, cap=cap) == IwasawaData(0, 53) == \
        iwasawa_invariants(exact)


def test_binomial_residues_match_exact_binomials():
    for ell, precision, cap in [(2, 70, 64), (3, 40, 40), (5, 20, 30)]:
        for a in (-17, -1, 0, 1, 4, 20, 1000):
            digits, residues = binomial_residues(PadicTruncated(ell, precision, a), cap)
            assert digits == precision - ord_factorial(cap, ell)
            # C(a, k) through the signed falling factorial, exact over Z
            exact = [math.prod(range(a - k + 1, a + 1)) // math.factorial(k)
                     for k in range(cap + 1)]
            assert residues == [c % ell ** digits for c in exact]


def test_guard_refusal_is_the_binomial_one():
    t = tower(bouquet(2), 3, {"s1": PadicTruncated(3, 20, 1), "s2": PadicTruncated(3, 9, 2)})
    with pytest.raises(PrecisionError) as expected:
        binomial_series(PadicTruncated(3, 9, 2), 27)
    with pytest.raises(PrecisionError) as got:
        characteristic_series(t, 27)
    assert str(got.value) == str(expected.value)


@SETTINGS
@given(st.data())
def test_packed_kernel_matches_cofactor_expansion(data):
    # ring_determinant runs the same Berkowitz recursion as the packed
    # kernel, so the oracle here is Laplace expansion over integer series
    n = data.draw(st.integers(0, 4))
    cap = data.draw(st.integers(0, 6))
    modulus = data.draw(st.sampled_from([2, 3, 5, 7])) ** data.draw(st.integers(1, 8))
    entry = st.one_of(st.just([0] * (cap + 1)),
                      st.lists(st.integers(-2 ** 40, 2 ** 40),
                               min_size=cap + 1, max_size=cap + 1))
    matrix = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    want = cofactor_determinant([[TruncatedPowerSeries(e) for e in row] for row in matrix])
    want = want.coeffs if n else [1] + [0] * cap
    assert truncated_determinant(matrix, modulus, cap) == [c % modulus for c in want]


def test_kernel_on_explicit_matrices():
    mod, cap = 3 ** 4, 3
    one_plus_t = [1, 1, 0, 0]
    # det [[1+T, 1], [1, 1+T]] = 2T + T^2
    assert truncated_determinant([[one_plus_t, [1, 0, 0, 0]], [[1, 0, 0, 0], one_plus_t]],
                                 mod, cap) == [0, 2, 1, 0]
    # entries are read mod 3^4: (-1)^3 = -1
    minus = [-1, 0, 0, 0]
    zero = [0] * 4
    diag = [[minus if i == j else zero for j in range(3)] for i in range(3)]
    assert truncated_determinant(diag, mod, cap) == [mod - 1, 0, 0, 0]
    assert truncated_determinant([], mod, cap) == [1, 0, 0, 0]


def test_kernel_slots_hold_a_full_row_of_products():
    # every entry is modulus - 1, so a Berkowitz sum of n products reaches
    # n (modulus - 1)^2: the slot width must count the n, or a carry crosses
    # into the next slot; the matrix has rank 1, so its determinant is 0
    matrix = [[[150] for _ in range(4)] for _ in range(4)]
    assert truncated_determinant(matrix, 151, 0) == [0]


def test_mixed_int_and_truncated_voltages():
    mixed = tower(bouquet(2), 3, {"s1": 1, "s2": PadicTruncated(3, 20, 4)})
    exact = tower(bouquet(2), 3, {"s1": 1, "s2": 4})
    inv = iwasawa_invariants(mixed)
    assert (inv.mu, inv.lam) == (0, 1)
    assert inv == iwasawa_invariants(exact)
