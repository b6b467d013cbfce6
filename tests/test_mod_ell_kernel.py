"""mu = 0 and lambda certified from f mod ell.

series.truncated_valuation takes the T-adic valuation of a determinant over
F_ell[T]/(T^(cap+1)) by elimination with least-valuation pivots, and
iwasawa.lambda_mod_ell runs it on D - A_rho with (1+T)^a mod ell from
Lucas's theorem.  The oracles are the exact Laurent determinant P (mu and
lambda(f)) and the Berkowitz determinant mod ell (truncated_determinant).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from giwa import (IwasawaData, PadicTruncated, PrecisionError, Tower, bouquet,
                  build_multigraph, cyclic, derived_graph, iwasawa_invariants,
                  kappa_ord_sequence, lift_tower, product, refdata, spanning_tree_count,
                  tower, tower_level, uniform_tower_check, voltage_assignment,
                  voltage_connectedness)
from giwa.iwasawa import (LaurentDeterminant, _certified_pullback, _degree_bound,
                          _doubled_lambda_mod_ell, _laurent_matrix, _series_matrix,
                          lambda_mod_ell)
from giwa.errors import ValidationError
from giwa.numtheory import ord_int
from giwa.series import (_PackedModEll, binomial_coefficients, binomial_mod_ell,
                         truncated_determinant, truncated_valuation)

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large,
                                           HealthCheck.filter_too_much])

# covers of more vertices make the exact P oracle too slow for the suite
MAX_COVER_VERTICES = 16


@st.composite
def towers(draw):
    """A connected tower over 1 to 4 vertices with voltages in [-30, 30], or
    its pullback along a Z/ell or Z/ell x Z/ell cover."""
    ell = draw(st.sampled_from([2, 3, 5]))
    n_vertices = draw(st.integers(1, 4))
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
    groups = [G for G in (cyclic(ell), product(cyclic(ell), cyclic(ell)))
              if G.order * n_vertices <= MAX_COVER_VERTICES]
    G = draw(st.sampled_from([None] + groups))
    if G is not None:
        labels = sorted(G.elements, key=repr)
        beta = {eid: draw(st.sampled_from(labels)) for _u, _v, eid in edges}
        va = voltage_assignment(t.graph, G, beta, t.orientation)
        if voltage_connectedness(va)[0]:
            t = lift_tower(t, derived_graph(va).projection)
    return t


def degree_bound(t):
    return _degree_bound(_laurent_matrix(t, t.values))[1]


@SETTINGS
@given(towers(), st.integers(0, 128))
def test_kernel_matches_exact_laurent(t, cap):
    ld = t._p
    if ld.is_zero():
        assert lambda_mod_ell(t, degree_bound(t)) is None
        return
    got = lambda_mod_ell(t, cap)
    if ld.mu(t.ell) > 0:
        assert got is None
        # f mod ell is 0, so not even the degree bound of P certifies
        assert lambda_mod_ell(t, degree_bound(t)) is None
        return
    lam_f = ld.lambda_f(t.ell)
    assert got == (lam_f if cap >= lam_f else None)
    # f mod ell = P(1+T) / (1+T)^K mod ell has a nonzero term through deg P
    assert lambda_mod_ell(t, degree_bound(t)) == lam_f


@st.composite
def partly_truncated_towers(draw):
    """(tower, cap): a tower of towers() with some voltages replaced by
    PadicTruncated residues of their own value, at a precision that may
    leave the cap unfixed."""
    t = draw(towers())
    precision = draw(st.integers(1, 8))
    truncated = {d for d in t.values if draw(st.booleans())}
    values = {d: PadicTruncated(t.ell, precision, v) if d in truncated else v
              for d, v in t.values.items()}
    t = Tower(graph=t.graph, orientation=t.orientation, ell=t.ell, values=values)
    return t, draw(st.integers(0, 128))


@SETTINGS
@given(partly_truncated_towers())
def test_packed_assembly_matches_the_list_route(case):
    # lambda_mod_ell packs each (1+T)^a mod ell once and sums c row per
    # entry; the oracle builds D - A_rho as lists (_series_matrix) and packs
    # them in truncated_valuation
    t, cap = case
    precision = min((v.precision for v in t.values.values()
                     if isinstance(v, PadicTruncated)), default=None)
    if precision is not None and t.ell ** precision <= cap:
        with pytest.raises(PrecisionError, match="fix f mod"):
            lambda_mod_ell(t, cap)
        return
    matrix = _series_matrix(t, cap, lambda a: binomial_mod_ell(a, t.ell, cap))
    assert lambda_mod_ell(t, cap) == truncated_valuation(matrix, t.ell, cap)


def test_heavy_pullback_kernels_agree():
    # The heaviest shape the benchmark draws: an 18-vertex Z/3 x Z/3
    # pullback of a 2-vertex base with voltages of 40 to 60.  Its P is the
    # largest sparse Bareiss determinant of a random-towers pass.
    base = tower(build_multigraph(["v0", "v1"],
                                  [("v0", "v1", "s1"), ("v0", "v1", "s2"),
                                   ("v0", "v1", "s3"), ("v1", "v1", "s4")]),
                 3, {"s1": -59, "s2": 44, "s3": -53, "s4": 49})
    G = product(cyclic(3), cyclic(3))
    beta = {"s1": (1, 0), "s2": (1, 0), "s3": (0, 2), "s4": (2, 1)}
    va = voltage_assignment(base.graph, G, beta, base.orientation)
    assert voltage_connectedness(va)[0]
    t = lift_tower(base, derived_graph(va).projection)
    assert t.graph.vertex_count == 18
    ld = t._p
    # f(0) = P(1) = det of the Laplacian, which is singular
    assert sum(ld.coeffs) == 0
    assert ld.mu(3) == 0
    assert lambda_mod_ell(t, degree_bound(t)) == ld.lambda_f(3)
    # kappa_1 through the norm of P against the matrix-tree count of level 1
    kappa_1 = kappa_ord_sequence(t, 1)[1][1]
    assert kappa_1 == spanning_tree_count(tower_level(t, 1).graph)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_kernel_refuses_positive_mu(ell):
    # ell loops of voltage 1: f = -ell (u - 1)^2 / u, so mu = 1, lambda(f) = 2
    t = tower(bouquet(ell), ell, {f"s{i}": 1 for i in range(1, ell + 1)})
    assert iwasawa_invariants(t) == IwasawaData(1, 1)
    assert lambda_mod_ell(t, 512) is None
    truncated = Tower(graph=t.graph, orientation=t.orientation, ell=ell,
                      values={d: PadicTruncated(ell, 20, v) for d, v in t.values.items()})
    with pytest.raises(PrecisionError,
                       match=r"mu possibly positive .*\(cap 2048, voltage precision 20\)"):
        iwasawa_invariants(truncated)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_positive_mu_refusal_runs_the_kernel_once(ell, monkeypatch):
    # f = -ell (u - 1)^2 / u has degree bound D = 2: the first cap, 64, finds
    # f = 0 mod ell at or above D, which proves it through cap 2048, so the
    # refusal needs no doubling
    import giwa.iwasawa
    kernel, caps = giwa.iwasawa.lambda_mod_ell, []

    def counting(t, cap):
        caps.append(cap)
        return kernel(t, cap)
    monkeypatch.setattr(giwa.iwasawa, "lambda_mod_ell", counting)
    t = tower(bouquet(ell), ell, {f"s{i}": PadicTruncated(ell, 20, 1) for i in range(1, ell + 1)})
    with pytest.raises(PrecisionError,
                       match=r"mu possibly positive .*\(cap 2048, voltage precision 20\)"):
        iwasawa_invariants(t)
    assert caps == [64]


@st.composite
def series_matrices(draw):
    """(matrix, ell, cap): entries of random T-adic valuation, many of them
    zero or vanishing mod ell."""
    ell = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 5))
    cap = draw(st.integers(0, 16))

    def entry():
        v = draw(st.integers(0, cap + 2))
        return [0] * min(v, cap + 1) + [draw(st.integers(-3 * ell, 3 * ell))
                                        for _ in range(cap + 1 - min(v, cap + 1))]
    return [[entry() for _ in range(n)] for _ in range(n)], ell, cap


@settings(max_examples=300, deadline=None)
@given(series_matrices())
def test_kernel_matches_berkowitz_mod_ell(case):
    matrix, ell, cap = case
    det = truncated_determinant(matrix, ell, cap)
    assert truncated_valuation(matrix, ell, cap) == \
        next((k for k, c in enumerate(det) if c), None)


# ---------------------------------------------------------------------------
# Slot bound: every slot the elimination forms stays below
# top = (cap + 1) ell (ell - 1) + ell, and both extremes reach top - 1.

SLOT_PRIMES = (2, 3, 5, 7, 13, 2 ** 31 - 1)
SLOT_CAPS = (31, 32, 63, 64, 65, 127, 250)


def slot_top(ell, cap):
    return (cap + 1) * ell * (ell - 1) + ell


def caps_below_a_power_of_two(ell, bound=250):
    """The caps up to bound whose top * ell is the last below a power of two."""
    return [c for c in range(bound)
            if (slot_top(ell, c) * ell).bit_length() < (slot_top(ell, c + 1) * ell).bit_length()]


def slot_caps(ell):
    return sorted(set(SLOT_CAPS) | set(caps_below_a_power_of_two(ell)[-3:]))


def convolve(xs, ys):
    out = [0] * len(xs)
    for i, x in enumerate(xs):
        for j in range(len(xs) - i):
            out[i + j] += x * ys[j]
    return out


@pytest.mark.parametrize("ell", SLOT_PRIMES)
def test_extreme_slots_reduce_exactly(ell):
    for cap in slot_caps(ell):
        packed, length = _PackedModEll(ell, cap), cap + 1
        top = slot_top(ell, cap)
        assert (top * packed.m).bit_length() == packed.bits
        dense = [ell - 1] * length
        # a row update row + (ell - q) p with q = 0, and the Newton factor
        # x (2 - w x) with w x = 1: each slot cap holds exactly top - 1
        update = [r + y for r, y in zip(dense, convolve([ell] * length, dense))]
        newton = convolve(dense, [ell + 1] + [ell] * cap)
        assert update[-1] == newton[-1] == top - 1
        for series in (update, newton):
            got = packed.reduce(packed.pack(series), length)
            assert got == packed.pack([c % ell for c in series])


def dense_unit_pivots(rng, ell, cap, n, shift):
    """An n x n matrix near the slot bound: pivot (ell - 1) + T, whose
    inverse is ell - 1 in every slot, multipliers 0 in every slot but the
    first, and residues otherwise mostly ell - 1; the first column is
    divisible by T^shift."""
    def dense():
        return [rng.choice([ell - 1] * 7 + [0, 1, -1]) for _ in range(cap + 1)]

    def times_t(e):
        return ([0] * shift + e)[:cap + 1]

    pivot = [ell - 1, 1] + [0] * (cap - 1)
    return [[times_t([c * x for x in pivot])] + [dense() for _ in range(n - 1)]
            for c in [1] + [rng.choice([ell - 1, ell - 1, 1]) for _ in range(n - 1)]]


@pytest.mark.parametrize("ell", SLOT_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), rng=st.randoms(use_true_random=False))
def test_dense_worst_case_matrices_match_berkowitz(ell, data, rng):
    cap = data.draw(st.sampled_from(slot_caps(ell)))
    matrix = dense_unit_pivots(rng, ell, cap, data.draw(st.integers(1, 4)),
                               data.draw(st.integers(0, 1)))
    det = truncated_determinant(matrix, ell, cap)
    assert truncated_valuation(matrix, ell, cap) == \
        next((k for k, c in enumerate(det) if c), None)


def poly(*coeffs, cap=3):
    return list(coeffs) + [0] * (cap + 1 - len(coeffs))


class TestExplicitMatrices:
    def test_empty_and_one_by_one(self):
        assert truncated_valuation([], 3, 4) == 0
        assert truncated_valuation([[poly(0, 0, 1, 2)]], 3, 3) == 2
        assert truncated_valuation([[poly(0, 0, 0, 4)]], 3, 3) == 3
        # every coefficient vanishes mod 3
        assert truncated_valuation([[poly(3, 0, 6, -9)]], 3, 3) is None

    def test_pivot_valuation_costs_precision(self):
        # diag(T^2, T^2): the first pivot leaves T^0, T^1 known, and the
        # second T^2 lies beyond them; at cap 4 it does not
        t2 = poly(0, 0, 1)
        zero = poly()
        assert truncated_valuation([[t2, zero], [zero, t2]], 3, 3) is None
        assert truncated_valuation([[t2 + [0], zero + [0]], [zero + [0], t2 + [0]]],
                                   3, 4) == 4
        # det [[T, 1], [T, 1 + T^3]] = T^4: clearing under T is exact here,
        # but T^3 in the second pivot lies at the precision left
        assert truncated_valuation([[poly(0, 1), poly(1)], [poly(0, 1), poly(1, 0, 0, 1)]],
                                   5, 3) is None

    def test_least_valuation_pivot_swaps_rows(self):
        # det [[T, 1], [1, 1]] = T - 1, a unit: the pivot is the 1 below
        assert truncated_valuation([[poly(0, 1), poly(1)], [poly(1), poly(1)]], 3, 3) == 0
        # det [[T^2, T], [T, 1 + T]] = T^3: the pivot is T, in the second row
        m = [[poly(0, 0, 1), poly(0, 1)], [poly(0, 1), poly(1, 1)]]
        assert truncated_valuation(m, 2, 3) == 3
        assert truncated_valuation([[e[:3] for e in row] for row in m], 2, 2) is None

    def test_unit_part_is_inverted(self):
        # det [[T (2 + T), T], [T (1 + 2T), T + T^2]] = T^2 (2 + 3T + T^2 - 1 - 2T)
        # = T^2 (1 + T + T^2) over F_3, with pivot unit 2 + T
        m = [[poly(0, 2, 1), poly(0, 1)], [poly(0, 1, 2), poly(0, 1, 1)]]
        assert truncated_valuation(m, 3, 3) == 2

    def test_zero_columns(self):
        zero = poly()
        assert truncated_valuation([[zero, poly(1)], [zero, poly(0, 1)]], 3, 3) is None
        # a column that vanishes only once the one before is cleared
        assert truncated_valuation([[poly(1), poly(2)], [poly(1), poly(2)]], 3, 3) is None


@pytest.mark.parametrize("kernel, matrix, modulus, cap, message", [
    (truncated_determinant, [[[1]]], 0, 0, "modulus must be >= 1, got 0"),
    (truncated_determinant, [[[1]]], -7, 0, "modulus must be >= 1, got -7"),
    (truncated_determinant, [], 7, -1, "cap must be >= 0"),
    (truncated_determinant, [[[1]]], 7, -1, "cap must be >= 0"),
    (truncated_valuation, [], 3, -1, "cap must be >= 0"),
    (truncated_valuation, [[[1]]], 3, -1, "cap must be >= 0"),
    (truncated_valuation, [[[1, 1]]], 4, 1, "ell must be a prime, got 4"),
    (truncated_valuation, [[[1, 1]]], 6, 1, "ell must be a prime, got 6"),
    (truncated_valuation, [[[1, 1]]], 1, 1, "ell must be a prime, got 1"),
    (truncated_valuation, [[[1, 1]]], 0, 1, "ell must be a prime, got 0"),
    (truncated_valuation, [], -3, 1, "ell must be a prime, got -3"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_list_kernels_refuse_bad_cap_modulus_and_ell(kernel, matrix, modulus, cap, message):
    # modulus is truncated_valuation's ell
    with pytest.raises(ValidationError) as err:
        kernel(matrix, modulus, cap)
    assert str(err.value) == message


@pytest.mark.parametrize("kernel, matrix, modulus, cap, message", [
    (truncated_valuation, [[5]], 3, 0, "series entries need 1 coefficients"),
    (truncated_valuation, [[[1, "x"]]], 3, 1, "series coefficients must be integers"),
    (truncated_valuation, [[[1]]], 3.0, 0, "ell must be a prime, got 3.0"),
    (truncated_determinant, [[[1]]], 2.5, 0, "modulus must be an integer, got 2.5"),
    (truncated_determinant, [[[1]]], 7, 0.5, "cap must be an integer, got 0.5"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_list_kernels_refuse_malformed_input(kernel, matrix, modulus, cap, message):
    # a non-list entry, a non-integer coefficient, and a float ell, modulus or
    # cap are refused as input errors, not raised from inside the kernel
    with pytest.raises(ValidationError) as err:
        kernel(matrix, modulus, cap)
    assert str(err.value) == message


def test_modulus_one_gives_the_zero_ring():
    assert truncated_determinant([[[5, 1]]], 1, 1) == [0, 0]
    assert truncated_determinant([], 1, 2) == [0, 0, 0]


def test_lucas_entries_match_exact_binomials():
    for ell in (2, 3, 5):
        for a in range(-40, 41):
            for cap in (0, 1, 7, 30):
                assert binomial_mod_ell(a, ell, cap) == \
                    [c % ell for c in binomial_coefficients(a, cap)]
        # a known mod ell^3 fixes the series below T^(ell^3)
        cap = ell ** 3 - 1
        assert binomial_mod_ell(PadicTruncated(ell, 3, -7), ell, cap) == \
            [c % ell for c in binomial_coefficients(-7, cap)]
        with pytest.raises(PrecisionError):
            binomial_mod_ell(PadicTruncated(ell, 3, -7), ell, cap + 1)


class TestTruncatedRoute:
    def voltages(self, precision):
        # over ell = 2: f = -(2 (u - 1)^2 / u + (u^8 - 1)^2 / u^8) = T^16 mod 2
        return {"s1": PadicTruncated(2, 40, 1), "s2": 1,
                "s3": PadicTruncated(2, precision, 8)}

    def test_precision_bounds_the_cap(self):
        # mod 2^4 the voltages fix f mod 2 only through T^15
        with pytest.raises(PrecisionError, match=r"\(cap 15, voltage precision 4\)"):
            iwasawa_invariants(tower(bouquet(3), 2, self.voltages(4)))
        assert iwasawa_invariants(tower(bouquet(3), 2, self.voltages(5))) == \
            IwasawaData(0, 15)

    def test_max_cap_bounds_the_cap(self):
        t = tower(bouquet(3), 2, self.voltages(40))
        with pytest.raises(PrecisionError, match=r"\(cap 8, voltage precision 40\)"):
            iwasawa_invariants(t, cap=4, max_cap=8)
        assert iwasawa_invariants(t, cap=4, max_cap=16) == IwasawaData(0, 15)


# ---------------------------------------------------------------------------
# Pivot order: of the rows tied at the least valuation, the kernel takes the
# one with the fewest nonzeros to the right.  Any least-valuation pivot gives
# the same answer, so the oracle and a permuted matrix must agree.


@st.composite
def sparse_series_matrices(draw):
    """(matrix, ell, cap): n up to 10 with at least half the entries zero
    (for n >= 2), nonzero entries of valuation 0, 1 or 2 so that ties are
    common, placed on a random permutation and then at random."""
    ell = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 10))
    cap = draw(st.integers(0, 12))
    perm = draw(st.permutations(range(n)))
    cells = {(i, perm[i]) for i in range(n)}
    extra = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                          max_size=max(n * n // 2 - n, 0)))
    cells.update(extra)

    def entry():
        v = draw(st.sampled_from([0, 0, 1, 2]))
        lead = draw(st.integers(1, ell - 1))
        tail = [draw(st.integers(-2 * ell, 2 * ell)) for _ in range(cap - v)]
        return ([0] * v + [lead] + tail)[:cap + 1]

    zero = [0] * (cap + 1)
    matrix = [[entry() if (i, j) in cells else zero for j in range(n)] for i in range(n)]
    return matrix, ell, cap


@settings(max_examples=120, deadline=None)
@given(sparse_series_matrices())
def test_sparse_kernel_matches_berkowitz_mod_ell(case):
    matrix, ell, cap = case
    det = truncated_determinant(matrix, ell, cap)
    assert truncated_valuation(matrix, ell, cap) == \
        next((k for k, c in enumerate(det) if c), None)


@settings(max_examples=120, deadline=None)
@given(sparse_series_matrices(), st.randoms(use_true_random=False))
def test_symmetric_permutation_keeps_the_valuation(case, rng):
    matrix, ell, cap = case
    order = list(range(len(matrix)))
    rng.shuffle(order)
    permuted = [[matrix[i][j] for j in order] for i in order]
    assert truncated_valuation(permuted, ell, cap) == truncated_valuation(matrix, ell, cap)


def test_uniform_tower_check_five_level_one():
    # 125 vertices, D = 250 = lambda(f): the kernel runs once, at cap 250
    report = uniform_tower_check(5, 1)
    assert report.cover == IwasawaData(0, 249)
    assert report.lambda_expected == 249
    assert report.ok


@pytest.mark.parametrize("ell, cap", [(3, 54), (5, 250)])
def test_uniform_tower_check_runs_the_kernel_at_kidas_cap(ell, cap, monkeypatch):
    # one elimination at Kida's lambda(f_Y) = |G_1| lambda(f_X) = 2 ell^3,
    # which is also the lift's degree bound D: each of its rows spans 2
    import giwa.iwasawa
    calls = []

    def recording(t, c):
        calls.append((c, _degree_bound(_laurent_matrix(t, t.values))[1]))
        return lambda_mod_ell(t, c)

    monkeypatch.setattr(giwa.iwasawa, "lambda_mod_ell", recording)
    assert uniform_tower_check(ell, 1).ok
    assert calls == [(cap, cap)]


def test_ex1_along_z9_x_z9_through_the_kernel():
    # ex1 pulled back along Z/9 x Z/9 with ex1's beta: 81 vertices, D = 3240;
    # lambda_Y = 485 = 81 * 6 - 1, certified once the cap reaches 512
    base = tower(bouquet(3), 3, refdata.EX1["alpha"])
    G = product(cyclic(9), cyclic(9))
    t = _certified_pullback(base, voltage_assignment(base.graph, G, dict(refdata.EX1["beta"])))
    assert t.graph.vertex_count == 81
    assert degree_bound(t) == 3240
    assert _doubled_lambda_mod_ell(t, 64, 3240) == (486, 512)


# ---------------------------------------------------------------------------
# LaurentDeterminant.lambda_f reads the multiplicity of u = 1 one base-ell
# digit at a time; the oracle is one synthetic division by (u - 1) per unit.


def lambda_f_by_synthetic_division(coeffs, ell):
    mu = min(ord_int(c, ell) for c in coeffs if c)
    red = [(c // ell ** mu) % ell for c in coeffs]
    mult = 0
    while any(red):
        acc = 0
        quot = [0] * len(red)
        for d in range(len(red) - 1, -1, -1):
            acc = (acc + red[d]) % ell
            quot[d] = acc
        if acc:
            break
        red = quot[1:]
        mult += 1
    return mult


@st.composite
def laurent_forms(draw):
    """(P's coefficients, ell, lambda(f)): P = ell^mu ((u - 1)^lam Q + ell R)
    with Q(1) a unit mod ell, mu >= 1, and lam often at least ell^2."""
    ell = draw(st.sampled_from([2, 3, 5]))
    mu = draw(st.integers(1, 3))
    lam = draw(st.one_of(st.integers(0, ell ** 2), st.integers(ell ** 2, ell ** 3 + ell)))
    q = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
    if sum(q) % ell == 0:
        q[0] += 1
    p = q
    for _ in range(lam):
        p = [a - b for a, b in zip([0] + p, p + [0])]
    r = draw(st.lists(st.integers(-9, 9), max_size=len(p) + 6))
    p = p + [0] * (len(r) - len(p))
    p = [ell ** mu * (a + ell * (r[i] if i < len(r) else 0)) for i, a in enumerate(p)]
    return p, ell, lam


@SETTINGS
@given(laurent_forms(), st.integers(-5, 5))
def test_lambda_f_matches_synthetic_division(case, shift):
    coeffs, ell, lam = case
    ld = LaurentDeterminant(coeffs=tuple(coeffs), shift=shift)
    assert ld.mu(ell) >= 1
    assert ld.lambda_f(ell) == lambda_f_by_synthetic_division(coeffs, ell) == lam
