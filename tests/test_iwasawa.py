import random

import pytest

from giwa import (CyclotomicElement, DisconnectedError, NotStabilizedError,
                  PadicTruncated, ValidationError, bouquet, build_multigraph,
                  characteristic_series, cyclic, dihedral_8, factorization_check,
                  fit_iwasawa, is_connected, iwasawa_invariants,
                  kappa_ord_sequence, kida_verify, lift_tower, product,
                  Tower, tower, tower_level,
                  twisted_characteristic_series, uniform_tower_check,
                  verify_uniform_quotients, voltage_assignment)
from giwa.characters import all_characters, trivial_character
from giwa.errors import ResourceLimitError
from giwa.groups import DIHEDRAL_REFLECTION, DIHEDRAL_ROTATION
from giwa import refdata
from giwa.iwasawa import certify_levels_connected
from giwa.voltage import derived_graph

from test_graphs import two_vertex_four_edge_graph


def ex1_tower():
    return tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 20})


def ex2_tower():
    return tower(bouquet(3), 2, {"s1": 1, "s2": 1, "s3": 1})


def sl2_base_tower():
    return tower(bouquet(4), 3, {"s1": 0, "s2": 0, "s3": 0, "s4": 1})


class TestCharacteristicSeries:
    def test_sl2_base_alternating(self):
        f = characteristic_series(sl2_base_tower(), cap=10)
        assert f.coeffs[:2] == (0, 0)
        assert all(f.coeffs[k] == (-1) ** (k + 1) for k in range(2, 11))

    def test_ex2_base(self):
        f = characteristic_series(ex2_tower(), cap=8)
        assert f.coeffs[:5] == (0, 0, -3, 3, -3)

    def test_zero_voltage_gives_zero_series(self):
        t = tower(bouquet(2), 3, {"s1": 0, "s2": 0})
        f = characteristic_series(t, cap=6)
        assert f.is_zero()
        # identically-zero f goes hand in hand with disconnected levels
        with pytest.raises(DisconnectedError):
            iwasawa_invariants(t)

    def test_constant_term_always_vanishes(self):
        rng = random.Random(61)
        for _ in range(30):
            loops = rng.randint(2, 4)
            t = tower(bouquet(loops), rng.choice([2, 3, 5]),
                      {f"s{i + 1}": rng.randint(-6, 6) for i in range(loops)})
            assert characteristic_series(t, cap=4).coeffs[0] == 0

    def test_padic_voltages_match_integer_route(self):
        ell, N = 3, 8
        exact = ex1_tower()
        padic = tower(bouquet(3), ell,
                      {"s1": PadicTruncated(ell, N, 1),
                       "s2": PadicTruncated(ell, N, 4),
                       "s3": PadicTruncated(ell, N, 20)})
        f_exact = characteristic_series(exact, cap=10)
        f_padic = characteristic_series(padic, cap=10)
        for c_int, c_mod in zip(f_exact.coeffs, f_padic.coeffs):
            assert c_mod == c_int

    def test_berkowitz_route_matches_laurent_route_on_two_vertices(self):
        graph = build_multigraph(["a", "b"],
                                 [("a", "b", "e1"), ("a", "b", "e2"),
                                  ("a", "a", "e3")])
        ell, N = 2, 22
        t_int = tower(graph, ell, {"e1": 1, "e2": 0, "e3": 3})
        t_pad = tower(graph, ell, {"e1": PadicTruncated(ell, N, 1),
                                   "e2": PadicTruncated(ell, N, 0),
                                   "e3": PadicTruncated(ell, N, 3)})
        # cap 12 burns ord_2(12!) = 10 digits of the 22 supplied
        f_int = characteristic_series(t_int, cap=12)
        f_pad = characteristic_series(t_pad, cap=12)
        for c_int, c_mod in zip(f_int.coeffs, f_pad.coeffs):
            assert c_mod == c_int


class TestInvariants:
    def test_ex1(self):
        inv = iwasawa_invariants(ex1_tower())
        assert (inv.mu, inv.lam) == (0, 5)

    def test_ex2(self):
        inv = iwasawa_invariants(ex2_tower())
        assert (inv.mu, inv.lam) == (0, 1)

    def test_ex1_pullback(self):
        t = ex1_tower()
        va = voltage_assignment(t.graph, product(cyclic(3), cyclic(3)),
                                {"s1": (1, 0), "s2": (0, 1), "s3": (1, 0)})
        lifted = lift_tower(t, derived_graph(va).projection)
        inv = iwasawa_invariants(lifted)
        assert (inv.mu, inv.lam) == (0, 53)

    def test_padic_voltages(self):
        ell, N = 2, 12
        t = tower(bouquet(3), ell, {
            "s1": PadicTruncated(ell, N, 1),
            "s2": PadicTruncated(ell, N, 1),
            "s3": PadicTruncated(ell, N, 1)})
        inv = iwasawa_invariants(t)
        assert (inv.mu, inv.lam) == (0, 1)

    def test_disconnected_tower_rejected(self):
        t = tower(two_vertex_four_edge_graph(), 2,
                  {"s1": 1, "s2": 1, "s3": 1, "s4": 1})
        assert not certify_levels_connected(t)
        with pytest.raises(DisconnectedError):
            iwasawa_invariants(t)

    def test_lambda_odd_for_odd_ell(self):
        rng = random.Random(67)
        done = 0
        while done < 40:
            loops = rng.randint(2, 4)
            ell = rng.choice([3, 5, 7])
            values = {f"s{i + 1}": rng.randint(-20, 20) for i in range(loops)}
            t = tower(bouquet(loops), ell, values)
            if not certify_levels_connected(t):
                continue
            inv = iwasawa_invariants(t)
            if inv.mu == 0:
                assert inv.lam % 2 == 1
                done += 1


class TestTowerLevel:
    def test_level_zero_is_the_base(self):
        dg = tower_level(ex1_tower(), 0)
        assert dg.graph.vertex_count == 1
        assert dg.graph.undirected_edge_count == 3

    def test_level_two_has_nine_vertices(self):
        dg = tower_level(ex1_tower(), 2)
        assert dg.graph.vertex_count == 9
        assert is_connected(dg.graph)

    def test_disconnected_level_raises_with_witness(self):
        t = tower(two_vertex_four_edge_graph(), 2,
                  {"s1": 1, "s2": 1, "s3": 1, "s4": 1})
        with pytest.raises(DisconnectedError, match="subgroup of order 1"):
            tower_level(t, 1)


class TestTowerCaches:
    def test_values_are_read_only(self):
        t = ex1_tower()
        with pytest.raises(TypeError):
            t.values[0] = 5

    def test_values_are_a_copy(self):
        values = {0: 1, 2: 2, 4: 3}
        t = Tower(graph=bouquet(3), orientation=bouquet(3).default_orientation(),
                  ell=3, values=values)
        values[0] = 7
        assert t.values[0] == 1

    def test_lift_is_shared_by_equal_covers(self):
        t = ex2_tower()
        G = dihedral_8()
        beta = {"s1": DIHEDRAL_ROTATION, "s2": DIHEDRAL_REFLECTION, "s3": G.identity}
        first = lift_tower(t, derived_graph(voltage_assignment(t.graph, G, beta)).projection)
        again = lift_tower(t, derived_graph(voltage_assignment(t.graph, G, beta)).projection)
        assert again is first
        other = {"s1": DIHEDRAL_REFLECTION, "s2": DIHEDRAL_ROTATION, "s3": G.identity}
        assert lift_tower(
            t, derived_graph(voltage_assignment(t.graph, G, other)).projection) is not first


class TestKappaSequence:
    def test_ex1_ordinals(self):
        seq = kappa_ord_sequence(ex1_tower(), 3)
        assert [row[2] for row in seq[1:]] == [3, 8, 13]

    def test_ex2_values(self):
        seq = kappa_ord_sequence(ex2_tower(), 4)
        assert [row[2] for row in seq] == [0, 1, 2, 3, 4]
        assert seq[4][1] == 2**4 * 3**15

    def test_ex2_pullback_kappa2(self):
        t = ex2_tower()
        G = dihedral_8()
        va = voltage_assignment(t.graph, G, {"s1": DIHEDRAL_ROTATION,
                                             "s2": DIHEDRAL_REFLECTION,
                                             "s3": G.identity})
        lifted = lift_tower(t, derived_graph(va).projection)
        seq = kappa_ord_sequence(lifted, 2)
        assert seq[2][1] == 2**48 * 3**13 * 5**2

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError):
            kappa_ord_sequence(ex1_tower(), 8, vertex_cap=100)

    def test_mu_zero_sequence_matches_lambda_eventually(self):
        rng = random.Random(71)
        done = 0
        while done < 8:
            loops = rng.randint(2, 3)
            ell = rng.choice([2, 3])
            t = tower(bouquet(loops), ell,
                      {f"s{i + 1}": rng.randint(-8, 8) for i in range(loops)})
            if not certify_levels_connected(t):
                continue
            inv = iwasawa_invariants(t)
            if inv.mu != 0:
                continue
            seq = kappa_ord_sequence(t, 4 if ell == 3 else 5)
            mu_fit, lam_fit, _nu, _n0 = fit_iwasawa(
                [row[2] for row in seq], 0, ell)
            assert (mu_fit, lam_fit) == (0, inv.lam)
            done += 1


class TestFit:
    def test_ex1_points(self):
        assert fit_iwasawa([3, 8, 13], 1, 3) == (0, 5, -2, 1)

    def test_constant_sequence(self):
        assert fit_iwasawa([7, 7, 7], 0, 3) == (0, 0, 7, 0)

    def test_ex2_pullback_points(self):
        assert fit_iwasawa([48, 63, 78], 2, 2) == (0, 15, 18, 2)

    def test_nonzero_mu(self):
        ell = 3
        mu, lam, nu = 2, 4, -1
        ords = [mu * ell ** n + lam * n + nu for n in range(1, 5)]
        assert fit_iwasawa(ords, 1, ell) == (mu, lam, nu, 1)

    def test_unstable_prefix_is_skipped(self):
        ell = 2
        tail = [15 * n + 18 for n in range(2, 6)]
        assert fit_iwasawa([21] + tail, 1, ell) == (0, 15, 18, 2)

    def test_not_stabilized(self):
        with pytest.raises(NotStabilizedError):
            fit_iwasawa([0, 0, 5, 0], 0, 2)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_iwasawa([1, 2], 0, 2)


class TestKida:
    def test_ex1(self):
        report = kida_verify(ex1_tower(), {"s1": (1, 0), "s2": (0, 1),
                                           "s3": (1, 0)},
                             product(cyclic(3), cyclic(3)))
        assert report.ok
        assert report.degree == 9
        assert (report.cover.lam + 1) == 9 * (report.base.lam + 1) == 54

    def test_ex2(self):
        G = dihedral_8()
        report = kida_verify(ex2_tower(), {"s1": DIHEDRAL_ROTATION,
                                           "s2": DIHEDRAL_REFLECTION,
                                           "s3": G.identity}, G)
        assert report.ok
        assert report.degree == 8
        assert report.cover.lam == 15

    def test_trivial_group(self):
        report = kida_verify(ex1_tower(), {"s1": 0, "s2": 0, "s3": 0}, cyclic(1))
        assert report.ok
        assert report.degree == 1
        assert report.cover.lam == report.base.lam

    def test_wrong_group_order_rejected(self):
        with pytest.raises(ValidationError, match="power of ell"):
            kida_verify(ex1_tower(), {"s1": 0, "s2": 1, "s3": 0}, cyclic(2))

    def test_disconnected_cover_rejected(self):
        with pytest.raises(DisconnectedError):
            kida_verify(ex1_tower(), {"s1": 0, "s2": 0, "s3": 0}, cyclic(3))

    def test_randomized_consistency(self):
        rng = random.Random(73)
        done = 0
        while done < 12:
            loops = rng.randint(2, 4)
            ell = rng.choice([2, 3])
            G = rng.choice([cyclic(ell), cyclic(ell ** 2),
                            product(cyclic(ell), cyclic(ell))])
            values = {f"s{i + 1}": rng.randint(-10, 10) for i in range(loops)}
            beta = {f"s{i + 1}": rng.choice(G.elements) for i in range(loops)}
            t = tower(bouquet(loops), ell, values)
            if not certify_levels_connected(t):
                continue
            try:
                report = kida_verify(t, beta, G)
            except DisconnectedError:
                continue
            if report.base.mu == 0:
                assert report.formula_holds
            assert report.mu_equivalence
            done += 1


class TestTwistedSeries:
    def test_trivial_character_recovers_f(self):
        t = ex1_tower()
        G = cyclic(3)
        va = voltage_assignment(t.graph, G, {"s1": 1, "s2": 0, "s3": 0})
        f_psi0 = twisted_characteristic_series(t, va, trivial_character(G), cap=12)
        f = characteristic_series(t, cap=12)
        for a, b in zip(f_psi0.coeffs, f.coeffs):
            assert a == b

    def test_mod_ell_reduction_is_character_independent(self):
        t = ex1_tower()
        G = cyclic(3)
        va = voltage_assignment(t.graph, G, {"s1": 1, "s2": 0, "s3": 0})
        f = characteristic_series(t, cap=16)
        for psi in all_characters(G):
            f_psi = twisted_characteristic_series(t, va, psi, cap=16)
            for c_psi, c in zip(f_psi.coeffs, f.coeffs):
                reduced = c_psi.reduce_zeta_to_one_mod(3) if isinstance(
                    c_psi, CyclotomicElement) else c_psi % 3
                assert reduced == c % 3

    def test_special_value_is_h_of_combined_character(self):
        # f_psi evaluated at t_phi equals h(1, psi tensor phi) for the
        # combined cover, exactly (via the Laurent closed form of the tail)
        from giwa import h_twisted
        from giwa.cyclotomic import zeta as make_zeta

        t = ex1_tower()
        ell = 3
        G = cyclic(ell)
        va = voltage_assignment(t.graph, G, {"s1": 1, "s2": 0, "s3": 0})
        GxGamma = product(G, cyclic(ell))
        va_combined = voltage_assignment(
            t.graph, GxGamma,
            {"s1": (1, t.values[0] % ell), "s2": (0, t.values[2] % ell),
             "s3": (0, t.values[4] % ell)})
        cap = 40
        for psi in all_characters(G):
            f_psi = twisted_characteristic_series(t, va, psi, cap=cap)
            for phi in all_characters(cyclic(ell)):
                if phi.is_trivial:
                    continue
                tphi = make_zeta(ell, phi.exponents[0]) - 1
                value = CyclotomicElement.from_int(ell, 0)
                for c in reversed(f_psi.coeffs):
                    value = value * tphi + c
                combined = psi.tensor(phi, GxGamma)
                h1 = h_twisted(va_combined, combined)(1)
                diff = value - h1
                if diff:
                    # the tail of the series has valuation > cap/2
                    assert diff.ord_ell(ell) > cap // 2

    def test_integer_voltage_required(self):
        t = tower(bouquet(2), 3, {"s1": PadicTruncated(3, 8, 1),
                                  "s2": PadicTruncated(3, 8, 0)})
        G = cyclic(3)
        va = voltage_assignment(t.graph, G, {"s1": 1, "s2": 0})
        from giwa.errors import UnsupportedError
        with pytest.raises(UnsupportedError):
            twisted_characteristic_series(t, va, trivial_character(G))


class TestFactorization:
    def test_ex1_style_cyclic_cover(self):
        report = factorization_check(ex1_tower(), {"s1": 1, "s2": 0, "s3": 0},
                                     cap=64)
        assert report.passed

    def test_trivial_beta_refused(self):
        with pytest.raises(DisconnectedError):
            factorization_check(ex1_tower(), {"s1": 0, "s2": 0, "s3": 0})

    def test_ex2_style_cover(self):
        # beta = alpha = (1,1,1) makes every combined voltage (1,1), which
        # generates only half of Z/2 x Z/2^m: the pullback tower is
        # disconnected and the check must refuse it
        with pytest.raises(DisconnectedError):
            factorization_check(ex2_tower(), {"s1": 1, "s2": 1, "s3": 1},
                                cap=32)
        # the degree-2 cover cut out by beta = (1,0,0) keeps every level
        # connected and the factorization holds through the cap
        report = factorization_check(ex2_tower(), {"s1": 1, "s2": 0, "s3": 0},
                                     cap=32)
        assert report.passed

    def test_zero_voltage_loop_under_nontrivial_character(self):
        # beta(s2) = 1 twists the loop of voltage 0: each nontrivial f_psi
        # has 4 - zeta - zeta^-1 - (1+T) - (1+T)^-1 on its diagonal, an int
        # and Z[zeta] terms in one Laurent term u^0
        t = tower(bouquet(2), 3, {"s1": 1, "s2": 0})
        report = factorization_check(t, {"s1": 0, "s2": 1}, cap=24)
        assert report.passed and not report.lhs.is_zero()

    def test_randomized_degree_ell(self):
        rng = random.Random(79)
        done = 0
        while done < 10:
            loops = rng.randint(2, 3)
            ell = rng.choice([2, 3, 5])
            t = tower(bouquet(loops), ell,
                      {f"s{i + 1}": rng.randint(-6, 6) for i in range(loops)})
            beta = {f"s{i + 1}": rng.randrange(ell) for i in range(loops)}
            if not certify_levels_connected(t):
                continue
            try:
                report = factorization_check(t, beta, cap=24)
            except DisconnectedError:
                continue
            assert report.passed
            done += 1


class TestUniformTower:
    def test_level_zero(self):
        report = uniform_tower_check(3, 0)
        assert report.cover.lam == 1 and report.cover.mu == 0
        assert report.ok

    def test_level_one_lambda_53(self):
        report = uniform_tower_check(3, 1)
        assert report.cover.lam == 53 == report.lambda_expected
        assert report.cover.mu == 0
        assert report.all_levels_certified
        assert report.ok

    def test_levels_share_a_given_base(self):
        base = sl2_base_tower()
        for level in (0, 1):
            assert uniform_tower_check(3, level, base=base).ok
        assert base._p is not None
        with pytest.raises(ValidationError, match="bouquet-of-four"):
            uniform_tower_check(3, 0, base=ex1_tower())

    def test_uniform_filtration_via_groups_module(self):
        assert verify_uniform_quotients(3, 2).ok


def test_laurent_and_berkowitz_routes_agree_randomized():
    # the interpolation kernel and the series-ring determinant must produce
    # identical coefficients on random small towers
    rng = random.Random(314159)
    done = 0
    while done < 10:
        nv = rng.randint(1, 2)
        verts = [f"v{i}" for i in range(nv)]
        ne = rng.randint(nv + 1, 4)
        edges = [(rng.choice(verts), rng.choice(verts), f"e{j}")
                 for j in range(ne)]
        graph = build_multigraph(verts, edges)
        if not is_connected(graph):
            continue
        from giwa import euler_characteristic
        if euler_characteristic(graph) == 0:
            continue
        ell = rng.choice([2, 3, 5])
        values = {f"e{j}": rng.randint(-4, 4) for j in range(ne)}
        t_int = tower(graph, ell, values)
        prec = 24
        t_pad = tower(graph, ell, {k: PadicTruncated(ell, prec, v)
                                   for k, v in values.items()})
        cap = 8
        f_int = characteristic_series(t_int, cap=cap)
        f_pad = characteristic_series(t_pad, cap=cap)
        for c_int, c_mod in zip(f_int.coeffs, f_pad.coeffs):
            assert c_mod == c_int
        done += 1


def test_mu_lambda_window_on_ex1_pullback_series():
    # the windowed extractor sees the first 3-unit at T^54 inside a cap-60
    # truncation, matching the exact route
    t = ex1_tower()
    va = voltage_assignment(t.graph, product(cyclic(3), cyclic(3)),
                            {"s1": (1, 0), "s2": (0, 1), "s3": (1, 0)})
    lifted = lift_tower(t, derived_graph(va).projection)
    f = characteristic_series(lifted, cap=60)
    from giwa import mu_lambda
    assert mu_lambda(f, 3) == (0, 54)


def test_invariants_are_thread_safe_and_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    def run(_):
        t = ex1_tower()
        inv = iwasawa_invariants(t)
        seq = kappa_ord_sequence(t, 2)
        return (inv.mu, inv.lam, tuple(row[2] for row in seq))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, range(16)))
    assert len(set(results)) == 1
    assert results[0] == (0, 5, (0, 3, 8))


class TestEx1PullbackCoefficientVerification:
    """Four routes pinning the low-order ex1 pullback coefficients.

    Two Z/3 x Z/3 covers of the ex1 bouquet differ only in beta(s3).  This
    class takes beta(s3) = beta(s1), the cover of refdata.EX1, whose T^4
    coefficient is -925711173; the subclass below takes beta(s3) = beta(s2),
    the cover of acceptance Criterion 2, whose T^4 coefficient is
    -7697155248.  Both share T^2 and T^3, and both tuples obey
    a5 = a2 - 2 a4, which the symmetry f(x) = f(1/x) forces.
    """

    BETA = {"s1": (1, 0), "s2": (0, 1), "s3": (1, 0)}
    EXPECTED = (0, 0, -886443588, 886443588, -925711173, 964978758)

    def _lifted_tower(self):
        t = ex1_tower()
        va = voltage_assignment(t.graph, product(cyclic(3), cyclic(3)),
                                self.BETA)
        return t, va, lift_tower(t, derived_graph(va).projection)

    def test_route_one_laurent_interpolation(self):
        _, _, lifted = self._lifted_tower()
        f = characteristic_series(lifted, cap=5)
        assert f.coeffs == self.EXPECTED

    def test_route_two_berkowitz_over_integer_series(self):
        from giwa import binomial_series, ring_determinant
        from giwa.series import TruncatedPowerSeries
        _, _, lifted = self._lifted_tower()
        cap = 5
        g = lifted.graph.vertex_count
        zero = TruncatedPowerSeries.zero(cap)
        M = [[zero for _ in range(g)] for _ in range(g)]
        val = [0] * g
        for s in lifted.orientation:
            i, j = lifted.graph.origin[s], lifted.graph.terminus[s]
            a = lifted.values[s]
            val[i] += 1
            val[j] += 1
            M[i][j] = M[i][j] - binomial_series(a, cap)
            M[j][i] = M[j][i] - binomial_series(-a, cap)
        for i in range(g):
            M[i][i] = M[i][i] + val[i]
        assert ring_determinant(M).coeffs == self.EXPECTED

    def test_route_three_character_product(self):
        from giwa import CyclotomicElement
        t, va, lifted = self._lifted_tower()
        cap = 5
        rhs = None
        for psi in all_characters(va.group):
            f_psi = twisted_characteristic_series(t, va, psi, cap=cap)
            rhs = f_psi if rhs is None else rhs * f_psi
        ints = tuple(c.as_int() if isinstance(c, CyclotomicElement) else c
                     for c in rhs.coeffs)
        assert ints == self.EXPECTED

    def test_route_four_standalone_modular_arithmetic(self):
        # fully independent kernel: dense arithmetic over F_p[T]/(T^6) with
        # plain lists and fraction-free elimination specialized to a prime
        # modulus, for two large primes
        t, va, lifted = self._lifted_tower()
        cap = 5

        def series_mul(a, b, p):
            out = [0] * (cap + 1)
            for i, x in enumerate(a):
                if x:
                    for j in range(cap + 1 - i):
                        out[i + j] = (out[i + j] + x * b[j]) % p
            return out

        def one_plus_t_power(a, p):
            # (1+T)^a mod p via binomials with modular inverse factorials
            out = [1]
            c = 1
            for k in range(1, cap + 1):
                c = c * ((a - k + 1) % p) % p * pow(k, -1, p) % p
                out.append(c)
            return out

        for p in (10**9 + 7, 998244353):
            g = lifted.graph.vertex_count
            M = [[[0] * (cap + 1) for _ in range(g)] for _ in range(g)]
            val = [0] * g
            for s in lifted.orientation:
                i, j = lifted.graph.origin[s], lifted.graph.terminus[s]
                a = lifted.values[s]
                val[i] += 1
                val[j] += 1
                pa = one_plus_t_power(a, p)
                na = one_plus_t_power(-a, p)
                M[i][j] = [(x - y) % p for x, y in zip(M[i][j], pa)]
                M[j][i] = [(x - y) % p for x, y in zip(M[j][i], na)]
            for i in range(g):
                M[i][i][0] = (M[i][i][0] + val[i]) % p
            # Gaussian elimination over the field of fractions of the series
            # ring is unavailable (constant terms are not units), so expand
            # the determinant by Leibniz over all 9! permutations, batched
            # through recursion on rows with pruning of zero entries
            from itertools import permutations
            det = [0] * (cap + 1)
            for perm in permutations(range(g)):
                sign = 1
                seen = list(perm)
                for i in range(g):
                    for j in range(i + 1, g):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = [1] + [0] * cap
                for i in range(g):
                    term = series_mul(term, M[i][perm[i]], p)
                    if not any(term):
                        break
                if sign == 1:
                    det = [(x + y) % p for x, y in zip(det, term)]
                else:
                    det = [(x - y) % p for x, y in zip(det, term)]
            assert tuple(c % p for c in det) == \
                tuple(c % p for c in self.EXPECTED)


class TestEx1PullbackCoefficientVerificationCriterion2Cover(
        TestEx1PullbackCoefficientVerification):
    """The same four routes on the cover with beta(s3) = beta(s2)."""

    BETA = {"s1": (1, 0), "s2": (0, 1), "s3": (0, 1)}
    EXPECTED = (0, 0, -886443588, 886443588, -7697155248, 14507866908)


class TestBadCapsAndLevels:
    """Caps and levels out of range are refused up front, not looped on."""

    def padic_tower(self):
        return tower(bouquet(3), 2, {f"s{i}": PadicTruncated(2, 12, 1) for i in (1, 2, 3)})

    @pytest.mark.parametrize("cap", [0, -1])
    def test_invariants_cap_below_one(self, cap):
        for t in (self.padic_tower(), ex1_tower()):
            with pytest.raises(ValidationError, match="cap must be >= 1"):
                iwasawa_invariants(t, cap=cap)

    @pytest.mark.parametrize("max_cap", [0, -1])
    def test_invariants_max_cap_below_one(self, max_cap):
        # a truncated tower once ignored max_cap < 1 and answered mu=0 lambda=1
        mixed = tower(bouquet(2), 3, {"s1": PadicTruncated(3, 20, 1), "s2": 2})
        for t in (mixed, self.padic_tower(), ex1_tower()):
            with pytest.raises(ValidationError, match="max_cap must be >= 1"):
                iwasawa_invariants(t, max_cap=max_cap)

    def test_characteristic_series_negative_cap(self):
        for t in (self.padic_tower(), ex1_tower()):
            with pytest.raises(ValidationError, match="cap must be >= 0"):
                characteristic_series(t, -1)
            assert len(characteristic_series(t, 0).coeffs) == 1

    def test_kappa_negative_level(self):
        with pytest.raises(ValidationError, match="level must be >= 0"):
            kappa_ord_sequence(ex1_tower(), -1)
        assert [row[0] for row in kappa_ord_sequence(ex1_tower(), 0)] == [0]


def test_kida_on_wide_ex1_voltage():
    # s3 = 1001 puts deg P of the pullback at 18,018: its exact P runs
    # Bareiss steps whose divisors are tens of thousands of bits wide
    t = tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 1001})
    report = kida_verify(t, refdata.EX1["beta"], product(cyclic(3), cyclic(3)))
    assert (report.base.mu, report.base.lam) == (0, 5)
    assert (report.cover.mu, report.cover.lam) == (0, 53)
    assert report.ok
