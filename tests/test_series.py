import random
from fractions import Fraction

import pytest

from giwa import (CyclotomicElement, PadicTruncated, PrecisionError,
                  TruncatedPowerSeries, UnsupportedError, ValidationError,
                  binomial_series, cofactor_determinant, cyclotomic_polynomial,
                  evaluate_at_tpsi, mu_lambda, ring_determinant, t_psi, zeta)
from giwa.cyclotomic import _poly_divmod_exact
from giwa.series import binomial_coefficients, ord_int


class TestBinomialSeries:
    def test_a_equals_one(self):
        assert binomial_series(1, 4).coeffs == (1, 1, 0, 0, 0)

    def test_geometric_series(self):
        assert binomial_series(-1, 5).coeffs == (1, -1, 1, -1, 1, -1)

    def test_binomial_row(self):
        assert binomial_series(4, 5).coeffs == (1, 4, 6, 4, 1, 0)

    def test_homomorphism_on_random_integer_pairs(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = rng.randint(-30, 30), rng.randint(-30, 30)
            lhs = binomial_series(a, 12) * binomial_series(b, 12)
            assert lhs == binomial_series(a + b, 12)

    def test_power_oracle(self):
        # rho(4) must agree with multiplying rho(1) four times
        one = binomial_series(1, 10)
        acc = TruncatedPowerSeries.one(10)
        for _ in range(4):
            acc = acc * one
        assert acc == binomial_series(4, 10)


class TestPadicBinomial:
    def test_matches_exact_integers_mod_precision(self):
        # cap 12 burns ord_3(12!) = 5 guard digits: 11 in, 6 certified out
        ell = 3
        a = PadicTruncated(ell, 11, 4)
        exact = binomial_coefficients(4, 12)
        padic = binomial_series(a, 12)
        assert padic.coeffs[1].precision == 6
        for c_exact, c_padic in zip(exact, padic.coeffs):
            assert c_padic.value == c_exact % ell ** 6

    def test_guard_precision_survives_factorial_division(self):
        # k! for k up to 27 removes ord_3(27!) = 13 digits; starting from 17
        # digits the output must be correct mod 3^4 against exact integers
        ell = 3
        value = 7 + 2 * 3**2 + 3**3
        a = PadicTruncated(ell, 17, value)
        exact = binomial_coefficients(value, 27)
        padic = binomial_series(a, 27)
        assert padic.coeffs[1].precision == 4
        for c_exact, c_padic in zip(exact, padic.coeffs):
            assert c_padic.value == c_exact % ell ** 4

    def test_insufficient_precision_rejected(self):
        with pytest.raises(PrecisionError):
            binomial_series(PadicTruncated(3, 2, 4), 27)

    def test_homomorphism_mod_precision(self):
        ell, N = 5, 4
        a, b = PadicTruncated(ell, N, 13), PadicTruncated(ell, N, 111)
        lhs = binomial_series(a, 8) * binomial_series(b, 8)
        rhs = binomial_series(PadicTruncated(ell, N, 124), 8)
        assert all(x == y for x, y in zip(lhs.coeffs, rhs.coeffs))


class TestSeriesOps:
    def test_unit_times_inverse(self):
        one_plus_t = binomial_series(1, 8)
        assert one_plus_t * one_plus_t.inverse() == TruncatedPowerSeries.one(8)
        assert one_plus_t * binomial_series(-1, 8) == TruncatedPowerSeries.one(8)

    def test_mixed_cap_takes_minimum(self):
        a = TruncatedPowerSeries([1, 2, 3])
        b = TruncatedPowerSeries([1, 1])
        assert (a + b).cap == 1
        assert (a * b).coeffs == (1, 3)

    def test_non_unit_inverse_rejected(self):
        with pytest.raises(ValidationError):
            TruncatedPowerSeries([2, 1]).inverse()

    def test_padic_unit_inverse(self):
        s = TruncatedPowerSeries([PadicTruncated(3, 4, 2),
                                  PadicTruncated(3, 4, 5)])
        prod = s * s.inverse()
        assert prod.coeffs[0] == 1 and prod.coeffs[1] == 0


class TestMuLambda:
    def test_simple(self):
        assert mu_lambda(TruncatedPowerSeries([3, 1, 0, 0]), 3) == (0, 1)

    def test_ex2_shape(self):
        f = TruncatedPowerSeries([0, 0, -3, 3, -3, 3, -3, 3])
        assert mu_lambda(f, 2) == (0, 2)

    def test_zero_series_raises(self):
        with pytest.raises(PrecisionError):
            mu_lambda(TruncatedPowerSeries.zero(6), 3)

    def test_minimum_at_cap_raises(self):
        f = TruncatedPowerSeries([9, 3, 1])
        with pytest.raises(PrecisionError):
            mu_lambda(f, 3)

    def test_padic_all_below_precision_raises(self):
        f = TruncatedPowerSeries([PadicTruncated(3, 2, 9),
                                  PadicTruncated(3, 2, 0)])
        with pytest.raises(PrecisionError):
            mu_lambda(f, 3)

    def test_additive_under_multiplication(self):
        rng = random.Random(17)
        ell = 3
        for _ in range(100):
            def make(lam, mu):
                coeffs = [ell * rng.randint(1, 9) for _ in range(lam)]
                coeffs.append(rng.choice([1, 2, 4, 5, 7, 8]))
                coeffs += [rng.randint(-9, 9) for _ in range(6)]
                return TruncatedPowerSeries([ell ** mu * c for c in coeffs])
            mu1, lam1 = rng.randint(0, 2), rng.randint(0, 4)
            mu2, lam2 = rng.randint(0, 2), rng.randint(0, 4)
            q1, q2 = make(lam1, mu1), make(lam2, mu2)
            got_mu, got_lam = mu_lambda(q1 * q2, ell)
            assert got_mu == mu1 + mu2
            assert got_lam == lam1 + lam2


class TestRingDeterminant:
    def test_one_by_one(self):
        q = TruncatedPowerSeries([2, 5, 1])
        assert ring_determinant([[q]]) == q

    def test_diagonal(self):
        q1 = TruncatedPowerSeries([1, 1, 0])
        q2 = TruncatedPowerSeries([2, 0, 3])
        got = ring_determinant([[q1, TruncatedPowerSeries.zero(2)],
                                [TruncatedPowerSeries.zero(2), q2]])
        assert got == q1 * q2

    def test_two_by_two_against_cofactor(self):
        rng = random.Random(23)
        for _ in range(20):
            m = [[TruncatedPowerSeries([rng.randint(-5, 5) for _ in range(4)])
                  for _ in range(2)] for _ in range(2)]
            assert ring_determinant(m) == cofactor_determinant(m)

    def test_small_matrices_against_cofactor(self):
        rng = random.Random(29)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                m = [[TruncatedPowerSeries([rng.randint(-3, 3) for _ in range(3)])
                      for _ in range(n)] for _ in range(n)]
                assert ring_determinant(m) == cofactor_determinant(m)

    def test_integer_matrices(self):
        rng = random.Random(31)
        from giwa import bareiss_determinant
        for n in (2, 3, 4):
            for _ in range(10):
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                assert ring_determinant(m) == bareiss_determinant(m)


class TestCyclotomic:
    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)

    def test_prime_powers_agree_with_the_division(self):
        # the oracle divides x^m - 1 by every Phi_d, d a proper divisor of m
        divided = {}
        for m in range(1, 401):
            num = [-1] + [0] * (m - 1) + [1]
            for d in range(1, m):
                if m % d == 0:
                    num, rem = _poly_divmod_exact(num, divided[d])
                    assert not rem
            divided[m] = num
            assert cyclotomic_polynomial(m) == tuple(num), m

    def test_zeta_cubed_is_one(self):
        z = zeta(3)
        assert z * z * z == 1

    def test_norm_of_zeta3_minus_one(self):
        x = t_psi(3)          # zeta_3 - 1
        assert x.norm() == 3
        assert x.ord_ell(3) == Fraction(1, 2)

    def test_norm_of_one(self):
        one = CyclotomicElement.from_int(3, 1)
        assert one.norm() == 1
        assert one.ord_ell(3) == 0

    def test_scaling_by_ell_raises_ord_by_one(self):
        rng = random.Random(37)
        for _ in range(30):
            x = CyclotomicElement(9, [rng.randint(-4, 4) for _ in range(6)])
            if not x:
                continue
            assert (3 * x).ord_ell(3) == x.ord_ell(3) + 1

    def test_conjugation_permutes_roots(self):
        z = zeta(9)
        assert z.conjugate(2) == z * z
        with pytest.raises(ValidationError):
            z.conjugate(3)

    def test_ord_requires_prime_power_conductor(self):
        x = zeta(6) - 1
        with pytest.raises(UnsupportedError):
            x.ord_ell(3)

    def test_zero_has_no_ord(self):
        assert CyclotomicElement.from_int(3, 0).ord_ell(3) is None


class TestEvaluateAtTpsi:
    def test_trivial_character_gives_constant_term(self):
        f = TruncatedPowerSeries([7, 1, 4])
        value, bound = evaluate_at_tpsi(f, 3, 0)
        assert value == 7
        assert bound is None

    def test_one_plus_t_gives_zeta(self):
        f = binomial_series(1, 6)
        value, bound = evaluate_at_tpsi(f, 3, 1)
        assert value == zeta(3)
        assert bound == Fraction(7, 2)

    def test_insufficient_cap_rejected(self):
        f = binomial_series(1, 3)
        with pytest.raises(PrecisionError):
            evaluate_at_tpsi(f, 3, 1, min_precision=Fraction(10))

    def test_matches_h_value_of_level_one_cover(self):
        # the base characteristic series evaluated at t_psi must agree with
        # h(1, psi) computed through the twisted adjacency route, up to the
        # certified tail bound
        from giwa import bouquet, tower, characteristic_series, cyclic, h_twisted
        from giwa.characters import all_characters
        from giwa.voltage import voltage_assignment

        X = bouquet(3)
        t = tower(X, 3, {"s1": 1, "s2": 4, "s3": 20})
        f = characteristic_series(t, cap=40)
        va = voltage_assignment(X, cyclic(3), {"s1": 1, "s2": 1, "s3": 2})
        for psi in all_characters(cyclic(3)):
            if psi.is_trivial:
                continue
            h1 = h_twisted(va, psi)(1)
            value, bound = evaluate_at_tpsi(f, 3, psi.exponents[0])
            diff = value - h1
            if diff:
                assert diff.ord_ell(3) >= bound
            # exact closed-form check: f(t) = P(1 + t) (1 + t)^(-K)
            from giwa.iwasawa import _laurent_determinant
            ld = _laurent_determinant(t)
            z = zeta(3, psi.exponents[0])
            exact = CyclotomicElement.from_int(3, 0)
            for d, c in enumerate(ld.coeffs):
                exact = exact + c * z ** d
            zK = z ** ld.shift
            assert exact == h1 * zK


def test_ord_int():
    assert ord_int(0, 3) is None
    assert ord_int(54, 3) == 3
    assert ord_int(-8, 2) == 3


class TestJsonRendering:
    def test_integer_series(self):
        f = TruncatedPowerSeries([0, 0, -3, 3])
        payload = f.to_json()
        assert payload == {"ring": {"kind": "integer"}, "cap": 3,
                           "coefficients": [0, 0, -3, 3]}

    def test_padic_series(self):
        f = TruncatedPowerSeries([PadicTruncated(3, 4, 1),
                                  PadicTruncated(3, 4, 80)])
        payload = f.to_json()
        assert payload["ring"] == {"kind": "padic", "ell": 3, "precision": 4}
        assert payload["coefficients"] == [1, 80]

    def test_cyclotomic_series(self):
        f = TruncatedPowerSeries([zeta(3), CyclotomicElement.from_int(3, 2)])
        payload = f.to_json()
        assert payload["ring"] == {"kind": "cyclotomic", "conductor": 3}
        assert payload["coefficients"] == [[0, 1], [2, 0]]

    def test_render_shows_big_o(self):
        f = TruncatedPowerSeries([1, 0, 2])
        assert f.render() == "1 + 2*T^2 + O(T^3)"
