import math
import time

import pytest

from giwa import bouquet, tower
from giwa.errors import ResourceLimitError, ValidationError
from giwa.numtheory import (factor_integer, is_prime, ord_factorial, ord_int,
                            prime_divisors, prime_power_exponent)


def test_is_prime():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1009 * 1013)


def test_is_prime_agrees_with_a_sieve_below_10_to_the_5():
    n = 10 ** 5
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    assert [is_prime(k) for k in range(n)] == sieve


def test_is_prime_on_large_inputs():
    assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)
    # 3825123056546413051 is a strong pseudoprime to every prime base up to 23
    for composite in (2 ** 61 + 1, 561, 3215031751, 3825123056546413051):
        assert not is_prime(composite)


def test_primality_past_the_proven_bound_is_refused():
    assert not is_prime(2 ** 100)          # a small factor still decides it
    with pytest.raises(ResourceLimitError):
        is_prime(2 ** 89 - 1)


def test_tower_over_a_61_bit_prime_is_built_at_once():
    start = time.perf_counter()
    t = tower(bouquet(2), 2 ** 61 - 1, {"s1": 1, "s2": 2})
    assert time.perf_counter() - start < 1
    assert t.ell == 2 ** 61 - 1


def test_ord_factorial_is_legendre():
    for ell in (2, 3, 5):
        for n in range(0, 130):
            assert ord_factorial(n, ell) == ord_int(math.factorial(n), ell)


def test_prime_powers_and_divisors():
    assert prime_power_exponent(1, 3) == 0
    assert prime_power_exponent(81, 3) == 4
    assert prime_power_exponent(54, 3) is None
    assert prime_power_exponent(0, 3) is None
    for ell in (1, 0, -3):                  # no ell-adic valuation to walk
        with pytest.raises(ValidationError):
            prime_power_exponent(9, ell)
    assert prime_divisors(1) == []
    assert prime_divisors(360) == [2, 3, 5]
    assert prime_divisors(97) == [97]
    for m in range(1, 400):
        assert prime_divisors(m) == [p for p in range(2, m + 1)
                                     if m % p == 0 and is_prime(p)]
    big = 999_983 * 999_979                 # two primes just below 10^6
    assert factor_integer(big) == [(999_979, 1), (999_983, 1)]
    assert prime_divisors(big) == [999_979, 999_983]
    assert factor_integer(-12) == [(-1, 1), (2, 2), (3, 1)]
    assert factor_integer(0) == [(0, 1)]
