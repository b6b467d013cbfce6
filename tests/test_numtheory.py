import math

from giwa.numtheory import (is_prime, ord_factorial, ord_int, prime_divisors,
                            prime_power_exponent)


def test_is_prime():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1009 * 1013)


def test_ord_factorial_is_legendre():
    for ell in (2, 3, 5):
        for n in range(0, 130):
            assert ord_factorial(n, ell) == ord_int(math.factorial(n), ell)


def test_prime_powers_and_divisors():
    assert prime_power_exponent(1, 3) == 0
    assert prime_power_exponent(81, 3) == 4
    assert prime_power_exponent(54, 3) is None
    assert prime_divisors(1) == []
    assert prime_divisors(360) == [2, 3, 5]
    assert prime_divisors(97) == [97]
