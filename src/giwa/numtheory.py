"""Small integer number theory shared by the kernels: primality, valuations,
prime powers and prime divisors, all by trial division on machine-size inputs."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def ord_int(n: int, ell: int) -> int | None:
    """ell-adic valuation of an integer; None for 0 (infinite)."""
    if n == 0:
        return None
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def ord_factorial(n: int, ell: int) -> int:
    """ord_ell(n!) by Legendre's formula."""
    v = 0
    p = ell
    while p <= n:
        v += n // p
        p *= ell
    return v


def prime_power_exponent(m: int, ell: int) -> int | None:
    """k with m = ell^k, or None.  m = 1 counts as the 0-th power."""
    if m == 1:
        return 0
    k = 0
    while m % ell == 0:
        m //= ell
        k += 1
    return k if m == 1 else None


def prime_divisors(m: int) -> list:
    """The distinct primes dividing m, in increasing order."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out
