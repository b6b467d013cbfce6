"""Small integer number theory shared by the kernels: primality, valuations,
prime powers, factorizations and prime divisors, all by trial division on
machine-size inputs."""

from __future__ import annotations

from .errors import ValidationError


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
    if ell < 2:
        raise ValidationError(f"valuations need ell >= 2, got {ell}")
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
    k = ord_int(m, ell)
    return k if k is not None and m == ell ** k else None


def factor_integer(n: int, trial_limit: int = 1_000_000) -> list:
    """Trial-division factorization [(prime, exponent)]; large cofactors kept whole.

    The last cofactor is prime when it is below trial_limit^2."""
    if n == 0:
        return [(0, 1)]
    out = []
    if n < 0:
        out.append((-1, 1))
        n = -n
    p = 2
    while p * p <= n and p <= trial_limit:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_divisors(m: int) -> list:
    """The distinct primes dividing m >= 1, in increasing order; exact below 10^12."""
    return [p for p, _e in factor_integer(m)]
