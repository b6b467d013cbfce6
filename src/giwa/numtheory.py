"""Small integer number theory shared by the kernels: deterministic
Miller-Rabin primality, and valuations, prime powers, factorizations and
prime divisors by trial division on machine-size inputs.  square_and_multiply
is the one power loop, behind FiniteGroup.power and ** on Z[zeta] and Poly."""

from __future__ import annotations

from .errors import ResourceLimitError, ValidationError

# The first 13 primes are Miller-Rabin witnesses for every odd composite
# below _PROVEN_BELOW (Sorenson and Webster, Math. Comp. 86 (2017)).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981
_TRIAL_LIMIT = 1_000_000


def is_prime(n: int) -> bool:
    """Exact primality below _PROVEN_BELOW (about 3.3e24); a larger n with no
    factor among the witnesses is refused with ResourceLimitError."""
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    if n >= _PROVEN_BELOW:
        raise ResourceLimitError(f"primality of {n} is not proven above {_PROVEN_BELOW - 1}")
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def square_and_multiply(a, n: int, one, mul):
    """a^n for n >= 0 from the identity one and the product mul(result, square)."""
    out = one
    while n:
        if n & 1:
            out = mul(out, a)
        a = mul(a, a)
        n >>= 1
    return out


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


def factor_integer(n: int) -> list:
    """Trial-division factorization [(prime, exponent)]; large cofactors kept whole.

    The last cofactor is prime when it is below _TRIAL_LIMIT^2."""
    if n == 0:
        return [(0, 1)]
    out = []
    if n < 0:
        out.append((-1, 1))
        n = -n
    p = 2
    while p * p <= n and p <= _TRIAL_LIMIT:
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
