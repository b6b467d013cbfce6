"""Exact arithmetic in rings of cyclotomic integers Z[x]/Phi_m(x).

Elements are coordinate vectors in the power basis 1, z, ..., z^(phi(m)-1)
of a primitive m-th root of unity z.  Products are reduced by exact division
with remainder by the m-th cyclotomic polynomial, whose integer coefficients
are computed once per m and cached.

The ell-adic valuation is only defined here for prime-power conductors
m = ell^k, where ell is totally ramified: ord_ell(x) = ord_ell(Norm(x)) / phi(m),
a rational with denominator dividing phi(m).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedError, ValidationError
from .numtheory import ord_int, prime_divisors, prime_power_exponent, square_and_multiply


def _poly_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_mul(a: list, b: list) -> list:
    """Schoolbook product of coefficient lists, low degree first, over int or
    CyclotomicElement coefficients (zero is falsy in both)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod_exact(num: list, den: list) -> tuple:
    """Quotient and remainder for monic-or-exact division over the integers."""
    num = num[:]
    q = [0] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    terms = [(j, d) for j, d in enumerate(den) if d]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c == 0:
            continue
        if c % lead != 0:
            raise ValidationError("non-exact polynomial division")
        f = c // lead
        q[i] = f
        for j, d in terms:
            num[i + j] -= f * d
    return q, _poly_trim(num)


def render_terms(coeffs, var: str) -> str:
    """c_0 + c_1*var + c_2*var^2 + ..., leaving out every coefficient equal to
    0; "0" when all are."""
    parts = [f"{c}" if k == 0 else f"{c}*{var}" if k == 1 else f"{c}*{var}^{k}"
             for k, c in enumerate(coeffs) if c != 0]
    return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of Phi_m, low degree first."""
    if m < 1:
        raise ValidationError(f"conductor must be >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]          # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


class CyclotomicElement:
    """An element of Z[zeta_m] in the power basis, with exact integer coordinates."""

    __slots__ = ("m", "coords")

    def __init__(self, m: int, coords):
        phi = euler_phi(m)
        c = list(coords)
        if len(c) > phi:
            c = _reduce_mod_phi(c, m)
        c += [0] * (phi - len(c))
        self.m = m
        self.coords = tuple(c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(m: int, n: int) -> "CyclotomicElement":
        return CyclotomicElement(m, [n])

    @staticmethod
    def zeta(m: int, power: int = 1) -> "CyclotomicElement":
        e = power % m
        return CyclotomicElement(m, [0] * e + [1])

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            if other.m != self.m:
                raise ValidationError(
                    f"mixed cyclotomic conductors {self.m} and {other.m}")
            return other
        if isinstance(other, int):
            return CyclotomicElement.from_int(self.m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(self.m, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.m, [-a for a in self.coords])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(self.m, [a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = _poly_mul(list(self.coords), list(o.coords))
        return CyclotomicElement(self.m, _reduce_mod_phi(prod, self.m))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative powers are not ring operations here")
        return square_and_multiply(self, n, self.from_int(self.m, 1), CyclotomicElement.__mul__)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational_integer() and self.coords[0] == other
        if isinstance(other, CyclotomicElement):
            return self.m == other.m and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.m}" if i == 1 else f"z{self.m}^{i}"
                terms.append(f"{c}*{z}" if c != 1 else z)
        return " + ".join(terms) if terms else "0"

    # -- Galois structure ----------------------------------------------------

    def conjugate(self, j: int) -> "CyclotomicElement":
        """Apply the Galois automorphism zeta -> zeta^j, gcd(j, m) = 1."""
        from math import gcd
        if gcd(j, self.m) != 1:
            raise ValidationError(f"{j} is not coprime to {self.m}")
        out = [0] * self.m
        for i, c in enumerate(self.coords):
            out[(i * j) % self.m] += c
        return CyclotomicElement(self.m, _reduce_mod_phi(_poly_trim(out), self.m))

    def conjugates(self) -> list:
        from math import gcd
        return [self.conjugate(j) for j in range(1, self.m + 1) if gcd(j, self.m) == 1]

    def norm(self) -> int:
        """Product of all Galois conjugates; always a rational integer.

        Taken as a chain of relative norms.  While p^2 divides the conductor
        m, the product of the p conjugates zeta -> zeta^(1 + j m/p) lies in
        Z[zeta^p] = Z[zeta_(m/p)], whose power basis is every p-th coordinate
        (Phi_m(x) = Phi_(m/p)(x^p)).  Only at the squarefree conductor left at
        the end is the full conjugate product taken.
        """
        x = self
        for p in prime_divisors(self.m):
            while x.m % (p * p) == 0:
                x = x._relative_norm(p)
        prod = CyclotomicElement.from_int(x.m, 1)
        for c in x.conjugates():
            prod = prod * c
        if not prod.is_rational_integer():
            raise ValidationError("norm did not land in the integers")
        return prod.coords[0] if prod.coords else 0

    def _relative_norm(self, p: int) -> "CyclotomicElement":
        """Norm from Q(zeta_m) down to Q(zeta_(m/p)), for p^2 dividing m."""
        step = self.m // p
        prod = self
        for j in range(1, p):
            prod = prod * self.conjugate(1 + j * step)
        if any(c for i, c in enumerate(prod.coords) if i % p):
            raise ValidationError("relative norm did not land in Z[zeta^p]")
        return CyclotomicElement(step, prod.coords[::p])

    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise ValidationError(f"{self!r} is not a rational integer")
        return self.coords[0] if self.coords else 0

    def ord_ell(self, ell: int) -> Fraction | None:
        """ell-adic valuation for prime-power conductor; None for the zero element."""
        if prime_power_exponent(self.m, ell) is None:
            raise UnsupportedError(
                f"ord_{ell} needs conductor a power of {ell}, got {self.m}")
        if not self:
            return None
        return Fraction(ord_int(self.norm(), ell), euler_phi(self.m))

    def reduce_zeta_to_one_mod(self, ell: int) -> int:
        """Image under the residue map sending zeta to 1, taken mod ell."""
        return sum(self.coords) % ell


def _reduce_mod_phi(coeffs: list, m: int) -> list:
    phi = list(cyclotomic_polynomial(m))
    c = _poly_trim(list(coeffs))
    if len(c) < len(phi):
        return c
    _, rem = _poly_divmod_exact(c, phi)
    return rem


def as_integer(c) -> int:
    """An int, or a CyclotomicElement that is a rational integer, as an int."""
    return c.as_int() if isinstance(c, CyclotomicElement) else c


def zeta(m: int, power: int = 1) -> CyclotomicElement:
    return CyclotomicElement.zeta(m, power)


def t_psi(m: int, power: int = 1) -> CyclotomicElement:
    """zeta^power - 1, the evaluation point attached to a character."""
    return CyclotomicElement.zeta(m, power) - 1
