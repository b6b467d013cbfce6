"""Dense polynomials in one variable over exact coefficient rings.

Used for the h-polynomials det(I - A_psi u + (D-I)u^2), whose coefficients
are rational or cyclotomic integers.  Newton interpolation at the integers
(interpolate_at_integers) computes nothing in the package any more: it is the
tests' oracle for the Kronecker determinants, and a hook of bench/tracing.py.
"""

from __future__ import annotations

from typing import Sequence

from .cyclotomic import CyclotomicElement, _poly_divmod_exact
from .errors import ValidationError


class Poly:
    """Polynomial with exact coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        c = list(coeffs)
        while len(c) > 1 and _is_zero(c[-1]):
            c.pop()
        if not c:
            c = [0]
        self.coeffs = tuple(c)

    @staticmethod
    def x(degree: int = 1) -> "Poly":
        return Poly([0] * degree + [1])

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and _is_zero(self.coeffs[0]):
            return -1
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, CyclotomicElement)):
            return Poly([other])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly([self[k] + o[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly([self[k] - o[k] for k in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, CyclotomicElement)):
            return Poly([a * other for a in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValidationError("negative polynomial powers")
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly([0])
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def divexact(self, other: "Poly") -> "Poly":
        """Exact polynomial division (integer coefficients); raises if not exact."""
        if other.degree < 0:
            raise ValidationError("division by zero polynomial")
        if not all(isinstance(c, int) for c in self.coeffs + other.coeffs):
            raise ValidationError("exact division only over the integers")
        q, rem = _poly_divmod_exact(list(self.coeffs), list(other.coeffs))
        if rem:
            raise ValidationError("non-exact polynomial division")
        return Poly(q)

    def render(self, var: str = "u") -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return self.render()


def _is_zero(c) -> bool:
    if isinstance(c, int):
        return c == 0
    if isinstance(c, CyclotomicElement):
        return not bool(c)
    return c == 0


def interpolate_at_integers(values: Sequence[int]) -> list:
    """Monomial coefficients of the integer polynomial with P(i) = values[i].

    Newton's forward-difference form at the nodes 0, 1, ..., n: the divided
    differences are iterated finite differences divided by k!, which stay
    integral for integer polynomials; non-integrality means the data did not
    come from a polynomial of this degree and is reported as an error.
    """
    n = len(values)
    if n == 0:
        raise ValidationError("no interpolation points")
    newton = [values[0]]
    diffs = list(values)
    fact = 1
    for k in range(1, n):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        fact *= k
        q, r = divmod(diffs[0], fact)
        if r:
            raise ValidationError("samples are not from an integer polynomial")
        newton.append(q)
    mono = [0] * n
    falling = [1]                      # u(u-1)...(u-k+1), low degree first
    for k in range(n):
        c = newton[k]
        if c:
            for d, fc in enumerate(falling):
                mono[d] += c * fc
        nxt = [0] * (len(falling) + 1)
        for d, fc in enumerate(falling):
            nxt[d + 1] += fc
            nxt[d] -= k * fc
        falling = nxt
    while len(mono) > 1 and mono[-1] == 0:
        mono.pop()
    return mono
