"""Complex characters of finite abelian groups, valued in cyclotomic integers.

A character of Z/m_1 x ... x Z/m_r is stored by its exponent vector: the
i-th canonical generator maps to zeta_R^(c_i * R / m_i) where R is the group
exponent (or any multiple used as the working conductor), so every value of
every character of the group lives in the single ring Z[zeta_R].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import lcm

from .cyclotomic import CyclotomicElement
from .errors import UnsupportedError, ValidationError
from .groups import FiniteGroup


@dataclass(frozen=True)
class Character:
    group: FiniteGroup
    exponents: tuple          # one exponent mod m_i per cyclic factor
    conductor: int            # working conductor R; every value is a power of zeta_R

    def __post_init__(self):
        orders = _factor_orders(self.group)
        if len(self.exponents) != len(orders):
            raise ValidationError("exponent vector length does not match the factors")
        if self.conductor % lcm(1, *orders) != 0:
            raise ValidationError("conductor must be divisible by the group exponent")

    def require_group(self, group: FiniteGroup) -> None:
        """ValidationError unless group has these cyclic factors (groups hold closures)."""
        if _factor_orders(group) != _factor_orders(self.group):
            raise ValidationError(f"character of factors {_factor_orders(self.group)} "
                                  f"used on factors {_factor_orders(group)}")

    def value_exponent(self, element) -> int:
        """The power of zeta_R representing psi(element)."""
        orders = _factor_orders(self.group)
        coords = self.group.abelian_coordinates(element)
        e = 0
        for c, m, a in zip(self.exponents, orders, coords):
            e += c * (self.conductor // m) * (a % m)
        return e % self.conductor

    def __call__(self, element) -> CyclotomicElement:
        return CyclotomicElement.zeta(self.conductor, self.value_exponent(element))

    def value_at_inverse(self, element) -> CyclotomicElement:
        return CyclotomicElement.zeta(
            self.conductor, -self.value_exponent(element) % self.conductor)

    @property
    def is_trivial(self) -> bool:
        orders = _factor_orders(self.group)
        return all(c % m == 0 for c, m in zip(self.exponents, orders))

    def order(self) -> int:
        orders = _factor_orders(self.group)
        from math import gcd
        return lcm(1, *(m // gcd(m, c) for c, m in zip(self.exponents, orders)))

    def tensor(self, other: "Character", product_group: FiniteGroup) -> "Character":
        """Character of the direct product acting as self x other."""
        # exponents are stored per cyclic factor, so they concatenate as-is;
        # only the working conductor needs to absorb both rings
        return Character(
            group=product_group,
            exponents=self.exponents + other.exponents,
            conductor=lcm(self.conductor, other.conductor),
        )


def _factor_orders(group: FiniteGroup) -> tuple:
    if group.cyclic_factor_orders is None:
        raise UnsupportedError(
            f"group {group.name} lacks a cyclic decomposition; characters unavailable")
    return group.cyclic_factor_orders


def group_exponent(group: FiniteGroup) -> int:
    return lcm(1, *_factor_orders(group))


def all_characters(group: FiniteGroup) -> list:
    """Every character of the group, all valued in Z[zeta_R], R the group exponent."""
    R = group_exponent(group)
    return [Character(group=group, exponents=exps, conductor=R)
            for exps in iproduct(*(range(m) for m in _factor_orders(group)))]


def trivial_character(group: FiniteGroup) -> Character:
    return Character(group=group, exponents=(0,) * len(_factor_orders(group)),
                     conductor=group_exponent(group))
