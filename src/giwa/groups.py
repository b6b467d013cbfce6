"""Finite groups as multiplication oracles.

Elements are canonical hashable values (residues, permutation tuples, matrix
entry tuples) so they can key dictionaries and serve as derived-graph vertex
labels.  Groups are enumerated once, by closure from generators where a
formula-free mechanism is preferable, and are immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import ResourceLimitError, UnsupportedError, ValidationError
from .numtheory import is_prime, square_and_multiply

DEFAULT_ENUMERATION_CAP = 200_000
_CHECK_PAIRS = 4096


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    elements: tuple
    identity: object
    _mul: Callable = field(repr=False)
    _inv: Callable = field(repr=False)
    # orders of cyclic factors when the group is a declared product of cyclic
    # groups; None otherwise.  Used by the character machinery.
    cyclic_factor_orders: tuple | None = None
    # the two factor groups when built as a direct product; None otherwise
    factors: tuple | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def multiply(self, a, b):
        return self._mul(a, b)

    def inverse(self, a):
        return self._inv(a)

    def power(self, a, n: int):
        if n < 0:
            a, n = self._inv(a), -n
        return square_and_multiply(a, n, self.identity, self._mul)

    def contains(self, a) -> bool:
        return a in self._element_set

    @cached_property
    def _element_set(self) -> frozenset:
        return frozenset(self.elements)

    def abelian_coordinates(self, a) -> tuple:
        """Coordinates of an element w.r.t. the declared cyclic factors."""
        if self.cyclic_factor_orders is None:
            raise UnsupportedError(f"group {self.name} has no declared cyclic structure")
        return _flatten(a) if isinstance(a, tuple) else (a,)


def _flatten(x) -> tuple:
    out = []
    stack = [x]
    while stack:
        y = stack.pop()
        if isinstance(y, tuple):
            stack.extend(reversed(y))
        else:
            out.append(y)
    return tuple(out)


def _within_budget(order: int) -> None:
    """ResourceLimitError for a group too large to list, before listing it."""
    if order > DEFAULT_ENUMERATION_CAP:
        raise ResourceLimitError(
            f"group of order {order} exceeds the cap of {DEFAULT_ENUMERATION_CAP} elements")


def cyclic(m: int) -> FiniteGroup:
    """Residues modulo m under addition."""
    if m < 1:
        raise ValidationError(f"cyclic group order must be >= 1, got {m}")
    _within_budget(m)
    return FiniteGroup(
        name=f"Z/{m}",
        elements=tuple(range(m)),
        identity=0,
        _mul=lambda a, b: (a + b) % m,
        _inv=lambda a: (-a) % m,
        cyclic_factor_orders=(m,),
    )


def product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise operations; elements are pairs."""
    _within_budget(g1.order * g2.order)
    factors = None
    if g1.cyclic_factor_orders is not None and g2.cyclic_factor_orders is not None:
        factors = g1.cyclic_factor_orders + g2.cyclic_factor_orders

    return FiniteGroup(
        name=f"{g1.name} x {g2.name}",
        elements=tuple((a, b) for a in g1.elements for b in g2.elements),
        identity=(g1.identity, g2.identity),
        _mul=lambda a, b: (g1.multiply(a[0], b[0]), g2.multiply(a[1], b[1])),
        _inv=lambda a: (g1.inverse(a[0]), g2.inverse(a[1])),
        cyclic_factor_orders=factors,
        factors=(g1, g2),
    )


def trivial_group() -> FiniteGroup:
    return cyclic(1)


def _perm_mul(p, q):
    # compose left-to-right as functions: (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_inv(p):
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def closure(identity, generators: Iterable, mul: Callable,
            cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """Enumerate the subgroup generated by the given elements (orbit search).

    Closure under multiplication by generators from the identity; in a finite
    group this also yields closure under inverses.
    """
    elems = {identity}
    frontier = [identity]
    gens = list(generators)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    if len(elems) > cap:
                        raise ResourceLimitError(
                            f"group enumeration exceeded cap of {cap} elements")
                    new.append(y)
        frontier = new
    return sorted(elems)


DIHEDRAL_ROTATION = (1, 2, 3, 0)      # 4-cycle on {0,1,2,3}
DIHEDRAL_REFLECTION = (3, 2, 1, 0)    # the double transposition (0 3)(1 2)


def dihedral_8() -> FiniteGroup:
    """Order-8 dihedral group as permutations of four points.

    Generated by a 4-cycle and a reflection; enumerated by closure, which
    doubles as a check that the two permutations really generate all 8.
    """
    ident = (0, 1, 2, 3)
    elems = closure(ident, [DIHEDRAL_ROTATION, DIHEDRAL_REFLECTION], _perm_mul)
    assert len(elems) == 8

    return FiniteGroup(
        name="D8",
        elements=tuple(elems),
        identity=ident,
        _mul=_perm_mul,
        _inv=_perm_inv,
    )


# ---------------------------------------------------------------------------
# SL2 congruence quotients


def _mat_mul_mod(x, y, mod):
    return ((x[0] * y[0] + x[1] * y[2]) % mod,
            (x[0] * y[1] + x[1] * y[3]) % mod,
            (x[2] * y[0] + x[3] * y[2]) % mod,
            (x[2] * y[1] + x[3] * y[3]) % mod)


def _mat_inv_mod(x, mod):
    # det = 1 for all our elements, so the adjugate is the inverse
    a, b, c, d = x
    return (d % mod, (-b) % mod, (-c) % mod, a % mod)


def sl2_generators(ell: int, level: int) -> tuple:
    """Images mod ell^(level+1) of the three standard topological generators."""
    mod = ell ** (level + 1)
    a2 = pow(1 + ell, -1, mod) if mod > 1 else 0
    return (
        (1 % mod, ell % mod, 0, 1 % mod),
        ((1 + ell) % mod, 0, 0, a2),
        (1 % mod, 0, ell % mod, 1 % mod),
    )


@dataclass(frozen=True)
class SL2Quotient:
    """Level-n quotient of the principal congruence kernel inside SL2.

    Elements are 2x2 matrices over Z/ell^(n+1) with determinant 1 that reduce
    to the identity mod ell, stored as row-major 4-tuples.  The full element
    set is enumerated by closure from the three standard generators and the
    order is checked against ell^(3n).
    """

    ell: int
    level: int
    group: FiniteGroup

    @property
    def modulus(self) -> int:
        return self.ell ** (self.level + 1)


def sl2_level_quotient(ell: int, level: int,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> SL2Quotient:
    if ell == 2:
        raise UnsupportedError("ell = 2 is not supported for the SL2 congruence quotient")
    if not is_prime(ell):
        raise ValidationError(f"ell must be an odd prime, got {ell}")
    if level < 0:
        raise ValidationError("level must be >= 0")
    expected = ell ** (3 * level)
    if expected > cap:
        raise ResourceLimitError(
            f"SL2 quotient of order {expected} exceeds the cap of {cap}")
    mod = ell ** (level + 1)
    ident = (1 % mod, 0, 0, 1 % mod)
    gens = sl2_generators(ell, level)
    elems = closure(ident, gens, lambda x, y: _mat_mul_mod(x, y, mod), cap=cap)
    if len(elems) != expected:
        raise ValidationError(
            f"SL2 quotient enumeration found {len(elems)} elements, expected {expected}")
    for m in elems:
        assert (m[0] * m[3] - m[1] * m[2]) % mod == 1 % mod
        assert all(x % ell == y for x, y in zip(m, (1 % ell, 0, 0, 1 % ell)))
    group = FiniteGroup(
        name=f"SL2ker({ell},{level})",
        elements=tuple(elems),
        identity=ident,
        _mul=lambda x, y: _mat_mul_mod(x, y, mod),
        _inv=lambda x: _mat_inv_mod(x, mod),
    )
    return SL2Quotient(ell=ell, level=level, group=group)


def subgroup_generated(group: FiniteGroup, generators: Sequence) -> frozenset:
    """Closure of a generator list under the group operations."""
    for g in generators:
        if not group.contains(g):
            raise ValidationError(f"generator {g!r} is not a group element")
    return frozenset(closure(group.identity, generators, group.multiply,
                             cap=group.order))


@dataclass(frozen=True)
class GroupHom:
    """Group morphism given by an explicit map on elements."""

    source: FiniteGroup
    target: FiniteGroup
    _map: Callable = field(repr=False)

    def __call__(self, a):
        return self._map(a)

    def is_surjective(self) -> bool:
        return {self._map(a) for a in self.source.elements} == set(self.target.elements)

    def kernel(self) -> frozenset:
        t1 = self.target.identity
        return frozenset(a for a in self.source.elements if self._map(a) == t1)


def hom(source: FiniteGroup, target: FiniteGroup, func: Callable) -> GroupHom:
    """Wrap a function as a morphism, verifying multiplicativity.

    All pairs are checked when |source|^2 <= _CHECK_PAIRS, otherwise a
    deterministic sample; f(1) = 1 is always checked.
    """
    if func(source.identity) != target.identity:
        raise ValidationError("map does not send identity to identity")
    n = source.order
    if n * n <= _CHECK_PAIRS:
        pairs = [(a, b) for a in source.elements for b in source.elements]
    else:
        step = max(1, n // 64)
        sample = source.elements[::step]
        pairs = [(a, b) for a in sample for b in sample]
    for a, b in pairs:
        if func(source.multiply(a, b)) != target.multiply(func(a), func(b)):
            raise ValidationError(f"map is not multiplicative at ({a!r}, {b!r})")
    return GroupHom(source=source, target=target, _map=func)


def reduction_hom(m_from: int, m_to: int) -> GroupHom:
    """Reduction Z/m_from -> Z/m_to for m_to dividing m_from."""
    if m_from % m_to != 0:
        raise ValidationError(f"{m_to} does not divide {m_from}")
    return hom(cyclic(m_from), cyclic(m_to), lambda a: a % m_to)


# ---------------------------------------------------------------------------
# Uniform pro-ell structure checks for the SL2 kernel


@dataclass(frozen=True)
class UniformReport:
    ell: int
    n_max: int
    layer_indices: tuple       # [G_k : G_{k+1}] for k = 0 .. n_max-1
    indices_ok: bool
    commutators_ok: bool
    witness: str | None

    @property
    def ok(self) -> bool:
        return self.indices_ok and self.commutators_ok


def verify_uniform_quotients(ell: int, n_max: int,
                             cap: int = DEFAULT_ENUMERATION_CAP) -> UniformReport:
    """Check the uniform filtration inside the level-n_max SL2 quotient.

    The image of the k-th filtration subgroup consists of the enumerated
    matrices congruent to the identity mod ell^(k+1); consecutive indices
    must all equal ell^3, and commutators of the generators must land in the
    subgroup generated by ell-th powers.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    quot = sl2_level_quotient(ell, n_max, cap=cap)
    G = quot.group
    mod = quot.modulus

    def layer_size(k: int) -> int:
        mk = ell ** (k + 1)
        ident = (1 % mk, 0, 0, 1 % mk)
        return sum(1 for m in G.elements
                   if tuple(x % mk for x in m) == ident)

    sizes = [layer_size(k) for k in range(n_max + 1)]
    indices = tuple(sizes[k] // sizes[k + 1] for k in range(n_max))
    indices_ok = all(sizes[k] == sizes[k + 1] * indices[k] for k in range(n_max)) \
        and all(ix == ell ** 3 for ix in indices)
    witness = None
    if not indices_ok:
        bad = next(k for k in range(n_max) if indices[k] != ell ** 3)
        witness = f"[G_{bad}:G_{bad + 1}] = {indices[bad]} != {ell ** 3}"

    power_subgroup = subgroup_generated(
        G, [G.power(x, ell) for x in G.elements])
    gens = sl2_generators(ell, n_max)
    commutators_ok = True
    for i in range(3):
        for j in range(3):
            a, b = gens[i], gens[j]
            comm = _mat_mul_mod(
                _mat_mul_mod(a, b, mod),
                _mat_mul_mod(_mat_inv_mod(a, mod), _mat_inv_mod(b, mod), mod),
                mod)
            if comm not in power_subgroup:
                commutators_ok = False
                witness = f"[A{i + 1},A{j + 1}] not in the ell-th power subgroup"
    return UniformReport(ell=ell, n_max=n_max, layer_indices=indices,
                         indices_ok=indices_ok, commutators_ok=commutators_ok,
                         witness=witness)
