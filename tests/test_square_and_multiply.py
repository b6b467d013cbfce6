"""The one square-and-multiply loop, numtheory.square_and_multiply, behind
FiniteGroup.power and ** on CyclotomicElement and Poly, against repeated
multiplication; each caller keeps its own identity and negative-exponent rule.
"""

import operator
from functools import reduce

import pytest

from giwa import Poly, cyclic, dihedral_8, sl2_level_quotient, zeta
from giwa.errors import ValidationError
from giwa.groups import DIHEDRAL_REFLECTION, DIHEDRAL_ROTATION, _perm_mul, sl2_generators
from giwa.numtheory import square_and_multiply

D8 = dihedral_8()
SL2 = sl2_level_quotient(3, 1).group
GENERATORS = sl2_generators(3, 1)
GROUP_ELEMENTS = [
    (cyclic(9), 2),
    (D8, DIHEDRAL_ROTATION),
    (D8, _perm_mul(DIHEDRAL_ROTATION, DIHEDRAL_REFLECTION)),
    (SL2, GENERATORS[0]),
    (SL2, SL2.multiply(GENERATORS[1], GENERATORS[2])),
]
RING_ELEMENTS = [
    2 + zeta(9) - 3 * zeta(9, 4),
    Poly([1, -2, 3]),
    Poly([zeta(3), 1 - zeta(3), 2]),
]


def test_helper_multiplies_result_by_square_in_that_order():
    # string concatenation is not commutative, so the order of mul shows
    assert [square_and_multiply("ab", n, "", operator.add) for n in range(4)] == \
        ["", "ab", "abab", "ababab"]


@pytest.mark.parametrize("group, a", GROUP_ELEMENTS)
def test_group_power_is_repeated_multiplication(group, a):
    assert group.power(a, 0) == group.identity
    for n in range(9):
        assert group.power(a, n) == reduce(group.multiply, [a] * n, group.identity)


@pytest.mark.parametrize("group, a", GROUP_ELEMENTS)
def test_negative_group_power_inverts(group, a):
    for n in range(1, 9):
        assert group.power(a, -n) == group.power(group.inverse(a), n)
        assert group.multiply(group.power(a, -n), group.power(a, n)) == group.identity


@pytest.mark.parametrize("x", RING_ELEMENTS)
def test_ring_power_is_repeated_multiplication(x):
    one = x ** 0
    assert one == 1 and type(one) is type(x)
    for n in range(9):
        assert x ** n == reduce(operator.mul, [x] * n, one)


@pytest.mark.parametrize("x, message", [
    (RING_ELEMENTS[0], "negative powers are not ring operations here"),
    (RING_ELEMENTS[1], "negative polynomial powers"),
    (RING_ELEMENTS[2], "negative polynomial powers"),
])
def test_negative_ring_powers_are_refused(x, message):
    with pytest.raises(ValidationError) as err:
        x ** -1
    assert str(err.value) == message
