"""Exact division in Poly, which runs on cyclotomic._poly_divmod_exact."""

import pytest

from giwa.cyclotomic import CyclotomicElement
from giwa.errors import ValidationError
from giwa.polys import Poly


def test_exact_quotient():
    a, b = Poly([3, -1, 0, 2]), Poly([-2, 5, 1])
    assert (a * b).divexact(b) == a
    assert (a * b).divexact(a) == b
    assert Poly([-6, 4]).divexact(Poly([2])) == Poly([-3, 2])
    assert Poly([0]).divexact(b) == Poly([0])
    # 1 - u^2 = (1 - u)(1 + u), the division behind the Ihara zeta of a tree
    assert Poly([1, 0, -1]).divexact(Poly([1, 1])) == Poly([1, -1])


@pytest.mark.parametrize("num, den, message", [
    (Poly([1, 2]), Poly([0]), "division by zero polynomial"),
    (Poly([CyclotomicElement.zeta(3), 1]), Poly([1, 1]),
     "exact division only over the integers"),
    (Poly([1, 2]), Poly([1, CyclotomicElement.zeta(3)]),
     "exact division only over the integers"),
    (Poly([1, 0, 1]), Poly([1, 1]), "non-exact polynomial division"),
    (Poly([1, 3]), Poly([1, 2]), "non-exact polynomial division"),
    (Poly([1, 2]), Poly([1, 2, 3]), "non-exact polynomial division"),
])
def test_refusals(num, den, message):
    with pytest.raises(ValidationError, match=message):
        num.divexact(den)
