"""Golden renderings of Poly and TruncatedPowerSeries over every coefficient ring.

Both classes print through one term renderer; these strings pin what it
prints, and which coefficients it counts as zero, for int, PadicTruncated
(a residue of 0 or of ell^N included) and CyclotomicElement coefficients.
"""

import pytest

from giwa.cyclotomic import CyclotomicElement
from giwa.polys import Poly
from giwa.series import PadicTruncated, TruncatedPowerSeries

Z3 = CyclotomicElement.zeta(3)
Z9 = CyclotomicElement.zeta(9)
C0 = CyclotomicElement.from_int(9, 0)


def p(v):
    return PadicTruncated(3, 4, v)


POLYS = [
    (Poly([0]), "u", "0", -1),
    (Poly([3, 0, -2, 5, 0]), "u", "3 + -2*u^2 + 5*u^3", 3),
    (Poly([0, 1, 0, -1]), "x", "1*x + -1*x^3", 3),
    (Poly([Z3, 0, CyclotomicElement.from_int(3, 0), 2 - 3 * Z3]), "u",
     "z3 + 2 + -3*z3*u^3", 3),
    (Poly([C0, 7 * Z9 ** 4 - 1, C0]), "u", "-1 + 7*z9^4*u", 1),
    (Poly([C0, C0]), "u", "0", -1),
    (Poly([p(10), p(81), p(-2), p(0)]), "u",
     "10 (mod 3^4) + 79 (mod 3^4)*u^2", 2),
    (Poly([p(0)]), "v", "0", -1),
]

SERIES = [
    (TruncatedPowerSeries.zero(3), "T", "0 + O(T^4)", True),
    (TruncatedPowerSeries([1, 0, -2, 0, 5]), "T", "1 + -2*T^2 + 5*T^4 + O(T^5)", False),
    (TruncatedPowerSeries([0, p(0), p(7), p(81), p(-1)]), "T",
     "7 (mod 3^4)*T^2 + 80 (mod 3^4)*T^4 + O(T^5)", False),
    (TruncatedPowerSeries([p(0), p(0)]), "x", "0 + O(x^2)", True),
    (TruncatedPowerSeries([Z9 - 1, C0, 3, (Z9 - 1) ** 2]), "T",
     "-1 + z9 + 3*T^2 + 1 + -2*z9 + z9^2*T^3 + O(T^4)", False),
    (TruncatedPowerSeries([C0, C0, C0]), "T", "0 + O(T^3)", True),
]


@pytest.mark.parametrize("poly, var, text, degree", POLYS)
def test_poly_render(poly, var, text, degree):
    assert poly.render(var) == text
    assert repr(poly) == poly.render()
    assert poly.degree == degree


@pytest.mark.parametrize("series, var, text, zero", SERIES)
def test_series_render(series, var, text, zero):
    assert series.render(var) == text
    assert repr(series) == series.render()
    assert series.is_zero() is zero
