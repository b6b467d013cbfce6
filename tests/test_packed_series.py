"""P's series by one packed Taylor shift against the per-term binomial sums.

LaurentDeterminant.series reads f = P(1+T) (1+T)^(-K) through T^cap off one
Horner pass and one product of integers packed at T = 2^W, in signed base-2^W
digits.  The oracle is the route it replaced: sum c (1+T)^(d-K) over the terms
c u^d of P, one exact binomial row per term (_binomial_sum).
"""

from math import comb

from hypothesis import HealthCheck, given, settings, strategies as st

from giwa.iwasawa import LaurentDeterminant, _binomial_sum
from giwa.series import binomial_coefficients

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def per_term_series(ld, cap):
    """The series one exact binomial row per term of P."""
    terms = ((d - ld.shift, c) for d, c in enumerate(ld.coeffs) if c)
    return _binomial_sum(terms, lambda a: binomial_coefficients(a, cap), [0] * (cap + 1))


@st.composite
def laurent_determinants(draw):
    """P of degree 0..40 with coefficients up to 2^256 in magnitude, often
    zero, P = 0 among them; K in {0, deg/2, deg}."""
    deg = draw(st.integers(0, 40))
    big = st.integers(0, 256).flatmap(lambda b: st.integers(-2 ** b, 2 ** b))
    coeffs = draw(st.lists(st.one_of(st.just(0), big), min_size=deg + 1, max_size=deg + 1))
    shift = draw(st.sampled_from([0, deg // 2, deg]))
    return LaurentDeterminant(coeffs=tuple(coeffs), shift=shift)


@SETTINGS
@given(laurent_determinants(), st.data())
def test_packed_series_matches_the_per_term_sums(ld, data):
    deg = len(ld.coeffs) - 1
    cap = data.draw(st.sampled_from([0, 1, deg, deg + 5, 100]))
    assert list(ld.series(cap).coeffs) == per_term_series(ld, cap)


def test_zero_and_constant_p():
    assert LaurentDeterminant(coeffs=(0, 0, 0), shift=1).series(5).coeffs == (0,) * 6
    assert LaurentDeterminant(coeffs=(-7,), shift=0).series(3).coeffs == (-7, 0, 0, 0)


def test_a_term_at_u_to_the_minus_k_reaches_the_width_bound():
    # f = c (1+T)^(-K): |f_cap| = |c| binom(K + cap - 1, cap), the bound itself
    shift, cap = 7, 12
    c = (-1) ** cap * (2 ** 200 + 1)
    got = LaurentDeterminant(coeffs=(c,), shift=shift).series(cap).coeffs
    assert got[cap] == abs(c) * comb(shift + cap - 1, cap)
    assert list(got) == per_term_series(LaurentDeterminant(coeffs=(c,), shift=shift), cap)


def test_a_term_at_u_to_the_deg_minus_k_reaches_the_width_bound():
    # f = c (1+T)^h with h = deg - K: f_k = c binom(h, k), largest at k = min(cap, h//2)
    deg, shift, cap = 40, 3, 10
    c = 3 ** 150
    ld = LaurentDeterminant(coeffs=(0,) * deg + (c,), shift=shift)
    got = ld.series(cap).coeffs
    assert got[cap] == c * comb(deg - shift, cap)
    assert list(got) == per_term_series(ld, cap)
