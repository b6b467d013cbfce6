"""The shift-and-mask Kronecker digit readers against binary-string readers.

The oracles below read q's base-2^width digits off format(q, 'b') strings;
every P, its series, every twisted h and kronecker_norm go through the
readers under test.
"""

import pytest
from hypothesis import given, settings, strategies as st

from giwa import GiwaError
from giwa.iwasawa import _palindromic_digits, _signed_digits


def string_signed_digits(q, width, count):
    n = width * count
    bits = format((q + int(("1" + "0" * (width - 1)) * count, 2)) & ((1 << n) - 1), f"0{n}b")
    return [int(bits[k - width:k], 2) - (1 << (width - 1)) for k in range(n, 0, -width)]


def string_digits(q, width, count):
    n = width * count
    bits = format(q & ((1 << n) - 1), f"0{n}b")
    return [int(bits[k - width:k], 2) for k in range(n, 0, -width)]


def widths_and_counts():
    return st.tuples(st.one_of(st.integers(2, 80), st.integers(81, 1100)),
                     st.integers(1, 300)).filter(lambda wc: wc[0] * wc[1] <= 60_000)


@settings(max_examples=300, deadline=None)
@given(widths_and_counts(), st.data())
def test_signed_digits_match_the_string_reader(wc, data):
    width, count = wc
    n = width * count
    q = data.draw(st.one_of(st.integers(-(1 << n + 3), 1 << n + 3),
                            st.integers(-2 ** 64, 2 ** 64),
                            st.sampled_from([0, -1, 1 << n - 1, -(1 << n - 1)])))
    assert _signed_digits(q, width, count) == string_signed_digits(q, width, count)


@settings(max_examples=300, deadline=None)
@given(widths_and_counts(), st.data())
def test_signed_digits_give_back_what_they_read(wc, data):
    width, count = wc
    half = 1 << width - 1
    coeffs = data.draw(st.lists(st.integers(-half, half - 1), min_size=count, max_size=count))
    q = sum(c << width * k for k, c in enumerate(coeffs))
    assert _signed_digits(q, width, count) == coeffs


def string_palindromic_digits(q, h, width, bound):
    """The palindromic reader as it read its digits off a binary string."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    digits = string_digits(q, width, 2 * h + 1)
    coeffs = [0] * (2 * h + 1)
    carry, top = 0, q >> width * 2 * h
    for k in range(h + 1):
        low = (digits[k] - carry) & mask
        c = top - ((top - low + half) & mask) + half
        coeffs[k] = coeffs[2 * h - k] = c
        top -= c
        if k < h:
            carry = (carry + c - digits[k]) >> width
            top = (top << width) + digits[2 * h - k - 1]
    if top != carry or any(abs(c) >= bound for c in coeffs):
        raise GiwaError("Kronecker digits do not read back as a bounded palindrome")
    return coeffs


def outcome(read, *args):
    try:
        return read(*args)
    except GiwaError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 1100), st.integers(0, 40), st.data())
def test_palindromic_digits_match_the_string_reader(width, h, data):
    X = 1 << width
    bound = data.draw(st.sampled_from([max(1, X * X // 16), X, 2, 1 << 2 * width]))
    c = min(bound - 1, X * X // 16)
    half = data.draw(st.lists(st.integers(-c, c), min_size=h + 1, max_size=h + 1))
    q = sum(a * X ** j for j, a in enumerate(half + half[-2::-1]))
    # a bounded palindrome, the same plus noise, and any signed integer
    for candidate in (q, q + data.draw(st.integers(-X ** (h + 1), X ** (h + 1))),
                      data.draw(st.integers(-X ** (2 * h + 2), X ** (2 * h + 2)))):
        assert outcome(_palindromic_digits, candidate, h, width, bound) == \
            outcome(string_palindromic_digits, candidate, h, width, bound)
    if bound >= X * X // 16:
        assert _palindromic_digits(q, h, width, bound) == half + half[-2::-1]


@pytest.mark.parametrize("q", [2 ** 16 * (1 + 2 ** 20), 2 ** 26, 2 ** 40, -(2 ** 40)])
def test_palindromic_digits_refuse_what_is_no_bounded_palindrome(q):
    # X = 2^10: [2^16, 0, 2^16] and [0, 2^16, 0] are past the bound 2^16, and
    # +-X^4 is c_0 + c_1 X + c_0 X^2 with no |c_j| < 2^16
    with pytest.raises(GiwaError):
        _palindromic_digits(q, 1, 10, 2 ** 16)
