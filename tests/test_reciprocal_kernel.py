"""The half-width read of self-reciprocal Kronecker determinants.

When entry (j, i)(u) = entry (i, j)(1/u), as for a tower's D - A_rho,
kronecker_determinant evaluates at u = 2^b with 4^b > 16 H and reads the
palindromic P from both ends of the window [lo, 2K - lo]; otherwise it
evaluates at u = 2^B.  The oracle is Bareiss at u = 0, 1, ..., D and Newton
interpolation through the values.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import giwa.graphs as graphs
import giwa.iwasawa as iwasawa
from giwa import (GiwaError, PadicTruncated, UnsupportedError, ValidationError,
                  bareiss_determinant, bouquet, build_multigraph,
                  characteristic_series, iwasawa_invariants, kappa_ord_sequence,
                  kida_verify, product, cyclic, tower)
from giwa.iwasawa import (_laurent_determinant, _laurent_matrix, _palindromic_digits,
                          kronecker_determinant, lambda_mod_ell)
from giwa.polys import interpolate_at_integers
from test_laurent_kernel import SETTINGS, interpolated_p, towers


def mirror(d):
    return {-e: c for e, c in d.items()}


def self_reciprocal(d):
    """d's terms at exponents >= 0, mirrored to the negative ones."""
    d = {e: c for e, c in d.items() if e >= 0}
    return {**mirror(d), **d}


def shifts_and_degree(ent):
    """Row i times u^(shift_i) is polynomial, of degree at most its span; an
    empty entry counts as exponent 0, as in the kernel."""
    spans = [[e for d in row for e in (d or [0])] for row in ent]
    shifts = [-min(span) for span in spans]
    return shifts, sum(max(span) + s for span, s in zip(spans, shifts))


def evaluated(ent, x):
    """The row-shifted matrix at u = x."""
    shifts, _ = shifts_and_degree(ent)
    return [[sum(c * x ** (e + s) for e, c in d.items()) for d in row]
            for row, s in zip(ent, shifts)]


def oracle(ent):
    """(P's coefficients, K) by Bareiss at u = 0..D and Newton interpolation."""
    shifts, degree = shifts_and_degree(ent)
    values = [bareiss_determinant(evaluated(ent, x)) for x in range(degree + 1)]
    return tuple(interpolate_at_integers(values)), sum(shifts)


def hadamard_square(ent):
    h2 = 1
    for row in ent:
        h2 *= sum(sum(map(abs, d.values())) ** 2 for d in row)
    return h2


def least_half_width(ent):
    """The least b with 4^b > 16 H, H = sqrt(hadamard_square)."""
    h2, b = hadamard_square(ent), 0
    while 16 ** b <= 256 * h2:
        b += 1
    return b


def kernel(ent):
    """(kronecker_determinant(ent), took the palindromic read)."""
    with mock.patch.object(iwasawa, "_palindromic_digits",
                           wraps=iwasawa._palindromic_digits) as read:
        got = kronecker_determinant(ent)
    return got, read.called


def bareiss_inputs(monkeypatch):
    seen = []
    real = iwasawa.bareiss_determinant

    def recording(M):
        seen.append([list(row) for row in M])
        return real(M)

    monkeypatch.setattr(iwasawa, "bareiss_determinant", recording)
    return seen


def padded(coeffs, shift):
    """P's coefficients at u^0 .. u^2K."""
    assert len(coeffs) <= 2 * shift + 1
    return list(coeffs) + [0] * (2 * shift + 1 - len(coeffs))


@st.composite
def laurent_matrices(draw, kind):
    """g x g integer Laurent matrices, g <= 4, exponents in [-4, 4]:
    "mirrored" ones with entry (j, i) = entry (i, j)(1/u), which are not
    Laplacians, "perturbed" ones with one mirrored coefficient changed, and
    "free" ones with every entry drawn on its own."""
    g = draw(st.integers(1, 4))
    big = draw(st.sampled_from([9, 2 ** 40]))
    term = st.dictionaries(st.integers(-4, 4), st.integers(-big, big), max_size=3)
    if kind == "free":
        return [[draw(term) for _ in range(g)] for _ in range(g)]
    ent = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1):
            d = draw(term)
            if i == j:
                d = self_reciprocal(d)
            ent[i][j], ent[j][i] = d, mirror(d)
    if kind == "perturbed":
        i, j = draw(st.integers(0, g - 1)), draw(st.integers(0, g - 1))
        e = draw(st.integers(-4, 4).filter(lambda e: i != j or e != 0))
        ent[i][j] = {**ent[i][j], e: ent[i][j].get(e, 0) + draw(st.sampled_from([-1, 1, 7]))}
    return ent


class TestAgainstInterpolation:
    @SETTINGS
    @given(laurent_matrices("mirrored"))
    def test_mirrored_matrices_take_the_palindromic_read(self, ent):
        (coeffs, shift), palindromic = kernel(ent)
        assert palindromic
        assert (coeffs, shift) == oracle(ent)
        c = padded(coeffs, shift)
        assert c == c[::-1]

    @SETTINGS
    @given(laurent_matrices("perturbed"))
    def test_perturbed_matrices_keep_the_full_width(self, ent):
        got, palindromic = kernel(ent)
        assert not palindromic
        assert got == oracle(ent)

    @SETTINGS
    @given(laurent_matrices("free"))
    def test_free_matrices(self, ent):
        got, _ = kernel(ent)
        assert got == oracle(ent)


class TestTowers:
    @SETTINGS
    @given(towers(), st.one_of(st.none(), st.integers(1, 3)))
    def test_p_is_palindromic_and_vanishes_at_one(self, t, n):
        with mock.patch.object(iwasawa, "_palindromic_digits",
                               wraps=iwasawa._palindromic_digits) as read:
            ld = _laurent_determinant(t, n)
        assert read.called
        c = padded(ld.coeffs, ld.shift)
        assert c == c[::-1]
        assert sum(ld.coeffs) == 0

    def test_half_width_is_the_least_the_margin_allows(self, monkeypatch):
        t = tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 20})
        ent = _laurent_matrix(t, t.values)
        seen = bareiss_inputs(monkeypatch)
        _laurent_determinant(t)
        b = least_half_width(ent)
        assert seen == [evaluated(ent, 2 ** b)]

    def test_other_matrices_keep_the_full_width(self, monkeypatch):
        ent = [[{0: 2, 1: -1}, {1: -1}], [{-1: -1}, {0: 2, -1: -1}]]
        seen = bareiss_inputs(monkeypatch)
        kronecker_determinant(ent)
        assert seen == [evaluated(ent, 2 ** iwasawa._slot_bits(ent))]


def triangle(alpha):
    """Edges a -> b, a -> c and b -> c with voltages alpha, and a loop of
    voltage 0 at a, which leaves every row's exponents alone; ell = 3."""
    g = build_multigraph(["a", "b", "c"], [("a", "b", "s1"), ("a", "c", "s2"),
                                           ("b", "c", "s3"), ("a", "a", "s4")])
    return tower(g, 3, dict(zip(("s1", "s2", "s3", "s4"), alpha + (0,))))


def window(ent):
    """(2K - D, K - lo): how far the palindrome's centre pushes its window
    past u^0, and the half-length of the window [lo, 2K - lo]."""
    shifts, degree = shifts_and_degree(ent)
    k = sum(shifts)
    return 2 * k - degree, k - max(0, 2 * k - degree)


class TestWindow:
    @pytest.mark.parametrize("alpha, excess", [((5, 1, 0), 1), ((-5, -1, 0), -1),
                                               ((7, 2, -1), 1), ((-7, -2, 1), -1)])
    def test_window_past_either_end(self, alpha, excess):
        t = triangle(alpha)
        ent = _laurent_matrix(t, t.values)
        assert (window(ent)[0] > 0) == (excess > 0) and window(ent)[0] != 0
        got, palindromic = kernel(ent)
        assert palindromic
        assert got == oracle(ent)
        assert _laurent_determinant(t) == interpolated_p(t)

    @pytest.mark.parametrize("alpha, parity", [((2, 3, 0), 1), ((2, 3, 1), 0),
                                               ((1, 1, 1), 0), ((3, 0, 0), 1)])
    def test_half_window_parity(self, alpha, parity):
        t = triangle(alpha)
        ent = _laurent_matrix(t, t.values)
        assert window(ent)[1] % 2 == parity
        assert kernel(ent) == (oracle(ent), True)

    def test_zero_determinant(self):
        d = {-2: 3, 1: -5}
        ent = [[{-1: 1, 1: 1}, d, d], [mirror(d), {0: 4}, {0: 4}], [mirror(d), {0: 4}, {0: 4}]]
        assert window(ent)[0] != 0
        (coeffs, shift), palindromic = kernel(ent)
        assert palindromic
        assert (coeffs, shift) == oracle(ent) == ((0,), shift)

    def test_entries_wider_than_the_two_adic_cutoff(self, monkeypatch):
        rng = random.Random(5)
        g = 4
        ent = [[None] * g for _ in range(g)]
        for i in range(g):
            for j in range(i + 1):
                d = {e: rng.getrandbits(1200) - (1 << 1199) for e in rng.sample(range(-3, 4), 3)}
                if i == j:
                    d = self_reciprocal(d)
                ent[i][j], ent[j][i] = d, mirror(d)
        widths = []
        real = graphs._exact_divider

        def counting(d):
            widths.append(d.bit_length())
            return real(d)

        monkeypatch.setattr(graphs, "_exact_divider", counting)
        got, palindromic = kernel(ent)
        assert palindromic and widths
        assert all(w > graphs._TWO_ADIC_CUTOFF for w in widths)
        assert got == oracle(ent)


class TestPalindromicDigits:
    X = 2 ** 10

    def evaluate(self, coeffs):
        return sum(c * self.X ** j for j, c in enumerate(coeffs))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2 ** 16) + 1, 2 ** 16 - 1), min_size=1, max_size=6))
    def test_reads_every_palindrome_within_the_margin(self, half):
        coeffs = half + half[-2::-1]
        # X^2 = 2^20 = 16 * 2^16
        assert _palindromic_digits(self.evaluate(coeffs), len(half) - 1, 10, 2 ** 16) == coeffs

    def test_bound_check_refuses_a_palindrome_past_the_bound(self):
        q = self.evaluate([2 ** 17, 3, 2 ** 17])
        assert _palindromic_digits(q, 1, 10, 2 ** 18) == [2 ** 17, 3, 2 ** 17]
        with pytest.raises(GiwaError):
            _palindromic_digits(q, 1, 10, 2 ** 16)

    def test_remainder_check_catches_a_misread(self):
        # c_0 = X^2 is past the margin: the read takes c_1 = X + 5, and only
        # the remainders, not the bound, tell
        q = self.evaluate([self.X ** 2, 5, self.X ** 2])
        with pytest.raises(GiwaError):
            _palindromic_digits(q, 1, 10, 2 ** 100)

    @pytest.mark.parametrize("t", [tower(bouquet(3), 3, {"s1": 1, "s2": 4, "s3": 20}),
                                   triangle((5, 1, 0)), triangle((-7, -2, 1))])
    def test_narrow_width_never_reads_a_wrong_p(self, t):
        # below the margin X^2 >= 16 bound, the checks still leave only the
        # true P while X (X - 1) >= 2 bound
        ent = _laurent_matrix(t, t.values)
        right = padded(*oracle(ent))
        shift = len(right) // 2
        lo = max(0, window(ent)[0])
        bound = 1 << (iwasawa._slot_bits(ent) - 2)
        read = 0
        for width in range(2, least_half_width(ent) + 1):
            X = 2 ** width
            det = bareiss_determinant(evaluated(ent, X))
            if X * (X - 1) < 2 * bound or det % X ** lo:
                continue
            try:
                got = _palindromic_digits(det // X ** lo, shift - lo, width, bound)
            except GiwaError:
                continue
            assert got == right[lo:2 * shift + 1 - lo], width
            read += 1
        assert read


class TestVoltageTypes:
    ENTRY_POINTS = {
        "iwasawa_invariants": iwasawa_invariants,
        "kappa_ord_sequence": lambda t: kappa_ord_sequence(t, 2),
        "characteristic_series": characteristic_series,
        "lambda_mod_ell": lambda t: lambda_mod_ell(t, 8),
        "kida_verify": lambda t: kida_verify(t, {"s1": (1, 0), "s2": (0, 1)},
                                             product(cyclic(3), cyclic(3))),
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("voltage", [Fraction(1, 2), 0.5])
    def test_refused_at_every_entry_point(self, name, voltage):
        kind = type(voltage).__name__
        with pytest.raises(UnsupportedError, match=f"^unsupported exponent type {kind}$"):
            self.ENTRY_POINTS[name](tower(bouquet(2), 3, {"s1": voltage, "s2": 1}))

    def test_mixed_primes_refused(self):
        with pytest.raises(ValidationError, match="mixed primes"):
            tower(bouquet(2), 3, {"s1": PadicTruncated(5, 4, 2), "s2": 1})
