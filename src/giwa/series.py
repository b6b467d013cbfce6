"""Truncated power series over exact coefficient rings.

Coefficients may be Python ints (exact integers), PadicTruncated residues
(known mod ell^N), or CyclotomicElement values.  All arithmetic is exact
through the degree cap; multiplication truncates.  The determinants here are
division-free (Berkowitz) because series rings have non-unit constant terms:
one recursion, _berkowitz, runs ring_determinant over any of these
coefficient rings, and truncated_determinant over (Z/ell^N)[T]/(T^(cap+1))
with every series held as a list of residues and multiplied as one packed
integer.  Over the field F_ell no division-free method is needed:
truncated_valuation finds the T-adic valuation of a determinant mod
(ell, T^(cap+1)) by elimination, on series packed in bit-granular slots
(_PackedModEll), a matrix that iwasawa.lambda_mod_ell assembles packed.
The series (1+T)^a has one kernel, binomial_coefficients; its residues mod
ell^N (binomial_residues) and mod ell (binomial_mod_ell) are reductions of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cyclotomic import CyclotomicElement, euler_phi, render_terms
from .errors import PrecisionError, UnsupportedError, ValidationError
from .numtheory import is_prime, ord_factorial, ord_int, prime_divisors, prime_power_exponent


class PadicTruncated:
    """An ell-adic integer known modulo ell^N."""

    __slots__ = ("ell", "precision", "value")

    def __init__(self, ell: int, precision: int, value: int):
        if precision < 1:
            raise ValidationError("precision exponent must be >= 1")
        self.ell = ell
        self.precision = precision
        self.value = value % (ell ** precision)

    def _coerce(self, other):
        if isinstance(other, PadicTruncated):
            if other.ell != self.ell:
                raise ValidationError("mixed primes in p-adic arithmetic")
            n = min(self.precision, other.precision)
            return PadicTruncated(self.ell, n, self.value), \
                PadicTruncated(self.ell, n, other.value)
        if isinstance(other, int):
            return self, PadicTruncated(self.ell, self.precision, other)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return PadicTruncated(a.ell, a.precision, a.value + b.value)

    __radd__ = __add__

    def __neg__(self):
        return PadicTruncated(self.ell, self.precision, -self.value)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return PadicTruncated(a.ell, a.precision, a.value - b.value)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return PadicTruncated(a.ell, a.precision, a.value * b.value)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicTruncated(self.ell, self.precision, other)
        if not isinstance(other, PadicTruncated):
            return NotImplemented
        n = min(self.precision, other.precision)
        return self.ell == other.ell and \
            self.value % self.ell ** n == other.value % self.ell ** n

    def __hash__(self):
        # equality compares residues at the weaker precision, so only the
        # mod-ell class is stable enough to hash on
        return hash((self.ell, self.value % self.ell))

    def __repr__(self):
        return f"{self.value} (mod {self.ell}^{self.precision})"

    def ord(self) -> int | None:
        """Valuation, or None meaning 'at least the precision exponent'."""
        if self.value == 0:
            return None
        return ord_int(self.value, self.ell)

    def is_unit(self) -> bool:
        return self.value % self.ell != 0

    def inverse(self) -> "PadicTruncated":
        if not self.is_unit():
            raise ValidationError("inverse of a non-unit p-adic residue")
        mod = self.ell ** self.precision
        return PadicTruncated(self.ell, self.precision, pow(self.value, -1, mod))


class TruncatedPowerSeries:
    """Polynomial truncation a_0 + a_1 T + ... + a_cap T^cap of a power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValidationError("series needs at least the constant term")
        self.coeffs = coeffs

    @property
    def cap(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def one(cap: int) -> "TruncatedPowerSeries":
        return TruncatedPowerSeries([1] + [0] * cap)

    @staticmethod
    def zero(cap: int) -> "TruncatedPowerSeries":
        return TruncatedPowerSeries([0] * (cap + 1))

    def _binary(self, other, op):
        if isinstance(other, TruncatedPowerSeries):
            n = min(self.cap, other.cap)
            return TruncatedPowerSeries(
                [op(a, b) for a, b in zip(self.coeffs[:n + 1], other.coeffs[:n + 1])])
        if isinstance(other, (int, PadicTruncated, CyclotomicElement)):
            c = list(self.coeffs)
            c[0] = op(c[0], other)
            return TruncatedPowerSeries(c)
        return None

    def __add__(self, other):
        out = self._binary(other, lambda a, b: a + b)
        return NotImplemented if out is None else out

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPowerSeries([-a for a in self.coeffs])

    def __sub__(self, other):
        out = self._binary(other, lambda a, b: a - b)
        return NotImplemented if out is None else out

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, PadicTruncated, CyclotomicElement)):
            return TruncatedPowerSeries([a * other for a in self.coeffs])
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        n = min(self.cap, other.cap)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if isinstance(a, int) and a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return TruncatedPowerSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        n = min(self.cap, other.cap)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(n + 1))

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def inverse(self) -> "TruncatedPowerSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        a0 = self.coeffs[0]
        if isinstance(a0, int):
            if a0 not in (1, -1):
                raise ValidationError("constant term is not a unit integer")
            b0 = a0
        elif isinstance(a0, PadicTruncated):
            b0 = a0.inverse()
        else:
            raise UnsupportedError("inverse implemented for integer and p-adic coefficients")
        out = [b0] + [0] * self.cap
        for k in range(1, self.cap + 1):
            acc = 0
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out[k] = -(b0 * acc) if isinstance(a0, int) else -(acc * b0)
        return TruncatedPowerSeries(out)

    def render(self, var: str = "T") -> str:
        return f"{render_terms(self.coeffs, var)} + O({var}^{self.cap + 1})"

    def to_json(self) -> dict:
        """Coefficient array plus ring metadata, JSON-serializable."""
        c0 = next((c for c in self.coeffs if not isinstance(c, int)), None)
        if c0 is None:
            ring = {"kind": "integer"}
            coeffs = list(self.coeffs)
        elif isinstance(c0, PadicTruncated):
            ring = {"kind": "padic", "ell": c0.ell, "precision": c0.precision}
            coeffs = [c.value if isinstance(c, PadicTruncated) else c
                      for c in self.coeffs]
        else:
            ring = {"kind": "cyclotomic", "conductor": c0.m}
            coeffs = [list(c.coords) if isinstance(c, CyclotomicElement) else c
                      for c in self.coeffs]
        return {"ring": ring, "cap": self.cap, "coefficients": coeffs}

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# The binomial series (1 + T)^a


def binomial_coefficients(a: int, cap: int) -> list:
    """Exact integer coefficients of (1+T)^a through degree cap, any integer a."""
    out = [1]
    c = 1
    for k in range(1, cap + 1):
        c = c * (a - k + 1) // k
        out.append(c)
    return out


def binomial_digits(ell: int, precision: int, cap: int) -> int:
    """N = precision - ord_ell(cap!): the digits mod which a voltage known mod
    ell^precision fixes (1+T)^a through T^cap.

    binom(a, k) is an integer polynomial in a divided by k!, so it is fixed
    mod ell^(precision - ord_ell(k!)); ord_ell(cap!) guard digits of the
    input are consumed.  PrecisionError when none are left.
    """
    guard = ord_factorial(cap, ell)
    if precision - guard < 1:
        raise PrecisionError(
            f"voltage precision {precision} leaves no digits after the ord({cap}!) = "
            f"{guard} guard; raise the precision or lower the cap")
    return precision - guard


def binomial_residues(a: "PadicTruncated", cap: int) -> tuple:
    """(N, [c_0, ..., c_cap]): the coefficients of (1+T)^a for a known mod
    ell^P, as the binomials of its integer representative mod ell^N,
    N = binomial_digits(ell, P, cap)."""
    n_out = binomial_digits(a.ell, a.precision, cap)
    mod = a.ell ** n_out
    return n_out, [c % mod for c in binomial_coefficients(a.value, cap)]


def binomial_mod_ell(a, ell: int, cap: int) -> list:
    """Coefficients of (1+T)^a mod ell through degree cap, for an int or a
    PadicTruncated a.

    (1+T)^(ell^L) = 1 + T^(ell^L) mod ell, so for ell^L > cap the series
    depends only on a mod ell^L: it is binomial_coefficients(a mod ell^L)
    reduced mod ell.  A voltage known mod ell^P therefore fixes it for
    cap < ell^P.
    """
    if isinstance(a, PadicTruncated):
        if ell ** a.precision <= cap:
            raise PrecisionError(
                f"voltage known mod {ell}^{a.precision} fixes (1+T)^a mod {ell} "
                f"only below T^{ell ** a.precision}, not through T^{cap}")
        a = a.value
    period = 1
    while period <= cap:
        period *= ell
    return [c % ell for c in binomial_coefficients(a % period, cap)]


def binomial_series(a, cap: int) -> TruncatedPowerSeries:
    """The series (1+T)^a.

    For integer a the coefficients are exact integers (negative a gives the
    alternating binomials).  For a known only mod ell^P the coefficients come
    back at precision P - ord_ell(cap!) (see binomial_digits).
    """
    if isinstance(a, int):
        return TruncatedPowerSeries(binomial_coefficients(a, cap))
    if not isinstance(a, PadicTruncated):
        raise UnsupportedError(f"unsupported exponent type {type(a).__name__}")
    n_out, residues = binomial_residues(a, cap)
    return TruncatedPowerSeries([PadicTruncated(a.ell, n_out, c) for c in residues])


# ---------------------------------------------------------------------------
# mu / lambda of a series


def _coeff_ord(c, ell):
    if isinstance(c, int):
        return ord_int(c, ell), False
    if isinstance(c, PadicTruncated):
        return c.ord(), True
    if isinstance(c, CyclotomicElement):
        return c.ord_ell(ell), False
    raise UnsupportedError(f"no valuation for coefficient type {type(c).__name__}")


def mu_lambda(series: TruncatedPowerSeries, ell: int) -> tuple:
    """(mu, lambda) of a series: minimal coefficient valuation and first index attaining it.

    Raises PrecisionError when the truncation cannot certify the answer: the
    series vanishes identically through the cap, every mod-ell^N coefficient
    is indistinguishable from zero, or the minimum first occurs at the cap.
    """
    mu = None
    lam = None
    bounded_ring = False
    for k, c in enumerate(series.coeffs):
        v, bounded = _coeff_ord(c, ell)
        bounded_ring = bounded_ring or bounded
        if v is None:
            continue
        if mu is None or v < mu:
            mu, lam = v, k
    if mu is None:
        if bounded_ring:
            raise PrecisionError(
                f"all coefficients vanish mod the working precision through T^{series.cap}")
        raise PrecisionError(f"series is identically zero through T^{series.cap}")
    if lam == series.cap:
        raise PrecisionError(
            "minimal valuation first attained at the cap; increase the cap")
    return mu, lam


# ---------------------------------------------------------------------------
# Division-free determinant (Berkowitz)


def ring_determinant(matrix: Sequence[Sequence]) -> object:
    """Determinant over any commutative ring, without division (_berkowitz)."""
    n = len(matrix)
    if n == 0:
        return 1
    for row in matrix:
        if len(row) != n:
            raise ValidationError("determinant of a non-square matrix")
    return _berkowitz(matrix, _ring_dot, lambda x: -x)


def _ring_dot(xs, ys, negate=False):
    total = 0
    for x, y in zip(xs, ys):
        total = total + x * y
    return -total if negate else total


def _berkowitz(matrix: Sequence[Sequence], dot, neg) -> object:
    """det(matrix), n >= 1, by Berkowitz' method in a ring given by two
    callables: dot(xs, ys, negate=False), the sum of the products x * y,
    negated if asked, and neg(x) = -x.

    The characteristic polynomial vector of the leading r x r block is
    obtained from the (r-1) x (r-1) one by a Toeplitz product whose entries
    are -R M^k C for the border row R, column C and block M.
    """
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    # p holds charpoly coefficients of the leading block, highest power first
    p = [1, neg(matrix[0][0])]
    for r in range(2, n + 1):
        R = matrix[r - 1][:r - 1]
        w = [matrix[i][r - 1] for i in range(r - 1)]
        s = [1, neg(matrix[r - 1][r - 1]), dot(R, w, negate=True)]
        for _ in range(r - 2):
            w = [dot(matrix[i][:r - 1], w) for i in range(r - 1)]
            s.append(dot(R, w, negate=True))
        # after the last step only q[n], the determinant up to sign, is read
        q = [0] * (r + 1)
        for i in range(r + 1) if r < n else (n,):
            ks = range(max(0, i - r), min(i, r - 1) + 1)
            q[i] = dot([s[i - k] for k in ks], [p[k] for k in ks])
        p = q
    return neg(p[n]) if n % 2 else p[n]


def _check_series_matrix(matrix, cap: int) -> None:
    """ValidationError unless cap is an int >= 0 and matrix a square list of
    entries, each a sequence of cap + 1 ints."""
    if not isinstance(cap, int):
        raise ValidationError(f"cap must be an integer, got {cap!r}")
    if cap < 0:
        raise ValidationError("cap must be >= 0")
    if not isinstance(matrix, Sequence):
        raise ValidationError("determinant of a non-square matrix")
    for row in matrix:
        if not isinstance(row, Sequence) or len(row) != len(matrix):
            raise ValidationError("determinant of a non-square matrix")
        for e in row:
            if not isinstance(e, Sequence) or len(e) != cap + 1:
                raise ValidationError(f"series entries need {cap + 1} coefficients")
            if not all(isinstance(c, int) for c in e):
                raise ValidationError("series coefficients must be integers")


def truncated_determinant(matrix: Sequence[Sequence[Sequence[int]]], modulus: int,
                          cap: int) -> list:
    """Determinant over (Z/modulus)[T]/(T^(cap+1)), as cap + 1 residues.

    Each entry is a list of cap + 1 integers, read mod modulus.  The recursion
    is ring_determinant's, _berkowitz, but every series is one packed integer
    (Kronecker substitution): coefficient k fills slot k, of `width` bytes.
    Every sum the recursion forms has at most n products of reduced series, so
    its coefficients stay below n (cap + 1) (modulus - 1)^2 < 2^(8 width) and
    no slot carries into the next.  A sum is therefore multiplied and added
    packed, then unpacked and reduced mod modulus once per output entry.  That
    per-sum unpack and repack is the kernel's cost, not its products, so the
    slots stay whole bytes: _PackedModEll's bit-granular codec is slower there.
    """
    _check_series_matrix(matrix, cap)
    n = len(matrix)
    length = cap + 1
    if not isinstance(modulus, int):
        raise ValidationError(f"modulus must be an integer, got {modulus!r}")
    if modulus < 1:
        raise ValidationError(f"modulus must be >= 1, got {modulus}")
    if n == 0:
        return [1 % modulus] + [0] * cap
    width = (n * length * (modulus - 1) ** 2).bit_length() // 8 + 1
    span = width * length
    mask = (1 << 8 * span) - 1

    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs),
                              "little")

    def unpack(total):
        """The first cap + 1 slots; the higher ones hold only dropped terms."""
        raw = (total & mask).to_bytes(span, "little")
        return [int.from_bytes(raw[k:k + width], "little") for k in range(0, span, width)]

    def dot(xs, ys, negate=False):
        """sum x*y over the pairs, reduced (and negated if asked) and packed again."""
        sign = -1 if negate else 1
        total = sum(x * y for x, y in zip(xs, ys) if x and y)
        return pack([sign * c % modulus for c in unpack(total)])

    M = [[pack([c % modulus for c in e]) for e in row] for row in matrix]
    return unpack(_berkowitz(M, dot, lambda x: dot([1], [x], negate=True)))


class _PackedModEll:
    """Series over F_ell[T]/(T^(cap+1)), each one integer (Kronecker
    substitution): coefficient k fills slot k, of `bits` bits, a product is
    one big-int product, and reduce() takes every slot mod ell at once.

    The slots are bit-granular, sized by what the elimination (valuation)
    forms: a product cut at T^prec sums at most cap + 1 products of a residue
    with a slot of the other factor, which is a residue, at most ell in the
    negated multiplier ell - q, or ell + 1 in slot 0 of the Newton factor
    2 - w x; with the residue a row update adds, every slot stays below
    top = (cap + 1) ell (ell - 1) + ell.  Barrett's floor(y m / 2^shift) =
    floor(y / ell) is exact for y < 2^shift / ell, so shift = bit_length(top
    ell), m = ceil(2^shift / ell), and bits = bit_length(top m) keeps each
    slot of y m from carrying.
    """

    def __init__(self, ell: int, cap: int):
        self.ell, self.length = ell, cap + 1
        top = self.length * ell * (ell - 1) + ell
        self.shift = (top * ell).bit_length()
        self.m = -(-(1 << self.shift) // ell)
        self.bits = (top * self.m).bit_length()
        self.ones = ((1 << self.bits * self.length) - 1) // ((1 << self.bits) - 1)
        self.quotients = ((1 << self.bits - self.shift) - 1) * self.ones

    def pack(self, residues) -> int:
        """The series with coefficients residues, each in [0, ell)."""
        digits = {r: format(r, f"0{self.bits}b") for r in set(residues)}
        return int("".join(map(digits.__getitem__, reversed(residues))), 2)

    def reduce(self, y: int, prec: int) -> int:
        """The slots of y below T^prec, each reduced mod ell."""
        y &= (1 << self.bits * prec) - 1
        return y - self.ell * ((y * self.m >> self.shift) & self.quotients)

    def inverse(self, w: int, prec: int) -> int:
        """w^(-1) through T^(prec - 1) for a reduced unit w, by Newton
        doubling x -> x (2 - w x)."""
        x = pow(w & (1 << self.bits) - 1, -1, self.ell)
        known = 1
        while known < prec:
            known = min(2 * known, prec)
            # 2 - w x with every slot kept nonnegative: w x is 1 in slot 0
            x = self.reduce(x * (self.ell * self.ones + 2 - self.reduce(w * x, known)), known)
        return x

    def valuation(self, M: list) -> int | None:
        """truncated_valuation of the square matrix M of reduced packed
        series, eliminated in place."""
        ell, bits, shift, m, quotients = self.ell, self.bits, self.shift, self.m, self.quotients
        n, prec, total = len(M), self.length, 0
        for k in range(n):
            column = [(((M[i][k] & -M[i][k]).bit_length() - 1) // bits, i)
                      for i in range(k, n) if M[i][k]]
            if not column:
                return None
            v = min(column)[0]
            best = max((i for u, i in column if u == v), key=lambda i: M[i][k + 1:].count(0))
            M[k], M[best] = M[best], M[k]
            pivot = M[k]
            prec -= v
            if prec <= 0:
                return None
            total += v
            w_inv = self.inverse(pivot[k] >> bits * v, prec)
            mask = (1 << bits * prec) - 1
            ells = ell * self.ones & mask
            used = [(j, pivot[j] & mask) for j in range(k + 1, n) if pivot[j]]
            # Entries left alone keep slots at and above T^prec; those are never
            # read: products are cut at prec, and a pivot found only there has
            # v >= prec, which the check above refuses.
            for row in M[k + 1:]:
                if row[k]:
                    # -(a_ik / T^v) w^(-1) in every slot, as ell - q_j >= 0
                    neg = ells - self.reduce((row[k] >> bits * v & mask) * w_inv, prec)
                    for j, p in used:
                        y = (row[j] + neg * p) & mask      # reduce(), inlined
                        row[j] = y - ell * ((y * m >> shift) & quotients)
        return total


def truncated_valuation(matrix: Sequence[Sequence[Sequence[int]]], ell: int,
                        cap: int) -> int | None:
    """The T-adic valuation of det(matrix) over F_ell[T]/(T^(cap+1)), or None
    when the determinant vanishes there, so that its valuation is not known.

    Each entry is a list of cap + 1 integers, read mod ell.  F_ell[[T]] is a
    discrete valuation ring, so Gaussian elimination needs no division but
    by units: column k takes its least-valuation entry T^v w (w a unit,
    inverted once by Newton iteration) as pivot, and each row i below
    becomes row_i - (a_ik / T^v) w^(-1) row_k.  The quotient a_ik / T^v is
    known only through T^(prec - v - 1), so the rows below are too, and the
    precision left drops by v.  The determinant is the product of the
    pivots up to sign, so its valuation is the sum of the pivot valuations,
    certified as long as each pivot is nonzero at the precision left.  Of
    the rows tied at the least valuation, the pivot is the one with the
    fewest nonzeros right of column k, then the lowest index (Markowitz's
    rule, against fill-in).  Any least-valuation pivot gives the same
    answer: two differ by a unit, so the Schur complements differ by an
    invertible row operation.

    The entries are reduced and packed one integer each, in bit-granular
    slots that every sum formed keeps below (cap + 1) ell (ell - 1) + ell
    (_PackedModEll); iwasawa.lambda_mod_ell assembles its matrix packed.
    """
    _check_series_matrix(matrix, cap)
    if not isinstance(ell, int) or not is_prime(ell):
        raise ValidationError(f"ell must be a prime, got {ell}")
    packed = _PackedModEll(ell, cap)
    return packed.valuation([[packed.pack([c % ell for c in e]) for e in row]
                             for row in matrix])


def cofactor_determinant(matrix: Sequence[Sequence]) -> object:
    """Independent oracle: Laplace expansion along the first row (small n only)."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        entry = matrix[0][j]
        minor = [[matrix[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entry * cofactor_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# Evaluation at t_psi = psi(1) - 1


def evaluate_at_tpsi(series: TruncatedPowerSeries, conductor: int, power: int,
                     min_precision: Fraction | None = None) -> tuple:
    """Sum the series at t = zeta^power - 1 in Z[zeta_conductor].

    Returns (value, tail_bound) where tail_bound is a certified lower bound
    on ord_ell of the discarded tail (None when t = 0 and the value is exact).
    The conductor must be a prime power ell^n with n >= 1.
    """
    from .cyclotomic import t_psi as make_t

    if conductor < 2:
        raise UnsupportedError("conductor must be at least 2")
    ell = prime_divisors(conductor)[0]
    if prime_power_exponent(conductor, ell) is None:
        raise UnsupportedError(f"conductor {conductor} is not a prime power")

    power %= conductor
    if power == 0:
        c0 = series.coeffs[0]
        value = CyclotomicElement.from_int(conductor, c0) if isinstance(c0, int) else c0
        return value, None
    # exact order of zeta^power divides conductor; ord(t) = 1/phi(order)
    from math import gcd
    order = conductor // gcd(power, conductor)
    t_ord = Fraction(1, euler_phi(order))
    tail_bound = (series.cap + 1) * t_ord
    if min_precision is not None and tail_bound < min_precision:
        raise PrecisionError(
            f"cap {series.cap} certifies tail order {tail_bound} < required {min_precision}")
    t = make_t(conductor, power)
    value = CyclotomicElement.from_int(conductor, 0)
    for c in reversed(series.coeffs):
        value = value * t + c
    return value, tail_bound
