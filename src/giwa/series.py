"""Truncated power series over exact coefficient rings.

Coefficients may be Python ints (exact integers), PadicTruncated residues
(known mod ell^N), or CyclotomicElement values.  All arithmetic is exact
through the degree cap; multiplication truncates.  The determinants here are
division-free (Berkowitz) because series rings have non-unit constant terms:
ring_determinant over any of these coefficient rings, and
truncated_determinant over (Z/ell^N)[T]/(T^(cap+1)) with every series held as
a list of residues and multiplied as one packed integer.  Over the field
F_ell no division-free method is needed: truncated_valuation finds the
T-adic valuation of a determinant mod (ell, T^(cap+1)) by elimination.
The series (1+T)^a has one kernel, binomial_coefficients; its residues mod
ell^N (binomial_residues) and mod ell (binomial_mod_ell) are reductions of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cyclotomic import CyclotomicElement, euler_phi
from .errors import PrecisionError, UnsupportedError, ValidationError
from .numtheory import ord_factorial, ord_int, prime_divisors, prime_power_exponent


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
        return all(_coeff_is_zero(c) for c in self.coeffs)

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
        parts = []
        for k, c in enumerate(self.coeffs):
            if _coeff_is_zero(c):
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({var}^{self.cap + 1})"

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


def _coeff_is_zero(c) -> bool:
    if isinstance(c, int):
        return c == 0
    if isinstance(c, PadicTruncated):
        return c.value == 0
    if isinstance(c, CyclotomicElement):
        return not bool(c)
    return c == 0


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
    """Determinant over any commutative ring, without division.

    Berkowitz' method: the characteristic polynomial vector of the leading
    r x r block is obtained from the (r-1) x (r-1) one by a Toeplitz product
    whose entries are -R M^k C for the border row R, column C and block M.
    """
    n = len(matrix)
    if n == 0:
        return 1
    for row in matrix:
        if len(row) != n:
            raise ValidationError("determinant of a non-square matrix")
    if n == 1:
        return matrix[0][0]
    # p holds charpoly coefficients of the leading block, highest power first
    p = [1, -matrix[0][0]]
    for r in range(2, n + 1):
        a = matrix[r - 1][r - 1]
        R = matrix[r - 1][:r - 1]
        C = [matrix[i][r - 1] for i in range(r - 1)]
        s = [1, -a]
        w = list(C)
        dot = 0
        for i in range(r - 1):
            dot = dot + R[i] * w[i]
        s.append(-dot)
        for _ in range(r - 2):
            w2 = []
            for i in range(r - 1):
                acc = 0
                for j in range(r - 1):
                    acc = acc + matrix[i][j] * w[j]
                w2.append(acc)
            w = w2
            dot = 0
            for i in range(r - 1):
                dot = dot + R[i] * w[i]
            s.append(-dot)
        q = []
        for i in range(r + 1):
            acc = 0
            for k in range(max(0, i - len(s) + 1), min(i, r - 1) + 1):
                acc = acc + s[i - k] * p[k]
            q.append(acc)
        p = q
    det = p[n]
    return -det if n % 2 else det


def _check_series_matrix(matrix, length: int) -> None:
    for row in matrix:
        if len(row) != len(matrix):
            raise ValidationError("determinant of a non-square matrix")
        if any(len(e) != length for e in row):
            raise ValidationError(f"series entries need {length} coefficients")


def truncated_determinant(matrix: Sequence[Sequence[Sequence[int]]], modulus: int,
                          cap: int) -> list:
    """Determinant over (Z/modulus)[T]/(T^(cap+1)), as cap + 1 residues.

    Each entry is a list of cap + 1 integers, read mod modulus.  The recursion
    is ring_determinant's, but every series is one packed integer (Kronecker
    substitution): coefficient k fills slot k, of `width` bytes.  Every sum
    the recursion forms has at most n products of reduced series, so its
    coefficients stay below n (cap + 1) (modulus - 1)^2 < 2^(8 width) and no
    slot carries into the next.  A sum is therefore multiplied and added
    packed, then unpacked and reduced mod modulus once per output entry.
    """
    n = len(matrix)
    length = cap + 1
    _check_series_matrix(matrix, length)
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
    # p holds charpoly coefficients of the leading block, highest power first
    p = [1, dot([1], [M[0][0]], negate=True)]
    for r in range(2, n + 1):
        R = M[r - 1][:r - 1]
        w = [M[i][r - 1] for i in range(r - 1)]
        s = [1, dot([1], [M[r - 1][r - 1]], negate=True), dot(R, w, negate=True)]
        for _ in range(r - 2):
            w = [dot(M[i][:r - 1], w) for i in range(r - 1)]
            s.append(dot(R, w, negate=True))
        # after the last step only q[n], the determinant up to sign, is read
        q = [0] * (r + 1)
        for i in range(r + 1) if r < n else (n,):
            ks = range(max(0, i - r), min(i, r - 1) + 1)
            q[i] = dot([s[i - k] for k in ks], [p[k] for k in ks])
        p = q
    sign = -1 if n % 2 else 1
    return [sign * c % modulus for c in unpack(p[n])]


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
    certified as long as each pivot is nonzero at the precision left.

    Every series is one packed integer with one slot of `width` bytes per
    coefficient.  A slot of any product formed sums at most cap + 1 products
    of residues, below top = (cap + 1) ell^2, so no slot carries into the
    next; the slots are then reduced mod ell all at once by Barrett's
    floor(y m / 2^shift) = floor(y / ell), exact for y < 2^shift / ell,
    with m * top < 2^(8 width) so that no slot of y * m carries either.
    """
    n = len(matrix)
    length = cap + 1
    _check_series_matrix(matrix, length)
    top = length * ell * ell
    shift = (top * ell).bit_length()
    m = -(-(1 << shift) // ell)
    width = (top * m).bit_length() // 8 + 1
    bits = 8 * width
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * length, "little")
    quotient_mask = ((1 << bits - shift) - 1) * ones

    def reduce(y, prec):
        """The slots of y below T^prec, each reduced mod ell."""
        y &= (1 << bits * prec) - 1
        return y - ell * ((y * m >> shift) & quotient_mask)

    def inverse(w, prec):
        """w^(-1) through T^(prec - 1) for a reduced unit w, by Newton
        doubling x -> x (2 - w x)."""
        x = pow(w & (1 << bits) - 1, -1, ell)
        known = 1
        while known < prec:
            known = min(2 * known, prec)
            # 2 - w x with every slot kept nonnegative: w x is 1 in slot 0
            x = reduce(x * (ell * ones + 2 - reduce(w * x, known)), known)
        return x

    planes = range(((ell - 1).bit_length() + 7) // 8)

    def pack(coeffs):
        residues = [c % ell for c in coeffs]
        raw = bytearray(width * length)
        for b in planes:
            raw[b::width] = bytes([r >> 8 * b & 255 for r in residues])
        return int.from_bytes(raw, "little")

    M = [[pack(e) if any(e) else 0 for e in row] for row in matrix]
    prec = length
    total = 0
    for k in range(n):
        column = [(((M[i][k] & -M[i][k]).bit_length() - 1) // bits, i)
                  for i in range(k, n) if M[i][k]]
        if not column:
            return None
        v, best = min(column)
        M[k], M[best] = M[best], M[k]
        pivot = M[k]
        prec -= v
        if prec <= 0:
            return None
        total += v
        w_inv = inverse(pivot[k] >> bits * v, prec)
        mask = (1 << bits * prec) - 1
        ells = ell * ones & mask
        used = [(j, pivot[j]) for j in range(k + 1, n) if pivot[j]]
        # Entries left alone keep slots at and above T^prec; those are never
        # read: products are cut at prec, and a pivot found only there has
        # v >= prec, which the check above refuses.
        for row in M[k + 1:]:
            if row[k]:
                # -(a_ik / T^v) w^(-1) in every slot, as ell - q_j >= 0
                neg = ells - reduce((row[k] >> bits * v) * w_inv, prec)
                for j, p in used:
                    y = (row[j] + neg * p) & mask      # reduce(), inlined
                    row[j] = y - ell * ((y * m >> shift) & quotient_mask)
    return total


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
