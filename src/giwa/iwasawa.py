"""Towers of cyclic ell-power covers and their Iwasawa invariants.

The characteristic series of a tower with voltage alpha is
f(T) = det(D - A_rho) where A_rho carries (1+T)^(alpha(s)) entries.  With
integer voltages every entry is an integer Laurent polynomial in u = 1 + T,
so f = P(u) / u^K for an integer polynomial P read exactly off one
determinant at u = 2^B as signed base-2^B digits (Kronecker substitution);
|coefficients| <= prod_i sqrt(sum_j ||M_ij||_1^2), Hadamard's bound for |P|
on |u| = 1, keep the digits apart.  D - A_rho at 1/u is its transpose, so P
is a palindrome, c_j = c_(2K-j), read from both ends of one determinant at
about half that width.  That finite object yields mu and
lambda exactly: mu is the minimal ell-valuation of the coefficients of P
(the basis change between powers of u and powers of T is unimodular, and
u^(-K) is a unit power series), and lambda(f) is the multiplicity of the
root u = 1 of P/ell^mu over F_ell.  Its series is one packed Taylor shift.

D - A_rho is built in one place, _laurent_matrix, as terms c u^a.  A twisted
series, c = psi(beta(s)) in Z[zeta_m], is P_psi / u^K from one Kronecker
determinant with zeta_m a second variable (cyclotomic_determinant).  The
factorization identity of a degree-ell cover multiplies the base's P by the
norm of one P_psi, its ell - 1 conjugates packed into one element
(kronecker_norm).  The truncated routes read c u^a as c (1+T)^a: voltages
known mod ell^P take a Berkowitz determinant over (Z/ell^N)[T]/(T^(cap+1)),
N = P - ord_ell(cap!), on lists (_series_matrix) packed into integers
(series.truncated_determinant) for their series.  Their mu and lambda, and
those of the covers in uniform_tower_check, come from f mod ell instead:
elimination over F_ell[T]/(T^(cap+1)) on a matrix assembled packed
(lambda_mod_ell) certifies mu = 0 and lambda(f) once f mod ell has a nonzero
coefficient through T^cap, with the cap doubled up to what the voltages fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb, gcd, isqrt
from types import MappingProxyType
from typing import Mapping

from .characters import Character
from .cyclotomic import CyclotomicElement, _poly_mul, euler_phi
from .errors import (DisconnectedError, GiwaError, PrecisionError,
                     ResourceLimitError, UnsupportedError, ValidationError)
from .graphs import (Multigraph, Orientation, bareiss_determinant,
                     euler_characteristic, is_connected, pi1_basis,
                     spanning_tree_count)
from .groups import FiniteGroup, cyclic
from .numtheory import factor_integer, is_prime, ord_int, prime_power_exponent
from .series import (PadicTruncated, TruncatedPowerSeries, binomial_coefficients,
                     _PackedModEll, binomial_digits, binomial_mod_ell,
                     truncated_determinant)
from .voltage import (CoverMap, DerivedGraph, VoltageAssignment, derived_graph,
                      lift_voltages, voltage_assignment, voltage_connectedness)

DEFAULT_CAP = 64
MAX_CAP = 2048
DEFAULT_VERTEX_CAP = 1000


class NotStabilizedError(GiwaError):
    """The valuation sequence has no 3-point suffix fitting mu*ell^n + lambda*n + nu."""


@dataclass(frozen=True)
class Tower:
    """A base graph with a voltage into the ell-adic integers.

    Level n of the tower is the derived graph of the voltage reduced mod
    ell^n.  The base must have nonzero Euler characteristic; connectedness
    of the levels is certified separately (see certify_levels_connected).
    Each voltage is an int or a PadicTruncated for the same ell; any other
    type is refused here, for every entry point at once.
    The voltages are a read-only copy, since the tower caches its Laurent
    determinant P and its pullbacks (see _tower_p and lift_tower).
    """

    graph: Multigraph
    orientation: Orientation
    ell: int
    values: Mapping = field(repr=False)   # orientation edge index -> int | PadicTruncated

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        if not is_prime(self.ell):
            raise ValidationError(f"ell must be a prime, got {self.ell}")
        if euler_characteristic(self.graph) == 0:
            raise ValidationError(
                "tower base must have nonzero Euler characteristic")
        if not is_connected(self.graph):
            raise DisconnectedError("tower base must be connected")
        self.orientation.check(self.graph, self.values)
        for v in self.values.values():
            if not isinstance(v, (int, PadicTruncated)):
                raise UnsupportedError(f"unsupported exponent type {type(v).__name__}")
            if isinstance(v, PadicTruncated) and v.ell != self.ell:
                raise ValidationError("mixed primes in p-adic arithmetic")

    @property
    def exact(self) -> bool:
        return all(isinstance(v, int) for v in self.values.values())

    def value_mod(self, d: int, n: int) -> int:
        """The voltage of orientation edge d reduced mod ell^n."""
        v = self.values[d]
        mod = self.ell ** n
        if isinstance(v, int):
            return v % mod
        if v.precision < n:
            raise PrecisionError(
                f"voltage known mod {self.ell}^{v.precision} cannot be reduced mod {self.ell}^{n}")
        return v.value % mod

    @cached_property
    def _loop_gcd(self) -> int:
        signed = {s: v if isinstance(v, int) else v.value for s, v in self.values.items()}
        signed.update({self.graph.inv(s): -a for s, a in list(signed.items())})
        loops = pi1_basis(self.graph, self.graph.vertices[0], self.orientation).loops
        return gcd(*(sum(signed[d] for d in path) for _s, path in loops))

    @cached_property
    def _lifts(self) -> list:
        return []


def tower(graph: Multigraph, ell: int, values_by_edge_id: Mapping,
          orientation: Orientation | None = None) -> Tower:
    """Build a tower from voltages keyed by undirected edge ids."""
    if orientation is None:
        orientation = graph.default_orientation()
    return Tower(graph=graph, orientation=orientation, ell=ell,
                 values=orientation.by_index(graph, values_by_edge_id))


def level_assignment(t: Tower, n: int) -> VoltageAssignment:
    values = {d: t.value_mod(d, n) for d in t.orientation}
    return VoltageAssignment(graph=t.graph, orientation=t.orientation,
                             group=cyclic(t.ell ** n), values=values)


def tower_level(t: Tower, n: int) -> DerivedGraph:
    """The level-n derived graph, with connectedness verified."""
    if n < 0:
        raise ValidationError("level must be >= 0")
    va = level_assignment(t, n)
    if n > 0:
        _require_level_connected(t, n)
    return derived_graph(va)


def _level_order(t: Tower, n: int) -> int:
    """The order ell^n / gcd(ell^n, sums) of the subgroup of Z/ell^n generated
    by the voltage sums along the loops of a pi1 basis of the base; level n is
    connected iff it is ell^n.  A truncated voltage enters by its integer
    representative, which is right for n up to its precision.  The gcd of the
    sums is taken once per tower and kept on the instance."""
    return t.ell ** n // gcd(t.ell ** n, t._loop_gcd)


def _require_level_connected(t: Tower, n: int) -> None:
    order = _level_order(t, n)
    if order < t.ell ** n:
        raise DisconnectedError(
            f"level {n} is disconnected: voltages generate a subgroup of order "
            f"{order} inside Z/{t.ell}^{n}")


def certify_levels_connected(t: Tower) -> bool:
    """All levels are connected iff level 1 is: the loop voltages generate
    Z/ell^n, whatever n >= 1, exactly when one of them is prime to ell."""
    return _level_order(t, 1) == t.ell


# ---------------------------------------------------------------------------
# Characteristic series


def _laurent_matrix(t: Tower, values: Mapping, weight=None) -> list:
    """Entries of D - A_rho as Laurent polynomials {exponent: coeff} in u.

    Orientation edge s from v_i to v_j adds 1 at (i, i) and at (j, j), and
    subtracts c u^a at (i, j) and c' u^(-a) at (j, i), with a = values[s] and
    (c, c') = weight(s), (1, 1) by default: integer entries for P and the
    plain series, Z[zeta] ones for a twisted series.  A truncated voltage is
    read as its integer representative; PadicTruncated itself is no key, as
    it hashes and compares by the weaker of two precisions.
    """
    g = t.graph.vertex_count
    ent = [[dict() for _ in range(g)] for _ in range(g)]
    val = [0] * g
    for s in t.orientation:
        i, j = t.graph.origin[s], t.graph.terminus[s]
        a = values[s] if isinstance(values[s], int) else values[s].value
        c, c_inv = (1, 1) if weight is None else weight(s)
        val[i] += 1
        val[j] += 1
        ent[i][j][a] = ent[i][j].get(a, 0) - c
        ent[j][i][-a] = ent[j][i].get(-a, 0) - c_inv
    for i in range(g):
        ent[i][i][0] = ent[i][i].get(0, 0) + val[i]
    return ent


@dataclass(frozen=True)
class LaurentDeterminant:
    """f = P(u) / u^K with P an exact integer polynomial, u = 1 + T."""

    coeffs: tuple      # monomial coefficients of P, low degree first
    shift: int         # K

    def series(self, cap: int) -> TruncatedPowerSeries:
        """f = P(1+T) (1+T)^(-K) through T^cap: Horner two coefficients a step,
        then one product, on integers packed at T = X = 2^W mod X^(cap+1).  The
        signed digits hold |f_k| <= ||P||_1 max |binom(d - K, k)| < X/2: at most
        binom(K+cap-1, cap) for d < K, binom(h, min(cap, h//2)) for d <= deg P = K + h."""
        h = len(self.coeffs) - 1 - self.shift
        width = 1 + (sum(map(abs, self.coeffs)) * max(
            comb(self.shift + cap - 1, cap) if self.shift > 0 else 0,
            comb(h, min(cap, h // 2)) if h >= 0 else 0)).bit_length()
        mask = (1 << width * (cap + 1)) - 1
        even = self.coeffs + (0,) * (len(self.coeffs) % 2)
        acc = 0
        for c0, c1 in zip(even[-2::-2], even[::-2]):    # acc (1+X)^2 + c1 (1+X) + c0
            acc = ((acc << 2 * width) + (acc << width + 1) + acc
                   + ((c1 << width) + c1 + c0)) & mask
        row = sum(b << width * k for k, b in enumerate(binomial_coefficients(-self.shift, cap)))
        return TruncatedPowerSeries(_signed_digits(acc * row, width, cap + 1))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def at_root_of_unity(self, m: int) -> CyclotomicElement:
        """det L(zeta_m) = P(zeta_m) / zeta_m^K, read in Z[zeta_m]."""
        folded = [0] * m
        for d, c in enumerate(self.coeffs):
            folded[(d - self.shift) % m] += c
        return CyclotomicElement(m, folded)

    def mu(self, ell: int) -> int:
        if self.is_zero():
            raise ValidationError("mu of the zero series")
        return min(ord_int(c, ell) for c in self.coeffs if c != 0)

    def lambda_f(self, ell: int) -> int:
        """Multiplicity of the root u = 1 of P / ell^mu over F_ell.

        This equals lambda of the power series f since u^(-K) is a unit of
        the Iwasawa algebra and the T/u coefficient bases differ by a
        unimodular triangular matrix.
        """
        m = self.mu(ell)
        red = [(c // ell ** m) % ell for c in self.coeffs]
        # (u - 1)^(ell^k) = u^(ell^k) - 1 over F_ell: divide by it while it
        # divides, from the largest ell^k <= deg P down to 1
        step = 1
        while step * ell < len(red):
            step *= ell
        mult = 0
        while step:
            while step < len(red):
                # red = q (u^step - 1) + r: q_j = red_(j+step) + q_(j+step)
                q = red[step:]
                for j in range(len(q) - step - 1, -1, -1):
                    q[j] = (q[j] + q[j + step]) % ell
                # r_j = red_j + q_j for j < step, q_j = 0 past the end of q
                if any((a + b) % ell for a, b in zip(red, q[:step] + [0] * (step - len(q)))):
                    break
                red = q
                mult += step
            step //= ell
        return mult


def _reduced_values(t: Tower, n: int | None) -> Mapping:
    """The tower's voltages, or with n, the voltages reduced into
    (-ell^n/2, ell^n/2]: the least representatives mod ell^n, which need only
    the voltages mod ell^n, so truncated voltages have them too."""
    if n is None:
        return t.values
    mod = t.ell ** n
    values = {}
    for d in t.orientation:
        r = t.value_mod(d, n)
        values[d] = r - mod if 2 * r > mod else r
    return values


def _laurent_determinant(t: Tower, n: int | None = None) -> LaurentDeterminant:
    """P of the tower's voltages, or with n, of the voltages reduced into
    (-ell^n/2, ell^n/2] (_reduced_values).  The second gives the same
    det L(zeta) = P(zeta)/zeta^K at every ell^n-th root of unity, and is never
    of larger degree.  P is read off one determinant (see kronecker_determinant).
    """
    coeffs, shift = kronecker_determinant(_laurent_matrix(t, _reduced_values(t, n)))
    return LaurentDeterminant(coeffs=coeffs, shift=shift)


def kronecker_determinant(ent: list) -> tuple:
    """(P's coefficients, K) with det(ent) = P(u) / u^K, for a square matrix
    of integer Laurent polynomials {exponent: coeff} in u.  P is one Bareiss
    determinant at u = 2^B, read as signed base-2^B digits: on |u| = 1,
    |P| <= H (Hadamard) and each coefficient is a mean of P(u) u^(-k), so
    |coefficient| <= H < 2^(B-2) (see _slot_bits).

    A self-reciprocal matrix, entry (j, i)(u) = entry (i, j)(1/u) as a tower's
    D - A_rho is, has det(ent)(1/u) = det(ent)(u), so c_j = c_(2K-j): P is
    nonzero only on the window [lo, 2K - lo], lo = max(0, 2K - D), and is
    read off one determinant at u = X = 2^b of about half the width, with
    X^2 > 16 H (see _palindromic_digits).
    """
    slot = _slot_bits(ent)
    shifts, degbound = _degree_bound(ent)
    shift = sum(shifts)
    # self-reciprocal: entry (j, i) is entry (i, j) with every exponent negated
    if all(ent[j][i] == {-e: c for e, c in ent[i][j].items()}
           for i in range(len(ent)) for j in range(i + 1)):
        width = (slot + 3) // 2          # the least b with 4^b >= 2^(B+2) > 16 H
        lo = max(0, 2 * shift - degbound)
        det = bareiss_determinant(_kronecker_matrix(ent, shifts, width))
        if det & ((1 << width * lo) - 1):
            raise GiwaError("Kronecker determinant is not a multiple of X^lo")
        coeffs = [0] * lo + _palindromic_digits(det >> width * lo, shift - lo,
                                                width, 1 << (slot - 2))
    else:
        coeffs = _signed_digits(bareiss_determinant(_kronecker_matrix(ent, shifts, slot)),
                                slot, degbound + 1)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs), shift


def cyclotomic_determinant(ent: list, m: int) -> tuple:
    """(P's coefficients in Z[zeta_m], K), det(ent) = P(u) / u^K, for Laurent
    polynomials {exponent: int or CyclotomicElement} in u.  zeta_m is a second
    variable x: with each row polynomial in u (_degree_bound), u^a x^e is
    y^(a w + e), w = g (phi(m) - 1) + 1, and one Kronecker determinant in y, of
    x-degree below w, gives P's u-coefficients in blocks of w, reduced mod Phi_m."""
    shifts, _ = _degree_bound(ent)
    w = len(ent) * (euler_phi(m) - 1) + 1
    digits, k_y = kronecker_determinant(
        [[{(a + s) * w + e: c for a, x in d.items()
           for e, c in enumerate(x.coords if isinstance(x, CyclotomicElement) else (x,)) if c}
          for d in row] for row, s in zip(ent, shifts)])
    digits = (0,) * -k_y + digits     # a row whose least y-power is above 0 gives K_y < 0
    return (tuple(CyclotomicElement(m, digits[k:k + w]) for k in range(0, len(digits), w)),
            sum(shifts))


def kronecker_norm(coeffs, m: int) -> tuple:
    """The norm from Q(zeta_m) to Q of sum c_k u^k, c_k an int or in Z[zeta_m],
    as phi(m) deg + 1 integer coefficients: one norm() of the element with each
    power-basis coordinate packed at u = 2^w.  A conjugate's coefficients are
    bounded by ||c_k||_1, so the norm's by S^phi(m) < 2^(w-2), S = sum ||c_k||_1."""
    phi = euler_phi(m)
    els = [c.coords if isinstance(c, CyclotomicElement) else (c,) for c in coeffs]
    w = (sum(sum(map(abs, x)) for x in els) ** phi).bit_length() + 2
    packed = CyclotomicElement(m, [sum(x[j] << w * k for k, x in enumerate(els) if j < len(x))
                                   for j in range(phi)])
    return tuple(_signed_digits(packed.norm(), w, phi * (len(els) - 1) + 1))


def _kronecker_matrix(ent: list, shifts: list, width: int) -> list:
    """The matrix at u = 2^width, row i times u^(shifts[i])."""
    return [[sum(c << width * (e + s) for e, c in d.items()) for d in row]
            for row, s in zip(ent, shifts)]


def _signed_digits(q: int, width: int, count: int) -> list:
    """[c_0, ..., c_(count-1)] in [-2^(width-1), 2^(width-1)) with
    q = sum c_k 2^(width k) mod 2^(width count), read with 2^(width-1) added to each."""
    n = width * count
    bits = format((q + int(("1" + "0" * (width - 1)) * count, 2)) & ((1 << n) - 1), f"0{n}b")
    return [int(bits[k - width:k], 2) - (1 << (width - 1)) for k in range(n, 0, -width)]


def _palindromic_digits(q: int, h: int, width: int, bound: int) -> list:
    """[c_0, ..., c_2h] with c_j = c_(2h-j), every |c_j| < bound, and
    q = sum c_j X^j for X = 2^width; GiwaError if the read ones fail either.

    When X^2 >= 16 bound, one pass over q's base-X digits d_j reads them from
    both ends.  From below, c_k = d_k - carry mod X, with carry the running
    remainder of the c_j below k.  From above, top = floor(q / X^(2h-k)) less
    the c_j above 2h - k is c_(2h-k) = c_k plus an error below
    bound / (X - 1) + 1 < X / 2, which the residue resolves.  The two
    remainders meet at X^h, where q - sum c_j X^j = X^h (top - carry).  A
    palindrome that passed both checks but was wrong would differ from the
    true one by a nonzero palindrome vanishing at X, whose coefficients
    reach X (X - 1); so even a width with X (X - 1) >= 2 bound, below the
    margin, gives the true c_j or raises.
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    n = width * (2 * h + 1)
    bits = format(q & ((1 << n) - 1), f"0{n}b")
    digits = [int(bits[k - width:k], 2) for k in range(n, 0, -width)]
    coeffs = [0] * (2 * h + 1)
    carry, top = 0, q >> width * 2 * h
    for k in range(h + 1):
        low = (digits[k] - carry) & mask                  # c_k mod X
        c = top - ((top - low + half) & mask) + half       # = low mod X, within X/2 of top
        coeffs[k] = coeffs[2 * h - k] = c
        top -= c
        if k < h:
            carry = (carry + c - digits[k]) >> width
            top = (top << width) + digits[2 * h - k - 1]
    if top != carry or any(abs(c) >= bound for c in coeffs):
        raise GiwaError("Kronecker digits do not read back as a bounded palindrome")
    return coeffs


def _degree_bound(ent: list) -> tuple:
    """(row shifts, D) for a matrix of Laurent polynomials {exponent: coeff}:
    row i times u^(shift_i) is polynomial, and P = u^K det(ent), with K the
    sum of the shifts, has degree at most D, the sum of the rows' spans."""
    exps = [[e for d in row for e in (d or (0,))] for row in ent]   # empty entry: u^0
    return [-min(r) for r in exps], sum(max(r) - min(r) for r in exps)


def _slot_bits(ent: list) -> int:
    """B with 2^(B-2) > H = prod_i sqrt(sum_j ||ent_ij||_1^2), P's coefficient bound."""
    h2 = 1
    for row in ent:
        h2 *= sum(sum(map(abs, d.values())) ** 2 for d in row)
    return isqrt(h2).bit_length() + 2


def _tower_p(t: Tower) -> LaurentDeterminant:
    """The exact tower's P, built on first use and kept on the instance: not a
    cached property, since kappa_ord_sequence must tell a built P from none."""
    got = getattr(t, "_p", None)
    if got is None:
        got = _laurent_determinant(t)
        object.__setattr__(t, "_p", got)
    return got


def characteristic_series(t: Tower, cap: int = DEFAULT_CAP) -> TruncatedPowerSeries:
    """f(T) = det(D - A_rho) through degree cap.

    Integer voltages use the exact Laurent-polynomial kernel; truncated
    ell-adic voltages use the division-free determinant over residues mod
    ell^N (see _padic_characteristic_series).
    """
    if cap < 0:
        raise ValidationError("cap must be >= 0")
    if t.exact:
        ld = _tower_p(t)
        # the constant term of f is P(1), which is det of a Laplacian, hence 0
        assert sum(ld.coeffs) == 0, "characteristic series must vanish at T = 0"
        return ld.series(cap)
    return _padic_characteristic_series(t, cap)


def _voltage_precision(t: Tower) -> int | None:
    """The least precision P of the tower's truncated voltages, None when all
    are integers."""
    return min((t.values[s].precision for s in t.orientation
                if not isinstance(t.values[s], int)), default=None)


def _binomial_sum(terms, entry, zero: list) -> list:
    """The coefficients of sum c (1+T)^a over the terms (a, c), with entry(a)
    those of (1+T)^a and zero the list of as many zeros, returned when there
    are no terms.  Zero coefficients of entry(a) are skipped."""
    out = zero
    for a, c in terms:
        out = [x + c * y if y else x for x, y in zip(out, entry(a))]
    return out


def _series_matrix(t: Tower, cap: int, entry) -> list:
    """D - A_rho through T^cap, each entry a list of cap + 1 coefficients,
    for _padic_characteristic_series only (lambda_mod_ell assembles packed).

    Each term c u^a of _laurent_matrix(t, t.values) becomes c times entry(a),
    the coefficients of (1+T)^a for an integer a, computed once per exponent
    (_binomial_sum); the entries of D - A_rho that stay zero share one list.
    """
    entry = lru_cache(maxsize=None)(entry)
    zero = [0] * (cap + 1)
    return [[_binomial_sum(terms.items(), entry, zero) for terms in row]
            for row in _laurent_matrix(t, t.values)]


def _padic_characteristic_series(t: Tower, cap: int) -> TruncatedPowerSeries:
    """f through degree cap for truncated voltages, over (Z/ell^N)[T]/(T^(cap+1)).

    N = P - ord_ell(cap!) for the least voltage precision P
    (series.binomial_digits): every binomial series, and so the determinant,
    is certified mod ell^N.  The coefficients are wrapped as PadicTruncated
    values mod ell^N only on the way out.
    """
    n = binomial_digits(t.ell, _voltage_precision(t), cap)
    M = _series_matrix(t, cap, lambda a: binomial_coefficients(a, cap))
    det = truncated_determinant(M, t.ell ** n, cap)
    return TruncatedPowerSeries([PadicTruncated(t.ell, n, c) for c in det])


def lambda_mod_ell(t: Tower, cap: int) -> int | None:
    """lambda(f) read off f mod ell through T^cap, or None when f vanishes
    mod (ell, T^(cap+1)).

    Every coefficient of f is ell-integral and F_ell[[T]] is a discrete
    valuation ring, so a nonzero coefficient of f mod ell proves mu = 0, and
    the first one is lambda(f): the T-adic valuation of det(D - A_rho) mod ell
    (series.truncated_valuation).  Each (1+T)^a mod ell (series.binomial_mod_ell)
    is packed once, an entry sums (c mod ell) (1+T)^a over its terms, one
    reduction a term; a voltage is needed only mod ell^P for cap < ell^P, so
    cap >= ell^P for the least voltage precision P is refused.
    """
    ell = t.ell
    precision = _voltage_precision(t)
    if precision is not None and ell ** precision <= cap:
        raise PrecisionError(
            f"voltages known mod {ell}^{precision} fix f mod {ell} only below "
            f"T^{ell ** precision}, not through T^{cap}")
    packed = _PackedModEll(ell, cap)
    row = lru_cache(maxsize=None)(lambda a: packed.pack(binomial_mod_ell(a, ell, cap)))

    def entry(terms):
        out = 0
        for a, c in terms.items():
            out = packed.reduce(out + c % ell * row(a), cap + 1)
        return out
    return packed.valuation([[entry(terms) for terms in r] for r in _laurent_matrix(t, t.values)])


def _doubled_lambda_mod_ell(t: Tower, cap: int, limit: int) -> tuple:
    """(lambda(f) or None, last cap): lambda_mod_ell with the cap doubled from
    min(cap, limit) until a certificate, or until f = 0 mod ell is proven
    through the limit, which must lie below ell^P for the least voltage
    precision P.

    Below ell^P, f mod (ell, T^(cap+1)) needs the voltages only mod ell^P, so
    it is the same truncation of f_r = P_r(1+T) (1+T)^(-K) for the voltages r
    reduced into (-ell^P/2, ell^P/2] (the tower's own, when exact), and
    deg P_r <= D, their degree bound (_degree_bound).  Once a cap >= D finds
    f = 0 mod ell, P_r = 0 mod ell, so every cap through the limit would find
    0 too: the answer is (None, limit) with no further kernel run.  D is read
    only after a first None, so a certificate costs no more than the doubling.
    """
    cap = min(cap, limit)
    bound = None
    while True:
        lam_f = lambda_mod_ell(t, cap)
        if lam_f is not None or cap >= limit:
            return lam_f, cap
        if bound is None:
            values = _reduced_values(t, _voltage_precision(t))
            bound = _degree_bound(_laurent_matrix(t, values))[1]
        if cap >= bound:
            return None, limit
        cap = min(2 * cap, limit)


# ---------------------------------------------------------------------------
# Invariants


@dataclass(frozen=True)
class IwasawaData:
    mu: int
    lam: int                      # lambda of the tower = lambda(f) - 1
    nu: int | None = None
    n0: int | None = None

    def __str__(self):
        parts = [f"mu={self.mu}", f"lambda={self.lam}"]
        if self.nu is not None:
            parts.append(f"nu={self.nu}")
        if self.n0 is not None:
            parts.append(f"(n>={self.n0})")
        return " ".join(parts)


def iwasawa_invariants(t: Tower, cap: int = DEFAULT_CAP,
                       max_cap: int = MAX_CAP) -> IwasawaData:
    """mu and lambda of the tower.

    lambda of the tower is lambda(f) - 1.  Exact integer voltages give
    certified answers from the finite Laurent form P.  Truncated (or mixed)
    voltages read lambda(f) off f mod ell (lambda_mod_ell), which proves
    mu = 0; the cap doubles from cap up to min(max_cap, ell^P - 1) for the
    least voltage precision P, beyond which the data fix nothing.  With no
    nonzero coefficient by then, PrecisionError: no finite precision rules
    out a lift with mu = 0.  The search stops once a cap at or above the
    degree bound D of the reduced voltages finds f = 0 mod ell, which proves
    it through the whole limit (_doubled_lambda_mod_ell), so the refusal
    names that limit as its cap.
    """
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    if max_cap < 1:
        raise ValidationError("max_cap must be >= 1")
    _require_level_connected(t, 1)
    precision = _voltage_precision(t)
    if precision is None:
        ld = _tower_p(t)
        if ld.is_zero():
            raise ValidationError(
                "characteristic series is identically zero (degenerate voltage)")
        mu = ld.mu(t.ell)
        lam_f = ld.lambda_f(t.ell)
        return IwasawaData(mu=mu, lam=lam_f - 1)
    lam_f, cap = _doubled_lambda_mod_ell(t, cap, min(max_cap, t.ell ** precision - 1))
    if lam_f is None:
        raise PrecisionError(
            f"mu possibly positive beyond the working precision "
            f"(cap {cap}, voltage precision {precision})")
    return IwasawaData(mu=0, lam=lam_f - 1)


def kappa_ord_sequence(t: Tower, n_max: int, factor: bool = False,
                       vertex_cap: int = DEFAULT_VERTEX_CAP) -> list:
    """[(n, kappa_n, ord_ell(kappa_n), factorization or None)] for n = 0..n_max.

    The Laplacian of level n splits over the characters of Z/ell^n, which
    gives the class number formula

        ell^n kappa_n = kappa_0 * prod_(k=1..n) Norm(det L(zeta_(ell^k))),

    with det L(zeta) = P(zeta) / zeta^K.  So kappa_n = kappa_(n-1) * N_n / ell,
    where N_n is the norm from Z[zeta_(ell^n)] of P folded mod x^(ell^n) - 1
    and shifted by K.  P is the tower's cached P when it has one (see
    _tower_p); otherwise it is the P of the voltages reduced into
    (-ell^n_max/2, ell^n_max/2], which has the same values at the roots of
    unity used and also exists for truncated voltages.  kappa_0 is the
    matrix-tree count of the base.  No level graph is built, but levels
    whose vertex count would exceed the cap are still refused with a
    resource error.
    """
    if n_max < 0:
        raise ValidationError("level must be >= 0")
    for n in range(n_max + 1):
        n_vertices = t.graph.vertex_count * t.ell ** n
        if n_vertices > vertex_cap:
            raise ResourceLimitError(
                f"level {n} has {n_vertices} vertices, over the cap {vertex_cap} "
                f"(set GIWA_VERTEX_CAP to raise)")
        for d in t.orientation:
            t.value_mod(d, n)            # PrecisionError past the voltage precision
        if n == 1:
            # level 1 connected certifies every level (certify_levels_connected)
            _require_level_connected(t, n)
    kappas = [spanning_tree_count(t.graph)]
    if n_max > 0:
        ld = getattr(t, "_p", None)
        if ld is None:
            ld = _laurent_determinant(t, n_max)
        for n in range(1, n_max + 1):
            kappa, rem = divmod(kappas[-1] * ld.at_root_of_unity(t.ell ** n).norm(), t.ell)
            if rem or kappa <= 0:
                raise GiwaError(
                    f"class number formula gave no positive kappa_{n} "
                    f"(remainder {rem} mod {t.ell})")
            kappas.append(kappa)
    return [(n, k, ord_int(k, t.ell), factor_integer(k) if factor else None)
            for n, k in enumerate(kappas)]


def format_factorization(factors: list) -> str:
    return " * ".join(f"{decimal_string(p)}^{e}" if e > 1 else decimal_string(p)
                      for p, e in factors) or "1"


def decimal_string(n: int) -> str:
    """str(n) for integers of any size.

    Deep kappa_n run to thousands of digits, past the interpreter's limit on
    int-to-str conversion; splitting at a power of ten keeps every piece
    under it without touching the limit.
    """
    if abs(n) < 10 ** 1000:
        return str(n)
    if n < 0:
        return "-" + decimal_string(-n)
    k = len(bin(n)) * 3 // 20          # about half the decimal digits of n
    high, low = divmod(n, 10 ** k)
    return decimal_string(high) + decimal_string(low).zfill(k)


def with_growth_constant(inv: IwasawaData, ords: list, ell: int) -> IwasawaData:
    """inv with nu and n0 read off ords = [ord kappa_0, ..., ord kappa_top].

    From level K on, K the least n with phi(ell^n) > lambda(f), f at
    zeta_(ell^n) - 1 takes its valuation at T^lambda(f) alone, so the class
    number formula steps ord kappa_n by mu phi(ell^n) + lambda, and ord kappa_n
    = mu ell^n + lambda n + nu from K - 1.  nu is read once top >= K - 1, and
    n0 is the least level from which every ord is on that line; an ord past
    K - 1 off it is a GiwaError.  Below K - 1 no nu is claimed.
    """
    k = next(n for n in range(1, inv.lam + 3) if ell ** (n - 1) * (ell - 1) > inv.lam + 1)
    if len(ords) < k:
        return inv
    gap = [o - inv.mu * ell ** n - inv.lam * n for n, o in enumerate(ords)]   # nu on the line
    n0 = max((n + 1 for n, g in enumerate(gap) if g != gap[-1]), default=0)
    if n0 > k - 1:
        raise GiwaError(f"ord kappa_{k - 1}..{len(ords) - 1} lie on no line with {inv}")
    return IwasawaData(inv.mu, inv.lam, gap[-1], n0)


def fit_iwasawa(ords: list, start_n: int, ell: int) -> tuple:
    """Fit ord(kappa_n) = mu ell^n + lambda n + nu on the largest suffix.

    A fit, not a certificate (`giwa invariants` reads nu off
    with_growth_constant); it checks the frozen rows of `giwa examples`.
    Values must be consecutive in n starting at start_n.  mu is forced by
    second differences and must be a nonnegative integer, lambda and nu
    integers; at least three points must fit.  Returns (mu, lambda, nu, n0).
    """
    if len(ords) < 3:
        raise ValidationError("need at least three consecutive values")
    for i0 in range(len(ords) - 2):
        n0 = start_n + i0
        o = ords[i0:]
        d1 = o[1] - o[0]
        d2 = o[2] - o[1]
        denom = ell ** n0 * (ell - 1) ** 2
        mu, rem = divmod(d2 - d1, denom)
        if rem or mu < 0:
            continue
        lam = d1 - mu * ell ** n0 * (ell - 1)
        nu = o[0] - mu * ell ** n0 - lam * n0
        if all(o[i] == mu * ell ** (n0 + i) + lam * (n0 + i) + nu
               for i in range(len(o))):
            return mu, lam, nu, n0
    raise NotStabilizedError(
        "no 3-point suffix fits mu*ell^n + lambda*n + nu exactly")


# ---------------------------------------------------------------------------
# Pullback towers and the Kida identity


def lift_tower(t: Tower, p: CoverMap) -> Tower:
    """Pull the tower voltage back along a cover: orientation p^(-1)(S), value alpha o p.

    The lift is kept on t and returned again for a cover with the same
    source graph and edge map, so the two share one cached P.
    """
    for source, edge_map, lifted in t._lifts:
        if edge_map == p.edge_map and source == p.source:
            return lifted
    orientation, values = lift_voltages(p, t.orientation, t.values)
    out = Tower(graph=p.source, orientation=orientation, ell=t.ell, values=values)
    t._lifts.append((p.source, p.edge_map, out))
    return out


def certify_pullback_connected(t: Tower, va_beta: VoltageAssignment) -> tuple:
    """(ok, lift): ok when X(G, S, beta) and every level of the pullback tower
    are connected.  The lift of the tower to X(G, S, beta) is None when that
    cover is disconnected; otherwise level m of the lift is X(G x Z/ell^m, S,
    (beta, alpha)), certified for every m by its loop voltages mod ell."""
    if not voltage_connectedness(va_beta)[0]:
        return False, None
    lifted = lift_tower(t, derived_graph(va_beta).projection)
    return certify_levels_connected(lifted), lifted


def _certified_pullback(t: Tower, va_beta: VoltageAssignment) -> Tower:
    """The tower lifted to X(G, S, beta), or DisconnectedError unless that cover
    and every level of the pullback tower are connected."""
    ok, lifted = certify_pullback_connected(t, va_beta)
    if lifted is None:
        raise DisconnectedError("the covering graph X(G, S, beta) is disconnected")
    if not ok:
        # level 1 of the lift is X(G x Z/ell, S, (beta, alpha)): over each base
        # vertex a component has as many vertices as the combined voltages
        # generate, |G| times the lift's level-1 order
        raise DisconnectedError(
            f"pullback tower disconnected: combined voltages generate "
            f"{va_beta.group.order * _level_order(lifted, 1)} of "
            f"{va_beta.group.order * t.ell} elements")
    return lifted


@dataclass(frozen=True)
class KidaReport:
    degree: int
    base: IwasawaData
    cover: IwasawaData
    mu_equivalence: bool
    formula_checked: bool | None     # None when mu_X > 0
    formula_holds: bool | None

    @property
    def ok(self) -> bool:
        if not self.mu_equivalence:
            return False
        return self.formula_holds is not False


def kida_verify(t: Tower, beta_by_edge_id: Mapping, group: FiniteGroup) -> KidaReport:
    """Check the lambda identity for the pullback of the tower along an ell-cover.

    The cover is X(G, S, beta) for an ell-group G; both towers must have all
    levels connected.  mu vanishing must transfer both ways, and when the
    base mu is zero the identity lambda_Y + 1 = [Y:X](lambda_X + 1) is
    asserted.
    """
    if prime_power_exponent(group.order, t.ell) is None:
        raise ValidationError(
            f"|G| = {group.order} is not a power of ell = {t.ell}")
    lifted = _certified_pullback(
        t, voltage_assignment(t.graph, group, beta_by_edge_id, t.orientation))
    base_inv = iwasawa_invariants(t)
    # lambda(f_Y) = |G| lambda(f_X) when Kida's identity holds: a truncated kernel starts there
    cover_inv = iwasawa_invariants(lifted, max(DEFAULT_CAP, group.order * (base_inv.lam + 1)))
    checked = True if base_inv.mu == 0 else None
    holds = checked and cover_inv.lam + 1 == group.order * (base_inv.lam + 1)
    return KidaReport(degree=group.order, base=base_inv, cover=cover_inv,
                      mu_equivalence=(base_inv.mu == 0) == (cover_inv.mu == 0),
                      formula_checked=checked, formula_holds=holds)


# ---------------------------------------------------------------------------
# Twisted series and the factorization identity


def twisted_characteristic_series(t: Tower, va_beta: VoltageAssignment,
                                  psi: Character, cap: int = DEFAULT_CAP
                                  ) -> TruncatedPowerSeries:
    """f_psi = det(D - A_(psi,rho)) with entries psi(beta(s)) (1+T)^(alpha(s)) + ...

    Coefficients are CyclotomicElements of psi's ring, also for the trivial
    character, where they equal the plain series' (see cyclotomic.as_integer).
    f_psi = P_psi(1+T) / (1+T)^K, with P_psi from cyclotomic_determinant and
    one LaurentDeterminant.series per power-basis coordinate.
    """
    if cap < 0:
        raise ValidationError("cap must be >= 0")
    psi.require_group(va_beta.group)       # UnsupportedError for a group without characters
    if va_beta.graph is not t.graph:
        raise ValidationError("beta must live on the tower base")
    if not t.exact:
        raise UnsupportedError("twisted series require exact integer voltages")
    coeffs, shift = _twisted_p(t, va_beta, psi)
    parts = [LaurentDeterminant(tuple(c.coords[j] for c in coeffs), shift).series(cap).coeffs
             for j in range(euler_phi(psi.conductor))]
    return TruncatedPowerSeries([CyclotomicElement(psi.conductor, col) for col in zip(*parts)])


def _twisted_p(t: Tower, va_beta: VoltageAssignment, psi: Character) -> tuple:
    """(P_psi's coefficients in Z[zeta_m], K): D - A_rho with psi o beta weights."""
    def weight(s):
        b = va_beta.values[s]
        return psi(b), psi.value_at_inverse(b)

    return cyclotomic_determinant(_laurent_matrix(t, t.values, weight), psi.conductor)


@dataclass(frozen=True)
class FactorizationReport:
    cap: int
    passed: bool
    lhs: TruncatedPowerSeries
    rhs: TruncatedPowerSeries


def factorization_check(t: Tower, beta_by_edge_id: Mapping,
                        cap: int = DEFAULT_CAP) -> FactorizationReport:
    """f_(Y, alpha o p) = prod over all characters psi of f_psi, coefficient-exact.

    Restricted to cyclic covers of degree ell, the reduction step the
    lambda identity rests on.  The ell - 1 nontrivial characters are the
    conjugates of one generator psi_1, so the product is P_X N(P_psi_1) /
    u^(K_X + (ell-1) K_psi_1) over the integers: the base's cached P, one
    cyclotomic_determinant and one kronecker_norm, read through cap by one
    packed Taylor shift.
    """
    va_beta = voltage_assignment(t.graph, cyclic(t.ell), beta_by_edge_id, t.orientation)
    lifted = _certified_pullback(t, va_beta)
    lhs = characteristic_series(lifted, cap)
    if not t.exact:
        raise UnsupportedError("twisted series require exact integer voltages")
    coeffs, shift = _twisted_p(t, va_beta, Character(va_beta.group, (1,), t.ell))
    p_x = _tower_p(t)
    rhs = LaurentDeterminant(tuple(_poly_mul(p_x.coeffs, kronecker_norm(coeffs, t.ell))),
                             p_x.shift + (t.ell - 1) * shift).series(cap)
    return FactorizationReport(cap=cap, passed=lhs == rhs, lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Uniform pro-ell towers over the SL2 congruence kernel


@dataclass(frozen=True)
class UniformTowerReport:
    ell: int
    level: int
    base: IwasawaData                  # invariants of the beta-tower over B4
    cover: IwasawaData                 # invariants over Y_n
    lambda_expected: int               # ell^(3n) (lambda + 1) - 1
    connectedness_certified: tuple     # m values checked explicitly
    all_levels_certified: bool

    @property
    def ok(self) -> bool:
        return (self.cover.mu == 0 and self.cover.lam == self.lambda_expected
                and self.all_levels_certified)


def uniform_tower_check(ell: int, level: int, explicit_m: int = 2,
                        vertex_cap: int = DEFAULT_VERTEX_CAP,
                        base: Tower | None = None) -> UniformTowerReport:
    """Verify lambda_n = ell^(3n)(lambda+1) - 1 for the SL2 congruence tower.

    Y_n = X(G_n, S, alpha) over the bouquet of four loops: alpha sends the
    first three loops to the standard SL2 congruence-kernel generators at the
    given level and the fourth to the identity; the tower voltage is 0 on the
    first three loops and 1 on the fourth.  G_n, and so Y_n, is refused over
    the vertex cap before it is listed.  Y_n and every level of the tower
    lifted to it are certified (_certified_pullback), the levels
    2..explicit_m also one by one, and the invariants over Y_n are computed
    from the lift.  A base equal to the bouquet tower is used in its place,
    so that callers at several levels share its cached P.
    """
    from .graphs import bouquet
    from .groups import DEFAULT_ENUMERATION_CAP, sl2_generators, sl2_level_quotient

    G = sl2_level_quotient(ell, level, cap=min(vertex_cap, DEFAULT_ENUMERATION_CAP)).group
    t = tower(bouquet(4), ell, {"s1": 0, "s2": 0, "s3": 0, "s4": 1})
    if base is not None:
        if base != t:
            raise ValidationError(
                "base must be the bouquet-of-four tower with voltages 0, 0, 0, 1")
        t = base
    a1, a2, a3 = sl2_generators(ell, level)
    va = voltage_assignment(t.graph, G, {"s1": a1, "s2": a2, "s3": a3, "s4": G.identity})
    base_inv = iwasawa_invariants(t)
    lifted = _certified_pullback(t, va)
    for m in range(2, explicit_m + 1):
        _require_level_connected(lifted, m)

    # the kernel runs once, at the cover's lambda(f) Kida predicts: a nonzero
    # coefficient of f mod ell through it certifies mu = 0 and the true
    # lambda(f) either way; only if f mod ell vanishes that far (mu > 0, or a
    # larger lambda(f)) is the exact P built
    expected = ell ** (3 * level) * (base_inv.lam + 1) - 1
    lam_f = lambda_mod_ell(lifted, expected + 1)
    cover_inv = (iwasawa_invariants(lifted) if lam_f is None
                 else IwasawaData(mu=0, lam=lam_f - 1))
    return UniformTowerReport(ell=ell, level=level, base=base_inv,
                              cover=cover_inv, lambda_expected=expected,
                              connectedness_certified=(1, *range(2, explicit_m + 1)),
                              all_levels_certified=True)
