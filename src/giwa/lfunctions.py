"""Twisted adjacency matrices, h-polynomials and the determinant identities.

h(u, psi) = det(I - A_psi u + (D - I) u^2) is the determinant factor of the
L-function of an abelian cover; the trivial character gives the reciprocal
Ihara zeta function up to the factor (1 - u^2)^(-chi).  The identities
checked here are exact: the Artin product decomposition, Hashimoto's
derivative formula h'(1) = -2 chi kappa, and the class number formula.
Every h-polynomial, like every twisted series f_psi, is one Kronecker
determinant with zeta_m as a second variable (iwasawa.cyclotomic_determinant).
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import Character, all_characters
from .cyclotomic import CyclotomicElement, as_integer
from .errors import DisconnectedError, UnsupportedError, ValidationError
from .graphs import (Multigraph, euler_characteristic,
                     is_connected, matrices, spanning_tree_count)
from .iwasawa import cyclotomic_determinant
from .polys import Poly
from .voltage import VoltageAssignment, derived_graph


def twisted_adjacency(va: VoltageAssignment, psi: Character) -> list:
    """Character-weighted adjacency matrix of an abelian voltage cover.

    Entry (i, j) sums psi(alpha(s)) over orientation edges s from v_i to v_j
    plus psi(-alpha(s)) over those from v_j to v_i; a loop contributes both
    terms to its diagonal entry.  Trivial psi yields the ordinary adjacency
    matrix (as integers).
    """
    psi.require_group(va.group)       # UnsupportedError for a group without characters
    g = va.graph.vertex_count
    if psi.is_trivial:
        _, A, _ = matrices(va.graph)
        return A
    zero = CyclotomicElement.from_int(psi.conductor, 0)
    M = [[zero for _ in range(g)] for _ in range(g)]
    for s in va.orientation:
        i, j = va.graph.origin[s], va.graph.terminus[s]
        a = va.values[s]
        M[i][j] = M[i][j] + psi(a)
        M[j][i] = M[j][i] + psi.value_at_inverse(a)
    return M


def h_polynomial(D: list, A: list) -> Poly:
    """det(I - A u + (D - I) u^2) as an exact polynomial in u: one Kronecker
    determinant with zeta_m as a second variable (iwasawa.cyclotomic_determinant),
    m the conductor of A's entries, m = 1 for integer A.
    """
    g = len(D)
    if any(len(row) != g for row in D) or len(A) != g or any(len(r) != g for r in A):
        raise ValidationError("matrix dimensions do not match")
    if g == 0:
        return Poly([1])
    conductors = {x.m for row in A for x in row if isinstance(x, CyclotomicElement)}
    if len(conductors) > 1:
        raise ValidationError(f"mixed cyclotomic conductors {sorted(conductors)}")
    m = conductors.pop() if conductors else 1
    coeffs, _ = cyclotomic_determinant(      # K = 0: every row holds u^0
        [[{0: int(i == j), 1: -A[i][j], 2: D[i][j] - (i == j)} for j in range(g)]
         for i in range(g)], m)
    return Poly([c.coords[0] for c in coeffs] if m == 1 else coeffs)


def h_of_graph(graph: Multigraph) -> Poly:
    D, A, _ = matrices(graph)
    return h_polynomial(D, A)


def h_twisted(va: VoltageAssignment, psi: Character) -> Poly:
    D, _, _ = matrices(va.graph)
    return h_polynomial(D, twisted_adjacency(va, psi))


def ihara_zeta_inverse(graph: Multigraph) -> Poly:
    """The reciprocal zeta polynomial (1 - u^2)^(-chi) * h(u).

    chi <= 0 for every connected graph that is not a tree; for trees the
    (1 - u^2) factor divides h exactly and the quotient is taken.
    """
    if not is_connected(graph):
        raise DisconnectedError("zeta function of a disconnected graph")
    chi = euler_characteristic(graph)
    h = h_of_graph(graph)
    one_minus_u2 = Poly([1, 0, -1])
    if chi <= 0:
        return (one_minus_u2 ** (-chi)) * h
    out = h
    for _ in range(chi):
        out = out.divexact(one_minus_u2)
    return out


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    left: object
    right: object
    passed: bool

    def to_json(self) -> dict:
        return {"identity": self.identity, "left": str(self.left),
                "right": str(self.right), "pass": self.passed}


def hashimoto_check(graph: Multigraph) -> IdentityReport:
    """h'(1) = -2 chi kappa for a connected graph, both sides exact."""
    if not is_connected(graph):
        raise DisconnectedError("identity requires a connected graph")
    h = h_of_graph(graph)
    lhs = h.derivative()(1)
    rhs = -2 * euler_characteristic(graph) * spanning_tree_count(graph)
    return IdentityReport("h'(1) = -2*chi*kappa", lhs, rhs, lhs == rhs)


def artin_product_check(va: VoltageAssignment) -> IdentityReport:
    """h_Y(u) = h_X(u) * prod over nontrivial psi of h(u, psi), exactly.

    The product is accumulated in cyclotomic arithmetic; the final
    coefficients must collapse to rational integers, and are compared with
    the integer h-polynomial of the derived graph.
    """
    if va.group.cyclic_factor_orders is None:
        raise UnsupportedError("the identity is implemented for abelian covers only")
    derived = derived_graph(va)
    if not is_connected(derived.graph):
        raise DisconnectedError("the derived graph must be connected")
    lhs = h_of_graph(derived.graph)
    rhs = h_of_graph(va.graph)
    for psi in all_characters(va.group):
        if psi.is_trivial:
            continue
        rhs = rhs * h_twisted(va, psi)
    rhs = Poly([as_integer(c) for c in rhs.coeffs])
    return IdentityReport("h_Y = h_X * prod h(u,psi)", lhs, rhs, lhs == rhs)


def class_number_check(va: VoltageAssignment) -> IdentityReport:
    """|G| kappa_Y = kappa_X * prod over nontrivial psi of h(1, psi).

    Requires chi(X) != 0; the cycle-graph case has its own elementary theory
    and is refused here.
    """
    if va.group.cyclic_factor_orders is None:
        raise UnsupportedError("the identity is implemented for abelian covers only")
    if euler_characteristic(va.graph) == 0:
        raise ValidationError(
            "class number identity needs chi(X) != 0; cycle-like bases are refused")
    derived = derived_graph(va)
    if not is_connected(derived.graph):
        raise DisconnectedError("the derived graph must be connected")
    kappa_y = spanning_tree_count(derived.graph)
    kappa_x = spanning_tree_count(va.graph)
    prod = 1
    for psi in all_characters(va.group):
        if psi.is_trivial:
            continue
        prod = prod * h_twisted(va, psi)(1)
    prod = as_integer(prod)
    lhs = va.group.order * kappa_y
    rhs = kappa_x * prod
    return IdentityReport("|G|*kappa_Y = kappa_X * prod h(1,psi)", lhs, rhs, lhs == rhs)
