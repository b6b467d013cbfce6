import random

import pytest

from giwa import (ResourceLimitError, UnsupportedError, ValidationError,
                  cyclic, dihedral_8, hom, product, reduction_hom,
                  sl2_level_quotient, subgroup_generated, trivial_group,
                  verify_uniform_quotients)
from giwa.groups import (DEFAULT_ENUMERATION_CAP, DIHEDRAL_REFLECTION, DIHEDRAL_ROTATION,
                         sl2_generators)


def check_group_axioms(G, rng, triples=1000):
    for a in G.elements:
        assert G.multiply(a, G.identity) == a
        assert G.multiply(G.identity, a) == a
        assert G.multiply(a, G.inverse(a)) == G.identity
    for _ in range(triples):
        a, b, c = (rng.choice(G.elements) for _ in range(3))
        assert G.multiply(G.multiply(a, b), c) == G.multiply(a, G.multiply(b, c))


class TestCyclicAndProduct:
    def test_cyclic_orders(self):
        assert cyclic(3).order == 3
        assert product(cyclic(3), cyclic(3)).order == 9
        assert cyclic(1).order == 1

    def test_invalid_order(self):
        with pytest.raises(ValidationError):
            cyclic(0)

    def test_orders_over_the_enumeration_cap_are_refused(self):
        assert cyclic(DEFAULT_ENUMERATION_CAP).order == DEFAULT_ENUMERATION_CAP
        for build in (lambda: cyclic(DEFAULT_ENUMERATION_CAP + 1),
                      lambda: cyclic(2 ** 61 - 1),
                      lambda: product(cyclic(2187), cyclic(2187))):
            with pytest.raises(ResourceLimitError, match="exceeds the cap of 200000 elements"):
                build()

    def test_axioms(self):
        rng = random.Random(1)
        for G in (cyclic(7), product(cyclic(4), cyclic(6)),
                  product(product(cyclic(2), cyclic(2)), cyclic(3))):
            check_group_axioms(G, rng, triples=200)

    def test_cyclic_factor_orders_flatten(self):
        G = product(product(cyclic(3), cyclic(3)), cyclic(27))
        assert G.cyclic_factor_orders == (3, 3, 27)
        assert G.abelian_coordinates(((1, 2), 26)) == (1, 2, 26)


class TestDihedral:
    def test_order_eight(self):
        assert dihedral_8().order == 8

    def test_rotation_has_order_four(self):
        G = dihedral_8()
        assert G.power(DIHEDRAL_ROTATION, 4) == G.identity
        assert G.power(DIHEDRAL_ROTATION, 2) != G.identity

    def test_reflection_conjugates_rotation_to_inverse(self):
        G = dihedral_8()
        rho, tau = DIHEDRAL_ROTATION, DIHEDRAL_REFLECTION
        lhs = G.multiply(G.multiply(tau, rho), G.inverse(tau))
        assert lhs == G.inverse(rho)

    def test_axioms(self):
        check_group_axioms(dihedral_8(), random.Random(2), triples=300)


class TestSL2Quotient:
    def test_level_zero_trivial(self):
        q = sl2_level_quotient(3, 0)
        assert q.group.order == 1

    def test_order_27_at_level_one(self):
        q = sl2_level_quotient(3, 1)
        assert q.group.order == 27

    @pytest.mark.parametrize("ell,level", [(3, 1), (3, 2), (5, 1)])
    def test_order_formula(self, ell, level):
        q = sl2_level_quotient(ell, level)
        assert q.group.order == ell ** (3 * level)

    def test_generators_generate(self):
        q = sl2_level_quotient(3, 1)
        gens = sl2_generators(3, 1)
        assert len(subgroup_generated(q.group, gens)) == 27

    def test_ell_two_unsupported(self):
        with pytest.raises(UnsupportedError):
            sl2_level_quotient(2, 1)

    def test_composite_ell_rejected(self):
        with pytest.raises(ValidationError):
            sl2_level_quotient(9, 1)

    def test_composite_ell_with_large_factors_rejected(self):
        # both factors lie above the old trial-division bound of 1000
        with pytest.raises(ValidationError, match="odd prime"):
            sl2_level_quotient(1009 * 1013, 0)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            sl2_level_quotient(3, 5, cap=1000)

    def test_axioms(self):
        check_group_axioms(sl2_level_quotient(3, 1).group,
                           random.Random(3), triples=300)


class TestSubgroupGenerated:
    def test_dihedral_generators(self):
        G = dihedral_8()
        assert len(subgroup_generated(G, [DIHEDRAL_ROTATION,
                                          DIHEDRAL_REFLECTION])) == 8

    def test_elementary_abelian(self):
        G = product(cyclic(3), cyclic(3))
        assert len(subgroup_generated(G, [(1, 0), (0, 1)])) == 9

    def test_empty_generators(self):
        G = cyclic(5)
        assert subgroup_generated(G, []) == frozenset({0})

    def test_idempotent_and_monotone(self):
        rng = random.Random(4)
        G = product(cyclic(4), cyclic(6))
        for _ in range(20):
            gens = [rng.choice(G.elements) for _ in range(rng.randint(0, 3))]
            H = subgroup_generated(G, gens)
            assert subgroup_generated(G, sorted(H)) == H
            bigger = subgroup_generated(G, gens + [rng.choice(G.elements)])
            assert H <= bigger

    def test_foreign_element_rejected(self):
        with pytest.raises(ValidationError):
            subgroup_generated(cyclic(3), [7])


class TestGroupHom:
    def test_reduction_surjective_with_kernel(self):
        f = reduction_hom(9, 3)
        assert f.is_surjective()
        assert f.kernel() == frozenset({0, 3, 6})

    def test_non_multiplicative_rejected(self):
        with pytest.raises(ValidationError):
            hom(cyclic(4), cyclic(4), lambda a: (a * a) % 4)

    def test_projection(self):
        G = product(cyclic(3), cyclic(3))
        f = hom(G, cyclic(3), lambda p: p[0])
        assert f.is_surjective()
        assert len(f.kernel()) == 3


class TestUniformQuotients:
    def test_layer_indices_level_two(self):
        report = verify_uniform_quotients(3, 2)
        assert report.layer_indices == (27, 27)
        assert report.indices_ok

    def test_single_layer(self):
        report = verify_uniform_quotients(3, 1)
        assert report.layer_indices == (27,)
        assert report.ok

    def test_commutators_in_power_subgroup(self):
        report = verify_uniform_quotients(3, 2)
        assert report.commutators_ok
        assert report.witness is None

    def test_trivial_group_is_identity_of_product(self):
        T = trivial_group()
        assert T.order == 1
        G = product(T, cyclic(4))
        assert G.order == 4


def test_axioms_hold_for_every_constructed_group():
    # identity and inverse exhaustively, associativity on 1000 random triples
    rng = random.Random(2024)
    constructed = [cyclic(12), product(cyclic(3), cyclic(4)), dihedral_8(),
                   sl2_level_quotient(3, 1).group, trivial_group()]
    for G in constructed:
        assert G.order <= 10_000
        check_group_axioms(G, rng, triples=1000)
