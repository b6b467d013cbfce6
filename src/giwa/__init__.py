"""Exact invariants of graph covers: voltage constructions, zeta determinant
identities, and Iwasawa-style growth invariants of cyclic ell-power towers."""

from .errors import (DisconnectedError, GiwaError, PrecisionError,
                     ResourceLimitError, UnsupportedError, ValidationError)
from .graphs import (Multigraph, Orientation, Pi1Basis, bareiss_determinant,
                     bouquet, build_multigraph, components,
                     count_spanning_trees_bruteforce, cycle_graph,
                     euler_characteristic, is_connected, matrices, pi1_basis,
                     spanning_tree_count)
from .groups import (FiniteGroup, GroupHom, cyclic, dihedral_8, hom, product,
                     reduction_hom, sl2_level_quotient, subgroup_generated,
                     trivial_group, verify_uniform_quotients)
from .voltage import (CoverMap, DerivedGraph, VoltageAssignment,
                      component_degrees, cover_degree, deck_transformations,
                      derived_graph, identity_cover, is_cover, is_galois,
                      permutation_cover, pullback, pullback_voltage, quotient_cover,
                      verify_combined_iso, voltage_assignment,
                      voltage_connectedness)
from .cyclotomic import CyclotomicElement, cyclotomic_polynomial, euler_phi, t_psi, zeta
from .characters import Character, all_characters, trivial_character
from .series import (PadicTruncated, TruncatedPowerSeries, binomial_series,
                     cofactor_determinant, evaluate_at_tpsi, mu_lambda,
                     ring_determinant, truncated_determinant)
from .polys import Poly
from .lfunctions import (artin_product_check, class_number_check, h_of_graph,
                         h_polynomial, h_twisted, hashimoto_check,
                         ihara_zeta_inverse, twisted_adjacency)
from .iwasawa import (IwasawaData, KidaReport, NotStabilizedError, Tower,
                      certify_levels_connected, characteristic_series,
                      factorization_check, fit_iwasawa, iwasawa_invariants,
                      kappa_ord_sequence, kida_verify, lift_tower, tower,
                      tower_level, twisted_characteristic_series,
                      uniform_tower_check, with_growth_constant)

__version__ = "0.1.0"
