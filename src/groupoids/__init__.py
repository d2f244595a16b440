"""Finite groupoids, group actions, and their orbit constructions."""

from .actions import (GroupoidAction, action_from_object_map,
                      fixed_subgroupoid, is_free_action, object_orbits,
                      restrict_action, trivial_action, validate_action)
from .catalog import (alternating_group, connected_groupoid, cyclic_group,
                      dihedral_group, discrete_groupoid, group_isomorphic,
                      group_of_one_object_groupoid, groupoid_from_group,
                      klein_group, quaternion_group, symmetric_group,
                      tree_groupoid, trivial_group)
from .constructions import (RegularCoverReport, RestrictOrbitReport,
                            generated_wide_subgroupoid, normal_closure,
                            orbit_groupoid, orbit_kernel_generators,
                            quotient_groupoid, regular_cover_orbit_check,
                            restrict_orbit_full_subgroupoid,
                            semidirect_product, tree_orbit_group)
from .core import (FiniteGroupoid, GroupTable, GroupoidMorphism, SizeCapError,
                   WideSubgroupoid, components, direct_product_group,
                   disjoint_union, full_subgroupoid, is_connected,
                   is_covering, is_discrete, is_fibration,
                   is_normal_subgroupoid, is_quotient_morphism,
                   is_tree_groupoid, kernel, object_group, quotient_group,
                   search_isomorphism, star, validate_groupoid,
                   validate_morphism)
from .fileformat import (ParseError, ParsedFile, parse_input, parse_text,
                         render_entities)
from .oracle import (brute_abelianization, check_universal_property,
                     enumerate_morphisms, invariant_morphisms,
                     minimal_normal_closure, wide_subgroupoid_lattice)
from .presented import (AbelianInvariants, DirectedGraph, GraphAction,
                        GroupPresentation, PresentedGroupoid, Word,
                        abelian_invariants, describe_vertex_group,
                        direct_product_presentation, free_reduce,
                        orbit_presentation, presentation_relation_matrix,
                        smith_normal_form, symmetric_square_presentation,
                        validate_graph_action, vertex_group_presentation)
from .suite import run_all
