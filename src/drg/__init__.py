"""Derangement graphs of finite transitive permutation groups.

Cliques, intersecting families and intersection density bounds, semiregular
subgroups and elusive groups, the supporting effective number theory, and a
catalog of verified witness groups.
"""

__version__ = "0.1.3"

from .perm import Permutation, compose, cycle_type, inverse, is_derangement
from .group import (
    BlockSystem,
    BudgetError,
    PermGroup,
    blocks_and_primitivity,
    coset_action,
    group_from_generators,
)
from .graph import (
    CliqueCertificate,
    CocliqueCertificate,
    DensityReport,
    are_adjacent,
    clique_coclique_audit,
    density_bounds,
    derangement_set,
    find_k_clique,
    max_clique,
    max_intersecting_family,
)
from .semireg import (
    ElusivenessReport,
    SemiregularBoundCertificate,
    SemiregularWitness,
    is_elusive,
    is_semiregular_element,
    is_semiregular_subgroup,
    lift_semiregular,
    max_semiregular_order,
    product_action_fpf,
    semiregular_bound_certificate,
    semiregular_primes,
    wreath_elusive_check,
)
from .catalog import catalog_load, catalog_names
