"""Folner sequences, ergodic averages, and uniform fluctuation bounds.

Quantitative mean ergodic machinery for countable discrete amenable groups:
exact Folner-ratio arithmetic and convergence moduli, Koopman actions on
finite weighted L^p spaces, and verification of the uniform bounds on
eps-fluctuations of ergodic averages.
"""

from .convexity import (
    ConvexityModulus,
    hanner_delta,
    hanner_u,
    lp_small_p_u,
    p_uniform_u,
    u_from_delta,
)
from .dynamics import (
    FiniteMeasureSystem,
    Observable,
    average_block,
    average_defect,
    average_operator,
    average_sequence,
    ergodic_average,
    heisenberg_torus_system,
    koopman_apply,
    lp_distances,
    lp_norm,
    lp_norms,
    rotation_system,
    torus_translation_system,
    weighted_mean,
)
from .errors import (
    ConfigError,
    DomainError,
    ErgolabError,
    FamilyTooLargeError,
    GroupElementError,
    ModulusNotFoundError,
    NotFastError,
    RefinementWindowError,
    StructureError,
    UncertifiedModulusError,
    UnsupportedGroupError,
)
from .fluctuation import (
    Branch,
    FluctuationReport,
    corollary_bound,
    default_eta,
    guarded_floor,
    max_chain,
    theorem_bound,
    verify_corollary,
    verify_main_theorem,
)
from .folner import (
    ExplicitFamily,
    FastCheckReport,
    FolnerFamily,
    ModulusEntry,
    ModulusTable,
    RefinedFamily,
    StandardBoxFamily,
    as_fraction,
    build_modulus_table,
    check_fast,
    check_modulus,
    convergence_modulus,
    envelope,
    family_from_jsonable,
    fast_refinement,
    greedy_folner,
    standard_family,
    worst_ratio,
    worst_ratio_table,
)
from .groups import (
    Group,
    HeisenbergGroup,
    IntegerGroup,
    LatticeGroup,
    group_by_name,
    least_index,
)

__version__ = "0.1.0"
