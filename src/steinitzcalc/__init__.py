"""steinitzcalc: realizable Steinitz classes of tame Galois extensions.

Computes R_t(k, G) for k = Q or imaginary quadratic and G given as a
structure tree (abelian leaves, odd-coprime semidirect extensions, direct
products), together with the supporting machinery: ideal class groups as
reduced binary quadratic forms, cyclotomic Galois subgroups, W-groups from
the genus characters (verified against primes by `w_group`), and
the discriminant/Steinitz exponent calculus.
"""

from ._kernels import BACKEND
from .classgroup import (
    ClassGroup,
    ClassSubgroup,
    IdealClass,
    QuadField,
    QuadForm,
    Splitting,
    class_group,
    compose,
    is_fundamental,
    prime_class,
    principal_form,
    reduce,
    splitting,
    subgroup_generate,
)
from .cyclotomic import (
    CycloSubgroup,
    WGroup,
    galois_group,
    g_k_mu_tau,
    unit_group,
    w_group,
    w_norm_character,
)
from .errors import (
    InadmissibleError,
    InternalInvariantError,
    SteinitzcalcError,
    TraceMismatchError,
)
from .grouptree import (
    AbElement,
    AbelianGroup,
    AbelianLeaf,
    Action,
    GroupTree,
    Direct,
    Semidirect,
    dihedral_tree,
    leaf,
    semidirect,
    tree_from_spec,
    tree_to_spec,
    validate_action,
)
from .realizable import (
    RtResult,
    rt,
    rt_dihedral,
    rt_trace_replay,
)
from .steinitz import (
    RamificationDatum,
    alphas_l,
    beta_l,
    discriminant_exponent,
    membership_exponents,
    l_part,
    exponent_gcd,
    steinitz_from_ramification,
    w_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    # classgroup
    "ClassGroup", "ClassSubgroup", "IdealClass", "QuadField", "QuadForm",
    "Splitting", "class_group", "compose", "is_fundamental", "prime_class",
    "principal_form", "reduce", "splitting", "subgroup_generate",
    # cyclotomic
    "CycloSubgroup", "WGroup", "galois_group", "g_k_mu_tau", "unit_group",
    "w_group", "w_norm_character",
    # errors
    "InadmissibleError", "InternalInvariantError", "SteinitzcalcError",
    "TraceMismatchError",
    # grouptree
    "AbElement", "AbelianGroup", "AbelianLeaf", "Action", "GroupTree",
    "Direct", "Semidirect", "dihedral_tree", "leaf", "semidirect",
    "tree_from_spec", "tree_to_spec", "validate_action",
    # realizable
    "RtResult", "rt", "rt_dihedral", "rt_trace_replay",
    # steinitz
    "RamificationDatum", "alphas_l", "beta_l", "discriminant_exponent",
    "membership_exponents", "l_part", "exponent_gcd",
    "steinitz_from_ramification", "w_exponent",
]
