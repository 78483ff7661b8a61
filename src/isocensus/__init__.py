"""isocensus: exact matrix groups over finite fields, isogenies, and subgroup censuses."""

from .census import (CensusReport, SubgroupHandle, index_k_subgroups,
                     run_census, subgroup_lattice_oracle)
from .ffield import AmbientField, VerificationError, make_field
from .homs import (CokernelData, Isogeny, NormCoverIsogeny, PowerIsogeny,
                   check_image_index, cokernel, fiber_product, kernel_points,
                   lang_map, plan_degree, quotient_by_central, reached_by)
from .matgroup import (FiniteGroup, GroupSpec, Matrix, builtin_specs,
                       make_spec, rational_points)
from .orderform import BN_CATALOG, OrderFormula, bn_order, center_order, closed_order

__version__ = "0.1.0"

__all__ = [
    "AmbientField", "BN_CATALOG", "CensusReport", "CokernelData",
    "FiniteGroup", "GroupSpec", "Isogeny", "Matrix",
    "NormCoverIsogeny", "OrderFormula", "PowerIsogeny", "SubgroupHandle",
    "VerificationError",
    "bn_order", "builtin_specs", "center_order", "check_image_index",
    "closed_order",
    "cokernel", "fiber_product", "index_k_subgroups",
    "kernel_points", "lang_map", "make_field",
    "make_spec", "plan_degree", "quotient_by_central",
    "rational_points", "reached_by", "run_census", "subgroup_lattice_oracle",
]
