"""isocensus: exact matrix groups over finite fields, isogenies, and subgroup censuses."""

from .census import SubgroupHandle, index_k_subgroups, subgroup_lattice_oracle
from .ffield import AmbientField, VerificationError, make_field
from .homs import (CokernelData, Image, Isogeny, NormCoverIsogeny, PowerIsogeny,
                   check_image_index, cokernel, image, kernel_points, lang_map,
                   plan_degree, reached_by, with_sections)
from .matgroup import (FiniteGroup, GroupSpec, Matrix, builtin_specs,
                       make_spec, rational_points)
from .orderform import BN_CATALOG, OrderFormula, bn_order, center_order, closed_order

__version__ = "0.1.0"

__all__ = [
    "AmbientField", "BN_CATALOG", "CokernelData",
    "FiniteGroup", "GroupSpec", "Image", "Isogeny", "Matrix",
    "NormCoverIsogeny", "OrderFormula", "PowerIsogeny", "SubgroupHandle",
    "VerificationError",
    "bn_order", "builtin_specs", "center_order", "check_image_index",
    "closed_order", "cokernel", "image", "index_k_subgroups",
    "kernel_points", "lang_map", "make_field", "make_spec", "plan_degree",
    "rational_points", "reached_by", "subgroup_lattice_oracle",
    "with_sections",
]
