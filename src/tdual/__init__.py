"""Exact-arithmetic T-duality for circle bundles with flux and B-class.

The package computes, over the integers and without any floating point:

  * Smith normal forms and finitely generated abelian group arithmetic,
  * integral cohomology of a catalog of base spaces and their circle
    products,
  * total-space cohomology of principal circle bundles via the Gysin
    sequence,
  * the T-duality transform on triples (bundle, B-class, flux) with the
    B-class coset bijection,
  * mapping-torus cohomology of the pair/triple classifying spaces and
    their canonical bundles.
"""

from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    IntMatrix,
    cokernel,
    element_order,
    image,
    is_exact_at,
    kernel,
    smith_normal_form,
)
from .classifying import (
    MappingTorusData,
    ZAction,
    homotopy_tables,
    mapping_torus_cohomology,
    t32_cohomology_action,
    unbased_classes_over_sphere,
    universal_bundle_tables,
    z_group_cohomology,
)
from .gysin import (
    CircleBundle,
    TotalSpaceCohomology,
    exactness_audit,
    total_space_cohomology,
)
from .spaces import (
    CatalogSpace,
    GradedCohomology,
    cohomology_of,
    parse_space,
)
from .tduality import (
    DualityReport,
    Triple,
    coset_partition,
    dual_euler,
    dual_flux,
    dualize,
    make_triple,
    verify_coset_isomorphism,
)

__version__ = "0.1.0"

__all__ = [
    "FgGroup", "GroupElement", "Hom", "IntMatrix",
    "smith_normal_form", "kernel", "image", "cokernel", "is_exact_at",
    "element_order",
    "CatalogSpace", "GradedCohomology", "parse_space", "cohomology_of",
    "CircleBundle", "TotalSpaceCohomology", "total_space_cohomology",
    "exactness_audit",
    "Triple", "DualityReport", "make_triple", "dualize", "dual_euler",
    "dual_flux", "coset_partition", "verify_coset_isomorphism",
    "ZAction", "MappingTorusData", "z_group_cohomology",
    "mapping_torus_cohomology", "homotopy_tables",
    "universal_bundle_tables", "t32_cohomology_action",
    "unbased_classes_over_sphere",
]
