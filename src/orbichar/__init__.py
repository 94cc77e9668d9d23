"""Exact Euler characteristics of global quotient orbifolds.

Finite groups acting simplicially on finite simplicial complexes, their
sector decompositions and Euler-Satake characteristics, wreath symmetric
products, and the generating-function identities these satisfy -- all in
exact rational arithmetic.
"""

__version__ = "0.1.0"

from .complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    betti_numbers,
    euler_characteristic,
    from_maximal,
    staircase_product,
)
from .equivariant import (
    EquivariantComplex,
    RegularEquivariantComplex,
    equivariant_product,
    euler_satake,
    fixed_subcomplex,
    orbit_complex,
    power_with_wreath_action,
    regularize,
    trivial_action,
)
from .errors import CapExceeded, InputError, OrbicharError
from .groups import (
    FiniteGroup,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
    trivial_group,
)
from .homs import (
    Presentation,
    free_abelian,
    free_group,
    hom_classes,
    parse_presentation,
    trivial_presentation,
)
from .sectors import (
    chi_gamma_es,
    chi_gamma_top,
    chi_m_top,
    gamma_sectors,
    iterate_sectors,
    product_sectors_check,
)
from .series import (
    TruncatedSeries,
    macdonald_dimension_check,
    point_wreath_chi_m,
    rhs_exp_formula,
    rhs_main_formula,
    subgroup_count,
    sublattice_count_bruteforce,
    verify_exp_formula,
    verify_main_formula,
)
from .hodge import (
    BigradedDims,
    HodgeSeries,
    SectorHodgeDatum,
    h_cr_polynomial,
    hodge_product_check,
    hodge_product_lhs,
    hodge_product_rhs,
    shift_number,
)
from .wreath import (
    TypeFunction,
    WreathProduct,
    all_types,
    centralizer_order_by_formula,
    type_of,
)
