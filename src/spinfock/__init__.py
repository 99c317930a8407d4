"""Exact engine for twisted q-deformed Fock spaces.

Computes the canonical basis of the vacuum component over the ring of
integer Laurent polynomials, the associated colored crystal graphs, and the
q = 1 reduction onto self-associate spin characters, including conjectural
reduced decomposition matrices in odd characteristic.
"""

import types

from .laurent import (
    LaurentPoly,
    CoefficientBoundError,
    ExactDivisionError,
    q_integer,
    q_factorial,
    symmetrize_tail,
)
from .partitions import (
    InvariantError,
    enumerate_dp,
    enumerate_dp_h,
    enumerate_dpr_h,
    residue,
    residue_content,
    ladders,
    dominance_leq,
    shift_by_multiple,
    a_h,
    b_exponent,
)
from .fock import (
    FockVector,
    UncoveredDisorderError,
    MixedWeightError,
    normal_order,
    apply_f,
    apply_e,
    apply_t,
    apply_f_divided,
    weight,
    norm_squared,
)
from .crystal import (
    CrystalGraph,
    ftilde,
    etilde,
    eps,
    phi,
    component,
    highest_weight_vertices,
)
from .canonical import (
    BasisMatrix,
    CanonicalBasis,
    CanonicalBasisError,
    a_vector,
    canonical_basis,
    check_basis_matrix,
)
from .modular import (
    ReducedMatrix,
    character_image,
    strip_two_power,
    reduced_matrix,
    reduce_external_matrix,
)

__version__ = "0.1.0"

# every name imported above; the submodules they bind are not exports
__all__ = [name for name, value in dict(globals()).items()
           if not (name.startswith("_")
                   or isinstance(value, types.ModuleType))]
__all__.append("__version__")
