"""Exact decisions about Kähler and spin structures on real Bott manifolds."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .bott import (
    AffineIsometry,
    BottMatrix,
    NotKahler,
    NotStrictlyUpperTriangular,
    ReducedMatrix,
    compose,
    corollary_check,
    generators,
    is_kahler,
    reduce,
    spin_main_theorem,
    spin_oracle,
    to_pmatrix,
)
from .census import (
    CensusReport,
    DimensionTooLarge,
    enumerate_bott,
    partition_space,
    run_census,
)
from .f2poly import F2Polynomial, F2RowSpace, Monomial, deg2_to_vector
from .pmatrix import (
    PMatrix,
    SWData,
    admits_spin_oracle,
    characteristic_ideal_deg2,
    has_full_holonomy,
    ideal_deg2,
    is_free_action,
    is_orientable,
    is_spin,
    sw_data,
    total_sw_class,
)

__version__ = "0.1.0"

__all__ = [
    "AffineIsometry",
    "BottMatrix",
    "CensusReport",
    "DimensionTooLarge",
    "F2Polynomial",
    "F2RowSpace",
    "KERNEL_BACKEND",
    "Monomial",
    "NotKahler",
    "NotStrictlyUpperTriangular",
    "PMatrix",
    "ReducedMatrix",
    "SWData",
    "admits_spin_oracle",
    "characteristic_ideal_deg2",
    "compose",
    "corollary_check",
    "deg2_to_vector",
    "enumerate_bott",
    "generators",
    "has_full_holonomy",
    "ideal_deg2",
    "is_free_action",
    "is_kahler",
    "is_orientable",
    "is_spin",
    "partition_space",
    "reduce",
    "run_census",
    "spin_main_theorem",
    "spin_oracle",
    "sw_data",
    "to_pmatrix",
    "total_sw_class",
]
