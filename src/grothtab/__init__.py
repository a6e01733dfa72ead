"""grothtab: exact-arithmetic toolkit for set-valued tableaux,
Grothendieck/Schur polynomials, and terminating hypergeometric series,
with a registry of machine-checked identities tying them together."""

from .arith import binomial, format_rational, parse_rational
from .grothendieck import (
    count_svt_formula,
    elementary_symmetric,
    grothendieck_bialternant,
    grothendieck_tableau_sum,
    principal_specialization_q,
    refined_bialternant,
    schur_tableau_sum,
)
from .hypergeom import (
    HolmanInstance,
    NonTerminatingSeriesError,
    classical_summation_conditions,
    gauss_2f1_terminating,
    holman_series,
    shape_coupling,
)
from .identities import Grid, check_ids, run_all, run_check
from .partitions import Partition, count_sst_hook, count_sst_product, partitions_of
from .polynomials import Poly, determinant
from .tableaux import SetValuedTableau, enumerate_sst, enumerate_svt, is_valid

__version__ = "0.1.0"

__all__ = [
    "binomial", "format_rational", "parse_rational",
    "count_svt_formula", "elementary_symmetric",
    "grothendieck_bialternant", "grothendieck_tableau_sum",
    "principal_specialization_q", "refined_bialternant", "schur_tableau_sum",
    "HolmanInstance", "NonTerminatingSeriesError",
    "classical_summation_conditions", "gauss_2f1_terminating", "holman_series",
    "shape_coupling",
    "Grid", "check_ids", "run_all", "run_check",
    "Partition", "count_sst_hook", "count_sst_product", "partitions_of",
    "Poly", "determinant",
    "SetValuedTableau", "enumerate_sst", "enumerate_svt", "is_valid",
    "__version__",
]
