"""Exact computation of twisted first Betti numbers of complexified real
line arrangements, with combinatorial upper bounds and an independent
Fox-calculus cross-check."""

from .cyclo import CycloNumber, rank
from .geometry import (
    Arrangement,
    Line,
    chambers,
    euler_characteristic,
    intersections,
    normalize,
    sharp_pairs,
)
from .local_system import LocalSystem, resonant_points
from .homology import h1, relation_matrix
from .bounds import beta_certificate, cdo_bound, r0_bound, sharp_pair_report
from .fox import decone, oracle_h1

__all__ = [
    "Arrangement",
    "CycloNumber",
    "Line",
    "LocalSystem",
    "beta_certificate",
    "cdo_bound",
    "chambers",
    "decone",
    "euler_characteristic",
    "h1",
    "intersections",
    "normalize",
    "oracle_h1",
    "r0_bound",
    "rank",
    "relation_matrix",
    "resonant_points",
    "sharp_pairs",
    "sharp_pair_report",
]
