"""detvol: exact determinants and hyperbolic volume bounds for alternating links.

Computes link determinants as spanning-tree counts of checkerboard graphs
(always in exact integer arithmetic) and compares 2*pi*log(det) against
rigorous volume upper bounds for four alternating families: 2-bridge links,
alternating 3-braids, pretzel links, and the weaving closures of
(s1 s3 s2^-1)^n.
"""

from .families import (
    FamilySpec,
    Pretzel,
    ThreeBraid,
    TwoBridge,
    Weaving4,
    parse_spec,
    pretzel_det,
    threebraid_det,
    to_diagram,
    twobridge_det,
    v_function,
    weaving_det,
)
from .hypvol import (
    FaceVector,
    Real,
    adams_bound_exact,
    adams_bound_log,
    bipyramid_volume,
    lackenby_bound,
    lobachevsky,
    montesinos_bound,
    stoimenow_lower_bound,
)
from .multigraph import (
    Multigraph,
    contract,
    delete,
    laplacian,
    spanning_tree_count,
    spanning_tree_count_bruteforce,
    spanning_tree_count_deletion_contraction,
)
from .verify import (
    BoundReport,
    check,
    enumerate_pretzels,
    high_twist_threshold,
    stoimenow_certificate,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "FaceVector",
    "FamilySpec",
    "Multigraph",
    "Pretzel",
    "Real",
    "ThreeBraid",
    "TwoBridge",
    "Weaving4",
    "adams_bound_exact",
    "adams_bound_log",
    "bipyramid_volume",
    "check",
    "contract",
    "delete",
    "enumerate_pretzels",
    "high_twist_threshold",
    "lackenby_bound",
    "laplacian",
    "lobachevsky",
    "montesinos_bound",
    "parse_spec",
    "pretzel_det",
    "spanning_tree_count",
    "spanning_tree_count_bruteforce",
    "spanning_tree_count_deletion_contraction",
    "stoimenow_certificate",
    "stoimenow_lower_bound",
    "sweep",
    "threebraid_det",
    "to_diagram",
    "twobridge_det",
    "v_function",
    "weaving_det",
]
