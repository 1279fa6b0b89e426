"""conegen: ordering cones, order-interval gauges, Gerstewitz scalarization,
exact penalties, box-constrained Lagrange duality, and support-function
lattices, all at finite truncation with machine-checkable properties."""

from .cones import PolyhedralCone, coordinate_cone
from .gauge import GaugeBody, equivalence_constant
from .scalarization import GerstewitzFn
from .penalty import (PenaltyInstance, cone_lipschitz_rank, cone_minimal_points,
                      distance_to_set, verify_penalty_equivalence)
from .duality import (BoxProgram, Multipliers, VectorObjective,
                      check_modified_slater, dual_value, duality_gap_report,
                      solve_dual, solve_primal, stationarity_certificate)
from .lattice import hausdorff_distance, verify_order_isometry
from .numkernel import LPProblem, SolveReport, projected_gradient, solve_lp

__version__ = "0.1.0"
