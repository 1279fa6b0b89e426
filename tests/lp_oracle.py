"""One-variable LP oracles for the order-interval gauge and the Gerstewitz
function, solved by the library's simplex.

They state both functionals by their defining infimum, independently of the
closed-form halfspace ratio that the library evaluates:

    ||x||_u = min lam  s.t.  lam u - x in C,  lam u + x in C,  lam >= 0
    phi(y)  = min t    s.t.  t e - y in C
"""
import math

import numpy as np

from conegen.cones import PolyhedralCone
from conegen.numkernel import LPProblem, solve_lp


def gauge_lp(cone, u, x) -> float:
    H = cone.halfspaces
    hu = H @ np.asarray(u, dtype=float)
    hx = H @ np.asarray(x, dtype=float)
    lhs = np.concatenate([hu, hu])[:, None]
    rhs = np.concatenate([hx, -hx])
    rep = solve_lp(LPProblem(cost=np.ones(1), ineq_lhs=lhs, ineq_rhs=rhs,
                             lower=np.zeros(1)))
    if rep.status != "optimal":
        return math.inf
    return float(rep.value)


def phi_lp(cone, e, y) -> float:
    H = cone.halfspaces
    rep = solve_lp(LPProblem(cost=np.ones(1),
                             ineq_lhs=(H @ np.asarray(e, dtype=float))[:, None],
                             ineq_rhs=H @ np.asarray(y, dtype=float)))
    if rep.status == "infeasible":
        return math.inf
    if rep.status != "optimal":
        raise RuntimeError(f"phi evaluation LP returned {rep.status}")
    return float(rep.value)


def oracle_cones() -> dict:
    """Non-coordinate cones for the LP-vs-kernel checks, each with an interior
    element: criterion 2's wedge and pyramid, criterion 3's halfspace wedge
    and simplicial cone, and a 4-D cone over a cube given by both of its
    descriptions (8 generators, 6 halfspaces)."""
    cube = np.array([[a, b, c, 1.0] for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                     for c in (-1.0, 1.0)])
    cones = {
        "wedge2": PolyhedralCone(2, generators=[[1.0, 0.0], [1.0, 1.0]]),
        "pyramid3": PolyhedralCone(3, generators=[[1, 0, 0.4], [0, 1, 0.4],
                                                  [-1, 0, 0.4], [0, -1, 0.4]]),
        "hwedge2": PolyhedralCone(2, halfspaces=[[1.0, 0.0], [1.0, 1.0]]),
        "simplicial3": PolyhedralCone(3, generators=[[1, 0, 0.5], [0, 1, 0.5],
                                                     [-1, -1, 1.0]]),
        "cube4": PolyhedralCone(4, generators=cube,
                                halfspaces=np.vstack([np.eye(4)[:3] + np.eye(4)[3],
                                                      np.eye(4)[3] - np.eye(4)[:3]])),
    }
    return {name: (cone, np.sum(cone.generators, axis=0)) for name, cone in cones.items()}
