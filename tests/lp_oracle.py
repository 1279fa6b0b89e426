"""LP and enumeration oracles for the order-interval gauge and the Gerstewitz
function, solved by the library's simplex, and an L-BFGS-B oracle for the
optimal value of a positive definite box QP.

They state each quantity by its definition, independently of the closed-form
halfspace ratio that the library evaluates:

    ||x||_u  = min lam  s.t.  lam u - x in C,  lam u + x in C,  lam >= 0
    phi(y)   = min t    s.t.  t e - y in C
    phi'(y;d) = max <y*, d>  s.t.  y* in C*, <y*, e> = 1, <y*, y> = phi(y)

and the subdifferential's vertices by exhaustive basis enumeration.
"""
import itertools
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

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


def dirder_lp(cone, e, y, d) -> float:
    """phi'(y; d) as the LP over the subdifferential, with C* = {G y* >= 0};
    +inf when the LP is unbounded."""
    e, y, d = (np.asarray(v, dtype=float) for v in (e, y, d))
    G = cone.generators
    rep = solve_lp(LPProblem(cost=-d, ineq_lhs=G, ineq_rhs=np.zeros(G.shape[0]),
                             eq_lhs=np.vstack([e, y]),
                             eq_rhs=np.array([1.0, phi_lp(cone, e, y)])))
    if rep.status == "unbounded":
        return math.inf
    if rep.status != "optimal":
        raise RuntimeError(f"directional derivative LP returned {rep.status}")
    return float(-rep.value)


def enumerate_polytope_vertices(ineq_lhs, ineq_rhs, eq_lhs=None, eq_rhs=None,
                                tol: float = 1e-9) -> np.ndarray:
    """Vertices of the polytope {x : ineq_lhs @ x >= ineq_rhs, eq_lhs @ x == eq_rhs}
    by exhaustive basis enumeration, deduplicated after rounding to 9 decimals."""
    A = np.atleast_2d(np.asarray(ineq_lhs, dtype=float))
    b = np.atleast_1d(np.asarray(ineq_rhs, dtype=float))
    dim = A.shape[1]
    if eq_lhs is None:
        E = np.zeros((0, dim))
        f = np.zeros(0)
    else:
        E = np.atleast_2d(np.asarray(eq_lhs, dtype=float))
        f = np.atleast_1d(np.asarray(eq_rhs, dtype=float))
    rank_eq = np.linalg.matrix_rank(E, tol=1e-10) if E.size else 0
    need = dim - rank_eq
    verts = {}
    for combo in itertools.combinations(range(A.shape[0]), need):
        M = np.vstack([E, A[list(combo)]]) if combo else E
        rhs = np.concatenate([f, b[list(combo)]]) if combo else f
        if M.shape[0] == 0:
            continue
        if np.linalg.matrix_rank(M, tol=1e-10) < dim:
            continue
        x, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.max(np.abs(M @ x - rhs)) > 1e-8:
            continue
        if A.shape[0] and np.min(A @ x - b) < -max(tol, 1e-8):
            continue
        verts.setdefault(tuple(np.round(x, 9) + 0.0), x)
    return np.array(list(verts.values())) if verts else np.zeros((0, dim))


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


def qp_dual_value(prog) -> float:
    """Optimal value of min 0.5 x'Qx + q'x + c s.t. A x <= b, Q positive
    definite, A stacking the box rows and the cone's halfspace rows A_C G (b:
    -A_C g0): the max over lam >= 0 of the dual c - 0.5 w'Q^-1 w - b'lam with
    w = q + A'lam, by L-BFGS-B. It shares no code with solve_primal."""
    n = prog.n
    A_c = prog.cone_y.halfspaces
    A = np.vstack([np.eye(n), -np.eye(n), A_c @ prog.G])
    b = np.concatenate([prog.x_hi, -prog.x_lo, -(A_c @ prog.g0)])
    chol = cho_factor(prog.Q)

    def negated_dual(lam):
        w = prog.q + A.T @ lam
        z = cho_solve(chol, w)
        return 0.5 * w @ z + b @ lam, A @ z + b

    res = minimize(negated_dual, np.zeros(A.shape[0]), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * A.shape[0],
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
    return prog.c - res.fun
