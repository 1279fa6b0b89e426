"""Runnable demonstrations: discretized elastic-plastic torsion and a
variational inequality on a weighted finite-dimensional L2 space."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import default_tolerances, use_tolerances
from .cones import coordinate_cone
from .duality import (BoxProgram, VectorObjective, duality_gap_report,
                      stationarity_certificate)
from .numkernel import project_box, projected_gradient


@dataclass
class TorsionResult:
    grid: int
    load: float
    solution: np.ndarray
    value: float
    gap_report: dict

    def to_dict(self):
        return {"grid": self.grid, "load": self.load,
                "solution": self.solution.tolist(), "value": self.value,
                "gap": self.gap_report}


def build_torsion_program(n_grid: int = 12, load: float = 8.0) -> BoxProgram:
    """1-D torsion on a uniform grid over [0, 1] with zero boundary values.

    min 0.5 int u'^2 - load * int u  subject to  |u'| <= 1 pointwise,
    discretized with n_grid interior points: the slope constraint becomes
    |(u_{i+1} - u_i)/h| <= 1 on each of the n_grid + 1 intervals, two affine
    rows each, with the coordinate cone ordering the constraint space.
    """
    n = n_grid
    h = 1.0 / (n + 1)
    main = 2.0 * np.ones(n)
    K = (np.diag(main) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / h
    q = -load * h * np.ones(n)
    # difference matrix D u gives the n + 1 interval slopes times h
    D = np.zeros((n + 1, n))
    for i in range(n + 1):
        if i < n:
            D[i, i] = 1.0
        if i > 0:
            D[i, i - 1] = -1.0
    G = np.vstack([D, -D]) / h
    g0 = -np.ones(2 * (n + 1))
    return BoxProgram(n=n, Q=K, q=q, c=0.0, x_lo=np.zeros(n),
                      x_hi=0.6 * np.ones(n), G=G, g0=g0,
                      cone_y=coordinate_cone(2 * (n + 1)))


def run_torsion_demo(n_grid: int = 12, load: float = 8.0) -> TorsionResult:
    prog = build_torsion_program(n_grid, load)
    m = prog.m
    e = np.ones(m) / math.sqrt(m)
    report = duality_gap_report(prog, e)
    if report.primal_status != "optimal":
        raise RuntimeError(f"torsion primal solve returned {report.primal_status}")
    return TorsionResult(grid=n_grid, load=load, solution=report.witness,
                         value=report.primal_value, gap_report=report.to_dict())


@dataclass
class VIResult:
    point: np.ndarray
    operator_value: np.ndarray
    certificate: dict
    certified: bool

    def to_dict(self):
        return {"point": self.point.tolist(),
                "operator_value": self.operator_value.tolist(),
                "certificate": self.certificate, "certified": self.certified}


def run_vi_demo(seed: int = 0, n: int = 6) -> VIResult:
    """Variational inequality <T x, . - x> on a box in weighted R^n.

    The weights are a discrete probability measure, T is symmetric positive
    definite with positive entries, and the box sits strictly inside the
    positive cone. The weighted scalar VI is solved by projected gradient;
    the returned point is then certified against the composed-subdifferential
    necessary condition with the linearized objective diag(T x)(x - x_bar).
    """
    rng = np.random.default_rng(seed)
    w = np.full(n, 1.0 / n)
    R = rng.uniform(0.0, 1.0, size=(n, n))
    T = np.eye(n) + 0.3 * (R + R.T) / 2
    x_lo = 0.1 * np.ones(n)
    x_hi = 1.0 + rng.uniform(0.0, 0.5, size=n)
    W = np.diag(w)
    WT = W @ T

    rep = projected_gradient(lambda x: WT @ x,
                             lambda x: project_box(x, x_lo, x_hi),
                             0.5 * (x_lo + x_hi),
                             step=1.0 / float(np.max(np.linalg.eigvalsh(WT))),
                             objective=lambda x: 0.5 * x @ WT @ x)
    x_bar = rep.point
    v = T @ x_bar
    # linearized objective at the solution: F(x) = diag(v) (x - x_bar)
    objective = VectorObjective(lins=np.diag(v), consts=-v * x_bar)
    e = np.ones(n)  # unit vector of the weighted L2 norm: sum w_i = 1
    # a bound is active within the accuracy the projected gradient stopped at
    tols = default_tolerances()
    with use_tolerances(replace(tols, active_bound=tols.gradient_map)):
        cert = stationarity_certificate(objective, coordinate_cone(n), e, x_bar, x_lo, x_hi)
    d = cert.to_dict()
    return VIResult(point=x_bar, operator_value=v, certificate=d, certified=d["certified"])
