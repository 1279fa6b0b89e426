"""Test-only helpers for the duality suite.

random_multipliers draws a point of the dual cone: y in the constraint
cone's dual (a nonnegative combination of its halfspace rows), x1, x2 >= 0
on the box, and z free, from one rng, in that order. The weak-duality
checks evaluate the dual at such points.
"""
from __future__ import annotations

import numpy as np

from conegen.duality import BoxProgram, Multipliers


def random_multipliers(rng: np.random.Generator, prog: BoxProgram) -> Multipliers:
    A = prog._cone_rows
    y = np.abs(rng.normal(size=A.shape[0])) @ A
    return Multipliers(y=y, x1=np.abs(rng.normal(size=prog.n)),
                       x2=np.abs(rng.normal(size=prog.n)),
                       z=rng.normal(size=prog.k))
