"""Span tracer that wraps conegen's public layer functions from the outside.

Each wrapped call records a span (name, start, end, parent index, counts).
Spans stay in memory; `aggregate` turns them into per-layer totals, where a
layer's self time is its span minus the time its direct child spans cover.
Nothing in the library is edited: the wrappers are installed into every
loaded conegen module namespace that imported the function by name, and
removed again by `uninstall`.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter


def _lp_counts(args, kwargs, out):
    return {"pivots": int(out.iterations), "optimal": int(out.status == "optimal")}


def _pg_counts(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def _pairs(arg):
    n = np.atleast_2d(np.asarray(arg)).shape[0]
    return {"pairs": n * n}


def _rows(args, kwargs, out):
    # value_many(self, Y)
    Y = args[1] if len(args) > 1 else kwargs["Y"]
    return {"rows": int(np.atleast_2d(np.asarray(Y)).shape[0])}


def _primal_counts(args, kwargs, out):
    return {"iterations": int(out.iterations),
            "capped": int(out.status == "iteration-cap")}


def _dual_counts(args, kwargs, out):
    return {"iterations": int(out.iterations), "capped": int(bool(out.capped))}


# (layer name, module, attribute, owning class or None, count function)
LAYERS = [
    ("numkernel.solve_lp", "conegen.numkernel", "solve_lp", None, _lp_counts),
    ("numkernel.projected_gradient", "conegen.numkernel", "projected_gradient", None,
     _pg_counts),
    ("cones.PolyhedralCone", "conegen.cones", "__init__", "PolyhedralCone", None),
    ("gauge.gauge", "conegen.gauge", "gauge", "GaugeBody", None),
    ("scalarization.value", "conegen.scalarization", "value", "GerstewitzFn", None),
    ("scalarization.value_many", "conegen.scalarization", "value_many", "GerstewitzFn",
     _rows),
    ("scalarization.subdifferential", "conegen.scalarization", "subdifferential",
     "GerstewitzFn", None),
    ("scalarization.directional_derivative", "conegen.scalarization",
     "directional_derivative", "GerstewitzFn", None),
    ("penalty.cone_lipschitz_rank", "conegen.penalty", "cone_lipschitz_rank", None,
     lambda a, k, out: _pairs(a[0] if a else k["points"])),
    ("penalty.cone_minimal_points", "conegen.penalty", "cone_minimal_points", None,
     lambda a, k, out: _pairs(a[0] if a else k["values"])),
    ("penalty.PenaltyInstance", "conegen.penalty", "__init__", "PenaltyInstance", None),
    ("penalty.verify_penalty_equivalence", "conegen.penalty",
     "verify_penalty_equivalence", None, None),
    ("duality.check_modified_slater", "conegen.duality", "check_modified_slater", None,
     None),
    ("duality.solve_primal", "conegen.duality", "solve_primal", None, _primal_counts),
    ("duality.solve_dual", "conegen.duality", "solve_dual", None, _dual_counts),
    ("duality.duality_gap_report", "conegen.duality", "duality_gap_report", None, None),
    ("demos.run_torsion_demo", "conegen.demos", "run_torsion_demo", None, None),
    ("lattice.hausdorff_distance", "conegen.lattice", "hausdorff_distance", None, None),
    ("lattice.verify_order_isometry", "conegen.lattice", "verify_order_isometry", None,
     None),
    ("problemfile.parse_problem", "conegen.problemfile", "parse_problem", None, None),
    ("cli.main", "conegen.cli", "main", None, None),
]


class Tracer:
    """Collects spans while installed; aggregate() summarises them."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, counts]
        self._open = []        # indices of open spans
        self._patches = []     # (owner, attribute, original)

    def _wrap(self, name, fn, count):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf(), 0.0, open_[-1] if open_ else -1, None])
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf()
                open_.pop()
            if count is not None:
                spans[idx][4] = count(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for name, modname, attr, cls, count in LAYERS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if cls is not None:
                owner = getattr(mod, cls)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(name, orig, count))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, count)
            for other in list(sys.modules.values()):
                modn = getattr(other, "__name__", "") or ""
                if (modn == "conegen" or modn.startswith("conegen.")) and \
                        other.__dict__.get(attr) is orig:
                    self._patch(other, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def aggregate(self) -> dict:
        """Per layer: calls, total_s, self_s, summed counts, and `lp` (solve_lp
        spans nested anywhere below the layer's spans)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, counts) in enumerate(spans):
            layer = out[name]
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += (end - start) - child[i]
            for key, val in (counts or {}).items():
                layer[key] += val
            if name == "numkernel.solve_lp":
                seen = set()
                while parent >= 0:
                    anc = spans[parent][0]
                    if anc not in seen:
                        out[anc]["lp"] += 1
                        seen.add(anc)
                    parent = spans[parent][3]
        return {k: dict(v) for k, v in out.items()}
