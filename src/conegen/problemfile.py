"""Problem-file parsing and validation.

A problem file is JSON with a version tag, an ambient norm spec, a cone spec,
and exactly one program block (gauge, scalarize, penalty, duality, or
lattice). Validation happens before any computation; unknown keys are
rejected with the offending location.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import InvalidCone, PolyhedralCone, UnsupportedRepresentation

BLOCKS = ("gauge", "scalarize", "penalty", "duality", "lattice")


class ProblemFormatError(ValueError):
    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass
class NormSpec:
    p: float = 2
    weights: np.ndarray | None = None


@dataclass
class ProblemFile:
    version: int
    norm: NormSpec
    cone: PolyhedralCone | None
    block_name: str
    block: dict = field(default_factory=dict)


def _expect_keys(obj: dict, allowed: set, location: str):
    for key in obj:
        if key not in allowed:
            raise ProblemFormatError(f"unknown key {key!r}", location)


def _matrix(value, location: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"not a numeric array: {exc}", location)
    if not np.all(np.isfinite(arr)):
        raise ProblemFormatError("entries must be finite", location)
    return arr


def _number(value, location: str, integer: bool = False):
    """A finite JSON number as a float, or as an int when integer is set (an
    integral float such as 3.0 counts)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not -math.inf < value < math.inf or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ProblemFormatError(f"expected {kind}, got {value!r}", location)
    return int(value) if integer else float(value)


def _parse_norm(obj, location: str) -> NormSpec:
    if obj is None:
        return NormSpec()
    if not isinstance(obj, dict):
        raise ProblemFormatError("norm spec must be an object", location)
    _expect_keys(obj, {"p", "weights"}, location)
    p = obj.get("p", 2)
    if p == "inf":
        p = math.inf
    if p not in (1, 2, math.inf):
        raise ProblemFormatError("p must be 1, 2 or \"inf\"", f"{location}.p")
    weights = None
    if "weights" in obj:
        weights = _matrix(obj["weights"], f"{location}.weights")
        if weights.ndim != 1 or np.any(weights <= 0):
            raise ProblemFormatError("weights must be positive", f"{location}.weights")
    return NormSpec(p=p, weights=weights)


def parse_cone(obj, location: str = "$.cone") -> PolyhedralCone:
    if not isinstance(obj, dict):
        raise ProblemFormatError("cone spec must be an object", location)
    kind = obj.get("kind")
    if kind == "coordinate":
        _expect_keys(obj, {"kind", "dim"}, location)
        if "dim" not in obj:
            raise ProblemFormatError("coordinate cone needs \"dim\"", location)
        return PolyhedralCone(_number(obj["dim"], f"{location}.dim", integer=True),
                              kind="coordinate")
    if kind == "general":
        _expect_keys(obj, {"kind", "dim", "halfspaces", "generators"}, location)
        H = _matrix(obj["halfspaces"], f"{location}.halfspaces") \
            if "halfspaces" in obj else None
        G = _matrix(obj["generators"], f"{location}.generators") \
            if "generators" in obj else None
        if H is None and G is None:
            raise ProblemFormatError("general cone needs halfspaces or generators",
                                     location)
        dim = _number(obj["dim"], f"{location}.dim", integer=True) if "dim" in obj \
            else (H if H is not None else G).shape[-1]
        try:
            return PolyhedralCone(dim, halfspaces=H, generators=G, kind="general")
        except (InvalidCone, UnsupportedRepresentation, ValueError) as exc:
            raise ProblemFormatError(str(exc), location)
    raise ProblemFormatError(
        "kind must be \"coordinate\" or \"general\"",
        f"{location}.kind")


_BLOCK_KEYS = {
    "gauge": {"u"},
    "scalarize": {"e"},
    "penalty": {"points", "feasible", "values", "rank", "e"},
    "duality": {"n", "Q", "q", "c", "box", "G", "g0", "H", "h0", "e"},
    "lattice": {"a_vertices", "b_vertices"},
}


def parse_problem(path: str) -> ProblemFile:
    """Read, validate and assemble a problem file; diagnostics carry the
    offending key and location."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read file: {exc}")
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ProblemFormatError("top level must be an object")
    allowed = {"version", "norm", "cone", *BLOCKS}
    _expect_keys(raw, allowed, "$")
    version = raw.get("version", 1)
    if version != 1:
        raise ProblemFormatError(f"unsupported version {version!r}", "$.version")
    present = [b for b in BLOCKS if b in raw]
    if len(present) != 1:
        raise ProblemFormatError(
            f"exactly one program block required, found {present or 'none'}")
    name = present[0]
    block = raw[name]
    if not isinstance(block, dict):
        raise ProblemFormatError("block must be an object", f"$.{name}")
    _expect_keys(block, _BLOCK_KEYS[name], f"$.{name}")

    norm = _parse_norm(raw.get("norm"), "$.norm")
    cone = None
    if "cone" in raw:
        cone = parse_cone(raw["cone"])
    elif name in ("gauge", "scalarize", "penalty", "duality"):
        raise ProblemFormatError(f"block {name!r} requires a cone", "$.cone")
    pf = ProblemFile(version=version, norm=norm, cone=cone, block_name=name,
                     block=block)
    _validate_block(pf)
    return pf


def _require(block: dict, keys, location: str):
    for key in keys:
        if key not in block:
            raise ProblemFormatError(f"missing key {key!r}", location)


def _validate_block(pf: ProblemFile):
    name, block = pf.block_name, pf.block
    loc = f"$.{name}"
    if name in ("gauge", "scalarize"):
        key = "u" if name == "gauge" else "e"
        _require(block, (key,), loc)
        vec = _matrix(block[key], f"{loc}.{key}")
        if vec.shape != (pf.cone.dim,):
            raise ProblemFormatError(f"{key} has wrong dimension", f"{loc}.{key}")
        block[key] = vec
    elif name == "penalty":
        _require(block, ("points", "values", "feasible", "rank", "e"), loc)
        pts = np.atleast_2d(_matrix(block["points"], f"{loc}.points"))
        vals = np.atleast_2d(_matrix(block["values"], f"{loc}.values"))
        if pts.shape[0] != vals.shape[0]:
            raise ProblemFormatError("points/values length mismatch", loc)
        if vals.shape[1] != pf.cone.dim:
            raise ProblemFormatError("values do not match the cone dimension",
                                     f"{loc}.values")
        feas, n, floc = block["feasible"], pts.shape[0], f"{loc}.feasible"
        if not isinstance(feas, list):
            raise ProblemFormatError("feasible must be a boolean mask or an index list",
                                     floc)
        if feas and all(isinstance(v, bool) for v in feas):
            # JSON booleans form a mask; integers are indices into the points
            if len(feas) != n:
                raise ProblemFormatError("feasible mask length mismatch", floc)
            mask = np.array(feas)
        else:
            mask = np.zeros(n, dtype=bool)
            for i, v in enumerate(feas):
                j = _number(v, f"{floc}[{i}]", integer=True)
                if not 0 <= j < n:
                    raise ProblemFormatError(f"index {j} outside [0, {n})", f"{floc}[{i}]")
                mask[j] = True
        e = np.atleast_1d(_matrix(block["e"], f"{loc}.e"))   # a scalar e is (1,)
        if e.shape != (pf.cone.dim,):
            raise ProblemFormatError(f"e has shape {e.shape}, expected {(pf.cone.dim,)}",
                                     f"{loc}.e")
        block.update(points=pts, values=vals, feasible=mask,
                     rank=_number(block["rank"], f"{loc}.rank"), e=e)
    elif name == "duality":
        _require(block, ("n", "q", "box"), loc)
        n = block["n"] = _number(block["n"], f"{loc}.n", integer=True)
        if "c" in block:
            block["c"] = _number(block["c"], f"{loc}.c")
        box = block["box"]
        if not isinstance(box, dict):
            raise ProblemFormatError("box must be an object", f"{loc}.box")
        _expect_keys(box, {"lower", "upper"}, f"{loc}.box")
        lower = _matrix(box.get("lower"), f"{loc}.box.lower")
        upper = _matrix(box.get("upper"), f"{loc}.box.upper")
        if lower.shape != (n,) or upper.shape != (n,):
            raise ProblemFormatError("box bounds must have length n", f"{loc}.box")
        # lifted as BoxProgram lifts them: a 1-D G or H is one row and a
        # scalar vector has length 1; g0 and h0 come with G and H
        for key in ("Q", "q", "G", "g0", "H", "h0", "e"):
            if key in block:
                arr = _matrix(block[key], f"{loc}.{key}")
                block[key] = arr if key == "Q" else \
                    np.atleast_2d(arr) if key in ("G", "H") else np.atleast_1d(arr)
        m = pf.cone.dim
        shapes = {"Q": (n, n), "q": (n,), "G": (m, n), "e": (m,)}
        if "G" in block:
            _require(block, ("g0",), loc)
            shapes["g0"] = (m,)
        if "H" in block:
            _require(block, ("h0",), loc)
            k = block["H"].shape[0]
            shapes.update(H=(k, n), h0=(k,))
        for key, shape in shapes.items():
            if key in block and block[key].shape != shape:
                raise ProblemFormatError(
                    f"{key} has shape {block[key].shape}, expected {shape}", f"{loc}.{key}")
        block["box"] = {"lower": lower, "upper": upper}
    elif name == "lattice":
        _require(block, ("a_vertices", "b_vertices"), loc)
        for key in ("a_vertices", "b_vertices"):
            block[key] = np.atleast_2d(_matrix(block[key], f"{loc}.{key}"))
        if block["a_vertices"].shape[1] != block["b_vertices"].shape[1]:
            raise ProblemFormatError("vertex arrays have different dimensions", loc)


def build_box_program(pf: ProblemFile):
    """Assemble the BoxProgram of a duality block."""
    from .duality import BoxProgram

    block = pf.block
    return BoxProgram(
        n=block["n"],
        Q=block.get("Q"),
        q=block["q"],
        c=block.get("c", 0.0),
        x_lo=block["box"]["lower"],
        x_hi=block["box"]["upper"],
        G=block.get("G"),
        g0=block.get("g0"),
        cone_y=pf.cone if "G" in block else None,
        H=block.get("H"),
        h0=block.get("h0"),
    )
