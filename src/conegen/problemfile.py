"""Problem-file parsing and validation.

A problem file is JSON with a version tag, an ambient norm spec, a cone spec,
and exactly one program block (gauge, scalarize, penalty, duality, or
lattice). Validation happens before any computation; unknown keys are
rejected with the offending location.

Every array is read by numkernel's as_vector or as_matrix, which refuse a
non-finite entry, an extra axis and a wrong width, and their refusal is
raised at the key's location. The checks made here alone are the file's:
its keys and JSON types, integral and finite numbers, the feasible mask or
index list, positive weights, the counts that tie two keys together
(Q's rows to n, G's rows to the cone's dimension, points to values, and the
widths of the two vertex arrays), and the keys that come only with another
(g0 and e with G, h0 with H, each refused at its own key as the library
refuses it).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import PolyhedralCone
from .gauge import check_norm_p
from .numkernel import as_matrix, as_vector

# Each program block's keys: those it requires, in the order they are
# checked, and those it may hold besides.
_BLOCK_KEYS = {
    "gauge": (("u",), ()),
    "scalarize": (("e",), ()),
    "penalty": (("points", "values", "feasible", "rank", "e"), ()),
    "duality": (("n", "q", "box"), ("Q", "c", "G", "g0", "H", "h0", "e")),
    "lattice": (("a_vertices", "b_vertices"), ()),
}
BLOCKS = tuple(_BLOCK_KEYS)


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
    norm: NormSpec
    cone: PolyhedralCone | None
    block_name: str
    block: dict = field(default_factory=dict)


def _expect_keys(obj: dict, allowed: set, location: str):
    for key in obj:
        if key not in allowed:
            raise ProblemFormatError(f"unknown key {key!r}", location)


def _array(obj: dict, key: str, location: str, width: int | None = None,
           matrix: bool = False) -> np.ndarray:
    """obj[key] read by as_matrix (a vector as one row, of width columns) or
    by as_vector (a scalar as length 1, of width entries); the reader's
    refusal, which names the key, is raised at location."""
    try:
        return (as_matrix if matrix else as_vector)(obj[key], width, key)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(str(exc), location)


def _number(value, location: str, integer: bool = False):
    """A finite JSON number as a float, or as an int when integer is set (an
    integral float such as 3.0 counts)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not -math.inf < value < math.inf or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ProblemFormatError(f"expected {kind}, got {value!r}", location)
    return int(value) if integer else float(value)


def _parse_norm(obj, location: str, dim: int | None) -> NormSpec:
    if obj is None:
        return NormSpec()
    if not isinstance(obj, dict):
        raise ProblemFormatError("norm spec must be an object", location)
    _expect_keys(obj, {"p", "weights"}, location)
    p = obj.get("p", 2)
    try:
        p = check_norm_p(math.inf if p == "inf" else p)
    except ValueError:
        raise ProblemFormatError("p must be 1, 2 or \"inf\"", f"{location}.p")
    weights = None
    if "weights" in obj:
        weights = _array(obj, "weights", f"{location}.weights", dim)
        if np.any(weights <= 0):
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
        dim = _number(obj["dim"], f"{location}.dim", integer=True) if "dim" in obj \
            else None
        H, G = (_array(obj, key, f"{location}.{key}", dim, matrix=True)
                if key in obj else None for key in ("halfspaces", "generators"))
        if H is None and G is None:
            raise ProblemFormatError("general cone needs halfspaces or generators",
                                     location)
        if dim is None:
            dim = (H if H is not None else G).shape[1]
        try:
            return PolyhedralCone(dim, halfspaces=H, generators=G, kind="general")
        except ValueError as exc:
            raise ProblemFormatError(str(exc), location)
    raise ProblemFormatError(
        "kind must be \"coordinate\" or \"general\"",
        f"{location}.kind")


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
    if type(version) is not int or version != 1:   # an int: neither true nor 1.0
        raise ProblemFormatError(f"unsupported version {version!r}", "$.version")
    present = [b for b in BLOCKS if b in raw]
    if len(present) != 1:
        raise ProblemFormatError(
            f"exactly one program block required, found {present or 'none'}")
    name = present[0]
    block = raw[name]
    if not isinstance(block, dict):
        raise ProblemFormatError("block must be an object", f"$.{name}")
    required, optional = _BLOCK_KEYS[name]
    _expect_keys(block, {*required, *optional}, f"$.{name}")

    cone = None
    if "cone" in raw:
        cone = parse_cone(raw["cone"])
    elif name in ("gauge", "scalarize", "penalty", "duality"):
        raise ProblemFormatError(f"block {name!r} requires a cone", "$.cone")
    norm = _parse_norm(raw.get("norm"), "$.norm", None if cone is None else cone.dim)
    pf = ProblemFile(norm=norm, cone=cone, block_name=name, block=block)
    _validate_block(pf)
    return pf


def _require(block: dict, keys, location: str):
    for key in keys:
        if key not in block:
            raise ProblemFormatError(f"missing key {key!r}", location)


def _validate_block(pf: ProblemFile):
    name, block = pf.block_name, pf.block
    loc = f"$.{name}"
    required = _BLOCK_KEYS[name][0]
    _require(block, required, loc)
    if name in ("gauge", "scalarize"):
        (key,) = required
        block[key] = _array(block, key, f"{loc}.{key}", pf.cone.dim)
    elif name == "penalty":
        pts = _array(block, "points", f"{loc}.points", matrix=True)
        vals = _array(block, "values", f"{loc}.values", pf.cone.dim, matrix=True)
        if pts.shape[0] != vals.shape[0]:
            raise ProblemFormatError("points/values length mismatch", loc)
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
        block.update(points=pts, values=vals, feasible=mask,
                     e=_array(block, "e", f"{loc}.e", pf.cone.dim),
                     rank=_number(block["rank"], f"{loc}.rank"))
    elif name == "duality":
        n = block["n"] = _number(block["n"], f"{loc}.n", integer=True)
        if "c" in block:
            block["c"] = _number(block["c"], f"{loc}.c")
        box = block["box"]
        if not isinstance(box, dict):
            raise ProblemFormatError("box must be an object", f"{loc}.box")
        _expect_keys(box, {"lower", "upper"}, f"{loc}.box")
        _require(box, ("lower", "upper"), f"{loc}.box")
        block["box"] = {key: _array(box, key, f"{loc}.box", n) for key in ("lower", "upper")}
        from .duality import _box_width_is_finite
        if not _box_width_is_finite(block["box"]["lower"], block["box"]["upper"]):
            raise ProblemFormatError("box width upper - lower must be a finite float",
                                     f"{loc}.box")
        # g0 and h0 come with G and H, and e with G, as the library requires;
        # Q has n rows and G one per cone axis
        _require(block, [off for key, off in (("G", "g0"), ("H", "h0")) if key in block], loc)
        for key, owner in (("g0", "G"), ("h0", "H"), ("e", "G")):
            if key in block and owner not in block:
                raise ProblemFormatError(f"{key} given without {owner}", f"{loc}.{key}")
        m = pf.cone.dim
        for key, rows in (("Q", n), ("G", m), ("H", None)):
            if key in block:
                block[key] = A = _array(block, key, f"{loc}.{key}", n, matrix=True)
                if rows is not None and A.shape[0] != rows:
                    raise ProblemFormatError(f"{key} has {A.shape[0]} rows, expected {rows}",
                                             f"{loc}.{key}")
        k = block["H"].shape[0] if "H" in block else None
        for key, width in (("q", n), ("g0", m), ("h0", k), ("e", m)):
            if key in block:
                block[key] = _array(block, key, f"{loc}.{key}", width)
    elif name == "lattice":
        for key in required:
            block[key] = _array(block, key, f"{loc}.{key}", matrix=True)
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
