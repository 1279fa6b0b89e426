"""The public surface guard: every name that conegen/__init__.py exports and
every public module-level function of the package is read somewhere in the
package, the benchmark or the scripts, or is listed in ALLOWED with the
paper concept or the reason it stays.

A read is a `Name` or `Attribute` load in src/conegen/*.py, perfbench/*.py
or scripts/*.py, outside the name's own definition and outside
__init__.py. An import is not a read, and neither is a mention in a
docstring. So a name that only tests call fails here: delete it, or list it
with what it stands for.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conegen"
# __init__.py only exports: its imports are not reads
SCANNED = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + \
    sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# name: the paper concept it stands for, or the reason it stays unread
ALLOWED = {
    "convex_hull_2d": "the lattice join conv(A u B), which criterion 7 checks",
    "distance_to_set": "d(x, Omega); its _pair_norms is the byte reference for "
                       "PenaltyInstance.distances_to_omega",
    "equivalence_constant": "the constant of the equivalence of two generating-space norms",
    "hausdorff_distance_definitional": "the reference route of the Hausdorff distance",
    "verify_farkas": "the independent check of a Farkas infeasibility certificate",
    "projected_gradient": "deleted once the trace is in the package: perfbench/spans.py "
                          "names it (ROADMAP item 2)",
    "solve_dual": "deleted once the trace is in the package: perfbench/spans.py names it "
                  "(ROADMAP item 2)",
}


def public_names() -> dict[str, Path]:
    """{name: the module file that defines it} for every export of
    __init__.py and every public module-level function of the package."""
    names = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update((alias.name, PACKAGE / f"{node.module}.py") for alias in node.names)
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names[node.name] = path
    return names


def loads() -> set[tuple[Path, str | None, str]]:
    """(file, the top-level definition it lies in or None, name) for every
    Name and Attribute load of the scanned files."""
    found = set()
    for path in SCANNED:
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None) \
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add((path, owner, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    found.add((path, owner, node.attr))
    return found


def unread() -> set[str]:
    read = loads()
    return {name for name, module in public_names().items()
            if not any(n == name and (path, owner) != (module, name)
                       for path, owner, n in read)}


def test_every_public_name_is_read_or_allowed():
    assert sorted(unread() - ALLOWED.keys()) == []


def test_every_allowed_name_is_public_and_unread():
    # an entry whose name is gone, or read by now, is taken out of ALLOWED
    assert sorted(ALLOWED.keys() - unread()) == []
