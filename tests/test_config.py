"""The tolerances have one source, the caps show in reports, and a scoped
override of the tolerances ends with its scope."""
import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import conegen
from conegen import duality, numkernel
from conegen.cli import EXIT_INPUT, main
from conegen.config import Tolerances, default_tolerances, use_tolerances
from conegen.cones import coordinate_cone
from conegen.duality import BoxProgram, duality_gap_report, solve_primal

PACKAGE = Path(conegen.__file__).parent


def _module_sources() -> str:
    return "\n".join(p.read_text() for p in sorted(PACKAGE.glob("*.py"))
                     if p.name != "config.py")


def test_every_tolerance_is_read_outside_config():
    text = _module_sources()
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


def test_docstring_names_exactly_the_fields():
    documented = re.findall(r"^    ([a-z_]+)(?=\s)", Tolerances.__doc__, flags=re.M)
    assert documented == [f.name for f in dataclasses.fields(Tolerances)]


def test_no_public_function_takes_a_tolerance():
    # use_tolerances is the one way to set a tolerance: no per-call parameter
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                args = node.args
                found += [f"{path.name}:{node.name}({a.arg})"
                          for a in args.posonlyargs + args.args + args.kwonlyargs
                          if a.arg == "tol" or a.arg.endswith("_tol")]
    assert found == []


def test_only_the_cli_sets_tolerances():
    # library code runs at the tolerances in force; cli.main alone opens a
    # use_tolerances scope, for --tol-override
    callers = {path.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and "use_tolerances" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))}
    assert callers == {"cli.py"}


def test_no_module_reads_the_environment():
    assert not re.search(r"\benviron\b|\bgetenv\b", _module_sources())


def test_simplex_cap_reaches_the_gap_report(monkeypatch):
    # min -sum(x) over [0, 1]^3 with x1 + x2 <= 0.5 and x2 + x3 <= 0.5: the
    # simplex starts at the corner (1, 1, 1), which violates both rows
    prog = BoxProgram(n=3, Q=np.zeros((3, 3)), q=-np.ones(3), c=0.0,
                      x_lo=np.zeros(3), x_hi=np.ones(3),
                      G=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
                      g0=np.array([-0.5, -0.5]), cone_y=coordinate_cone(2))
    assert solve_primal(prog).status == "optimal"
    assert solve_primal(prog).iterations >= 2
    monkeypatch.setattr(numkernel, "SIMPLEX_CAP", 1)
    capped = solve_primal(prog)
    assert (capped.status, capped.iterations) == ("iteration-cap", 1)
    assert duality_gap_report(prog).primal_status == "iteration-cap"


def _cut_qp(rhs):
    # min 0.5|x|^2 + x1 + x2 on [0, 1]^2 with x1 + x2 >= rhs
    return BoxProgram(n=2, Q=np.eye(2), q=np.ones(2), c=0.0, x_lo=np.zeros(2),
                      x_hi=np.ones(2), G=np.array([[-1.0, -1.0]]), g0=np.array([rhs]),
                      cone_y=coordinate_cone(1))


def test_active_set_cap_counts_the_phase_one_pivots(monkeypatch):
    prog = _cut_qp(1.5)   # the centre (0.5, 0.5) violates the cut: phase 1 runs
    pivots = duality._feasible_set_lp(prog, np.zeros(2)).iterations
    full = solve_primal(prog)
    assert full.status == "optimal" and full.iterations >= pivots + 2
    monkeypatch.setattr(duality, "ACTIVE_SET_CAP", 1)
    capped = solve_primal(prog)
    assert (capped.status, capped.iterations) == ("iteration-cap", pivots + 1)


def test_active_set_cap_counts_only_its_steps_from_the_centre(monkeypatch):
    prog = _cut_qp(1.0)   # the centre meets the cut: no phase-1 LP
    steps = duality._active_set_qp(prog, np.full(2, 0.5)).iterations
    monkeypatch.setattr(duality, "_feasible_set_lp", None)
    full = solve_primal(prog)
    assert full.status == "optimal" and full.iterations == steps >= 2
    monkeypatch.setattr(duality, "ACTIVE_SET_CAP", 1)
    capped = solve_primal(prog)
    assert (capped.status, capped.iterations) == ("iteration-cap", 1)


def test_use_tolerances_restores_when_the_body_raises():
    before = default_tolerances()
    inner = Tolerances(membership=0.5)
    with pytest.raises(RuntimeError):
        with use_tolerances(inner):
            assert default_tolerances() is inner
            raise RuntimeError
    assert default_tolerances() is before


def test_override_ends_with_an_input_error(capsys):
    outer = Tolerances(membership=1e-6)
    with use_tolerances(outer):
        code = main(["--tol-override", "1e-3", "gauge", "--problem",
                     "/nonexistent.json", "--point", "1"])
        assert code == EXIT_INPUT and "error" in capsys.readouterr().err
        assert default_tolerances() is outer
