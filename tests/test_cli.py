import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conegen
from conegen import demos
from conegen.cli import EXIT_VERIFICATION, main
from conegen.cones import coordinate_cone
from conegen.duality import VectorObjective, stationarity_certificate
from conegen.numkernel import FarkasCertificate, LPProblem, verify_farkas
from conegen.problemfile import _BLOCK_KEYS, ProblemFormatError, parse_problem
from lp_oracle import gauge_lp


@pytest.fixture
def gauge_file(tmp_path):
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps({
        "version": 1,
        "cone": {"kind": "coordinate", "dim": 3},
        "gauge": {"u": [0.5, 0.25, 0.125]},
    }))
    return str(path)


@pytest.fixture
def penalty_file(tmp_path):
    grid = np.arange(-2.0, 2.25, 0.25)
    path = tmp_path / "penalty.json"
    path.write_text(json.dumps({
        "version": 1,
        "cone": {"kind": "coordinate", "dim": 1},
        "penalty": {
            "points": [[v] for v in grid],
            "values": [[abs(v)] for v in grid],
            "feasible": [int(i) for i in np.where((grid >= 1) & (grid <= 2))[0]],
            "rank": 1.0,
            "e": [1.0],
        },
    }))
    return str(path)


@pytest.fixture
def duality_file(tmp_path):
    path = tmp_path / "duality.json"
    path.write_text(json.dumps({
        "version": 1,
        "cone": {"kind": "coordinate", "dim": 1},
        "duality": {
            "n": 2, "q": [1.0, 1.0],
            "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "G": [[-1.0, -1.0]], "g0": [1.0], "e": [1.0],
        },
    }))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestParse:
    def test_minimal_gauge_file(self, gauge_file):
        pf = parse_problem(gauge_file)
        assert pf.block_name == "gauge"
        assert pf.cone.kind == "coordinate"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "conee": {}, "gauge": {"u": [1]}}))
        with pytest.raises(ProblemFormatError, match="conee"):
            parse_problem(str(path))

    def test_cross_consistency_diagnostic(self, tmp_path):
        path = tmp_path / "bad_cone.json"
        path.write_text(json.dumps({
            "version": 1,
            "cone": {"kind": "general", "dim": 2,
                     "halfspaces": [[1.0, 0.0], [0.0, 1.0]],
                     "generators": [[1.0, -1.0], [0.0, 1.0]]},
            "gauge": {"u": [1.0, 1.0]},
        }))
        with pytest.raises(ProblemFormatError, match="cone"):
            parse_problem(str(path))

    def test_two_blocks_rejected(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "version": 1, "cone": {"kind": "coordinate", "dim": 1},
            "gauge": {"u": [1.0]}, "scalarize": {"e": [1.0]},
        }))
        with pytest.raises(ProblemFormatError, match="exactly one"):
            parse_problem(str(path))

    def test_dimension_inconsistency(self, tmp_path):
        path = tmp_path / "dim.json"
        path.write_text(json.dumps({
            "version": 1, "cone": {"kind": "coordinate", "dim": 3},
            "gauge": {"u": [1.0, 1.0]},
        }))
        with pytest.raises(ProblemFormatError):
            parse_problem(str(path))


class TestCommands:
    def test_gauge_roundtrip(self, capsys, gauge_file):
        code, report, err = run_cli(capsys, ["gauge", "--problem", gauge_file,
                                             "--point", "0.5,-0.25,0.125"])
        assert code == 0
        assert report["gauge"] == 1.0
        assert report["isometry_image"] == [1.0, -1.0, 1.0]
        assert "gauge" in err
        json.dumps(report)  # report itself re-serializes

    def test_subdiff_dim4(self, capsys, tmp_path):
        path = tmp_path / "cube4.json"
        cube = [[a, b, c, 1.0] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        facets = np.vstack([np.eye(4)[:3] + np.eye(4)[3], np.eye(4)[3] - np.eye(4)[:3]])
        path.write_text(json.dumps({
            "version": 1,
            "cone": {"kind": "general", "dim": 4, "generators": cube,
                     "halfspaces": facets.tolist()},
            "scalarize": {"e": [0.0, 0.0, 0.0, 1.0]},
        }))
        code, report, err = run_cli(capsys, ["subdiff", "--problem", str(path),
                                             "--point", "0.5,0,0,0"])
        assert code == 0 and "exact" not in report
        assert report["bounded"] and report["rays"] == []
        # phi(y) = 0.5 is attained on the facet x1 + x4 >= 0 alone
        assert np.allclose(report["vertices"], [[1.0, 0.0, 0.0, 1.0]])
        assert report["witness"] == report["vertices"][0]
        assert "1 vertices, 0 rays" in err
        code, report, err = run_cli(capsys, ["subdiff", "--problem", str(path),
                                             "--point", "0,0,0,0"])
        assert code == 0 and len(report["vertices"]) == 6 and "6 vertices, 0 rays" in err

    def test_gauge_general_cone(self, capsys, tmp_path):
        path = tmp_path / "pyramid.json"
        gens = [[1, 0, 0.4], [0, 1, 0.4], [-1, 0, 0.4], [0, -1, 0.4]]
        path.write_text(json.dumps({
            "version": 1,
            "cone": {"kind": "general", "dim": 3, "generators": gens},
            "gauge": {"u": [0.2, -0.1, 1.0]},
        }))
        code, report, _ = run_cli(capsys, ["gauge", "--problem", str(path),
                                           "--point", "0.5,-0.25,0.125"])
        assert code == 0
        cone = parse_problem(str(path)).cone
        assert report["gauge"] == pytest.approx(
            gauge_lp(cone, [0.2, -0.1, 1.0], [0.5, -0.25, 0.125]), abs=1e-9)
        H = cone.halfspaces
        image = np.array(report["isometry_image"])
        assert np.allclose(image, (H @ [0.5, -0.25, 0.125]) / (H @ [0.2, -0.1, 1.0]),
                           rtol=0, atol=1e-12)
        assert np.max(np.abs(image)) == report["gauge"]

    def test_penalize_ok(self, capsys, penalty_file):
        code, report, _ = run_cli(capsys, ["penalize", "--problem", penalty_file,
                                           "--L", "1.5"])
        assert code == 0 and report["equal"]

    def test_penalize_precondition_exit2(self, capsys, penalty_file):
        code, _, err = run_cli(capsys, ["penalize", "--problem", penalty_file,
                                        "--L", "0.5"])
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("L", ["nan", "inf"])
    def test_penalize_non_finite_weight_exit2(self, capsys, penalty_file, L):
        code, report, err = run_cli(capsys, ["penalize", "--problem", penalty_file,
                                             "--L", L])
        assert code == 2 and report is None
        assert err == f"error: penalty weight L={L} must be finite\n"

    def test_penalize_minus_inf_weight(self, capsys, penalty_file):
        # argparse reads a separate "-inf" as an option; "--L=-inf" reaches the check
        with pytest.raises(SystemExit) as exc:
            main(["penalize", "--problem", penalty_file, "--L", "-inf"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.splitlines()[-1] == \
            "conegen penalize: error: argument --L: expected one argument"
        code, report, err = run_cli(capsys, ["penalize", "--problem", penalty_file,
                                             "--L=-inf"])
        assert code == 2 and report is None
        assert err == "error: penalty weight L=-inf must be finite\n"

    def test_minimal(self, capsys, penalty_file):
        code, report, _ = run_cli(capsys, ["minimal", "--problem", penalty_file])
        assert code == 0
        assert report["minimal_points"] == [[0.0]]

    def test_duality_report(self, capsys, duality_file):
        code, report, _ = run_cli(capsys, ["duality", "--problem", duality_file])
        assert code == 0
        assert report["primal_value"] == pytest.approx(1.0, abs=1e-9)
        assert report["gap"] == pytest.approx(0.0, abs=1e-7)
        assert report["slater"]["satisfied"]

    def test_duality_reports_solver_facts(self, capsys, duality_file):
        code, report, _ = run_cli(capsys, ["duality", "--problem", duality_file])
        assert code == 0
        assert report["dual_status"] == "optimal"
        assert 0.0 <= report["kkt_residual"] <= 1e-6

    def test_certify(self, capsys, tmp_path):
        path = tmp_path / "qp.json"
        path.write_text(json.dumps({
            "version": 1, "cone": {"kind": "coordinate", "dim": 1},
            "duality": {"n": 1, "Q": [[2.0]], "q": [0.0], "c": 0.0,
                        "box": {"lower": [1.0], "upper": [2.0]}},
        }))
        code, report, _ = run_cli(capsys, ["certify", "--problem", str(path),
                                           "--point", "1.0"])
        assert code == 0 and report["certified"]

    def test_hausdorff(self, capsys, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({
            "version": 1,
            "lattice": {"a_vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
                        "b_vertices": [[0, 0]]},
        }))
        code, report, _ = run_cli(capsys, ["hausdorff", "--problem", str(path)])
        assert code == 0
        assert report["distance"] == pytest.approx(2 ** 0.5, abs=1e-12)

    def test_missing_file_exit2(self, capsys):
        code, _, err = run_cli(capsys, ["gauge", "--problem", "/nonexistent.json",
                                        "--point", "1"])
        assert code == 2 and "error" in err

    def test_demo_torsion(self, capsys):
        code, report, _ = run_cli(capsys, ["demo", "torsion", "--grid", "6"])
        assert code == 0
        assert report["gap"]["gap_ok"]

    def test_demo_vi(self, capsys):
        code, report, _ = run_cli(capsys, ["demo", "vi", "--seed", "3"])
        assert code == 0 and report["certified"]

    def test_demo_vi_refused_exits_1(self, capsys, monkeypatch):
        # certified at a point moved off its bounds, the certificate is refused
        certify = demos.stationarity_certificate
        monkeypatch.setattr(demos, "stationarity_certificate",
                            lambda f, cone, e, x, lo, hi: certify(f, cone, e, x + 0.3, lo, hi))
        code, report, _ = run_cli(capsys, ["demo", "vi", "--seed", "3"])
        assert code == EXIT_VERIFICATION == 1 and not report["certified"]

    def test_problem_file_not_mutated(self, capsys, gauge_file):
        before = open(gauge_file).read()
        run_cli(capsys, ["gauge", "--problem", gauge_file, "--point", "1,1,1"])
        assert open(gauge_file).read() == before

    def test_wrong_block_for_command(self, capsys, gauge_file, penalty_file,
                                     duality_file):
        # every problem-file subcommand refuses a file holding another block
        other = {"gauge": (penalty_file, "penalty"), "scalarize": (gauge_file, "gauge"),
                 "penalty": (duality_file, "duality"), "duality": (gauge_file, "gauge"),
                 "lattice": (penalty_file, "penalty")}
        for command, block, extra in [
                ("gauge", "gauge", ["--point", "1,1,1"]),
                ("scalarize", "scalarize", ["--point", "1,1,1"]),
                ("subdiff", "scalarize", ["--point", "1,1,1"]),
                ("penalize", "penalty", ["--L", "1"]),
                ("minimal", "penalty", []),
                ("duality", "duality", []),
                ("certify", "duality", ["--point", "0,0"]),
                ("hausdorff", "lattice", [])]:
            path, has = other[block]
            code, report, err = run_cli(capsys, [command, "--problem", path, *extra])
            assert code == 2 and report is None, command
            assert err == f"error: $: command needs a {block!r} block, file has {has!r}\n"


def test_penalize_verification_failure_exit1(capsys, tmp_path):
    # values closer together than the strict-order threshold: the penalized
    # minimal set legitimately grows and the equality report fails, which the
    # CLI surfaces as exit code 1 (the report itself still round-trips)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "version": 1,
        "cone": {"kind": "coordinate", "dim": 1},
        "penalty": {"points": [[0.0], [1.0]], "values": [[0.0], [5e-9]],
                    "feasible": [1], "rank": 5e-9, "e": [1.0]},
    }))
    code, report, _ = run_cli(capsys, ["penalize", "--problem", str(path),
                                       "--L", "7e-9"])
    assert code == 1
    assert not report["equal"]
    assert report["tol_sensitive"]


def test_penalize_weighted_norm_refused(capsys, tmp_path):
    # the penalty check measures ranks and distances in the unweighted norm, so
    # a weighted norm (under which rank 0.02 is valid here) is refused, not
    # silently replaced
    grid = np.arange(-2.0, 2.25, 0.25)
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({
        "version": 1,
        "norm": {"p": 2, "weights": [100]},
        "cone": {"kind": "coordinate", "dim": 1},
        "penalty": {
            "points": [[v] for v in grid],
            "values": [[abs(v)] for v in grid],
            "feasible": [int(i) for i in np.where((grid >= 1) & (grid <= 2))[0]],
            "rank": 0.02,
            "e": [1.0],
        },
    }))
    code, report, err = run_cli(capsys, ["penalize", "--problem", str(path),
                                         "--L", "0.05"])
    assert code == 2 and report is None
    assert "norm.weights" in err


def test_tol_scoped_override(monkeypatch):
    from conegen.config import DEFAULT_TOLERANCES, Tolerances, default_tolerances, use_tolerances
    from conegen.cones import coordinate_cone
    monkeypatch.setenv("CONEGEN_TOL", "0.5")  # no longer read
    assert default_tolerances() is DEFAULT_TOLERANCES
    with use_tolerances(Tolerances(membership=0.5)):
        assert default_tolerances().membership == 0.5
        assert coordinate_cone(2).contains([1.0, -0.4])  # loose tolerance
    assert not coordinate_cone(2).contains([1.0, -0.4])


def test_tol_override_flag(capsys, tmp_path):
    from conegen.config import default_tolerances
    path = tmp_path / "scal.json"
    path.write_text(json.dumps({
        "version": 1, "cone": {"kind": "coordinate", "dim": 2},
        "scalarize": {"e": [1.0, 1.0]},
    }))
    before = default_tolerances()
    for value in ("1e-3", "0"):   # T = 0 is exact membership, and legal
        code, report, _ = run_cli(capsys, ["--tol-override", value, "scalarize",
                                           "--problem", str(path), "--point", "1,1"])
        assert code == 0 and report["value"] == pytest.approx(1.0)
        assert default_tolerances() is before
        # the wedge cone{(1, 0), (1, 1)} builds from either description at T
        for rep, rows in (("generators", [[1.0, 0.0], [1.0, 1.0]]),
                          ("halfspaces", [[0.0, 1.0], [1.0, -1.0]])):
            wedge = _write(tmp_path, {"cone": {"kind": "general", rep: rows},
                                      "gauge": {"u": [2.0, 1.0]}})
            code, report, _ = run_cli(capsys, ["--tol-override", value, "gauge",
                                               "--problem", wedge, "--point", "1 0.5"])
            assert code == 0 and report["gauge"] == pytest.approx(0.5)


def test_tol_override_reaches_the_certificates_box_test(capsys, tmp_path):
    # 1e-6 below the box [1, 2]: outside at the default membership, and on
    # the active lower bound, where Q x > 0 meets the Fermat rule, at 1e-5
    path = _write(tmp_path, {"cone": {"kind": "coordinate", "dim": 1},
                             "duality": {"n": 1, "Q": [[2.0]], "q": [0.0],
                                         "box": {"lower": [1.0], "upper": [2.0]}}})
    argv = ["certify", "--problem", path, "--point", repr(1.0 - 1e-6)]
    code, report, _ = run_cli(capsys, argv)
    assert code == 0 and report["certified"] is False
    assert "outside the box" in report["reason"]
    code, report, _ = run_cli(capsys, ["--tol-override", "1e-5"] + argv)
    assert code == 0 and report["certified"] is True


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_tol_override_must_be_finite_and_nonnegative(capsys, tmp_path, value):
    # with nan, the gauge 0.5 against the ambient norm 1.118 of (1, 0.5)
    # used to pass unflagged; -1 and inf gave misleading cone errors
    path = _write(tmp_path, {"cone": {"kind": "general",
                                      "generators": [[1.0, 0.0], [1.0, 1.0]]},
                             "gauge": {"u": [2.0, 1.0]}})
    argv = ["gauge", "--problem", path, "--point", "1,0.5"]
    code, report, err = run_cli(capsys, ["--tol-override", value] + argv)
    assert code == 2 and report is None
    assert err == f"error: --tol-override must be finite and >= 0, got {float(value)}\n"
    code, report, _ = run_cli(capsys, argv)
    assert code == 0 and report["ambient_comparison"]["violations"] == [
        {"point": [1.0, 0.5], "gauge": 0.5, "ambient": math.hypot(1.0, 0.5)}]


def test_tol_override_minus_inf_is_read_as_an_option(capsys, gauge_file):
    # argparse reads a separate "-inf" as an option: a usage error, no report
    with pytest.raises(SystemExit) as exc:
        main(["--tol-override", "-inf", "gauge", "--problem", gauge_file,
              "--point", "1,1,1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == \
        "conegen: error: argument --tol-override: expected one argument"


def test_tol_override_ends_with_the_call(capsys, tmp_path):
    # v_1 - v_0 = (-1, 1e-4) lies in -C at tolerance 1e-3 only
    from conegen.config import Tolerances, default_tolerances, use_tolerances
    path = tmp_path / "pen.json"
    path.write_text(json.dumps({
        "version": 1, "cone": {"kind": "coordinate", "dim": 2},
        "penalty": {"points": [[0.0], [1.0]], "values": [[0.0, 0.0], [-1.0, 1e-4]],
                    "feasible": [0, 1], "rank": 2.0, "e": [0.6, 0.8]},
    }))
    argv = ["minimal", "--problem", str(path)]
    for outer in (default_tolerances(), Tolerances(membership=1e-6)):
        with use_tolerances(outer):
            _, report, _ = run_cli(capsys, ["--tol-override", "1e-3"] + argv)
            assert report["minimal_indices"] == [1]
            assert default_tolerances() is outer
            _, report, _ = run_cli(capsys, argv)
            assert report["minimal_indices"] == [0, 1]
    assert default_tolerances() == Tolerances()


def test_lattice_block_rejects_directions(capsys, tmp_path):
    # the exact route needs no direction sample, and the schema has none
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({
        "version": 1,
        "lattice": {"a_vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
                    "b_vertices": [[2, 2], [2, -2], [-2, 2], [-2, -2]],
                    "directions": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
    }))
    code, report, err = run_cli(capsys, ["hausdorff", "--problem", str(path)])
    assert code == 2 and report is None
    assert "unknown key 'directions'" in err


def test_hausdorff_3d_is_exact(capsys, tmp_path):
    path = tmp_path / "lat3.json"
    cube = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    path.write_text(json.dumps({
        "version": 1, "lattice": {"a_vertices": cube, "b_vertices": [[0, 0, 3]]},
    }))
    code, report, _ = run_cli(capsys, ["hausdorff", "--problem", str(path)])
    assert code == 0 and report["exact"] is True
    # the far corners (+-1, +-1, -1) are sqrt(1 + 1 + 16) from (0, 0, 3)
    assert report["distance"] == pytest.approx(18 ** 0.5, abs=1e-9)
    assert np.linalg.norm(report["certificate_direction"]) == pytest.approx(1.0, abs=1e-12)


def _write(tmp_path, body):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"version": 1, **body}))
    return str(path)


PENALTY = {"points": [[0.0], [1.0]], "values": [[0.0], [1.0]],
           "feasible": [0, 1], "rank": 1.0, "e": [1.0]}
DUALITY = {"n": 2, "q": [1.0, 1.0], "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}}


@pytest.mark.parametrize("command, body, location", [
    ("duality", {"cone": {"kind": "coordinate", "dim": 1},
                 "duality": {**DUALITY, "n": [2]}}, "$.duality.n"),
    ("duality", {"cone": {"kind": "coordinate", "dim": 1},
                 "duality": {**DUALITY, "n": 2.5}}, "$.duality.n"),
    ("duality", {"cone": {"kind": "coordinate", "dim": 1},
                 "duality": {**DUALITY, "c": [1]}}, "$.duality.c"),
    ("duality", {"cone": {"kind": "coordinate", "dim": [2]},
                 "duality": DUALITY}, "$.cone.dim"),
    ("minimal", {"cone": {"kind": "coordinate", "dim": 1},
                 "penalty": {**PENALTY, "rank": [1]}}, "$.penalty.rank"),
    ("minimal", {"cone": {"kind": "coordinate", "dim": 1},
                 "penalty": {**PENALTY, "feasible": True}}, "$.penalty.feasible"),
    ("minimal", {"cone": {"kind": "coordinate", "dim": 1},
                 "penalty": {**PENALTY, "feasible": [-1]}}, "$.penalty.feasible[0]"),
    ("minimal", {"cone": {"kind": "coordinate", "dim": 1},
                 "penalty": {**PENALTY, "feasible": [1, 2]}}, "$.penalty.feasible[1]"),
    ("minimal", {"cone": {"kind": "coordinate", "dim": 1},
                 "penalty": {**PENALTY, "feasible": [0.5]}}, "$.penalty.feasible[0]"),
    ("minimal", {"cone": {"kind": "coordinate", "dim": 1},
                 "penalty": {**PENALTY, "feasible": [True, 1]}}, "$.penalty.feasible[0]"),
], ids=["n-list", "n-fraction", "c-list", "dim-list", "rank-list", "feasible-true",
        "feasible-negative", "feasible-past-end", "feasible-fraction", "feasible-mixed"])
def test_malformed_numbers_exit2_at_their_key(capsys, tmp_path, command, body, location):
    code, report, err = run_cli(capsys, [command, "--problem", _write(tmp_path, body)])
    assert code == 2 and report is None
    assert f"error: {location}: " in err


CUT = {**DUALITY, "G": [[-1.0, -1.0]], "g0": [1.0]}


@pytest.mark.parametrize("command, block, location", [
    ("duality", {**CUT, "q": [1.0, 1.0, 1.0]}, "$.duality.q"),
    ("duality", {**CUT, "Q": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}, "$.duality.Q"),
    ("duality", {**CUT, "G": [[-1.0, -1.0, -1.0]]}, "$.duality.G"),
    ("duality", {**CUT, "g0": [1.0, 2.0]}, "$.duality.g0"),
    ("duality", {**CUT, "H": [[1.0, 1.0, 1.0]], "h0": [-1.0]}, "$.duality.H"),
    ("duality", {**CUT, "H": [[1.0, -1.0]], "h0": [0.0, 0.0]}, "$.duality.h0"),
    ("duality", {**CUT, "e": [1.0, 1.0]}, "$.duality.e"),
    ("minimal", {**PENALTY, "e": [1.0, 1.0]}, "$.penalty.e"),
], ids=["q", "Q", "G", "g0", "H", "h0", "duality-e", "penalty-e"])
def test_wrong_shapes_exit2_at_their_key(capsys, tmp_path, command, block, location):
    name = location.split(".")[1]
    body = {"cone": {"kind": "coordinate", "dim": 1}, name: block}
    code, report, err = run_cli(capsys, [command, "--problem", _write(tmp_path, body)])
    assert code == 2 and report is None
    assert f"error: {location}: " in err and "expected" in err


@pytest.mark.parametrize("block, key", [
    ({**DUALITY, "G": [[-1.0, -1.0]]}, "g0"),
    ({**DUALITY, "H": [[1.0, -1.0]]}, "h0"),
], ids=["G-without-g0", "H-without-h0"])
def test_offset_comes_with_its_matrix(capsys, tmp_path, block, key):
    body = {"cone": {"kind": "coordinate", "dim": 1}, "duality": block}
    code, report, err = run_cli(capsys, ["duality", "--problem", _write(tmp_path, body)])
    assert code == 2 and report is None
    assert f"error: $.duality: missing key '{key}'" in err


@pytest.mark.parametrize("command, name, lists, scalars", [
    ("duality", "duality",
     {"n": 1, "q": [1.0], "box": {"lower": [0.0], "upper": [1.0]},
      "G": [[1.0]], "g0": [-0.25], "H": [[2.0]], "h0": [-1.0], "e": [1.0]},
     {"q": 1.0, "G": [1.0], "g0": -0.25, "H": [2.0], "h0": -1.0, "e": 1.0}),
    ("minimal", "penalty", PENALTY, {"e": 1.0}),
], ids=["duality", "penalty"])
def test_scalar_vectors_and_one_row_matrices_at_dimension_one(
        capsys, tmp_path, command, name, lists, scalars):
    """A scalar vector is read as length 1 and a 1-D G or H as one row."""
    reports = []
    for block in (lists, {**lists, **scalars}):
        body = {"cone": {"kind": "coordinate", "dim": 1}, name: block}
        code, report, err = run_cli(capsys, [command, "--problem", _write(tmp_path, body)])
        assert code == 0, err
        reports.append(report)
    assert reports[0] == reports[1]


def test_integral_float_is_an_integer(capsys, tmp_path):
    path = _write(tmp_path, {"cone": {"kind": "coordinate", "dim": 1},
                             "penalty": {**PENALTY, "feasible": [1.0]}})
    code, report, _ = run_cli(capsys, ["minimal", "--problem", path])
    assert code == 0 and report["minimal_indices"] == [0]
    assert parse_problem(path).block["feasible"].tolist() == [False, True]


@pytest.mark.parametrize("body, needle", [
    ({"cone": {"kind": "weighted-coordinate", "weights": [1.0, 2.0]},
      "gauge": {"u": [1.0, 1.0]}}, "$.cone.kind"),
    ({"cone": {"kind": "coordinate", "dim": 2}, "generating_element": [1.0, 1.0],
      "gauge": {"u": [1.0, 1.0]}}, "unknown key 'generating_element'"),
    ({"cone": {"kind": "coordinate", "dim": 2}, "gauge": {}}, "missing key 'u'"),
], ids=["weighted-coordinate", "generating-element", "gauge-without-u"])
def test_removed_spellings_exit2(capsys, tmp_path, body, needle):
    code, report, err = run_cli(capsys, ["gauge", "--problem", _write(tmp_path, body),
                                         "--point", "1,1"])
    assert code == 2 and report is None
    assert needle in err


def test_hausdorff_vertex_files_flag_removed(capsys, tmp_path):
    # vertices come from a lattice block only; --a/--b are argparse errors
    path = _write(tmp_path, {"lattice": {"a_vertices": [[0, 0]], "b_vertices": [[1, 0]]}})
    for argv, needle in ((["--a", "A.json", "--b", "B.json"], "required: --problem"),
                         (["--problem", path, "--a", "A.json"], "unrecognized arguments: --a")):
        with pytest.raises(SystemExit) as exc:
            main(["hausdorff", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert needle in captured.err


COORD2 = {"kind": "coordinate", "dim": 2}
GAUGE = {"cone": COORD2, "gauge": {"u": [1.0, 1.0]}}
P1 = {"cone": {"kind": "coordinate", "dim": 1}, "penalty": PENALTY}
D1 = {"cone": {"kind": "coordinate", "dim": 1}, "duality": DUALITY}


@pytest.mark.parametrize("key, value, message", [
    ("h0", [1.0, 2.0, 3.0], "h0 given without H"),
    ("g0", [5.0, 5.0, 5.0], "g0 given without G"),
    ("e", [-1.0, 0.0, 0.0], "e given without G"),
], ids=["h0", "g0", "e"])
def test_stray_keys_exit2_at_their_key(capsys, tmp_path, key, value, message):
    # each was read and then dropped: the report answered another program
    block = {"n": 2, "q": [1.0, -1.0], "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
             key: value}
    body = {"cone": {"kind": "coordinate", "dim": 3}, "duality": block}
    code, report, err = run_cli(capsys, ["duality", "--problem", _write(tmp_path, body)])
    assert code == 2 and report is None
    assert f"error: $.duality.{key}: {message}" in err


@pytest.mark.parametrize("command, text, location", [
    ("gauge", {**GAUGE, "norm": [2]}, "$.norm"),
    ("gauge", {**GAUGE, "norm": {"p": 3}}, "$.norm.p"),
    ("gauge", {**GAUGE, "norm": {"p": True}}, "$.norm.p"),
    ("gauge", {**GAUGE, "norm": {"weights": [1.0, 0.0]}}, "$.norm.weights"),
    ("gauge", {**GAUGE, "cone": [1.0]}, "$.cone"),
    ("gauge", {**GAUGE, "cone": {"kind": "coordinate"}}, "$.cone"),
    ("gauge", {**GAUGE, "cone": {"kind": "general", "dim": 2}}, "$.cone"),
    ("gauge", "{", "$"),
    ("gauge", [GAUGE], "$"),
    ("gauge", {**GAUGE, "version": 2}, "$.version"),
    ("gauge", {**GAUGE, "version": True}, "$.version"),
    ("gauge", {**GAUGE, "version": 1.0}, "$.version"),
    ("gauge", {**GAUGE, "gauge": [1.0, 1.0]}, "$.gauge"),
    ("gauge", {"gauge": {"u": [1.0]}}, "$.cone"),
    ("minimal", {**P1, "penalty": {**PENALTY, "values": [[0.0]]}}, "$.penalty"),
    ("minimal", {**P1, "penalty": {**PENALTY, "values": [[0.0, 0.0], [1.0, 1.0]]}},
     "$.penalty.values"),
    ("minimal", {**P1, "penalty": {**PENALTY, "feasible": [True]}}, "$.penalty.feasible"),
    ("duality", {**D1, "duality": {**DUALITY, "box": [0.0, 1.0]}}, "$.duality.box"),
    ("duality", {**D1, "duality": {**DUALITY, "box": {"lower": [0.0], "upper": [1.0]}}},
     "$.duality.box"),
    ("duality", {**D1, "duality": {**DUALITY, "box": {"lower": [-1.7e308, 0.0],
                                                      "upper": [1.7e308, 1.0]}}},
     "$.duality.box"),
    ("hausdorff", {"lattice": {"a_vertices": [[0.0, 0.0]], "b_vertices": [[1.0, 0.0, 0.0]]}},
     "$.lattice"),
], ids=["norm-list", "norm-p3", "norm-p-true", "norm-weight-zero", "cone-list", "coordinate-no-dim",
        "general-empty", "invalid-json", "top-level-list", "version-2", "version-true",
        "version-float", "block-list", "missing-cone", "points-values-length",
        "values-dimension", "mask-length", "box-list", "box-length", "box-width-overflow",
        "lattice-dimensions"])
def test_rejections_exit2_at_their_location(capsys, tmp_path, command, text, location):
    path = tmp_path / "p.json"
    if isinstance(text, dict):
        text = {"version": 1, **text}
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    extra = ["--point", "1,1"] if command == "gauge" else []
    code, report, err = run_cli(capsys, [command, "--problem", str(path), *extra])
    assert code == 2 and report is None
    assert f"error: {location}: " in err


# One valid file per block that holds every key its block may hold; the
# gauge file also holds a general cone given both ways and norm weights
FULL = {
    "gauge": {"cone": {"kind": "general", "dim": 2, "halfspaces": [[1.0, 0.0], [0.0, 1.0]],
                       "generators": [[1.0, 0.0], [0.0, 1.0]]},
              "norm": {"weights": [1.0, 2.0]}, "gauge": {"u": [1.0, 1.0]}},
    "scalarize": {"cone": COORD2, "scalarize": {"e": [1.0, 1.0]}},
    "penalty": P1,
    "duality": {"cone": {"kind": "coordinate", "dim": 1},
                "duality": {**CUT, "Q": [[1.0, 0.0], [0.0, 1.0]], "c": 0.5,
                            "H": [[1.0, -1.0]], "h0": [0.0], "e": [1.0]}},
    "lattice": {"lattice": {"a_vertices": [[0.0, 0.0], [1.0, 0.0]],
                            "b_vertices": [[1.0, 1.0]]}},
}
NOT_ARRAYS = {"n", "c", "rank", "feasible", "box"}   # numbers, a list and an object
ARGV = {"gauge": ["gauge", "--point", "1,1"], "scalarize": ["scalarize", "--point", "1,1"],
        "penalty": ["minimal"], "duality": ["duality"], "lattice": ["hausdorff"]}


def _array_keys():
    """(block, path to the array in the file, location of its refusal) for
    every array of the schema: each key of _BLOCK_KEYS but NOT_ARRAYS, the
    box bounds, the cone's arrays and the norm's weights."""
    for block, (required, optional) in _BLOCK_KEYS.items():
        for key in (*required, *optional):
            if key not in NOT_ARRAYS:
                yield block, (block, key), f"$.{block}.{key}"
    for bound in ("lower", "upper"):
        yield "duality", ("duality", "box", bound), "$.duality.box"
    for path in (("cone", "halfspaces"), ("cone", "generators"), ("norm", "weights")):
        yield "gauge", path, "$." + ".".join(path)


def _nan_entry(value):
    return [_nan_entry(value[0]), *value[1:]] if isinstance(value, list) else math.nan


def _extra_entry(value, key):
    # one more column of a matrix, one more entry of a vector; the points
    # may have any width, and one more point is one more than the values
    if isinstance(value[0], list) and key != "points":
        return [row + row[-1:] for row in value]
    return value + value[-1:]


def _extra_axis(value):
    return [_extra_axis(v) for v in value] if isinstance(value, list) else [value]


# where a count ties two arrays, the refusal is at their block
TIED = {("points", "extra-entry"): "$.penalty", ("a_vertices", "extra-entry"): "$.lattice",
        ("b_vertices", "extra-entry"): "$.lattice"}


@pytest.mark.parametrize("block", sorted(_BLOCK_KEYS))
def test_full_files_are_read(capsys, tmp_path, block):
    code, _, err = run_cli(capsys, [*ARGV[block], "--problem", _write(tmp_path, FULL[block])])
    assert code == 0, err


@pytest.mark.parametrize("case", ["nan", "extra-entry", "extra-axis"])
@pytest.mark.parametrize("block, path, location", list(_array_keys()),
                         ids=[".".join(p) for _, p, _ in _array_keys()])
def test_every_array_key_is_read_at_its_location(capsys, tmp_path, block, path,
                                                 location, case):
    body = json.loads(json.dumps(FULL[block]))
    *parents, key = path
    obj = body
    for name in parents:
        obj = obj[name]
    if case == "nan":
        obj[key] = _nan_entry(obj[key])
    elif case == "extra-entry":
        obj[key] = _extra_entry(obj[key], key)
    else:
        obj[key] = _extra_axis(obj[key])
    code, report, err = run_cli(capsys, [*ARGV[block], "--problem", _write(tmp_path, body)])
    assert code == 2 and report is None
    assert f"error: {TIED.get((key, case), location)}: " in err


@pytest.mark.parametrize("block, body, message", [
    ("penalty", {**P1, "penalty": {**PENALTY, "points": [[[0.0]], [[1.0]]]}},
     "$.penalty.points: points must be two-dimensional"),
    ("lattice", {"lattice": {"a_vertices": [[[0.0, 0.0]]], "b_vertices": [[1.0, 0.0]]}},
     "$.lattice.a_vertices: a_vertices must be two-dimensional"),
    ("gauge", {**GAUGE, "norm": {"weights": [[1.0, 1.0]]}},
     "$.norm.weights: weights must be one-dimensional"),
    ("duality", {**D1, "duality": {**DUALITY, "box": {"upper": [1.0, 1.0]}}},
     "$.duality.box: missing key 'lower'"),
    ("duality", {**D1, "duality": {**DUALITY, "box": {"lower": [0.0, 0.0]}}},
     "$.duality.box: missing key 'upper'"),
], ids=["points-3d", "vertices-3d", "weights-2d", "box-without-lower", "box-without-upper"])
def test_malformed_arrays_are_refused_by_name(capsys, tmp_path, block, body, message):
    code, report, err = run_cli(capsys, [*ARGV[block], "--problem", _write(tmp_path, body)])
    assert code == 2 and report is None
    assert f"error: {message}" in err


# --- every key reaches the program its file poses

GRID = np.arange(-2.0, 2.25, 0.5)
# One file per block, the command that reads it all, and the key's place in
# the file: the cone and norm keys are read from the gauge file
BASE = {
    "gauge": (FULL["gauge"], ["gauge", "--point", "1,2"]),
    "scalarize": (FULL["scalarize"], ["subdiff", "--point", "1,2"]),
    "penalty": ({"cone": {"kind": "coordinate", "dim": 1},
                 "penalty": {"points": [[v] for v in GRID], "values": [[abs(v)] for v in GRID],
                             "feasible": [6, 7, 8], "rank": 1.0, "e": [1.0]}},
                ["penalize", "--L", "5"]),
    "duality": (FULL["duality"], ["duality"]),
    "lattice": (FULL["lattice"], ["hausdorff"]),
}
CONE_KEYS, NORM_KEYS = ("kind", "dim", "halfspaces", "generators"), ("p", "weights")
# (where, key): one changed well-formed value, and what it reaches: the
# report fields it moves, or the start of its refusal (exit 2)
MUTATIONS = {
    ("gauge", "u"): ([1.0, 4.0], {"gauge", "isometry_image", "ambient_comparison"}),
    ("scalarize", "e"): ([1.0, 2.0], {"value", "witness", "vertices"}),
    ("penalty", "points"): ([[v / 2] for v in GRID], "declared rank 1.0 violates"),
    ("penalty", "values"): ([[abs(v)] for v in GRID[:-2]] + [[0.75], [1.0]],
                            {"minimal_constrained", "minimal_penalized"}),
    ("penalty", "feasible"): ([0, 1], {"minimal_constrained", "minimal_penalized"}),
    ("penalty", "rank"): (3.0, {"rank"}),
    ("penalty", "e"): ([-1.0], "e must be interior to the cone"),
    ("duality", "n"): (3, "$.duality.box: lower has dimension 2, expected 3"),
    ("duality", "q"): ([1.0, 2.0], {"primal_value", "dual_value", "kkt_residual",
                                    "multipliers", "multipliers_lifted"}),
    ("duality", "box"): ({"lower": [0.0, 0.25], "upper": [1.0, 1.0]}, {"slater"}),
    ("duality", "Q"): ([[2.0, 0.0], [0.0, 1.0]], {"primal_value", "dual_value", "multipliers",
                                                  "multipliers_lifted"}),
    ("duality", "c"): (1.5, {"primal_value", "dual_value"}),
    ("duality", "G"): ([[-1.0, -2.0]], {"primal_value", "dual_value", "gap", "kkt_residual",
                                        "multipliers", "multipliers_lifted", "slater",
                                        "witness"}),
    ("duality", "g0"): ([1.5], {"primal_value", "dual_value", "kkt_residual", "multipliers",
                                "multipliers_lifted", "slater", "witness"}),
    ("duality", "H"): ([[1.0, -2.0]], {"primal_value", "dual_value", "gap", "kkt_residual",
                                       "multipliers", "multipliers_lifted", "slater",
                                       "witness"}),
    ("duality", "h0"): ([0.25], {"primal_value", "dual_value", "kkt_residual", "multipliers",
                                 "multipliers_lifted", "slater", "witness"}),
    ("duality", "e"): ([2.0], {"slater"}),
    ("lattice", "a_vertices"): ([[0.0, 0.0], [3.0, 0.0]], {"distance", "certificate_direction"}),
    ("lattice", "b_vertices"): ([[1.0, 2.0]], {"distance", "certificate_direction"}),
    ("cone", "kind"): ("coordinate", "$.cone: unknown key 'halfspaces'"),
    ("cone", "dim"): (3, "$.cone.halfspaces: halfspaces have dimension 2, expected 3"),
    ("cone", "halfspaces"): ([[0.0, 1.0], [1.0, 0.0]], {"isometry_image"}),
    ("cone", "generators"): ([[0.0, 1.0], [1.0, 0.0]], set()),
    ("norm", "p"): (1, {"ambient_comparison"}),
    ("norm", "weights"): ([3.0, 2.0], {"ambient_comparison"}),
}
# The keys whose change above moves no report field, and why
REACHES_NOTHING = {
    ("cone", "generators"): "given with the halfspaces, the generators are only checked "
                            "against them: the same cone in another order moves nothing, "
                            "and another cone is refused (test_cross_consistency_diagnostic)",
}


def test_every_key_has_a_mutation():
    keys = {(block, key) for block, (required, optional) in _BLOCK_KEYS.items()
            for key in (*required, *optional)}
    keys |= {("cone", key) for key in CONE_KEYS} | {("norm", key) for key in NORM_KEYS}
    assert set(MUTATIONS) == keys
    assert set(REACHES_NOTHING) == {k for k, (_, reach) in MUTATIONS.items() if reach == set()}


@pytest.mark.parametrize("where, key", sorted(MUTATIONS),
                         ids=[".".join(k) for k in sorted(MUTATIONS)])
def test_a_changed_key_changes_the_report_or_is_refused(capsys, tmp_path, where, key):
    body, argv = BASE[where if where in BASE else "gauge"]
    value, reaches = MUTATIONS[where, key]
    changed = json.loads(json.dumps(body))
    changed[where][key] = value
    code, before, err = run_cli(capsys, [*argv, "--problem", _write(tmp_path, body)])
    assert code == 0, err
    code, after, err = run_cli(capsys, [*argv, "--problem", _write(tmp_path, changed)])
    if isinstance(reaches, str):
        assert code == 2 and after is None
        assert err.startswith(f"error: {reaches}")
        return
    assert code == 0, err
    assert {f for f in {*before, *after} if before.get(f) != after.get(f)} == reaches


def test_unparsable_point_exit2(capsys, gauge_file):
    code, report, err = run_cli(capsys, ["gauge", "--problem", gauge_file,
                                         "--point", "1,x,1"])
    assert code == 2 and report is None
    assert "error: $: cannot parse point '1,x,1'" in err


def test_boolean_mask_reads_as_its_index_list(capsys, tmp_path):
    reports = []
    for feasible in ([0, 1], [True, True]):
        path = _write(tmp_path, {**P1, "penalty": {**PENALTY, "feasible": feasible}})
        assert parse_problem(path).block["feasible"].tolist() == [True, True]
        code, report, _ = run_cli(capsys, ["penalize", "--problem", path, "--L", "1.5"])
        assert code == 0
        reports.append(report)
    assert reports[0] == reports[1]


def test_p_inf_string_is_the_sup_norm(capsys, tmp_path):
    path = _write(tmp_path, {**GAUGE, "norm": {"p": "inf"}})
    assert parse_problem(path).norm.p == math.inf
    code, report, _ = run_cli(capsys, ["gauge", "--problem", path, "--point", "3,-4"])
    assert code == 0 and report["gauge"] == 4.0
    assert report["ambient_comparison"] == {"checked": 1, "violations": []}


def test_weighted_ambient_norm_in_the_gauge_report(capsys, tmp_path):
    # ||(1, 0)||_u = 1 for u = (1, 1), below the weighted sup-norm 2 |x_1|
    path = _write(tmp_path, {**GAUGE, "norm": {"p": "inf", "weights": [2.0, 1.0]}})
    code, report, _ = run_cli(capsys, ["gauge", "--problem", path, "--point", "1,0"])
    assert code == 0 and report["gauge"] == 1.0
    assert report["ambient_comparison"] == {
        "checked": 1,
        "violations": [{"point": [1.0, 0.0], "gauge": 1.0, "ambient": 2.0}]}


def test_general_cone_dimension_inferred(tmp_path):
    path = _write(tmp_path, {"cone": {"kind": "general",
                                      "generators": [[1.0, 0.0], [1.0, 1.0]]},
                             "gauge": {"u": [2.0, 1.0]}})
    assert parse_problem(path).cone.dim == 2


def test_certify_refusal_carries_a_farkas_certificate(capsys, tmp_path):
    # q = (1, -1) on [-1, 1]^2: at the interior point (0, 0) the Fermat rule
    # needs y* q = 0 with y* = 1, which no multiplier meets
    path = _write(tmp_path, {"cone": {"kind": "coordinate", "dim": 1},
                             "duality": {"n": 2, "q": [1.0, -1.0],
                                         "box": {"lower": [-1.0, -1.0],
                                                 "upper": [1.0, 1.0]}}})
    code, report, err = run_cli(capsys, ["certify", "--problem", path, "--point", "0,0"])
    assert code == 0 and report["certified"] is False
    assert report["reason"] == "no multiplier satisfies the Fermat rule"
    assert err.startswith("refused: ")
    refusal = stationarity_certificate(
        VectorObjective(lins=np.array([[1.0, -1.0]]), consts=np.zeros(1)),
        coordinate_cone(1), np.ones(1), np.zeros(2), -np.ones(2), np.ones(2))
    cert = FarkasCertificate(**{k: np.array(v) for k, v in report["farkas"].items()})
    assert verify_farkas(refusal.lp, cert)


def test_infeasible_primal_report_carries_a_farkas_certificate(capsys, tmp_path):
    # x in [0, 1] with g(x) = 2 - x in -R+, i.e. x >= 2: no feasible point
    G, g0 = np.array([[-1.0]]), np.array([2.0])
    path = _write(tmp_path, {"cone": {"kind": "coordinate", "dim": 1},
                             "duality": {"n": 1, "q": [1.0],
                                         "box": {"lower": [0.0], "upper": [1.0]},
                                         "G": G.tolist(), "g0": g0.tolist()}})
    code, report, err = run_cli(capsys, ["duality", "--problem", path])
    assert code == 0 and report["primal_status"] == "infeasible"
    assert err == "primal=None dual=None gap=None slater=False\n"
    # the feasible-set LP: the cone row -g(x) >= 0, i.e. -G x >= g0, on the box
    lp = LPProblem(cost=np.array([1.0]), ineq_lhs=-G, ineq_rhs=g0,
                   lower=np.zeros(1), upper=np.ones(1))
    cert = FarkasCertificate(**{k: np.array(v) for k, v in report["farkas"].items()})
    assert verify_farkas(lp, cert)


def test_tol_override_zero_subdiff_on_the_pyramid(capsys, tmp_path):
    # the facet rows come from the cone's conversion, not from membership:
    # at T = 0 the pyramid keeps its four facets and phi's one vertex
    path = _write(tmp_path, {"cone": {"kind": "general",
                                      "generators": [[1, 0, 0.4], [0, 1, 0.4],
                                                     [-1, 0, 0.4], [0, -1, 0.4]]},
                             "scalarize": {"e": [0.0, 0.0, 1.6]}})
    argv = ["subdiff", "--problem", path, "--point", "0.3 -0.2 0.1"]
    code, default, _ = run_cli(capsys, argv)
    assert code == 0 and len(default["vertices"]) == 1
    code, exact, err = run_cli(capsys, ["--tol-override", "0"] + argv)
    assert code == 0 and "1 vertices, 0 rays" in err
    assert exact["vertices"] == default["vertices"] and exact["value"] == default["value"]


def test_import_loads_no_scipy():
    # a fresh process pays about 0.3 s to import scipy.linalg after numpy,
    # on every CLI start and benchmark set-up; scipy is a test dependency only
    src = str(Path(conegen.__file__).resolve().parents[1])
    code = ("import sys, conegen, conegen.cli, conegen.demos, conegen.problemfile;"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
