import json

import numpy as np
import pytest

from conegen.cli import main
from conegen.problemfile import ProblemFormatError, parse_problem
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
                        "box": {"lower": [1.0], "upper": [2.0]}, "e": [1.0]},
        }))
        code, report, _ = run_cli(capsys, ["certify", "--problem", str(path),
                                           "--point", "1.0"])
        assert code == 0 and report["certified"]

    def test_hausdorff(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}))
        b.write_text(json.dumps({"vertices": [[0, 0]]}))
        code, report, _ = run_cli(capsys, ["hausdorff", "--a", str(a), "--b", str(b)])
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

    def test_problem_file_not_mutated(self, capsys, gauge_file):
        before = open(gauge_file).read()
        run_cli(capsys, ["gauge", "--problem", gauge_file, "--point", "1,1,1"])
        assert open(gauge_file).read() == before

    def test_wrong_block_for_command(self, capsys, gauge_file):
        code, _, err = run_cli(capsys, ["scalarize", "--problem", gauge_file,
                                        "--point", "1,1,1"])
        assert code == 2 and "block" in err


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


def test_tol_env_override(monkeypatch):
    from conegen.config import default_tolerances
    from conegen.cones import coordinate_cone
    monkeypatch.setenv("CONEGEN_TOL", "0.5")
    assert default_tolerances().membership == 0.5
    assert coordinate_cone(2).contains([1.0, -0.4])  # loose tolerance
    monkeypatch.delenv("CONEGEN_TOL")
    assert not coordinate_cone(2).contains([1.0, -0.4])


def test_tol_override_flag(capsys, tmp_path, monkeypatch):
    import os
    monkeypatch.delenv("CONEGEN_TOL", raising=False)
    path = tmp_path / "scal.json"
    path.write_text(json.dumps({
        "version": 1, "cone": {"kind": "coordinate", "dim": 2},
        "scalarize": {"e": [1.0, 1.0]},
    }))
    try:
        code, report, _ = run_cli(capsys, ["--tol-override", "1e-3", "scalarize",
                                           "--problem", str(path), "--point", "1,1"])
        assert code == 0 and report["value"] == pytest.approx(1.0)
        assert "CONEGEN_TOL" not in os.environ
    finally:
        os.environ.pop("CONEGEN_TOL", None)


def test_tol_override_ends_with_the_call(capsys, tmp_path, monkeypatch):
    # v_1 - v_0 = (-1, 1e-4) lies in -C at tolerance 1e-3 only
    import os
    from conegen.config import Tolerances, default_tolerances
    path = tmp_path / "pen.json"
    path.write_text(json.dumps({
        "version": 1, "cone": {"kind": "coordinate", "dim": 2},
        "penalty": {"points": [[0.0], [1.0]], "values": [[0.0, 0.0], [-1.0, 1e-4]],
                    "feasible": [0, 1], "rank": 2.0, "e": [0.6, 0.8]},
    }))
    argv = ["minimal", "--problem", str(path)]
    for env in (None, "1e-6"):
        if env is None:
            monkeypatch.delenv("CONEGEN_TOL", raising=False)
        else:
            monkeypatch.setenv("CONEGEN_TOL", env)
        _, report, _ = run_cli(capsys, ["--tol-override", "1e-3"] + argv)
        assert report["minimal_indices"] == [1]
        assert os.environ.get("CONEGEN_TOL") == env
        _, report, _ = run_cli(capsys, argv)
        assert report["minimal_indices"] == [0, 1]
    monkeypatch.delenv("CONEGEN_TOL")
    assert default_tolerances() == Tolerances()


def test_hausdorff_problem_block_with_directions(capsys, tmp_path):
    path = tmp_path / "lat.json"
    # sup-norm-style dual sample: the 1-norm sphere directions
    path.write_text(json.dumps({
        "version": 1,
        "lattice": {"a_vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
                    "b_vertices": [[2, 2], [2, -2], [-2, 2], [-2, -2]],
                    "directions": [[1, 0], [0, 1], [-1, 0], [0, -1],
                                   [0.5, 0.5], [0.5, -0.5], [-0.5, 0.5],
                                   [-0.5, -0.5]]},
    }))
    code, report, _ = run_cli(capsys, ["hausdorff", "--problem", str(path)])
    assert code == 0
    assert not report["exact"]
    assert report["distance"] == pytest.approx(1.0)  # sup-ball enlargement
