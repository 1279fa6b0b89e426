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
    code, report, _ = run_cli(capsys, ["--tol-override", "1e-3", "scalarize",
                                       "--problem", str(path), "--point", "1,1"])
    assert code == 0 and report["value"] == pytest.approx(1.0)
    assert default_tolerances() is before


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
