"""Fresh-process probe of the `conegen` CLI, one invocation per subcommand.

The parent writes small fixed problem files, then starts
`python3 cliprobe.py --child <conegen arguments>` once per subcommand. The
child notes when its first line runs, times `import conegen.cli`, traces
`cli.main` and the library layers below it, and prints one JSON line. The
parent checks each exit code and compares the JSON report with the same
computation done in its own process.
"""
import time

T_FIRST = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def child(argv):
    t0 = time.perf_counter()
    import conegen.cli
    import_s = time.perf_counter() - t0
    import spans
    out, err = io.StringIO(), io.StringIO()
    with spans.Tracer() as tracer, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = conegen.cli.main(argv)
    text = out.getvalue()
    print(json.dumps({"t_first": T_FIRST, "import_s": import_s, "exit": code,
                      "report": json.loads(text) if text.strip() else None,
                      "layers": tracer.aggregate()}))


def _problem_files(tmp: Path):
    import numpy as np

    pyramid = {"kind": "general", "dim": 3,
               "generators": [[1, 0, 0.4], [0, 1, 0.4], [-1, 0, 0.4], [0, -1, 0.4]]}
    rng = np.random.default_rng(2210)
    pts = rng.uniform(-1.0, 1.0, size=(30, 2))
    vals = pts @ rng.normal(size=(2, 2)).T + 0.3 * np.sin(3.0 * pts[:, ::-1])
    e = np.ones(2) / np.sqrt(2.0)
    diffs = (vals[:, None, :] - vals[None, :, :]).reshape(-1, 2)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2).ravel()
    off = dist > 0
    rank = float(np.max(np.max(diffs / e, axis=1)[off] / dist[off]))
    duality = {"n": 3, "q": [1.0, -2.0, 0.5],
               "box": {"lower": [-1, -1, -1], "upper": [1, 2, 1]},
               "G": [[1, 1, 0], [0, 1, -1]], "g0": [-1.5, -1.0]}
    files = {
        "gauge": {"cone": pyramid, "gauge": {"u": [0, 0, 1]}},
        "scalarize": {"cone": pyramid, "scalarize": {"e": [0, 0, 1]}},
        "penalty": {"cone": {"kind": "coordinate", "dim": 2},
                    "penalty": {"points": pts.tolist(), "values": vals.tolist(),
                                "feasible": (rng.random(30) < 0.3).tolist(),
                                "rank": rank, "e": e.tolist()}},
        "duality": {"cone": {"kind": "coordinate", "dim": 2}, "duality": duality},
        "lattice": {"lattice": {"a_vertices": [[0, 0], [2, 0], [2, 1], [0, 1]],
                                "b_vertices": [[0.5, -0.5], [3, 0.2], [1, 2]]}},
    }
    files["penalty"]["penalty"]["feasible"][0] = True
    paths = {}
    for name, body in files.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps({"version": 1, **body}))
    return paths, 1.1 * rank


def _in_process(name, argv, paths):
    """The value the CLI report must carry, computed in this process."""
    import numpy as np
    from conegen import cones, demos, duality, gauge, lattice, penalty, problemfile
    from conegen.scalarization import GerstewitzFn

    def parsed(key):
        return problemfile.parse_problem(str(paths[key]))

    point = np.array([0.3, -0.2, 0.5])
    if name == "gauge":
        pf = parsed("gauge")
        return "gauge", gauge.GaugeBody(pf.cone, pf.block["u"]).gauge(point)
    if name in ("scalarize", "subdiff"):
        pf = parsed("scalarize")
        return "value", GerstewitzFn(pf.cone, pf.block["e"]).value(point)
    if name in ("penalize", "minimal"):
        pf = parsed("penalty")
        if name == "minimal":
            return "minimal_indices", penalty.cone_minimal_points(
                pf.block["values"], pf.cone).tolist()
        b = pf.block
        inst = penalty.PenaltyInstance(points=b["points"], feasible_mask=b["feasible"],
                                       objective=None, cone=pf.cone, e=b["e"],
                                       rank=b["rank"], values=b["values"])
        return "minimal_penalized", penalty.verify_penalty_equivalence(
            inst, float(argv[-1])).minimal_penalized.tolist()
    if name == "duality":
        pf = parsed("duality")
        return "primal_value", duality.duality_gap_report(
            problemfile.build_box_program(pf), pf.block.get("e")).primal_value
    if name == "certify":
        prog = problemfile.build_box_program(parsed("duality"))
        objective = duality.VectorObjective(lins=prog.q[None, :], consts=[prog.c])
        cert = duality.stationarity_certificate(objective, cones.coordinate_cone(1),
                                                np.ones(1), np.array([-1.0, 0.5, 1.0]),
                                                prog.x_lo, prog.x_hi)
        return "certified", cert.to_dict()["certified"]
    if name == "hausdorff":
        pf = parsed("lattice")
        return "distance", lattice.hausdorff_distance(pf.block["a_vertices"],
                                                      pf.block["b_vertices"])[0]
    if name == "torsion":
        return "value", demos.run_torsion_demo(n_grid=12).value
    return "certified", demos.run_vi_demo(seed=0).certified


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))
    return a == b


def run_probe(root: Path, env: dict) -> dict:
    """Run every subcommand once in a fresh process; return per-invocation
    medians and any mismatches."""
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        paths, L = _problem_files(tmp)
        point = "0.3 -0.2 0.5"
        calls = [
            ("gauge", ["gauge", "--problem", str(paths["gauge"]), "--point", point]),
            ("scalarize", ["scalarize", "--problem", str(paths["scalarize"]),
                           "--point", point]),
            ("subdiff", ["subdiff", "--problem", str(paths["scalarize"]),
                         "--point", point]),
            ("penalize", ["penalize", "--problem", str(paths["penalty"]),
                          "--L", repr(L)]),
            ("minimal", ["minimal", "--problem", str(paths["penalty"])]),
            ("duality", ["duality", "--problem", str(paths["duality"])]),
            ("certify", ["certify", "--problem", str(paths["duality"]),
                         "--point", "-1 0.5 1"]),
            ("hausdorff", ["hausdorff", "--problem", str(paths["lattice"])]),
            ("torsion", ["demo", "torsion", "--grid", "12"]),
            ("vi", ["demo", "vi", "--seed", "0"]),
        ]
        samples = {"interpreter_s": [], "import_s": [], "main_self_s": [],
                   "parse_self_s": [], "wall_s": []}
        mismatches = []
        for name, argv in calls:
            t_spawn = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "cliprobe.py"), "--child",
                                   *argv], env=env, capture_output=True, text=True,
                                  timeout=120)
            wall = time.perf_counter() - t_spawn
            if proc.returncode != 0:
                mismatches.append(f"{name}: probe process exit {proc.returncode}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            layers = res["layers"]
            samples["interpreter_s"].append(res["t_first"] - t_spawn)
            samples["import_s"].append(res["import_s"])
            samples["main_self_s"].append(layers.get("cli.main", {}).get("self_s", 0.0))
            samples["parse_self_s"].append(
                layers.get("problemfile.parse_problem", {}).get("self_s", 0.0))
            samples["wall_s"].append(wall)
            if res["exit"] != 0:
                mismatches.append(f"{name}: exit code {res['exit']}, expected 0")
                continue
            key, want = _in_process(name, argv, paths)
            report = res["report"]
            got = report.get(key) if name != "torsion" else report["value"]
            if not _same(got, want):
                mismatches.append(f"{name}: report {key}={got!r}, in-process {want!r}")
        medians = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
        return {"medians": medians, "mismatches": mismatches}
    finally:
        for p in tmp.glob("*.json"):
            p.unlink()
        tmp.rmdir()


if __name__ == "__main__" and len(sys.argv) > 1 and sys.argv[1] == "--child":
    child(sys.argv[2:])
