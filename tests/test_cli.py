import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kolmo

from kolmo import cli, specfile
from kolmo.coefficients import GridField


@pytest.fixture()
def spec_path(tmp_path):
    return str(specfile.save(specfile.prototype_spec(),
                             tmp_path / "proto.json"))


def _checkerboard_doc(doc):
    """The prototype with a seeded checkerboard A0 from {1, 2}."""
    doc["coefficients"]["A0"] = {
        "kind": "checkerboard", "values": [[[1.0]], [[2.0]]],
        "h": 0.5, "dim": 2, "seed": 1}
    return doc


@pytest.fixture()
def cb_spec_path(tmp_path):
    p = tmp_path / "cb.json"
    p.write_text(json.dumps(_checkerboard_doc(
        specfile.prototype_spec().to_dict())))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_structure_ok(spec_path, capsys):
    code, out = run(capsys, ["structure", spec_path])
    rep = json.loads(out)
    assert code == 0
    assert rep["report"]["hypoelliptic"] is True
    assert rep["Q"] == 4


def test_structure_zero_coupling_exit_3(tmp_path, capsys):
    doc = specfile.prototype_spec().to_dict()
    doc["structure"]["B"] = [[0.0, 0.0], [0.0, 0.0]]
    p = tmp_path / "deg.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["structure", str(p)]) == cli.EXIT_STRUCTURE


def test_malformed_spec_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert cli.main(["structure", str(p)]) == cli.EXIT_PARSE


def test_non_canonical_exit_3(tmp_path, capsys):
    doc = specfile.prototype_spec().to_dict()
    doc["structure"]["B"] = [[1.0, 0.0], [1.0, 0.0]]
    p = tmp_path / "nc.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["structure", str(p)]) == cli.EXIT_STRUCTURE


def test_not_spd_exit_4(tmp_path, capsys):
    doc = specfile.prototype_spec().to_dict()
    doc["coefficients"]["A0"] = {"kind": "constant", "value": [[-1.0]]}
    p = tmp_path / "neg.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["mc", "simulate", str(p), "--paths", "100",
                     "--dt", "1e-2"]) == cli.EXIT_NOTSPD


def test_unstable_dt_exit_5(spec_path, tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    assert cli.main(["solve", "cauchy", spec_path, "--box=-4,4;-2,2",
                     "--nx", "41,41", "--t1", "0.3", "--dt", "0.05",
                     "--out", out]) == cli.EXIT_SOLVER


@pytest.mark.filterwarnings("ignore:boundary magnitude")
def test_declared_Lambda_bounds_the_step(step_A0, tmp_path, capsys):
    """The spec's declared Lambda bounds the time step: an A0 that steps
    from 1 to 4 after the start, where the probe reads 1, gives a finite,
    non-negative slice, not values of order 1e9 with exit 0."""
    specfile.save_grid_field(step_A0, tmp_path / "a0.csv")
    proto = specfile.prototype_spec()
    p = specfile.save(specfile.OperatorSpec(
        structure=proto.structure, B=proto.B, fields={"A0": step_A0},
        window=(0.0, 1.0), ellipticity=(1.0, 4.0)), tmp_path / "step.json")
    out = tmp_path / "c.csv"
    code, rep = run(capsys, ["solve", "cauchy", str(p), "--box=-4,4;-4,4",
                             "--nx", "41,41", "--t0", "-0.1", "--t1", "0.3",
                             "--out", str(out)])
    assert code == 0
    assert json.loads(rep)["Lambda"] == 4.0
    vals = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2]
    assert np.all(np.isfinite(vals))
    assert np.min(vals) >= -64 * np.finfo(float).eps * np.max(vals)


@pytest.mark.parametrize("cmd", ["cauchy", "fundamental"])
@pytest.mark.parametrize("nx", ["1,21", "21,1", "21", "21,21,21", "21,x"])
def test_solve_bad_nx_exit_2(spec_path, tmp_path, capsys, cmd, nx):
    """An axis with fewer nodes than the transport supports, or the wrong
    number of axes, is a parse error, not a traceback."""
    assert cli.main(["solve", cmd, spec_path, "--box=-4,4;-2,2",
                     "--nx", nx, "--t1", "0.3",
                     "--out", str(tmp_path / "c.csv")]) == cli.EXIT_PARSE
    assert "--nx" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mc", "simulate", "{spec}", "--x0", "1", "--paths", "10",
     "--out", "e.csv"],
    ["mc", "mass", "{spec}", "--y", "1", "--paths", "10"],
    ["check", "harnack", "{spec}", "--pole", "1"],
    ["check", "harnack", "{spec}", "--center", "0,0,0"],
], ids=lambda a: a[3])
def test_point_option_needs_N_components(spec_path, tmp_path, capsys,
                                         monkeypatch, argv):
    """A point option with the wrong number of components is a parse
    error, not a broadcast point or a traceback."""
    monkeypatch.chdir(tmp_path)
    assert cli.main([a.format(spec=spec_path) for a in argv]) \
        == cli.EXIT_PARSE
    assert argv[3] + " needs 2 components" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel", "eval", "{spec}", "--pole", "0,0",
     "--grid", "0:1;0:0:1;1:1:1", "--out", "k.csv"],
    ["kernel", "eval", "{spec}", "--pole", "0,0",
     "--grid", "0:1:0;0:0:1;1:1:1", "--out", "k.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4", "--nx", "21,21",
     "--t1", "0.3", "--out", "c.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;2,-2", "--nx", "21,21",
     "--t1", "0.3", "--out", "c.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,x", "--nx", "21,21",
     "--t1", "0.3", "--out", "c.csv"],
    ["kernel", "eval", "{spec}", "--pole", "0,0", "--points", "pts.csv",
     "--out", "k.csv"],
    ["mc", "density", "{spec}", "--box=-3,3;-2,2", "--bins", "12",
     "--paths", "10", "--out", "d.csv"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "21,41",
     "--t1", "0.8", "--widths", "0.45,x", "--out", "f.csv"],
    ["mollify", "{spec}", "--eps", "0.2,x", "--samples", "10"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3", "--datum", "gaussian:-0.1", "--out", "c.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3", "--datum", "gaussian:x", "--out", "c.csv"],
    ["mc", "mass", "{spec}", "--paths", "0"],
    ["mc", "mass", "{spec}", "--paths", "10", "--dt", "-1"],
    ["mollify", "{spec}", "--eps", "0,0.1", "--samples", "10"],
    ["--threads", "0", "mc", "mass", "{spec}", "--paths", "10"],
    ["--threads", "-4", "mc", "simulate", "{spec}", "--paths", "10",
     "--out", "e.csv"],
    ["mc", "mass", "{spec}", "--paths", "10", "--t0", "0.5", "--t1", "0.2"],
    ["mc", "simulate", "{spec}", "--paths", "10", "--t1", "0.0",
     "--out", "e.csv"],
    ["kernel", "eval", "{spec}", "--pole", "0,0", "--lam", "0",
     "--grid", "0:0:1;0:0:1;1:1:1", "--out", "e.csv"],
    ["--threads", "0", "structure", "{spec}"],
    ["--threads", "-3", "kernel", "eval", "{spec}", "--pole", "0,0",
     "--grid", "0:0:1;0:0:1;1:1:1", "--out", "e.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t0", "0.5", "--t1", "0.1", "--out", "c.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t0", "0.0", "--t1", "0.1", "--datum", "gaussian:0.1",
     "--out", "c.csv"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "21,41",
     "--t1", "0.2", "--out", "f.csv"],
    ["check", "bounds", "{spec}", "--nx", "21,41", "--widths", "1.5,0.5"],
    ["kernel", "reproduce", "{spec}", "--configs", "0"],
    ["check", "global", "{spec}", "--pairs", "0"],
    ["mollify", "{spec}", "--samples", "0"],
    ["mollify", "{spec}", "--samples", "-3"],
    ["check", "bounds", "{spec}", "--self-test", "--samples", "0"],
    ["check", "harnack", "{spec}", "--radius", "0"],
    ["check", "harnack", "{spec}", "--radius", "-0.4"],
    ["check", "harnack", "{spec}", "--omega", "2"],
    ["check", "harnack", "{spec}", "--sweep", "-1"],
    ["check", "cone", "{spec}", "--beta", "0"],
    ["check", "cone", "{spec}", "--R", "0"],
    ["check", "cone", "{spec}", "--radius", "0"],
    ["mc", "mass", "{spec}", "--paths", "10", "--radius", "-1"],
], ids=["grid-part", "grid-nodes", "box-count", "box-order", "box-number",
        "points-width", "bins", "widths", "eps", "datum-width",
        "datum-number", "mc-paths", "mc-dt", "eps-range", "threads-zero",
        "threads-negative", "mc-reversed-window", "mc-empty-window",
        "kernel-lam", "threads-structure", "threads-kernel",
        "solve-reversed-window", "solve-empty-window",
        "fundamental-width-past-t1", "bounds-width-past-t1",
        "reproduce-configs", "global-pairs", "mollify-samples-zero",
        "mollify-samples-negative", "bounds-samples", "harnack-radius-zero",
        "harnack-radius-negative", "harnack-omega", "harnack-sweep",
        "cone-beta", "cone-R", "cone-radius", "mc-mass-radius"])
def test_malformed_option_exit_2(spec_path, tmp_path, capsys, monkeypatch,
                                 argv):
    """Malformed option values exit 2, through SpecError or the library's
    own argument checks (ArgumentError), instead of ending in a traceback, in a run that ignores
    them or, for a points file of the wrong width, in rows under the wrong
    header."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.csv").write_text("x1,t\n0,1\n")
    assert cli.main([a.format(spec=spec_path) for a in argv]) \
        == cli.EXIT_PARSE
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.glob("*.csv")] == ["pts.csv"]


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError, ValueError])
def test_other_value_error_is_not_exit_2(spec_path, monkeypatch, exc):
    """Only the library's argument checks exit 2: any other ValueError,
    numpy's LinAlgError among them, ends in its traceback."""
    def fail(*args, **kwargs):
        raise exc("raised inside the command")

    monkeypatch.setattr(cli.mcmod, "simulate", fail)
    with pytest.raises(exc, match="inside the command"):
        cli.main(["mc", "mass", spec_path, "--paths", "10"])


def _reference_csv(path, header, rows):
    """The writer as it was: csv.writer with one f-string per value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{float(v):.17g}" for v in row])


@pytest.mark.parametrize("case", ["specials", "blocks", "list", "empty"])
def test_write_csv_matches_csv_writer(tmp_path, case):
    """The block writer gives csv.writer's bytes: signed zero, nan, +-inf,
    subnormals, large and integral floats, a list-of-lists input, more
    rows than one block and zero rows."""
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e22, 3.0,
                -17.0, 0.1, 1 / 3, 2.0 ** 60, -1e-300]
    if case == "specials":
        rows = np.array(specials[:12]).reshape(4, 3)
    elif case == "blocks":
        n = 2 * specfile.CSV_BLOCK + 7
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300,
                                                              (n, 3))
        rows[::97, 1] = np.resize(specials, len(rows[::97]))
    elif case == "list":
        rows = [[v, 1, 2.5] for v in specials]
    else:
        rows = np.empty((0, 3))
    header = ["x1", "x2", "value"]
    cli.write_csv(tmp_path / "new.csv", header, rows)
    _reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("shape", [(), (2,)])
def test_grid_field_sidecar_matches_csv_writer(tmp_path, shape):
    """save_grid_field writes through the one CSV writer: its bytes are
    csv.writer's for the same header and rows, scalar and vector values."""
    rng = np.random.default_rng(1)
    axes = [np.sort(rng.normal(size=4)), np.sort(rng.normal(size=3))]
    taxis = np.array([0.0, 1 / 3, 1.0])
    f = GridField(axes, taxis, rng.normal(size=(4, 3, 3) + shape) * 1e-7)
    specfile.save_grid_field(f, tmp_path / "grid.csv")
    grids = np.meshgrid(*axes, taxis, indexing="ij")
    rows = np.column_stack([g.ravel() for g in grids]
                           + [f.values.reshape(36, -1)])
    header = ["x1", "x2", "t"] + (["v1", "v2"] if shape else ["value"])
    _reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "grid.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_kernel_eval_matches_oracle(spec_path, tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, _ = run(capsys, ["kernel", "eval", spec_path, "--pole", "0,0",
                           "--t0", "0", "--grid", "0:0:1;0:0:1;1:1:1",
                           "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].split(",")[-1] == "value"
    val = float(rows[1].split(",")[-1])
    assert abs(val - np.sqrt(12.0) / (4.0 * np.pi)) < 1e-14


def test_kernel_homogeneity_flag(spec_path, tmp_path, capsys):
    code, out = run(capsys, ["kernel", "eval", spec_path, "--pole", "0,0",
                             "--grid", "0:0:1;0:0:1;1:1:1",
                             "--check-homogeneity",
                             "--out", str(tmp_path / "k.csv")])
    assert code == 0
    assert json.loads(out)["homogeneity_max_defect"] < 1e-10


def test_mc_density_deterministic_across_threads(spec_path, tmp_path,
                                                 capsys):
    outs = []
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"d{i}.csv"
        code, _ = run(capsys, ["--threads", str(threads), "mc", "density",
                               spec_path, "--paths", "20000", "--dt",
                               "1e-2", "--seed", "7", "--box=-3,3;-2,2",
                               "--bins", "12,12", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_check_bounds_self_test(spec_path, capsys):
    code, out = run(capsys, ["check", "bounds", spec_path, "--self-test",
                             "--samples", "200"])
    rep = json.loads(out)["report"]
    assert code == 0
    assert abs(rep["c_plus"] - 1.0) < 1e-11
    assert abs(rep["c_minus"] - 1.0) < 1e-11


def test_check_harnack(spec_path, capsys):
    code, out = run(capsys, ["check", "harnack", spec_path])
    rep = json.loads(out)
    assert code == 0
    assert rep["report"]["quotient"] > 0.0


def test_example_asian_unit_payoff(capsys):
    code, out = run(capsys, ["example", "asian", "--payoff", "unit",
                             "--paths", "2000", "--r", "0",
                             "--sigma", "0.2"])
    rep = json.loads(out)["report"]
    assert code == 0
    assert rep["price_mc"] == 1.0


def test_example_asian_degenerate_sigma(capsys):
    code, out = run(capsys, ["example", "asian", "--sigma", "0",
                             "--paths", "1000"])
    rep = json.loads(out)["report"]
    assert code == 0
    # deterministic geometric average exp(mean of log S) discounted
    S0, r, T, K = 100.0, 0.05, 1.0, 100.0
    geo = S0 * np.exp(0.5 * r * T)
    want = np.exp(-r * T) * max(geo - K, 0.0)
    assert abs(rep["price_mc"] - want) < 1e-10


def test_mc_mass_rough_21_deterministic_across_threads(tmp_path, capsys):
    """Beyond N=2: on the (2,1) structure with a 2x2 checkerboard A0 the
    per-state factor runs on m0 = 2, and the report does not depend on the
    thread count."""
    doc = specfile.prototype_spec().to_dict()
    doc["structure"] = {"blocks": [2, 1],
                        "B": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                              [1.0, 0.5, 0.0]]}
    doc["coefficients"]["A0"] = {
        "kind": "checkerboard", "h": 0.25, "dim": 3, "seed": 8,
        "values": [[[1.0, 0.3], [0.3, 0.6]], [[2.0, -0.5], [-0.5, 1.5]]]}
    p = tmp_path / "rough21.json"
    p.write_text(json.dumps(doc))
    reports = []
    for threads in (1, 2):
        code, out = run(capsys, ["--threads", str(threads), "mc", "mass",
                                 str(p), "--paths", "40000", "--dt", "1e-2",
                                 "--x0", "0.1,-0.2,0", "--y", "0,0,0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["config"].pop("threads") == threads
        reports.append(specfile.dumps_stable(rep))
    assert reports[0] == reports[1]
    assert 0.0 < json.loads(reports[0])["mass"]["mass"] < 1.0


def test_mollify_report(cb_spec_path, capsys):
    code, out = run(capsys, ["mollify", cb_spec_path, "--samples", "400"])
    rep = json.loads(out)
    assert code == 0
    levels = rep["eps"]
    assert sorted(l["eps"] for l in levels) == [0.05, 0.1, 0.2]
    for l in levels:
        assert 1.0 - 1e-12 <= l["min"] <= l["max"] <= 2.0 + 1e-12


# Runs one command in a fresh interpreter and prints, as its last stdout
# line, the scipy modules loaded by then.
_COLD_START = """
import json, sys
from kolmo import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    [],
    ["structure", "{spec}"],
    ["check", "harnack", "{spec}"],
    ["check", "cone", "{spec}"],
    ["check", "global", "{spec}", "--pairs", "10"],
    ["check", "bounds", "{spec}", "--self-test", "--samples", "200"],
    ["kernel", "eval", "{spec}", "--pole", "0,0",
     "--grid", "0:0:1;0:0:1;1:1:1", "--out", "k.csv"],
    ["kernel", "reproduce", "{spec}", "--configs", "1"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.2", "--out", "c.csv"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "21,41",
     "--t1", "0.8", "--widths", "0.45,0.4", "--out", "f.csv"],
    pytest.param(["--threads", "2", "mc", "mass", "{cb}", "--paths", "20000",
                  "--dt", "1e-2"], id="mc mass"),
    pytest.param(["mollify", "{cb}", "--eps", "0.2,0.1", "--samples", "100"],
                 id="mollify"),
], ids=lambda a: " ".join(a[:2]) or "import")
def test_cold_start_loads_no_scipy(argv, spec_path, cb_spec_path, tmp_path):
    src = str(Path(kolmo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START]
        + [a.format(spec=spec_path, cb=cb_spec_path) for a in argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
