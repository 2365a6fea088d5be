import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kolmo

from kolmo import cli, specfile


@pytest.fixture()
def spec_path(tmp_path):
    return str(specfile.save(specfile.prototype_spec(),
                             tmp_path / "proto.json"))


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


@pytest.mark.parametrize("cmd", ["cauchy", "fundamental"])
@pytest.mark.parametrize("nx", ["1,21", "21,1", "21", "21,21,21", "21,x"])
def test_solve_bad_nx_exit_2(spec_path, tmp_path, capsys, cmd, nx):
    """An axis with fewer nodes than the transport supports, or the wrong
    number of axes, is a parse error, not a traceback."""
    assert cli.main(["solve", cmd, spec_path, "--box=-4,4;-2,2",
                     "--nx", nx, "--t1", "0.3",
                     "--out", str(tmp_path / "c.csv")]) == cli.EXIT_PARSE
    assert "--nx" in capsys.readouterr().err


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


def test_mollify_report(spec_path, tmp_path, capsys):
    doc = json.loads(open(spec_path).read())
    doc["coefficients"]["A0"] = {
        "kind": "checkerboard", "values": [[[1.0]], [[2.0]]],
        "h": 0.5, "dim": 2, "seed": 1}
    p = tmp_path / "cb.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["mollify", str(p), "--samples", "400"])
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
], ids=lambda a: " ".join(a[:2]) or "import")
def test_cold_start_loads_no_scipy(argv, spec_path, tmp_path):
    src = str(Path(kolmo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START]
        + [a.format(spec=spec_path) for a in argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
