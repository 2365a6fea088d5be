import argparse
import csv
import json
import math
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kolmo

from kolmo import cli, mc, regularity, specfile
from kolmo.coefficients import CheckerboardField, GridField
from kolmo.structure import BlockStructure
from test_specfile import save_grid_field
from test_structure import random_canonical_B


@pytest.fixture()
def spec_path(tmp_path):
    return str(specfile.save(specfile.prototype_spec(),
                             tmp_path / "proto.json"))


def _checkerboard_doc(doc):
    """The prototype with a seeded checkerboard A0 from {1, 2}, declared
    with the ellipticity (1, 2)."""
    doc["coefficients"]["A0"] = {
        "kind": "checkerboard", "values": [[[1.0]], [[2.0]]],
        "h": 0.5, "dim": 2, "seed": 1}
    doc["ellipticity"] = {"lambda": 1.0, "Lambda": 2.0}
    return doc


@pytest.fixture()
def cb_spec_path(tmp_path):
    p = tmp_path / "cb.json"
    p.write_text(json.dumps(_checkerboard_doc(
        specfile.prototype_spec().to_dict())))
    return str(p)


def _mollified_spec(tmp_path):
    """The checkerboard prototype with its A0 mollified at eps 0.1."""
    doc = _checkerboard_doc(specfile.prototype_spec().to_dict())
    doc["coefficients"]["A0"] = {"kind": "mollified", "eps": 0.1, "T": 1.0,
                                 "raw": doc["coefficients"]["A0"]}
    p = tmp_path / "moll.json"
    p.write_text(json.dumps(doc))
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


def _bad_coefficients(edit):
    doc = specfile.prototype_spec().to_dict()
    edit(doc["coefficients"])
    return json.dumps(doc)


def test_malformed_spec_exit_2(tmp_path, capsys):
    """Unparseable JSON, a spec whose coefficients are not A0, b and c with
    values of shape (m0,) * rank (A0 required), and a coefficient
    descriptor that is not an object, lacks a key its kind needs or names a
    grid file that does not exist, exit 2."""
    constant = {"kind": "constant", "value": [0.5, 0.5]}
    board = {"kind": "checkerboard", "values": [[[1.0]], [[2.0]]],
             "dim": 2, "seed": 1}
    for text in [
            _bad_coefficients(lambda c: c["A0"].pop("value")),
            _bad_coefficients(lambda c: c.update(A0=board)),
            _bad_coefficients(lambda c: c.update(A0=3)),
            _bad_coefficients(lambda c: c.update(A0={
                "kind": "grid", "file": "missing.csv"})),
            "{oops",
            _bad_coefficients(lambda c: c.pop("A0")),
            _bad_coefficients(lambda c: c.update(A_0=c.pop("A0"))),
            _bad_coefficients(lambda c: c.update(a=constant)),
            _bad_coefficients(lambda c: c.update(b=constant)),
            _bad_coefficients(lambda c: c["A0"].update(value=[1.0])),
            _bad_coefficients(lambda c: c.update(c={
                "kind": "checkerboard", "values": [[0.1], [0.2]],
                "h": 0.5, "dim": 2, "seed": 1}))]:
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert cli.main(["structure", str(p)]) == cli.EXIT_PARSE, text


def _grid_sidecar(tmp_path, x1=None, value=None):
    """A0 = 1 on the grid {0, 1}^2 x {0, 1} as a sidecar, its x1 axis
    written as x1 and its first value as value, where given."""
    ax = np.array([0.0, 1.0])
    save_grid_field(GridField([ax, ax], ax, np.ones((2, 2, 2))),
                    tmp_path / "a0.csv")
    rows = list(csv.reader((tmp_path / "a0.csv").open(newline="")))
    for r in rows[1:]:
        if x1 is not None and r[0] == "1":
            r[0] = x1
    if value is not None:
        rows[1][-1] = value
    with (tmp_path / "a0.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return {"kind": "grid", "file": "a0.csv"}


def _board(**edit):
    board = _checkerboard_doc(specfile.prototype_spec().to_dict())[
        "coefficients"]["A0"]
    board.update(edit)
    return board


# Spec edits that make a number malformed, each with the command that ran
# on it: a traceback (exit 1) or a report of NaN or of one constant cell
# (exit 0) before they were refused.
_NOT_FINITE_SPECS = {
    "Lambda-nan": (lambda d, p: d["ellipticity"].update(Lambda=math.nan),
                   "solve"),
    "Lambda-inf": (lambda d, p: d["ellipticity"].update(Lambda=math.inf),
                   "solve"),
    "lambda-above-Lambda": (
        lambda d, p: d["ellipticity"].update({"lambda": 2.0}), "solve"),
    "lambda-0": (lambda d, p: d["ellipticity"].update({"lambda": 0.0}),
                 "solve"),
    "window-reversed": (lambda d, p: d["window"].update(T0=1.0, T1=0.5),
                        "mollify"),
    "window-nan": (lambda d, p: d["window"].update(T1=math.nan), "mollify"),
    "A0-nan": (lambda d, p: d["coefficients"]["A0"].update(
        value=[[math.nan]]), "structure"),
    "A0-nan-mollify": (lambda d, p: d["coefficients"]["A0"].update(
        value=[[math.nan]]), "mollify"),
    "grid-value-nan": (lambda d, p: d["coefficients"].update(
        A0=_grid_sidecar(p, value="nan")), "mollify"),
    "grid-axis-inf": (lambda d, p: d["coefficients"].update(
        A0=_grid_sidecar(p, x1="inf")), "structure"),
    "board-value-inf": (lambda d, p: d["coefficients"].update(
        A0=_board(values=[[[1.0]], [[math.inf]]])), "structure"),
    "board-no-values": (lambda d, p: d["coefficients"].update(
        A0=_board(values=[])), "structure"),
    "board-h-0": (lambda d, p: d["coefficients"].update(A0=_board(h=0.0)),
                  "mc"),
    "board-h-negative": (lambda d, p: d["coefficients"].update(
        A0=_board(h=-0.25)), "solve"),
    "board-h-nan": (lambda d, p: d["coefficients"].update(
        A0=_board(h=math.nan)), "mc"),
    "mollified-T-0": (lambda d, p: d["coefficients"].update(A0={
        "kind": "mollified", "eps": 0.1, "T": 0.0, "raw": _board()}),
        "structure"),
    "mollified-T-nan": (lambda d, p: d["coefficients"].update(A0={
        "kind": "mollified", "eps": 0.1, "T": math.nan, "raw": _board()}),
        "structure"),
    # a B of another shape, or with an entry that is not finite, was a
    # traceback or, for 1e400 (which JSON reads as inf), exit 3
    "B-3x3-for-(1,1)": (lambda d, p: d["structure"].update(
        B=[[0, 0, 0], [1, 0, 0], [0, 1, 0]]), "structure"),
    "B-2x3": (lambda d, p: d["structure"].update(B=[[0, 0, 0], [1, 0, 0]]),
              "structure"),
    "B-scalar": (lambda d, p: d["structure"].update(B=1.0), "structure"),
    "B-nan": (lambda d, p: d["structure"].update(
        B=[[0.0, 0.0], [math.nan, 0.0]]), "structure"),
    "B-1e400": (lambda d, p: d["structure"].update(
        B=[[0.0, 0.0], [math.inf, 0.0]]), "structure"),
    # int() truncated 1.5 and read true and "7"; float() read true
    "blocks-1.5": (lambda d, p: d["structure"].update(blocks=[1, 1.5]),
                   "structure"),
    "blocks-true": (lambda d, p: d["structure"].update(blocks=[1, True]),
                    "structure"),
    "blocks-string": (lambda d, p: d["structure"].update(blocks=[1, "1"]),
                      "structure"),
    "dim-1.5": (lambda d, p: d["coefficients"].update(A0=_board(dim=1.5)),
                "structure"),
    "dim-true": (lambda d, p: d["coefficients"].update(A0=_board(dim=True)),
                 "structure"),
    "dim-string": (lambda d, p: d["coefficients"].update(
        A0=_board(dim="2")), "structure"),
    "seed-1.5": (lambda d, p: d["coefficients"].update(A0=_board(seed=1.5)),
                 "structure"),
    "seed-true": (lambda d, p: d["coefficients"].update(
        A0=_board(seed=True)), "structure"),
    "seed-string": (lambda d, p: d["coefficients"].update(
        A0=_board(seed="7")), "structure"),
    "h-true": (lambda d, p: d["coefficients"].update(A0=_board(h=True)),
               "structure"),
    "Lambda-true": (lambda d, p: d["ellipticity"].update(Lambda=True),
                    "solve"),
    "T1-true": (lambda d, p: d["window"].update(T1=True), "mollify"),
    "A0-true": (lambda d, p: d["coefficients"]["A0"].update(
        value=[[True]]), "structure"),
    "A0-string": (lambda d, p: d["coefficients"]["A0"].update(
        value=[["1"]]), "structure"),
}
_ON_SPEC = {
    "structure": ["structure", "{spec}"],
    "mollify": ["mollify", "{spec}", "--samples", "10"],
    "solve": ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2",
              "--nx", "21,21", "--t1", "0.3", "--out", "out.csv"],
    "mc": ["mc", "mass", "{spec}", "--paths", "100"],
}


@pytest.mark.parametrize("case", sorted(_NOT_FINITE_SPECS))
def test_malformed_number_in_spec_exit_2(tmp_path, capsys, monkeypatch,
                                         case):
    """A window that is not finite with T0 < T1, an ellipticity that is not
    finite with 0 < lambda <= Lambda, a coefficient value or grid
    coordinate that is not finite, a checkerboard without values or with
    an h that is not finite and > 0, a mollified T that is not finite
    and > 0, a B that is not a finite N x N matrix, blocks, dim or seed
    that are not JSON integers, and a boolean or a string where a number
    belongs are parse errors: exit 2 with one error line."""
    monkeypatch.chdir(tmp_path)
    edit, command = _NOT_FINITE_SPECS[case]
    doc = specfile.prototype_spec().to_dict()
    edit(doc, tmp_path)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = cli.main([a.format(spec=p) for a in _ON_SPEC[command]])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def _dim_descriptors(tmp_path):
    """A0 descriptors on R^dim for the prototype (N = 2): a checkerboard
    with dim 3, the same wrapped as `mollified`, a constant with dim 7,
    and a grid sidecar with three spatial axes."""
    board = _checkerboard_doc(specfile.prototype_spec().to_dict())[
        "coefficients"]["A0"]
    board["dim"] = 3
    ax = np.linspace(-1.0, 1.0, 3)
    save_grid_field(GridField([ax] * 3, [0.0, 1.0],
                                       np.ones((3, 3, 3, 2))),
                             tmp_path / "a0.csv")
    return {"checkerboard": board,
            "mollified": {"kind": "mollified", "eps": 0.1, "T": 1.0,
                          "raw": board},
            "constant": {"kind": "constant", "value": [[1.0]], "dim": 7},
            "grid": {"kind": "grid", "file": "a0.csv"}}


@pytest.mark.parametrize("kind", ["checkerboard", "mollified", "constant",
                                  "grid"])
@pytest.mark.parametrize("argv", [
    ["structure", "{spec}"],
    ["mollify", "{spec}", "--field", "A0"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3", "--out", "out.csv"],
    ["mc", "simulate", "{spec}", "--paths", "10", "--out", "out.csv"],
], ids=["structure", "mollify", "solve-cauchy", "mc-simulate"])
def test_field_dim_other_than_N_exit_2(tmp_path, capsys, monkeypatch, kind,
                                       argv):
    """A descriptor whose `dim`, or a grid sidecar whose spatial axis
    count, is not the spec's N is a parse error: exit 2 with one error
    line and no artifact, not a field sampled on R^3, a broadcast
    traceback or a dim read and thrown away."""
    monkeypatch.chdir(tmp_path)
    doc = specfile.prototype_spec().to_dict()
    doc["coefficients"]["A0"] = _dim_descriptors(tmp_path)[kind]
    p = tmp_path / "dim.json"
    p.write_text(json.dumps(doc))
    assert cli.main([a.format(spec=p) for a in argv]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "not N = 2" in err and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_non_canonical_exit_3(tmp_path, capsys):
    doc = specfile.prototype_spec().to_dict()
    doc["structure"]["B"] = [[1.0, 0.0], [1.0, 0.0]]
    p = tmp_path / "nc.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["structure", str(p)]) == cli.EXIT_STRUCTURE


_MC_MASS = ["mc", "mass", "{spec}", "--paths", "100"]
_SOLVE_21 = ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
             "--t1", "0.3", "--out", "out.csv"]
# One command of each kind that loads a spec; each writes only to out.csv.
_LOADERS = {
    "structure": ["structure", "{spec}"],
    "kernel-eval": ["kernel", "eval", "{spec}", "--pole", "0,0", "--grid",
                    "0:0:1;0:0:1;1:1:1", "--out", "out.csv"],
    "check-harnack": ["check", "harnack", "{spec}"],
    "solve-cauchy": _SOLVE_21,
    "mc-mass": _MC_MASS,
}


@pytest.mark.parametrize("command", ["structure", "kernel-eval",
                                     "solve-cauchy"])
def test_B_canonical_only_up_to_rounding_exit_3(tmp_path, capsys,
                                                monkeypatch, command):
    """A block of B that must vanish is refused for any nonzero entry, so
    B = [[1e-12, 0], [1, 0]], which is not nilpotent, exits 3 with one
    error line, not 1 with a traceback from the exact kernel."""
    monkeypatch.chdir(tmp_path)
    doc = specfile.prototype_spec().to_dict()
    doc["structure"]["B"] = [[1e-12, 0.0], [1.0, 0.0]]
    p = tmp_path / "near.json"
    p.write_text(json.dumps(doc))
    argv = [a.format(spec=p) for a in _LOADERS[command]]
    assert cli.main(argv) == cli.EXIT_STRUCTURE
    err = capsys.readouterr().err
    assert err.startswith("structure error: off-pattern block at (0, 0)")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["structure", "check-harnack",
                                     "solve-cauchy", "mc-mass"])
@pytest.mark.parametrize("values, ell, bad", [
    ([1.0, -0.5], (0.5, 1.0), -0.5), ([1.0, 2.0], (1.0, 1.0), 2.0)],
    ids=["negative", "above-Lambda"])
def test_A0_outside_declared_ellipticity_exit_4(tmp_path, capsys,
                                                monkeypatch, command, values,
                                                ell, bad):
    """A checkerboard A0 whose values leave the declared ellipticity exits
    4 from every command, the spec load refusing it: one that takes -0.5,
    and one that takes 2 under a declared Lambda of 1."""
    monkeypatch.chdir(tmp_path)
    doc = specfile.prototype_spec().to_dict()
    doc["coefficients"]["A0"] = {"kind": "checkerboard", "h": 0.5,
                                 "dim": 2, "seed": 1,
                                 "values": [[[v]] for v in values]}
    doc["ellipticity"] = {"lambda": ell[0], "Lambda": ell[1]}
    p = tmp_path / "cb.json"
    p.write_text(json.dumps(doc))
    argv = [a.format(spec=p) for a in _LOADERS[command]]
    assert cli.main(argv) == cli.EXIT_NOTSPD
    err = capsys.readouterr().err
    assert err == (f"not SPD: A0 takes the eigenvalue {bad!r}, outside the "
                   f"declared ellipticity [{ell[0]!r}, {ell[1]!r}]\n")
    assert not (tmp_path / "out.csv").exists()


def test_not_spd_exit_4(tmp_path, capsys):
    doc = specfile.prototype_spec().to_dict()
    doc["coefficients"]["A0"] = {"kind": "constant", "value": [[-1.0]]}
    p = tmp_path / "neg.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["mc", "simulate", str(p), "--paths", "100"]) \
        == cli.EXIT_NOTSPD


def test_unstable_dt_exit_5(spec_path, tmp_path, capsys):
    """A --dt above the Courant cap 0.9 h / |b|_1 = 0.09 exits 5 and writes
    nothing; the diffusion sets no cap, so without b the same --dt runs."""
    doc = specfile.prototype_spec().to_dict()
    doc["coefficients"]["b"] = {"kind": "constant", "value": [2.0]}
    drifted = tmp_path / "b.json"
    drifted.write_text(json.dumps(doc))
    out = tmp_path / "c.csv"
    argv = ["solve", "cauchy", "--box=-4,4;-2,2", "--nx", "41,41", "--t1",
            "0.3", "--dt", "0.1", "--out", str(out)]
    assert cli.main(argv[:2] + [str(drifted)] + argv[2:]) == cli.EXIT_SOLVER
    assert not out.exists()
    assert cli.main(argv[:2] + [spec_path] + argv[2:]) == 0


def _overflow_doc(name, value):
    """The prototype with the constant coefficient name = value; an A0
    value is declared as its own ellipticity."""
    doc = specfile.prototype_spec().to_dict()
    doc["coefficients"][name] = {"kind": "constant", "value": value}
    if name == "A0":
        doc["ellipticity"]["Lambda"] = value[0][0]
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, value, argv, code, lead", [
    ("A0", [[1e308]], _MC_MASS, cli.EXIT_MC, "mc error: non-finite state"),
    ("c", 1e308, _SOLVE_21, cli.EXIT_SOLVER,
     "solver error: non-finite values"),
    ("c", 2000.0, _MC_MASS, cli.EXIT_MC, "mc error: Feynman-Kac weights"),
    ("c", 2000.0, ["mc", "simulate", "{spec}", "--paths", "100",
                   "--out", "out.csv"],
     cli.EXIT_MC, "mc error: Feynman-Kac weights"),
    ("c", 2000.0, ["mc", "density", "{spec}", "--paths", "100",
                   "--box=-3,3;-2,2", "--bins", "4,4", "--out", "out.csv"],
     cli.EXIT_MC, "mc error: Feynman-Kac weights"),
], ids=["mc-state", "solve-reaction", "mc-mass-weights",
        "mc-simulate-weights", "mc-density-weights"])
def test_overflow_exits_with_its_code(tmp_path, capsys, monkeypatch, name,
                                      value, argv, code, lead):
    """A run whose numbers overflow ends in its documented exit code with
    one error line and no artifact, not in a report or CSV of inf and NaN
    with exit 0, and with no numpy RuntimeWarning on the way: an exact
    law whose covariance overflows (A0 = 1e308, declared so) exits 6,
    a solve whose reaction factor exp(dt c) overflows (c = 1e308) exits 5,
    and Feynman-Kac weights exp(int c dt) past the float range (c = 2000
    to t1 = 0.5) exit 6 in every mc command."""
    monkeypatch.chdir(tmp_path)
    doc = _overflow_doc(name, value)
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    assert cli.main([a.format(spec=p) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(lead) and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def _kolmo_env():
    """The environment of a child process that imports this kolmo."""
    src = str(Path(kolmo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("name, value, argv, code", [
    ("A0", [[1e308]], _MC_MASS, cli.EXIT_MC),
    ("c", 1e308, _SOLVE_21, cli.EXIT_SOLVER)], ids=["mc-mass", "solve"])
def test_overflow_refusal_is_one_stderr_line(tmp_path, name, value, argv,
                                             code):
    """In a process of its own, a run that overflows writes its error line
    and nothing else to stderr: numpy's overflow and invalid-value
    warnings are not printed ahead of it."""
    spec = tmp_path / "overflow.json"
    spec.write_text(json.dumps(_overflow_doc(name, value)))
    env = _kolmo_env()
    proc = subprocess.run(
        [sys.executable, "-m", "kolmo.cli"]
        + [a.format(spec=spec) for a in argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == code
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(("mc error", "solver error"))


def test_overflow_in_a_worker_is_one_stderr_line(tmp_path):
    """In a process of its own, a stepped mc run at two workers whose
    state overflows in both chunks (the checkerboard b = +-1e308 of
    test_mc.py::test_non_finite_rough_state_raises, beside the rough
    benchmark's A0 and c) exits 6 with the one error line on stderr and
    nothing on stdout: no RuntimeWarning of the forked worker reaches the
    stderr it shares."""
    def board(values, seed):
        return {"kind": "checkerboard", "values": values, "h": 0.25,
                "dim": 2, "seed": seed}

    doc = specfile.prototype_spec().to_dict()
    doc["coefficients"] = {"A0": board([[[0.5]], [[1.5]]], 21),
                           "b": board([[1e308], [-1e308]], 22),
                           "c": board([-0.5, 0.0], 23)}
    doc["ellipticity"] = {"lambda": 0.5, "Lambda": 1.5}
    spec = tmp_path / "overflow.json"
    spec.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "kolmo.cli", "--threads", "2", "mc", "mass",
         str(spec), "--paths", str(2 * mc.CHUNK), "--dt", "1.0", "--t1",
         "4.0"], cwd=tmp_path, env=_kolmo_env(), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == cli.EXIT_MC
    assert proc.stderr == "mc error: non-finite state in chunk 0\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, code, lead", [
    (["kernel", "eval", "{spec}", "--pole", "0,0,0,0", "--points", "p.csv",
      "--out", "k.csv"], cli.EXIT_PARSE,
     "error: the kernel is inf at the row with t = 1e-40"),
    (["solve", "cauchy", "{spec}", "--datum", "gaussian:1e-40",
      "--box=-1,1;-1,1;-1,1;-1,1", "--nx", "5,5,5,5", "--t1", "0.1",
      "--out", "c.csv"], cli.EXIT_SOLVER,
     "solver error: non-finite values")], ids=["kernel-eval", "solve"])
def test_kernel_overflow_is_one_stderr_line(tmp_path, argv, code, lead):
    """On the chain (1,1,1,1) the kernel at the pole overflows at
    t = 1e-40 (t^{-Q/2} = 1e320): kernel eval refuses the value, naming
    its row's time, and a solve from it exits 5, each with one line on
    stderr, no numpy warning ahead of it, and no CSV."""
    (tmp_path / "p.csv").write_text("x1,x2,x3,x4,t\n0,0,0,0,1e-40\n")
    env = _kolmo_env()
    proc = subprocess.run(
        [sys.executable, "-m", "kolmo.cli"]
        + [a.format(spec=_chain_spec(tmp_path, 4)) for a in argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(lead)
    assert not {"k.csv", "c.csv"} & {p.name for p in tmp_path.iterdir()}


def test_declared_Lambda_bounds_the_step(step_A0, tmp_path, capsys):
    """An A0 that steps from 1 to 4 after the start, declared with Lambda
    = 4, takes its step from the largest value A0 takes, 4, not from its
    value at the start: the slice is finite and non-negative, not values
    of order 1e9 with exit 0."""
    save_grid_field(step_A0, tmp_path / "a0.csv")
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


def _reversed_rows(lines):
    return lines[:1] + lines[:0:-1]


def _duplicated_row(lines):
    return lines[:3] + [lines[3], lines[3]] + lines[5:]


def _columns(order):
    """The sidecar's columns in another order, header included."""
    def reorder(lines):
        cells = [line.split(",") for line in lines]
        return [",".join(c[k] for k in order) for c in cells]
    return reorder


@pytest.mark.parametrize("corrupt", [
    _reversed_rows, _duplicated_row, _columns([0, 1, 3, 2]),
    _columns([1, 0, 2, 3])], ids=["reversed", "duplicated", "t-last",
                                  "axes-swapped"])
def test_grid_sidecar_rows_must_be_the_grid(tmp_path, capsys, corrupt):
    """A sidecar is read only if its header is x1..xN, t, values and its
    coordinate columns are the tensor grid in lexicographic order.  Each
    corruption here keeps every row: reversed, A0 = 1 + x1 read as 2 - x1;
    a row duplicated in place of the next, which keeps the row count; the
    time column last; and the x axes' columns swapped."""
    ax1, ax2 = np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0])
    vals = np.broadcast_to((1.0 + ax1)[:, None, None], (2, 3, 2))
    f = GridField([ax1, ax2], [0.0, 1.0], vals)
    save_grid_field(f, tmp_path / "a0.csv")
    proto = specfile.prototype_spec()
    p = specfile.save(specfile.OperatorSpec(
        structure=proto.structure, B=proto.B, fields={"A0": f},
        window=(0.0, 1.0), ellipticity=(1.0, 2.0)), tmp_path / "op.json")
    assert np.array_equal(specfile.load(p).fields["A0"].many(
        [[0.0, 0.5], [1.0, 0.5]], 0.5), [1.0, 2.0])
    lines = (tmp_path / "a0.csv").read_text().splitlines()
    (tmp_path / "a0.csv").write_text("\n".join(corrupt(lines)) + "\n")
    code, _ = run(capsys, ["structure", str(p)])
    assert code == cli.EXIT_PARSE


def test_grid_A0_sidecar_runs_mc(step_A0, tmp_path, capsys):
    """A grid sidecar holds its values flat, one column per entry; the
    spec takes it as A0, and Monte Carlo reads it as m0 x m0 matrices."""
    save_grid_field(step_A0, tmp_path / "a0.csv")
    proto = specfile.prototype_spec()
    p = specfile.save(specfile.OperatorSpec(
        structure=proto.structure, B=proto.B, fields={"A0": step_A0},
        window=(0.0, 1.0), ellipticity=(1.0, 4.0)), tmp_path / "step.json")
    assert specfile.load(p).fields["A0"].shape == ()
    assert cli.main(["mc", "simulate", str(p), "--paths", "10",
                     "--out", str(tmp_path / "e.csv")]) == 0


@pytest.fixture()
def short_A0_specs(tmp_path):
    """A spec whose A0 is a grid sidecar sampled on t in [0, 0.5] under the
    window [0, 1], and the same spec with that A0 wrapped as `mollified`."""
    ax = np.linspace(-4.0, 4.0, 11)
    f = GridField([ax, ax], [0.0, 0.5], np.ones((11, 11, 2)))
    save_grid_field(f, tmp_path / "a0.csv")
    proto = specfile.prototype_spec()
    grid = specfile.save(specfile.OperatorSpec(
        structure=proto.structure, B=proto.B, fields={"A0": f},
        window=(0.0, 1.0), ellipticity=(1.0, 1.0)), tmp_path / "grid.json")
    doc = json.loads(Path(grid).read_text())
    doc["coefficients"]["A0"] = {"kind": "mollified", "eps": 0.1, "T": 1.0,
                                 "raw": doc["coefficients"]["A0"]}
    moll = tmp_path / "moll.json"
    moll.write_text(json.dumps(doc))
    return {"grid": str(grid), "moll": str(moll)}


@pytest.mark.parametrize("argv", [
    ["mollify", "{grid}", "--field", "A0"],
    ["solve", "cauchy", "{moll}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.9", "--out", "out.csv"],
    ["mc", "simulate", "{moll}", "--paths", "10", "--t1", "0.9",
     "--out", "out.csv"],
], ids=["mollify", "solve-cauchy", "mc-simulate"])
def test_window_underflow_exit_2(short_A0_specs, tmp_path, capsys,
                                 monkeypatch, argv):
    """A mollified A0 read outside its raw field's time axis [0, 0.5] is
    refused like a malformed spec: exit 2, one error line, no artifact."""
    monkeypatch.chdir(tmp_path)
    argv = [a.format(**short_A0_specs) for a in argv]
    assert cli.main(argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: mollified evaluation needs samples "
                          "outside window") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_check_cone_unresolved_exit_7(tmp_path, capsys):
    """On an N = 1 spec (blocks [1], B [[0]]) the probed cone holds 18
    nodes, fewer than the 27 a quotient needs: `check cone` exits 7."""
    doc = specfile.prototype_spec().to_dict()
    doc["structure"] = {"blocks": [1], "B": [[0.0]]}
    p = tmp_path / "n1.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["check", "cone", str(p), "--center", "0",
                     "--pole", "0"]) == cli.EXIT_VERIFY
    assert capsys.readouterr().err == "verify error: 18 cone nodes < 27\n"


@pytest.mark.parametrize("cmd", ["cauchy", "fundamental"])
@pytest.mark.parametrize("nx", ["1,21", "21,1", "21", "21,21,21", "21,x"])
def test_solve_bad_nx_exit_2(spec_path, tmp_path, capsys, cmd, nx):
    """An axis with fewer nodes than the transport supports, or the wrong
    number of axes, is a parse error, not a traceback."""
    assert cli.main(["solve", cmd, spec_path, "--box=-4,4;-2,2",
                     "--nx", nx, "--t1", "0.3",
                     "--out", str(tmp_path / "c.csv")]) == cli.EXIT_PARSE
    assert "--nx" in capsys.readouterr().err


def test_solve_cauchy_names_the_datum_width(spec_path, tmp_path, capsys):
    """A datum width that reaches t1 is refused in the user's terms: the
    message names --datum's width and the given t0, not t0 plus the width
    as the solver's own t0."""
    out = tmp_path / "c.csv"
    assert cli.main(["solve", "cauchy", spec_path, "--box=-4,4;-2,2",
                     "--nx", "41,41", "--t0", "0.5", "--t1", "0.55",
                     "--out", str(out)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: the solve runs from t0 + the --datum width to t1: t0 = 0.5 "
        "plus the width 0.1 does not end before t1 = 0.55\n")
    assert not out.exists()


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


def _chain_spec(tmp_path, N):
    """The chain (1, ..., 1) on R^N, x1 -> x2 -> ... -> xN, with A0 = 1."""
    doc = specfile.prototype_spec().to_dict()
    doc["structure"] = {"blocks": [1] * N, "B": np.eye(N, k=-1).tolist()}
    p = tmp_path / f"chain{N}.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("argv", [
    ["check", "bounds", "{spec}", "--self-test", "--samples", "50"],
    ["check", "harnack", "{spec}"],
    ["check", "cone", "{spec}"],
    ["check", "global", "{spec}", "--pairs", "5"],
    ["mc", "mass", "{spec}", "--paths", "100"],
], ids=lambda a: " ".join(a[:2]))
def test_point_defaults_are_the_origin(tmp_path, capsys, monkeypatch, N,
                                       argv):
    """--x0, --y, --pole and --center default to the origin of R^N, and
    the report echoes it as N zeros: "0,0" on the prototype."""
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, [a.format(spec=_chain_spec(tmp_path, N))
                             for a in argv])
    assert code == 0
    cfg = json.loads(out)["config"]
    points = {k: cfg[k] for k in ("x0", "y", "pole", "center") if k in cfg}
    assert points and set(points.values()) == {",".join(["0"] * N)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_global_draws_pairs_from_the_kernel_law(tmp_path, capsys,
                                                      seed):
    """The pairs are draws from the kernel's law at the default pole time,
    so on the chain (1,1,1,1) every kernel value is positive; points
    uniform in [-1, 1]^4 gave values that underflow to 0 (exit 7)."""
    code, out = run(capsys, ["check", "global", _chain_spec(tmp_path, 4),
                             "--seed", str(seed)])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["n_pairs"] == 50 and rep["c0"] >= 1.0


# one minimal run of each command on the prototype
_MINIMAL = {
    ("kernel", "eval"): ["--pole", "0,0", "--grid", "0:0:1;0:0:1;1:1:1"],
    ("kernel", "reproduce"): ["--configs", "1"],
    ("solve", "cauchy"): ["--box=-4,4;-2,2", "--nx", "21,21", "--t1",
                          "0.2"],
    ("solve", "fundamental"): ["--box=-4,4;-2,2", "--nx", "21,41", "--t1",
                               "0.8", "--widths", "0.45,0.4"],
    ("mc", "simulate"): ["--paths", "100"],
    ("mc", "density"): ["--paths", "100", "--box=-3,3;-2,2", "--bins",
                        "4,5"],
    ("mc", "mass"): ["--paths", "100"],
    ("mollify",): ["--eps", "0.2", "--samples", "10"],
    ("check", "bounds"): ["--self-test", "--samples", "50"],
    ("check", "global"): ["--pairs", "5"],
}


@pytest.mark.parametrize("words", list(cli.COMMANDS), ids=" ".join)
def test_report_envelope(words, spec_path, tmp_path, capsys, monkeypatch):
    """Every command's report names the command by its words, joined by a
    space, and echoes the spec path in its config."""
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, [*words, spec_path, *_MINIMAL.get(words, [])])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == " ".join(words)
    assert rep["config"]["spec"] == spec_path


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
    ["mc", "mass", "{cb}", "--paths", "10", "--dt", "-1"],
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
    ["check", "bounds", "{spec}", "--nx", "21,41", "--width", "1.5"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "101,101",
     "--t1", "0.8", "--widths", "0.3,-0.1", "--out", "f.csv"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "21,41",
     "--t1", "0.8", "--widths", "0", "--out", "f.csv"],
    ["check", "bounds", "{spec}", "--nx", "21,41", "--width", "0"],
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
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3", "--dt", "0", "--out", "c.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3", "--dt=-0.01", "--out", "c.csv"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "21,41",
     "--t1", "0.8", "--dt", "0", "--out", "f.csv"],
    ["check", "harnack", "{spec}", "--n-time=-2"],
    ["check", "harnack", "{spec}", "--n-space", "0"],
    ["check", "bounds", "{spec}", "--self-test", "--lambda-plus", "0"],
    ["check", "bounds", "{spec}", "--self-test", "--lambda-minus", "1"],
    ["check", "bounds", "{spec}", "--self-test", "--err-budget", "0.1"],
    ["check", "bounds", "{spec}", "--self-test", "--box=-4,4;-2,2"],
    ["check", "bounds", "{spec}", "--self-test", "--nx", "81,121"],
    ["check", "bounds", "{spec}", "--self-test", "--width", "0.3"],
    ["check", "bounds", "{spec}", "--samples", "500"],
    ["check", "bounds", "{spec}", "--seed", "0"],
    ["kernel", "eval", "{spec}", "--pole", "0,0", "--lambda", "nan",
     "--grid", "0:0:1;0:0:1;1:1:1", "--out", "e.csv"],
    ["kernel", "eval", "{spec}", "--pole", "0,0",
     "--grid", "0:nan:2;0:0:1;1:1:1", "--out", "e.csv"],
    ["kernel", "eval", "{spec}", "--pole", "0,0", "--points", "nan.csv",
     "--out", "e.csv"],
    ["check", "harnack", "{spec}", "--lambda", "nan", "--sweep", "2"],
    ["check", "harnack", "{spec}", "--pole=nan,0", "--sweep", "2"],
    ["check", "cone", "{spec}", "--center=nan,0"],
    ["check", "cone", "{spec}", "--center-t", "inf"],
    ["mc", "mass", "{spec}", "--paths", "10", "--y=nan,0"],
    ["mc", "mass", "{spec}", "--paths", "10", "--lambda", "nan"],
    ["mc", "mass", "{cb}", "--paths", "10", "--dt", "inf"],
    ["mc", "simulate", "{cb}", "--paths", "10", "--dt", "1e-320",
     "--out", "e.csv"],
    ["mc", "mass", "{cb}", "--paths", "10", "--dt", "1e-320"],
    ["mc", "density", "{cb}", "--box=-3,3;-2,2", "--bins", "4,4",
     "--paths", "10", "--dt", "1e-320", "--out", "d.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3", "--dt", "1e-320", "--out", "c.csv"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "21,41",
     "--t1", "0.8", "--widths", "0.45,0.4", "--dt", "1e-320",
     "--out", "f.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3", "--lambda", "nan", "--out", "c.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "inf", "--out", "c.csv"],
    ["kernel", "reproduce", "{spec}", "--configs", "1", "--seed", "-1"],
    ["check", "harnack", "{spec}", "--sweep", "2", "--seed", "-1"],
    ["check", "global", "{spec}", "--pairs", "2", "--seed", "-1"],
    ["check", "bounds", "{spec}", "--self-test", "--seed", "-1"],
    ["mc", "simulate", "{spec}", "--paths", "10", "--seed", "-1",
     "--out", "e.csv"],
    ["mc", "mass", "{spec}", "--paths", "10", "--seed", "-1"],
    ["mc", "density", "{spec}", "--box=-3,3;-2,2", "--bins", "4,4",
     "--paths", "10", "--seed", "-1", "--out", "d.csv"],
    ["check", "harnack", "{spec}", "--out", "x.csv"],
    ["check", "harnack", "{spec}", "--sweep", "0", "--seed", "5"],
    ["check", "harnack", "{spec}", "--sweep", "2", "--center", "0.3,0.3"],
    ["check", "harnack", "{spec}", "--sweep", "2", "--center-t", "0.5"],
], ids=["grid-part", "grid-nodes", "box-count", "box-order", "box-number",
        "points-width", "bins", "widths", "eps", "datum-width",
        "datum-number", "mc-paths", "mc-dt", "eps-range", "threads-zero",
        "threads-negative", "mc-reversed-window", "mc-empty-window",
        "kernel-lam", "threads-structure", "threads-kernel",
        "solve-reversed-window", "solve-empty-window",
        "fundamental-width-past-t1", "bounds-width-past-t1",
        "fundamental-width-negative", "fundamental-width-zero",
        "bounds-width-zero",
        "reproduce-configs", "global-pairs", "mollify-samples-zero",
        "mollify-samples-negative", "bounds-samples", "harnack-radius-zero",
        "harnack-radius-negative", "harnack-omega", "harnack-sweep",
        "cone-beta", "cone-R", "cone-radius", "mc-mass-radius",
        "cauchy-dt-zero", "cauchy-dt-negative", "fundamental-dt-zero",
        "harnack-n-time", "harnack-n-space", "self-test-lambda-plus",
        "self-test-lambda-minus", "self-test-err-budget", "self-test-box",
        "self-test-nx", "self-test-widths", "fit-samples", "fit-seed",
        "kernel-lambda-nan", "grid-nan", "points-nan", "harnack-lambda-nan",
        "harnack-pole-nan", "cone-center-nan", "cone-center-t-inf",
        "mc-mass-y-nan", "mc-lambda-nan", "mc-dt-inf",
        "mc-simulate-dt-overflow", "mc-mass-dt-overflow",
        "mc-density-dt-overflow", "cauchy-dt-overflow",
        "fundamental-dt-overflow", "cauchy-lambda-nan",
        "cauchy-t1-inf", "reproduce-seed", "harnack-seed", "global-seed",
        "self-test-seed", "mc-simulate-seed", "mc-mass-seed",
        "mc-density-seed", "harnack-out-without-sweep",
        "harnack-seed-without-sweep", "harnack-center-with-sweep",
        "harnack-center-t-with-sweep"])
def test_malformed_option_exit_2(spec_path, cb_spec_path, tmp_path, capsys,
                                 monkeypatch, argv):
    """Malformed option values exit 2, through SpecError or the library's
    own argument checks (ArgumentError), instead of ending in a traceback, in a run that ignores
    them or, for a points file of the wrong width, in rows under the wrong
    header.  The mc cases of a bad --dt run on a checkerboard spec ({cb}),
    whose paths are stepped at --dt, so that they do not exit 2 merely
    because a spec of constants reads no --dt."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.csv").write_text("x1,t\n0,1\n")
    (tmp_path / "nan.csv").write_text("x1,x2,t\n0,nan,1\n")
    assert cli.main([a.format(spec=spec_path, cb=cb_spec_path)
                     for a in argv]) == cli.EXIT_PARSE
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.glob("*.csv")) \
        == ["nan.csv", "pts.csv"]


@pytest.mark.parametrize("argv", [
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3", "--dt", "1e-300", "--out", "c.csv"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "21,41",
     "--t1", "0.8", "--widths", "0.45,0.4", "--dt", "1e-300",
     "--out", "f.csv"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "81,160000",
     "--t1", "0.3", "--out", "c.csv"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx",
     "81,160000", "--t1", "0.8", "--out", "f.csv"],
    ["check", "bounds", "{spec}", "--nx", "81,160000"],
], ids=["cauchy-steps", "fundamental-steps", "cauchy-tables",
        "fundamental-tables", "bounds-tables"])
def test_solve_refuses_work_past_its_bounds(spec_path, tmp_path, capsys,
                                            monkeypatch, argv):
    """A --dt of 1e-300 (3e299 steps) and --nx 81,160000 (1.25 GB of node
    rows and transport tables) exit 2 with one error line that names the
    bound, well within a second and with no artifact, not after a
    traceback from numpy or an allocation."""
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code = cli.main([a.format(spec=spec_path) for a in argv])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.startswith("error:") and err.count("\n") == 1
    assert "beyond the bound" in err
    assert elapsed < 1.0
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("N, box, nx", [(2, "-4,4;-2,2", "41,41"),
                                         (3, "-4,4;-2,2;-2,2", "11,11,11")],
                         ids=["1,1", "1,1,1"])
def test_fundamental_refuses_a_width_below_the_grid(tmp_path, capsys, N, box,
                                                     nx):
    """A width of 1e-110 is below 1.5 h on every axis and exits 5, as
    1e-60 does, with no CSV: the standard deviations are read through the
    factor of C(1), not through C(1e-110), whose last block underflows and
    made the width check exit 4 (not SPD)."""
    out = tmp_path / "f.csv"
    code = cli.main(["solve", "fundamental", _chain_spec(tmp_path, N),
                     f"--box={box}", "--nx", nx, "--t1", "0.5",
                     "--widths", "1e-110", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert "below 1.5 h" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, says", [
    (["--threads", "2", "mc", "simulate", "{cb}", "--paths", "40000",
      "--dt", "1e-300", "--out", "e.csv"], "beyond the bound"),
    (["--threads", "2", "mc", "mass", "{cb}", "--paths", "40000",
      "--dt", "1e-300"], "beyond the bound"),
    (["--threads", "2", "mc", "density", "{cb}", "--box=-3,3;-2,2",
      "--bins", "4,4", "--paths", "40000", "--dt", "1e-300",
      "--out", "d.csv"], "beyond the bound"),
    (["--threads", "2", "mc", "mass", "{spec}", "--paths", "40000",
      "--dt", "1e-300"], "is not read"),
    (["--threads", "2", "mc", "mass", "{spec}", "--paths", "40000",
      "--dt", "1e-3"], "is not read"),
    (["--threads", "2", "mc", "mass", "{cb}", "--paths", "40000000",
      "--dt", "1e-6"], "make 2.000e+13 path-steps, beyond the bound"),
    (["--threads", "2", "mc", "mass", "{moll}", "--paths", "1000000"],
     "each counted 4096 times, make 2.048e+12 path-steps, beyond the bound"),
    (["--threads", "100000", "mc", "mass", "{spec}", "--paths", "40000000"],
     "threads = 100000: must be positive and at most the bound"),
], ids=["simulate-steps", "mass-steps", "density-steps", "held-tiny-dt",
        "held-dt", "mass-path-steps", "mollified-path-steps", "threads"])
def test_mc_refuses_work_past_its_bounds(spec_path, cb_spec_path, tmp_path,
                                         capsys, monkeypatch, argv, says):
    """On a checkerboard spec, whose paths are stepped, a --dt of 1e-300
    (5e299 steps), or 4e7 paths at --dt 1e-6 (2e13 path-steps, though the
    steps and the end states' 0.96 GB are within their bounds), exits 2
    with one error line that names the bound; so do 10^6 paths at the
    default dt under a mollified A0 (5e8 path-steps, each counted once per
    node of its 16^3-node quadrature); on the prototype, whose constants
    are drawn from the exact law, any given --dt is refused, since it
    would not be read, and so is --threads 100000.  Each runs at two or
    more workers over two or more chunks, and exits well within a second,
    before any generator or worker is made, and writes no artifact."""
    def never(*args, **kwargs):
        raise AssertionError("a generator or worker was made")

    moll = _mollified_spec(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(mc, "chunk_rng", never)
    monkeypatch.setattr(mc.os, "fork", never)
    start = time.perf_counter()
    code = cli.main([a.format(spec=spec_path, cb=cb_spec_path, moll=moll)
                     for a in argv])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.startswith("error:") and err.count("\n") == 1
    assert says in err
    assert elapsed < 1.0
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["mc", "simulate", "{spec}", "--out", "e.csv"],
    ["mc", "mass", "{spec}"],
    ["mc", "density", "{spec}", "--box=-3,3;-2,2", "--bins", "4,4",
     "--out", "d.csv"],
    ["mc", "mass", "{cb}"],
], ids=["simulate", "mass", "density", "mass-stepped"])
def test_mc_refuses_paths_past_the_byte_bound(spec_path, cb_spec_path,
                                              tmp_path, capsys, monkeypatch,
                                              argv):
    """--paths 10^12 would hold 2.4e13 bytes of end states and weights on
    N = 2: each mc command exits 2 with one error line naming the bytes
    and mc.MAX_ENSEMBLE_BYTES, within a second, before any generator is
    made, and with no artifact."""
    def never(*args):
        raise AssertionError("chunk_rng called past the bound")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(mc, "chunk_rng", never)
    start = time.perf_counter()
    code = cli.main([a.format(spec=spec_path, cb=cb_spec_path) for a in argv]
                    + ["--paths", "1000000000000"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.count("\n") == 1
    assert err.startswith("error: paths = 1000000000000: the end states and "
                          "weights take 2.400e+13 bytes, beyond the bound "
                          f"{mc.MAX_ENSEMBLE_BYTES:.3e}")
    assert elapsed < 1.0
    assert not list(tmp_path.glob("*.csv"))


def test_mc_mass_is_scale_free(tmp_path, capsys):
    """With x0 = y = 0 and A0 constant, the exact law is the dilation of
    its law at tau = 1, and D_R is read through the same dilation, so
    mc mass on the chain (1,1,1) counts the same paths at --t1 0.5, 1e-60
    and 1e-120, where C(tau)'s last entry, tau^5 / 20, is far below the
    smallest double."""
    spec = _chain_spec(tmp_path, 3)
    masses = []
    for t1 in ("0.5", "1e-60", "1e-120"):
        code, out = run(capsys, ["mc", "mass", spec, "--paths", "100000",
                                 "--seed", "3", "--t1", t1])
        assert code == 0
        m = json.loads(out)["mass"]
        masses.append((m["mass"], m["count"]))
    assert masses == [masses[0]] * 3
    assert 0 < masses[0][1] < 100000


def test_kernel_eval_points_and_grid_exit_2(spec_path, tmp_path, capsys,
                                           monkeypatch):
    """--points and --grid together are refused, not the grid ignored."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.csv").write_text("x1,x2,t\n0,0,1\n")
    assert cli.main(["kernel", "eval", spec_path, "--pole", "0,0",
                     "--points", "pts.csv", "--grid", "0:1:2;0:1:2;1:2:2",
                     "--out", "k.csv"]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == \
        "error: need exactly one of --points and --grid\n"
    assert not (tmp_path / "k.csv").exists()


def test_harnack_echoes_only_the_options_its_mode_reads(spec_path,
                                                        tmp_path, capsys):
    """The sweep draws its own centers, so its config has no center and
    no center_t; the single run echoes both, the origin and 0.5 by
    default."""
    out = str(tmp_path / "sweep.csv")
    code, text = run(capsys, ["check", "harnack", spec_path, "--sweep", "2",
                              "--out", out])
    assert code == 0
    cfg = json.loads(text)["config"]
    assert "center" not in cfg and "center_t" not in cfg
    assert cfg["seed"] == 0 and cfg["out"] == out
    code, text = run(capsys, ["check", "harnack", spec_path])
    assert code == 0
    cfg = json.loads(text)["config"]
    assert cfg["center"] == "0,0" and cfg["center_t"] == 0.5
    assert "seed" not in cfg and "out" not in cfg


def test_solve_fundamental_reports_each_solve(spec_path, tmp_path, capsys):
    """The report holds each width's dt, boundary ratio and warnings under
    "solves", in width order; the warnings are the boundary audit's, and
    they reach the report alone, not stderr.  The top level has no solver
    fields."""
    argv = ["solve", "fundamental", spec_path, "--box=-2,2;-1,1",
            "--nx", "41,61", "--t1", "0.5", "--widths", "0.25,0.3",
            "--out", str(tmp_path / "f.csv")]
    code = cli.main(argv)
    text, err = capsys.readouterr()
    assert code == 0 and err == ""
    rep = json.loads(text)
    assert rep["widths"] == [0.3, 0.25]
    solves = rep["solves"]
    assert [sorted(s) for s in solves] == \
        [["boundary_max_ratio", "dt", "warnings"]] * 2
    assert all(s["dt"] > 0.0 for s in solves)
    warned = [m for s in solves for m in s["warnings"]]
    assert warned and all(m.startswith("boundary magnitude ")
                          for m in warned)
    assert all(s["boundary_max_ratio"] > 1e-12 for s in solves
               if s["warnings"])
    assert not {"dt", "boundary_max_ratio", "warnings"} & set(rep)


def test_points_file_missing_exit_2(spec_path, tmp_path, capsys,
                                    monkeypatch):
    """A --points file that cannot be read is refused with one error
    line, not an OSError traceback."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["kernel", "eval", spec_path, "--pole", "0,0",
                     "--points", "missing.csv", "--out", "k.csv"]) \
        == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: --points 'missing.csv'")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["kernel", "eval", "{spec}", "--pole", "0,0",
     "--grid", "0:0:1;0:0:1;1:1:1"],
    ["solve", "cauchy", "{spec}", "--box=-4,4;-2,2", "--nx", "21,21",
     "--t1", "0.3"],
    ["solve", "fundamental", "{spec}", "--box=-4,4;-2,2", "--nx", "21,41",
     "--t1", "0.8"],
    ["mc", "simulate", "{spec}", "--paths", "100000"],
    ["mc", "density", "{spec}", "--box=-3,3;-2,2", "--bins", "4,4"],
    ["check", "harnack", "{spec}", "--sweep", "2"],
], ids=lambda a: " ".join(a[:2]))
def test_out_directory_missing_exit_2(spec_path, tmp_path, capsys,
                                      monkeypatch, argv):
    """An --out in a directory that does not exist, a directory or an
    empty --out is refused with one error line before the command reads
    its spec, so before any numerics run."""
    def never(*args, **kwargs):
        raise AssertionError("the spec was read")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(specfile, "load", never)
    for out in (str(Path("missing") / "out.csv"), ".", ""):
        assert cli.main([a.format(spec=spec_path) for a in argv]
                        + ["--out", out]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err == (f"error: --out {out!r} is not a file in an "
                       f"existing directory\n")


def _help(parser, argv, capsys):
    """The text `argv --help` prints, which also builds argv's parsers."""
    with pytest.raises(SystemExit) as e:
        parser.parse_args(list(argv) + ["--help"])
    assert e.value.code == 0
    return capsys.readouterr().out


def _sample_argv(words):
    """--threads, the words, a spec path and a value for every required
    option of the command."""
    argv = ["--threads", "2", *words, "op.json"]
    for flags, kwargs in cli.COMMANDS[words]:
        if kwargs.get("required"):
            argv += [flags[0], "1"]
    return argv


def test_parser_on_the_path_matches_the_full_table(capsys):
    """A parser built for one command, with the other commands known by
    name only, gives the same Namespace and the same help texts as one
    with every command of the table built."""
    full = cli.build_parser()
    for words in cli.COMMANDS:
        _help(full, words, capsys)
    groups = {w[:1] for w in cli.COMMANDS if len(w) > 1}
    for words in [(), *sorted(groups), *cli.COMMANDS]:
        assert _help(cli.build_parser(), words, capsys) \
            == _help(full, words, capsys), words
    for words in cli.COMMANDS:
        argv = _sample_argv(words)
        assert cli.build_parser().parse_args(argv) == full.parse_args(argv)


@pytest.mark.parametrize("argv, code, text", [
    ([], 2, "required: command"),
    (["--help"], 0, "{structure,kernel,solve,mc,mollify,check}"),
    (["check"], 2, "kolmo check [-h] {bounds,harnack,cone,global} ..."),
    (["bogus"], 2, "(choose from 'structure', 'kernel', 'solve', 'mc', "
                   "'mollify', 'check')"),
], ids=["none", "help", "check", "bogus"])
def test_usage_exit_codes(capsys, argv, code, text):
    """Help and usage errors keep their exit codes and list every
    command, though only the parsers argv reaches are built."""
    assert cli.main(argv) == code
    io = capsys.readouterr()
    assert text in (io.out if code == 0 else io.err)


def test_check_cone_builds_three_parsers(spec_path, capsys, monkeypatch):
    """`check cone` builds the top parser, the `check` parser and its
    own, not one per command."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["check", "cone", spec_path]) == 0
    assert built == ["kolmo", "kolmo check", "kolmo check cone"]


def test_dt_help_states_the_solver_constants():
    """DT_HELP writes out the solver's step constants, so that building
    the parser does not import the solver; they must match."""
    from kolmo import pde
    assert f"default {pde.DIFFUSION_STEPS} h^2 / (2 Lambda m0)" \
        in cli.DT_HELP
    assert f"{pde.COURANT} h / |b|_1 where b is present" in cli.DT_HELP


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError, ValueError])
def test_other_value_error_is_not_exit_2(spec_path, monkeypatch, exc):
    """Only the library's argument checks exit 2: any other ValueError,
    numpy's LinAlgError among them, ends in its traceback."""
    def fail(*args, **kwargs):
        raise exc("raised inside the command")

    monkeypatch.setattr("kolmo.mc.simulate", fail)
    with pytest.raises(exc, match="inside the command"):
        cli.main(["mc", "mass", spec_path, "--paths", "10"])


def _reference_csv(path, header, rows):
    """The writer as it was: csv.writer with one f-string per value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{float(v):.17g}" for v in row])


# grid case -> (node counts per axis, value columns); 0 columns is one
# column passed as a 1-D array
_GRIDS = {"grid-1": ((2 * specfile.CSV_BLOCK + 7,), 0),
          "grid-2": ((37, 61), 0), "grid-3": ((7, 13, 29), 1),
          "grid-4": ((9, 9, 9, 5), 2), "grid-one-node": ((1, 40, 1), 0),
          "grid-specials": ((13, 3), 2), "grid-empty": ((3, 0), 1)}


@pytest.mark.parametrize("case", ["specials", "blocks", "list", "empty",
                                  *_GRIDS])
def test_write_csv_matches_csv_writer(tmp_path, case):
    """The block writer gives csv.writer's bytes: signed zero, nan, +-inf,
    subnormals, large and integral floats, a list-of-lists input, more
    rows than one block and zero rows.  Given the axes of a tensor grid and
    only the value columns, it writes the rows of the full grid: one to
    four axes, blocks that split an axis, an axis of one node, two value
    columns, the specials in the axes and in the values, and no nodes."""
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e22, 3.0,
                -17.0, 0.1, 1 / 3, 2.0 ** 60, -1e-300]
    axes = ()
    if case in _GRIDS:
        counts, ncols = _GRIDS[case]
        rng = np.random.default_rng(len(counts))
        axes = [np.sort(rng.normal(size=n)) * 10.0 ** rng.integers(-300, 300)
                for n in counts]
        n = math.prod(counts)
        vals = rng.normal(size=(n, max(ncols, 1)))
        if case == "grid-specials":
            axes[0] = np.array(specials)
            vals[::5] = np.resize(specials, vals[::5].shape)
        grids = np.meshgrid(*axes, indexing="ij")
        rows = np.column_stack([g.ravel() for g in grids] + [vals])
        if ncols == 0:
            vals = vals[:, 0]
    elif case == "specials":
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
    header = [f"c{k}" for k in range(np.shape(rows)[1])]
    if axes:
        cli.write_csv(tmp_path / "new.csv", header, vals, axes=axes)
    else:
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
    save_grid_field(f, tmp_path / "grid.csv")
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
                               spec_path, "--paths", "20000", "--seed", "7",
                               "--box=-3,3;-2,2", "--bins", "12,12",
                               "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_BOUNDS_COMMON = {"command", "subcommand", "spec", "self_test", "threads",
                  "x0", "t0", "lam"}


def test_check_bounds_self_test(spec_path, capsys):
    code, out = run(capsys, ["check", "bounds", spec_path, "--self-test",
                             "--samples", "200"])
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["report"]["c_plus"] - 1.0) < 1e-11
    assert abs(rep["report"]["c_minus"] - 1.0) < 1e-11
    assert set(rep["config"]) == _BOUNDS_COMMON | {"samples", "seed"}
    assert (rep["config"]["samples"], rep["config"]["seed"]) == (200, 0)


def test_check_bounds_self_test_skips_subnormal_targets(spec_path,
                                                       capsys):
    """The self-test draws its points from the kernel's own law, so each of
    these 2000 targets is a normal float and enters the fit, and C+ and C-
    are 1 to rounding.  test_fit_sandwich_skips_subnormal_targets covers
    targets below the smallest normal float."""
    code, out = run(capsys, ["check", "bounds", spec_path, "--self-test",
                             "--samples", "2000", "--seed", "7"])
    rep = json.loads(out)["report"]
    assert code == 0
    assert rep["n_samples"] == 2000
    assert abs(math.log(rep["c_plus"])) <= 1e-12
    assert abs(math.log(rep["c_minus"])) <= 1e-12


def test_check_bounds_self_test_draws_from_the_kernel_law(tmp_path,
                                                         capsys):
    """On the chain (1,1,1,1) the targets at points from the kernel's own
    law are normal floats; uniform points in [-2, 2]^4 left 21 of 2000."""
    code, out = run(capsys, ["check", "bounds", _chain_spec(tmp_path, 4),
                             "--self-test", "--samples", "2000",
                             "--seed", "3"])
    rep = json.loads(out)["report"]
    assert code == 0
    assert rep["n_samples"] >= 1900
    assert abs(math.log(rep["c_plus"])) <= 1e-12
    assert abs(math.log(rep["c_minus"])) <= 1e-12


@pytest.mark.parametrize("budget", ["-0.5", "1.5"])
def test_check_bounds_err_budget_outside_unit_interval_exit_2(
        spec_path, capsys, budget):
    """An --err-budget outside [0, 1) is refused, not a C+ halved by
    -0.5 or a negative C- from 1.5."""
    code = cli.main(["check", "bounds", spec_path,
                     f"--err-budget={budget}"])
    assert code == cli.EXIT_PARSE
    assert "err_budget must lie in [0, 1)" in capsys.readouterr().err


def test_check_bounds_fit_config(spec_path, capsys):
    """Fit mode echoes the options it reads, with their defaults, and not
    the self-test's sample count and seed."""
    code, out = run(capsys, ["check", "bounds", spec_path])
    cfg = json.loads(out)["config"]
    assert code == 0
    assert set(cfg) == _BOUNDS_COMMON | {"lam_plus", "lam_minus",
                                         "err_budget", "box", "nx", "width"}
    assert (cfg["lam_plus"], cfg["lam_minus"], cfg["nx"]) == \
        (4.5, 1.8, "81,121")


def test_check_harnack(spec_path, capsys):
    code, out = run(capsys, ["check", "harnack", spec_path])
    rep = json.loads(out)
    assert code == 0
    assert rep["report"]["quotient"] > 0.0


# -- the Asian-option script ---------------------------------------------------

_ASIAN_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" \
    / "price_asian_options.py"


def _asian_price(*args, **kwargs):
    return runpy.run_path(str(_ASIAN_SCRIPT))["asian_price"](*args, **kwargs)


def test_example_asian_degenerate_sigma():
    rep = _asian_price(100.0, 100.0, 0.05, 0.0, 1.0, paths=1000)
    # deterministic geometric average exp(mean of log S) discounted
    S0, r, T, K = 100.0, 0.05, 1.0, 100.0
    geo = S0 * np.exp(0.5 * r * T)
    want = np.exp(-r * T) * max(geo - K, 0.0)
    assert abs(rep["price_quadrature"] - want) < 1e-10
    assert abs(rep["price_mc"] - want) < 1e-10


def test_asian_quadrature_matches_kemna_vorst():
    """The quadrature price lies within its own quad_tol of the Kemna-Vorst
    closed form: log G ~ N(m, s^2) with m = log S0 + (r - sigma^2/2) T/2
    and s^2 = sigma^2 T/3 for the continuous geometric average G."""
    S0, K, r, sigma, T = 100.0, 100.0, 0.05, 0.2, 1.0
    m = math.log(S0) + 0.5 * (r - 0.5 * sigma * sigma) * T
    s = sigma * math.sqrt(T / 3.0)
    d2 = (m - math.log(K)) / s

    def Phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    kv = math.exp(-r * T) * (math.exp(m + 0.5 * s * s) * Phi(d2 + s)
                             - K * Phi(d2))
    assert abs(kv - 5.5468) < 1e-4
    rep = _asian_price(S0, K, r, sigma, T, paths=2000)
    assert abs(rep["price_quadrature"] - kv) <= rep["quad_tol"]


# -- the convergence-study script ---------------------------------------------


def test_convergence_study_runs(tmp_path):
    """scripts/convergence_study.py, which no command or benchmark step
    runs, still runs against the solver's API on small grids, and prints
    both of its order tables."""
    script = Path(__file__).resolve().parents[1] / "scripts" \
        / "convergence_study.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--grids", "21,41", "--dts",
         "4e-3,2e-3", "--dt-ref", "1e-3"], cwd=tmp_path, env=_kolmo_env(),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "least-squares order" in proc.stdout
    assert "pairwise orders" in proc.stdout


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
    # the values' eigenvalues span 0.44 to 2.31
    doc["ellipticity"] = {"lambda": 0.4, "Lambda": 2.4}
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


def test_mollify_reads_every_component(tmp_path, capsys):
    """On blocks (2, 2), with the checkerboard A0 = diag(1, {1, 9}), the
    report reads the second diagonal entry too: min and max are A0's
    extreme eigenvalues, and the distance is that of the largest
    component, not 0 from the constant first entry."""
    rng = np.random.default_rng(3)
    spec = specfile.OperatorSpec(
        structure=BlockStructure((2, 2)),
        B=random_canonical_B((2, 2), rng),
        fields={"A0": CheckerboardField([np.diag([1.0, 1.0]),
                                         np.diag([1.0, 9.0])],
                                        h=0.25, dim=4, seed=2)},
        window=(0.0, 1.0), ellipticity=(1.0, 9.0))
    p = specfile.save(spec, tmp_path / "op.json")
    # N = 4: 16^4 space nodes per mollified value, so few samples
    code, out = run(capsys, ["mollify", str(p), "--samples", "8",
                             "--eps", "0.2"])
    assert code == 0
    for level in json.loads(out)["eps"]:
        assert level["l1_distance"] > 0.5
        assert 1.0 - 1e-12 <= level["min"] <= 1.0 + 1e-12
        assert 4.0 < level["max"] <= 9.0 + 1e-12


def test_mollify_refuses_reads_past_the_bound(tmp_path, capsys,
                                              monkeypatch):
    """On the chain (1,1,1,1) the default 2000 samples at 3 eps values
    make 2000 * 3 * 16^5 = 6.3e9 quadrature reads, some ten minutes: the
    run exits 2 with one error line naming the reads and
    regularity.MAX_MOLLIFY_READS, within a second and before any field is
    mollified."""
    def never(*args, **kwargs):
        raise AssertionError("a field was mollified")

    monkeypatch.setattr(regularity, "MollifiedField", never)
    start = time.perf_counter()
    code = cli.main(["mollify", _chain_spec(tmp_path, 4)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err == ("error: 2000 samples at 3 eps values on N = 4 make "
                   "6.291e+09 quadrature reads, beyond the bound "
                   f"{regularity.MAX_MOLLIFY_READS:.3e}\n")
    assert elapsed < 1.0


def test_mollify_counts_a_mollified_fields_reads(tmp_path, capsys,
                                                 monkeypatch):
    """A mollified A0 on N = 2 reads its checkerboard 16^3 times per value,
    so the default 2000 samples at 3 eps values make 2000 * 3 * 16^3 *
    16^3 = 1.0e11 reads, hours of work: the run exits 2 with one error
    line naming the reads and regularity.MAX_MOLLIFY_READS, within a
    second and before the field is read."""
    def never(*args, **kwargs):
        raise AssertionError("a mollified field was read")

    monkeypatch.setattr(regularity.MollifiedField, "many", never)
    start = time.perf_counter()
    code = cli.main(["mollify", _mollified_spec(tmp_path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err == ("error: 2000 samples at 3 eps values on N = 2 make "
                   "1.007e+11 quadrature reads, beyond the bound "
                   f"{regularity.MAX_MOLLIFY_READS:.3e}\n")
    assert elapsed < 1.0


# Runs one command in a fresh interpreter and prints, as its last stdout
# line, the scipy modules loaded by then.
_COLD_START = """
import json, sys
from kolmo import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
print(json.dumps(sorted(m for m in sys.modules if m in %r)))
sys.exit(code)
"""
# The modules a cold start imports only for the commands that run them,
# and, by the command's first word, those it does import.
_ON_DEMAND = ("kolmo.pde", "kolmo.mc", "kolmo.verify", "kolmo.kernel",
              "kolmo.regularity", "concurrent.futures", "logging",
              "kolmo.cli_check", "kolmo.cli_kernel", "kolmo.cli_mc",
              "kolmo.cli_mollify", "kolmo.cli_solve")
_COMMAND_LOADS = {"check": ["kolmo.cli_check", "kolmo.kernel",
                            "kolmo.verify"],
                  "kernel": ["kolmo.cli_kernel", "kolmo.kernel"],
                  "mc": ["kolmo.cli_mc", "kolmo.mc"],
                  "mollify": ["kolmo.cli_mollify", "kolmo.regularity"],
                  "solve": ["kolmo.cli_solve", "kolmo.kernel", "kolmo.pde"]}


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
    """No command imports scipy, concurrent.futures or logging, and each
    imports the kernel, the solver, the Monte Carlo, the verifier and the
    mollifier only if it runs them: `structure` and `mc` import no kernel,
    and only `mollify` imports the mollifier.  Each first word imports its
    own command module, kolmo.cli_<word>, and no other; `structure` and a
    bare import, none."""
    env = _kolmo_env()
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START % (_ON_DEMAND,)]
        + [a.format(spec=spec_path, cb=cb_spec_path) for a in argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    scipy, loaded = proc.stdout.strip().splitlines()[-2:]
    assert json.loads(scipy) == []
    words = argv[2:] if argv[:1] == ["--threads"] else argv
    assert json.loads(loaded) == _COMMAND_LOADS.get(words[0] if words
                                                    else "", [])
