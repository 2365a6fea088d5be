"""The benchmark's workloads: inputs made from the seed, the step sequence
of one pass, and the check of every step's output.

A step is one `kolmo` command (program "kolmo") or one call of the
benchmark's own library step (program "drive", see drive.py).  Steps read
only the generated input files and their argv, and write their artifacts
into the current directory, so the same argv run in another directory must
produce byte-identical artifacts.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kolmo import coefficients as coeff
from kolmo import kernel as kern
from kolmo import specfile, verify
from kolmo.group import point
from kolmo.structure import BlockStructure

# Inputs live in ../inputs relative to each pass directory.
INPUTS = "../inputs"

# Rough coefficients: the ellipticity interval of the checkerboard A0 and
# the value sets of b and c (c <= 0 keeps Feynman-Kac weights <= 1).
ROUGH_LAMBDA = (0.5, 1.5)
ROUGH_B = (-0.5, 0.5)
ROUGH_C = (-0.5, 0.0)
CELL = 0.25

# The solve's final slice is compared with the exact kernel; the splitting
# scheme is first order in dt, and at these grids its error is a few per
# cent of the peak, so a tenth of the peak separates a working solver from
# a broken one.
SOLVE_REL_TOL = 0.1
# Positivity: the scheme is monotone, but its arithmetic rounds at the
# scale of the peak value, so values above -ROUNDOFF * peak count as zero.
# The tracer counts every negative node (pde.solve_cauchy.negative_values).
ROUNDOFF = 64 * np.finfo(float).eps
# MC covariance: within this many standard errors of lam C(t), after the
# exactly computed O(dt) bias of the Euler scheme.
MC_SE_FACTOR = 5.0
REPRODUCE_TOL = 1e-6
HOMOGENEITY_TOL = 1e-10
# The mollifier is a convex combination of field values; allow a few ulps.
ULPS = 4 * np.finfo(float).eps


@dataclass
class Step:
    label: str
    program: str            # "kolmo" or "drive"
    args: list
    kind: str               # "solve", "mc", "verify" or "other"
    check: object           # check(report, pass_dir) -> dict with "ok"
    outs: tuple = ()        # CSV artifacts the step writes


@dataclass
class Workload:
    name: str
    setup: Step             # `kolmo structure` on the workload's spec
    steps: list = field(default_factory=list)


def _fmt(v):
    return ",".join(repr(float(x)) for x in np.atleast_1d(v))


def _seed(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _result(ok, **info):
    return dict(ok=bool(ok), **info)


# -- inputs ------------------------------------------------------------------


def chain_spec(rng):
    """Chain (1,1,1): N=3, x1 -> x2 -> x3, with a seeded checkerboard A0 so
    the library step has a rough field on the N=3 geometry."""
    st = BlockStructure((1, 1, 1))
    B = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    lam, Lam = ROUGH_LAMBDA
    A0 = coeff.checkerboard_spd(lam, Lam, 1, 3, h=CELL, seed=_seed(rng))
    return specfile.OperatorSpec(structure=st, B=B, fields={"A0": A0},
                                 window=(0.0, 1.0), ellipticity=ROUGH_LAMBDA)


def rough_spec(rng):
    """Prototype geometry with time-dependent checkerboard A0, b and c."""
    proto = specfile.prototype_spec()
    lam, Lam = ROUGH_LAMBDA
    fields = {
        "A0": coeff.checkerboard_spd(lam, Lam, 1, 2, h=CELL,
                                     seed=_seed(rng)),
        "b": coeff.CheckerboardField([np.array([v]) for v in ROUGH_B],
                                     h=CELL, dim=2, seed=_seed(rng)),
        "c": coeff.CheckerboardField([np.array(v) for v in ROUGH_C],
                                     h=CELL, dim=2, seed=_seed(rng)),
    }
    return specfile.OperatorSpec(structure=proto.structure, B=proto.B,
                                 fields=fields, window=(0.0, 1.0),
                                 ellipticity=ROUGH_LAMBDA)


def write_inputs(name, seed, inputs_dir):
    """Write the workload's spec files; the same seed writes the same bytes.
    Returns (rng for the step parameters, loaded specs by file name)."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    inputs_dir = Path(inputs_dir)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    specs = {"proto.json": specfile.prototype_spec()}
    if name == "harnack-geometry":
        specs["chain.json"] = chain_spec(rng)
    if name == "rough-coefficients":
        specs["rough.json"] = rough_spec(rng)
    for fname, spec in specs.items():
        specfile.save(spec, inputs_dir / fname)
    return rng, {k: specfile.load(inputs_dir / k) for k in specs}


# -- checks ------------------------------------------------------------------


def _exact_slice(csv_path, x0, t0, t1, spec, lam=2.0):
    rows = _csv(csv_path)
    params = kern.scaled_params(lam, spec.geometry)
    N = spec.structure.N
    pts = np.column_stack([rows[:, :N], np.full(len(rows), t1)])
    exact = kern.gamma_many(pts, point(x0, t0), params)
    return rows[:, N], exact


def check_solve_exact(spec, x0, t0, t1, out):
    def check(rep, d):
        vals, exact = _exact_slice(Path(d) / out, x0, t0, t1, spec)
        finite = bool(np.all(np.isfinite(vals)))
        err = float(np.max(np.abs(vals - exact)) / np.max(exact))
        ok = finite and _nonneg(vals) and err <= SOLVE_REL_TOL
        return _result(ok, errors={"pde.solve_cauchy.max_rel_err": err},
                       **_solve_meta(rep))
    return check


def _nonneg(vals):
    return vals.min() >= -ROUNDOFF * np.abs(vals).max()


def _solve_meta(rep):
    info = {}
    if "boundary_max_ratio" in rep:
        info["boundary_max_ratio"] = rep["boundary_max_ratio"]
        info["warnings"] = rep["warnings"]
        steps = int(round((rep["t1"] - rep["t0"]) / rep["dt"]))
        info["work"] = steps * int(np.prod(rep["nx"]))
    return info


def check_solve_nonneg(out):
    def check(rep, d):
        vals = _csv(Path(d) / out)[:, -1]
        ok = bool(np.all(np.isfinite(vals))) and _nonneg(vals)
        return _result(ok, min=float(vals.min()), **_solve_meta(rep))
    return check


def _euler_cov(B, m0, lam, dt, nsteps):
    """Exact covariance of the Euler-Maruyama recursion for the linear SDE."""
    N = B.shape[0]
    F = np.eye(N) - dt * B
    Q = np.zeros((N, N))
    Q[:m0, :m0] = lam * dt * np.eye(m0)
    S = np.zeros((N, N))
    for _ in range(nsteps):
        S = F @ S @ F.T + Q
    return S


def check_mc_cov(spec, t0, t1, out, lam=2.0):
    def check(rep, d):
        rows = _csv(Path(d) / out)
        N = spec.structure.N
        X, w = rows[:, :N], rows[:, N]
        n = len(X)
        C = lam * kern.covariance_matrix(t1 - t0, spec.B,
                                         np.eye(spec.structure.m0))
        prov = rep["provenance"]
        bias = np.abs(_euler_cov(spec.B, spec.structure.m0, lam,
                                 prov["dt"], prov["nsteps"]) - C)
        D = X - X.mean(axis=0)
        prod = D[:, :, None] * D[:, None, :]
        Chat = prod.mean(axis=0)
        se = prod.std(axis=0) / math.sqrt(n)
        dev = np.abs(Chat - C)
        ok = (n == rep["config"]["paths"] and np.all(w == 1.0)
              and bool(np.all(dev <= MC_SE_FACTOR * se + bias)))
        err = float(np.max(dev) / np.max(np.abs(C)))
        return _result(ok, errors={"mc.simulate.cov_max_rel_err": err},
                       work=n * prov["nsteps"])
    return check


def check_mc_mass(rep, d):
    m = rep["mass"]
    ok = (math.isfinite(m["mass"]) and 0.0 <= m["mass"] <= 1.0
          and m["se"] >= 0.0
          and 0 <= m["count"] <= rep["config"]["paths"])
    prov = rep["provenance"]
    return _result(ok, work=rep["config"]["paths"] * prov["nsteps"])


def check_mc_density(out):
    def check(rep, d):
        rows = _csv(Path(d) / out)
        dens, se = rows[:, -2], rows[:, -1]
        cfg = rep["config"]
        box = np.array([[float(v) for v in p.split(",")]
                        for p in cfg["box"].split(";")])
        bins = [int(v) for v in cfg["bins"].split(",")]
        vol = float(np.prod((box[:, 1] - box[:, 0]) / bins))
        ok = (len(rows) == int(np.prod(bins))
              and bool(np.all(np.isfinite(rows))) and dens.min() >= 0.0
              and se.min() >= 0.0 and dens.sum() * vol <= 1.0 + 1e-12)
        prov = rep["provenance"]
        return _result(ok, work=cfg["paths"] * prov["nsteps"])
    return check


def check_kernel_eval(spec, pole, out):
    def check(rep, d):
        rows = _csv(Path(d) / out)
        N = spec.structure.N
        ref = kern.gamma_many(rows[:, :N + 1], pole,
                              kern.scaled_params(2.0, spec.geometry))
        dev = float(np.max(np.abs(rows[:, N + 1] - ref)))
        defect = rep["homogeneity_max_defect"]
        ok = (len(rows) == rep["n_points"]
              and dev <= 1e-12 * float(np.max(ref))
              and defect <= HOMOGENEITY_TOL)
        return _result(
            ok, errors={"kernel.gamma_K_lambda.homogeneity_defect": defect})
    return check


def check_reproduce(rep, d):
    err = rep["max_rel_err"]
    return _result(err <= REPRODUCE_TOL,
                   errors={"kernel.reproduction_check.max_rel_err": err})


def check_harnack_sweep(spec, n, out):
    nodes = 2 * len(verify.unit_cylinder_nodes(spec.structure, 3, 3, 0.5,
                                               True))

    def check(rep, d):
        rows = _csv(Path(d) / out)
        q = rows[:, -1]
        ok = (rep["rows"] == n == len(rows) and bool(np.all(np.isfinite(q)))
              and q.min() > 0.0)
        return _result(ok, work=n * nodes)
    return check


def check_cone(rep, d):
    r = rep["report"]
    ok = (math.isfinite(r["max_quotient"]) and r["max_quotient"] >= 1.0
          and r["min_value"] > 0.0 and r["n_nodes"] >= 27)
    return _result(ok, work=r["n_nodes"] + 1)


def check_global(rep, d):
    r = rep["report"]
    ok = (math.isfinite(r["c0"]) and r["c0"] >= 1.0
          and r["n_pairs"] == rep["config"]["pairs"])
    return _result(ok, work=2 * r["n_pairs"])


def check_bounds_self(rep, d):
    # target and envelopes are the same kernel: the sandwich must hold
    # with C- <= 1 <= C+
    r = rep["report"]
    ok = (r["c_minus"] <= 1.0 + 1e-9 and r["c_plus"] >= 1.0 - 1e-9
          and r["violations"] == 0 and r["n_samples"] > 0)
    return _result(ok, work=rep["config"]["samples"])


def check_moduli(spec):
    lam, Lam = spec.ellipticity

    def check(rep, d):
        om = np.asarray(rep["omega"])
        ok = (bool(np.all(np.diff(om) >= 0.0)) and om.min() >= 0.0
              and om.max() <= (Lam - lam) * (1.0 + ULPS)
              and math.isfinite(rep["holder"]) and rep["holder"] >= 0.0)
        return _result(ok)
    return check


def check_structure(rep, d):
    return _result(rep["report"]["hypoelliptic"] is True)


def check_mollify(spec):
    lam, Lam = spec.ellipticity

    def check(rep, d):
        lo = min(e["min"] for e in rep["eps"])
        hi = max(e["max"] for e in rep["eps"])
        ok = lo >= lam * (1.0 - ULPS) and hi <= Lam * (1.0 + ULPS)
        return _result(ok, min=lo, max=hi)
    return check


# -- step sequences ----------------------------------------------------------


def _threads(nproc):
    return str(min(2, nproc))


def kinetic_solve(rng, specs, nproc):
    proto = specs["proto.json"]
    spec = f"{INPUTS}/proto.json"
    box = "--box=-4,4;-2,2"
    x0 = rng.uniform([-0.5, -0.3], [0.5, 0.3])
    x1 = rng.uniform([-0.5, -0.3], [0.5, 0.3])
    # solve cauchy: the datum is the lam=2 kernel at t0 + 0.1
    return [
        Step("solve-cauchy", "kolmo",
             ["solve", "cauchy", spec, box, "--nx", "161,161", "--t1", "0.5",
              f"--x0={_fmt(x0)}", "--out", "cauchy.csv"], "solve",
             check_solve_exact(proto, x0, 0.0, 0.5, "cauchy.csv"),
             ("cauchy.csv",)),
        Step("solve-fundamental", "kolmo",
             ["solve", "fundamental", spec, box, "--nx", "101,101",
              "--t1", "0.6", f"--x0={_fmt(x1)}", "--out", "fundamental.csv"],
             "solve",
             check_solve_exact(proto, x1, 0.0, 0.6, "fundamental.csv"),
             ("fundamental.csv",)),
    ]


def kinetic_mc(rng, specs, nproc):
    proto = specs["proto.json"]
    spec = f"{INPUTS}/proto.json"
    th = ["--threads", _threads(nproc)]
    paths = "65536"
    x0 = rng.uniform([-0.5, -0.3], [0.5, 0.3])
    y = rng.uniform([-0.5, -0.3], [0.5, 0.3])
    return [
        Step("mc-simulate", "kolmo",
             th + ["mc", "simulate", spec, "--paths", paths,
                   "--seed", str(_seed(rng)), f"--x0={_fmt(x0)}",
                   "--out", "ensemble.csv"], "mc",
             check_mc_cov(proto, 0.0, 0.5, "ensemble.csv"),
             ("ensemble.csv",)),
        Step("mc-mass", "kolmo",
             th + ["mc", "mass", spec, "--paths", paths,
                   "--seed", str(_seed(rng)), f"--x0={_fmt(x0)}",
                   f"--y={_fmt(y)}", "--radius", "1.0"], "mc",
             check_mc_mass),
        Step("mc-density", "kolmo",
             th + ["mc", "density", spec, "--paths", paths,
                   "--seed", str(_seed(rng)), f"--x0={_fmt(x0)}",
                   "--box=-3,3;-2,2", "--bins", "30,30",
                   "--out", "density.csv"], "mc",
             check_mc_density("density.csv"), ("density.csv",)),
    ]


def harnack_geometry(rng, specs, nproc):
    proto, chain = specs["proto.json"], specs["chain.json"]
    p, c = f"{INPUTS}/proto.json", f"{INPUTS}/chain.json"
    cone_c = rng.uniform(-0.5, 0.5, 2)
    cone_t = rng.uniform(0.3, 0.7)
    pole3 = np.zeros(4)
    grid3 = "--grid=-1:1:9;-1:1:9;-1:1:9;0.1:1:5"
    sweep = 20
    return [
        Step("harnack-sweep-n2", "kolmo",
             ["check", "harnack", p, "--sweep", str(sweep),
              "--seed", str(_seed(rng)), "--out", "harnack2.csv"], "verify",
             check_harnack_sweep(proto, sweep, "harnack2.csv"),
             ("harnack2.csv",)),
        Step("cone", "kolmo",
             ["check", "cone", p, f"--center={_fmt(cone_c)}",
              f"--center-t={float(cone_t)!r}"], "verify", check_cone),
        Step("global", "kolmo",
             ["check", "global", p, "--pairs", "50",
              "--seed", str(_seed(rng))], "verify", check_global),
        Step("bounds-self-test", "kolmo",
             ["check", "bounds", p, "--self-test", "--samples", "2000",
              "--seed", str(_seed(rng))], "verify", check_bounds_self),
        Step("kernel-homogeneity-n3", "kolmo",
             ["kernel", "eval", c, "--pole", "0,0,0", grid3,
              "--check-homogeneity", "--out", "kernel3.csv"], "other",
             check_kernel_eval(chain, pole3, "kernel3.csv"),
             ("kernel3.csv",)),
        Step("kernel-reproduce-n3", "kolmo",
             ["kernel", "reproduce", c, "--configs", "1",
              "--seed", str(_seed(rng))], "other", check_reproduce),
        Step("moduli-n3", "drive",
             ["moduli", c, "--pairs", "150", "--seed", str(_seed(rng))],
             "other", check_moduli(chain)),
    ]


def rough_coefficients(rng, specs, nproc):
    rough = specs["rough.json"]
    spec = f"{INPUTS}/rough.json"
    x0 = rng.uniform([-0.5, -0.3], [0.5, 0.3])
    return [
        Step("rough-solve", "kolmo",
             ["solve", "cauchy", spec, "--box=-4,4;-2,2", "--nx", "101,101",
              "--t1", "0.5", f"--x0={_fmt(x0)}", "--out", "rough.csv"],
             "solve", check_solve_nonneg("rough.csv"), ("rough.csv",)),
        Step("rough-mc-mass", "kolmo",
             ["--threads", _threads(nproc), "mc", "mass", spec,
              "--paths", "32768", "--seed", str(_seed(rng)),
              f"--x0={_fmt(x0)}", f"--y={_fmt(x0)}", "--radius", "1.0"], "mc",
             check_mc_mass),
        Step("mollify", "kolmo",
             ["mollify", spec, "--eps", "0.2,0.1", "--samples", "100"],
             "other", check_mollify(rough)),
    ]


WORKLOADS = {
    "kinetic-solve": ("proto.json", kinetic_solve),
    "kinetic-mc": ("proto.json", kinetic_mc),
    "harnack-geometry": ("chain.json", harnack_geometry),
    "rough-coefficients": ("rough.json", rough_coefficients),
}


def build(name, seed, inputs_dir, nproc):
    """Write the inputs of workload `name` and return its Workload."""
    spec_file, make = WORKLOADS[name]
    rng, specs = write_inputs(name, seed, inputs_dir)
    setup = Step("structure", "kolmo", ["structure", f"{INPUTS}/{spec_file}"],
                 "setup", check_structure)
    return Workload(name, setup, make(rng, specs, nproc))
