"""Command-line surface.

Exit codes: 0 ok, 2 spec parse error, 3 structure rejection, 4 NotSPD,
5 solver error, 6 Monte Carlo error, 7 verification error.
All CSV artifacts: comma separated, header row, 17-significant-digit floats.
All JSON reports: UTF-8, stable key order.
"""

import argparse
import csv
import math
import sys

import numpy as np

from . import coefficients as coeff
from . import kernel as kern
from . import specfile
from .errors import (ArgumentError, BoxTooSmall, ConeUnresolved,
                     CylinderUnresolved, NoAdmissibleFit, NonFinite,
                     NotCanonical, NotNonnegative, NotSPD, RankDeficient,
                     SupportExceedsGrid, Unstable)
from .group import point
from .specfile import SpecError, write_csv

EXIT_PARSE = 2
EXIT_STRUCTURE = 3
EXIT_NOTSPD = 4
EXIT_SOLVER = 5
EXIT_MC = 6
EXIT_VERIFY = 7

_SOLVER_ERRORS = (Unstable, BoxTooSmall, SupportExceedsGrid)
_MC_ERRORS = (NonFinite,)
_VERIFY_ERRORS = (NoAdmissibleFit, CylinderUnresolved, ConeUnresolved,
                  NotNonnegative)
# pde.DIFFUSION_STEPS and pde.COURANT, written out so that building the
# parser does not import the solver
DT_HELP = ("time step; default 4 h^2 / (2 Lambda m0) "
           "(h the finest x^(0) spacing, Lambda the larger of the spec's "
           "ellipticity bound and a probe of A0), within the caps: "
           "0.9 h / |b|_1 where b is present and h^2 / "
           "(2 Lambda m0) where A0 has off-diagonal entries; a --dt above "
           "a cap exits 5")


def emit(report):
    sys.stdout.write(specfile.dumps_stable(report) + "\n")


def _finite(s):
    """float(s); a ValueError unless it is finite."""
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"{s!r} is not a finite number")
    return v


def _floats(s):
    try:
        return np.array([_finite(v) for v in s.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecError(f"{s!r}: {exc}") from exc


def _vector(args, name, N):
    """The point option --name: N comma-separated numbers."""
    v = _floats(getattr(args, name))
    if len(v) != N:
        raise SpecError(f"--{name} needs {N} components, "
                        f"got {getattr(args, name)!r}")
    return v


def _box(args, N):
    """--box: N intervals lo,hi with lo < hi, separated by ';'."""
    box = [_floats(p) for p in args.box.split(";")]
    if len(box) != N or any(len(b) != 2 or not b[0] < b[1] for b in box):
        raise SpecError(f"--box needs {N} intervals lo,hi with lo < hi, "
                        f"got {args.box!r}")
    return np.array(box)


def _counts(args, name, N, least):
    """The count option --name: N integers, each at least `least`."""
    s = getattr(args, name)
    try:
        v = [int(x) for x in s.split(",")]
    except ValueError as exc:
        raise SpecError(f"--{name} {s!r}: {exc}") from exc
    if len(v) != N or min(v) < least:
        raise SpecError(f"--{name} needs {N} counts of at least {least}, "
                        f"got {s!r}")
    return v


def _ranged(conv, ok, what):
    """An argparse type: conv(s), refused (exit 2) unless ok(value)."""
    def parse(s):
        v = conv(s)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"needs {what}, got {s!r}")
        return v
    parse.__name__ = conv.__name__     # argparse's "invalid int value"
    return parse


_positive_int = _ranged(int, lambda n: n >= 1, "an integer >= 1")
_number = _ranged(float, math.isfinite, "a finite number")
_positive_float = _ranged(float, lambda x: 0.0 < x < math.inf,
                          "a finite number > 0")


def _resolved(args, **extra):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k != "func" and v is not None}
    cfg.update(extra)
    return cfg


# -- commands ----------------------------------------------------------------


def cmd_structure(args):
    spec = specfile.load(args.spec)
    rep = spec.hypo_report()
    emit({"command": "structure", "config": _resolved(args),
          "N": spec.structure.N, "Q": spec.structure.Q,
          "alpha": list(spec.structure.alpha),
          "blocks": list(spec.structure.blocks),
          "report": rep.to_dict()})
    return 0


def _points_from_args(args, N):
    if args.points:
        with open(args.points, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        try:
            pts = np.array([[_finite(v) for v in r] for r in rows[1:]])
        except ValueError as exc:
            raise SpecError(f"--points {args.points!r}: {exc}") from exc
        if pts.ndim != 2 or pts.shape[1] != N + 1:
            raise SpecError(f"--points {args.points!r} needs rows of "
                            f"{N + 1} numbers (x..., t)")
        return pts
    if args.grid:
        axes = []
        for part in args.grid.split(";"):
            try:
                lo, hi, n = part.split(":")
                lo, hi, n = _finite(lo), _finite(hi), int(n)
            except ValueError as exc:
                raise SpecError(f"--grid part {part!r} is not lo:hi:n: "
                                f"{exc}") from exc
            if n < 1:
                raise SpecError(f"--grid part {part!r} has no nodes")
            axes.append(np.linspace(lo, hi, n))
        if len(axes) != N + 1:
            raise SpecError(f"--grid needs {N + 1} axes (x..., t)")
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    raise SpecError("need --points or --grid")


def cmd_kernel_eval(args):
    spec = specfile.load(args.spec)
    g = spec.geometry
    pole = point(_vector(args, "pole", g.N), args.t0)
    params = kern.scaled_params(args.lam, g)
    pts = _points_from_args(args, g.N)
    vals = kern.gamma_many(pts, pole, params)
    header = [f"x{k + 1}" for k in range(g.N)] + ["t", "value"]
    write_csv(args.out, header, np.column_stack([pts, vals]))
    rep = {"command": "kernel eval", "config": _resolved(args),
           "n_points": len(pts), "out": args.out}
    if args.check_homogeneity:
        rep["homogeneity_max_defect"] = _homogeneity_defect(g)
    emit(rep)
    return 0


def _homogeneity_defect(g):
    """max |Gamma(delta_r z) - r^-Q Gamma(z)| / (r^-Q Gamma(z)) over 1000
    seeded samples, pole at the origin, principal kernel."""
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(1000):
        t = abs(rng.normal()) + 0.05
        draws.append((t, rng.normal(size=g.N),
                      math.exp(rng.uniform(-1.5, 1.5))))
    t, G, r = map(np.array, zip(*draws))
    pp = kern.scaled_params(2.0, g)
    # x from the kernel's own law, so values stay representable at every
    # scale
    L = np.linalg.cholesky(pp.lam * pp.cov_many(t))
    Z = point(np.einsum("nij,nj->ni", L, G), t)
    origin = point(np.zeros(g.N), 0.0)
    v = kern.gamma_many(g.dilate(r, Z), origin, pp)
    vref = r ** (-g.structure.Q) * kern.gamma_many(Z, origin, pp)
    return float(np.max(np.abs(v - vref) / np.abs(vref)))


def cmd_kernel_reproduce(args):
    spec = specfile.load(args.spec)
    g = spec.geometry
    rng = np.random.default_rng(args.seed)
    params = kern.scaled_params(args.lam, g)
    worst = 0.0
    for _ in range(args.configs):
        t0 = rng.uniform(-1.0, 0.0)
        t = t0 + rng.uniform(0.3, 1.5)
        s = rng.uniform(t0 + 0.1 * (t - t0), t - 0.1 * (t - t0))
        x = rng.normal(size=g.N)
        y = rng.normal(size=g.N)
        res = kern.reproduction_check(x, t, y, t0, s, params)
        worst = max(worst, res["rel_err"])
    emit({"command": "kernel reproduce", "config": _resolved(args),
          "configs": args.configs, "max_rel_err": worst})
    return 0


def cmd_solve_cauchy(args):
    from . import pde
    spec = specfile.load(args.spec)
    g = spec.geometry
    box = _box(args, g.N)
    nx = _counts(args, "nx", g.N, pde.MIN_AXIS_NODES)
    kind, _, wpart = args.datum.partition(":")
    w = _floats(wpart or "0.1")
    if kind != "gaussian" or len(w) != 1 or not w[0] > 0.0:
        raise SpecError(f"--datum {args.datum!r} is not gaussian:<width > 0>")
    w = float(w[0])
    params = kern.scaled_params(args.lam, g)
    datum = pde.KernelDatum(point(_vector(args, "x0", g.N), args.t0), params)
    sol = pde.solve_cauchy(spec.fields, g, datum, box, nx,
                           args.t0 + w, args.t1, dt=args.dt,
                           Lambda=spec.ellipticity[1], keep="final")
    pts = pde._grid_points(sol.axes)
    header = [f"x{k + 1}" for k in range(g.N)] + ["value"]
    write_csv(args.out, header,
              np.column_stack([pts, sol.values[-1].ravel()]))
    meta = dict(sol.meta)
    meta["config"] = _resolved(args, datum_width=w)
    meta["command"] = "solve cauchy"
    emit(meta)
    return 0


def cmd_solve_fundamental(args):
    from . import pde
    spec = specfile.load(args.spec)
    g = spec.geometry
    box = _box(args, g.N)
    nx = _counts(args, "nx", g.N, pde.MIN_AXIS_NODES)
    widths = _floats(args.widths)
    final, report = pde.approx_fundamental(
        spec.fields, g, _vector(args, "x0", g.N), args.t0, args.t1, box, nx,
        widths, lam=args.lam, dt=args.dt, Lambda=spec.ellipticity[1],
        keep="final")
    pts = pde._grid_points(final.axes)
    header = [f"x{k + 1}" for k in range(g.N)] + ["value"]
    write_csv(args.out, header,
              np.column_stack([pts, final.values[-1].ravel()]))
    emit({"command": "solve fundamental", "config": _resolved(args),
          "widths": report["widths"], "spread": report["spread"],
          "out": args.out})
    return 0


def _simulate(args, spec):
    from . import mc as mcmod
    cfg = mcmod.McConfig(paths=args.paths, dt=args.dt, seed=args.seed,
                         lam=args.lam, threads=args.threads)
    return mcmod.simulate(spec.fields, spec.geometry,
                          _vector(args, "x0", spec.structure.N),
                          args.t0, args.t1, cfg)


def cmd_mc_simulate(args):
    spec = specfile.load(args.spec)
    ens = _simulate(args, spec)
    header = [f"x{k + 1}" for k in range(spec.structure.N)] + ["weight"]
    write_csv(args.out, header,
              np.column_stack([ens.final, ens.weights]))
    emit({"command": "mc simulate", "config": _resolved(args),
          "provenance": ens.provenance,
          "mean": [float(v) for v in ens.weighted_mean()]})
    return 0


def cmd_mc_density(args):
    from . import mc as mcmod
    spec = specfile.load(args.spec)
    ens = _simulate(args, spec)
    box = _box(args, spec.structure.N)
    bins = _counts(args, "bins", spec.structure.N, 1)
    d = mcmod.density_estimate(ens, box, bins)
    centers = [0.5 * (e[:-1] + e[1:]) for e in d["edges"]]
    grids = np.meshgrid(*centers, indexing="ij")
    rows = np.column_stack([g.ravel() for g in grids] +
                           [d["density"].ravel(), d["se"].ravel()])
    header = [f"x{k + 1}" for k in range(spec.structure.N)] \
        + ["density", "se"]
    write_csv(args.out, header, rows)
    emit({"command": "mc density", "config": _resolved(args),
          "provenance": ens.provenance, "out": args.out})
    return 0


def cmd_mc_mass(args):
    from . import mc as mcmod
    spec = specfile.load(args.spec)
    ens = _simulate(args, spec)
    m = mcmod.mass_in_DR(ens, _vector(args, "y", spec.structure.N),
                         args.radius, spec.geometry)
    emit({"command": "mc mass", "config": _resolved(args),
          "provenance": ens.provenance, "mass": m})
    return 0


def cmd_mollify(args):
    spec = specfile.load(args.spec)
    name = args.field
    f = spec.fields.get(name)
    if f is None:
        raise SpecError(f"spec has no coefficient {name!r}")
    T = spec.window[1] - spec.window[0]
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, size=(args.samples, f.dim))
    ts = rng.uniform(spec.window[0] + 0.05 * T, spec.window[1] - 0.05 * T,
                     size=args.samples)
    report = {"command": "mollify", "config": _resolved(args), "eps": []}
    raw = np.asarray(f.many(X, ts)).reshape(len(X), -1)[:, 0]
    for eps in _floats(args.eps):
        fm = coeff.mollify(f, eps=eps, T=T)
        sm = fm.many(X, ts).reshape(len(X), -1)[:, 0]
        report["eps"].append({
            "eps": eps,
            "l1_distance": float(np.mean(np.abs(sm - raw))),
            "min": float(np.min(sm)), "max": float(np.max(sm))})
    emit(report)
    return 0


# The options each mode of `check bounds` reads: dest -> (flag, default).
# An option of the other mode is refused rather than echoed and ignored.
_BOUNDS_SELF_TEST = {"samples": ("--samples", 500), "seed": ("--seed", 0)}
_BOUNDS_FIT = {"lam_plus": ("--lambda-plus", 4.5),
               "lam_minus": ("--lambda-minus", 1.8),
               "err_budget": ("--err-budget", 0.05),
               "box": ("--box", "-4,4;-2,2"), "nx": ("--nx", "81,121"),
               "widths": ("--widths", "0.3,0.25,0.2")}


def _bounds_mode(args):
    """Fill in the defaults of the options args.self_test's mode reads;
    raise SpecError if an option of the other mode was given."""
    reads, other = ((_BOUNDS_SELF_TEST, _BOUNDS_FIT) if args.self_test
                    else (_BOUNDS_FIT, _BOUNDS_SELF_TEST))
    for dest, (flag, _) in other.items():
        if getattr(args, dest) is not None:
            raise SpecError(f"{flag} is not read "
                            f"{'with' if args.self_test else 'without'} "
                            f"--self-test")
    for dest, (_, default) in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def cmd_check_bounds(args):
    from . import verify
    _bounds_mode(args)
    spec = specfile.load(args.spec)
    g = spec.geometry
    x0 = _vector(args, "x0", g.N)
    pole = point(x0, args.t0)
    if args.self_test:
        rng = np.random.default_rng(args.seed)
        pts = np.column_stack(
            [rng.uniform(-2.0, 2.0, size=(args.samples, g.N)),
             args.t0 + rng.uniform(0.05, 1.0, size=args.samples)])
        params = kern.scaled_params(args.lam, g)
        target = kern.gamma_many(pts, pole, params)
        rep = verify.fit_sandwich(pts, target, pole, g, args.lam, args.lam)
    else:
        from . import pde
        box = _box(args, g.N)
        nx = _counts(args, "nx", g.N, pde.MIN_AXIS_NODES)
        widths = _floats(args.widths)
        final, _ = pde.approx_fundamental(
            spec.fields, g, x0, args.t0,
            args.t0 + 1.0, box, nx, widths, lam=args.lam,
            Lambda=spec.ellipticity[1], keep="final")
        tq = final.taxis[-1]
        pts = pde._grid_points(final.axes)
        keep = final.values[-1].ravel() > 1e-3 * final.values[-1].max()
        pts = np.column_stack([pts, np.full(len(pts), tq)])[keep]
        target = final.values[-1].ravel()[keep]
        rep = verify.fit_sandwich(pts, target, pole, g,
                                  args.lam_plus, args.lam_minus,
                                  err_budget=args.err_budget)
    emit({"command": "check bounds", "config": _resolved(args),
          "report": rep.to_dict()})
    return 0


def _kernel_u(spec, args):
    g = spec.geometry
    params = kern.scaled_params(args.lam, g)
    pole = point(_vector(args, "pole", g.N), args.pole_t0)

    def u(rows):
        return kern.gamma_many(rows, pole, params)
    return u


def cmd_check_harnack(args):
    from . import verify
    spec = specfile.load(args.spec)
    g = spec.geometry
    u = _kernel_u(spec, args)
    if args.sweep:
        rows = []
        rng = np.random.default_rng(args.seed)
        for _ in range(args.sweep):
            c = point(rng.uniform(-0.5, 0.5, g.N), rng.uniform(0.2, 0.8))
            h = verify.harnack_local(u, c, args.radius, g, omega=args.omega,
                                     n_space=args.n_space,
                                     n_time=args.n_time)
            rows.append(list(c) + [args.radius, h.sup_minus, h.inf_plus,
                                   h.quotient])
        header = [f"c{k + 1}" for k in range(g.N)] \
            + ["ct", "r", "sup", "inf", "quotient"]
        write_csv(args.out, header, rows)
        emit({"command": "check harnack", "config": _resolved(args),
              "rows": len(rows), "out": args.out})
    else:
        z0 = point(_vector(args, "center", g.N), args.center_t)
        h = verify.harnack_local(u, z0, args.radius, g, omega=args.omega,
                                 n_space=args.n_space, n_time=args.n_time)
        emit({"command": "check harnack", "config": _resolved(args),
              "report": h.to_dict()})
    return 0


def cmd_check_cone(args):
    from . import verify
    spec = specfile.load(args.spec)
    g = spec.geometry
    u = _kernel_u(spec, args)
    vertex = point(_vector(args, "center", g.N), args.center_t)
    rep = verify.harnack_cone(u, vertex, args.beta, args.radius, args.R, g)
    emit({"command": "check cone", "config": _resolved(args),
          "report": rep})
    return 0


def cmd_check_global(args):
    from . import verify
    spec = specfile.load(args.spec)
    g = spec.geometry
    u = _kernel_u(spec, args)
    rng = np.random.default_rng(args.seed)
    pairs = []
    for _ in range(args.pairs):
        w = point(rng.uniform(-1.0, 1.0, g.N), rng.uniform(-1.0, 0.0))
        z = point(rng.uniform(-1.0, 1.0, g.N),
                  w[-1] + rng.uniform(0.3, 1.0))
        pairs.append((w, z))
    rep = verify.harnack_global(u, pairs, g, lam=args.lam)
    emit({"command": "check global", "config": _resolved(args),
          "report": rep})
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="kolmo")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker threads, at least 1; only the mc commands "
                        "read it")
    sub = p.add_subparsers(dest="command", required=True)

    def spec_arg(sp):
        sp.add_argument("spec", help="OperatorSpec JSON path")

    sp = sub.add_parser("structure")
    spec_arg(sp)
    sp.set_defaults(func=cmd_structure)

    kp = sub.add_parser("kernel")
    ksub = kp.add_subparsers(dest="subcommand", required=True)
    sp = ksub.add_parser("eval")
    spec_arg(sp)
    sp.add_argument("--pole", required=True)
    sp.add_argument("--t0", type=_number, default=0.0)
    sp.add_argument("--points")
    sp.add_argument("--grid")
    sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
    sp.add_argument("--check-homogeneity", action="store_true")
    sp.add_argument("--out", default="kernel_eval.csv")
    sp.set_defaults(func=cmd_kernel_eval)
    sp = ksub.add_parser("reproduce")
    spec_arg(sp)
    sp.add_argument("--configs", type=_positive_int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
    sp.set_defaults(func=cmd_kernel_reproduce)

    vp = sub.add_parser("solve")
    vsub = vp.add_subparsers(dest="subcommand", required=True)
    sp = vsub.add_parser("cauchy")
    spec_arg(sp)
    sp.add_argument("--box", required=True, help="lo,hi;lo,hi;...")
    sp.add_argument("--nx", required=True)
    sp.add_argument("--t0", type=_number, default=0.0)
    sp.add_argument("--t1", type=_number, required=True)
    sp.add_argument("--dt", type=_positive_float, help=DT_HELP)
    sp.add_argument("--x0", default="0,0")
    sp.add_argument("--datum", default="gaussian:0.1")
    sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
    sp.add_argument("--out", default="cauchy.csv")
    sp.set_defaults(func=cmd_solve_cauchy)
    sp = vsub.add_parser("fundamental")
    spec_arg(sp)
    sp.add_argument("--box", required=True)
    sp.add_argument("--nx", required=True)
    sp.add_argument("--x0", default="0,0")
    sp.add_argument("--t0", type=_number, default=0.0)
    sp.add_argument("--t1", type=_number, required=True)
    sp.add_argument("--dt", type=_positive_float, help=DT_HELP)
    sp.add_argument("--widths", default="0.3,0.25,0.2")
    sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
    sp.add_argument("--out", default="fundamental.csv")
    sp.set_defaults(func=cmd_solve_fundamental)

    mp = sub.add_parser("mc")
    msub = mp.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("simulate", cmd_mc_simulate),
                     ("density", cmd_mc_density),
                     ("mass", cmd_mc_mass)):
        sp = msub.add_parser(name)
        spec_arg(sp)
        sp.add_argument("--paths", type=int, default=100000)
        sp.add_argument("--dt", type=_positive_float, default=1e-3)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--x0", default="0,0")
        sp.add_argument("--t0", type=_number, default=0.0)
        sp.add_argument("--t1", type=_number, default=0.5)
        sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
        if name == "simulate":
            sp.add_argument("--out", default="ensemble.csv")
        if name == "density":
            sp.add_argument("--box", required=True)
            sp.add_argument("--bins", required=True)
            sp.add_argument("--out", default="density.csv")
        if name == "mass":
            sp.add_argument("--y", default="0,0")
            sp.add_argument("--radius", type=_positive_float, default=1.0)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("mollify")
    spec_arg(sp)
    sp.add_argument("--field", default="A0")
    sp.add_argument("--eps", default="0.2,0.1,0.05")
    sp.add_argument("--samples", type=_positive_int, default=2000)
    sp.set_defaults(func=cmd_mollify)

    cp = sub.add_parser("check")
    csub = cp.add_subparsers(dest="subcommand", required=True)
    sp = csub.add_parser("bounds")
    spec_arg(sp)
    sp.add_argument("--self-test", action="store_true")
    sp.add_argument("--x0", default="0,0")
    sp.add_argument("--t0", type=_number, default=0.0)
    sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
    # read with --self-test only
    sp.add_argument("--samples", type=_positive_int)
    sp.add_argument("--seed", type=int)
    # read without --self-test only
    sp.add_argument("--lambda-plus", dest="lam_plus", type=_number)
    sp.add_argument("--lambda-minus", dest="lam_minus", type=_number)
    sp.add_argument("--err-budget", dest="err_budget", type=_number)
    sp.add_argument("--box")
    sp.add_argument("--nx")
    sp.add_argument("--widths")
    sp.set_defaults(func=cmd_check_bounds)
    sp = csub.add_parser("harnack")
    spec_arg(sp)
    sp.add_argument("--center", default="0,0")
    sp.add_argument("--center-t", dest="center_t", type=_number, default=0.5)
    sp.add_argument("--radius", type=_positive_float, default=0.4)
    sp.add_argument("--omega", default=0.5, type=_ranged(
        float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)"))
    sp.add_argument("--n-space", dest="n_space", type=_positive_int,
                    default=3)
    sp.add_argument("--n-time", dest="n_time", type=_positive_int, default=3)
    sp.add_argument("--pole", default="0,0")
    sp.add_argument("--pole-t0", dest="pole_t0", type=_number, default=-2.0)
    sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
    sp.add_argument("--sweep", default=0, type=_ranged(
        int, lambda n: n >= 0, "an integer >= 0"))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="harnack_sweep.csv")
    sp.set_defaults(func=cmd_check_harnack)
    sp = csub.add_parser("cone")
    spec_arg(sp)
    sp.add_argument("--center", default="0,0")
    sp.add_argument("--center-t", dest="center_t", type=_number, default=0.5)
    sp.add_argument("--beta", type=_positive_float, default=1.0)
    sp.add_argument("--radius", type=_positive_float, default=0.5)
    sp.add_argument("--R", type=_positive_float, default=0.5)
    sp.add_argument("--pole", default="0,0")
    sp.add_argument("--pole-t0", dest="pole_t0", type=_number, default=-2.0)
    sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
    sp.set_defaults(func=cmd_check_cone)
    sp = csub.add_parser("global")
    spec_arg(sp)
    sp.add_argument("--pairs", type=_positive_int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pole", default="0,0")
    sp.add_argument("--pole-t0", dest="pole_t0", type=_number, default=-2.0)
    sp.add_argument("--lambda", dest="lam", type=_number, default=2.0)
    sp.set_defaults(func=cmd_check_global)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SpecError, ArgumentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (NotCanonical, RankDeficient) as e:
        print(f"structure error: {e}", file=sys.stderr)
        return EXIT_STRUCTURE
    except NotSPD as e:
        print(f"not SPD: {e}", file=sys.stderr)
        return EXIT_NOTSPD
    except _SOLVER_ERRORS as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except _MC_ERRORS as e:
        print(f"mc error: {e}", file=sys.stderr)
        return EXIT_MC
    except _VERIFY_ERRORS as e:
        print(f"verify error: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
