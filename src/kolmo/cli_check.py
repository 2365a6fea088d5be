"""`kolmo check bounds|harnack|cone|global`: the Gaussian sandwich fit and
the local, cone and global Harnack quotients of the model kernel."""

import numpy as np

from . import kernel as kern
from . import specfile, verify
from .cliargs import box, check_out, counts, emit, floats, load, \
    resolved, vector
from .group import point
from .specfile import SpecError

# The options each mode of `check bounds` and `check harnack` reads:
# dest -> (flag, default).  An option of the other mode is refused rather
# than echoed and ignored; a default of None leaves the option to `load`.
_BOUNDS_SELF_TEST = {"samples": ("--samples", 500), "seed": ("--seed", 0)}
_BOUNDS_FIT = {"lam_plus": ("--lambda-plus", 4.5),
               "lam_minus": ("--lambda-minus", 1.8),
               "err_budget": ("--err-budget", 0.05),
               "box": ("--box", "-4,4;-2,2"), "nx": ("--nx", "81,121"),
               "widths": ("--widths", "0.3,0.25,0.2")}
_HARNACK_SWEEP = {"seed": ("--seed", 0),
                  "out": ("--out", "harnack_sweep.csv")}
_HARNACK_SINGLE = {"center": ("--center", None),
                "center_t": ("--center-t", 0.5)}


def _mode(args, flag, on, reads_on, reads_off):
    """Fill in the defaults of the options the mode reads: reads_on when
    the option flag is on, else reads_off; raise SpecError if an option of
    the other mode was given, else drop it from args, so that neither
    `load` nor the report's echo sees it."""
    reads, other = (reads_on, reads_off) if on else (reads_off, reads_on)
    for dest, (opt, _) in other.items():
        if getattr(args, dest) is not None:
            raise SpecError(f"{opt} is not read "
                            f"{'with' if on else 'without'} {flag}")
        delattr(args, dest)
    for dest, (_, default) in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def cmd_check_bounds(args):
    _mode(args, "--self-test", args.self_test, _BOUNDS_SELF_TEST,
          _BOUNDS_FIT)
    spec = load(args)
    g = spec.geometry
    x0 = vector(args, "x0", g.N)
    pole = point(x0, args.t0)
    if args.self_test:
        rng = np.random.default_rng(args.seed)
        tau = rng.uniform(0.05, 1.0, size=args.samples)
        G = rng.standard_normal((args.samples, g.N))
        params = kern.scaled_params(args.lam, g)
        # points from the kernel's own law: normal floats in any dimension
        pts = g.compose(pole, kern.law_points(tau, G, params))
        target = kern.gamma_many(pts, pole, params)
        rep = verify.fit_sandwich(pts, target, pole, g, args.lam, args.lam)
    else:
        from . import pde
        bx = box(args, g.N)
        nx = counts(args, "nx", g.N, pde.MIN_AXIS_NODES)
        widths = floats(args.widths)
        final, _ = pde.approx_fundamental(
            spec.fields, g, x0, args.t0,
            args.t0 + 1.0, bx, nx, widths, lam=args.lam,
            Lambda=spec.ellipticity[1], keep="final")
        tq = final.taxis[-1]
        pts = pde._grid_points(final.axes)
        keep = final.values[-1].ravel() > 1e-3 * final.values[-1].max()
        pts = np.column_stack([pts, np.full(len(pts), tq)])[keep]
        target = final.values[-1].ravel()[keep]
        rep = verify.fit_sandwich(pts, target, pole, g,
                                  args.lam_plus, args.lam_minus,
                                  err_budget=args.err_budget)
    emit({"command": "check bounds", "config": resolved(args),
          "report": rep.to_dict()})
    return 0


def _kernel_u(spec, args):
    g = spec.geometry
    params = kern.scaled_params(args.lam, g)
    pole = point(vector(args, "pole", g.N), args.pole_t0)

    def u(rows):
        return kern.gamma_many(rows, pole, params)
    return u


def cmd_check_harnack(args):
    _mode(args, "--sweep", args.sweep > 0, _HARNACK_SWEEP, _HARNACK_SINGLE)
    check_out(args)
    spec = load(args)
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
        specfile.write_csv(args.out, header, rows)
        emit({"command": "check harnack", "config": resolved(args),
              "rows": len(rows), "out": args.out})
    else:
        z0 = point(vector(args, "center", g.N), args.center_t)
        h = verify.harnack_local(u, z0, args.radius, g, omega=args.omega,
                                 n_space=args.n_space, n_time=args.n_time)
        emit({"command": "check harnack", "config": resolved(args),
              "report": h.to_dict()})
    return 0


def cmd_check_cone(args):
    spec = load(args)
    g = spec.geometry
    u = _kernel_u(spec, args)
    vertex = point(vector(args, "center", g.N), args.center_t)
    rep = verify.harnack_cone(u, vertex, args.beta, args.radius, args.R, g)
    emit({"command": "check cone", "config": resolved(args),
          "report": rep})
    return 0


def cmd_check_global(args):
    spec = load(args)
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
    emit({"command": "check global", "config": resolved(args),
          "report": rep})
    return 0
