"""`kolmo check bounds|harnack|cone|global`: the Gaussian sandwich fit and
the local, cone and global Harnack quotients of the model kernel."""

import numpy as np

from . import kernel as kern
from . import specfile, verify
from .cliargs import box, counts, vector
from .group import grid, point


def cmd_check_bounds(args, spec):
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
        final, _ = pde.approx_fundamental(
            spec.fields, g, x0, args.t0, args.t0 + 1.0, bx, nx,
            [args.width], lam=args.lam)
        tq = final.taxis[-1]
        pts = grid(final.axes)
        keep = final.values[-1].ravel() > 1e-3 * final.values[-1].max()
        pts = np.column_stack([pts, np.full(len(pts), tq)])[keep]
        target = final.values[-1].ravel()[keep]
        rep = verify.fit_sandwich(pts, target, pole, g,
                                  args.lam_plus, args.lam_minus,
                                  err_budget=args.err_budget)
    return {"report": rep._asdict()}


def _kernel_u(args, g):
    """The kernel at --lambda with its pole at (--pole, --pole-t0), as a
    function of rows; and that pole and the kernel's parameters."""
    params = kern.scaled_params(args.lam, g)
    pole = point(vector(args, "pole", g.N), args.pole_t0)

    def u(rows):
        return kern.gamma_many(rows, pole, params)
    return u, pole, params


def cmd_check_harnack(args, spec):
    g = spec.geometry
    u, *_ = _kernel_u(args, g)
    if not args.sweep:
        z0 = point(vector(args, "center", g.N), args.center_t)
        h = verify.harnack_local(u, z0, args.radius, g, omega=args.omega,
                                 n_space=args.n_space, n_time=args.n_time)
        return {"report": h._asdict()}
    rows = []
    rng = np.random.default_rng(args.seed)
    for _ in range(args.sweep):
        c = point(rng.uniform(-0.5, 0.5, g.N), rng.uniform(0.2, 0.8))
        h = verify.harnack_local(u, c, args.radius, g, omega=args.omega,
                                 n_space=args.n_space, n_time=args.n_time)
        rows.append(list(c) + [args.radius, h.sup_minus, h.inf_plus,
                               h.quotient])
    header = [f"c{k + 1}" for k in range(g.N)] \
        + ["ct", "r", "sup", "inf", "quotient"]
    specfile.write_csv(args.out, header, rows)
    return {"rows": len(rows), "out": args.out}


def cmd_check_cone(args, spec):
    g = spec.geometry
    u, *_ = _kernel_u(args, g)
    vertex = point(vector(args, "center", g.N), args.center_t)
    rep = verify.harnack_cone(u, vertex, args.beta, args.radius, args.R, g)
    return {"report": rep}


def cmd_check_global(args, spec):
    g = spec.geometry
    u, pole, params = _kernel_u(args, g)
    rng = np.random.default_rng(args.seed)
    # times after the pole: w's in [1, 2), z's 0.3 to 1 later; the points
    # are draws from the kernel's law, so u is a normal float at each of
    # them in any dimension
    tw = rng.uniform(1.0, 2.0, args.pairs)
    tau = np.concatenate([tw, tw + rng.uniform(0.3, 1.0, args.pairs)])
    G = rng.standard_normal((2 * args.pairs, g.N))
    W, Z = np.split(g.compose(pole, kern.law_points(tau, G, params)), 2)
    rep = verify.harnack_global(u, list(zip(W, Z)), g, lam=args.lam)
    return {"report": rep}
