"""`kolmo kernel eval|reproduce`: the exact model kernel on points or a
grid, and its Chapman-Kolmogorov check."""

import math

import numpy as np

from . import kernel as kern
from . import specfile
from .cliargs import finite, vector
from .errors import ArgumentError
from .group import grid, point
from .specfile import SpecError


def _points_from_args(args, N):
    """The rows (x..., t) to evaluate at, and the axes they are the grid of:
    () for --points, the N + 1 axes of --grid.  Exactly one of the two must
    be given."""
    if bool(args.points) == bool(args.grid):
        raise SpecError("need exactly one of --points and --grid")
    if args.points:
        try:
            _, pts = specfile.read_csv(args.points)
        except SpecError as exc:
            raise SpecError(f"--points {args.points!r}: {exc}") from exc
        if pts.shape[1] != N + 1:
            raise SpecError(f"--points {args.points!r} needs rows of "
                            f"{N + 1} numbers (x..., t)")
        return pts, ()
    axes = []
    for part in args.grid.split(";"):
        try:
            lo, hi, n = part.split(":")
            lo, hi, n = finite(lo), finite(hi), int(n)
        except ValueError as exc:
            raise SpecError(f"--grid part {part!r} is not lo:hi:n: "
                            f"{exc}") from exc
        if n < 1:
            raise SpecError(f"--grid part {part!r} has no nodes")
        axes.append(np.linspace(lo, hi, n))
    if len(axes) != N + 1:
        raise SpecError(f"--grid needs {N + 1} axes (x..., t)")
    return grid(axes), axes


def cmd_kernel_eval(args, spec):
    g = spec.geometry
    pole = point(vector(args, "pole", g.N), args.t0)
    params = kern.scaled_params(args.lam, g)
    pts, axes = _points_from_args(args, g.N)
    vals = kern.gamma_many(pts, pole, params)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ArgumentError(f"the kernel is {vals[bad][0]} at the row with "
                            f"t = {float(pts[bad][0, -1])!r}: past the "
                            f"range of a double")
    header = [f"x{k + 1}" for k in range(g.N)] + ["t", "value"]
    specfile.write_csv(args.out, header,
                       vals if axes else np.column_stack([pts, vals]),
                       axes=axes)
    rep = {"n_points": len(pts), "out": args.out}
    if args.check_homogeneity:
        rep["homogeneity_max_defect"] = _homogeneity_defect(g)
    return rep


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
    Z = kern.law_points(t, G, pp)
    origin = point(np.zeros(g.N), 0.0)
    v = kern.gamma_many(g.dilate(r, Z), origin, pp)
    vref = r ** (-g.structure.Q) * kern.gamma_many(Z, origin, pp)
    return float(np.max(np.abs(v - vref) / np.abs(vref)))


def cmd_kernel_reproduce(args, spec):
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
    return {"configs": args.configs, "max_rel_err": worst}
