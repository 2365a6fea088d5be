"""`kolmo solve cauchy|fundamental`: the splitting solver from a model-kernel
datum, and the fundamental-solution approximation over shrinking widths."""

from . import kernel as kern
from . import pde, specfile
from .cliargs import box, counts, floats, vector
from .group import point
from .specfile import SpecError


def cmd_solve_cauchy(args, spec):
    g = spec.geometry
    bx = box(args, g.N)
    nx = counts(args, "nx", g.N, pde.MIN_AXIS_NODES)
    kind, _, wpart = args.datum.partition(":")
    w = floats(wpart or "0.1")
    if kind != "gaussian" or len(w) != 1 or not w[0] > 0.0:
        raise SpecError(f"--datum {args.datum!r} is not gaussian:<width > 0>")
    args.datum_width = w = float(w[0])      # the report echoes it
    if not args.t0 + w < args.t1:
        raise SpecError(
            f"the solve runs from t0 + the --datum width to t1: t0 = "
            f"{args.t0!r} plus the width {w!r} does not end before t1 = "
            f"{args.t1!r}")
    params = kern.scaled_params(args.lam, g)
    datum = pde.KernelDatum(point(vector(args, "x0", g.N), args.t0), params)
    sol = pde.solve_cauchy(spec.fields, g, datum, bx, nx,
                           args.t0 + w, args.t1, dt=args.dt)
    header = [f"x{k + 1}" for k in range(g.N)] + ["value"]
    specfile.write_csv(args.out, header, sol.values[-1].ravel(),
                       axes=sol.axes)
    return sol.meta


def cmd_solve_fundamental(args, spec):
    g = spec.geometry
    bx = box(args, g.N)
    nx = counts(args, "nx", g.N, pde.MIN_AXIS_NODES)
    widths = floats(args.widths)
    final, report = pde.approx_fundamental(
        spec.fields, g, vector(args, "x0", g.N), args.t0, args.t1, bx, nx,
        widths, lam=args.lam, dt=args.dt)
    header = [f"x{k + 1}" for k in range(g.N)] + ["value"]
    specfile.write_csv(args.out, header, final.values[-1].ravel(),
                       axes=final.axes)
    return dict(report, out=args.out)
