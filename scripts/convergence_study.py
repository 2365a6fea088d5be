"""Refinement study of the splitting solver against the exact model kernel.

Runs the prototype Cauchy problem from a resolved Gaussian datum and prints
bulk relative errors with empirical orders, first over spatial grids at a
fixed small time step, then over time steps at a fixed grid against a
small-dt reference.
"""

import argparse
import math
import time

import numpy as np

from kolmo import kernel as kern
from kolmo import pde
from kolmo.group import grid, point, prototype_geometry
from kolmo.coefficients import ConstantField


def run(geometry, coeffs, box, nx, w, t1, dt, pole, params):
    tic = time.perf_counter()
    sol = pde.solve_cauchy(coeffs, geometry, pde.KernelDatum(pole, params),
                           box, nx, w, t1, dt=dt)
    elapsed = time.perf_counter() - tic
    pts = grid(sol.axes)
    exact = kern.gamma_many(
        np.column_stack([pts, np.full(len(pts), t1)]), pole,
        params).reshape(sol.values[-1].shape)
    err = float(np.max(np.abs(sol.values[-1] - exact)) / np.max(exact))
    return sol, err, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", default="41,81,161",
                    help="comma-separated grid sizes (square grids)")
    ap.add_argument("--dts", default="8e-4,4e-4,2e-4")
    ap.add_argument("--dt-ref", type=float, default=5e-5)
    ap.add_argument("--width", type=float, default=0.25,
                    help="datum width: solve starts from Gamma(., w; 0, 0)")
    ap.add_argument("--t1", type=float, default=0.6)
    args = ap.parse_args()

    g = prototype_geometry()
    coeffs = {"A0": ConstantField(np.eye(1), dim=2)}
    box = np.array([[-5.0, 5.0], [-2.5, 2.5]])
    pole = point(np.zeros(2), 0.0)
    params = kern.scaled_params(2.0, g)
    w, t1 = args.width, args.t1

    grids = [int(v) for v in args.grids.split(",")]
    print(f"-- h refinement (dt = 2e-4 fixed, datum width {w}) --")
    errs = []
    for nx in grids:
        _, err, el = run(g, coeffs, box, [nx, nx], w, t1, 2e-4, pole,
                         params)
        errs.append(err)
        print(f"  nx {nx:4d}  relerr {err:.4e}  {el:5.2f}s")
    hs = [(box[0, 1] - box[0, 0]) / (nx - 1) for nx in grids]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    pair = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print(f"  least-squares order {slope:.2f}, pairwise "
          + "/".join(f"{o:.2f}" for o in pair))

    nxref = grids[len(grids) // 2]
    print(f"-- dt self-convergence ({nxref}x{nxref} grid, "
          f"reference dt {args.dt_ref:g}) --")
    ref, _, _ = run(g, coeffs, box, [nxref, nxref], w, t1, args.dt_ref,
                    pole, params)
    peak = np.max(ref.values[-1])
    errs = []
    for dt in [float(v) for v in args.dts.split(",")]:
        sol, _, el = run(g, coeffs, box, [nxref, nxref], w, t1, dt, pole,
                         params)
        err = float(np.max(np.abs(sol.values[-1] - ref.values[-1])) / peak)
        errs.append(err)
        print(f"  dt {dt:.1e}  selferr {err:.4e}  {el:5.2f}s")
    pair = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print("  pairwise orders " + "/".join(f"{o:.2f}" for o in pair))


if __name__ == "__main__":
    main()
