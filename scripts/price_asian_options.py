"""Geometric-average Asian call prices across strikes.

The path-dependent payoff closes under (log-price, running integral of the
log-price), whose generator is the degenerate prototype operator; the price
follows from a one-dimensional quadrature over the terminal Gaussian and is
cross-checked by Monte Carlo on the same SDE.  The coefficients are
constants, so `kolmo.mc` draws each terminal state from the Euler chain's
law, computed by the chain's own recursion on its mean and covariance: the
cross-check stays independent of `kernel.covariance_matrix` and of the
quadrature.  A strike whose two prices differ by more than the
cross-check's budget ends the run with a non-zero exit status.

    python scripts/price_asian_options.py --strikes 90,100,110 --paths 100000
"""

import argparse
import math
import sys

import numpy as np

from kolmo import kernel as kern
from kolmo import mc as mcmod
from kolmo.coefficients import ConstantField
from kolmo.group import Geometry
from kolmo.structure import BlockStructure


def asian_price(S0, K, r, sigma, T, paths=200000, seed=0, dt=1e-3):
    """Geometric-average Asian call under Black-Scholes.

    With x1 = log S and x2 = int_0^t log S ds the dynamics are the kinetic
    prototype with constant diffusion sigma^2/2 on x1 and drift x1 feeding
    x2, so the terminal law is the model Gaussian and the price reduces to a
    one-dimensional quadrature; an independent Monte Carlo run on the same
    SDE, drawn from its Euler chain's law at step dt, cross-checks it.  The
    report's gap is |quadrature - MC| and its budget 3 MC standard errors
    plus quad_tol, the quadrature's own error estimate (the change from 150
    to 200 nodes).
    """
    B = np.array([[0.0, 0.0], [-1.0, 0.0]])   # dx2 = +x1 dt under -B
    g = Geometry(BlockStructure((1, 1)), B)
    mu = r - 0.5 * sigma * sigma
    x0 = np.array([math.log(S0), 0.0])

    # terminal law: mean and covariance of (x1, x2) at T
    mean = np.array([x0[0] + mu * T, x0[1] + x0[0] * T + 0.5 * mu * T * T])
    if sigma > 0.0:
        C = kern.covariance_matrix(T, B, np.array([[0.5 * sigma * sigma]]))
        cov = 2.0 * C
    else:
        cov = np.zeros((2, 2))

    def pay(avg_log):
        return np.maximum(np.exp(avg_log) - K, 0.0)

    # (i) quadrature: the payoff depends on x2/T only
    discount = math.exp(-r * T)
    var2 = cov[1, 1]
    if var2 <= 0.0:
        price_quad = discount * float(pay(np.array([mean[1] / T]))[0])
        quad_tol = 0.0
    else:
        nodes, weights = np.polynomial.hermite_e.hermegauss(200)
        x2 = mean[1] + math.sqrt(var2) * nodes
        price_quad = discount * float(
            np.sum(weights * pay(x2 / T)) / math.sqrt(2.0 * math.pi))
        n2, w2 = np.polynomial.hermite_e.hermegauss(150)
        alt = discount * float(
            np.sum(w2 * pay((mean[1] + math.sqrt(var2) * n2) / T))
            / math.sqrt(2.0 * math.pi))
        quad_tol = abs(price_quad - alt)

    # (ii) Monte Carlo on the transformed SDE
    if sigma > 0.0:
        fields = {"A0": ConstantField([[0.5 * sigma * sigma]], dim=2),
                  "b": ConstantField([mu], dim=2)}
        cfg = mcmod.McConfig(paths=paths, dt=dt, seed=seed, lam=2.0)
        ens = mcmod.simulate(fields, g, x0, 0.0, T, cfg)
        pv = discount * pay(ens.final[:, 1] / T)
        price_mc = float(np.mean(pv))
        se = float(np.std(pv) / math.sqrt(paths))
    else:
        price_mc, se = price_quad, 0.0

    return {"price_quadrature": price_quad, "price_mc": price_mc,
            "mc_se": se, "gap": abs(price_quad - price_mc),
            "budget": 3.0 * se + quad_tol + 1e-12, "quad_tol": quad_tol,
            "terminal_mean": mean.tolist(), "terminal_cov": cov.tolist()}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--S0", type=float, default=100.0)
    ap.add_argument("--r", type=float, default=0.05)
    ap.add_argument("--sigma", type=float, default=0.2)
    ap.add_argument("--maturity", type=float, default=1.0)
    ap.add_argument("--strikes", default="80,90,100,110,120")
    ap.add_argument("--paths", type=int, default=200000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"S0 {args.S0}  r {args.r}  sigma {args.sigma}  "
          f"T {args.maturity}  paths {args.paths}")
    print(f"{'strike':>8} {'quadrature':>12} {'monte carlo':>12} "
          f"{'mc se':>9}")
    for k in [float(v) for v in args.strikes.split(",")]:
        rep = asian_price(args.S0, k, args.r, args.sigma, args.maturity,
                          paths=args.paths, seed=args.seed)
        if rep["gap"] > rep["budget"]:
            sys.exit(f"quadrature price {rep['price_quadrature']:.6f} vs MC "
                     f"{rep['price_mc']:.6f}: gap {rep['gap']:.2e} exceeds "
                     f"budget {rep['budget']:.2e}")
        print(f"{k:8.1f} {rep['price_quadrature']:12.4f} "
              f"{rep['price_mc']:12.4f} {rep['mc_se']:9.4f}")


if __name__ == "__main__":
    main()
