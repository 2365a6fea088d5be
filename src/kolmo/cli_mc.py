"""`kolmo mc simulate|density|mass`: one Euler-Maruyama ensemble, written
out, binned, or measured on a D_R ball.  A spec whose coefficients are all
constants gets end states drawn from the Euler chain's law, any other spec
stepped paths; the report's provenance names which, "draw": "law" or
"steps"."""

import numpy as np

from . import mc, specfile
from .cliargs import box, counts, vector


def _simulate(args, spec):
    cfg = mc.McConfig(paths=args.paths, dt=args.dt, seed=args.seed,
                      lam=args.lam, threads=args.threads)
    return mc.simulate(spec.fields, spec.geometry,
                       vector(args, "x0", spec.structure.N),
                       args.t0, args.t1, cfg)


def cmd_mc_simulate(args, spec):
    ens = _simulate(args, spec)
    header = [f"x{k + 1}" for k in range(spec.structure.N)] + ["weight"]
    specfile.write_csv(args.out, header,
                       np.column_stack([ens.final, ens.weights]))
    return {"provenance": ens.provenance,
            "mean": [float(v) for v in ens.weighted_mean()]}


def cmd_mc_density(args, spec):
    bx = box(args, spec.structure.N)
    bins = counts(args, "bins", spec.structure.N, 1)
    ens = _simulate(args, spec)
    d = mc.density_estimate(ens, bx, bins)
    centers = [0.5 * (e[:-1] + e[1:]) for e in d["edges"]]
    header = [f"x{k + 1}" for k in range(spec.structure.N)] \
        + ["density", "se"]
    specfile.write_csv(args.out, header,
                       np.column_stack([d["density"].ravel(),
                                        d["se"].ravel()]), axes=centers)
    return {"provenance": ens.provenance, "out": args.out}


def cmd_mc_mass(args, spec):
    ens = _simulate(args, spec)
    m = mc.mass_in_DR(ens, vector(args, "y", spec.structure.N),
                      args.radius, spec.geometry)
    return {"provenance": ens.provenance, "mass": m}
