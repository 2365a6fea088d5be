"""Library step of the benchmark: public kolmo calls that no `kolmo`
command reaches.

    python perfbench/drive.py moduli SPEC --pairs N --seed S

samples the modulus of continuity and the Hoelder seminorm of the spec's A0
in the spec's geometry (the only callers of `Geometry.hom_norm` and
`Geometry.distance` in bulk) and prints a JSON report with stable key order.
"""

import argparse
import sys

import numpy as np

from kolmo import coefficients as coeff
from kolmo import specfile

RADII = (0.05, 0.1, 0.2, 0.4)
HOLDER_ALPHA = 0.5


def moduli(args):
    spec = specfile.load(args.spec)
    g = spec.geometry
    f = spec.fields["A0"]
    box = np.array([[-1.0, 1.0]] * g.N)
    omega = coeff.modulus_of_continuity(f, g, box, spec.window, RADII,
                                        n_pairs=args.pairs, seed=args.seed)
    holder = coeff.holder_seminorm(f, g, box, spec.window, HOLDER_ALPHA,
                                   n_pairs=args.pairs, seed=args.seed)
    return {"command": "moduli", "radii": list(RADII),
            "omega": [float(v) for v in omega], "alpha": HOLDER_ALPHA,
            "holder": float(holder)}


def main(argv=None):
    p = argparse.ArgumentParser(prog="drive.py")
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("moduli")
    sp.add_argument("spec")
    sp.add_argument("--pairs", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    sys.stdout.write(specfile.dumps_stable(moduli(args)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
