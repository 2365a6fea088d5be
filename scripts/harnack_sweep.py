"""Harnack quotient sweep for the model kernel on the prototype group.

Samples cylinder centers and radii, computes the sup/inf quotient of the
kernel over the standard past/future sub-cylinders, and reports the spread;
also fits the global Harnack constant over random point pairs.
"""

import argparse
import csv

import numpy as np

from kolmo import kernel as kern
from kolmo import verify
from kolmo.group import point, prototype_geometry


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--centers", type=int, default=50)
    ap.add_argument("--pairs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="harnack_sweep.csv")
    args = ap.parse_args()

    g = prototype_geometry()
    params = kern.principal_params(g)
    pole = point(np.zeros(2), -2.0)

    def u(rows):
        return kern.gamma_many(rows, pole, params)

    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.centers):
        c = point(rng.uniform(-0.8, 0.8, 2), rng.uniform(0.2, 0.8))
        r = rng.uniform(0.2, 0.6)
        h = verify.harnack_local(u, c, r, g)
        rows.append([*c, r, h.sup_minus, h.inf_plus, h.quotient])
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["c1", "c2", "ct", "r", "sup_minus", "inf_plus",
                    "quotient"])
        w.writerows(rows)
    q = np.array([r[-1] for r in rows])
    print(f"local quotients over {args.centers} cylinders: "
          f"min {q.min():.3f}  median {np.median(q):.3f}  max {q.max():.3f}")
    print(f"wrote {args.out}")

    pairs = []
    for _ in range(args.pairs):
        w0 = point(rng.uniform(-1, 1, 2), rng.uniform(-1.0, 0.0))
        z = point(rng.uniform(-1, 1, 2), w0[-1] + rng.uniform(0.3, 1.0))
        pairs.append((w0, z))
    rep = verify.harnack_global(u, pairs, g)
    print(f"global constant c0 = {rep['c0']:.4f} over {rep['n_pairs']} "
          f"pairs (max exponent {rep['max_exponent']:.2f})")


if __name__ == "__main__":
    main()
