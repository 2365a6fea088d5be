"""`kolmo mollify`: how far the mollified coefficient moves from the raw
one, at each eps."""

import numpy as np

from . import coefficients as coeff
from . import specfile
from .cliargs import emit, floats, resolved
from .specfile import SpecError


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
    report = {"command": "mollify", "config": resolved(args), "eps": []}
    raw = np.asarray(f.many(X, ts)).reshape(len(X), -1)[:, 0]
    for eps in floats(args.eps):
        fm = coeff.mollify(f, eps=eps, T=T)
        sm = fm.many(X, ts).reshape(len(X), -1)[:, 0]
        report["eps"].append({
            "eps": eps,
            "l1_distance": float(np.mean(np.abs(sm - raw))),
            "min": float(np.min(sm)), "max": float(np.max(sm))})
    emit(report)
    return 0
