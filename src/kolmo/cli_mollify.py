"""`kolmo mollify`: how far the mollified coefficient moves from the raw
one, at each eps."""

import numpy as np

from . import regularity
from .cliargs import floats
from .specfile import SpecError


def cmd_mollify(args, spec):
    """Per eps: l1_distance, the mean over the samples of the largest
    component difference from the raw field; min and max, the extreme
    eigenvalues of A0, or the extreme components of b and c.  A run past
    regularity.MAX_MOLLIFY_READS quadrature reads is refused first."""
    name = args.field
    f = spec.fields.get(name)
    if f is None:
        raise SpecError(f"spec has no coefficient {name!r}")
    epsilons = floats(args.eps)
    regularity.check_mollify_reads(args.samples, len(epsilons), f)
    m0 = spec.structure.m0
    T = spec.window[1] - spec.window[0]
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, size=(args.samples, f.dim))
    ts = rng.uniform(spec.window[0] + 0.05 * T, spec.window[1] - 0.05 * T,
                     size=args.samples)
    rows = []
    raw = np.reshape(f.many(X, ts), (len(X), -1))
    for eps in epsilons:
        fm = regularity.mollify(f, eps=eps, T=T)
        sm = np.reshape(fm.many(X, ts), (len(X), -1))
        ext = sm
        if name == "A0":
            # for m0 = 1, eigvalsh returns each 1 x 1 value bitwise
            ext = np.linalg.eigvalsh(sm.reshape(-1, m0, m0))
        rows.append({
            "eps": eps,
            "l1_distance": float(np.mean(np.abs(sm - raw).max(axis=1))),
            "min": float(np.min(ext)), "max": float(np.max(ext))})
    return {"eps": rows}
