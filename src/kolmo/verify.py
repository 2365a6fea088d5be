"""Numerical verification of the two-sided Gaussian bounds and of the
Harnack inequalities: fit sandwich constants from samples and measure
sup/inf quotients over the standard cylinder pairs, cones, and global
Gaussian-exponent pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernel as kern
from .errors import (ConeUnresolved, CylinderUnresolved, NoAdmissibleFit,
                     NotNonnegative)
from .group import Geometry, point

MIN_CYLINDER_NODES = 27


@dataclass(frozen=True)
class BoundReport:
    c_plus: float
    c_minus: float
    lam_plus: float
    lam_minus: float
    n_samples: int
    violations: int

    def to_dict(self):
        return {"c_plus": self.c_plus, "c_minus": self.c_minus,
                "lam_plus": self.lam_plus, "lam_minus": self.lam_minus,
                "n_samples": self.n_samples, "violations": self.violations}


@dataclass(frozen=True)
class HarnackReport:
    sup_minus: float
    inf_plus: float
    quotient: float
    n_minus: int
    n_plus: int

    def to_dict(self):
        return {"sup_minus": self.sup_minus, "inf_plus": self.inf_plus,
                "quotient": self.quotient, "n_minus": self.n_minus,
                "n_plus": self.n_plus}


def fit_sandwich(points, target_vals, pole, geometry: Geometry,
                 lam_plus, lam_minus, err_budget=0.0):
    """Smallest C+ and largest C- with
    C- Gamma^{lam-} <= target <= C+ Gamma^{lam+}  at the sample points.

    err_budget widens the fit by a relative margin per sample (e.g. the grid
    tolerance of a numerical target).  Samples where the target is positive
    while an envelope vanishes admit no fit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target_vals, dtype=float).reshape(len(points))
    # log-domain ratios: the envelopes span many orders of magnitude and
    # direct quotients would over/underflow
    log_up = kern.gamma_many(points, pole,
                             kern.scaled_params(lam_plus, geometry), log=True)
    log_lo = kern.gamma_many(points, pole,
                             kern.scaled_params(lam_minus, geometry), log=True)

    pos = target > 0.0
    if np.any(pos & (np.isneginf(log_up) | np.isneginf(log_lo))):
        raise NoAdmissibleFit(
            "target positive outside the model envelopes' support")
    violations = int(np.count_nonzero(target < 0.0))
    mask = pos & np.isfinite(log_up) & np.isfinite(log_lo)
    if not np.any(mask):
        raise NoAdmissibleFit("no sample with positive target and envelopes")
    lt = np.log(target[mask])
    c_plus = float(np.exp(np.max(lt - log_up[mask]))) * (1.0 + err_budget)
    c_minus = float(np.exp(np.min(lt - log_lo[mask]))) * (1.0 - err_budget)
    return BoundReport(c_plus=c_plus, c_minus=c_minus, lam_plus=lam_plus,
                       lam_minus=lam_minus, n_samples=int(mask.sum()),
                       violations=violations)


# -- Harnack cylinders -------------------------------------------------------


def _ball_grid(dim, n):
    """Deterministic nodes strictly inside the unit ball of R^dim."""
    if dim == 0:
        return np.zeros((1, 0))
    axis = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts[np.sum(pts * pts, axis=1) < 1.0]


def unit_cylinder_nodes(structure, n_space, n_time, omega, upper):
    """Nodes of Q+ (upper=True) or Q- inside the unit cylinder geometry:
    spatial block balls dilated by the aperture omega, time levels in
    (-omega^2, 0] resp. (-1, -1 + omega^2]."""
    blocks = []
    for j, m in enumerate(structure.blocks):
        w = omega ** (2 * j + 1)
        blocks.append(w * _ball_grid(m, n_space))
    spatial = blocks[0]
    for blk in blocks[1:]:
        spatial = np.concatenate(
            [np.repeat(spatial, len(blk), axis=0),
             np.tile(blk, (len(spatial), 1))], axis=1)
    w2 = omega * omega
    k = np.arange(1, n_time + 1) / n_time
    times = -w2 + w2 * k if upper else -1.0 + w2 * k
    nodes = np.concatenate(
        [np.repeat(spatial, n_time, axis=0),
         np.tile(times, len(spatial))[:, None]], axis=1)
    return nodes


def _values(u, nodes):
    """u on the rows of nodes; u must map (n, N+1) rows to (n,) values."""
    v = np.asarray(u(nodes), dtype=float)
    if v.shape != (len(nodes),):
        raise ValueError(f"u returned shape {v.shape} for {len(nodes)} rows;"
                         f" it must map (n, N+1) rows to (n,) values")
    return v


def harnack_local(u, z0, r, geometry: Geometry, omega=0.5,
                  n_space=3, n_time=3):
    """Quotient sup_{Q-} u / inf_{Q+} u over the dilated-translated standard
    cylinder pair Q_r(z0); u maps (n, N+1) rows (x_1..x_N, t) to (n,)
    values and is called once per cylinder."""
    vals = {}
    counts = {}
    for upper in (True, False):
        std = unit_cylinder_nodes(geometry.structure, n_space, n_time,
                                  omega, upper)
        if len(std) < MIN_CYLINDER_NODES:
            raise CylinderUnresolved(
                f"{len(std)} nodes < {MIN_CYLINDER_NODES}; raise n_space "
                f"or n_time")
        nodes = geometry.compose(z0, geometry.dilate(r, std))
        vals[upper] = _values(u, nodes)
        counts[upper] = len(std)
    inf_plus = float(np.min(vals[True]))
    sup_minus = float(np.max(vals[False]))
    if inf_plus <= 0.0:
        raise NotNonnegative("u is not strictly positive on the upper "
                             "cylinder; the quotient is undefined")
    return HarnackReport(sup_minus=sup_minus, inf_plus=inf_plus,
                         quotient=sup_minus / inf_plus,
                         n_minus=counts[False], n_plus=counts[True])


# -- cones -------------------------------------------------------------------


def cone_nodes(vertex, beta, r, R, geometry: Geometry, n_rho=6, n_space=3):
    """Deterministic nodes of the cone P_{beta, r, R}(vertex): for rho in
    (0, R], points vertex o (delta_rho xi, -beta rho^2) with |xi| < r in the
    anisotropic sense; rho-major rows."""
    rhos = R * (np.arange(1, n_rho + 1) / n_rho)
    std = _ball_grid(geometry.N, n_space) * r
    rho = np.repeat(rhos, len(std))
    xs = geometry.dilate_space(rho, np.tile(std, (n_rho, 1)))
    return geometry.compose(vertex, point(xs, -beta * rho * rho))


def harnack_cone(u, vertex, beta, r, R, geometry: Geometry,
                 n_rho=6, n_space=3):
    """max over cone nodes of u(z) / u at the cone's deepest axis point;
    u takes rows as in harnack_local and is called once."""
    nodes = cone_nodes(vertex, beta, r, R, geometry, n_rho, n_space)
    if len(nodes) < MIN_CYLINDER_NODES:
        raise ConeUnresolved(f"{len(nodes)} cone nodes < "
                             f"{MIN_CYLINDER_NODES}")
    base = geometry.compose(vertex, point(np.zeros(geometry.N),
                                          -beta * R * R))
    v = _values(u, np.vstack([base, nodes]))
    ubase, vals = v[0], v[1:]
    if ubase <= 0.0:
        raise NotNonnegative("u not positive at the cone base point")
    return {"max_quotient": float(np.max(vals) / ubase),
            "min_value": float(np.min(vals)), "base_value": float(ubase),
            "n_nodes": len(nodes)}


# -- global Harnack ----------------------------------------------------------


def global_exponent(z, w, geometry: Geometry, lam):
    """1 + the Gaussian quadratic form between w = (xi, tau) and the later
    point z = (x, t): <C(t - tau)^{-1} d, d> / lam with
    (d, t - tau) = w^{-1} o z, d = x - E(t - tau) xi.  Points give a float,
    (n, N+1) rows an (n,) array, from one batched C(t)."""
    rel = geometry.compose(geometry.inverse(w), z)
    rows = np.atleast_2d(rel)
    if np.any(rows[:, -1] <= 0.0):
        raise ValueError("global exponent needs t > tau")
    quad, _ = kern.quad_logdet(rows, kern.scaled_params(lam, geometry))
    e = 1.0 + quad / lam
    return float(e[0]) if rel.ndim == 1 else e


def harnack_global(u, pairs, geometry: Geometry, lam=2.0, c_max=1e6,
                   tol=1e-10):
    """Smallest c0 >= 1 with u(z) <= c0^exponent(z, w) u(w) over the sample
    pairs (w earlier, z later), found by bisection in log c0.  u takes rows
    as in harnack_local and is called once for all w and once for all z."""
    W, Z = (np.array(side, dtype=float) for side in zip(*pairs))
    uw, uz = _values(u, W), _values(u, Z)
    if np.any(uw <= 0.0) or np.any(uz <= 0.0):
        raise NotNonnegative("global Harnack needs positive samples")
    e = global_exponent(Z, W, geometry, lam)
    lr = np.log(uz / uw)

    def ok(log_c0):
        return bool(np.all(lr <= e * log_c0 + 1e-300))

    lo, hi = 0.0, math.log(c_max)
    if not ok(hi):
        raise NoAdmissibleFit(f"no admissible c0 below {c_max}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return {"c0": math.exp(hi), "n_pairs": len(W),
            "max_exponent": float(np.max(e))}
