"""Operator description files: a versioned JSON document carrying the block
structure, the drift matrix, coefficient field descriptors, the time window
and the declared ellipticity interval.  Grid-sampled coefficients live in
sidecar CSV files referenced by relative path.
"""

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

from . import coefficients as coeff
from .errors import KolmoError, NotSPD
from .group import Geometry, grid
from .structure import BlockStructure, check_hypoellipticity

SCHEMA = "kolmo-operator/1"
CSV_BLOCK = 1024           # rows per formatted write in write_csv


class SpecError(KolmoError):
    """Malformed or inconsistent operator description."""


class OperatorSpec:
    """An operator as a spec file describes it; `path` is the file it was
    loaded from, if any.  Its one Geometry is built here, which checks that
    B is in the canonical form of the structure's blocks."""

    def __init__(self, structure: BlockStructure, B, fields, window,
                 ellipticity):
        self.geometry = Geometry(structure, B)
        self.structure = structure
        self.B = self.geometry.B
        self.fields = fields
        self.window = window
        self.ellipticity = ellipticity
        self.path = None

    def hypo_report(self):
        return check_hypoellipticity(self.B, self.structure.m0)

    def to_dict(self):
        out = {
            "schema": SCHEMA,
            "structure": {"blocks": list(self.structure.blocks),
                          "B": self.B.tolist()},
            "coefficients": {k: _field_to_dict(f)
                             for k, f in self.fields.items()
                             if f is not None},
            "window": {"T0": self.window[0], "T1": self.window[1]},
            "ellipticity": {"lambda": self.ellipticity[0],
                            "Lambda": self.ellipticity[1]},
        }
        return out


def _field_to_dict(f):
    if isinstance(f, coeff.ConstantField):
        return {"kind": "constant", "value": f.value.tolist()}
    if isinstance(f, coeff.CheckerboardField):
        return {"kind": "checkerboard",
                "values": [np.asarray(v).tolist() for v in f.values],
                "h": f.h, "dim": f.dim, "seed": f.seed}
    if isinstance(f, coeff.GridField):
        return {"kind": "grid", "file": f.source_file}
    from .regularity import MollifiedField
    if isinstance(f, MollifiedField):
        return {"kind": "mollified", "eps": f.eps, "T": f.T,
                "raw": _field_to_dict(f.f)}
    raise SpecError(f"field {type(f).__name__} has no serial form")


def _numbers(v):
    """v, a number or lists of numbers of one shape, as a float array; a
    ValueError for anything else (a boolean, a string, a ragged list) or an
    entry that is not finite."""
    a = np.asarray(v, dtype=object)
    if not all(type(c) in (int, float) for c in a.flat):
        raise ValueError(f"{v!r} is not a number or an array of numbers")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ValueError("values: not all finite")
    return a


def _number(v):
    """The JSON number v as a finite float, else a ValueError."""
    if type(v) not in (int, float) or not math.isfinite(v):
        raise ValueError(f"{v!r} is not a finite number")
    return float(v)


def _integer(v):
    """The JSON integer v (not a boolean, 1.5 or "7"), else a ValueError."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def _field_from_dict(d, base_dir, N):
    """The field a descriptor describes on R^N x R; a `dim` other than N, a
    value that is not a finite number, a checkerboard without values or
    with a cell side h that is not > 0, and a mollified T that is not > 0
    are refused."""
    if not isinstance(d, dict):
        raise SpecError(f"coefficient descriptor {d!r} is not an object")
    kind = d.get("kind")
    try:
        if "dim" in d and _integer(d["dim"]) != N:
            raise SpecError(f"{kind} field has dim {d['dim']!r}, not N = {N}")
        if kind == "constant":
            return coeff.ConstantField(_numbers(d["value"]), dim=N)
        if kind == "checkerboard":
            h = _number(d["h"])
            if not d["values"] or not h > 0.0:
                raise ValueError(f"h = {h} (needs h > 0 and at least one "
                                 f"value)")
            return coeff.CheckerboardField(
                [_numbers(v) for v in d["values"]], h=h, dim=N,
                seed=_integer(d["seed"]))
        if kind == "grid":
            f = load_grid_field(base_dir / d["file"])
            if f.dim != N:
                raise SpecError(f"grid file {d['file']!r} has {f.dim} "
                                f"spatial axes, not N = {N}")
            return f
        if kind == "mollified":
            from . import regularity
            raw = _field_from_dict(d["raw"], base_dir, N)
            T = _number(d["T"])
            if not T > 0.0:
                raise ValueError(f"T = {T} (needs T > 0)")
            return regularity.mollify(raw, eps=_number(d["eps"]), T=T)
    except (LookupError, TypeError, ValueError, OverflowError) as e:
        raise SpecError(f"{kind} field: missing or malformed {e}") from e
    raise SpecError(f"unknown field kind {kind!r}")


def from_dict(doc, base_dir=Path(".")):
    """The OperatorSpec a document describes.  Besides the structure (the
    blocks integers, B a finite N x N matrix) and the fields, the window
    must be finite with T0 < T1 and the ellipticity finite with 0 < lambda
    <= Lambda, else SpecError.  The coefficients are A0 (required, an m0 x
    m0 matrix), b (an m0-vector) and c (a scalar), of the ranks in
    coefficients.RANK; any other name, or values of another shape (a grid
    sidecar holds m0^rank value columns), is a SpecError.  Every eigenvalue
    of A0's value set must lie in [lambda, Lambda], else NotSPD."""
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise SpecError(f"unsupported schema {schema!r}; expected {SCHEMA}")
    try:
        blocks = tuple(_integer(m) for m in doc["structure"]["blocks"])
        B = _numbers(doc["structure"]["B"])
        win = (_number(doc["window"]["T0"]), _number(doc["window"]["T1"]))
        ell = (_number(doc["ellipticity"]["lambda"]),
               _number(doc["ellipticity"]["Lambda"]))
        fdocs = dict(doc.get("coefficients", {}))
        if not (win[0] < win[1] and 0.0 < ell[0] <= ell[1]):
            raise ValueError(f"window {win} and ellipticity {ell}: need "
                             f"T0 < T1 and 0 < lambda <= Lambda")
        spec = OperatorSpec(structure=BlockStructure(blocks), B=B,
                            fields={}, window=win, ellipticity=ell)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SpecError(f"missing or malformed field: {e}") from e
    if "A0" not in fdocs or not set(fdocs) <= set(coeff.RANK):
        raise SpecError(f"coefficients {sorted(fdocs)}: the operator has A0 "
                        f"and may have b and c, no others")
    st, fields = spec.structure, spec.fields
    for k, v in fdocs.items():
        shape = (st.m0,) * coeff.RANK[k]
        f = _field_from_dict(v, Path(base_dir), st.N)
        # a grid sidecar holds its values flat, one column per entry
        flat = isinstance(getattr(f, "f", f), coeff.GridField)
        if f.shape != shape and not (
                flat and np.prod(f.shape) == np.prod(shape)):
            raise SpecError(f"coefficient {k!r} has values of shape "
                            f"{f.shape}, not {shape}")
        fields[k] = f
    eigs = np.linalg.eigvalsh(coeff.value_set(fields["A0"]).reshape(
        -1, st.m0, st.m0))
    lo, hi = float(eigs.min()), float(eigs.max())
    # eigvalsh rounds at the scale of the largest eigenvalue
    slack = 64 * np.finfo(float).eps * max(abs(lo), abs(hi))
    if lo < ell[0] - slack or hi > ell[1] + slack:
        raise NotSPD(f"A0 takes the eigenvalue "
                     f"{lo if lo < ell[0] - slack else hi!r}, outside the "
                     f"declared ellipticity [{ell[0]!r}, {ell[1]!r}]")
    return spec


def load(path):
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise SpecError(f"cannot parse {path}: {e}") from e
    spec = from_dict(doc, base_dir=path.parent)
    spec.path = path
    return spec


def save(spec: OperatorSpec, path):
    path = Path(path)
    path.write_text(dumps_stable(spec.to_dict()) + "\n", encoding="utf-8")
    return path


def dumps_stable(obj):
    """JSON with stable key order for reproducible artifacts."""
    return json.dumps(obj, sort_keys=True, indent=2)


def write_csv(path, header, rows, axes=()):
    """The one CSV artifact format: a header row, then "%.17g" cells and
    CRLF line ends, csv.writer's bytes.  The cells need no quoting, so rows
    go out in blocks of CSV_BLOCK rows through a row template; only the
    header goes through csv.

    With axes, rows holds the value columns of a tensor grid (a 1-D array
    is one column) and each line starts with the coordinates of its node:
    the grid of the axes in C order, the last axis fastest.  Each axis
    value is formatted once and spliced into the templates, so only the
    values are formatted per row; len(rows) must be the node count."""
    rows = np.asarray(rows, dtype=float)
    if axes and rows.ndim == 1:
        rows = rows[:, None]
    line = ",".join(["%.17g"] * rows.shape[-1]) + "\r\n"
    nodes = None
    if axes:
        cells = [["%.17g," % v for v in np.asarray(a, dtype=float).tolist()]
                 for a in axes]
        if len(rows) != math.prod(map(len, cells)):
            raise ValueError(f"{len(rows)} rows for a grid of "
                             f"{[len(c) for c in cells]} nodes")
        cells[-1] = [c + line for c in cells[-1]]
        nodes = itertools.product(*cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(rows), CSV_BLOCK):
            block = rows[lo:lo + CSV_BLOCK]
            template = line * len(block) if nodes is None else "".join(
                itertools.chain.from_iterable(
                    itertools.islice(nodes, len(block))))
            fh.write(template % tuple(block.ravel().tolist()))


# -- sidecar grid CSV --------------------------------------------------------


def read_csv(path):
    """The one CSV reader: the header row of the file at path, and the rows
    below it as a (rows, width) array of finite floats.  A file that cannot
    be read or decoded, has no header, no row below it, rows of unequal
    width or a cell that is not a finite number is a SpecError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
        widths = {len(r) for r in rows}
        if len(widths) != 1 or 0 in widths:
            raise ValueError("needs rows below the header, all of one width")
        return header, _numbers([[float(v) for v in r] for r in rows])
    except OSError as e:
        raise SpecError(e.strerror) from e
    except (ValueError, csv.Error) as e:
        raise SpecError(str(e)) from e


def load_grid_field(path):
    """CSV grid field: the header is x1..xN, t, then the value column(s);
    one sample per row, and the coordinate columns are the tensor grid of
    their axes in lexicographic order (the last column fastest).  Any other
    header or row order, or a file read_csv refuses, is a SpecError."""
    path = Path(path)
    try:
        header, data = read_csv(path)
    except SpecError as e:
        raise SpecError(f"{path}: {e}") from e
    naxes = 0
    while naxes < len(header) and header[naxes] == f"x{naxes + 1}":
        naxes += 1
    if naxes == 0 or header[naxes:naxes + 1] != ["t"] \
            or len(header) < naxes + 2:
        raise SpecError(f"{path}: header must be x1..xN, t, then values")
    if data.shape[1] != len(header):
        raise SpecError(f"{path}: rows must hold one cell per header name")
    axes = [np.unique(data[:, k]) for k in range(naxes + 1)]
    shape = tuple(len(a) for a in axes)
    if np.prod(shape) != len(data):
        raise SpecError(f"{path}: rows do not fill the grid")
    if not np.array_equal(grid(axes), data[:, :naxes + 1]):
        raise SpecError(f"{path}: rows are not the grid of their axes in "
                        f"lexicographic order")
    *axes, taxis = axes
    nvals = len(header) - naxes - 1
    vals = data[:, naxes + 1:].reshape(
        shape + ((nvals,) if nvals > 1 else ()))
    f = coeff.GridField(axes, taxis, vals)
    f.source_file = path.name
    return f


def prototype_spec():
    """The kinetic prototype: unit diffusion in v, transport v d_y."""
    st = BlockStructure((1, 1))
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    fields = {"A0": coeff.ConstantField(np.eye(1), dim=2)}
    return OperatorSpec(structure=st, B=B, fields=fields,
                        window=(0.0, 1.0), ellipticity=(1.0, 1.0))
