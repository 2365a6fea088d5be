"""Operator description files: a versioned JSON document carrying the block
structure, the drift matrix, coefficient field descriptors, the time window
and the declared ellipticity interval.  Grid-sampled coefficients live in
sidecar CSV files referenced by relative path.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coefficients as coeff
from .errors import KolmoError
from .group import Geometry
from .structure import BlockStructure, check_hypoellipticity, \
    detect_canonical_form

SCHEMA = "kolmo-operator/1"
CSV_BLOCK = 1024           # rows per formatted write in write_csv


class SpecError(KolmoError):
    """Malformed or inconsistent operator description."""


@dataclass
class OperatorSpec:
    structure: BlockStructure
    B: np.ndarray
    fields: dict
    window: tuple
    ellipticity: tuple
    path: Path = None
    extra: dict = field(default_factory=dict)

    @property
    def geometry(self):
        return Geometry(self.structure, self.B)

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
    if isinstance(f, coeff.MollifiedField):
        return {"kind": "mollified", "eps": f.eps, "T": f.T,
                "raw": _field_to_dict(f.f)}
    raise SpecError(f"field {type(f).__name__} has no serial form")


def _field_from_dict(d, base_dir):
    kind = d.get("kind")
    if kind == "constant":
        v = np.asarray(d["value"], dtype=float)
        return coeff.ConstantField(v, dim=int(d.get("dim", 1)))
    if kind == "checkerboard":
        return coeff.CheckerboardField(
            [np.asarray(v, dtype=float) for v in d["values"]],
            h=float(d["h"]), dim=int(d["dim"]), seed=int(d["seed"]))
    if kind == "grid":
        return load_grid_field(base_dir / d["file"])
    if kind == "mollified":
        raw = _field_from_dict(d["raw"], base_dir)
        return coeff.mollify(raw, eps=float(d["eps"]), T=float(d["T"]))
    raise SpecError(f"unknown field kind {kind!r}")


def from_dict(doc, base_dir=Path(".")):
    if doc.get("schema") != SCHEMA:
        raise SpecError(f"unsupported schema {doc.get('schema')!r}; "
                        f"expected {SCHEMA}")
    try:
        blocks = tuple(int(m) for m in doc["structure"]["blocks"])
        B = np.asarray(doc["structure"]["B"], dtype=float)
        st = BlockStructure(blocks)
        win = (float(doc["window"]["T0"]), float(doc["window"]["T1"]))
        ell = (float(doc["ellipticity"]["lambda"]),
               float(doc["ellipticity"]["Lambda"]))
        fdocs = doc.get("coefficients", {})
    except (KeyError, TypeError, ValueError) as e:
        raise SpecError(f"missing or malformed field: {e}") from e
    detect_canonical_form(B, blocks)
    fields = {k: _field_from_dict(v, Path(base_dir))
              for k, v in fdocs.items()}
    # constant fields get the ambient spatial dimension
    for k, f in fields.items():
        if isinstance(f, coeff.ConstantField):
            fields[k] = coeff.ConstantField(f.value, dim=st.N)
    return OperatorSpec(structure=st, B=B, fields=fields, window=win,
                        ellipticity=ell)


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


def write_csv(path, header, rows):
    """The one CSV artifact format: a header row, then "%.17g" cells and
    CRLF line ends, csv.writer's bytes.  The cells need no quoting, so rows
    go out in blocks through one row template; only the header goes
    through csv."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[-1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(rows), CSV_BLOCK):
            block = rows[lo:lo + CSV_BLOCK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


# -- sidecar grid CSV --------------------------------------------------------


def load_grid_field(path):
    """CSV grid field: header names the spatial axes (x1..xN) and the time
    axis t, then the value column(s); one sample per row, rows in
    lexicographic axis order."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SpecError(f"{path}: empty grid file")
    header = rows[0]
    naxes = sum(1 for h in header if h.startswith("x"))
    if naxes == 0 or "t" not in header:
        raise SpecError(f"{path}: header must name axes x1.., t, then values")
    it = header.index("t")
    data = np.asarray([[float(v) for v in r] for r in rows[1:]])
    axes = [np.unique(data[:, k]) for k in range(naxes)]
    taxis = np.unique(data[:, it])
    shape = tuple(len(a) for a in axes) + (len(taxis),)
    nvals = len(header) - naxes - 1
    if np.prod(shape) != len(data):
        raise SpecError(f"{path}: rows do not fill the grid")
    vals = data[:, it + 1:].reshape(shape + ((nvals,) if nvals > 1 else ()))
    f = coeff.GridField(axes, taxis, vals)
    f.source_file = path.name
    return f


def save_grid_field(f, path):
    path = Path(path)
    naxes = len(f.axes)
    grids = np.meshgrid(*f.axes, f.taxis, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.asarray(f.values).reshape(len(flat), -1)
    header = [f"x{k + 1}" for k in range(naxes)] + ["t"] + \
        ([f"v{k + 1}" for k in range(vals.shape[1])]
         if vals.shape[1] > 1 else ["value"])
    write_csv(path, header, np.column_stack([flat, vals]))
    f.source_file = path.name
    return path


def prototype_spec():
    """The kinetic prototype: unit diffusion in v, transport v d_y."""
    st = BlockStructure((1, 1))
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    fields = {"A0": coeff.ConstantField(np.eye(1), dim=2)}
    return OperatorSpec(structure=st, B=B, fields=fields,
                        window=(0.0, 1.0), ellipticity=(1.0, 1.0))
