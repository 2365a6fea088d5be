import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from kolmo import coefficients as coeff
from kolmo import regularity as reg
from kolmo import specfile, structure
from kolmo.specfile import SpecError


def test_prototype_round_trip(tmp_path):
    spec = specfile.prototype_spec()
    p = specfile.save(spec, tmp_path / "proto.json")
    back = specfile.load(p)
    assert back.structure.blocks == spec.structure.blocks
    assert np.array_equal(back.B, spec.B)
    assert back.window == spec.window
    assert back.ellipticity == spec.ellipticity
    assert np.array_equal(back.fields["A0"].value, np.eye(1))
    assert back.path == p


def test_stable_serialization(tmp_path):
    spec = specfile.prototype_spec()
    a = specfile.save(spec, tmp_path / "a.json").read_text()
    b = specfile.save(specfile.load(tmp_path / "a.json"),
                      tmp_path / "b.json").read_text()
    assert a == b


def test_checkerboard_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    f = coeff.CheckerboardField([np.array([[v]]) for v in (1.0, 1.7, 2.4)],
                                h=0.25, dim=2, seed=11)
    spec = specfile.prototype_spec()
    spec.fields["A0"] = f
    spec.ellipticity = (1.0, 2.4)
    specfile.save(spec, tmp_path / "cb.json")
    g = specfile.load(tmp_path / "cb.json").fields["A0"]
    pts = rng.uniform(-2, 2, size=(50, 2))
    for x in pts:
        assert np.array_equal(g(x, 0.3), f(x, 0.3))


def save_grid_field(f, path):
    """Write the GridField f as a sidecar CSV, the layout load_grid_field
    reads, and point f at it, so that a spec holding f names the file."""
    path = Path(path)
    grids = np.meshgrid(*f.axes, f.taxis, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.asarray(f.values).reshape(len(flat), -1)
    header = [f"x{k + 1}" for k in range(len(f.axes))] + ["t"] + \
        ([f"v{k + 1}" for k in range(vals.shape[1])]
         if vals.shape[1] > 1 else ["value"])
    specfile.write_csv(path, header, np.column_stack([flat, vals]))
    f.source_file = path.name
    return path


def test_grid_field_sidecar_round_trip(tmp_path):
    axes = [np.linspace(-1, 1, 5), np.linspace(-2, 2, 4)]
    taxis = np.linspace(0, 1, 3)
    rng = np.random.default_rng(2)
    vals = rng.uniform(1.0, 2.0, size=(5, 4, 3))
    f = coeff.GridField(axes, taxis, vals)
    save_grid_field(f, tmp_path / "A0.csv")
    spec = specfile.prototype_spec()
    spec.fields["A0"] = f
    spec.ellipticity = (1.0, 2.0)
    specfile.save(spec, tmp_path / "op.json")
    g = specfile.load(tmp_path / "op.json").fields["A0"]
    for a, b in zip(g.axes, axes):
        assert np.array_equal(a, b)
    assert np.array_equal(g.taxis, taxis)
    assert np.array_equal(g.values, vals)


def test_mollified_round_trip(tmp_path):
    raw = coeff.CheckerboardField([np.array([[1.0]]), np.array([[2.0]])],
                                  h=0.5, dim=2, seed=3)
    spec = specfile.prototype_spec()
    spec.fields["A0"] = reg.mollify(raw, eps=0.1, T=1.0)
    spec.ellipticity = (1.0, 2.0)
    specfile.save(spec, tmp_path / "m.json")
    g = specfile.load(tmp_path / "m.json").fields["A0"]
    x = np.array([0.37, -0.21])
    assert np.allclose(g(x, 0.5), spec.fields["A0"](x, 0.5), rtol=0,
                       atol=1e-14)


@pytest.mark.parametrize("kind", ["checkerboard", "grid", "mollified"])
def test_A0_must_lie_in_the_declared_ellipticity(tmp_path, kind):
    """Every eigenvalue of A0's value set lies in the declared [lambda,
    Lambda], else the spec is refused with NotSPD, whose message names the
    extreme eigenvalue and the interval.  A0 takes the values 1 and 2: it
    loads under (1, 2) and is refused under (1, 1) and (1.5, 2)."""
    from kolmo.errors import NotSPD
    board = coeff.CheckerboardField([np.array([[1.0]]), np.array([[2.0]])],
                                    h=0.5, dim=2, seed=3)
    if kind == "checkerboard":
        A0 = board
    elif kind == "grid":
        vals = np.ones((2, 2, 2))
        vals[1, 1, 1] = 2.0
        A0 = coeff.GridField([[0.0, 1.0]] * 2, [0.0, 1.0], vals)
        save_grid_field(A0, tmp_path / "A0.csv")
    else:
        A0 = reg.mollify(board, eps=0.1, T=1.0)
    spec = specfile.prototype_spec()
    spec.fields["A0"] = A0
    for ell, bad in (((1.0, 2.0), None), ((1.0, 1.0), 2.0),
                     ((1.5, 2.0), 1.0)):
        spec.ellipticity = ell
        p = specfile.save(spec, tmp_path / "op.json")
        if bad is None:
            assert specfile.load(p).ellipticity == ell
            continue
        with pytest.raises(NotSPD, match=re.escape(
                f"eigenvalue {bad!r}, outside the declared ellipticity "
                f"[{ell[0]!r}, {ell[1]!r}]")):
            specfile.load(p)


def test_bad_schema_rejected(tmp_path):
    doc = specfile.prototype_spec().to_dict()
    doc["schema"] = "kolmo-operator/99"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SpecError):
        specfile.load(p)


def test_missing_section_rejected(tmp_path):
    doc = specfile.prototype_spec().to_dict()
    del doc["window"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SpecError):
        specfile.load(p)


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SpecError):
        specfile.load(p)


def test_non_canonical_drift_rejected(tmp_path):
    from kolmo.errors import NotCanonical
    doc = specfile.prototype_spec().to_dict()
    doc["structure"]["B"] = [[1.0, 0.0], [1.0, 0.0]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(NotCanonical):
        specfile.load(p)


def test_load_checks_the_canonical_form_once(tmp_path, monkeypatch):
    """A loaded spec holds the one Geometry its load built: loading runs
    the canonical-form check once, and every read of spec.geometry returns
    that object without checking again."""
    p = specfile.save(specfile.prototype_spec(), tmp_path / "proto.json")
    calls = []
    orig = structure.detect_canonical_form

    def counted(B, blocks):
        calls.append(tuple(blocks))
        return orig(B, blocks)

    # patch every module global bound to the check, as perfbench's tracer
    for name, m in list(sys.modules.items()):
        if (name.split(".")[0] == "kolmo"
                and getattr(m, "detect_canonical_form", None) is orig):
            monkeypatch.setattr(m, "detect_canonical_form", counted)
    spec = specfile.load(p)
    g = spec.geometry
    assert spec.geometry is g and g.B is spec.B
    assert calls == [(1, 1)]


def test_unknown_field_kind_rejected():
    with pytest.raises(SpecError):
        specfile._field_from_dict({"kind": "mystery"}, ".", 2)


def test_empty_grid_file_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(SpecError):
        specfile.load_grid_field(p)


def test_hypo_report_prototype():
    rep = specfile.prototype_spec().hypo_report()
    assert rep.hypoelliptic is True
