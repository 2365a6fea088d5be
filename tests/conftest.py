import numpy as np
import pytest

from kolmo import kernel as kern
from kolmo import specfile
from kolmo.coefficients import ConstantField, GridField
from kolmo.group import prototype_geometry


@pytest.fixture(scope="session")
def proto():
    return prototype_geometry()


@pytest.fixture(scope="session")
def proto_params(proto):
    return kern.scaled_params(2.0, proto)


@pytest.fixture(scope="session")
def proto_coeffs():
    return {"A0": ConstantField(np.eye(1), dim=2)}


@pytest.fixture()
def proto_spec_path(tmp_path):
    return specfile.save(specfile.prototype_spec(), tmp_path / "proto.json")


@pytest.fixture()
def step_A0():
    """A0 on the 41 x 41 grid of [-4, 4]^2 that steps from 1 to 4 at
    t = 0.06: a probe at t = 0 reads Lambda = 1."""
    ax = np.linspace(-4.0, 4.0, 41)
    taxis = np.array([0.0, 0.0599, 0.06, 1.0])
    vals = np.empty((41, 41, 4))
    vals[..., :2] = 1.0
    vals[..., 2:] = 4.0
    return GridField([ax, ax], taxis, vals)
