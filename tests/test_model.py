import json

import numpy as np
import pytest

from llgtw import model
from llgtw.errors import ConfigError, DegenerateRegime, NonUnitVector, PolarSingularity


@pytest.fixture(scope="module")
def grid():
    return model.Grid(20.0, 801)


def test_grid_symmetry_exact(grid):
    assert grid.n_nodes % 2 == 1
    assert np.all(grid.xi == -grid.xi[::-1])
    assert grid.xi[(grid.n_nodes - 1) // 2] == 0.0
    assert grid.h == pytest.approx(0.05)


def test_grid_invariants():
    with pytest.raises(ConfigError):
        model.Grid(20.0, 800)          # even
    with pytest.raises(ConfigError):
        model.Grid(20.0, 1)            # too few
    with pytest.raises(ConfigError):
        model.Grid(-1.0, 801)


def test_grid_refined(grid):
    g2 = grid.refined()
    assert g2.n_nodes == 2 * grid.n_nodes - 1
    assert g2.h == pytest.approx(grid.h / 2)
    assert np.all(g2.xi[::2] == grid.xi)


def test_params_invariants():
    with pytest.raises(ConfigError):
        model.Params(K2=-0.1)
    with pytest.raises(ConfigError):
        model.Params(alpha=0.0)
    with pytest.raises(ConfigError):
        model.Params(H1=np.inf)


def test_regime_invariants():
    model.Regime.walker(1.0)
    model.Regime.transverse(0.5)
    with pytest.raises(ConfigError):
        model.Regime.walker(0.0)
    with pytest.raises(ConfigError):
        model.Regime.transverse(1.5)
    with pytest.raises(ConfigError):
        model.Regime.transverse(0.0, H2=0.0)   # zero transverse field
    with pytest.raises(ConfigError):
        model.Regime(model.TRANSVERSE, H3=0.5, K2=0.2)
    # H3 = 0 would rotate the wall's centre onto the hard axis
    model.Regime.transverse(H3=0.4, H2=0.3)
    with pytest.raises(ConfigError, match="H3 = 0 and H2 = 0.3"):
        model.Regime.transverse(H3=0.0, H2=0.3)


def test_to_cartesian_axis_cases():
    m = model.angles_to_cartesian(np.pi / 2, 0.0)
    assert m == pytest.approx([1, 0, 0], abs=1e-15)
    m = model.angles_to_cartesian(np.pi / 2, np.pi / 2)
    assert m == pytest.approx([0, 0, 1], abs=1e-15)


def test_to_cartesian_unit_norm(grid):
    rng = np.random.default_rng(0)
    psi = rng.uniform(0.1, np.pi - 0.1, grid.n_nodes)
    beta = rng.uniform(-5, 5, grid.n_nodes)
    m = model.angles_to_cartesian(psi, beta)
    assert np.abs(np.linalg.norm(m, axis=1) - 1).max() < 1e-12


def test_polar_roundtrip():
    rng = np.random.default_rng(1)
    psi = rng.uniform(1e-3, np.pi - 1e-3, 500)
    beta = rng.uniform(-7, 7, 500)    # unwrapped branch
    m = model.angles_to_cartesian(psi, beta)
    psi2, beta2 = model.polar_from_cartesian(m, beta_near=beta)
    assert np.abs(psi2 - psi).max() < 1e-12
    assert np.abs(beta2 - beta).max() < 1e-12


def test_polar_profile_invariants(grid):
    n = grid.n_nodes
    psi = np.full(n, np.pi / 2)
    beta = np.zeros(n)
    p = model.PolarProfile(psi, beta, (np.pi / 2, 0.0), (np.pi / 2, 0.0))
    assert p.n_nodes == n
    with pytest.raises(PolarSingularity):
        model.PolarProfile(np.zeros(n), beta, (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ConfigError):
        model.PolarProfile(psi, beta + 0.1, (np.pi / 2, 0.0), (np.pi / 2, 0.0))


def test_cartesian_profile_unit_invariant():
    m = np.tile([1.0, 0.0, 0.0], (5, 1))
    model.CartesianProfile(m)
    with pytest.raises(NonUnitVector):
        model.CartesianProfile(1.001 * m)


def test_validate_degenerate():
    reg = model.Regime.walker(1.0)
    model.validate(model.Params(0, 0, 0, 1.0, 0.1), reg)
    model.validate(model.Params(0, 0, 0.5, 0.0, 0.1), model.Regime.transverse(0.5))
    with pytest.raises(DegenerateRegime):
        model.validate(model.Params(0, 0, 0, 0, 0.1), reg)


def test_profile_csv_header(grid):
    from llgtw.walls import bloch_wall

    text = model.profile_to_csv(bloch_wall(grid), grid)
    lines = text.splitlines()
    assert lines[0] == "xi,psi,beta,m1,m2,m3"
    assert len(lines) == grid.n_nodes + 1
    row = [float(x) for x in lines[(grid.n_nodes - 1) // 2 + 1].split(",")]
    assert row[0] == 0.0
    assert row[3:] == pytest.approx([0, 0, 1], abs=1e-12)   # wall centre points along z


def test_profile_json_roundtrip(grid):
    from llgtw.walls import bloch_wall

    profile = bloch_wall(grid)
    params = model.Params(0, 0, 0, 1.0, 0.1)
    text = model.profile_to_json(profile, grid, params, V=0.25, residual_norm=1e-12)
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    p2, g2, params2, V2 = model.profile_from_json(text)
    assert g2.n_nodes == grid.n_nodes
    assert np.allclose(p2.beta, profile.beta, atol=1e-15)
    assert params2 == params
    assert V2 == 0.25
