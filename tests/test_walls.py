import tracemalloc

import numpy as np
import pytest

from llgtw import model, walls
from llgtw.errors import ConfigError, InvalidField


@pytest.fixture(scope="module")
def grid():
    return model.Grid(20.0, 801)


def test_bloch_wall_centre_and_form(grid):
    p = walls.bloch_wall(grid)
    c = (grid.n_nodes - 1) // 2
    assert p.beta[c] == pytest.approx(np.pi / 2, abs=1e-15)
    m = model.to_cartesian(p).m
    # the classic (tanh, 0, sech) profile
    assert np.abs(m[:, 0] - np.tanh(grid.xi)).max() < 1e-14
    assert np.abs(m[:, 1]).max() < 1e-14
    assert np.abs(m[:, 2] - 1 / np.cosh(grid.xi)).max() < 1e-14
    assert m[c] == pytest.approx([0, 0, 1], abs=1e-12)


def test_bloch_azimuth_derivative_fd(grid):
    # central differences of beta reproduce -sech to O(h^2)
    p = walls.bloch_wall(grid)
    d = (p.beta[2:] - p.beta[:-2]) / (2 * grid.h)
    err = np.abs(d + 1 / np.cosh(grid.xi[1:-1])).max()
    assert err < 1.5 * grid.h**2


def test_bloch_monotone(grid):
    p = walls.bloch_wall(grid)
    assert np.all(np.diff(p.beta) < 0)


def test_transverse_wall_limits(grid):
    p = walls.transverse_wall(0.5, grid)
    assert abs(p.beta[0] - 5 * np.pi / 6) < 1e-6
    assert abs(p.beta[-1] - np.pi / 6) < 1e-6
    # normalization beta(0) = pi/2 at the centre node
    c = (p.n_nodes - 1) // 2
    assert p.beta[c] == pytest.approx(np.pi / 2, abs=1e-14)


def test_transverse_wall_slope_at_centre(grid):
    # beta' = H3 - sin(beta) so the slope at the centre is H3 - 1 = -0.5
    p = walls.transverse_wall(0.5, grid)
    c = (p.n_nodes - 1) // 2
    assert 0.5 - np.sin(p.beta[c]) == pytest.approx(-0.5, abs=1e-14)
    slope = (p.beta[c + 1] - p.beta[c - 1]) / (2 * grid.h)
    assert slope == pytest.approx(-0.5, abs=grid.h**2 / 6 * 0.25 + 1e-6)


def test_transverse_wall_monotone_and_sine_bound(grid):
    for H3 in (0.25, 0.5, 0.75):
        p = walls.transverse_wall(H3, grid)
        assert np.all(np.diff(p.beta) < 0)
        assert np.all(np.sin(p.beta) >= H3 - 1e-12)


def test_transverse_wall_small_field_limit(grid):
    # as H3 -> 0 the wall converges pointwise to the Bloch azimuth
    errs = []
    for H3 in (1e-2, 1e-3):
        p = walls.transverse_wall(H3, grid, extend=False)
        errs.append(np.abs(p.beta - walls.bloch_beta(grid.xi)).max())
    assert errs[1] < errs[0]
    assert errs[0] < 10 * 1e-2
    assert errs[1] < 10 * 1e-3


def test_transverse_wall_extends_for_slow_tails(grid):
    for H3 in (0.75, 0.95):
        p = walls.transverse_wall(H3, grid)
        assert p.n_nodes > grid.n_nodes          # tail would miss 1e-8 at L = 20
        assert abs(p.beta[-1] - np.arcsin(H3)) <= walls.TAIL_TOL
        assert abs(p.beta[0] - (np.pi - np.arcsin(H3))) <= walls.TAIL_TOL


def _rk4_azimuth(H3, grid, substeps=10):
    """Reference wall: beta' = H3 - sin(beta) integrated from beta(0) = pi/2
    by the classical 4th-order method, `substeps` steps per grid cell,
    marching right from the centre node and left with negated step."""
    c = (grid.n_nodes - 1) // 2
    beta = np.empty(grid.n_nodes)
    beta[c] = np.pi / 2

    def rhs(b):
        return H3 - np.sin(b)

    for stop, step in ((grid.n_nodes - 1, 1), (0, -1)):
        hs = step * grid.h / substeps
        b = beta[c]
        for i in range(c, stop, step):
            for _ in range(substeps):
                k1 = rhs(b)
                k2 = rhs(b + 0.5 * hs * k1)
                k3 = rhs(b + 0.5 * hs * k2)
                k4 = rhs(b + hs * k3)
                b = b + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            beta[i + step] = b
    return beta


@pytest.mark.parametrize("H3", [0.01, 0.25, 0.5, 0.75, 0.95])
def test_transverse_wall_closed_form(grid, H3):
    p = walls.transverse_wall(H3, grid)
    wide = model.Grid(grid.h * (p.n_nodes - 1) / 2, p.n_nodes)
    assert np.abs(p.beta - _rk4_azimuth(H3, wide)).max() < 1e-11
    # mirror symmetry beta(-xi) = pi - beta(xi)
    assert np.abs(p.beta + p.beta[::-1] - np.pi).max() < 1e-14


def test_transverse_wall_no_float_warnings():
    wide = model.Grid(300.0, 6001)
    with np.errstate(all="raise"):
        for extend in (True, False):
            p = walls.transverse_wall(0.999, wide, extend=extend)
            assert np.all(np.isfinite(p.beta))


def test_transverse_wall_widening_capped():
    # H3 = 1 - 1e-15 would widen to ~92.7M nodes; it must fail before allocating
    grid = model.Grid(2000.0, 4001)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="tail.*4.47e-08.*half-width 4.635e"):
            walls.transverse_wall(1.0 - 1e-15, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a slow but buildable tail still widens
    wide = model.Grid(300.0, 6001)
    p = walls.transverse_wall(0.999, wide)
    assert wide.n_nodes < p.n_nodes <= walls.MAX_NODES
    assert abs(p.beta[-1] - np.arcsin(0.999)) <= walls.TAIL_TOL


def test_transverse_wall_invalid_field(grid):
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InvalidField):
            walls.transverse_wall(bad, grid)


def test_base_profile_walker_derivatives(grid):
    base = walls.base_profile(model.Regime.walker(1.0), grid)
    sech = 1 / np.cosh(grid.xi)
    assert np.abs(base.dbeta + sech).max() < 1e-14
    assert np.abs(base.d2beta - sech * np.tanh(grid.xi)).max() < 1e-14
    assert np.all(base.dpsi == 0) and np.all(base.d2psi == 0)


def test_base_profile_transverse_derivative_identities(grid):
    base = walls.base_profile(model.Regime.transverse(0.5), grid)
    # analytic first derivative vs central differences of the samples
    fd = (base.beta[2:] - base.beta[:-2]) / (2 * grid.h)
    assert np.abs(fd - base.dbeta[1:-1]).max() < 2 * grid.h**2
    fd2 = (base.beta[2:] - 2 * base.beta[1:-1] + base.beta[:-2]) / grid.h**2
    assert np.abs(fd2 - base.d2beta[1:-1]).max() < 2 * grid.h**2


def test_base_profile_rotated_transverse(grid):
    # H2 != 0: the rotated wall must still be a unit-field static state with
    # the transverse field direction (0, H2, H3)/rho; check derivative
    # consistency and boundary values
    reg = model.Regime.transverse(H3=0.4, H2=0.3)
    base = walls.base_profile(reg, grid)
    fd = (base.beta[2:] - base.beta[:-2]) / (2 * grid.h)
    assert np.abs(fd - base.dbeta[1:-1]).max() < 5 * grid.h**2
    fdp = (base.psi[2:] - base.psi[:-2]) / (2 * grid.h)
    assert np.abs(fdp - base.dpsi[1:-1]).max() < 5 * grid.h**2
    m = model.angles_to_cartesian(base.psi, base.beta)
    # far-field magnetization should minimize U: tilted toward the field
    rho = 0.5
    m_plus_expect = np.array([np.sqrt(1 - rho**2), 0.3, 0.4])
    assert np.abs(m[-1] - m_plus_expect).max() < 1e-6
