import numpy as np
import pytest

from llgtw import energetics as en
from llgtw import model, walls
from llgtw.errors import NonUnitVector

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])


@pytest.fixture(scope="module")
def grid():
    return model.Grid(20.0, 801)


def test_potential_axis_values():
    assert en.potential(XHAT, model.Params(0, 0, 0, 1.0, 0.1)) == pytest.approx(0.0)
    assert en.potential(YHAT, model.Params(0, 0, 0, 2.0, 0.1)) == pytest.approx(1.5)
    assert en.potential(XHAT, model.Params(0.3, 0, 0, 0.0, 0.1)) == pytest.approx(-0.3)


def test_potential_rejects_non_unit():
    with pytest.raises(NonUnitVector):
        en.potential(1.1 * XHAT, model.Params(0, 0, 0, 1.0, 0.1))


def test_potential_reflection_symmetry():
    # with H1 = 0 the potential is exactly even in m1
    rng = np.random.default_rng(2)
    params = model.Params(0, 0.2, 0.3, 1.3, 0.1)
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        w = v * np.array([-1.0, 1.0, 1.0])
        assert en.potential(v, params) == en.potential(w, params)


def test_torque_zero_at_walker_minimum():
    F1, F2 = en.torques(np.pi / 2, 0.0, model.Params(0, 0, 0, 1.0, 0.1))
    assert abs(F1) < 1e-15 and abs(F2) < 1e-15


def test_torque_transverse_formula():
    # at a = pi/2 with a z field: F1 = cos b (sin b - H3), F2 = 0
    params = model.Params(0, 0, 0.5, 0, 0.1)
    for b in np.linspace(-1.0, 3.0, 17):
        F1, F2 = en.torques(np.pi / 2, b, params)
        assert F1 == pytest.approx(np.cos(b) * (np.sin(b) - 0.5), abs=1e-14)
        assert abs(F2) < 1e-15
    F1, _ = en.torques(np.pi / 2, np.pi / 2, params)
    assert abs(F1) < 1e-15


def test_torques_match_potential_gradient():
    # dU/da = F2 and dU/db = sin(a) F1, checked by central differences
    rng = np.random.default_rng(3)
    params = model.Params(0.07, -0.1, 0.2, 0.8, 0.1)
    eps = 1e-6
    for _ in range(100):
        a = rng.uniform(0.2, np.pi - 0.2)
        b = rng.uniform(-np.pi, np.pi)

        def U(aa, bb):
            return en.potential(model.angles_to_cartesian(aa, bb), params)

        dUda = (U(a + eps, b) - U(a - eps, b)) / (2 * eps)
        dUdb = (U(a, b + eps) - U(a, b - eps)) / (2 * eps)
        F1, F2 = en.torques(a, b, params)
        assert dUda == pytest.approx(F2, abs=1e-6)
        assert dUdb == pytest.approx(np.sin(a) * F1, abs=1e-6)


def test_torque_partials_fd():
    rng = np.random.default_rng(4)
    params = model.Params(0.05, 0.1, -0.2, 1.1, 0.1)
    eps = 1e-6
    for _ in range(20):
        a = rng.uniform(0.3, np.pi - 0.3)
        b = rng.uniform(-np.pi, np.pi)
        d1a, d1b, d2a, d2b = en.torque_partials(a, b, params)
        for which, got in ((0, d1a), (1, d1b), (2, d2a), (3, d2b)):
            da = eps if which in (0, 2) else 0.0
            db = eps if which in (1, 3) else 0.0
            fp = en.torques(a + da, b + db, params)
            fm = en.torques(a - da, b - db, params)
            idx = 0 if which < 2 else 1
            fd = (fp[idx] - fm[idx]) / (2 * eps)
            assert got == pytest.approx(fd, abs=1e-7)


def test_scalar_torque_calls_match_0d_array_calls():
    # float angles skip the conversion to 0-d arrays; the values must be
    # those of the array path, bit for bit
    rng = np.random.default_rng(5)
    params = model.Params(0.05, 0.1, -0.2, 1.1, 0.1)
    for _ in range(50):
        a, b = float(rng.uniform(0.0, np.pi)), float(rng.uniform(-np.pi, np.pi))
        for fn in (en.torques, en.torque_partials):
            scalar = fn(a, b, params)
            assert all(isinstance(v, float) for v in scalar)
            assert scalar == tuple(float(v) for v in fn(np.asarray(a), np.asarray(b), params))


def test_equilibria_walker():
    eq = en.equilibria(model.Params(0, 0, 0, 1.0, 0.1))
    assert eq.plus == pytest.approx((np.pi / 2, 0.0))
    assert eq.minus == pytest.approx((np.pi / 2, np.pi))


def test_equilibria_transverse():
    eq = en.equilibria(model.Params(0, 0, 0.5, 0, 0.1))
    assert eq.plus == pytest.approx((np.pi / 2, np.arcsin(0.5)), abs=1e-12)
    assert eq.minus == pytest.approx((np.pi / 2, np.pi - np.arcsin(0.5)), abs=1e-12)


def test_equilibria_axial_field_keeps_minima():
    eq = en.equilibria(model.Params(0.01, 0, 0, 1.0, 0.1))
    assert eq.plus == pytest.approx((np.pi / 2, 0.0), abs=1e-12)
    assert eq.minus == pytest.approx((np.pi / 2, np.pi), abs=1e-12)


def test_equilibria_torque_residual_and_hessian():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = model.Params(
            rng.uniform(-0.02, 0.02), rng.uniform(-0.1, 0.1),
            rng.uniform(-0.1, 0.1), rng.uniform(0.5, 2.0), 0.1,
        )
        eq = en.equilibria(params)
        for a, b in (eq.plus, eq.minus):
            F1, F2 = en.torques(a, b, params)
            assert max(abs(F1), abs(F2)) < 1e-12
            H = en._hessian(a, b, params)
            s = np.sin(a)
            Ht = np.array([[H[0, 0], H[0, 1] / s], [H[1, 0] / s, H[1, 1] / s**2]])
            assert np.linalg.eigvalsh(Ht).min() >= -1e-9
        assert eq.m_plus()[0] > 0 > eq.m_minus()[0]


def test_bloch_energy(grid):
    p = walls.bloch_wall(grid)
    params = model.Params(0, 0, 0, 1.0, 0.1)
    E = en.micromagnetic_energy(p, params, grid)
    assert E == pytest.approx(2.0, abs=2 * grid.h**2)


def test_bloch_energy_independent_of_K2(grid):
    p = walls.bloch_wall(grid)
    E1 = en.micromagnetic_energy(p, model.Params(0, 0, 0, 1.0, 0.1), grid)
    E5 = en.micromagnetic_energy(p, model.Params(0, 0, 0, 5.0, 0.1), grid)
    assert abs(E1 - E5) < 1e-12


def test_uniform_energy_zero(grid):
    m = np.tile(XHAT, (grid.n_nodes, 1))
    params = model.Params(0, 0, 0, 1.0, 0.1)
    assert abs(en.energy_cartesian(m, params, grid)) < 1e-14


def _effective_field(p, params, grid):
    """Effective field of a polar profile, its boundary values as ghost nodes."""
    m = model.angles_to_cartesian(p.psi, p.beta)
    return en.effective_field_cartesian(m, params, grid, model.angles_to_cartesian(*p.bc_minus),
                                        model.angles_to_cartesian(*p.bc_plus))


def test_effective_field_uniform(grid):
    params = model.Params(0, 0, 0, 1.0, 0.1)
    psi = np.full(grid.n_nodes, np.pi / 2)
    p = model.PolarProfile(psi, np.zeros(grid.n_nodes), (np.pi / 2, 0), (np.pi / 2, 0))
    H = _effective_field(p, params, grid)
    assert np.abs(H - XHAT).max() < 1e-12


def test_effective_field_bloch_centre(grid):
    params = model.Params(0, 0, 0, 1.0, 0.1)
    p = walls.bloch_wall(grid)
    H = _effective_field(p, params, grid)
    c = (grid.n_nodes - 1) // 2
    assert H[c] == pytest.approx([0, 0, -1], abs=grid.h**2)


def test_effective_field_bloch_torque_small(grid):
    params = model.Params(0, 0, 0, 1.0, 0.1)
    p = walls.bloch_wall(grid)
    H = _effective_field(p, params, grid)
    m = model.to_cartesian(p).m
    assert np.abs(np.cross(m, H)).max() < 0.5 * grid.h**2
