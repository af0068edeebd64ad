import numpy as np
import pytest

from llgtw import dynamics as dyn
from llgtw import energetics, model, walls
from llgtw import solver as tws
from llgtw.errors import ConfigError, MultipleWalls, NoConvergence, NoWall, WallNearBoundary


@pytest.fixture(scope="module")
def grid():
    # h = 0.1 keeps the unit tests fast; the verification suite runs finer
    return model.Grid(20.0, 401)


PARAMS0 = model.Params(0, 0, 0, 1.0, 0.1)


def test_rhs_uniform_state_is_static(grid):
    m = np.tile([1.0, 0, 0], (grid.n_nodes, 1))
    rhs = dyn.llg_rhs(m, PARAMS0, grid)
    assert np.abs(rhs).max() < 1e-13


def test_rhs_bloch_wall_nearly_static(grid):
    m = model.to_cartesian(walls.bloch_wall(grid)).m
    rhs = dyn.llg_rhs(m, PARAMS0, grid)
    assert np.abs(rhs).max() < grid.h**2


def test_rhs_uniform_z_in_axial_field(grid):
    # hand algebra: H = H1 x, m x H = H1 y, m x (m x H) = -H1 x
    params = model.Params(0.3, 0, 0, 0.0, 0.2)
    m = np.tile([0.0, 0.0, 1.0], (grid.n_nodes, 1))
    zhat = np.array([0.0, 0.0, 1.0])
    rhs = dyn.llg_rhs(m, params, grid, m_minus=zhat, m_plus=zhat)
    expect = np.array([0.2 * 0.3, 0.3, 0.0]) / (1 + 0.2**2)
    assert np.abs(rhs[1:-1] - expect).max() < 1e-14


def test_static_wall_persists(grid):
    # the continuum wall relaxes onto the nearby discrete static state; the
    # drift is bounded by the O(h^2) discretization gap and shows no motion
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    traj = dyn.integrate(m0, PARAMS0, grid, T=10.0)
    assert np.abs(traj.profiles[-1] - m0.m).max() < 1.5 * grid.h**2
    _, vel = dyn.track_wall(traj)
    assert abs(vel) < 1e-8
    assert traj.max_unit_violation.max() < 1e-9


def test_transverse_wall_persists(grid):
    params = model.Params(0, 0, 0.5, 0, 0.1)
    m0 = model.to_cartesian(walls.transverse_wall(0.5, grid, extend=False))
    traj = dyn.integrate(m0, params, grid, T=10.0)
    assert np.abs(traj.profiles[-1] - m0.m).max() < 1.5 * grid.h**2
    _, vel = dyn.track_wall(traj)
    assert abs(vel) < 1e-8


def test_energy_lyapunov_at_zero_field(grid):
    # excited wall at zero applied field: energy must never increase
    wall = walls.bloch_wall(grid)
    psi = wall.psi + 0.2 / np.cosh(grid.xi)
    m0 = model.angles_to_cartesian(psi, wall.beta)
    traj = dyn.integrate(m0, PARAMS0, grid, T=5.0, sample_every=1)
    steps = np.diff(traj.energy)
    assert steps.max() <= 1e-9
    assert traj.energy[-1] < traj.energy[0] - 1e-4    # it genuinely relaxed


def test_driven_wall_velocity_matches_solver(grid):
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    sol = tws.solve_tw(params, model.Regime.walker(1.0), grid,
                       tws.NewtonOptions(tol_residual=1e-12))
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    traj = dyn.integrate(m0, params, grid, T=60.0)
    _, vel = dyn.track_wall(traj)
    assert vel == pytest.approx(sol.V, rel=0.02)


def test_track_wall_synthetic_translation(grid):
    # profiles translated at speed 0.3 must be tracked at exactly that speed
    ts = np.linspace(0.0, 5.0, 21)
    profiles = np.array([
        model.angles_to_cartesian(np.full(grid.n_nodes, np.pi / 2),
                                  walls.bloch_beta(grid.xi - 0.3 * t))
        for t in ts
    ])
    traj = dyn.Trajectory(
        t=ts, profiles=profiles,
        x_w=np.zeros_like(ts), energy=np.zeros_like(ts),
        max_unit_violation=np.zeros_like(ts), grid=grid, params=PARAMS0,
    )
    positions, vel = dyn.track_wall(traj)
    assert vel == pytest.approx(0.3, abs=1e-6)
    assert positions[0] == pytest.approx(0.0, abs=1e-9)


def test_track_wall_error_cases(grid):
    uniform = np.tile([1.0, 0, 0], (grid.n_nodes, 1))
    with pytest.raises(NoWall):
        dyn._zero_crossing(uniform[:, 0], grid.xi)
    wiggly = np.cos(3 * np.pi * grid.xi / grid.half_width)
    with pytest.raises(MultipleWalls):
        dyn._zero_crossing(wiggly, grid.xi)


def test_step_size_precondition(grid):
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    with pytest.raises(ConfigError):
        dyn.integrate(m0, PARAMS0, grid, T=1.0, dt=0.3 * grid.h**2, method="rk4")


def test_wall_near_boundary_aborts():
    grid = model.Grid(13.0, 261)
    params = model.Params(0.04, 0, 0, 1.0, 0.1)   # fast wall, small box
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    with pytest.raises(WallNearBoundary):
        dyn.integrate(m0, params, grid, T=60.0)


def test_unit_norm_violation_tiny(grid):
    # the per-step pre-renormalization drift is at roundoff level for stable dt
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    traj = dyn.integrate(m0, params, grid, T=0.5, dt=0.25 * grid.h**2, sample_every=1)
    assert traj.max_unit_violation[1:].max() < 1e-12


def test_time_step_convergence_order():
    gd = model.Grid(20.0, 201)
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    m0 = model.to_cartesian(walls.bloch_wall(gd))
    dt0 = 0.25 * gd.h**2
    finals = [
        dyn.integrate(m0, params, gd, T=2.0, dt=dt, sample_every=10**9,
                      method="rk4").profiles[-1]
        for dt in (dt0, dt0 / 2, dt0 / 4)
    ]
    d1 = np.abs(finals[0] - finals[1]).max()
    d2 = np.abs(finals[1] - finals[2]).max()
    assert 10.0 < d1 / d2 < 26.0


def _dense_band(ab, kl=5, ku=5):
    """Dense matrix of a LAPACK general-band array (entry (i, j) at ab[kl + ku + i - j, j])."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            A[i, j] = ab[kl + ku + i - j, j]
    return A


def test_midpoint_jacobian_matches_finite_differences():
    g = model.Grid(5.0, 21)
    params = model.Params(0.1, 0.2, 0.3, 0.7, 0.15)
    eq = energetics.equilibria(params)
    m_minus, m_plus = eq.m_minus(), eq.m_plus()
    rng = np.random.default_rng(7)
    m, x = rng.normal(size=(2, g.n_nodes, 3))
    m /= np.linalg.norm(m, axis=1)[:, None]
    x /= np.linalg.norm(x, axis=1)[:, None]
    m[0] = x[0] = m_minus
    m[-1] = x[-1] = m_plus
    dt = 0.3

    def residual(xx):
        return dyn._midpoint_residual(xx, m, dt, params, g, m_minus, m_plus)

    _, mid, H = residual(x)
    J = _dense_band(dyn._midpoint_jacobian(mid, H, dt, params, g))
    eps = 1e-6
    J_fd = np.empty_like(J)
    for col in range(J.shape[1]):
        xp, xm = x.copy(), x.copy()
        xp[1 + col // 3, col % 3] += eps
        xm[1 + col // 3, col % 3] -= eps
        J_fd[:, col] = (residual(xp)[0] - residual(xm)[0]).ravel() / (2 * eps)
    assert np.abs(J - J_fd).max() < 1e-8 * np.abs(J_fd).max()


def test_midpoint_second_order():
    # T = 4: at T = 2 the coarsest pair reads 5.2, before the asymptotic
    # range (the ratio there falls to 4.15, 4.04 under further halvings of dt)
    gd = model.Grid(20.0, 201)
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    m0 = model.to_cartesian(walls.bloch_wall(gd))
    finals = [
        dyn.integrate(m0, params, gd, T=4.0, dt=dt, sample_every=10**9).profiles[-1]
        for dt in (0.1, 0.05, 0.025)
    ]
    d1 = np.abs(finals[0] - finals[1]).max()
    d2 = np.abs(finals[1] - finals[2]).max()
    assert 3.0 <= d1 / d2 <= 5.0


def test_midpoint_large_step_keeps_norm_and_energy(grid):
    # dt = 100 h^2 is 400x RK4's limit; the midpoint rule keeps |m| = 1 and
    # the zero-field energy law for any dt
    wall = walls.bloch_wall(grid)
    m0 = model.angles_to_cartesian(wall.psi + 0.2 / np.cosh(grid.xi), wall.beta)
    traj = dyn.integrate(m0, PARAMS0, grid, T=20.0, dt=100 * grid.h**2, sample_every=1)
    assert traj.n_steps == 20
    assert traj.max_unit_violation.max() <= 1e-11
    assert np.diff(traj.energy).max() <= 1e-12
    assert traj.energy[-1] < traj.energy[0] - 1e-4


def test_unknown_method_rejected(grid):
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    with pytest.raises(ConfigError, match="bogus"):
        dyn.integrate(m0, PARAMS0, grid, T=1.0, method="bogus")


@pytest.mark.parametrize("kw", [dict(T=1.0, dt=0.0), dict(T=1.0, dt=-0.05),
                                dict(T=1.0, dt=float("nan")), dict(T=-1.0),
                                dict(T=0.0), dict(T=float("inf"))])
def test_time_and_step_rejected_up_front(grid, kw):
    # a bad T or dt is a usage error naming the value, for either method,
    # not a ZeroDivisionError or a one-step run that fails later
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    name = "dt" if "dt" in kw else "T"
    for method in ("midpoint", "rk4"):
        with pytest.raises(ConfigError, match=f"integration {name} must be finite and > 0"):
            dyn.integrate(m0, PARAMS0, grid, method=method, **kw)


def test_trajectory_records_run(grid, monkeypatch):
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    traj = dyn.integrate(m0, PARAMS0, grid, T=0.5)
    assert (traj.method, traj.dt, traj.tol) == ("midpoint", None, dyn.MIDPOINT_TOL)
    assert traj.t[-1] == 0.5 and traj.t.size == traj.n_steps + 1
    assert traj.n_rejected == 0 and 1 <= traj.n_factorizations <= traj.n_steps
    monkeypatch.setattr(dyn, "MIDPOINT_TOL", 1e-7)
    traj = dyn.integrate(m0, PARAMS0, grid, T=0.5)
    assert traj.tol == 1e-7 and traj.n_steps > 10
    traj = dyn.integrate(m0, PARAMS0, grid, T=0.5, dt=0.05)
    assert (traj.method, traj.dt, traj.n_steps, traj.tol, traj.n_rejected) == \
        ("midpoint", 0.05, 10, None, 0)
    assert traj.n_factorizations >= 1
    traj = dyn.integrate(m0, PARAMS0, grid, T=0.01, method="rk4")
    assert (traj.method, traj.dt, traj.n_steps, traj.n_factorizations) == \
        ("rk4", 0.2 * grid.h**2, 5, 0)


def test_sampling_with_final_partial_stride(grid):
    # 20 steps every 3rd: samples at steps 0, 3, ..., 18 and the final 20,
    # the values a list of per-sample copies gave
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    every = dyn.integrate(m0, params, grid, T=1.0, dt=0.05, sample_every=1)
    traj = dyn.integrate(m0, params, grid, T=1.0, dt=0.05, sample_every=3)
    assert traj.n_steps % 3 != 0
    steps = list(range(0, traj.n_steps + 1, 3)) + [traj.n_steps]
    assert np.array_equal(traj.t, np.array([k * traj.dt for k in steps]))
    assert np.array_equal(traj.profiles, np.array([every.profiles[k] for k in steps]))
    assert np.array_equal(traj.x_w, every.x_w[steps])


def test_adaptive_sampling_by_time(grid, monkeypatch):
    # by default an adaptive run keeps the first accepted step past each of
    # 200 evenly spaced times, and the final state at T
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    monkeypatch.setattr(dyn, "MIDPOINT_TOL", 1e-8)
    every = dyn.integrate(m0, params, grid, T=10.0, sample_every=1)
    traj = dyn.integrate(m0, params, grid, T=10.0)
    # steps shorter than the sampling interval, so each interval holds one
    assert every.n_steps == traj.n_steps and np.diff(every.t).max() < 10.0 / dyn.N_SAMPLES
    assert every.t.size == every.n_steps + 1 and traj.t[-1] == 10.0
    assert traj.t.size == dyn.N_SAMPLES + 1
    assert np.array_equal(np.floor(traj.t[:-1] * dyn.N_SAMPLES / 10.0), np.arange(dyn.N_SAMPLES))
    k = np.searchsorted(every.t, traj.t)
    assert np.array_equal(every.t[k], traj.t)
    assert np.array_equal(every.profiles[k], traj.profiles)
    assert np.array_equal(every.energy[k], traj.energy)


def test_adaptive_velocity_converges_to_fixed_step_limit(grid, monkeypatch):
    # the tracked-velocity gap of a run from the travelling-wave profile
    # approaches its small-dt value as tol shrinks; the time error of a 2nd
    # order method whose local error is tol scales like tol^(2/3), about
    # 4.6x per decade (measured: 7.7e-4, 1.7e-4, 3.4e-5).  The dt = 0.05
    # reference differs from dt = 0.01 by 3e-6, under a tenth of the
    # smallest of them.
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    sol = tws.solve_tw(params, model.Regime.walker(1.0), grid,
                       tws.NewtonOptions(tol_residual=1e-12))
    m0 = model.to_cartesian(sol.profile)

    def gap(dt=None):
        _, vel = dyn.track_wall(dyn.integrate(m0, params, grid, T=20.0, dt=dt))
        return (vel - sol.V) / abs(sol.V)

    reference = gap(dt=0.05)
    errors = []
    for tol in (1e-4, 1e-5, 1e-6):
        monkeypatch.setattr(dyn, "MIDPOINT_TOL", tol)
        errors.append(abs(gap() - reference))
    assert errors[0] < 2e-3                   # the estimate's scale, not only its trend
    assert all(later < earlier / 2 for earlier, later in zip(errors, errors[1:]))
    assert errors[-1] < 0.1 * errors[0]


def test_adaptive_stiff_start_rejects_and_keeps_invariants(grid):
    # a narrow bump on a Bloch wall at zero field excites grid-scale modes
    # that the start step of 0.01 does not resolve: the error test rejects
    # steps, and each accepted step still keeps |m| = 1 and lowers the energy.
    # The first checked step fails, so the two unchecked steps before it are
    # redone at its shorter dt.
    wall = walls.bloch_wall(grid)
    m0 = model.angles_to_cartesian(wall.psi + 0.3 * np.exp(-(grid.xi / 0.2) ** 2), wall.beta)
    traj = dyn.integrate(m0, PARAMS0, grid, T=2.0, sample_every=1)
    assert traj.n_rejected >= 3
    assert traj.t[1] < 0.2 * dyn.START_DT
    assert traj.t.size == traj.n_steps + 1
    assert np.diff(traj.energy).max() <= 1e-12
    assert traj.max_unit_violation.max() <= 1e-11
    assert traj.energy[-1] < traj.energy[0] - 1e-4


def test_adaptive_step_floor_raises_no_convergence(grid, monkeypatch):
    # when every Newton solve fails, each retry halves the step until it
    # falls below MIN_DT; the error names t, dt and the residual
    monkeypatch.setattr(dyn, "NEWTON_MAX_ITER", 0)
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    with pytest.raises(NoConvergence, match=r"from t = 0 failed: dt = 9\.54e-09 fell below "
                                            r"the floor 1e-08; Newton residual \d"):
        dyn.integrate(m0, params, grid, T=1.0)


@pytest.mark.parametrize("sample_every", [0, -3, 2.5, True])
def test_sample_every_rejected_up_front(grid, sample_every):
    m0 = model.to_cartesian(walls.bloch_wall(grid))
    with pytest.raises(ConfigError, match="sample_every must be a positive integer"):
        dyn.integrate(m0, PARAMS0, grid, T=1.0, sample_every=sample_every)
