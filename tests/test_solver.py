import numpy as np
import pytest

from llgtw import model, walls
from llgtw import solver as tws
from llgtw.errors import ConfigError, NoConvergence

OPTS = tws.NewtonOptions(tol_residual=1e-12)


@pytest.fixture(scope="module")
def grid():
    return model.Grid(20.0, 801)


@pytest.fixture(scope="module")
def coarse():
    return model.Grid(15.0, 301)


# --- switching function -------------------------------------------------------

def test_switching_function_properties():
    th = tws.SwitchingFunction(xi0=1.0)
    x = np.linspace(-2, 3, 400)
    v = th.value(x)
    assert np.all(v[x <= 0] == 0.0)
    assert np.all(v[x >= 1] == 1.0)
    assert np.all((v >= 0) & (v <= 1))
    # C^2: derivatives vanish at both ends of the band
    for f in (th.d1, th.d2):
        assert f(0.0) == pytest.approx(0.0, abs=1e-14)
        assert f(1.0) == pytest.approx(0.0, abs=1e-14)
    # derivative consistency
    eps = 1e-6
    mid = np.linspace(0.05, 0.95, 19)
    fd = (th.value(mid + eps) - th.value(mid - eps)) / (2 * eps)
    assert np.abs(fd - th.d1(mid)).max() < 1e-7
    fd2 = (th.d1(mid + eps) - th.d1(mid - eps)) / (2 * eps)
    assert np.abs(fd2 - th.d2(mid)).max() < 1e-6


def test_switching_function_band():
    th = tws.SwitchingFunction(xi0=14.0, xi_lo=8.0)
    assert th.value(7.9) == 0.0
    assert th.value(14.1) == 1.0
    with pytest.raises(ConfigError):
        tws.SwitchingFunction(xi0=1.0, xi_lo=2.0)


def test_switching_function_alternative_coefficients():
    # the lower-order quintic smoothstep is still a valid switch
    th = tws.SwitchingFunction(xi0=1.0, coefficients=tws.SMOOTHSTEP_C2)
    assert th.value(0.5) == pytest.approx(0.5)
    assert th.value(-0.1) == 0.0 and th.value(1.1) == 1.0
    assert th.d1(0.5) == pytest.approx(30 * 0.5**2 * 0.25)


def test_base_residual_independent_of_switching(grid):
    # at the base point the corrections vanish, so any admissible switch
    # leaves the reference equal to the static wall
    params = model.Params(0, 0, 0, 1.0, 0.1)
    th = tws.SwitchingFunction(xi0=1.0, coefficients=tws.SMOOTHSTEP_C2)
    ref = tws.reference_profile(params, model.Regime.walker(1.0), grid, theta=th)
    z = np.zeros(grid.n_nodes)
    rn = tws.residual_norm(tws.residual(z, z, 0.0, params, ref, grid), grid)
    assert rn < 1e-12


# --- reference profile --------------------------------------------------------

def test_reference_equals_base_at_base_point(grid):
    reg = model.Regime.walker(1.0)
    ref = tws.reference_profile(model.Params(0, 0, 0, 1.0, 0.1), reg, grid)
    wall = walls.bloch_wall(grid)
    assert np.array_equal(ref.psi, wall.psi)
    assert np.array_equal(ref.beta, wall.beta)

    regT = model.Regime.transverse(0.5)
    refT = tws.reference_profile(model.Params(0, 0, 0.5, 0, 0.1), regT, grid)
    baseT = walls.base_profile(regT, grid)
    assert np.array_equal(refT.beta, baseT.beta)


def test_reference_limits_move_with_parameters(grid):
    regT = model.Regime.transverse(0.5)
    ref = tws.reference_profile(model.Params(0, 0, 0.6, 0, 0.1), regT, grid)
    assert ref.bc_plus[1] == pytest.approx(np.arcsin(0.6), abs=1e-10)
    assert ref.bc_minus[1] == pytest.approx(np.pi - np.arcsin(0.6), abs=1e-10)
    # endpoint samples carry the base wall's residual tail (< 1e-7)
    assert ref.beta[-1] == pytest.approx(np.arcsin(0.6), abs=1e-6)
    assert ref.beta[0] == pytest.approx(np.pi - np.arcsin(0.6), abs=1e-6)


# --- residual -----------------------------------------------------------------

def test_static_residual_zero_walker(grid):
    for K2 in (0.5, 1.0, 5.0):
        params = model.Params(0, 0, 0, K2, 0.1)
        ref = tws.reference_profile(params, model.Regime.walker(K2), grid)
        z = np.zeros(grid.n_nodes)
        rn = tws.residual_norm(tws.residual(z, z, 0.0, params, ref, grid), grid)
        assert rn < 1e-12


def test_static_residual_zero_transverse(grid):
    for H3 in (0.25, 0.5, 0.75):
        params = model.Params(0, 0, H3, 0, 0.1)
        ref = tws.reference_profile(params, model.Regime.transverse(H3), grid)
        z = np.zeros(grid.n_nodes)
        rn = tws.residual_norm(tws.residual(z, z, 0.0, params, ref, grid), grid)
        assert rn < 1e-12


def test_static_residual_rotated_base(grid):
    # base with H2 != 0 exercises the rotated wall: still an exact solution
    reg = model.Regime.transverse(H3=0.4, H2=0.3)
    params = model.Params(0, 0.3, 0.4, 0, 0.1)
    ref = tws.reference_profile(params, reg, grid)
    z = np.zeros(grid.n_nodes)
    rn = tws.residual_norm(tws.residual(z, z, 0.0, params, ref, grid), grid)
    assert rn < 1e-10


def test_residual_driving_field_scale(grid):
    # a +H1 field adds -H1 sin(beta) to the azimuth residual: norm sqrt(2) H1
    H1 = 0.01
    params = model.Params(H1, 0, 0, 1.0, 0.1)
    ref = tws.reference_profile(params, model.Regime.walker(1.0), grid)
    z = np.zeros(grid.n_nodes)
    res = tws.residual(z, z, 0.0, params, ref, grid)
    assert np.abs(res.tilt).max() < 1e-12
    assert abs(res.phase) < 1e-15
    rn = tws.residual_norm(res, grid)
    assert rn == pytest.approx(np.sqrt(2) * H1, rel=1e-3)


def test_residual_endpoint_enforcement(grid):
    params = model.Params(0, 0, 0, 1.0, 0.1)
    ref = tws.reference_profile(params, model.Regime.walker(1.0), grid)
    u = np.zeros(grid.n_nodes)
    u[0] = 0.1
    with pytest.raises(ConfigError):
        tws.residual(u, np.zeros(grid.n_nodes), 0.0, params, ref, grid)


# --- Jacobian -----------------------------------------------------------------

def _assert_jacobian_matches_fd(u, w, V, params, ref, g):
    Ja = tws.jacobian_dense(u, w, V, params, ref, g)
    Jf = tws.jacobian_fd(u, w, V, params, ref, g, step=1e-6)
    err = np.abs(Ja - Jf) / np.maximum(np.abs(Jf), 1.0)
    assert err.max() < 1e-5


def test_jacobian_matches_finite_differences():
    g = model.Grid(10.0, 41)
    params = model.Params(0.008, 0.03, -0.04, 1.0, 0.15)
    ref = tws.reference_profile(params, model.Regime.walker(1.0), g)
    rng = np.random.default_rng(3)
    u = np.zeros(g.n_nodes)
    w = np.zeros(g.n_nodes)
    u[1:-1] = 0.05 * rng.standard_normal(g.n_nodes - 2)
    w[1:-1] = 0.05 * rng.standard_normal(g.n_nodes - 2)
    _assert_jacobian_matches_fd(u, w, 0.07, params, ref, g)


def test_solver_jacobian_self_check(coarse):
    # a tight solve converges, and the analytic Jacobian is right at its root
    params = model.Params(0.01, 0.02, 0.0, 1.0, 0.1)
    reg = model.Regime.walker(1.0)
    sol = tws.solve_tw(params, reg, coarse, tws.NewtonOptions(tol_residual=1e-11))
    assert sol.residual_norm < 1e-11
    ref = tws.reference_profile(params, reg, coarse)
    _assert_jacobian_matches_fd(sol.profile.psi - ref.psi, sol.profile.beta - ref.beta,
                                sol.V, params, ref, coarse)


# --- solve --------------------------------------------------------------------

def test_solve_at_base_returns_static(grid):
    sol = tws.solve_tw(model.Params(0, 0, 0, 1.0, 0.1), model.Regime.walker(1.0), grid, OPTS)
    assert sol.V == pytest.approx(0.0, abs=1e-10)
    wall = walls.bloch_wall(grid)
    assert np.abs(sol.profile.beta - wall.beta).max() < 1e-10
    assert np.abs(sol.profile.psi - wall.psi).max() < 1e-10

    solT = tws.solve_tw(model.Params(0, 0, 0.5, 0, 0.1), model.Regime.transverse(0.5), grid, OPTS)
    assert solT.V == pytest.approx(0.0, abs=1e-10)
    baseT = walls.base_profile(model.Regime.transverse(0.5), grid)
    assert np.abs(solT.profile.beta - baseT.beta).max() < 1e-10


def test_small_field_mobility(grid):
    # |V| = H1/alpha * width factor; within 3% of H1/alpha at H1 = 0.01
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    sol = tws.solve_tw(params, model.Regime.walker(1.0), grid, OPTS)
    assert sol.V < 0            # wall moves toward -x: the +x domain grows
    assert abs(sol.V) == pytest.approx(0.1, rel=0.03)
    # the exact steady-wall prediction: |V| = H1 Delta / alpha with
    # Delta = (1 + K2 sin^2 phi)^(-1/2), sin(2 phi) = 2 H1 / (alpha K2)
    phi = 0.5 * np.arcsin(2 * 0.01 / (0.1 * 1.0))
    delta = 1.0 / np.sqrt(1.0 + np.sin(phi) ** 2)
    assert abs(sol.V) == pytest.approx(0.1 * delta, rel=1e-4)


def test_transverse_mobility_oracle(grid):
    # linear response at the transverse base: dV/dH1 =
    # -2 sqrt(1-H3^2) / (alpha * [H3 (2 asin H3 - pi) + 2 sqrt(1-H3^2)])
    H3, alpha, H1 = 0.5, 0.1, 0.001
    mob = -2 * np.sqrt(1 - H3**2) / (alpha * (H3 * (2 * np.arcsin(H3) - np.pi)
                                              + 2 * np.sqrt(1 - H3**2)))
    sol = tws.solve_tw(model.Params(H1, 0, H3, 0, alpha),
                       model.Regime.transverse(H3), grid, OPTS)
    assert sol.V / H1 == pytest.approx(mob, rel=2e-3)


def test_velocity_identity_consistency(grid):
    params = model.Params(0.01, 0.05, 0.05, 0.8, 0.1)
    sol = tws.solve_tw(params, model.Regime.walker(0.8), grid, OPTS)
    vid = tws.velocity_identity(sol)
    assert abs(sol.V - vid) < 1e-6
    assert abs(sol.V - vid) / abs(sol.V) < 1e-6


def test_velocity_identity_zero_without_driving(grid):
    sol = tws.solve_tw(model.Params(0, 0.05, -0.03, 1.0, 0.1),
                       model.Regime.walker(1.0), grid, OPTS)
    assert abs(sol.V) < 1e-10
    assert abs(tws.velocity_identity(sol)) < 1e-10


def test_bloch_denominator_value(grid):
    # int |m'|^2 = 2 for the Bloch wall, so the identity denominator is 2 alpha
    sol = tws.solve_tw(model.Params(0, 0, 0, 1.0, 0.1), model.Regime.walker(1.0), grid, OPTS)
    p = sol.profile
    dpsi, dbeta = tws._profile_derivatives(p.psi, p.beta, grid.h)
    denom = float(np.trapezoid(dpsi**2 + np.sin(p.psi) ** 2 * dbeta**2, dx=grid.h))
    assert denom == pytest.approx(2.0, abs=1e-6)


def test_translation_gauge(grid):
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    reg = model.Regime.walker(1.0)
    sol = tws.solve_tw(params, reg, grid, OPTS)
    psi = np.empty_like(sol.profile.psi)
    beta = np.empty_like(sol.profile.beta)
    psi[1:] = sol.profile.psi[:-1]
    beta[1:] = sol.profile.beta[:-1]
    psi[0], beta[0] = sol.profile.psi[0], sol.profile.beta[0]
    shifted = model.PolarProfile(psi, beta, sol.profile.bc_minus, sol.profile.bc_plus)
    seed = model.TWSolution(shifted, sol.V, params, np.inf, grid)
    sol2 = tws.solve_tw(params, reg, grid, OPTS, seed=seed)
    assert np.abs(sol2.profile.beta - sol.profile.beta).max() < 1e-8
    assert abs(sol2.V - sol.V) < 1e-10


def test_seed_grid_mismatch(grid, coarse):
    params = model.Params(0.01, 0, 0, 1.0, 0.1)
    sol = tws.solve_tw(params, model.Regime.walker(1.0), coarse, OPTS)
    with pytest.raises(ConfigError):
        tws.solve_tw(params, model.Regime.walker(1.0), grid, OPTS, seed=sol)


def test_mesh_refinement_of_velocity(coarse):
    params = model.Params(0.01, 0.03, 0.02, 1.0, 0.1)
    reg = model.Regime.walker(1.0)
    v1 = tws.solve_tw(params, reg, coarse, OPTS).V
    v2 = tws.solve_tw(params, reg, coarse.refined(), OPTS).V
    assert abs(v1 - v2) <= coarse.h**2


def test_short_domain_names_needed_half_width(grid):
    # the transverse tails decay at sqrt(1 - H3^2): L = 20 is too short
    for H3, needed in ((0.9, "26.1"), (0.999, "203.5")):
        params = model.Params(0, 0, H3, 0, 0.1)
        with pytest.raises(ConfigError, match=f"sqrt\\(1 - H3\\^2\\).*Lx >= {needed}"):
            tws.solve_tw(params, model.Regime.transverse(H3), grid, OPTS)


def test_no_convergence_far_from_branch(coarse):
    # far beyond the breakdown field the iteration must fail, not silently
    # return nonsense
    params = model.Params(0.5, 0, 0, 1.0, 0.1)
    with pytest.raises(NoConvergence):
        tws.solve_tw(params, model.Regime.walker(1.0), coarse,
                     tws.NewtonOptions(tol_residual=1e-10, max_iter=25))


@pytest.mark.parametrize("bad", [
    dict(max_backtracks=0),
    dict(max_backtracks=-1),
    dict(max_iter=2.5),
    dict(max_iter=0),
    dict(max_iter=True),
    dict(tol_residual=float("nan")),
    dict(tol_residual=float("inf")),
    dict(tol_residual=0.0),
])
def test_newton_options_rejected_up_front(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        tws.NewtonOptions(**bad)


def test_newton_options_damping_floor():
    assert tws.NewtonOptions().damping_floor == 1.0 / 64
    assert tws.NewtonOptions(np.float64(1e-9), np.int64(5)).max_iter == 5


def test_past_fold_fails_fast(coarse, monkeypatch):
    # seeded from the branch at 0.9 alpha*K2/2, a solve at 1.05 alpha*K2/2
    # has no solution to find: the line search gives up at the damping floor
    # (94 residual evaluations measured; 512 with the former 30 backtracks)
    reg = model.Regime.walker(1.0)
    fold = 0.5 * 0.1 * 1.0
    seed = tws.solve_tw(model.Params(0.9 * fold, 0, 0, 1.0, 0.1), reg, coarse)
    calls = []
    evaluate = tws._evaluate

    def counting(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(tws, "_evaluate", counting)
    with pytest.raises(NoConvergence, match=r"damping floor lambda = 0\.0156.*past a fold"):
        tws.solve_tw(model.Params(1.05 * fold, 0, 0, 1.0, 0.1), reg, coarse, seed=seed)
    assert len(calls) <= 150


# --- continuation -------------------------------------------------------------

def test_continuation_zero_length(coarse):
    p = model.Params(0, 0, 0, 1.0, 0.1)
    sols, rep = tws.continue_branch(p, p, 5, model.Regime.walker(1.0), coarse, OPTS)
    assert len(sols) == 1 and rep.reached_end


def test_continuation_perturbative_segment(coarse):
    start = model.Params(0, 0, 0, 1.0, 0.1)
    end = model.Params(0.001, 0, 0, 1.0, 0.1)
    sols, rep = tws.continue_branch(start, end, 4, model.Regime.walker(1.0), coarse, OPTS)
    assert rep.reached_end
    vs = [s.V for s in sols]
    assert all(np.diff(vs) < 0)          # V monotone in H1


def test_continuation_terminates_at_breakdown(grid):
    start = model.Params(0, 0, 0, 1.0, 0.1)
    end = model.Params(0.2, 0, 0, 1.0, 0.1)
    sols, rep = tws.continue_branch(start, end, 20, model.Regime.walker(1.0), grid,
                                    tws.NewtonOptions(tol_residual=1e-11))
    assert not rep.reached_end
    assert 0.0 < rep.last_params.H1 < 1.0
    # the empirical endpoint agrees with the known critical field alpha K2 / 2
    assert rep.last_params.H1 == pytest.approx(0.05, abs=5e-4)


WALKER_FOLD = 0.5 * 0.1 * 1.0  # alpha K2 / 2 at alpha = 0.1, K2 = 1


@pytest.fixture(scope="module")
def walker_branches(coarse):
    """Both Walker branches to 1.5 alpha K2/2 in 10 steps, with the residual
    evaluations each one took."""
    start = model.Params(0, 0, 0, 1.0, 0.1)
    out = {}
    for sign in (1.0, -1.0):
        calls = []
        evaluate = tws._evaluate

        def counting(*args):
            calls.append(1)
            return evaluate(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tws, "_evaluate", counting)
            sols, rep = tws.continue_branch(
                start, model.Params(sign * 1.5 * WALKER_FOLD, 0, 0, 1.0, 0.1), 10,
                model.Regime.walker(1.0), coarse, tws.NewtonOptions(tol_residual=1e-11))
        out[sign] = (sols, rep, len(calls))
    return out


def test_secant_predictor_saves_residual_evaluations(walker_branches):
    # 1,157 residual evaluations per branch with the last solution as the seed
    for sols, rep, evals in walker_branches.values():
        assert evals <= 500


def test_continuation_accepted_fields(walker_branches):
    # the step rule accepts the same points whatever the seed: the branch
    # climbs by bisection to the fold and stops there
    expected = [0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 0.975, 0.9890625, 0.999609375,
                1.00010376]
    for sols, rep, _ in walker_branches.values():
        assert not rep.reached_end
        fields = [abs(s.params.H1) / WALKER_FOLD for s in sols]
        assert fields == pytest.approx(expected, abs=1e-8)


def test_continuation_matches_exact_walker_solution(walker_branches):
    # Schryer & Walker: V = -H1 Delta / alpha, Delta = (1 + K2 sin^2 phi)^(-1/2),
    # sin(2 phi) = 2 H1 / (alpha K2), at every point well below the fold
    for sols, _, _ in walker_branches.values():
        for s in sols:
            H1 = s.params.H1
            if abs(H1) > 0.9 * WALKER_FOLD:
                continue
            phi = 0.5 * np.arcsin(H1 / WALKER_FOLD)
            exact = -H1 / (0.1 * np.sqrt(1.0 + np.sin(phi) ** 2))
            assert abs(s.V - exact) <= 2e-5 * abs(exact)


def test_continuation_mirror_symmetry(walker_branches):
    # reversing the field reverses the wave: V(-H1) = -V(H1)
    plus, minus = walker_branches[1.0][0], walker_branches[-1.0][0]
    assert [s.params.H1 for s in minus] == [-s.params.H1 for s in plus]
    assert [m.V for m in minus] == pytest.approx([-p.V for p in plus], rel=1e-9, abs=1e-15)


def test_continuation_low_damping_climbs_to_fold():
    # at alpha = 0.02 converged solves on this path accept steps down to
    # lambda = 1/32, one halving above the damping floor
    alpha, K2 = 0.02, 1.0
    fold = 0.5 * alpha * K2
    start = model.Params(0, 0, 0, K2, alpha)
    end = model.Params(2.0 * fold, 0, 0, K2, alpha)
    run = lambda opts: tws.continue_branch(start, end, 20, model.Regime.walker(K2),
                                           model.Grid(20.0, 201), opts)
    sols, rep = run(tws.NewtonOptions(tol_residual=1e-11))
    assert not rep.reached_end
    fields = [s.params.H1 for s in sols]
    assert all(np.diff(fields) > 0)
    assert 0.99 * fold <= fields[-1] <= 1.01 * fold
    # the floor only shortens failing solves: the branch is unchanged
    old, _ = run(tws.NewtonOptions(tol_residual=1e-11, max_backtracks=30))
    assert [(s.params, s.V) for s in sols] == [(s.params, s.V) for s in old]


def test_continuation_names_moved_parameter():
    start = model.Params(0.01, 0, 0, 1.0, 0.1)
    end = model.Params(0.01, 0, 0, 0.05, 0.1)
    sols, rep = tws.continue_branch(start, end, 10, model.Regime.walker(1.0),
                                    model.Grid(20.0, 401))
    assert not rep.reached_end
    # breakdown where alpha*K2/2 falls to H1, K2 = 0.2
    assert rep.last_params.K2 == pytest.approx(0.2, abs=1e-3)
    assert rep.message.endswith(f"branch ends near K2={rep.last_params.K2:.6g}")
    assert "H1" not in rep.message


def test_continuation_alpha_mismatch(coarse):
    with pytest.raises(ConfigError):
        tws.continue_branch(model.Params(0, 0, 0, 1.0, 0.1),
                            model.Params(0.1, 0, 0, 1.0, 0.2),
                            4, model.Regime.walker(1.0), coarse)


# --- linearized operator ------------------------------------------------------

def test_linearized_operator_kernel_actions(grid):
    D = tws.linearized_operator(model.Regime.walker(1.0), grid, alpha=0.1)
    m = grid.n_nodes - 2
    bsp = -1 / np.cosh(grid.xi[1:-1])
    v = np.concatenate([np.zeros(m), bsp, [0.0]])
    out = D @ v
    assert np.abs(out[:m]).max() < 2 * grid.h**2          # kernel mode of the azimuth block
    assert np.abs(out[m:2 * m]).max() < 1e-12             # tilt block untouched
    assert out[2 * m] == pytest.approx(2.0, abs=1e-6)     # <beta', beta'> = 2

    out2 = D @ np.concatenate([np.zeros(m), np.zeros(m), [1.0]])
    assert np.abs(out2[:m] - 0.1 * bsp).max() < 1e-14
    assert np.abs(out2[m:2 * m] + bsp).max() < 1e-14
    assert out2[2 * m] == 0.0


def test_linearized_operator_transverse_kernel(grid):
    D = tws.linearized_operator(model.Regime.transverse(0.5), grid, alpha=0.1)
    m = grid.n_nodes - 2
    bsp = walls.base_profile(model.Regime.transverse(0.5), grid).dbeta[1:-1]
    out = D @ np.concatenate([np.zeros(m), bsp, [0.0]])
    assert np.abs(out[:m]).max() < 2 * grid.h**2


def test_linearized_operator_is_true_linearization():
    # agreement with the residual Jacobian at the origin is O(h^2), and the
    # gap shrinks by ~4x when h is halved
    gaps = []
    for g in (model.Grid(20.0, 401), model.Grid(20.0, 801)):
        reg = model.Regime.walker(1.0)
        params = model.Params(0, 0, 0, 1.0, 0.1)
        D = tws.linearized_operator(reg, g, alpha=0.1)
        ref = tws.reference_profile(params, reg, g)
        z = np.zeros(g.n_nodes)
        J = tws.jacobian_dense(z, z, 0.0, params, ref, g)
        m = g.n_nodes - 2
        idx = np.concatenate([2 * np.arange(m), 2 * np.arange(m) + 1, [2 * m]])
        Jb = J[np.ix_(idx, idx)]
        xi = g.xi[1:-1]
        v = np.concatenate([np.exp(-0.5 * (xi - 1) ** 2), xi * np.exp(-0.3 * xi**2), [0.7]])
        gaps.append(np.abs(D @ v - Jb @ v).max() / np.abs(Jb @ v).max())
    assert gaps[1] < gaps[0] < 50 * (20.0 / 200) ** 2
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.35)


def test_linearized_operator_bounded_below(grid):
    # discrete counterpart of invertibility: the smallest singular value in
    # the L2 scaling stays bounded away from zero as h -> 0
    for reg in (model.Regime.walker(1.0), model.Regime.transverse(0.5)):
        smins = []
        for g in (model.Grid(20.0, 401), model.Grid(20.0, 801)):
            D = tws.linearized_operator(reg, g, alpha=0.1)
            smins.append(tws.operator_min_singular_value(D, g))
        assert min(smins) > 0.04
        assert abs(smins[0] - smins[1]) < 0.2 * smins[0]
