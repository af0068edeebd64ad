"""Travelling-wave boundary-value solver and parameter continuation.

The wall is written as (a, b) = (psi_ref + u, beta_ref + w) where the
reference profile carries the boundary behaviour for the target parameters
and the corrections u, w vanish at the grid ends.  Substituting the
travelling ansatz into the magnetization dynamics gives the second-order
system (projections onto the tangent frame, plus a phase constraint):

    R_az = sin(a) b'' + 2 cos(a) a' b' + V a' + alpha V sin(a) b' - F1(a, b)
    R_ti = a'' - sin(2a)/2 b'^2 + alpha V a' - V sin(a) b' - F2(a, b)
    phase = <w, beta_base'>        (trapezoid quadrature)

The phase constraint removes the translation degeneracy by forbidding any
component of the azimuth correction along the base wall's translation mode;
its linearization is the inner-product row of the linearized operator.

Discretization: derivatives of the reference are evaluated analytically;
derivatives of the corrections use 4th-order central differences with zero
ghost values (the corrections decay exponentially).  This keeps the
residual of a static base wall at machine precision and makes the velocity
identity reproduce Newton's V far below the h^2 level.

Newton's method solves the 2(n-2)+1 unknowns (u, w, V) with an analytic
banded Jacobian; the dense row/column contributed by (V, phase) is handled
by bordered elimination around a banded LU factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_banded, svdvals

from .energetics import equilibria, potential, torque_partials, torques
from .errors import ConfigError, NoConvergence, NoEquilibrium, PolarSingularity, WrongSign
from .model import (
    Grid,
    Params,
    PolarProfile,
    Regime,
    TRANSVERSE,
    TWSolution,
    WALKER,
    angles_to_cartesian,
    validate,
)
from .spectral import (
    bloch_azimuth_operator,
    transverse_azimuth_operator,
    transverse_tilt_operator,
)
from .walls import BaseProfile, base_profile, bloch_beta_prime

_BW = 5  # Jacobian bandwidth (lower = upper) for the interleaved unknowns


# ascending-power coefficients of polynomial smoothsteps on t in [0, 1]
SMOOTHSTEP_C2 = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)
SMOOTHSTEP_C4 = (0.0, 0.0, 0.0, 0.0, 0.0, 126.0, -420.0, 540.0, -315.0, 70.0)


@dataclass(frozen=True)
class SwitchingFunction:
    """Smoothstep switching function: 0 for xi <= xi_lo, 1 for xi >= xi0.

    The polynomial coefficients (ascending powers of the rescaled variable)
    default to the C^4 9th-degree smoothstep.  The corrections solved for
    are exactly as smooth as this switch, so its smoothness bounds the
    attainable stencil order; placing the switch band [xi_lo, xi0] in the
    far field keeps the residual high-order where the wall lives.
    """

    xi0: float = 1.0
    xi_lo: float = 0.0
    coefficients: tuple[float, ...] = SMOOTHSTEP_C4

    def __post_init__(self):
        if not self.xi0 > self.xi_lo >= 0.0:
            raise ConfigError(
                f"switching-function invariant xi0 > xi_lo >= 0 violated: "
                f"({self.xi_lo}, {self.xi0})"
            )
        c = np.asarray(self.coefficients, dtype=float)
        d1 = np.polynomial.polynomial.polyder(c)
        d2 = np.polynomial.polynomial.polyder(d1)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_c1", d1)
        object.__setattr__(self, "_c2", d2)

    @property
    def width(self) -> float:
        return self.xi0 - self.xi_lo

    def _t(self, xi):
        return np.clip((np.asarray(xi, dtype=float) - self.xi_lo) / self.width, 0.0, 1.0)

    def value(self, xi) -> np.ndarray:
        return np.polynomial.polynomial.polyval(self._t(xi), self._c)

    def d1(self, xi) -> np.ndarray:
        return np.polynomial.polynomial.polyval(self._t(xi), self._c1) / self.width

    def d2(self, xi) -> np.ndarray:
        return np.polynomial.polynomial.polyval(self._t(xi), self._c2) / self.width**2


def default_switching(grid: Grid) -> SwitchingFunction:
    """Far-field switching band [0.4 L, 0.7 L] with the C^4 smoothstep."""
    return SwitchingFunction(xi0=0.7 * grid.half_width, xi_lo=0.4 * grid.half_width)


@dataclass(frozen=True)
class ReferenceProfile(BaseProfile):
    """Reference angles for target parameters, with analytic derivatives.

    Built from a static base wall by switching its boundary values over to
    the equilibria of the target parameters:

        psi_ref(xi) = psi_base(xi) + Th(xi) dpsi_plus + Th(-xi) dpsi_minus

    (same for beta), so the reference equals the base wall at the base
    parameters and attains the target boundary states at the ends.
    beta_star_prime is the base wall's azimuth derivative: the translation
    mode paired with the phase constraint.
    """

    beta_star_prime: np.ndarray


def _positive_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x > 0


@dataclass(frozen=True)
class NewtonOptions:
    """Newton iteration controls for the travelling-wave solve.

    Each iteration tries the damped steps lambda = 1, f, f^2, ..., down to
    the damping floor f^(max_backtracks - 1), where f = backtrack_factor
    (Deuflhard's minimum damping factor).  The defaults put the floor at
    1/64: every converged solve observed in the verification suite, the
    tests, the demos and Walker-branch sweeps down to alpha = 0.02 accepted
    lambda >= 1/32, so only solves that would fail anyway stop sooner.
    """

    tol_residual: float = 1e-10
    max_iter: int = 50
    backtrack_factor: float = 0.5
    max_backtracks: int = 7

    def __post_init__(self):
        for name in ("max_iter", "max_backtracks"):
            if not _positive_int(getattr(self, name)):
                raise ConfigError(
                    f"Newton option {name} must be a positive integer, "
                    f"got {getattr(self, name)!r}"
                )
        if not (np.isfinite(self.tol_residual) and self.tol_residual > 0):
            raise ConfigError(
                f"Newton option tol_residual must be finite and > 0, got {self.tol_residual!r}"
            )
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ConfigError("backtrack factor must lie in (0, 1)")

    @property
    def damping_floor(self) -> float:
        """The smallest step length the line search tries."""
        return self.backtrack_factor ** (self.max_backtracks - 1)


class Residual(NamedTuple):
    """Travelling-wave residual: azimuth/tilt arrays on the interior nodes
    plus the scalar phase constraint."""

    azimuth: np.ndarray
    tilt: np.ndarray
    phase: float


def residual_norm(res: Residual, grid: Grid) -> float:
    """Discrete L2 norm of the residual triple."""
    return float(np.sqrt(grid.h * (res.azimuth @ res.azimuth + res.tilt @ res.tilt)
                         + res.phase**2))


def _snap(x: float, tol: float = 1e-11) -> float:
    # equilibrium-search noise below its own tolerance must not perturb the
    # reference away from the exact static wall at the base parameters
    return 0.0 if abs(x) < tol else x


def reference_profile(
    params: Params,
    regime: Regime,
    grid: Grid,
    theta: SwitchingFunction | None = None,
) -> ReferenceProfile:
    """Build the reference profile for `params` continued from the regime's
    static base wall.  Propagates NoEquilibrium when the target parameters
    have no tail-to-tail boundary states."""
    theta = theta or default_switching(grid)
    base = base_profile(regime, grid)
    eq = equilibria(params)
    dps_p = _snap(eq.plus[0] - base.bc_plus[0])
    dbt_p = _snap(eq.plus[1] - base.bc_plus[1])
    dps_m = _snap(eq.minus[0] - base.bc_minus[0])
    dbt_m = _snap(eq.minus[1] - base.bc_minus[1])

    xi = grid.xi
    thp, thm = theta.value(xi), theta.value(-xi)
    d1p, d1m = theta.d1(xi), theta.d1(-xi)
    d2p, d2m = theta.d2(xi), theta.d2(-xi)

    return ReferenceProfile(
        grid=grid,
        psi=base.psi + thp * dps_p + thm * dps_m,
        beta=base.beta + thp * dbt_p + thm * dbt_m,
        dpsi=base.dpsi + d1p * dps_p - d1m * dps_m,
        dbeta=base.dbeta + d1p * dbt_p - d1m * dbt_m,
        d2psi=base.d2psi + d2p * dps_p + d2m * dps_m,
        d2beta=base.d2beta + d2p * dbt_p + d2m * dbt_m,
        bc_minus=(base.bc_minus[0] + dps_m, base.bc_minus[1] + dbt_m),
        bc_plus=(base.bc_plus[0] + dps_p, base.bc_plus[1] + dbt_p),
        beta_star_prime=base.dbeta,
    )


def _stencil_derivatives(E: np.ndarray, h: float):
    """4th-order first/second derivatives along the last axis by the centred
    5-point stencils, at the points E[..., 2:-2]; the caller pads E with its
    own ghost values."""
    a0, a1, a2, a3, a4 = E[..., :-4], E[..., 1:-3], E[..., 2:-2], E[..., 3:-1], E[..., 4:]
    d1 = (a0 - 8.0 * a1 + 8.0 * a3 - a4) / (12.0 * h)
    d2 = (-a0 + 16.0 * a1 - 30.0 * a2 + 16.0 * a3 - a4) / (12.0 * h * h)
    return d1, d2


class _State(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    da: np.ndarray
    db: np.ndarray
    d2b: np.ndarray
    s: np.ndarray
    c: np.ndarray
    res: Residual


def _check_corrections(u: np.ndarray, w: np.ndarray, n: int):
    if u.shape != (n,) or w.shape != (n,):
        raise ConfigError(f"corrections must be full-grid arrays of length {n}")
    ends = max(abs(u[0]), abs(u[-1]), abs(w[0]), abs(w[-1]))
    if ends > 1e-14:
        raise ConfigError(
            f"correction invariant violated: endpoint values must vanish, got {ends:.3e}"
        )


def _evaluate(u, w, V, params, ref, grid) -> _State:
    h = grid.h
    # the corrections vanish at the grid ends and decay beyond them: one zero
    # ghost past each end puts every interior node at E[:, 2:-2]
    E = np.zeros((2, u.size + 2))
    E[0, 1:-1] = u
    E[1, 1:-1] = w
    (du1, dw1), (du2, dw2) = _stencil_derivatives(E, h)
    a = ref.psi[1:-1] + u[1:-1]
    b = ref.beta[1:-1] + w[1:-1]
    if a.min() <= 0.0 or a.max() >= np.pi:
        raise PolarSingularity(
            "polar invariant 0 < psi < pi violated during residual evaluation"
        )
    da = ref.dpsi[1:-1] + du1
    db = ref.dbeta[1:-1] + dw1
    d2a = ref.d2psi[1:-1] + du2
    d2b = ref.d2beta[1:-1] + dw2
    s, c = np.sin(a), np.cos(a)
    F1, F2 = torques(a, b, params)
    al = params.alpha
    G1 = s * d2b + 2.0 * c * da * db + V * da + al * V * s * db - F1
    G2 = d2a - 0.5 * np.sin(2.0 * a) * db * db + al * V * da - V * s * db - F2
    g = float(np.trapezoid(w * ref.beta_star_prime, dx=h))
    return _State(a, b, da, db, d2b, s, c, Residual(G1, G2, g))


def residual(u, w, V, params: Params, ref: ReferenceProfile, grid: Grid) -> Residual:
    """Evaluate the travelling-wave residual at corrections (u, w) and speed V.

    u, w are full-grid arrays vanishing at both ends; the azimuth/tilt
    residuals are returned on the interior nodes.  Raises PolarSingularity
    if the tilt angle a = psi_ref + u leaves (0, pi).
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    _check_corrections(u, w, grid.n_nodes)
    return _evaluate(u, w, float(V), params, ref, grid).res


# the 5-point stencils of _stencil_derivatives as weights over offsets -2..2
_C1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_C2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _assemble_jacobian(st: _State, V, params, ref, grid):
    """Banded Jacobian (LAPACK band storage), V-column, and phase row."""
    h = grid.h
    al = params.alpha
    m = grid.n_nodes - 2
    N = 2 * m
    a, b, da, db, d2b, s, c = st.a, st.b, st.da, st.db, st.d2b, st.s, st.c
    dF1_da, dF1_db, dF2_da, dF2_db = torque_partials(a, b, params)

    # diagonal (offset-0) couplings
    j1u = c * d2b - 2.0 * s * da * db + al * V * c * db - dF1_da
    j1w = -dF1_db
    j2u = -np.cos(2.0 * a) * db * db - V * c * db - dF2_da
    j2w = -dF2_db
    # stencil-carried couplings
    g1u_1 = 2.0 * c * db + V          # times C1 / h
    g1w_1 = 2.0 * c * da + al * V * s
    g1w_2 = s                         # times C2 / h^2
    g2u_1 = np.full(m, al * V)
    g2u_2 = np.ones(m)
    g2w_1 = -np.sin(2.0 * a) * db - V * s

    ab = np.zeros((2 * _BW + 1, N))

    def add(row_par, col_par, o, vals):
        # row = 2k + row_par, col = 2(k+o) + col_par
        d = 2 * o + col_par - row_par
        lo, hi = max(0, -o), min(m, m - o)
        if lo >= hi:
            return
        start = 2 * (lo + o) + col_par
        ab[_BW - d, start:start + 2 * (hi - lo):2] += vals[lo:hi]

    for idx, o in enumerate(range(-2, 3)):
        c1 = _C1[idx] / h
        c2 = _C2[idx] / (h * h)
        if o == 0:
            add(0, 0, 0, j1u)
            add(0, 1, 0, j1w + c2 * g1w_2)
            add(1, 0, 0, j2u + c2 * g2u_2)
            add(1, 1, 0, j2w)
        else:
            add(0, 0, o, c1 * g1u_1)
            add(0, 1, o, c1 * g1w_1 + c2 * g1w_2)
            add(1, 0, o, c1 * g2u_1 + c2 * g2u_2)
            add(1, 1, o, c1 * g2w_1)

    ccol = np.empty(N)
    ccol[0::2] = da + al * s * db
    ccol[1::2] = al * da - s * db
    drow = np.zeros(N)
    drow[1::2] = h * ref.beta_star_prime[1:-1]
    return ab, ccol, drow


def _interleave(res: Residual) -> np.ndarray:
    out = np.empty(2 * res.azimuth.size)
    out[0::2] = res.azimuth
    out[1::2] = res.tilt
    return out


def jacobian_dense(u, w, V, params, ref, grid) -> np.ndarray:
    """Dense analytic Jacobian of (residuals, phase) in interleaved ordering;
    for cross-checks and the linearization tests (O(n^2) memory)."""
    st = _evaluate(np.asarray(u, float), np.asarray(w, float), float(V), params, ref, grid)
    ab, ccol, drow = _assemble_jacobian(st, float(V), params, ref, grid)
    N = ccol.size
    J = np.zeros((N + 1, N + 1))
    for d in range(-_BW, _BW + 1):
        band = ab[_BW - d]
        if d >= 0:
            J[np.arange(N - d), np.arange(d, N)] = band[d:]
        else:
            J[np.arange(-d, N), np.arange(N + d)] = band[:N + d]
    J[:N, N] = ccol
    J[N, :N] = drow
    return J


def solve_tw(
    params: Params,
    regime: Regime,
    grid: Grid,
    opts: NewtonOptions | None = None,
    seed: TWSolution | None = None,
) -> TWSolution:
    """Solve the travelling-wave system for (u, w, V) by damped Newton.

    Parameters
    ----------
    params : target physical parameters (alpha included).
    regime : base point whose static wall anchors the continuation.
    grid   : discretization mesh.
    opts   : Newton controls; defaults are tight enough for the verification
             suite.
    seed   : optional previous solution (same grid) used as initial guess;
             default starts from the reference profile with V = 0.

    Returns a TWSolution whose profile is psi_ref + u, beta_ref + w.

    Each Newton step is damped by an Armijo line search that halves lambda
    (by `opts.backtrack_factor`) down to the damping floor
    `opts.damping_floor` (1/64 by default).  When no lambda down to the
    floor lowers the residual, the solve raises NoConvergence at once
    instead of creeping on with ever shorter steps: either the seed lies
    outside Newton's basin, or no travelling wave exists near it (past the
    Walker fold, for instance), which `continue_branch` treats as a cue to
    bisect its step.

    Raises NoConvergence when the iteration exceeds max_iter or the line
    search reaches the damping floor, PolarSingularity if the tilt angle
    hits the hard axis.
    """
    opts = opts or NewtonOptions()
    validate(params)
    ref = reference_profile(params, regime, grid)
    n = grid.n_nodes

    u = np.zeros(n)
    w = np.zeros(n)
    V = 0.0
    if seed is not None:
        if seed.profile.n_nodes != n:
            raise ConfigError("seed profile and grid have different node counts")
        u[1:-1] = seed.profile.psi[1:-1] - ref.psi[1:-1]
        w[1:-1] = seed.profile.beta[1:-1] - ref.beta[1:-1]
        V = float(seed.V)

    st = _evaluate(u, w, V, params, ref, grid)
    rn = residual_norm(st.res, grid)
    for it in range(1, opts.max_iter + 1):
        if rn < opts.tol_residual:
            profile = PolarProfile(ref.psi + u, ref.beta + w, ref.bc_minus, ref.bc_plus)
            return TWSolution(profile, float(V), params, rn, grid, iterations=it - 1)

        ab, ccol, drow = _assemble_jacobian(st, V, params, ref, grid)
        rhs = np.column_stack([-_interleave(st.res), ccol])
        try:
            sol = solve_banded((_BW, _BW), ab, rhs)
        except np.linalg.LinAlgError:
            raise NoConvergence("banded Jacobian factorization failed (singular)")
        y1, y2 = sol[:, 0], sol[:, 1]
        denom = drow @ y2
        if not np.isfinite(denom) or abs(denom) < 1e-300:
            raise NoConvergence("bordered elimination degenerate: phase/velocity block singular")
        dV = (drow @ y1 + st.res.phase) / denom
        dz = y1 - dV * y2
        if not (np.all(np.isfinite(dz)) and np.isfinite(dV)):
            raise NoConvergence("non-finite Newton step")

        lam = 1.0
        for _ in range(opts.max_backtracks):
            ut = u.copy()
            wt = w.copy()
            ut[1:-1] += lam * dz[0::2]
            wt[1:-1] += lam * dz[1::2]
            Vt = V + lam * dV
            try:
                st_t = _evaluate(ut, wt, Vt, params, ref, grid)
            except PolarSingularity:
                lam *= opts.backtrack_factor
                continue
            rn_t = residual_norm(st_t.res, grid)
            if rn_t < (1.0 - 1e-4 * lam) * rn or rn_t < opts.tol_residual:
                u, w, V, st, rn = ut, wt, Vt, st_t, rn_t
                break
            lam *= opts.backtrack_factor
        else:
            raise NoConvergence(
                f"line search stagnated: no step down to the damping floor "
                f"lambda = {opts.damping_floor:.3g} lowers the residual {rn:.3e} "
                f"(iteration {it}): "
                f"either the seed lies outside Newton's basin or no travelling wave "
                f"exists near it (for example, past a fold)"
            )

    raise NoConvergence(
        f"Newton did not reach tolerance {opts.tol_residual:.1e} in "
        f"{opts.max_iter} iterations (residual {rn:.3e})"
    )


def velocity_identity(sol: TWSolution) -> float:
    """Wave speed from the energy-flux identity

        V = (U(m_plus) - U(m_minus)) / (alpha * int |m'|^2),

    evaluated on the solution's profile (4th-order derivatives, trapezoid
    quadrature).  For a converged solution this reproduces Newton's V; with
    a symmetric potential (H1 = 0) it vanishes.
    """
    p = sol.profile
    grid = sol.grid
    u_plus = potential(angles_to_cartesian(*p.bc_plus), sol.params)
    u_minus = potential(angles_to_cartesian(*p.bc_minus), sol.params)
    E = np.pad(np.stack([p.psi, p.beta]), ((0, 0), (2, 2)), mode="edge")
    (dpsi, dbeta), _ = _stencil_derivatives(E, grid.h)
    integrand = dpsi * dpsi + np.sin(p.psi) ** 2 * dbeta * dbeta
    denom = sol.params.alpha * float(np.trapezoid(integrand, dx=grid.h))
    return float((u_plus - u_minus) / denom)


@dataclass(frozen=True)
class ContinuationReport:
    """Outcome of a continuation run; termination is an outcome, not an error."""

    reached_end: bool
    last_params: Params
    n_solutions: int
    message: str


STEP_FLOOR = 1e-6  # parameter-norm floor below which failure is structural
_LAM_NAMES = ("H1", "H2", "H3", "K2")  # the components of Params.lam()


def moving_values(start: Params, end: Params, params: Params) -> str:
    """`name=value` of `params` for each parameter that moves along the
    path start -> end, comma separated (empty when nothing moves)."""
    lam, lam0, lam1 = params.lam(), start.lam(), end.lam()
    return ", ".join(f"{name}={lam[k]:.6g}" for k, name in enumerate(_LAM_NAMES)
                     if lam0[k] != lam1[k])


def continue_branch(
    start: Params,
    end: Params,
    n_steps: int,
    regime: Regime,
    grid: Grid,
    opts: NewtonOptions | None = None,
) -> tuple[list[TWSolution], ContinuationReport]:
    """Natural-parameter continuation along the segment start -> end.

    Each solve is seeded by a secant predictor: with the last two accepted
    solutions x_k at t_k and x_{k-1} at t_{k-1}, the seed for t_k + step is
    x_k + r (x_k - x_{k-1}), r = step / (t_k - t_{k-1}), for psi, beta, V
    and the boundary values alike.  The first step, and any step whose
    extrapolated psi leaves (0, pi), is seeded by the last solution itself.
    On failure the step is bisected down to a parameter-norm floor of
    STEP_FLOOR; if the floor is hit, the run stops and reports the last
    good parameters as the empirical branch endpoint (e.g. the breakdown
    field); the report's message names the parameters that move along the
    path.
    """
    if start.alpha != end.alpha:
        raise ConfigError("continuation requires equal damping at both endpoints")
    if n_steps < 1:
        raise ConfigError("continuation requires n_steps >= 1")
    lam0 = np.array(start.lam())
    lam1 = np.array(end.lam())
    span = float(np.linalg.norm(lam1 - lam0))

    def at(t: float) -> Params:
        lam = lam0 + t * (lam1 - lam0)
        return Params(lam[0], lam[1], lam[2], lam[3], start.alpha)

    sols = [solve_tw(start, regime, grid, opts)]
    if span == 0.0:
        return sols, ContinuationReport(True, start, 1, "zero-length path")

    def predict(step: float) -> TWSolution:
        last = sols[-1]
        if len(sols) < 2:
            return last
        r = step / (t - t_prev)
        p1, p0 = last.profile, sols[-2].profile

        def ext(x1, x0):
            return np.asarray(x1) + r * (np.asarray(x1) - np.asarray(x0))

        psi = ext(p1.psi, p0.psi)
        if not (np.all(psi > 0.0) and np.all(psi < np.pi)):
            return last
        profile = PolarProfile(psi, ext(p1.beta, p0.beta),
                               tuple(ext(p1.bc_minus, p0.bc_minus)),
                               tuple(ext(p1.bc_plus, p0.bc_plus)))
        return TWSolution(profile, float(ext(last.V, sols[-2].V)), at(t + step),
                          np.inf, grid)

    base_dt = 1.0 / n_steps
    dt = base_dt
    t_prev, t = 0.0, 0.0
    while t < 1.0 - 1e-12:
        step = min(dt, 1.0 - t)
        try:
            sol = solve_tw(at(t + step), regime, grid, opts, seed=predict(step))
        except (NoConvergence, PolarSingularity, NoEquilibrium, WrongSign) as err:
            dt = 0.5 * step
            if dt * span < STEP_FLOOR:
                near = moving_values(start, end, sols[-1].params)
                return sols, ContinuationReport(
                    False, sols[-1].params, len(sols),
                    f"step floor reached after {type(err).__name__}: branch ends near {near}",
                )
            continue
        sols.append(sol)
        t_prev, t = t, t + step
        dt = min(dt * 1.5, base_dt)
    return sols, ContinuationReport(True, sols[-1].params, len(sols), "reached end of path")


def linearized_operator(regime: Regime, grid: Grid, alpha: float = 0.1) -> np.ndarray:
    """Dense matrix of the travelling-wave linearization at the base point.

    Acting on stacked interior samples (f1, f2, mu) it computes

        ( -A_az f2 + alpha mu beta',  -A_ti f1 - mu beta',  <beta', f2> ),

    where A_az/A_ti are the azimuth/tilt Schrodinger blocks about the base
    wall (Bloch: A_az = 1 - 2 sech^2 well, A_ti = A_az + K2; transverse:
    the corresponding operators with kernel mode beta' = H3 - sin beta) and
    the last row is trapezoid quadrature against the translation mode.
    Matches the Jacobian of `residual` at (0, 0, 0) to O(h^2).
    """
    if regime.kind == WALKER:
        A_az = bloch_azimuth_operator(grid)
        A_ti = A_az.shifted(regime.K2)
        bsp = bloch_beta_prime(grid.xi[1:-1])
    else:
        assert regime.kind == TRANSVERSE and regime.H2 == 0.0, \
            "linearized_operator expects a transverse base with H2 = 0"
        A_az = transverse_azimuth_operator(regime.H3, grid)
        A_ti = transverse_tilt_operator(regime.H3, grid)
        base = base_profile(regime, grid)
        bsp = base.dbeta[1:-1]

    def dense(op):
        M = np.diag(op.diag)
        M += np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
        return M

    m = grid.n_nodes - 2
    D = np.zeros((2 * m + 1, 2 * m + 1))
    D[0:m, m:2 * m] = -dense(A_az)
    D[0:m, 2 * m] = alpha * bsp
    D[m:2 * m, 0:m] = -dense(A_ti)
    D[m:2 * m, 2 * m] = -bsp
    D[2 * m, m:2 * m] = grid.h * bsp
    return D


def operator_min_singular_value(D: np.ndarray, grid: Grid) -> float:
    """Smallest singular value of the linearization in the discrete-L2
    scaling (function blocks carry sqrt(h), the scalar slot carries 1), so
    the value is comparable across grid resolutions."""
    N = D.shape[0] - 1
    sq = np.sqrt(grid.h)
    scale = np.concatenate([np.full(N, sq), [1.0]])
    Ds = D * (scale[:, None] / scale[None, :])
    return float(svdvals(Ds)[-1])
