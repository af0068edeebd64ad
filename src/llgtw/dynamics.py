"""Time integration of the full 1D magnetization dynamics.

The damped precession equation  m_t + alpha m x m_t = m x H(m)  is solved
in the explicit form

    m_t = f(m) = ( m x H - alpha m x (m x H) ) / (1 + alpha^2).

`llg_rhs` is the one right-hand side; its field H is
energetics.effective_field_cartesian.  Far-field nodes are clamped to the
boundary equilibria, matching the travelling-wave boundary conditions on a
truncated domain.  Two one-step methods advance it, each followed by
pointwise renormalization:

* "midpoint" (the default): the implicit midpoint rule
  x = m + dt f((m + x)/2) (d'Aquino, Serpico & Miano, J. Comput. Phys. 209,
  2005), 2nd order.  Since f(m).m = 0 it keeps |m| = 1 exactly, and at zero
  applied field the discrete energy falls by dt alpha |m x H|^2 / (1 + alpha^2)
  (in the h-weighted node sum) at the midpoint, for any dt.  Each step is a
  Newton solve on the interleaved 3(n - 2) interior unknowns, whose
  Jacobian is banded with bandwidth (5, 5).  The default step is
  MIDPOINT_DT, independent of the grid.
* "rk4": the classical 4th-order explicit method.  The exchange term makes
  the system stiff for it: the step must satisfy dt <= 0.25 h^2 (the
  default is 0.2 h^2).

At zero applied field the discrete energy is an exact Lyapunov function of
the semi-discrete flow (see energetics.energy_cartesian), which the
integrator monitors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .energetics import effective_field_cartesian, energy_cartesian, equilibria, potential
from .errors import (
    ConfigError,
    Instability,
    MultipleWalls,
    NoConvergence,
    NonUnitVector,
    NoWall,
    WallNearBoundary,
)
from .model import CartesianProfile, Grid, Params

WALL_MARGIN = 5.0          # minimum wall distance from the domain edge
UNIT_DRIFT_LIMIT = 1e-3    # pre-renormalization |m| drift that aborts a run
ENERGY_RISE_LIMIT = 1e-6   # per-step energy increase that aborts at Ha = 0
MIDPOINT_DT = 0.05         # default implicit-midpoint step
NEWTON_TOL = 1e-12         # max-norm residual that ends a midpoint step
NEWTON_MAX_ITER = 25       # reused factors converge linearly, so allow a margin


@dataclass(frozen=True)
class Trajectory:
    """Sampled history of a dynamics run.

    profiles[k] is the (n, 3) magnetization at time t[k]; x_w is the tracked
    wall position (zero crossing of m1), energy the renormalized discrete
    energy, and max_unit_violation the largest pre-renormalization deviation
    of |m| from 1 seen since the previous sample.  method, dt and n_steps
    record how the run was integrated (None on hand-built trajectories).
    """

    t: np.ndarray
    profiles: np.ndarray
    x_w: np.ndarray
    energy: np.ndarray
    max_unit_violation: np.ndarray
    grid: Grid
    params: Params
    method: str | None = None
    dt: float | None = None
    n_steps: int | None = None

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ConfigError("trajectory invariant violated: t must be strictly increasing")


def llg_rhs(m: np.ndarray, params: Params, grid: Grid,
            m_minus=None, m_plus=None) -> np.ndarray:
    """Time derivative of the magnetization at every node.

    Ghost nodes beyond the ends hold the boundary equilibria (computed from
    `params` unless passed in); the boundary nodes themselves are clamped,
    so their rate is zero.
    """
    if m_minus is None or m_plus is None:
        eq = equilibria(params)
        m_minus, m_plus = eq.m_minus(), eq.m_plus()
    H = effective_field_cartesian(m, params, grid, m_minus, m_plus)
    out = _precession(m, H, params.alpha)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _cross(a, b):
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _skew(v):
    """The (k, 3, 3) matrices [v]x with [v]x w = v x w."""
    out = np.zeros(v.shape + (3,))
    out[:, 0, 1], out[:, 0, 2] = -v[:, 2], v[:, 1]
    out[:, 1, 0], out[:, 1, 2] = v[:, 2], -v[:, 0]
    out[:, 2, 0], out[:, 2, 1] = -v[:, 1], v[:, 0]
    return out


def _precession(m, H, alpha):
    mxH = _cross(m, H)
    return (mxH - alpha * _cross(m, mxH)) / (1.0 + alpha * alpha)


def _rk4_step(m, dt, params, grid, m_minus, m_plus, t):
    k1 = llg_rhs(m, params, grid, m_minus, m_plus)
    k2 = llg_rhs(m + (0.5 * dt) * k1, params, grid, m_minus, m_plus)
    k3 = llg_rhs(m + (0.5 * dt) * k2, params, grid, m_minus, m_plus)
    k4 = llg_rhs(m + dt * k3, params, grid, m_minus, m_plus)
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_residual(x, m, dt, params, grid, m_minus, m_plus):
    """Interior rows of x - m - dt f((m + x)/2), with the midpoint and its field."""
    mid = 0.5 * (m + x)
    H = effective_field_cartesian(mid, params, grid, m_minus, m_plus)
    r = x - m - dt * _precession(mid, H, params.alpha)
    return r[1:-1], mid[1:-1], H[1:-1]


def _midpoint_jacobian(mid, H, dt, params, grid):
    """Jacobian of the midpoint residual at interior midpoints, in LAPACK
    general-band storage for bandwidth (5, 5): entry (i, j) at ab[10 + i - j, j],
    with rows 0-4 left free for the fill-in of the factorization.

    With A = I - alpha [m]x and J = diag(1 - 2/h^2, -K2 - 2/h^2, -2/h^2),
    node i's diagonal block is
        I - dt/2 (A (-[H]x + [m]x J) + alpha [m x H]x) / (1 + alpha^2)
    and its blocks against nodes i -+ 1 are -dt/2 A [m]x / (h^2 (1 + alpha^2)).
    """
    alpha, h2 = params.alpha, grid.h * grid.h
    c = 0.5 * dt / (1.0 + alpha * alpha)
    S = _skew(mid)
    A = np.eye(3) - alpha * S
    J = np.array([1.0 - 2.0 / h2, -params.K2 - 2.0 / h2, -2.0 / h2])
    D = np.eye(3) - c * (A @ (S * J - _skew(H)) + alpha * _skew(_cross(mid, H)))
    O = (-c / h2) * (A @ S)
    k = mid.shape[0]
    ab = np.zeros((16, k, 3))
    # column 3j + s of block row i holds rows 10 + 3(i - j) + r - s, r = 0, 1, 2
    for s in range(3):
        ab[10 - s:13 - s, :, s] = D[:, :, s].T
        ab[7 - s:10 - s, 1:, s] = O[:-1, :, s].T
        ab[13 - s:16 - s, :-1, s] = O[1:, :, s].T
    return ab.reshape(16, 3 * k)


def _midpoint_stepper():
    """A step function for the implicit midpoint rule: each call solves
    x = m + dt f((m + x)/2) by Newton from x = m.

    The Jacobian's band LU factors are kept from step to step and reused
    while each iteration cuts the residual at least tenfold; otherwise the
    Jacobian is rebuilt and refactored at the current midpoint.
    """
    lu = piv = None

    def step(m, dt, params, grid, m_minus, m_plus, t):
        nonlocal lu, piv
        x = m.copy()
        prev_res = np.inf
        for it in range(NEWTON_MAX_ITER + 1):
            r, mid, H = _midpoint_residual(x, m, dt, params, grid, m_minus, m_plus)
            res = float(np.abs(r).max())
            if res <= NEWTON_TOL:
                return x
            if it == NEWTON_MAX_ITER or not np.isfinite(res):
                break
            if lu is None or res > 0.1 * prev_res:
                lu, piv, info = dgbtrf(_midpoint_jacobian(mid, H, dt, params, grid), 5, 5,
                                       overwrite_ab=True)
                if info != 0:
                    lu = None
                    break
            x[1:-1] -= dgbtrs(lu, 5, 5, r.ravel(), piv)[0].reshape(-1, 3)
            prev_res = res
        raise NoConvergence(
            f"implicit midpoint step to t = {t:.4g} did not converge: residual {res:.3e} "
            f"(> {NEWTON_TOL:.0e}) after {it} Newton iterations at dt = {dt:.3g}"
        )

    return step


def _zero_crossing(m1, xi):
    sign = np.signbit(m1)
    flips = np.nonzero(sign[1:] != sign[:-1])[0]
    if flips.size == 0:
        raise NoWall("wall tracking needs exactly one sign change in m1; found none")
    if flips.size > 1:
        raise MultipleWalls(
            f"wall tracking needs exactly one sign change in m1; found {flips.size}"
        )
    i = flips[0]
    f0, f1 = m1[i], m1[i + 1]
    return float(xi[i] - f0 * (xi[i + 1] - xi[i]) / (f1 - f0))


def integrate(
    m0,
    params: Params,
    grid: Grid,
    T: float,
    dt: float | None = None,
    sample_every: int | None = None,
    method: str = "midpoint",
) -> Trajectory:
    """Integrate the magnetization dynamics from m0 over [0, T].

    Parameters
    ----------
    m0 : CartesianProfile or (n, 3) array of unit vectors.
    dt : time step; defaults to MIDPOINT_DT for "midpoint" and to 0.2 h^2
        for "rk4", which also requires dt <= 0.25 h^2.
    sample_every : steps between recorded samples (default: ~200 samples).
    method : "midpoint" (implicit midpoint rule) or "rk4".

    Raises ConfigError if T or dt is not finite and > 0; Instability if |m|
    drifts beyond 1e-3 before renormalization or, at zero applied field, if
    the energy increases by more than 1e-6 over a step; WallNearBoundary if
    the wall comes within 5 exchange lengths of the domain edge;
    NoConvergence if a midpoint step's Newton solve fails.
    """
    for name, value in (("T", T), ("dt", dt)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ConfigError(
                f"integration {name} must be finite and > 0, got {name} = {value!r}")
    h = grid.h
    if method == "midpoint":
        step = _midpoint_stepper()
        dt = MIDPOINT_DT if dt is None else dt
    elif method == "rk4":
        step = _rk4_step
        dt = 0.2 * h * h if dt is None else dt
        if dt > 0.25 * h * h:
            raise ConfigError(
                f"rk4 stability precondition dt <= 0.25 h^2 violated: dt = {dt:.3e}, "
                f"0.25 h^2 = {0.25 * h * h:.3e}"
            )
    else:
        raise ConfigError(f"unknown integration method {method!r}; use 'midpoint' or 'rk4'")
    m = m0.m.copy() if isinstance(m0, CartesianProfile) else np.array(m0, dtype=float)
    if m.shape != (grid.n_nodes, 3):
        raise ConfigError(f"initial profile must have shape ({grid.n_nodes}, 3)")
    dev = np.abs(np.linalg.norm(m, axis=1) - 1.0).max()
    if dev > 1e-9:
        raise NonUnitVector(f"initial profile must be unit length; deviation {dev:.2e}")

    n_steps = max(1, int(round(T / dt)))
    if sample_every is None:
        sample_every = max(1, n_steps // 200)
    n_samples = 1 + n_steps // sample_every + (n_steps % sample_every != 0)

    eq = equilibria(params)
    m_minus, m_plus = eq.m_minus(), eq.m_plus()
    m[0] = m_minus
    m[-1] = m_plus
    u_ref = potential(m_plus, params)
    field_free = params.H1 == 0.0 and params.H2 == 0.0 and params.H3 == 0.0

    def energy(mm):
        return energy_cartesian(mm, params, grid, u_ref)

    ts = np.empty(n_samples)
    profiles = np.empty((n_samples,) + m.shape)
    x_ws = np.empty(n_samples)
    energies = np.empty(n_samples)
    violations = np.empty(n_samples)
    ts[0], profiles[0], x_ws[0] = 0.0, m, _zero_crossing(m[:, 0], grid.xi)
    energies[0], violations[0] = energy(m), 0.0

    j = 1
    worst_drift = 0.0
    prev_energy = energies[0]
    for k in range(1, n_steps + 1):
        m = step(m, dt, params, grid, m_minus, m_plus, k * dt)

        norms = np.sqrt((m * m).sum(axis=1))
        drift = float(np.abs(norms - 1.0).max())
        worst_drift = max(worst_drift, drift)
        if drift > UNIT_DRIFT_LIMIT:
            raise Instability(
                f"unit-length drift {drift:.3e} exceeded {UNIT_DRIFT_LIMIT:.0e} "
                f"before renormalization at t = {k * dt:.4g}"
            )
        m /= norms[:, None]
        m[0] = m_minus
        m[-1] = m_plus

        if field_free:
            e_now = energy(m)
            if e_now - prev_energy > ENERGY_RISE_LIMIT:
                raise Instability(
                    f"energy rose by {e_now - prev_energy:.3e} (> {ENERGY_RISE_LIMIT:.0e}) "
                    f"over one step at zero applied field, t = {k * dt:.4g}"
                )
            prev_energy = e_now

        if k % sample_every == 0 or k == n_steps:
            x_w = _zero_crossing(m[:, 0], grid.xi)
            if grid.half_width - abs(x_w) < WALL_MARGIN:
                raise WallNearBoundary(
                    f"wall at xi = {x_w:.3f} is within {WALL_MARGIN} exchange lengths "
                    f"of the boundary (half-width {grid.half_width})"
                )
            ts[j], profiles[j], x_ws[j] = k * dt, m, x_w
            energies[j] = energy(m) if not field_free else prev_energy
            violations[j] = worst_drift
            worst_drift = 0.0
            j += 1

    return Trajectory(
        t=ts, profiles=profiles, x_w=x_ws, energy=energies,
        max_unit_violation=violations, grid=grid, params=params,
        method=method, dt=dt, n_steps=n_steps,
    )


def track_wall(traj: Trajectory):
    """Wall positions and an asymptotic velocity estimate.

    Positions come from linear interpolation of the m1 zero crossing in each
    stored profile; the velocity is the least-squares slope over the final
    third of the trajectory.
    """
    xi = traj.grid.xi
    positions = np.array([_zero_crossing(p[:, 0], xi) for p in traj.profiles])
    k0 = (2 * positions.size) // 3
    tt = traj.t[k0:]
    xx = positions[k0:]
    if tt.size < 2:
        raise ConfigError("trajectory too short to estimate a velocity")
    slope = np.polyfit(tt, xx, 1)[0]
    return positions, float(slope)
