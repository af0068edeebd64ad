"""Time integration of the full 1D magnetization dynamics.

The damped precession equation  m_t + alpha m x m_t = m x H(m)  is solved
in the explicit form

    m_t = ( m x H - alpha m x (m x H) ) / (1 + alpha^2)

by the classical 4th-order one-step method with pointwise renormalization
after every step.  `llg_rhs` is the one right-hand side; its field H is
energetics.effective_field_cartesian.  Far-field nodes are clamped to the
boundary equilibria, matching the travelling-wave boundary conditions on a
truncated domain.

The exchange term makes the system stiff: the step must satisfy
dt <= 0.25 h^2 (the default is 0.2 h^2).  At zero applied field the
discrete energy is an exact Lyapunov function of the semi-discrete flow
(see energetics.energy_cartesian), which the integrator monitors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energetics import effective_field_cartesian, energy_cartesian, equilibria, potential
from .errors import (
    ConfigError,
    Instability,
    MultipleWalls,
    NonUnitVector,
    NoWall,
    WallNearBoundary,
)
from .model import CartesianProfile, Grid, Params

WALL_MARGIN = 5.0          # minimum wall distance from the domain edge
UNIT_DRIFT_LIMIT = 1e-3    # pre-renormalization |m| drift that aborts a run
ENERGY_RISE_LIMIT = 1e-6   # per-step energy increase that aborts at Ha = 0


@dataclass(frozen=True)
class Trajectory:
    """Sampled history of a dynamics run.

    profiles[k] is the (n, 3) magnetization at time t[k]; x_w is the tracked
    wall position (zero crossing of m1), energy the renormalized discrete
    energy, and max_unit_violation the largest pre-renormalization deviation
    of |m| from 1 seen since the previous sample.
    """

    t: np.ndarray
    profiles: np.ndarray
    x_w: np.ndarray
    energy: np.ndarray
    max_unit_violation: np.ndarray
    grid: Grid
    params: Params

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


def _precession(m, H, alpha):
    mxH = _cross(m, H)
    return (mxH - alpha * _cross(m, mxH)) / (1.0 + alpha * alpha)


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
) -> Trajectory:
    """Integrate the magnetization dynamics from m0 over [0, T].

    Parameters
    ----------
    m0 : CartesianProfile or (n, 3) array of unit vectors.
    dt : time step; defaults to 0.2 h^2 and must satisfy dt <= 0.25 h^2.
    sample_every : steps between recorded samples (default: ~200 samples).

    Raises Instability if |m| drifts beyond 1e-3 before renormalization or,
    at zero applied field, if the energy increases by more than 1e-6 over a
    step; WallNearBoundary if the wall comes within 5 exchange lengths of
    the domain edge.
    """
    m = m0.m.copy() if isinstance(m0, CartesianProfile) else np.array(m0, dtype=float)
    if m.shape != (grid.n_nodes, 3):
        raise ConfigError(f"initial profile must have shape ({grid.n_nodes}, 3)")
    dev = np.abs(np.linalg.norm(m, axis=1) - 1.0).max()
    if dev > 1e-9:
        raise NonUnitVector(f"initial profile must be unit length; deviation {dev:.2e}")

    h = grid.h
    if dt is None:
        dt = 0.2 * h * h
    if dt > 0.25 * h * h:
        raise ConfigError(
            f"stability precondition dt <= 0.25 h^2 violated: dt = {dt:.3e}, "
            f"0.25 h^2 = {0.25 * h * h:.3e}"
        )
    n_steps = max(1, int(round(T / dt)))
    if sample_every is None:
        sample_every = max(1, n_steps // 200)

    eq = equilibria(params)
    m_minus, m_plus = eq.m_minus(), eq.m_plus()
    m[0] = m_minus
    m[-1] = m_plus
    u_ref = potential(m_plus, params)
    field_free = params.H1 == 0.0 and params.H2 == 0.0 and params.H3 == 0.0

    def energy(mm):
        return energy_cartesian(mm, params, grid, u_ref)

    ts = [0.0]
    profiles = [m.copy()]
    x_ws = [_zero_crossing(m[:, 0], grid.xi)]
    energies = [energy(m)]
    violations = [0.0]

    worst_drift = 0.0
    prev_energy = energies[0]
    for k in range(1, n_steps + 1):
        k1 = llg_rhs(m, params, grid, m_minus, m_plus)
        k2 = llg_rhs(m + (0.5 * dt) * k1, params, grid, m_minus, m_plus)
        k3 = llg_rhs(m + (0.5 * dt) * k2, params, grid, m_minus, m_plus)
        k4 = llg_rhs(m + dt * k3, params, grid, m_minus, m_plus)
        m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

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
            ts.append(k * dt)
            profiles.append(m.copy())
            x_ws.append(x_w)
            energies.append(energy(m) if not field_free else prev_energy)
            violations.append(worst_drift)
            worst_drift = 0.0

    return Trajectory(
        t=np.array(ts),
        profiles=np.array(profiles),
        x_w=np.array(x_ws),
        energy=np.array(energies),
        max_unit_violation=np.array(violations),
        grid=grid,
        params=params,
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
