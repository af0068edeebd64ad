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
  Jacobian is banded with bandwidth (5, 5).  Without a fixed dt the steps
  are error-controlled, as below; a given dt is used for every step.
* "rk4": the classical 4th-order explicit method.  The exchange term makes
  the system stiff for it: the step must satisfy dt <= 0.25 h^2 (the
  default is 0.2 h^2).

At zero applied field the discrete energy is an exact Lyapunov function of
the semi-discrete flow (see energetics.energy_cartesian), which the
integrator monitors.

Error-controlled midpoint steps.  Since the midpoint rule keeps |m| = 1 and
the energy law at any dt, only its truncation error limits the step, and
Milne's device estimates it (Hairer, Norsett & Wanner, Solving ODEs I,
sec. III.5).  The quadratic through the last three accepted states predicts
the new one, with error C_p dt^3 y''' (C_p = 1 for equal steps).  It seeds
the Newton solve and, unlike an explicit predictor, never evaluates f, so
it has no stability limit.  The midpoint rule's own error is C_c dt^3 y'''
with C_c = -1/12, so its local error is about |x - x_pred| / (12 C_p + 1),
|x - x_pred| / 13 at equal steps, in the max norm.  A step whose estimate
exceeds the tolerance is rejected and retried shorter; otherwise the next
step is SAFETY (tol / err)^(1/3) times longer, at most MAX_GROWTH times.
dt is kept while that factor lies in [1, KEEP_DT_BELOW), because the band
LU factors are refactored whenever dt changes.  The first step is START_DT.
The first two steps lack the history for an estimate, so the third is the
first one checked; if it is rejected, the two before it, as long as it, are
discarded too and the run starts again from t = 0 with the shorter step.
A failed Newton solve halves the step.  Below MIN_DT the run raises
NoConvergence.

MIDPOINT_TOL is set by accuracy.  Check 11's tracked-velocity gap has a
dt -> 0 limit of 3.16e-4, from the grid and the wall tracking.  At
MIDPOINT_TOL = 1e-5 the time error adds 1.1e-4 to it, under half of that
floor; at 1e-4 it would add 5.3e-4.
"""

from __future__ import annotations

import math
import numbers
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
NEWTON_TOL = 1e-12         # max-norm residual that ends a midpoint step
NEWTON_MAX_ITER = 25       # reused factors converge linearly, so allow a margin
N_SAMPLES = 200            # default number of stored samples after the start
MIDPOINT_TOL = 1e-5        # default local error tolerance of adaptive midpoint steps
START_DT = 0.01            # first adaptive step
MIN_DT = 1e-8              # adaptive step floor, below which a run gives up
SAFETY = 0.9               # step factor: SAFETY (tol / err)^(1/3)
MAX_GROWTH = 2.0           # bounds on the step factor
MAX_SHRINK = 0.2
NEWTON_SHRINK = 0.5        # step factor after a failed Newton solve
KEEP_DT_BELOW = 1.25       # an accepted step keeps dt while the factor is in [1, this)


@dataclass(frozen=True)
class Trajectory:
    """Sampled history of a dynamics run.

    profiles[k] is the (n, 3) magnetization at time t[k]; x_w is the tracked
    wall position (zero crossing of m1), energy the renormalized discrete
    energy, and max_unit_violation the largest pre-renormalization deviation
    of |m| from 1 seen since the previous sample.  The rest records how the
    run was integrated (None on hand-built trajectories): method, the fixed
    dt (None on an adaptive run) or the tolerance tol (None at a fixed dt),
    n_steps accepted steps, n_rejected steps discarded by the error test or
    a failed Newton solve, and n_factorizations band LU factorizations.
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
    tol: float | None = None
    n_rejected: int | None = None
    n_factorizations: int | None = None

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


def _rk4_step(m, dt, params, grid, m_minus, m_plus):
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


class _MidpointNewton:
    """Newton's method for one implicit-midpoint step, x = m + dt f((m + x)/2).

    The Jacobian's band LU factors are kept from call to call and reused
    while dt is the step they were built for and each iteration cuts the
    residual at least tenfold; otherwise the Jacobian is rebuilt and
    refactored at the current midpoint.
    """

    def __init__(self):
        self.lu = self.piv = self.lu_dt = None
        self.n_factorizations = 0

    def solve(self, x, m, dt, params, grid, m_minus, m_plus):
        """Iterate on x in place from the seed it holds, whose end rows must
        equal m's.  Returns (converged, max-norm residual, iterations)."""
        prev_res = np.inf
        for it in range(NEWTON_MAX_ITER + 1):
            r, mid, H = _midpoint_residual(x, m, dt, params, grid, m_minus, m_plus)
            res = float(np.abs(r).max())
            if res <= NEWTON_TOL:
                return True, res, it
            if it == NEWTON_MAX_ITER or not np.isfinite(res):
                break
            if self.lu is None or dt != self.lu_dt or res > 0.1 * prev_res:
                self.lu, self.piv, info = dgbtrf(_midpoint_jacobian(mid, H, dt, params, grid),
                                                 5, 5, overwrite_ab=True)
                self.lu_dt = dt
                self.n_factorizations += 1
                if info != 0:
                    self.lu = None
                    break
            x[1:-1] -= dgbtrs(self.lu, 5, 5, r.ravel(), self.piv)[0].reshape(-1, 3)
            prev_res = res
        return False, res, it


def _extrapolate(ts, ms, t):
    """The polynomial through the accepted states ms at times ts, at t; its
    end rows are the clamped boundary values."""
    p = np.zeros_like(ms[-1])
    for j, mj in enumerate(ms):
        w = 1.0
        for k, tk in enumerate(ts):
            if k != j:
                w *= (t - tk) / (ts[j] - tk)
        p += w * mj
    p[0], p[-1] = ms[-1][0], ms[-1][-1]
    return p


class _Record:
    """The checks on each accepted step and the stored samples of one run.

    The sample arrays are preallocated for `capacity` samples, doubled when
    full and cut to the samples taken at the end.
    """

    def __init__(self, m, params, grid, m_minus, m_plus, capacity):
        self.params, self.grid = params, grid
        self.m_minus, self.m_plus = m_minus, m_plus
        self.u_ref = potential(m_plus, params)
        self.field_free = params.H1 == 0.0 and params.H2 == 0.0 and params.H3 == 0.0
        self.t = np.empty(capacity)
        self.profiles = np.empty((capacity,) + m.shape)
        self.x_w = np.empty(capacity)
        self.energy = np.empty(capacity)
        self.violation = np.empty(capacity)
        self.n = 0
        self.worst_drift = 0.0
        self.prev_energy = self._energy(m)
        self._store(0.0, m, _zero_crossing(m[:, 0], grid.xi), self.prev_energy, 0.0)

    def _energy(self, m):
        return energy_cartesian(m, self.params, self.grid, self.u_ref)

    def _resize(self, n):
        # in place: no view of these private arrays exists, and realloc
        # need not hold the old and new arrays at once
        for a in (self.t, self.profiles, self.x_w, self.energy, self.violation):
            a.resize((n,) + a.shape[1:], refcheck=False)

    def _store(self, t, m, x_w, energy, violation):
        if self.n == self.t.size:
            self._resize(2 * self.n)
        k = self.n
        self.t[k], self.profiles[k], self.x_w[k] = t, m, x_w
        self.energy[k], self.violation[k] = energy, violation
        self.n += 1

    def accept(self, m, t):
        """Renormalize an accepted step's m in place, abort on unit-length
        drift and, at zero applied field, on an energy rise."""
        norms = np.sqrt((m * m).sum(axis=1))
        drift = float(np.abs(norms - 1.0).max())
        self.worst_drift = max(self.worst_drift, drift)
        if drift > UNIT_DRIFT_LIMIT:
            raise Instability(
                f"unit-length drift {drift:.3e} exceeded {UNIT_DRIFT_LIMIT:.0e} "
                f"before renormalization at t = {t:.4g}"
            )
        m /= norms[:, None]
        m[0] = self.m_minus
        m[-1] = self.m_plus
        if self.field_free:
            e_now = self._energy(m)
            if e_now - self.prev_energy > ENERGY_RISE_LIMIT:
                raise Instability(
                    f"energy rose by {e_now - self.prev_energy:.3e} "
                    f"(> {ENERGY_RISE_LIMIT:.0e}) over one step at zero applied field, "
                    f"t = {t:.4g}"
                )
            self.prev_energy = e_now

    def sample(self, m, t):
        """Store m at time t, aborting if the wall nears the domain edge."""
        x_w = _zero_crossing(m[:, 0], self.grid.xi)
        if self.grid.half_width - abs(x_w) < WALL_MARGIN:
            raise WallNearBoundary(
                f"wall at xi = {x_w:.3f} is within {WALL_MARGIN} exchange lengths "
                f"of the boundary (half-width {self.grid.half_width})"
            )
        energy = self.prev_energy if self.field_free else self._energy(m)
        self._store(t, m, x_w, energy, self.worst_drift)
        self.worst_drift = 0.0

    def restart(self):
        """Drop everything after the initial state."""
        self.n, self.worst_drift, self.prev_energy = 1, 0.0, self.energy[0]

    def arrays(self):
        self._resize(self.n)
        return dict(t=self.t, profiles=self.profiles, x_w=self.x_w,
                    energy=self.energy, max_unit_violation=self.violation)


def _run_fixed(m, dt, n_steps, sample_every, step, record):
    for k in range(1, n_steps + 1):
        m = step(m, k * dt)
        record.accept(m, k * dt)
        if k % sample_every == 0 or k == n_steps:
            record.sample(m, k * dt)


def _run_adaptive(m, T, tol, sample_every, newton, record, params, grid, m_minus, m_plus):
    """Integrate over [0, T] by the implicit midpoint rule with error-controlled
    steps (see integrate); returns (accepted steps, rejected steps)."""
    m0 = m
    ts, ms = [0.0], [m]          # the last three accepted states
    t, dt = 0.0, START_DT
    n_steps = n_rejected = 0
    next_sample = T / N_SAMPLES
    while t < T:
        last = t + dt >= T
        step = T - t if last else dt
        pred = _extrapolate(ts, ms, t + step)
        x = pred.copy()
        converged, res, _ = newton.solve(x, m, step, params, grid, m_minus, m_plus)
        if converged and len(ts) == 3:
            # Milne's device: pred's error is C_p step^3 y''' by the Lagrange
            # remainder, the midpoint rule's C_c step^3 y''' with C_c = -1/12
            c_p = (t + step - ts[0]) * (t + step - ts[1]) / (6.0 * step * step)
            err = float(np.abs(x - pred).max()) / (12.0 * c_p + 1.0)
            factor = MAX_GROWTH if err == 0.0 else SAFETY * (tol / err) ** (1.0 / 3.0)
        else:
            err, factor = 0.0, 1.0
        if not (converged and err <= tol):
            n_rejected += 1
            dt = step * (NEWTON_SHRINK if not converged else max(MAX_SHRINK, factor))
            if not dt >= MIN_DT:
                what = (f"Newton residual {res:.3e}" if not converged
                        else f"local error estimate {err:.3e} > tol = {tol:.1e}")
                raise NoConvergence(
                    f"adaptive implicit midpoint step from t = {t:.6g} failed: dt = {dt:.3g} "
                    f"fell below the floor {MIN_DT:.0e}; {what}"
                )
            if n_steps == 2:
                # the first checked step failed: redo the two unchecked
                # steps before it at its shorter dt
                n_rejected += 2
                n_steps, t, m, ts, ms = 0, 0.0, m0, [0.0], [m0]
                next_sample = T / N_SAMPLES
                record.restart()
            continue
        if factor < 1.0 or factor >= KEEP_DT_BELOW:
            dt = step * min(MAX_GROWTH, factor)
        t = T if last else t + step
        m = x
        n_steps += 1
        record.accept(m, t)
        if last or (t >= next_sample if sample_every is None else n_steps % sample_every == 0):
            record.sample(m, t)
            next_sample = T * (math.floor(t * N_SAMPLES / T) + 1) / N_SAMPLES
        ts, ms = ts[-2:] + [t], ms[-2:] + [m]
    return n_steps, n_rejected


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
    dt : fixed time step.  Without it "midpoint" chooses its own steps to
        keep the local error estimate under MIDPOINT_TOL; "rk4" defaults to
        0.2 h^2 and requires dt <= 0.25 h^2.
    sample_every : accepted steps between recorded samples.  By default
        about 200 samples are kept: every n_steps // 200-th step at a fixed
        dt, the first accepted step past each of 200 evenly spaced times
        on an adaptive run.  The final state is always recorded.
    method : "midpoint" (implicit midpoint rule) or "rk4".

    Raises ConfigError if T or dt is not finite and > 0, or sample_every is
    not a positive integer; Instability if |m| drifts beyond 1e-3 before
    renormalization or, at zero applied field, if the energy increases by
    more than 1e-6 over a step; WallNearBoundary if the wall comes within 5
    exchange lengths of the domain edge; NoConvergence if a fixed-step
    midpoint Newton solve fails, or an adaptive step falls below MIN_DT.
    """
    for name, value in (("T", T), ("dt", dt)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ConfigError(
                f"integration {name} must be finite and > 0, got {name} = {value!r}")
    if sample_every is not None and (isinstance(sample_every, bool)
                                     or not isinstance(sample_every, numbers.Integral)
                                     or sample_every < 1):
        raise ConfigError(f"sample_every must be a positive integer, got {sample_every!r}")
    h = grid.h
    if method == "midpoint":
        newton = _MidpointNewton()
    elif method == "rk4":
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

    eq = equilibria(params)
    m_minus, m_plus = eq.m_minus(), eq.m_plus()
    m[0] = m_minus
    m[-1] = m_plus

    tol = MIDPOINT_TOL if dt is None else None
    if dt is None:
        record = _Record(m, params, grid, m_minus, m_plus, N_SAMPLES + 1)
        n_steps, n_rejected = _run_adaptive(m, T, tol, sample_every, newton, record,
                                            params, grid, m_minus, m_plus)
    else:
        n_steps = max(1, int(round(T / dt)))
        if sample_every is None:
            sample_every = max(1, n_steps // N_SAMPLES)
        record = _Record(m, params, grid, m_minus, m_plus,
                         1 + n_steps // sample_every + (n_steps % sample_every != 0))
        if method == "midpoint":
            def step(m, t):
                x = m.copy()
                converged, res, it = newton.solve(x, m, dt, params, grid, m_minus, m_plus)
                if not converged:
                    raise NoConvergence(
                        f"implicit midpoint step to t = {t:.4g} did not converge: residual "
                        f"{res:.3e} (> {NEWTON_TOL:.0e}) after {it} Newton iterations "
                        f"at dt = {dt:.3g}"
                    )
                return x
        else:
            def step(m, t):
                return _rk4_step(m, dt, params, grid, m_minus, m_plus)
        _run_fixed(m, dt, n_steps, sample_every, step, record)
        n_rejected = 0

    return Trajectory(
        **record.arrays(), grid=grid, params=params, method=method, dt=dt,
        n_steps=n_steps, tol=tol, n_rejected=n_rejected,
        n_factorizations=newton.n_factorizations if method == "midpoint" else 0,
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
