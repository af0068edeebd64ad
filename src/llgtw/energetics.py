"""Potential, energy, effective field, torques, and boundary equilibria.

The on-site potential on the unit sphere is

    U(m) = (1 - (m.x)^2 + K2 (m.y)^2 - 2 Ha.m) / 2,

with gradient  grad U = -(m.x) x + K2 (m.y) y - Ha.  The effective field is
m'' - grad U.  In polar coordinates (a, b) the tangent frame is

    n = dm/da = (cos a cos b, -sin a, cos a sin b),   p = m x n,

and the two torque components are F1 = -p.grad U, F2 = n.grad U; they obey
dU/da = F2 and dU/db = sin(a) F1, which is what the finite-difference
gradient checks in the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoEquilibrium, NonUnitVector, WrongSign
from .model import Grid, Params, PolarProfile, angles_to_cartesian

TORQUE_TOL = 1e-12  # equilibrium torque residual; feeds Dirichlet data downstream


def potential(m, params: Params) -> float | np.ndarray:
    """On-site potential U(m) for unit vector(s) m (last axis of length 3)."""
    m = np.asarray(m, dtype=float)
    norm_dev = np.abs(np.sqrt((m * m).sum(axis=-1)) - 1.0)
    if np.max(norm_dev) > 1e-9:
        raise NonUnitVector(
            f"potential requires |m| = 1; worst deviation {np.max(norm_dev):.3e} (> 1e-9)"
        )
    zeeman = m[..., 0] * params.H1 + m[..., 1] * params.H2 + m[..., 2] * params.H3
    val = 0.5 * (1.0 - m[..., 0] ** 2 + params.K2 * m[..., 1] ** 2 - 2.0 * zeeman)
    return float(val) if val.ndim == 0 else val


def potential_gradient(m, params: Params) -> np.ndarray:
    """grad_m U = -(m.x) x + K2 (m.y) y - Ha (unconstrained gradient)."""
    m = np.asarray(m, dtype=float)
    g = np.empty_like(m)
    g[..., 0] = -m[..., 0] - params.H1
    g[..., 1] = params.K2 * m[..., 1] - params.H2
    g[..., 2] = -params.H3
    return g


def _angles(a, b):
    """Float angles as they are, anything else as float arrays: numpy
    functions of a float give numpy scalars, whose arithmetic costs about a
    third of that on 0-d arrays, with the same values."""
    if isinstance(a, float) and isinstance(b, float):
        return a, b
    return np.asarray(a, dtype=float), np.asarray(b, dtype=float)


def torques(a, b, params: Params):
    """Torque components (F1, F2) at polar angles (a, b).

    F1 = -p.grad U and F2 = n.grad U; both vanish at equilibria.  Accepts
    scalars or arrays (broadcast together).
    """
    a, b = _angles(a, b)
    s, c = np.sin(a), np.cos(a)
    sb, cb = np.sin(b), np.cos(b)
    F1 = s * sb * cb + params.H1 * sb - params.H3 * cb
    F2 = -s * c * cb * cb - params.H1 * c * cb - params.K2 * s * c + params.H2 * s - params.H3 * c * sb
    if isinstance(F1, float):
        return float(F1), float(F2)
    return F1, F2


def torque_partials(a, b, params: Params):
    """Partial derivatives (dF1/da, dF1/db, dF2/da, dF2/db); solver Jacobian."""
    a, b = _angles(a, b)
    s, c = np.sin(a), np.cos(a)
    sb, cb = np.sin(b), np.cos(b)
    c2a = np.cos(2.0 * a)
    s2b = np.sin(2.0 * b)
    c2b = np.cos(2.0 * b)
    dF1_da = c * sb * cb
    dF1_db = s * c2b + params.H1 * cb + params.H3 * sb
    dF2_da = -c2a * cb * cb + params.H1 * s * cb - params.K2 * c2a + params.H2 * c + params.H3 * s * sb
    dF2_db = s * c * s2b + params.H1 * c * sb - params.H3 * c * cb
    return dF1_da, dF1_db, dF2_da, dF2_db


@dataclass(frozen=True)
class EquilibriumPair:
    """Tail-to-tail boundary states: polar angles of the two local minima of
    U with x-projections of opposite sign (plus: m.x > 0, minus: m.x < 0)."""

    plus: tuple[float, float]
    minus: tuple[float, float]

    def m_plus(self) -> np.ndarray:
        return angles_to_cartesian(*self.plus)

    def m_minus(self) -> np.ndarray:
        return angles_to_cartesian(*self.minus)


def _hessian(a, b, params: Params):
    """Hessian of U in (a, b); since dU/da = F2 and dU/db = sin(a) F1 it is
    [[dF2/da, dF2/db], [dF2/db, sin(a) dF1/db]]."""
    _, dF1_db, dF2_da, dF2_db = torque_partials(a, b, params)
    return np.array([[dF2_da, dF2_db], [dF2_db, np.sin(a) * dF1_db]])


def _minimize_on_sphere(a, b, params: Params, max_iter=60):
    """Damped Newton on grad U = (F2, s*F1) from seed (a, b)."""
    for _ in range(max_iter):
        F1, F2 = torques(a, b, params)
        g = np.array([F2, np.sin(a) * F1])
        if np.max(np.abs((F1, F2))) < TORQUE_TOL:
            return a, b
        H = _hessian(a, b, params)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            raise NoEquilibrium("singular Hessian during boundary-state search")
        if not np.all(np.isfinite(step)):
            raise NoEquilibrium("non-finite Newton step during boundary-state search")
        lam = 1.0 if np.max(np.abs(step)) < 0.5 else 0.5 / np.max(np.abs(step))
        a, b = a - lam * step[0], b - lam * step[1]
        if not 0.0 < a < np.pi:
            raise NoEquilibrium("boundary-state search left the polar chart 0 < psi < pi")
    raise NoEquilibrium(
        f"boundary-state search did not reach torque residual {TORQUE_TOL:.0e}"
    )


def equilibria(params: Params) -> EquilibriumPair:
    """Find the tail-to-tail pair of local minima of U on the sphere.

    Newton descent is seeded at the polar angles of +-x tilted toward the
    transverse field, which reduces to the seeds +-x in the anisotropy
    regime and to (pi/2, asin H3), (pi/2, pi - asin H3) in the
    transverse-field regime.

    Raises NoEquilibrium if the search fails or the minima merge, WrongSign
    if a converged point violates the tail-to-tail condition.
    """
    found = []
    for sx in (+1.0, -1.0):
        seed = np.array([sx, params.H2, params.H3])
        seed /= np.linalg.norm(seed)
        a0 = float(np.arccos(np.clip(seed[1], -1, 1)))
        b0 = float(np.arctan2(seed[2], seed[0]))
        if sx < 0:
            b0 = b0 + 2.0 * np.pi * np.round((np.pi - b0) / (2.0 * np.pi))
        a, b = _minimize_on_sphere(a0, b0, params)
        # local-minimum check on the tangent plane (metric-corrected Hessian)
        H = _hessian(a, b, params)
        s = np.sin(a)
        Ht = np.array([[H[0, 0], H[0, 1] / s], [H[1, 0] / s, H[1, 1] / (s * s)]])
        if np.linalg.eigvalsh(Ht).min() < -1e-9:
            raise NoEquilibrium("converged boundary state is not a local minimum of U")
        found.append((a, b))

    (ap, bp), (am, bm) = found
    mp = angles_to_cartesian(ap, bp)
    mm = angles_to_cartesian(am, bm)
    if np.allclose(mp, mm, atol=1e-9):
        raise NoEquilibrium("the two boundary-state searches merged into one minimum")
    if not (mp[0] > 0.0 and mm[0] < 0.0):
        raise WrongSign(
            "tail-to-tail invariant violated: need m_plus.x > 0 > m_minus.x, "
            f"got {mp[0]:.3e}, {mm[0]:.3e}"
        )
    return EquilibriumPair(plus=(float(ap), float(bp)), minus=(float(am), float(bm)))


def effective_field_cartesian(m, params: Params, grid: Grid, m_minus, m_plus) -> np.ndarray:
    """Effective field H = m'' + (m.x) x - K2 (m.y) y + Ha of (n, 3)
    Cartesian samples; the field of dynamics.llg_rhs.

    The second derivative uses central differences; m_minus/m_plus are the
    ghost nodes beyond the ends, so no one-sided stencils appear.
    """
    h2 = grid.h * grid.h
    ext = np.empty((m.shape[0] + 2, 3))
    ext[1:-1] = m
    ext[0] = m_minus
    ext[-1] = m_plus
    H = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / h2
    H[:, 0] += m[:, 0] + params.H1
    H[:, 1] += -params.K2 * m[:, 1] + params.H2
    H[:, 2] += params.H3
    return H


def energy_cartesian(m, params: Params, grid: Grid, u_ref: float | None = None) -> float:
    """Renormalized micromagnetic energy of Cartesian samples.

    Exchange uses the staggered square difference (the exact discrete
    gradient pair of the clamped central-difference field, which makes the
    energy a Lyapunov function of the semi-discrete dynamics at zero applied
    field); the potential part uses trapezoid weights.  u_ref defaults to
    U at the right boundary equilibrium, so uniform domains carry zero
    energy density.
    """
    if u_ref is None:
        u_ref = potential(equilibria(params).m_plus(), params)
    diffs = np.diff(m, axis=0)
    exch = 0.5 * np.sum(diffs * diffs) / grid.h
    u = potential(m, params) - u_ref
    pot = np.trapezoid(u, dx=grid.h)
    return float(exch + pot)


def micromagnetic_energy(p: PolarProfile, params: Params, grid: Grid) -> float:
    """Renormalized energy of a polar profile (see energy_cartesian)."""
    return energy_cartesian(angles_to_cartesian(p.psi, p.beta), params, grid)
