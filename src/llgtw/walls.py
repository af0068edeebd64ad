"""Explicit static domain-wall profiles used as continuation base points.

Two walls are constructed:

* the Bloch wall m = (tanh xi, 0, sech xi), static for any K2 > 0 at zero
  applied field, with polar form psi = pi/2, beta = 2*atan(exp(-xi));
* the transverse-field wall psi = pi/2, beta' = H3 - sin(beta), static for
  K2 = H1 = 0 and 0 < H3 < 1, normalized by beta(0) = pi/2.  It is evaluated
  in closed form: with r = sqrt(1 - H3^2) and t+- = (1 +- r)/H3,
  tan(beta/2) = t- + (t+ - t-) / (1 + t+ exp(r xi)).

Both have beta strictly decreasing; the azimuth derivative of the base wall
(-sech xi, resp. H3 - sin beta) doubles as the translation mode used by the
solver's phase condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidField
from .model import BC_MATCH_TOL, TRANSVERSE, WALKER, Grid, PolarProfile, Regime

# Required closeness of the azimuth to its limits at the grid ends.
TAIL_TOL = 1e-8
# Most nodes `transverse_wall(extend=True)` may widen a grid to.
MAX_NODES = 10**6


def bloch_beta(xi) -> np.ndarray:
    return 2.0 * np.arctan(np.exp(-np.asarray(xi, dtype=float)))


def bloch_beta_prime(xi) -> np.ndarray:
    return -1.0 / np.cosh(xi)


def bloch_wall(grid: Grid) -> PolarProfile:
    """The Bloch wall on `grid`: psi = pi/2, beta = 2*atan(exp(-xi)).

    Boundary values are (pi/2, pi) on the left and (pi/2, 0) on the right
    (tail-to-tail: m -> -x as xi -> -inf, m -> +x as xi -> +inf).
    """
    beta = bloch_beta(grid.xi)
    psi = np.full(grid.n_nodes, np.pi / 2)
    return PolarProfile(psi, beta, bc_minus=(np.pi / 2, np.pi), bc_plus=(np.pi / 2, 0.0))


def _tan_half_limits(H3: float):
    """Tail rate r = sqrt(1 - H3^2) and tan(beta/2) at the left and right
    limits of the transverse wall: (1 + r)/H3 and H3/(1 + r) = (1 - r)/H3."""
    r = float(np.sqrt(1.0 - H3 * H3))
    return r, (1.0 + r) / H3, H3 / (1.0 + r)


def _tail_width(H3: float, tol: float) -> float:
    """The xi beyond which the transverse wall is within `tol` of its limits
    (both tails, by the symmetry beta(-xi) = pi - beta(xi))."""
    r, t_plus, t_minus = _tan_half_limits(H3)
    t = np.tan(0.5 * (np.arcsin(H3) + tol))
    return float((np.log((t_plus - t) / (t - t_minus)) - np.log(t_plus)) / r)


def transverse_wall(H3: float, grid: Grid, extend: bool = True) -> PolarProfile:
    """Static wall for a transverse field H3 along z (0 < H3 < 1).

    The azimuth limits are pi - asin(H3) on the left and asin(H3) on the
    right, approached like exp(-sqrt(1 - H3^2) |xi|).  With `extend` set, a
    grid whose ends miss the limits by more than TAIL_TOL is widened at the
    same spacing (the returned profile then has more nodes than `grid`);
    a widening past MAX_NODES raises ConfigError instead.  Without it, a
    grid too short for the profile's BC_MATCH_TOL raises ConfigError naming
    the half-width needed.
    """
    if not 0.0 < H3 < 1.0:
        raise InvalidField(f"transverse-field invariant 0 < H3 < 1 violated: H3 = {H3}")
    b_plus = float(np.arcsin(H3))
    b_minus = float(np.pi - b_plus)
    r, t_plus, t_minus = _tan_half_limits(H3)

    if extend:
        missing = _tail_width(H3, TAIL_TOL) - grid.half_width
        if missing > 0.0:
            n_extra = int(np.ceil(missing / grid.h))
            if grid.n_nodes + 2 * n_extra > MAX_NODES:
                raise ConfigError(
                    f"transverse wall at H3 = {H3!r} too wide to build: its tails decay "
                    f"at rate sqrt(1 - H3^2) = {r:.3g}, so reaching its limits to "
                    f"{TAIL_TOL:.0e} needs half-width {grid.half_width + missing:.4g}, "
                    f"{grid.n_nodes + 2 * n_extra} nodes at h = {grid.h:g}, over the "
                    f"{MAX_NODES} node ceiling; lower H3 or coarsen the grid"
                )
            grid = Grid(grid.half_width + n_extra * grid.h, grid.n_nodes + 2 * n_extra)
    else:
        needed = _tail_width(H3, BC_MATCH_TOL)
        if grid.half_width < needed:
            raise ConfigError(
                f"domain too short for the transverse wall at H3 = {H3}: its tails "
                f"decay at rate sqrt(1 - H3^2) = {r:.4g}, so "
                f"half-width Lx = {grid.half_width:g} leaves the endpoints more than "
                f"{BC_MATCH_TOL:.0e} from the boundary values; use Lx >= "
                f"{np.ceil(10.0 * needed) / 10.0:.1f}"
            )

    # the exact wall: tan(beta/2) = t- + (t+ - t-) / (1 + t+ exp(r xi)).  Every
    # term is positive, so nothing cancels; exp(-|z|) cannot overflow, and
    # where it underflows the tail term is far below the rounding of t-.
    z = r * grid.xi + np.log(t_plus)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(z))
        s = np.where(z > 0.0, e, 1.0) / (1.0 + e)  # = 1 / (1 + exp(z))
        beta = 2.0 * np.arctan(t_minus + (t_plus - t_minus) * s)
    psi = np.full(grid.n_nodes, np.pi / 2)
    return PolarProfile(psi, beta, bc_minus=(np.pi / 2, b_minus), bc_plus=(np.pi / 2, b_plus))


@dataclass(frozen=True)
class BaseProfile:
    """A static base wall with analytic derivatives, as the solver needs it.

    psi/beta are the angles on the grid; d-prefixed fields are first and
    second xi-derivatives evaluated analytically (no finite differences);
    dbeta doubles as the translation mode used by the phase condition.
    bc_minus/bc_plus are the exact boundary angles.
    """

    grid: Grid
    psi: np.ndarray
    beta: np.ndarray
    dpsi: np.ndarray
    dbeta: np.ndarray
    d2psi: np.ndarray
    d2beta: np.ndarray
    bc_minus: tuple[float, float]
    bc_plus: tuple[float, float]


def base_profile(regime: Regime, grid: Grid) -> BaseProfile:
    """Construct the regime's static wall with analytic derivatives.

    For a transverse base with H2 != 0 the scalar wall is solved for the
    field magnitude and then rotated about the x axis so the transverse
    field points along (0, H2, H3); the rotation is applied analytically to
    the angles and their derivatives.
    """
    xi = grid.xi
    zeros = np.zeros(grid.n_nodes)
    if regime.kind == WALKER:
        dbeta = bloch_beta_prime(xi)
        return BaseProfile(
            grid=grid,
            psi=np.full(grid.n_nodes, np.pi / 2),
            beta=bloch_beta(xi),
            dpsi=zeros,
            dbeta=dbeta,
            d2psi=zeros,
            d2beta=-dbeta * np.tanh(xi),
            bc_minus=(np.pi / 2, np.pi),
            bc_plus=(np.pi / 2, 0.0),
        )

    assert regime.kind == TRANSVERSE
    rho = float(np.hypot(regime.H2, regime.H3))
    wall = transverse_wall(rho, grid, extend=False)
    b = wall.beta
    db = rho - np.sin(b)
    d2b = -np.cos(b) * db
    if regime.H2 == 0.0:
        return BaseProfile(
            grid=grid,
            psi=wall.psi,
            beta=b,
            dpsi=zeros,
            dbeta=db,
            d2psi=zeros,
            d2beta=d2b,
            bc_minus=wall.bc_minus,
            bc_plus=wall.bc_plus,
        )

    # Rotation about x by theta with R z = (0, H2, H3)/rho.
    theta = float(np.arctan2(-regime.H2, regime.H3))
    st, ct = np.sin(theta), np.cos(theta)

    # m = (cos b, -st sin b, ct sin b); polar angles of the rotated wall:
    u = -st * np.sin(b)                      # = cos(psi)
    du = -st * np.cos(b) * db
    d2u = st * np.sin(b) * db * db - st * np.cos(b) * d2b
    root = np.sqrt(1.0 - u * u)
    psi = np.arccos(u)
    dpsi = -du / root
    d2psi = -(d2u * (1.0 - u * u) + u * du * du) / root**3

    raw = np.arctan2(ct * np.sin(b), np.cos(b))
    beta = np.unwrap(raw)
    beta -= 2.0 * np.pi * np.round((beta[-1] - raw[-1]) / (2.0 * np.pi))
    denom = 1.0 - (st * np.sin(b)) ** 2
    dbeta = ct * db / denom
    ddenom = -(st * st) * np.sin(2.0 * b) * db
    d2beta = ct * (d2b * denom - db * ddenom) / denom**2

    def rotated_bc(b_end, beta_end_sample):
        p = float(np.arccos(-st * np.sin(b_end)))
        raw_lim = float(np.arctan2(ct * np.sin(b_end), np.cos(b_end)))
        lim = raw_lim + 2.0 * np.pi * np.round((beta_end_sample - raw_lim) / (2.0 * np.pi))
        return (p, lim)

    return BaseProfile(
        grid=grid,
        psi=psi,
        beta=beta,
        dpsi=dpsi,
        dbeta=dbeta,
        d2psi=d2psi,
        d2beta=d2beta,
        bc_minus=rotated_bc(wall.bc_minus[1], beta[0]),
        bc_plus=rotated_bc(wall.bc_plus[1], beta[-1]),
    )

