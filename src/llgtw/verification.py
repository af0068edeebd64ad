"""The full verification suite: every claim the library is built to satisfy,
run as a sequence of numbered checks with stated tolerances.

Each check returns a CheckResult; `run_all` executes them in order and
assembles a JSON-able report with one entry per criterion.  The suite is
deterministic for a fixed grid and seed.  Checks 1 and 2 run one body at
the two base points, and checks 7 and 8 run one body over two parameter
lattices (a box around the anisotropy-dominated base and one around the
transverse-field base); check 9 reads the velocity-identity values they
computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import spectral as sp
from .model import SCHEMA_VERSION, Grid, Params, Regime, angles_to_cartesian, to_cartesian
from .solver import (
    NewtonOptions,
    reference_profile,
    residual,
    residual_norm,
    solve_tw,
    velocity_identity,
)
from .walls import base_profile, bloch_wall


@dataclass
class CheckResult:
    name: str
    expected: str
    observed: dict
    tolerance: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


# --- 1, 2: static walls annihilate the travelling-wave residual -------------

def _check_static_residual(name: str, expected: str, cases, grid: Grid) -> CheckResult:
    """Residual norm at zero corrections and V = 0 for each (label, params,
    regime) case, whose params are the regime's base point."""
    z = np.zeros(grid.n_nodes)
    per = {}
    for label, params, regime in cases:
        ref = reference_profile(params, regime, grid)
        per[label] = residual_norm(residual(z, z, 0.0, params, ref, grid), grid)
    worst = max(per.values())
    return CheckResult(name, expected, {"worst_norm": worst, **per}, {"norm": 1e-6},
                       worst <= 1e-6)


def check_static_residual_anisotropy(grid: Grid) -> CheckResult:
    return _check_static_residual(
        "1 static residual at the anisotropy base",
        "||residual(0,0,0)|| <= 1e-6 for K2 in {0.5, 1, 5}",
        [(f"K2={K2}", Params(0, 0, 0, K2, 0.1), Regime.walker(K2)) for K2 in (0.5, 1.0, 5.0)],
        grid,
    )


def check_static_residual_transverse(grid: Grid) -> CheckResult:
    return _check_static_residual(
        "2 static residual at the transverse base",
        "||residual(0,0,0)|| <= 1e-6 for H3 in {0.25, 0.5, 0.75}",
        [(f"H3={H3}", Params(0, 0, H3, 0, 0.1), Regime.transverse(H3))
         for H3 in (0.25, 0.5, 0.75)],
        grid,
    )


# --- 3-6: spectra of the linearization blocks --------------------------------

def check_bloch_azimuth_kernel(grid: Grid) -> CheckResult:
    op = sp.bloch_azimuth_operator(grid)
    (lam0, v0), (lam1, _) = sp.lowest_eigenpairs(op, 2)
    mode = 1.0 / np.cosh(grid.xi[1:-1])
    mode /= np.linalg.norm(mode)
    cos = abs(float(v0 @ mode))
    ok = abs(lam0) <= 1e-4 and cos >= 0.999 and lam1 >= 0.2
    return CheckResult(
        "3 kernel of the Bloch azimuth operator",
        "lambda0 = 0 +- 1e-4 with eigenvector sech (cos >= 0.999); lambda1 >= 0.2",
        {"lambda0": lam0, "cosine": cos, "lambda1": lam1},
        {"lambda0": 1e-4, "cosine": 0.999, "lambda1": 0.2},
        ok,
    )


def check_shifted_bound(grid: Grid, seed: int = 0) -> CheckResult:
    op = sp.bloch_azimuth_operator(grid)
    obs = {}
    ok = True
    for K2 in (0.5, 1.0):
        lam0 = sp.lowest_eigenpairs(op.shifted(K2), 1)[0][0]
        rep = sp.rayleigh_bound_check(op.shifted(K2), K2, 200, seed=seed)
        obs[f"lambda0(K2={K2})-K2"] = lam0 - K2
        obs[f"rayleigh_min(K2={K2})"] = rep["min_quotient"]
        ok = ok and abs(lam0 - K2) <= 1e-4 and rep["passes"]
    return CheckResult(
        "4 shifted-operator lower bound",
        "lambda0(A + K2) = K2 +- 1e-4; 200 random Rayleigh quotients >= K2 - 1e-6",
        obs,
        {"lambda0": 1e-4, "rayleigh": 1e-6},
        ok,
    )


def check_tilt_bound(grid: Grid) -> CheckResult:
    obs = {}
    ok = True
    for H3 in (0.25, 0.5, 0.75):
        lam0 = sp.lowest_eigenpairs(sp.transverse_tilt_operator(H3, grid), 1)[0][0]
        obs[f"lambda0(H3={H3})"] = lam0
        ok = ok and lam0 >= H3 * H3 - 1e-4
    return CheckResult(
        "5 transverse tilt-operator bound",
        "lambda0 >= H3^2 - 1e-4 for H3 in {0.25, 0.5, 0.75}",
        obs,
        {"margin": 1e-4},
        ok,
    )


def check_transverse_azimuth_kernel(grid: Grid, H3: float = 0.5) -> CheckResult:
    op = sp.transverse_azimuth_operator(H3, grid)
    lam0, v0 = sp.lowest_eigenpairs(op, 1)[0]
    mode = base_profile(Regime.transverse(H3), grid).dbeta[1:-1].copy()
    mode /= np.linalg.norm(mode)
    cos = abs(float(v0 @ mode))
    ok = abs(lam0) <= 1e-3 and cos >= 0.999
    return CheckResult(
        "6 kernel of the transverse azimuth operator",
        "lambda0 = 0 +- 1e-3 with eigenvector along the translation mode (cos >= 0.999)",
        {"lambda0": lam0, "cosine": cos, "H3": H3},
        {"lambda0": 1e-3, "cosine": 0.999},
        ok,
    )


# --- 7-9: travelling-wave existence lattices ---------------------------------

_LATTICE_W = {
    "regime": ("walker", None),
    "H1": (-0.01, 0.0, 0.01),
    "H2": (-0.05, 0.0, 0.05),
    "H3": (-0.05, 0.0, 0.05),
    "K2": (0.8, 1.0, 1.2),
}
_LATTICE_T = {
    "regime": ("transverse", 0.5),
    "H1": (-0.005, 0.0, 0.005),
    "H2": (-0.02, 0.0, 0.02),
    "H3": (0.48, 0.5, 0.52),
    "K2": (0.0, 0.01, 0.02),
}


def _solve_lattice(spec: dict, grid: Grid, alpha: float = 0.1):
    opts = NewtonOptions(tol_residual=1e-12)
    out = {}
    for H1, H2, H3, K2 in itertools.product(spec["H1"], spec["H2"], spec["H3"], spec["K2"]):
        if spec["regime"][0] == "walker":
            regime = Regime.walker(K2)
        else:
            regime = Regime.transverse(spec["regime"][1])
        sol = solve_tw(Params(H1, H2, H3, K2, alpha), regime, grid, opts)
        out[(H1, H2, H3, K2)] = sol
    return out


def _continuity_violations(sols: dict):
    """Second-difference continuity scan of V along each lattice axis.

    A translate or branch jump shows up as a second difference large
    compared with the line's own spread; smooth variation does not.
    """
    keys = sorted(sols)
    worst = 0.0
    for ax in range(4):
        vals = sorted(set(k[ax] for k in keys))
        for key in keys:
            if key[ax] != vals[1]:
                continue
            lo, hi = list(key), list(key)
            lo[ax], hi[ax] = vals[0], vals[2]
            V0 = sols[tuple(lo)].V
            V1 = sols[key].V
            V2 = sols[tuple(hi)].V
            sd = abs(V0 - 2.0 * V1 + V2)
            allowed = max(0.25 * abs(V2 - V0), 1e-3)
            worst = max(worst, sd / allowed)
    return worst


@dataclass(frozen=True)
class Lattice:
    """The solves of one lattice, keyed by (H1, H2, H3, K2), with their
    velocity-identity mismatch as check 9 reads it."""

    solutions: dict
    max_rel: float   # largest |V - identity| / |V| where H1 != 0
    max_v0: float    # largest |V| where H1 = 0


def _check_lattice(name: str, spec: dict, grid: Grid):
    sols = _solve_lattice(spec, grid)
    max_dv = 0.0
    max_rel = 0.0
    max_v0 = 0.0
    for key, sol in sols.items():
        vid = velocity_identity(sol)
        max_dv = max(max_dv, abs(sol.V - vid))
        if key[0] == 0.0:
            max_v0 = max(max_v0, abs(sol.V))
        else:
            max_rel = max(max_rel, abs(sol.V - vid) / abs(sol.V))
    cont = _continuity_violations(sols)
    result = CheckResult(
        name,
        "all 81 lattice solves converge; |V - identity| <= 1e-6; V varies continuously",
        {"n_solved": len(sols), "max_abs_V_minus_identity": max_dv,
         "continuity_worst_ratio": cont},
        {"V_minus_identity": 1e-6, "continuity_ratio": 1.0},
        max_dv <= 1e-6 and cont <= 1.0,
    )
    return result, Lattice(sols, max_rel, max_v0)


def check_tw_lattice_anisotropy(grid: Grid):
    return _check_lattice("7 travelling waves near the anisotropy base", _LATTICE_W, grid)


def check_tw_lattice_transverse(grid: Grid):
    return _check_lattice("8 travelling waves near the transverse base", _LATTICE_T, grid)


def check_velocity_identity(lattice_w: Lattice, lattice_t: Lattice) -> CheckResult:
    max_rel = max(lattice_w.max_rel, lattice_t.max_rel)
    max_v0 = max(lattice_w.max_v0, lattice_t.max_v0)
    ok = max_rel <= 1e-6 and max_v0 <= 1e-10
    return CheckResult(
        "9 velocity-identity self-consistency",
        "identity matches Newton's V to 1e-6 relative; V = 0 +- 1e-10 at H1 = 0",
        {"max_relative_mismatch": max_rel, "max_abs_V_at_H1_0": max_v0},
        {"relative": 1e-6, "V_at_H1_0": 1e-10},
        ok,
    )


# --- 10: small-field mobility -------------------------------------------------

def check_mobility(grid: Grid) -> CheckResult:
    """|V|/H1 approaches 1/alpha as H1 -> 0 (wall speed is negative for a
    tail-to-tail wall driven by +H1: the energetically favoured domain
    grows, so the wall moves toward -x)."""
    alpha = 0.1
    opts = NewtonOptions(tol_residual=1e-12)
    devs = []
    obs = {}
    signs_ok = True
    for H1 in (0.01, 0.005, 0.0025):
        sol = solve_tw(Params(H1, 0, 0, 1.0, alpha), Regime.walker(1.0), grid, opts)
        mobility = abs(sol.V) / H1
        devs.append(abs(mobility - 1.0 / alpha) * alpha)
        obs[f"|V|/H1 at H1={H1}"] = mobility
        signs_ok = signs_ok and sol.V < 0
    ok = all(d <= 0.03 for d in devs) and devs[0] >= devs[1] >= devs[2] and signs_ok
    return CheckResult(
        "10 small-field mobility",
        "|V|/H1 within 3% of 1/alpha, monotonically approaching it as H1 -> 0; V < 0",
        {**obs, "relative_deviations": devs, "velocities_negative": signs_ok},
        {"relative": 0.03},
        ok,
    )


# --- 11: dynamics agrees with the travelling-wave solver ----------------------

def check_dynamics_consistency(n_nodes_per_20: int = 801) -> CheckResult:
    # a wider box so the wall can run for T = 200 without nearing the edge
    half_width = 30.0
    grid = Grid(half_width, int((n_nodes_per_20 - 1) * 1.5) + 1)
    params = Params(0.01, 0, 0, 1.0, 0.1)
    sol = solve_tw(params, Regime.walker(1.0), grid, NewtonOptions(tol_residual=1e-12))
    m0 = to_cartesian(bloch_wall(grid))
    traj = dyn.integrate(m0, params, grid, T=200.0)
    _, vel = dyn.track_wall(traj)
    rel = abs(vel - sol.V) / abs(sol.V)

    # Lyapunov check at zero applied field: an excited wall relaxes
    relax_grid = Grid(20.0, n_nodes_per_20)
    p0 = Params(0, 0, 0, 1.0, 0.1)
    wall = bloch_wall(relax_grid)
    psi = wall.psi + 0.2 / np.cosh(relax_grid.xi)
    m_init = angles_to_cartesian(psi, wall.beta)
    traj0 = dyn.integrate(m_init, p0, relax_grid, T=5.0, sample_every=1)
    rises = float(np.max(np.diff(traj0.energy)))
    unit = float(traj0.max_unit_violation.max())

    ok = rel <= 0.02 and rises <= 1e-9 and unit <= 1e-9
    return CheckResult(
        "11 dynamics consistency",
        "tracked wall velocity within 2% of the solver's V over T = 200; at zero "
        "field the energy is non-increasing to 1e-9 per step and |m| = 1 to 1e-9",
        {"tracked_velocity": vel, "solver_V": sol.V, "relative_gap": rel,
         "max_energy_rise_per_step": rises, "max_unit_violation": unit},
        {"velocity": 0.02, "energy_rise": 1e-9, "unit_norm": 1e-9},
        ok,
    )


# --- 12: refinement behaviour --------------------------------------------------

def check_refinement(grid: Grid) -> CheckResult:
    g1, g2, g3 = grid, grid.refined(), grid.refined().refined()

    # eigenvalues with known limits shrink by ~4x per halving
    l1 = sp.lowest_eigenpairs(sp.bloch_azimuth_operator(g1), 1)[0][0]
    l2 = sp.lowest_eigenpairs(sp.bloch_azimuth_operator(g2), 1)[0][0]
    ratio_L = abs(l1) / abs(l2)
    n1 = sp.lowest_eigenpairs(sp.transverse_tilt_operator(0.5, g1), 1)[0][0]
    n2 = sp.lowest_eigenpairs(sp.transverse_tilt_operator(0.5, g2), 1)[0][0]
    n3 = sp.lowest_eigenpairs(sp.transverse_tilt_operator(0.5, g3), 1)[0][0]
    ratio_N = abs(n1 - n2) / abs(n2 - n3)

    # velocity change under h -> h/2 is bounded by h^2 (observed order is
    # higher: the correction stencils are 4th-order)
    opts = NewtonOptions(tol_residual=1e-12)
    params = Params(0.01, 0.05, 0.05, 1.0, 0.1)
    v1 = solve_tw(params, Regime.walker(1.0), g1, opts).V
    v2 = solve_tw(params, Regime.walker(1.0), g2, opts).V
    dv = abs(v1 - v2)

    # RK4's final-profile change scales like dt^4 (coarse grid so the
    # differences sit far above roundoff)
    gd = Grid(20.0, 201)
    pd = Params(0.01, 0, 0, 1.0, 0.1)
    m0 = to_cartesian(bloch_wall(gd))
    dt0 = 0.25 * gd.h * gd.h
    finals = [
        dyn.integrate(m0, pd, gd, T=2.0, dt=dt, sample_every=10**9,
                      method="rk4").profiles[-1]
        for dt in (dt0, dt0 / 2, dt0 / 4)
    ]
    d1 = float(np.abs(finals[0] - finals[1]).max())
    d2 = float(np.abs(finals[1] - finals[2]).max())
    ratio_dt = d1 / d2

    h2 = g1.h * g1.h
    ok = (3.0 <= ratio_L <= 5.0 and 2.5 <= ratio_N <= 6.0 and dv <= h2
          and 10.0 <= ratio_dt <= 26.0)
    return CheckResult(
        "12 refinement behaviour",
        "eigenvalue errors shrink ~4x under h -> h/2; velocity change bounded by "
        "h^2; dynamics final profile changes ~16x less under dt -> dt/2",
        {"eig_ratio_bloch": ratio_L, "eig_ratio_tilt": ratio_N,
         "velocity_change": dv, "dt_ratio": ratio_dt},
        {"eig_ratio": [3.0, 5.0], "tilt_ratio": [2.5, 6.0],
         "velocity_change": h2, "dt_ratio": [10.0, 26.0]},
        ok,
    )


def run_all(grid: Grid | None = None, seed: int = 0) -> dict:
    """Run the full suite; returns the report dict (one entry per check)."""
    grid = grid or Grid(20.0, 801)
    results: list[CheckResult] = []
    results.append(check_static_residual_anisotropy(grid))
    results.append(check_static_residual_transverse(grid))
    results.append(check_bloch_azimuth_kernel(grid))
    results.append(check_shifted_bound(grid, seed=seed))
    results.append(check_tilt_bound(grid))
    results.append(check_transverse_azimuth_kernel(grid))
    r7, lattice_w = check_tw_lattice_anisotropy(grid)
    results.append(r7)
    r8, lattice_t = check_tw_lattice_transverse(grid)
    results.append(r8)
    results.append(check_velocity_identity(lattice_w, lattice_t))
    results.append(check_mobility(grid))
    results.append(check_dynamics_consistency(grid.n_nodes))
    results.append(check_refinement(grid))
    return {
        "schema_version": SCHEMA_VERSION,
        "grid": {"half_width": grid.half_width, "n_nodes": grid.n_nodes},
        "seed": seed,
        "criteria": [r.to_dict() for r in results],
        "all_pass": all(r.passed for r in results),
    }
