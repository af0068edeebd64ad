"""Workloads of the llgtw benchmark: seeded inputs, one pass each, oracles.

`make_inputs` turns a seed into a workload's inputs; the library only ever
receives those.  `run_pass` runs one pass over them through llgtw's public
functions and judges every result with a physics oracle.  Library calls go
through module attributes (`solver.solve_tw`, `dynamics.integrate`, ...), so
a traced pass sees the wrappers that `tracing` installs there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from llgtw import dynamics, solver, verification
from llgtw.model import Grid, Params, Regime, angles_to_cartesian, to_cartesian
from llgtw.walls import bloch_wall

# Relative tolerance of the Walker oracle, in the speed and in the field it
# is evaluated at.  A tenth of the way below the fold the solver matches the
# exact speed to 8e-7.  Closer in, the discrete branch behaves as if its fold
# sat 7e-6 (relative) above alpha*K2/2 on the verify grid, so the field term
# sets the bound there.
WALKER_RTOL = 2e-5
# The discrete problem is exactly mirror-symmetric under H1 -> -H1; the
# measured asymmetry of V is below 1e-12 relative, roundoff near the fold.
SYMMETRY_RTOL = 1e-9
# How far the last accepted field may sit below alpha*K2/2, relative: the
# tolerance tests/test_solver.py puts on the same branch end.
FOLD_GAP_RTOL = 1e-2
# Check 9's bound on V at H1 = 0, the absolute floor of the two above.
V_ZERO_TOL = 1e-10
# Check 11's bounds.
VELOCITY_RTOL = 0.02
UNIT_TOL = 1e-9
ENERGY_RISE_TOL = 1e-9


@dataclass
class Outcome:
    """Operations a pass attempted and the ones that raised or failed an oracle."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def judge(self, label: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def attempt(self, label: str, n_ops: int, call):
        """Return call(), or None after counting the `n_ops` operations it
        would have produced as failed if it raised."""
        try:
            return call()
        except Exception as err:  # any exception fails the operation, not the run
            self.attempted += n_ops
            self.failures.extend([f"{label}: raised {type(err).__name__}: {err}"] * n_ops)
            return None


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for `seed`: the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "verify_fast":
        return {"grid": Grid(20.0, 801), "rayleigh_seed": int(rng.integers(2**31))}
    if workload == "walker_branch":
        # box around (K2, alpha) = (1, 0.1); its corners were measured
        return {
            "grid": Grid(20.0, 801),
            "K2": float(rng.uniform(0.9, 1.15)),
            "alpha": float(rng.uniform(0.085, 0.11)),
        }
    if workload == "wall_dynamics":
        # check 11's grids and alpha, K2; H1 well below breakdown at 0.05
        return {
            "driven_grid": Grid(30.0, 1201),
            "relax_grid": Grid(20.0, 801),
            "H1": float(rng.uniform(0.005, 0.02)),
            "amplitude": float(rng.uniform(0.15, 0.25)),
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(PASSES)}")


def run_pass(workload: str, inputs: dict) -> Outcome:
    return PASSES[workload](inputs)


# --- verify_fast -------------------------------------------------------------

def _verify_fast(inp: dict) -> Outcome:
    """Checks 1-10 and 12 of `llgtw verify`; every check must pass."""
    grid = inp["grid"]
    v = verification
    out = Outcome()
    simple = (
        ("check01", lambda: v.check_static_residual_anisotropy(grid)),
        ("check02", lambda: v.check_static_residual_transverse(grid)),
        ("check03", lambda: v.check_bloch_azimuth_kernel(grid)),
        ("check04", lambda: v.check_shifted_bound(grid, seed=inp["rayleigh_seed"])),
        ("check05", lambda: v.check_tilt_bound(grid)),
        ("check06", lambda: v.check_transverse_azimuth_kernel(grid)),
    )
    for label, run in simple:
        _judge_check(out, label, out.attempt(label, 1, run))

    lattices = {}
    for label, run in (("check07", v.check_tw_lattice_anisotropy),
                       ("check08", v.check_tw_lattice_transverse)):
        got = out.attempt(label, 1, lambda: run(grid))
        if got is not None:
            _judge_check(out, label, got[0])
            lattices[label] = got[1]
    if len(lattices) == 2:
        _judge_check(out, "check09", out.attempt("check09", 1, lambda: v.check_velocity_identity(
            lattices["check07"], lattices["check08"])))
    else:
        out.judge("check09", False, "needs the solves of checks 7 and 8")
    _judge_check(out, "check10", out.attempt("check10", 1, lambda: v.check_mobility(grid)))
    _judge_check(out, "check12", out.attempt("check12", 1, lambda: v.check_refinement(grid)))
    return out


def _judge_check(out: Outcome, label: str, result) -> None:
    if result is not None:
        out.judge(label, result.passed, str(result.observed))


# --- walker_branch -----------------------------------------------------------

# The path runs to PATH_END times the breakdown field in PATH_STEPS steps, so
# every seed takes the same steps in t and no step lands on the fold itself.
PATH_END = 1.5
PATH_STEPS = 10


def walker_speed(H1, K2: float, alpha: float):
    """Exact Walker speed -H1 Delta / alpha (Schryer & Walker 1974), with
    sin 2phi = 2 H1 / (alpha K2) on the stable branch |phi| <= pi/4 and
    Delta = (1 + K2 sin^2 phi)^(-1/2).  NaN beyond the breakdown field."""
    H1 = np.asarray(H1, dtype=float)
    x = 2.0 * H1 / (alpha * K2)
    with np.errstate(invalid="ignore"):
        sin2 = 0.5 * (1.0 - np.sqrt(1.0 - x * x))
    return -H1 / (alpha * np.sqrt(1.0 + K2 * sin2))


def walker_ok(H1: float, V: float, K2: float, alpha: float) -> bool:
    """True when V is the exact Walker speed at some field within relative
    WALKER_RTOL of H1 (and on the branch), to relative WALKER_RTOL.

    Near the fold dV/dH1 diverges, so an error in the discrete fold location
    alone moves V far more than WALKER_RTOL; the field term absorbs that.
    """
    H_w = 0.5 * alpha * K2
    lo, hi = sorted((H1 * (1.0 - WALKER_RTOL), H1 * (1.0 + WALKER_RTOL)))
    lo, hi = max(lo, -H_w), min(hi, H_w)
    if lo > hi:
        return False
    speeds = walker_speed(np.linspace(lo, hi, 65), K2, alpha)
    slack = max(WALKER_RTOL * np.abs(speeds).max(), V_ZERO_TOL)
    return bool(speeds.min() - slack <= V <= speeds.max() + slack)


def judge_branch(out: Outcome, label: str, sols, report, K2: float, alpha: float) -> None:
    """Every accepted V is Walker's; the branch ends at alpha*K2/2 from below."""
    H_w = 0.5 * alpha * K2
    for s in sols:
        out.judge(f"{label} walker V at H1={s.params.H1!r}",
                  walker_ok(s.params.H1, s.V, K2, alpha),
                  f"V={s.V!r}, exact {float(walker_speed(s.params.H1, K2, alpha))!r}")
    fields = np.abs([s.params.H1 for s in sols])
    end = fields[-1]
    ok = (not report.reached_end and bool(np.all(np.diff(fields) > 0))
          and H_w * (1.0 - FOLD_GAP_RTOL) <= end <= H_w * (1.0 + WALKER_RTOL))
    out.judge(f"{label} branch end", ok,
              f"|H1| ends at {end!r}, alpha*K2/2 = {H_w!r}, reached_end={report.reached_end}")


def judge_symmetry(out: Outcome, plus, minus) -> None:
    """V(-H1) = -V(H1) pairwise along the two branches."""
    for i in range(max(len(plus), len(minus))):
        if i >= len(plus) or i >= len(minus):
            out.judge(f"symmetry #{i}", False, "branches have different lengths")
            continue
        a, b = plus[i], minus[i]
        ok = (a.params.H1 == -b.params.H1
              and abs(a.V + b.V) <= max(SYMMETRY_RTOL * abs(a.V), V_ZERO_TOL))
        out.judge(f"symmetry at H1={a.params.H1!r}", ok, f"V(+)={a.V!r}, V(-)={b.V!r}")


def _walker_branch(inp: dict) -> Outcome:
    K2, alpha, grid = inp["K2"], inp["alpha"], inp["grid"]
    H_end = PATH_END * 0.5 * alpha * K2
    opts = solver.NewtonOptions(tol_residual=1e-11)
    start = Params(0.0, 0.0, 0.0, K2, alpha)
    out = Outcome()
    branches = {}
    for label, sign in (("+H1", 1.0), ("-H1", -1.0)):
        end = Params(sign * H_end, 0.0, 0.0, K2, alpha)
        got = out.attempt(label, 1, lambda: solver.continue_branch(
            start, end, PATH_STEPS, Regime.walker(K2), grid, opts))
        if got is not None:
            judge_branch(out, label, *got, K2, alpha)
            branches[label] = got[0]
    if len(branches) == 2:
        judge_symmetry(out, branches["+H1"], branches["-H1"])
    else:
        out.judge("symmetry", False, "a branch raised")
    return out


# --- wall_dynamics -----------------------------------------------------------

DRIVEN_T = 4.0
RELAX_T = 5.0


def _wall_dynamics(inp: dict) -> Outcome:
    out = Outcome()
    got = out.attempt("driven", 2, lambda: _driven(inp["driven_grid"], inp["H1"]))
    if got is not None:
        judge_driven(out, *got)
    got = out.attempt("relax", 2, lambda: _relax(inp["relax_grid"], inp["amplitude"]))
    if got is not None:
        judge_relax(out, *got)
    return out


def judge_driven(out: Outcome, V: float, tracked: float, unit: float) -> None:
    """Check 11's bounds: tracked velocity within 2% of V, |m| = 1 to 1e-9."""
    gap = abs(tracked - V) / abs(V)
    out.judge("driven velocity", gap <= VELOCITY_RTOL, f"relative gap {gap!r}")
    out.judge("driven unit norm", unit <= UNIT_TOL, f"max violation {unit!r}")


def judge_relax(out: Outcome, energy, unit: float) -> None:
    """Check 11's bounds: energy non-increasing to 1e-9 per step, |m| = 1 to 1e-9."""
    rise = float(np.max(np.diff(energy)))
    out.judge("relax energy", rise <= ENERGY_RISE_TOL, f"max rise per step {rise!r}")
    out.judge("relax unit norm", unit <= UNIT_TOL, f"max violation {unit!r}")


def _driven(grid: Grid, H1: float):
    """A wall started from the travelling-wave profile keeps the solver's V."""
    params = Params(H1, 0.0, 0.0, 1.0, 0.1)
    sol = solver.solve_tw(params, Regime.walker(1.0), grid,
                          solver.NewtonOptions(tol_residual=1e-12))
    traj = dynamics.integrate(to_cartesian(sol.profile), params, grid, T=DRIVEN_T)
    _, tracked = dynamics.track_wall(traj)
    return sol.V, tracked, float(traj.max_unit_violation.max())


def _relax(grid: Grid, amplitude: float):
    """At zero field a perturbed Bloch wall relaxes: the energy never rises."""
    wall = bloch_wall(grid)
    m0 = angles_to_cartesian(wall.psi + amplitude / np.cosh(grid.xi), wall.beta)
    traj = dynamics.integrate(m0, Params(0.0, 0.0, 0.0, 1.0, 0.1), grid,
                              T=RELAX_T, sample_every=1)
    return traj.energy, float(traj.max_unit_violation.max())


PASSES = {
    "verify_fast": _verify_fast,
    "walker_branch": _walker_branch,
    "wall_dynamics": _wall_dynamics,
}
