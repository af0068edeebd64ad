"""Dynamics: the full magnetization equation relaxes onto the travelling wave.

Starting the damped precession dynamics from the *static* wall under a
driving field, the wall accelerates and settles into steady motion whose
tracked velocity matches the travelling-wave solver.  At zero applied
field the discrete energy is a Lyapunov function: it can only decrease.

This demo uses a moderate grid so it finishes in a few seconds; the
verification suite repeats it at the production resolution.  `integrate`
uses the implicit midpoint rule and chooses its own steps, holding the
local error estimate under MIDPOINT_TOL; `dt=...` fixes the step instead,
and `method="rk4"` selects the explicit scheme, held to dt <= 0.25 h^2.
"""

import numpy as np

from llgtw import (
    Grid,
    NewtonOptions,
    Params,
    Regime,
    integrate,
    solve_tw,
    to_cartesian,
    track_wall,
)
from llgtw.model import angles_to_cartesian
from llgtw.walls import bloch_wall

grid = Grid(20.0, 401)
params = Params(0.01, 0, 0, 1.0, 0.1)

sol = solve_tw(params, Regime.walker(1.0), grid, NewtonOptions(tol_residual=1e-12))
print(f"travelling-wave solver: V = {sol.V:.6f}")

m0 = to_cartesian(bloch_wall(grid))
traj = integrate(m0, params, grid, T=80.0)
positions, vel = track_wall(traj)
print(f"dynamics from the static wall, T = 80: tracked velocity = {vel:.6f} "
      f"({abs(vel - sol.V) / abs(sol.V):.2%} from the solver)")

# Lyapunov property at zero field: an excited wall relaxes monotonically
p0 = Params(0, 0, 0, 1.0, 0.1)
wall = bloch_wall(grid)
m_ex = angles_to_cartesian(wall.psi + 0.2 / np.cosh(grid.xi), wall.beta)
traj0 = integrate(m_ex, p0, grid, T=5.0, sample_every=1)
rises = np.diff(traj0.energy).max()
print(f"zero-field relaxation: energy {traj0.energy[0]:.6f} -> {traj0.energy[-1]:.6f}, "
      f"largest per-step rise = {rises:.2e}")
print(f"largest pre-renormalization |m| drift = {traj0.max_unit_violation.max():.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 3.6))
    axes[0].plot(traj.t, positions)
    axes[0].plot(traj.t, sol.V * traj.t, "--", label="solver slope")
    axes[0].set_xlabel("t")
    axes[0].set_ylabel("wall position")
    axes[0].legend()

    axes[1].plot(traj0.t, traj0.energy)
    axes[1].set_xlabel("t")
    axes[1].set_ylabel("energy (zero-field relaxation)")
    fig.tight_layout()
    fig.savefig("demos_dynamics.png", dpi=130)
    print("\nwrote demos_dynamics.png")
